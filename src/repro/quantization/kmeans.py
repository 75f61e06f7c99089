"""Vectorized Lloyd's k-means with k-means++ seeding.

This is the prototype-learning step of product quantization (paper Eq. 5):
within each subspace the K prototypes minimize the distance between training
subvectors and their nearest prototype. Fully NumPy-vectorized: distances are
computed with the ``||x||^2 + ||c||^2 - 2 x.c`` expansion, one GEMM per
iteration.

:func:`nearest_into` is the repository's one nearest-prototype kernel (paper
Eq. 7). :func:`assign_nearest` (k-means, the adaptation re-fit) and
``ProductQuantizer.encode`` (both serving paths) all run it. It walks the rows
in tiles of :data:`NEAREST_TILE`, so its ``(tile, K)`` distance block stays in
cache instead of materializing ``(n, K)`` temporaries. Per row it computes
``x·(-2·Cᵀ) + ‖C‖²``, which is bitwise-identical to ``‖C‖² - 2.0·(x·Cᵀ)``:
scaling by -2 is exact and commutes with rounding, and ``a - b ≡ (-b) + a``.
The Lloyd loop keeps its full ``(n, K)`` distance matrix because its inertia
and empty-cluster repair read every entry.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import new_rng


def _kmeans_pp_init(
    x: np.ndarray, k: int, rng: np.random.Generator, max_rows: int = 2048
) -> np.ndarray:
    """k-means++ seeding: iteratively sample points far from chosen centers.

    Seeding is O(k·n·d); it runs on a uniform subsample of at most
    ``max_rows`` rows — seeding quality saturates quickly and Lloyd iterations
    on the full data do the real work.
    """
    if x.shape[0] > max_rows:
        x = x[np.linspace(0, x.shape[0] - 1, max_rows).astype(np.int64)]
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    closest_sq = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-12:
            # All points identical to chosen centers; fill remaining randomly.
            centers[i:] = x[rng.integers(n, size=k - i)]
            break
        probs = closest_sq / total
        idx = int(rng.choice(n, p=probs))
        centers[i] = x[idx]
        d = ((x - centers[i]) ** 2).sum(axis=1)
        np.minimum(closest_sq, d, out=closest_sq)
    return centers


#: Rows per distance tile of :func:`nearest_into`. At K=128 a 512-row float64
#: block is 512 KB and stays in cache. In a sweep on a 2-vCPU x86-64 host
#: (OpenBLAS 0.3.31), tiles of 128-1024 rows were flat and 512 was fastest.
NEAREST_TILE = 512


def nearest_operands(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(-2·centersᵀ, ‖centers‖²)``: the operands :func:`nearest_into` takes.

    ``-2·centersᵀ`` is made C-contiguous. With the transposed view instead,
    OpenBLAS rounds products of few rows differently from large ones once
    ``d >= 32``: up to 9 rows at K=128, 37 at K=32, 129 at K=8. With the
    contiguous operand a row gets the same bits at any row count, and large
    products equal the transposed view's.
    """
    centers = np.asarray(centers, dtype=np.float64)
    neg2_t = np.ascontiguousarray(np.multiply(centers, -2.0).T)
    return neg2_t, (centers * centers).sum(axis=1)


def nearest_into(
    x: np.ndarray, neg2_t: np.ndarray, c_sq: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write the index of the nearest center of each row of ``x`` into ``out``.

    ``x`` is ``(n, d)`` float64 and may be a strided view; ``out`` is an
    ``(n,)`` intp array. The operands come from :func:`nearest_operands`.
    Each tile is one GEMM into the distance block, an in-place add and an
    argmin; ``||x||^2`` is constant per row and never formed.
    """
    n = x.shape[0]
    dist = np.empty((min(max(n, 2), NEAREST_TILE), c_sq.shape[0]))
    for s in range(0, n, NEAREST_TILE):
        rows, dst = x[s : s + NEAREST_TILE], out[s : s + NEAREST_TILE]
        if rows.shape[0] == 1:
            # A one-row product runs gemv, whose summation order differs from
            # gemm's; doubling the row keeps every row on the same arithmetic.
            rows = np.concatenate((rows, rows))
        block = dist[: rows.shape[0]]
        rows.dot(neg2_t, block)
        np.add(block, c_sq, block)
        block[: dst.shape[0]].argmin(1, dst)
    return out


def assign_nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every row of ``x`` (paper Eq. 7)."""
    x = np.asarray(x, dtype=np.float64)
    return nearest_into(x, *nearest_operands(centers), np.empty(x.shape[0], dtype=np.intp))


def kmeans_fit(
    x: np.ndarray,
    k: int,
    rng=0,
    max_iters: int = 25,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cluster rows of ``x`` into ``k`` prototypes.

    Returns ``(centers (k, d), assignments (n,), inertia)``. Handles ``k >= n``
    by padding centers with jittered copies of data points, and repairs empty
    clusters by reseeding them at the points farthest from their center.
    """
    rng = new_rng(rng)
    x = np.ascontiguousarray(x, dtype=np.float64)
    n, d = x.shape
    k = int(k)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if n == 0:
        raise ValueError("cannot cluster an empty training set")
    if k >= n:
        # Degenerate: every point is its own prototype; pad with jitter.
        centers = np.empty((k, d))
        centers[:n] = x
        scale = x.std() if x.std() > 0 else 1.0
        centers[n:] = x[rng.integers(n, size=k - n)] + 1e-3 * scale * rng.standard_normal(
            (k - n, d)
        )
        assign = assign_nearest(x, centers)
        return centers, assign, 0.0

    centers = _kmeans_pp_init(x, k, rng)
    assign = np.zeros(n, dtype=np.int64)
    x_sq = (x * x).sum(axis=1)
    prev_inertia = np.inf
    for _ in range(max_iters):
        cross = x @ centers.T
        c_sq = (centers * centers).sum(axis=1)
        dist = x_sq[:, None] - 2.0 * cross + c_sq[None, :]
        assign = np.argmin(dist, axis=1)
        inertia = float(np.take_along_axis(dist, assign[:, None], axis=1).sum())
        # Recompute centers as cluster means (vectorized scatter-add).
        counts = np.bincount(assign, minlength=k).astype(np.float64)
        sums = np.zeros((k, d))
        np.add.at(sums, assign, x)
        empty = counts == 0
        if empty.any():
            # Reseed empty clusters at the currently worst-served points.
            worst = np.argsort(np.take_along_axis(dist, assign[:, None], axis=1)[:, 0])[
                -int(empty.sum()) :
            ]
            sums[empty] = x[worst]
            counts[empty] = 1.0
        centers = sums / counts[:, None]
        if abs(prev_inertia - inertia) <= tol * max(abs(prev_inertia), 1.0):
            break
        prev_inertia = inertia
    assign = assign_nearest(x, centers)
    inertia = float(((x - centers[assign]) ** 2).sum())
    return centers, assign, inertia
