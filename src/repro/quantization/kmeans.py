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
cache instead of materializing ``(n, K)`` temporaries. Each tile is one GEMM:
the rows, extended by a column of ones, times the fused ``(d+1, K)`` operand
``[-2·Cᵀ; ‖C‖²]`` of :func:`nearest_operands`. That gives
``x·(-2·Cᵀ) + ‖C‖²`` per row, bitwise-identical to ``‖C‖² - 2.0·(x·Cᵀ)``:
scaling by -2 is exact and commutes with rounding, ``a - b ≡ (-b) + a``, and
gemm's last fused multiply-add ``fma(1.0, ‖C‖², acc)`` rounds ``acc + ‖C‖²``
exactly as a separate add does. The Lloyd loop keeps its full ``(n, K)``
distance matrix because its inertia and empty-cluster repair read every entry.
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
#: block is 512 KB and stays in cache. Swept with the fused operand on a
#: 2-vCPU x86-64 host (OpenBLAS 0.3.31, one BLAS thread): over 10 alternating
#: passes of the 17,375-row ``sim-ipc`` predict in 128-row chunks, tiles of
#: 128/256/1024 rows beat 512 in 2/6/4 passes (medians 2.20/1.99/2.13 s
#: against 1.98 s), so 512 stays.
NEAREST_TILE = 512


def nearest_operands(centers: np.ndarray) -> np.ndarray:
    """The fused ``(d+1, K)`` operand :func:`nearest_into` takes.

    Rows ``0..d-1`` hold ``-2·centersᵀ`` and the last row ``‖centers‖²``.
    The array is C-contiguous. With a transposed view instead, OpenBLAS
    rounds products of few rows differently from large ones once
    ``d >= 32``: up to 9 rows at K=128, 37 at K=32, 129 at K=8. With the
    contiguous operand a row gets the same bits at any row count.
    """
    centers = np.asarray(centers, dtype=np.float64)
    k, d = centers.shape
    op = np.empty((d + 1, k))
    np.multiply(centers.T, -2.0, op[:d])
    (centers * centers).sum(axis=1, out=op[d])
    return op


def nearest_into(x: np.ndarray, op: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the index of the nearest center of each row of ``x`` into ``out``.

    ``x`` is ``(n, w)`` float64 with ``w <= d`` and may be a strided view;
    ``op`` is the ``(d+1, K)`` operand of :func:`nearest_operands` and ``out``
    an ``(n,)`` intp array. Each tile is copied into a ``(tile, d+1)`` buffer
    whose last column is 1.0 and whose columns ``w..d-1`` stay zero (the
    subspace padding), then one GEMM into the distance block and an argmin;
    ``||x||^2`` is constant per row and never formed.
    """
    n, w = x.shape
    d = op.shape[0] - 1
    rows_buf = np.zeros((min(max(n, 2), NEAREST_TILE), d + 1))
    rows_buf[:, d] = 1.0
    cols = rows_buf[:, :w]
    dist = np.empty((rows_buf.shape[0], op.shape[1]))
    for s in range(0, n, NEAREST_TILE):
        rows, dst = x[s : s + NEAREST_TILE], out[s : s + NEAREST_TILE]
        m = rows.shape[0]
        cols[:m] = rows
        if m == 1:
            # A one-row product runs gemv, whose summation order differs from
            # gemm's; doubling the row keeps every row on the same arithmetic.
            cols[1] = rows[0]
            m = 2
        block = dist[:m]
        rows_buf[:m].dot(op, block)
        block[: dst.shape[0]].argmin(1, dst)
    return out


def assign_nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every row of ``x`` (paper Eq. 7)."""
    x = np.asarray(x, dtype=np.float64)
    return nearest_into(x, nearest_operands(centers), np.empty(x.shape[0], dtype=np.intp))


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
