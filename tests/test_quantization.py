"""k-means, hash-tree encoder, and product quantization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import (
    HashTreeEncoder,
    ProductQuantizer,
    build_weight_table,
    kmeans_fit,
    lookup_aggregate,
    pairwise_prototype_table,
)
from repro.quantization import kmeans as kmeans_mod
from repro.quantization.kmeans import NEAREST_TILE, nearest_into, nearest_operands
from repro.tabularization.fastpath import EncodePlan


def _clustered_data(rng, n=600, d=8, k=4, spread=0.05):
    centers = rng.standard_normal((k, d)) * 3
    labels = rng.integers(0, k, size=n)
    return centers[labels] + spread * rng.standard_normal((n, d)), centers


def test_kmeans_recovers_separated_clusters(rng):
    x, true_centers = _clustered_data(rng)
    centers, assign, inertia = kmeans_fit(x, 4, rng=0)
    # Every learned center should be near some true center.
    d = np.linalg.norm(centers[:, None] - true_centers[None], axis=-1).min(axis=1)
    assert (d < 0.5).all()
    assert inertia < x.shape[0] * 0.1


def test_kmeans_assignment_is_nearest(rng):
    x = rng.standard_normal((100, 5))
    centers, assign, _ = kmeans_fit(x, 8, rng=1)
    dist = np.linalg.norm(x[:, None] - centers[None], axis=-1)
    assert np.array_equal(assign, dist.argmin(axis=1))


def test_kmeans_k_exceeds_n(rng):
    x = rng.standard_normal((5, 3))
    centers, assign, inertia = kmeans_fit(x, 16, rng=0)
    assert centers.shape == (16, 3)
    assert inertia == 0.0  # every point is its own prototype


def test_kmeans_identical_points():
    x = np.ones((50, 4))
    centers, assign, inertia = kmeans_fit(x, 4, rng=0)
    assert np.allclose(centers[assign], 1.0)


def test_kmeans_rejects_bad_input():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((0, 3)), 2)
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((5, 3)), 0)


def test_hash_tree_balanced_leaves(rng):
    x = rng.standard_normal((1024, 6))
    tree = HashTreeEncoder(16).fit(x)
    codes = tree.encode(x)
    counts = np.bincount(codes, minlength=16)
    # Median splits keep the tree roughly balanced.
    assert counts.max() <= 4 * max(counts.min(), 1)
    assert tree.prototypes.shape == (16, 6)


def test_hash_tree_encode_latency_is_depth():
    tree = HashTreeEncoder(32)
    assert tree.depth == 5
    with pytest.raises(ValueError):
        HashTreeEncoder(12)  # not a power of two


def test_hash_tree_deterministic(rng):
    x = rng.standard_normal((256, 4))
    t1 = HashTreeEncoder(8).fit(x)
    t2 = HashTreeEncoder(8).fit(x)
    probe = rng.standard_normal((50, 4))
    assert np.array_equal(t1.encode(probe), t2.encode(probe))


@pytest.mark.parametrize("encoder", ["exact", "hash"])
def test_pq_reconstruction_error_decreases_with_k(rng, encoder):
    x, _ = _clustered_data(rng, n=800, d=8, k=8, spread=0.3)
    errs = [
        ProductQuantizer(8, 2, k, encoder=encoder, rng=0).fit(x).quantization_error(x)
        for k in (4, 16, 64)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_pq_encode_shape_and_range(rng):
    x = rng.standard_normal((200, 10))
    pq = ProductQuantizer(10, 3, 16, rng=0).fit(x)  # 10 dims over 3 subspaces: padded
    codes = pq.encode(x)
    assert codes.shape == (200, 3)
    assert codes.min() >= 0 and codes.max() < 16
    assert pq.padded_dim == 12


def test_pq_linear_approximation_improves_with_k(rng):
    x, _ = _clustered_data(rng, n=800, d=16, k=16, spread=0.2)
    w = rng.standard_normal((6, 16))
    b = rng.standard_normal(6)
    exact = x @ w.T + b
    errs = []
    for k in (8, 64, 256):
        pq = ProductQuantizer(16, 4, k, rng=0).fit(x)
        approx = lookup_aggregate(build_weight_table(pq, w, b), pq.encode(x))
        errs.append(float(np.abs(approx - exact).mean()))
    assert errs[0] > errs[1] > errs[2]


def test_bias_folding_adds_exactly_once(rng):
    x = rng.standard_normal((100, 8))
    w = rng.standard_normal((4, 8))
    b = rng.standard_normal(4) * 100  # large so errors would be obvious
    pq = ProductQuantizer(8, 4, 32, rng=0).fit(x)
    codes = pq.encode(x)
    with_b = lookup_aggregate(build_weight_table(pq, w, b), codes)
    without_b = lookup_aggregate(build_weight_table(pq, w, None), codes)
    assert np.allclose(with_b - without_b, b[None, :])


def test_lookup_aggregate_equals_manual_sum(rng):
    """Bitwise: subspaces are summed in order, as the fast path sums them."""
    for n_sub in (1, 2, 3, 9):
        table = rng.standard_normal((n_sub, 5, 4))
        codes = rng.integers(0, 5, size=(7, n_sub))
        out = lookup_aggregate(table, codes)
        for i in range(7):
            ref = sum(table[c, codes[i, c]] for c in range(n_sub))
            assert np.array_equal(out[i], ref)


def test_pairwise_prototype_table(rng):
    pa = rng.standard_normal((2, 4, 3))
    pb = rng.standard_normal((2, 4, 3))
    t = pairwise_prototype_table(pa, pb)
    assert t.shape == (2, 4, 4)
    assert np.allclose(t[1, 2, 3], pa[1, 2] @ pb[1, 3])
    with pytest.raises(ValueError):
        pairwise_prototype_table(pa, pb[:1])


def test_pq_validation_errors(rng):
    with pytest.raises(ValueError):
        ProductQuantizer(4, 8, 16)  # more subspaces than dims
    with pytest.raises(ValueError):
        ProductQuantizer(8, 2, 16, encoder="fuzzy")
    pq = ProductQuantizer(8, 2, 4, rng=0)
    with pytest.raises(RuntimeError):
        pq.encode(np.zeros((3, 8)))  # not fitted


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=100),
    c=st.integers(min_value=1, max_value=4),
    k=st.sampled_from([2, 4, 8]),
)
def test_pq_quantized_reconstruction_is_prototype_pick(n, c, k):
    """Property: reconstruction of a training row equals its nearest prototypes."""
    rng = np.random.default_rng(n * 7 + c)
    x = rng.standard_normal((n, 8))
    pq = ProductQuantizer(8, c, k, rng=0).fit(x)
    codes = pq.encode(x)
    recon = pq.reconstruct(codes)
    # re-encoding a reconstruction returns the same codes (idempotence)
    assert np.array_equal(pq.encode(recon), codes)


# ------------------------------------------------- tiled exact encode kernel
def _untiled_nearest(x, centers):
    """The untiled reference: one ``c_sq - 2.0·(x @ Pᵀ)`` block over all rows."""
    c_sq = (centers * centers).sum(axis=1)
    return np.argmin(c_sq[None, :] - 2.0 * (x @ centers.T), axis=1)


def _untiled_encode(pq, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    padded = np.zeros((x.shape[0], pq.padded_dim))
    padded[:, : pq.dim] = x
    subs = padded.reshape(x.shape[0], pq.n_subspaces, pq.subdim)
    return np.stack(
        [_untiled_nearest(subs[:, c], p) for c, p in enumerate(pq.prototypes)], axis=1
    )


@pytest.fixture(scope="module")
def fitted_pq():
    x = np.random.default_rng(5).standard_normal((2000, 12))
    return ProductQuantizer(12, 3, 32, rng=0).fit(x)


@pytest.mark.parametrize(
    "n", [1, NEAREST_TILE - 1, NEAREST_TILE, NEAREST_TILE + 1, 3 * NEAREST_TILE + 5]
)
def test_tiled_encode_equals_untiled_formula(fitted_pq, n):
    x = np.random.default_rng(n).standard_normal((n, 12))
    codes = fitted_pq.encode(x)
    assert codes.shape == (n, 3)
    assert np.array_equal(codes, _untiled_encode(fitted_pq, x))


def test_tiled_encode_one_dimensional_input(fitted_pq):
    x = np.random.default_rng(1).standard_normal(12)
    codes = fitted_pq.encode(x)
    assert codes.shape == (3,)
    assert np.array_equal(codes, _untiled_encode(fitted_pq, x)[0])


def test_tiled_encode_padded_dim(rng):
    x = rng.standard_normal((NEAREST_TILE + 7, 10))
    pq = ProductQuantizer(10, 3, 16, rng=0).fit(x)  # 10 dims over 3 subspaces: padded
    assert pq.padded_dim == 12
    assert np.array_equal(pq.encode(x), _untiled_encode(pq, x))


def test_tiled_encode_non_contiguous_input(fitted_pq, rng):
    wide = rng.standard_normal((NEAREST_TILE + 3, 24))
    strided = wide[:, ::2]
    fortran = np.asfortranarray(wide[:, :12])
    for x in (strided, fortran):
        assert not x.flags.c_contiguous
        assert np.array_equal(fitted_pq.encode(x), _untiled_encode(fitted_pq, x))


def test_exact_operands_rebuilt_when_prototypes_change(rng):
    x = rng.standard_normal((600, 8))
    pq = ProductQuantizer(8, 2, 16, rng=0).fit(x)
    ops = pq.exact_operands()
    assert pq.exact_operands() is ops  # cached between encodes
    assert set(pq.state_dict()) == {"prototypes"}  # never serialized

    pq.fit(rng.standard_normal((600, 8)) + 3.0)  # re-fit rebinds prototypes
    assert pq.exact_operands() is not ops
    assert np.array_equal(pq.encode(x), _untiled_encode(pq, x))

    ops = pq.exact_operands()
    pq.prototypes = np.ascontiguousarray(pq.prototypes[:, ::-1])  # as a loader does
    assert pq.exact_operands() is not ops
    assert np.array_equal(pq.encode(x), _untiled_encode(pq, x))


@pytest.mark.parametrize("subdim", [8, 16, 32, 64])
def test_exact_operands_give_row_count_invariant_products(rng, subdim):
    """A row's distances must not depend on how many rows share its product:
    the batch encode's tail tile and the fast path's T-row plans rely on it."""
    pq = ProductQuantizer(2 * subdim, 2, 128)
    pq.prototypes = rng.standard_normal((2, 128, subdim))
    x = np.ones((NEAREST_TILE, subdim + 1))  # rows carry the ones column
    x[:, :subdim] = rng.standard_normal((NEAREST_TILE, subdim))
    for op in pq.exact_operands():
        assert op.shape == (subdim + 1, 128) and op.flags.c_contiguous
        full = x.dot(op)
        for m in (*range(2, 18), 32, 33, NEAREST_TILE - 1):
            assert np.array_equal(x[:m].dot(op), full[:m]), f"{m} rows"


def _two_pass_nearest(x, centers):
    """The two-pass kernel the fused operand replaced: per tile, one product
    with ``-2·Pᵀ``, a separate add of ``‖P‖²``, then the argmin."""
    neg2_t = np.ascontiguousarray(np.multiply(centers, -2.0).T)
    c_sq = (centers * centers).sum(axis=1)
    padded = np.zeros((x.shape[0], centers.shape[1]))
    padded[:, : x.shape[1]] = x
    codes = []
    for s in range(0, x.shape[0], NEAREST_TILE):
        rows = padded[s : s + NEAREST_TILE]
        m = rows.shape[0]
        if m == 1:
            rows = np.concatenate((rows, rows))
        block = rows.dot(neg2_t)
        np.add(block, c_sq, block)
        codes.append(block[:m].argmin(1))
    return np.concatenate(codes)


@pytest.mark.parametrize("n", [2, 3, 17, 128, 511, 512])
@pytest.mark.parametrize("k", [16, 128])
@pytest.mark.parametrize("width", [3, 8, 16, 32])
def test_fused_distance_block_bitwise_equals_product_then_add(width, k, n):
    """The kernel's exactness rests on gemm summing the d+1 products of an
    element in order into one accumulator, so the last product ``1.0·‖P‖²``
    rounds ``acc + ‖P‖²`` as the separate add did. A BLAS that splits the
    sum or reorders it changes the distances' last bits and fails here,
    before a code flips."""
    rng = np.random.default_rng(width * 7 + k + n)
    centers = rng.standard_normal((k, width)) * 4.0
    x = rng.standard_normal((n, width))
    op = nearest_operands(centers)
    rows = np.ones((n, width + 1))
    rows[:, :width] = x
    two_pass = x.dot(op[:width].copy())
    np.add(two_pass, op[width], two_pass)
    assert np.array_equal(rows.dot(op), two_pass)


@pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 2049])
@pytest.mark.parametrize("k", [16, 128])
@pytest.mark.parametrize("width, dim, c", [(3, 6, 2), (8, 16, 2), (16, 32, 2),
                                           (32, 64, 2), (3, 5, 2)])
def test_fused_nearest_equals_two_pass_reference(width, dim, c, k, n):
    """The fused one-GEMM kernel gives the two-pass kernel's codes, and the
    untiled formula's, for plain and padded quantizers (dim 5 over C=2 pads
    its last subspace from 2 columns to 3)."""
    rng = np.random.default_rng(width * 1000 + k + n)
    pq = ProductQuantizer(dim, c, k)
    assert pq.subdim == width
    pq.prototypes = rng.standard_normal((c, k, width))
    x = rng.standard_normal((n, dim))
    codes = pq.encode(x)
    assert np.array_equal(codes, _untiled_encode(pq, x))
    for ci, (op, centers) in enumerate(zip(pq.exact_operands(), pq.prototypes)):
        cols = x[:, ci * width : (ci + 1) * width]
        ref = _two_pass_nearest(cols, centers)
        assert np.array_equal(codes[:, ci], ref)
        got = nearest_into(cols, op, np.empty(n, dtype=np.intp))
        assert np.array_equal(got, ref)
        assert np.array_equal(nearest_into(cols, nearest_operands(centers),
                                           np.empty(n, dtype=np.intp)), ref)
    with pytest.raises(ValueError, match=f"expected dim {dim}"):
        pq.encode(rng.standard_normal((n, pq.padded_dim + 1)))


@pytest.mark.parametrize("width", [8, 16, 32])
def test_one_row_encode_equals_batched_on_near_ties(width):
    """A one-row product through gemv rounds differently from gemm; on rows
    almost equidistant from two prototypes that flips codes. The kernel's
    doubled row and the fast path's spare row keep one-row encodes on gemm."""
    rng = np.random.default_rng(width)
    pq = ProductQuantizer(width, 1, 16)
    pq.prototypes = rng.standard_normal((1, 16, width))
    p = pq.prototypes[0]
    i, j = rng.integers(16, size=(2, 400))
    i, j = i[i != j], j[i != j]
    x = (p[i] + p[j]) / 2 + 1e-15 * rng.standard_normal((i.size, width))
    batched = pq.encode(x)[:, 0]
    plan = EncodePlan(pq, 1)
    for row, want in zip(x, batched):
        assert pq.encode(row[None])[0, 0] == want
        assert plan.encode(row[None])[0, 0] == want


def test_tiled_encode_memory_stays_below_one_distance_matrix():
    """The untiled kernel allocated several (n, K) float64 temporaries."""
    n, k = 65536, 128
    rng = np.random.default_rng(0)
    pq = ProductQuantizer(16, 2, k)
    pq.prototypes = rng.standard_normal((2, k, 8))
    x = rng.standard_normal((n, 16))
    pq.encode(x[:4])  # build the cached operands outside the measurement
    tracemalloc.start()
    try:
        pq.encode(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8 / 16


@pytest.mark.parametrize("n, k", [(1500, 16), (5, 16)])
def test_kmeans_bitwise_equal_to_untiled_assignment(rng, monkeypatch, n, k):
    """Seeded k-means gives the same centers and labels as with the old
    ``c_sq - 2.0·(x @ Pᵀ)`` assignment (the second case is the k >= n path)."""
    x = rng.standard_normal((n, 6))
    centers, labels, inertia = kmeans_fit(x, k, rng=3)
    monkeypatch.setattr(kmeans_mod, "assign_nearest", _untiled_nearest)
    ref_centers, ref_labels, ref_inertia = kmeans_fit(x, k, rng=3)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(labels, ref_labels)
    assert inertia == ref_inertia
