"""Single-query fast path: bit-identity, scratch reuse, refresh guards.

:class:`~repro.tabularization.fastpath.SingleQueryFastPath` replays the
generic batched query as a fused plan over preallocated scratch — worth
nothing unless the answer is *bitwise* the generic one, because the serving
conformance story (stream == batch oracle) rides on it. Every test here pins
equality with ``np.array_equal``, not allclose.
"""

from __future__ import annotations

import copy
import pickle
import sys

import numpy as np
import pytest

from repro.tabularization import SingleQueryFastPath


@pytest.fixture(scope="module")
def tab(tabular_student):
    model, _ = tabular_student
    return model


@pytest.fixture(scope="module")
def queries(small_dataset):
    return small_dataset.x_addr[:200], small_dataset.x_pc[:200]


def test_query1_bitwise_identical_to_generic(tab, queries):
    xa, xp = queries
    ref = tab.query(xa, xp)
    for i in range(len(xa)):
        got = tab.query1(xa[i], xp[i])
        assert got.shape == ref[i].shape
        assert np.array_equal(got, ref[i]), f"row {i} diverged"


def test_query1_accepts_leading_batch_axis(tab, queries):
    xa, xp = queries
    a = tab.query1(xa[0], xp[0])
    b = tab.query1(xa[:1], xp[:1])
    assert np.array_equal(a, b)


def test_query1_rejects_wrong_history(tab, queries):
    xa, xp = queries
    with pytest.raises(ValueError):
        tab.query1(xa[0, :-1], xp[0])


def test_fast_path_is_cached(tab):
    fp = tab.fast_path()
    assert isinstance(fp, SingleQueryFastPath)
    assert tab.fast_path() is fp


@pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
def test_copy_of_served_model_builds_its_own_fast_path(tab, queries, clone):
    """A copy taken after ``query1`` must not carry the original's plan,
    whose bound GEMM calls point into the original's scratch."""
    xa, xp = queries
    tab.query1(xa[0], xp[0])
    twin = copy.deepcopy(tab) if clone == "deepcopy" else pickle.loads(pickle.dumps(tab))
    assert "_fast_path" not in vars(twin)
    rng = np.random.default_rng(5)
    for i in rng.choice(len(xa), 3, replace=False):
        want = twin.predict_proba(xa[i : i + 1], xp[i : i + 1])[0]
        assert np.array_equal(twin.query1(xa[i], xp[i]), want), f"row {i} diverged"
    assert twin.fast_path() is not tab.fast_path()


def test_query_into_steady_state_allocates_nothing(tab, queries):
    """After warmup, repeated queries run entirely in preallocated scratch."""
    xa, xp = queries
    fp = tab.fast_path()
    out = np.empty((1, tab.model_config.bitmap_size), dtype=np.float64)
    for i in range(20):  # warm every lazily-built view/cache
        fp.query_into(xa[i], xp[i], out)
    inputs = fp._input_map()
    keys = dict(inputs.ids)
    before = sys.getallocatedblocks()
    for i in range(50):
        fp.query_into(xa[i % 20], xp[i % 20], out)
    after = sys.getallocatedblocks()
    # Python-frame churn allows a tiny wobble; 50 queries through the generic
    # path would allocate thousands of blocks.
    assert abs(after - before) < 50
    # Every measured query was an input-map hit: no key was added.
    assert fp._input_map() is inputs and inputs.ids == keys


def test_query_into_repeated_calls_stay_bitwise(tab, queries):
    xa, xp = queries
    fp = tab.fast_path()
    out = np.empty((1, tab.model_config.bitmap_size), dtype=np.float64)
    ref = tab.query(xa[:5], xp[:5])
    for _ in range(3):  # scratch reuse must not leak state across calls
        for i in range(5):
            fp.query_into(xa[i], xp[i], out)
            assert np.array_equal(out[0], ref[i])


def test_fast_path_tracks_inplace_table_rebuild(tab, queries):
    """An in-place kernel ``rebuild()`` must invalidate the gathered plans
    and the input map."""
    xa, xp = queries
    fp = tab.fast_path()
    fp.query_into(xa[0], xp[0], np.empty((1, tab.model_config.bitmap_size)))  # build caches
    for kernel in (tab.head_table, tab.addr_table, tab.pc_table):
        old_table = kernel.table
        try:
            # Swap the table array (what a drift-refresh rebuild() does); the
            # plan must notice the new array and re-gather from it.
            kernel.table = old_table * 2.0
            got = tab.query1(xa[0], xp[0])
            ref = tab.query(xa[:1], xp[:1])[0]
            assert np.array_equal(got, ref)
        finally:
            kernel.table = old_table


def test_predict_proba_batch_one_matches_query1(tab, queries):
    xa, xp = queries
    probs = tab.predict_proba(xa[:8], xp[:8], batch_size=1)
    for i in range(8):
        assert np.array_equal(probs[i], tab.query1(xa[i], xp[i]))


@pytest.fixture(scope="module")
def dart_geometry():
    """Tables at the paper's DART geometry: D=32, H=2, T=16, K=128, C=2."""
    from repro.data import PreprocessConfig, build_dataset
    from repro.distillation import TrainConfig, train_model
    from repro.models import AttentionPredictor, ModelConfig
    from repro.tabularization import TableConfig, tabularize_predictor
    from repro.traces import make_workload

    pre = PreprocessConfig(history_len=16, window=10, delta_range=128)
    trace = make_workload("462.libquantum", scale=0.05, seed=11)
    ds = build_dataset(trace.pcs, trace.addrs, pre, max_samples=1100)
    student = AttentionPredictor(
        ModelConfig(layers=1, dim=32, heads=2, history_len=16, bitmap_size=256),
        ds.x_addr.shape[2], ds.x_pc.shape[2], rng=0,
    )
    train_model(student, ds, None, TrainConfig(epochs=1, batch_size=128, lr=2e-3, seed=0))
    model, _ = tabularize_predictor(
        student, ds.x_addr, ds.x_pc, TableConfig.uniform(128, 2), rng=0
    )
    return model, ds.x_addr[:1025], ds.x_pc[:1025]


def test_predict_proba_chunk_rows_match_query1_at_dart_geometry(dart_geometry):
    """A 1024-row chunk and B=1 serve every row with the same codes: the
    batch encode tiles its rows, the fast path encodes T rows (one for the
    head), and both reach the same GEMM arithmetic. Row 1024 is a one-row
    chunk of its own."""
    model, xa, xp = dart_geometry
    assert len(xa) == 1025
    probs = model.predict_proba(xa, xp, batch_size=1024)
    for i in range(len(xa)):
        assert np.array_equal(probs[i], model.query1(xa[i], xp[i])), f"row {i} diverged"
