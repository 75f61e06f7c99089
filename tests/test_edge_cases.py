"""Failure injection and degenerate inputs across the public API.

Empty traces, corrupt files, NaN inputs, zero-length datasets: the library
must fail loudly at the boundary (clear ValueError/KeyError) or handle the
degenerate case exactly — never crash deep inside a kernel or silently
produce garbage.
"""

import numpy as np
import pytest

from repro.prefetch import (
    BestOffsetPrefetcher,
    ISBPrefetcher,
    NextLinePrefetcher,
    StreamPrefetcher,
    StridePrefetcher,
)
from repro.sim import SimConfig, simulate, simulate_hierarchy
from repro.traces.trace import MemoryTrace

EMPTY = MemoryTrace(
    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
)

ALL_RULE_BASED = [
    BestOffsetPrefetcher,
    ISBPrefetcher,
    StridePrefetcher,
    NextLinePrefetcher,
    StreamPrefetcher,
]


# ------------------------------------------------------------- empty traces
def test_empty_trace_through_flat_simulator():
    r = simulate(EMPTY, None)
    assert r.demand_accesses == 0 and r.instructions == 0
    assert r.ipc == 0.0


def test_empty_trace_through_hierarchy():
    r = simulate_hierarchy(EMPTY)
    assert r.l1d.accesses == 0
    assert r.sim.cycles == 0.0


@pytest.mark.parametrize("make_pf", ALL_RULE_BASED)
def test_empty_trace_through_every_prefetcher(make_pf):
    pf = make_pf()
    assert pf.prefetch_lists(EMPTY) == []


def test_single_access_trace_everywhere():
    tr = MemoryTrace(np.array([5]), np.array([1]), np.array([0x1000]))
    r = simulate(tr, NextLinePrefetcher(degree=1))
    assert r.demand_accesses == 1 and r.demand_misses == 1
    for make_pf in ALL_RULE_BASED:
        lists = make_pf().prefetch_lists(tr)
        assert len(lists) == 1


# --------------------------------------------------------------- bad traces
def test_trace_length_mismatch_rejected():
    with pytest.raises(ValueError, match="equal length"):
        MemoryTrace(np.array([1, 2]), np.array([0]), np.array([0, 0]))


def test_trace_decreasing_instr_ids_rejected():
    with pytest.raises(ValueError, match="nondecreasing"):
        MemoryTrace(np.array([5, 3]), np.array([0, 0]), np.array([0, 0]))


# ------------------------------------------------------------- corrupt files
def test_corrupt_npz_trace(tmp_path):
    path = tmp_path / "t.npz"
    path.write_bytes(b"definitely not a zip file")
    with pytest.raises(Exception):
        MemoryTrace.load(path)


def test_model_state_dict_mismatch_rejected():
    from repro.models import AttentionPredictor, ModelConfig

    cfg = ModelConfig(layers=1, dim=8, heads=2, history_len=4, bitmap_size=8)
    m = AttentionPredictor(cfg, 3, 2, rng=0)
    state = m.state_dict()
    state.pop(next(iter(state)))
    with pytest.raises(KeyError, match="mismatch"):
        m.load_state_dict(state)


def test_model_state_dict_shape_mismatch_rejected():
    from repro.models import AttentionPredictor, ModelConfig

    cfg = ModelConfig(layers=1, dim=8, heads=2, history_len=4, bitmap_size=8)
    m = AttentionPredictor(cfg, 3, 2, rng=0)
    state = m.state_dict()
    key = next(iter(state))
    state[key] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape"):
        m.load_state_dict(state)


# ------------------------------------------------------------------ NaN/inf
def test_nan_inputs_do_not_crash_predictor():
    from repro.models import AttentionPredictor, ModelConfig

    cfg = ModelConfig(layers=1, dim=8, heads=2, history_len=4, bitmap_size=8)
    m = AttentionPredictor(cfg, 3, 2, rng=0)
    x_addr = np.full((2, 4, 3), np.nan)
    x_pc = np.zeros((2, 4, 2))
    out = m.predict_proba(x_addr, x_pc)
    assert out.shape == (2, 8)  # propagates NaN, does not raise


def test_bce_loss_extreme_logits_finite():
    from repro.nn import bce_with_logits

    z = np.array([[1e4, -1e4]])
    t = np.array([[1.0, 0.0]])
    loss, grad = bce_with_logits(z, t)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


def test_softmax_extreme_logits_finite():
    from repro.nn import functional as F

    z = np.array([[1e8, -1e8, 0.0]])
    s = F.softmax(z)
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s.sum(), 1.0)


# --------------------------------------------------------------- empty data
def test_empty_dataset_predicts_empty():
    from repro.models import AttentionPredictor, ModelConfig

    cfg = ModelConfig(layers=1, dim=8, heads=2, history_len=4, bitmap_size=8)
    m = AttentionPredictor(cfg, 3, 2, rng=0)
    out = m.predict_proba(np.zeros((0, 4, 3)), np.zeros((0, 4, 2)))
    assert out.shape == (0, 8)


def test_short_trace_rejected_loudly_by_dataset_builder():
    from repro.data import PreprocessConfig, build_dataset

    cfg = PreprocessConfig(history_len=8, window=4, delta_range=16)
    with pytest.raises(ValueError, match="too short"):
        build_dataset(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), cfg)


def test_simulator_with_zero_latency_dram():
    tr = MemoryTrace(np.array([10, 20]), np.zeros(2, dtype=np.int64),
                     np.array([0, 64], dtype=np.int64))
    r = simulate(tr, None, SimConfig(dram_latency=0.0, llc_latency=0.0))
    assert r.cycles > 0  # retire bandwidth still paces the core
