"""The drift-aware adaptation loop: monitor, controller, adaptive stream."""

import numpy as np
import pytest

from repro.data import PreprocessConfig, build_dataset
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch import DARTPrefetcher
from repro.runtime import (
    AdaptationConfig,
    Emission,
    ModelArtifact,
    StreamMonitor,
    score_prefetch_lists,
    serve,
)
from repro.tabularization import TableConfig, tabularize_predictor
from repro.traces import phase_shift_trace
from repro.utils.bits import BLOCK_BITS

BLOCK = 1 << BLOCK_BITS


# ------------------------------------------------------------- StreamMonitor
def test_monitor_perfect_predictions_score_one():
    cfg = AdaptationConfig(window=256, lookahead=4, check_every=64,
                           min_samples=8, result_window=64, feature_window=32)
    mon = StreamMonitor(cfg)
    # Access stream of consecutive blocks; every emission predicts the next
    # block — always demanded on the very next access.
    for i in range(200):
        mon.update(0x400, i * BLOCK)
        mon.record([Emission(i, [i + 1])])
    assert mon.accuracy == pytest.approx(1.0)
    assert mon.samples > 0
    assert mon.coverage > 0.9  # warm-up accesses are the only uncovered ones


def test_monitor_wrong_predictions_score_zero():
    cfg = AdaptationConfig(window=256, lookahead=4, check_every=64,
                           min_samples=8, result_window=64, feature_window=32)
    mon = StreamMonitor(cfg)
    for i in range(200):
        mon.update(0x400, i * BLOCK)
        mon.record([Emission(i, [i + 10_000])])  # never demanded
    assert mon.accuracy == 0.0
    assert mon.coverage == 0.0


def test_monitor_lookahead_is_enforced():
    cfg = AdaptationConfig(window=256, lookahead=2, check_every=64,
                           min_samples=1, result_window=64, feature_window=32)
    mon = StreamMonitor(cfg)
    # Predict a block that arrives 5 accesses later — outside lookahead 2.
    for i in range(50):
        mon.update(0x400, i * BLOCK)
        mon.record([Emission(i, [i + 5])])
    assert mon.accuracy == 0.0


def test_monitor_accuracy_drop_declares_drift():
    cfg = AdaptationConfig(window=512, lookahead=4, check_every=64,
                           min_samples=16, result_window=64, acc_drop=0.3,
                           feature_window=512, cooldown=0)
    mon = StreamMonitor(cfg)
    seq = 0
    for _ in range(300):  # good phase: reference accuracy ~1
        mon.update(0x400, seq * BLOCK)
        mon.record([Emission(seq, [seq + 1])])
        seq += 1
    assert mon.check_drift() is None  # sets the reference
    assert mon._ref_acc == pytest.approx(1.0)
    for _ in range(300):  # model goes blind
        mon.update(0x400, seq * BLOCK)
        mon.record([Emission(seq, [seq + 10_000])])
        seq += 1
    assert mon.check_drift() == "accuracy"


def test_monitor_rebase_clears_signals():
    cfg = AdaptationConfig(window=256, lookahead=4, check_every=64,
                           min_samples=8, result_window=64, feature_window=32)
    mon = StreamMonitor(cfg)
    for i in range(100):
        mon.update(0x400, i * BLOCK)
        mon.record([Emission(i, [i + 1])])
    assert mon.samples > 0
    mon.rebase()
    assert mon.samples == 0
    assert mon.accuracy == 0.0
    # cooldown suppresses drift checks right after a swap
    assert mon.check_drift() is None
    # the access window survives a rebase (it is the refit corpus)
    pcs, addrs = mon.recent()
    assert len(addrs) == 100


def test_regression_monitor_by_block_bounded_on_unique_stream():
    """The satisfied-prediction pop must delete its drained deque.

    A never-repeating access stream where every prediction is demanded
    exactly once drains each block's deque via the hit path; before the fix
    the empty shells accumulated in ``_by_block`` forever (one per access).
    """
    cfg = AdaptationConfig(window=256, lookahead=4, check_every=64,
                           min_samples=8, result_window=64, feature_window=32)
    mon = StreamMonitor(cfg)
    n = 5000
    for i in range(n):
        mon.update(0x400, i * BLOCK)  # block i: never repeats
        mon.record([Emission(i, [i + 1])])  # satisfied at access i+1, once
    # Only genuinely outstanding predictions may remain indexed: the leak
    # grew this linearly with the stream (~n entries).
    assert len(mon._by_block) <= cfg.lookahead + 1
    assert mon.accuracy == pytest.approx(1.0)


# ------------------------------------------------------- score_prefetch_lists
def test_score_prefetch_lists_basic():
    blocks = [10, 11, 12, 13, 14]
    lists = [[11], [999], [13, 14], [], []]
    s = score_prefetch_lists(lists, blocks, lookahead=2)
    assert s["issued"] == 4
    assert s["accurate"] == 3  # 11 (next), 13 and 14 (within 2)
    assert s["accuracy"] == pytest.approx(3 / 4)
    assert s["coverage"] == pytest.approx(3 / 5)


def test_score_prefetch_lists_no_lookback():
    # A block demanded *before* the prefetch does not count.
    s = score_prefetch_lists([[], [10]], [10, 11], lookahead=4)
    assert s["accurate"] == 0


def test_score_prefetch_lists_length_mismatch():
    with pytest.raises(ValueError):
        score_prefetch_lists([[1]], [1, 2], lookahead=2)


# ----------------------------------------------------------- adaptive stream
PREPROCESS = PreprocessConfig(history_len=8, window=6, delta_range=32)
MODEL = ModelConfig(layers=1, dim=16, heads=2, history_len=8, bitmap_size=64)


@pytest.fixture(scope="module")
def shift_setup():
    """Student trained on both phases; tables fit on phase A only."""
    from repro.distillation import TrainConfig, train_model

    trace = phase_shift_trace(12_000, shift_at=0.5, seed=2)
    shift = len(trace) // 2
    ds = build_dataset(trace.pcs, trace.addrs, PREPROCESS, max_samples=2000)
    seg = PREPROCESS.segmenter()
    student = AttentionPredictor(MODEL, seg.n_addr_segments, seg.n_pc_segments, rng=0)
    train_model(student, ds, None, TrainConfig(epochs=4, batch_size=128, lr=2e-3, seed=0))
    tr_a = trace.slice(0, shift)
    ds_a = build_dataset(tr_a.pcs, tr_a.addrs, PREPROCESS, max_samples=1200)
    tab, _ = tabularize_predictor(
        student, ds_a.x_addr, ds_a.x_pc, TableConfig.uniform(32, 2),
        fine_tune=True, rng=1,
    )
    artifact = ModelArtifact(tab, version=1, metadata={"fit": "phase-A"})
    dart = DARTPrefetcher(artifact, PREPROCESS, threshold=0.5, max_degree=2,
                          student=student)
    return trace, shift, dart


def _adapt_config():
    return AdaptationConfig(
        window=1024, lookahead=8, check_every=128, min_samples=128,
        result_window=512, acc_drop=0.15, feature_window=512,
        feature_threshold=6.0, refit_samples=1200, seed=5,
    )


def test_adaptive_stream_recovers_after_phase_shift(shift_setup):
    trace, shift, dart = shift_setup
    n = len(trace)
    tail = shift + (n - shift) // 2

    frozen_stream = dart.stream(batch_size=32, max_wait=8)
    _, frozen = serve(frozen_stream, trace, collect=True, measure=False)
    stream = dart.stream(batch_size=32, max_wait=8, adapt=_adapt_config())
    _, lists = serve(stream, trace, collect=True, measure=False)

    blocks = trace.block_addrs
    f_b = score_prefetch_lists(frozen[tail:], blocks[tail:], 8)["accuracy"]
    a_b = score_prefetch_lists(lists[tail:], blocks[tail:], 8)["accuracy"]
    f_a = score_prefetch_lists(frozen[:shift], blocks[:shift], 8)["accuracy"]
    assert stream.adaptations >= 1
    assert stream.model_version >= 2
    loss = f_a - f_b
    assert loss > 0.05, "scenario must show frozen-table degradation"
    assert a_b - f_b >= 0.5 * loss, (
        f"adaptation must recover >= half the loss (frozen {f_b:.3f}, "
        f"adaptive {a_b:.3f}, pre-shift {f_a:.3f})"
    )
    # swap pause bounded by one flush
    assert stream._engine.last_swap_drained <= 32
    summary = stream.adaptation_summary()
    assert summary["events"][-1]["outcome"] == "swapped"
    assert summary["version"] == stream.model_version


def test_adaptive_stream_emission_invariant(shift_setup):
    """Exactly one emission per access, ascending seq, across adaptation."""
    trace, _, dart = shift_setup
    short = trace.slice(4_000, 9_000)  # spans the shift at 6_000
    stream = dart.stream(batch_size=32, max_wait=8, adapt=_adapt_config())
    stream.reset()
    seen = []
    for i in range(len(short)):
        for em in stream.ingest(int(short.pcs[i]), int(short.addrs[i])):
            seen.append(em.seq)
    for em in stream.flush():
        seen.append(em.seq)
    assert seen == sorted(seen)
    assert seen == list(range(len(short)))


def test_adaptive_stream_reset_is_deterministic(shift_setup):
    trace, _, dart = shift_setup
    short = trace.slice(3_000, 8_000)
    stream = dart.stream(batch_size=32, max_wait=8, adapt=_adapt_config())
    _, first = serve(stream, short, collect=True, measure=False)
    adaptations_first = stream.adaptations
    _, second = serve(stream, short, collect=True, measure=False)  # serve() resets
    assert first == second
    assert stream.adaptations == adaptations_first


def test_adaptive_stream_requires_student(tabular_student, preprocess_config):
    tab, _ = tabular_student
    dart = DARTPrefetcher(tab, preprocess_config)  # no student retained
    with pytest.raises(ValueError, match="student"):
        dart.stream(adapt=True)


def test_adaptation_artifact_lineage(shift_setup):
    trace, _, dart = shift_setup
    stream = dart.stream(batch_size=32, max_wait=8, adapt=_adapt_config())
    serve(stream, trace, collect=False, measure=False)
    assert stream.adaptations >= 1
    art = stream.controller.artifact
    assert art.version == 1 + stream.adaptations
    assert art.metadata["parent_version"] == art.version - 1
    assert art.metadata["refit_reason"] in ("accuracy", "features")
    # geometry is preserved across the lineage
    assert art.model_config.bitmap_size == PREPROCESS.bitmap_size


def test_sim_streaming_records_adaptation(shift_setup):
    from repro.sim import SimConfig, simulate

    trace, _, dart = shift_setup
    short = trace.slice(4_000, 9_000)
    r = simulate(short, dart, SimConfig(), streaming=True,
                 stream_kwargs={"batch_size": 32, "max_wait": 8,
                                "adapt": _adapt_config()})
    assert "adaptation" in r.extra
    assert r.extra["adaptation"]["adaptations"] >= 0
    assert "monitor" in r.extra["adaptation"]


def test_nn_stream_adapts(shift_setup):
    """NeuralPrefetcher.stream(adapt=...) runs the nn_refit recipe."""
    from repro.prefetch import NeuralPrefetcher

    trace, _, dart = shift_setup
    pf = NeuralPrefetcher(dart.student, PREPROCESS, "nn", latency_cycles=0,
                          threshold=0.5, max_degree=2)
    cfg = AdaptationConfig(
        window=1024, lookahead=8, check_every=256, min_samples=128,
        result_window=512, acc_drop=0.15, feature_window=512,
        feature_threshold=6.0, refit_samples=600, seed=7,
    )
    stream = pf.stream(batch_size=32, max_wait=8, adapt=cfg)
    short = trace.slice(5_000, 8_500)  # spans the shift
    _, lists = serve(stream, short, collect=True, measure=False)
    assert len(lists) == len(short)
    # the refit trained a *copy*: the original model still serves the
    # frozen engine identically
    frozen = pf.stream(batch_size=32, max_wait=8)
    _, again = serve(frozen, short, collect=True, measure=False)
    ref = NeuralPrefetcher(dart.student, PREPROCESS, "nn", latency_cycles=0,
                           threshold=0.5, max_degree=2).prefetch_lists(short)
    assert again == ref
