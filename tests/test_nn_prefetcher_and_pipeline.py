"""Learned prefetchers (NN + DART) and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.core import DARTPipeline
from repro.core.evaluate import f1_score, precision_recall_f1
from repro.data import PreprocessConfig
from repro.distillation import TrainConfig
from repro.models import ModelConfig
from repro.prefetch import DARTPrefetcher, NeuralPrefetcher
from repro.prefetch.nn_prefetcher import model_prefetch_lists
from repro.sim import simulate, ipc_improvement
from repro.traces import make_workload


# --------------------------------------------------------------- F1 metric
def test_f1_perfect_and_empty():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert f1_score(y, y) == 1.0
    assert f1_score(np.zeros((2, 2)), np.zeros((2, 2))) == 1.0
    assert f1_score(y, np.zeros_like(y)) == 0.0


def test_precision_recall_components():
    y_true = np.array([[1.0, 1.0, 0.0, 0.0]])
    y_prob = np.array([[0.9, 0.1, 0.8, 0.1]])  # 1 TP, 1 FP, 1 FN
    p, r, f1 = precision_recall_f1(y_true, y_prob)
    assert p == pytest.approx(0.5) and r == pytest.approx(0.5) and f1 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        precision_recall_f1(y_true, y_prob[:, :2])


# ----------------------------------------------------- learned prefetchers
class _OracleModel:
    """Predicts the delta bitmap perfectly from the (known) trace labels."""

    def __init__(self, labels, history_len):
        self.labels = labels
        self.history_len = history_len

    def predict_proba(self, x_addr, x_pc, batch_size=512):
        n = x_addr.shape[0]
        return self.labels[:n]


def test_model_prefetch_lists_alignment(small_trace, preprocess_config):
    from repro.data import build_dataset

    ds = build_dataset(small_trace.pcs, small_trace.addrs, preprocess_config)
    oracle = _OracleModel(ds.labels, preprocess_config.history_len)
    lists = model_prefetch_lists(
        small_trace, oracle.predict_proba, preprocess_config, max_degree=4
    )
    assert len(lists) == len(small_trace)
    t = preprocess_config.history_len
    assert all(not lists[i] for i in range(t - 1))  # warmup: no history yet
    ba = small_trace.block_addrs
    # an oracle prefetch must appear in the actual future window
    window = preprocess_config.window
    checked = 0
    for i in range(t - 1, min(len(lists) - window, t + 500)):
        future = set(ba[i + 1 : i + 1 + window].tolist())
        for blk in lists[i]:
            assert blk in future
            checked += 1
    assert checked > 100


def test_neural_prefetcher_wraps_model(trained_student, small_trace, preprocess_config):
    pf = NeuralPrefetcher(
        trained_student, preprocess_config, name="TransFetch", latency_cycles=4500,
        storage_bytes=13.8e6,
    )
    lists = pf.prefetch_lists(small_trace)
    assert len(lists) == len(small_trace)
    assert sum(len(l) for l in lists) > 0
    assert pf.describe()["latency_cycles"] == 4500


def test_dart_prefetcher_costs_derive_from_tables(tabular_student, preprocess_config):
    tab, _ = tabular_student
    dart = DARTPrefetcher(tab, preprocess_config)
    assert dart.latency_cycles == int(round(tab.latency_cycles()))
    assert dart.storage_bytes == tab.storage_bytes()
    assert dart.meets_constraints(dart.latency_cycles + 1, dart.storage_bytes + 1)
    assert not dart.meets_constraints(dart.latency_cycles - 1, dart.storage_bytes + 1)


def test_dart_prefetching_improves_ipc(tabular_student, small_trace, preprocess_config):
    """End to end: the tabular predictor must actually prefetch usefully."""
    tab, _ = tabular_student
    dart = DARTPrefetcher(tab, preprocess_config, max_degree=3)
    base = simulate(small_trace, None)
    r = simulate(small_trace, dart)
    assert r.prefetches_issued > 0
    assert ipc_improvement(r, base) > 0.0


# ------------------------------------------------------------ pipeline e2e
def test_pipeline_end_to_end_smoke():
    trace = make_workload("462.libquantum", scale=0.02, seed=5)
    pp = PreprocessConfig(history_len=8, window=6, delta_range=32)
    pipe = DARTPipeline(
        preprocess=pp,
        teacher_config=ModelConfig(
            layers=1, dim=32, heads=2, history_len=8, bitmap_size=64
        ),
        latency_budget=100.0,
        storage_budget=1_000_000.0,
        teacher_train=TrainConfig(epochs=2, batch_size=64, lr=2e-3, seed=0),
        student_train=TrainConfig(epochs=2, batch_size=64, lr=2e-3, seed=1),
        max_samples=1200,
        seed=0,
    )
    result = pipe.run(trace)
    assert result.f1["teacher"] > 0.4
    assert result.f1["dart"] > 0.3
    assert result.dart.latency_cycles < 100
    assert result.dart.storage_bytes < 1_000_000
    assert result.candidate.latency_cycles < 100
