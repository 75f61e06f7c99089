"""Row-parallel batch inference: the pool changes who runs a row, never its bits.

``TabularAttentionPredictor.predict_proba`` spreads a call of more than one
``batch_size`` chunk over :mod:`repro.tabularization.rowpool`'s workers.
Every op of a table query is row-local, so every test here compares with
``np.array_equal`` against the same call run in the calling thread. The
serving paths (fast path, streaming, sharded flushes) and the small-chunk
oracle must start no thread, and a fork must never copy live workers.
"""

from __future__ import annotations

import copy
import sys
import threading
import time
import warnings
from functools import lru_cache

import numpy as np
import pytest

import repro.quantization.pq as pq_module
import repro.tabularization.tabular_model as tabular_model
from repro.data import PreprocessConfig, build_dataset
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch.nn_prefetcher import model_prefetch_lists
from repro.runtime import serve
from repro.tabularization import TableConfig, rowpool, tabularize_predictor
from repro.tabularization.rowpool import TASK_ROWS
from repro.traces import make_workload

PRE = PreprocessConfig(history_len=8, window=6, delta_range=32)
POOLED = rowpool.workers() >= 2


@lru_cache(maxsize=None)
def _model(k: int, c: int, encoder: str):
    """Untrained-student tables: the weights do not matter for identity."""
    trace = make_workload("462.libquantum", scale=0.02, seed=3)
    ds = build_dataset(trace.pcs, trace.addrs, PRE, max_samples=400)
    student = AttentionPredictor(
        ModelConfig(layers=1, dim=16, heads=2, history_len=PRE.history_len,
                    bitmap_size=PRE.bitmap_size),
        ds.x_addr.shape[2], ds.x_pc.shape[2], rng=0,
    )
    model, _ = tabularize_predictor(
        student, ds.x_addr, ds.x_pc, TableConfig.uniform(k, c, encoder=encoder), rng=0
    )
    return model


def _inputs(model, n: int, seed: int = 0):
    """``n`` random windows of 6-bit segments, the featurizer's value grid."""
    rng = np.random.default_rng(seed)
    t = model.model_config.history_len
    s_addr, s_pc = model.addr_table.in_dim, model.pc_table.in_dim
    return (rng.integers(0, 64, (n, t, s_addr)) / 63.0,
            rng.integers(0, 64, (n, t, s_pc)) / 63.0)


def _sequential(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(rowpool, "_pool", False)
        return fn()


def _row_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-rows")]


@pytest.mark.parametrize("encoder", ["exact", "hash"])
@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("k", [16, 128])
def test_pooled_predict_bitwise_equals_sequential(k, c, encoder, monkeypatch):
    model = _model(k, c, encoder)
    fanned = []
    real_run = rowpool.run
    monkeypatch.setattr(rowpool, "run", lambda job, jobs: fanned.append(jobs) or real_run(job, jobs))
    for n in (1, TASK_ROWS - 1, TASK_ROWS + 1, 1007):
        xa, xp = _inputs(model, n, seed=n)
        for batch_size in (16, 256, 1024):
            fanned.clear()
            want = _sequential(monkeypatch, lambda: model.predict_proba(xa, xp, batch_size))
            assert fanned == []
            got = model.predict_proba(xa, xp, batch_size)
            assert np.array_equal(got, want), f"n={n} batch_size={batch_size}"
            fans = POOLED and n > batch_size and batch_size // TASK_ROWS >= 2
            assert fanned == ([min(rowpool.workers(), batch_size // TASK_ROWS)] if fans else [])
            out = np.full_like(want, np.nan)
            assert model.predict_proba(xa, xp, batch_size, out=out) is out
            assert np.array_equal(out, want)


def test_task_error_reaches_the_caller(monkeypatch):
    model = copy.deepcopy(_model(16, 2, "exact"))
    xa, xp = _inputs(model, 1007)
    calls = []

    def failing(codes, out=None):
        calls.append(codes.shape[0])
        if len(calls) == 3:
            raise RuntimeError("boom")
        return tabular_model.TabularAttentionPredictor.head_proba(model, codes, out)

    monkeypatch.setattr(model, "head_proba", failing)
    with pytest.raises(RuntimeError, match="boom"):
        model.predict_proba(xa, xp, batch_size=256)


@pytest.mark.parametrize("path", ["fast-path", "stream-1", "stream-64", "stream-256",
                                  "sharded", "oracle-16"])
def test_serving_paths_start_no_thread(path, dart, libquantum_traces):
    """These calls run in at most one chunk: no pool thread starts."""
    trace = libquantum_traces(1, 600, 70)[0]
    rowpool.shutdown()
    before = threading.active_count()
    if path == "fast-path":
        xa, xp = _inputs(dart.predictor, 1)
        dart.predictor.query1(xa[0], xp[0])
    elif path.startswith("stream"):
        serve(dart.stream(batch_size=int(path.split("-")[1])), trace, measure=False)
    elif path == "sharded":
        with dart.sharded(workers=2, batch_size=64) as eng:
            eng.serve([trace], collect=True)
    else:
        model_prefetch_lists(trace, dart.predictor.predict_proba, dart.config,
                             threshold=dart.threshold, max_degree=dart.max_degree,
                             batch_size=16, decode=dart.decode)
    assert threading.active_count() == before
    assert _row_threads() == []


def test_fork_after_fan_out_serves_sharded_bitwise(dart, libquantum_traces):
    """A fork after a pooled call copies no worker thread, and the sharded
    fleet still matches the batch oracle. Python 3.12+ flags a fork of a
    multi-threaded process with a ``DeprecationWarning``, but ``os.fork``
    does not raise it even as an error, so the row threads are checked
    directly once the workers are forked."""
    traces = libquantum_traces(2, 450, 80)
    want = [dart.prefetch_lists(t) for t in traces]
    xa, xp = _inputs(dart.predictor, 1007)
    dart.predictor.predict_proba(xa, xp, batch_size=256)
    assert bool(_row_threads()) is POOLED
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with dart.sharded(workers=2, batch_size=32) as eng:
            assert _row_threads() == []
            _, _, lists = eng.serve(traces, collect=True)
    assert lists == want


def test_no_blas_symbol_no_pool(monkeypatch):
    model = _model(16, 2, "exact")
    xa, xp = _inputs(model, 1007)
    want = _sequential(monkeypatch, lambda: model.predict_proba(xa, xp, 256))
    monkeypatch.setattr(rowpool, "blas_thread_limiter", lambda: None)
    monkeypatch.setattr(rowpool, "_pool", None)
    before = threading.active_count()
    assert rowpool.workers() == 0
    assert np.array_equal(model.predict_proba(xa, xp, 256), want)
    assert threading.active_count() == before


def test_one_cpu_no_pool(monkeypatch):
    monkeypatch.setattr(rowpool.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(rowpool, "_pool", None)
    assert rowpool.workers() == 0


@pytest.mark.skipif(rowpool.blas_thread_limiter() is None,
                    reason="the loaded BLAS exports no openblas_set_num_threads_local")
def test_workers_run_one_blas_thread(monkeypatch):
    limit = rowpool.blas_thread_limiter()
    monkeypatch.setattr(rowpool, "_pool", None)
    monkeypatch.setattr(rowpool.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []
    # the setter returns the thread's previous limit: a second call reads it
    rowpool.run(lambda j: seen.append(limit(1)), rowpool.workers())
    rowpool.shutdown()
    assert seen == [1, 1]


def _released_together(fn, threads: int = 8) -> list:
    """``fn()`` from ``threads`` threads released at once, with a short
    switch interval so their first calls interleave as much as they can."""
    barrier = threading.Barrier(threads)
    results: list = [None] * threads

    def call(i):
        barrier.wait(timeout=30)
        results[i] = fn()

    pool = [threading.Thread(target=call, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    return results


def _slow_counting(real, counter: list):
    def wrapped(*args, **kwargs):
        counter.append(1)
        time.sleep(0.02)  # hold the miss open while the other threads arrive
        return real(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("site", ["msa", "ffn"])
def test_concurrent_first_code_transition_builds_once(site, monkeypatch):
    layer = copy.deepcopy(_model(16, 2, "exact")).layers[0]
    owner, source = (layer.msa, layer.msa.qkv) if site == "msa" else (layer, layer.ffn1)
    source.table = source.table.copy()  # a miss for every thread
    built: list = []
    monkeypatch.setattr(tabular_model, "build_code_map",
                        _slow_counting(tabular_model.build_code_map, built))
    results = _released_together(owner.code_transition)
    assert built == [1]
    assert all(r is results[0] for r in results)


def test_concurrent_first_exact_operands_builds_once(monkeypatch):
    pq = copy.deepcopy(_model(16, 2, "exact").layers[0].ffn2.pq)
    pq.prototypes = pq.prototypes.copy()  # a miss for every thread
    built: list = []
    monkeypatch.setattr(pq_module, "nearest_operands",
                        _slow_counting(pq_module.nearest_operands, built))
    results = _released_together(pq.exact_operands)
    assert len(built) == pq.n_subspaces
    assert all(r is results[0] for r in results)
