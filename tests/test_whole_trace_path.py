"""DART's whole-trace batch path against the per-window oracle.

``DARTPrefetcher.prefetch_lists`` encodes each access once, runs layer 0's
post-attention half once per distinct (input map row, out tuple) and decodes
each distinct head code row once (``head_code_prefetch_lists``). Its lists must
equal ``model_prefetch_lists`` over ``predict_proba``, which segments, embeds
and decodes every window on its own, list for list. Most models here get
random head tables: a trained head can map every code row to the same
deltas, and then a wrong row-to-window mapping would go unseen.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np
import pytest

import repro.tabularization.tabular_model as tabular_model
from repro.data import PreprocessConfig, build_dataset
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch import DARTPrefetcher
from repro.prefetch.nn_prefetcher import (
    decode_bitmap_probs,
    head_code_prefetch_lists,
    model_prefetch_lists,
)
from repro.tabularization import TableConfig, rowpool, tabularize_predictor
from repro.tabularization.transitions import mappable
from repro.traces import make_workload
from repro.utils.bits import block_address

PRE = PreprocessConfig(history_len=8, window=6, delta_range=32)
T = PRE.history_len


@lru_cache(maxsize=None)
def _trace(length: int, seed: int = 5, app: str = "462.libquantum"):
    return make_workload(app, scale=0.02, seed=seed).slice(0, length)


@lru_cache(maxsize=None)
def _tables(k: int, c: int, encoder: str, layers: int = 1):
    """Untrained-student tables: the weights do not matter for identity."""
    trace = make_workload("462.libquantum", scale=0.02, seed=3)
    ds = build_dataset(trace.pcs, trace.addrs, PRE, max_samples=400)
    student = AttentionPredictor(
        ModelConfig(layers=layers, dim=16, heads=2, history_len=T, bitmap_size=PRE.bitmap_size),
        ds.x_addr.shape[2], ds.x_pc.shape[2], rng=0,
    )
    model, _ = tabularize_predictor(
        student, ds.x_addr, ds.x_pc, TableConfig.uniform(k, c, encoder=encoder), rng=0
    )
    return model


def _model(k: int = 16, c: int = 2, encoder: str = "exact", seed: int = 0, layers: int = 1):
    """Tables with a random head: logits spread over the sigmoid LUT's range."""
    model = copy.deepcopy(_tables(k, c, encoder, layers))
    head = model.head_table
    rng = np.random.default_rng(seed)
    head.table = rng.normal(0.0, 3.0 / head.n_subspaces, head.table.shape)
    return model


def _windows(trace):
    """The oracle's per-window features (as ``model_prefetch_lists`` builds them)."""
    seg = PRE.segmenter()
    ba = block_address(trace.addrs)
    view = np.lib.stride_tricks.sliding_window_view
    return seg.segment_block_addresses(view(ba, T)), seg.segment_pcs(view(trace.pcs, T))


def _accesses(trace):
    seg = PRE.segmenter()
    return seg.segment_block_addresses(block_address(trace.addrs)), seg.segment_pcs(trace.pcs)


def _check(model, trace, threshold=0.52, max_degree=2, decode="distance", varied=True):
    got = DARTPrefetcher(model, PRE, threshold=threshold, max_degree=max_degree,
                         decode=decode).prefetch_lists(trace)
    want = model_prefetch_lists(trace, model.predict_proba, PRE, threshold=threshold,
                                max_degree=max_degree, decode=decode)
    assert got == want
    if varied:
        ba = block_address(trace.addrs)
        deltas = {tuple(b - int(a) for b in lst) for lst, a in zip(want, ba)}
        assert len(deltas) >= 2, "every window decodes to the same deltas"


@pytest.mark.parametrize("decode", ["distance", "confidence"])
@pytest.mark.parametrize("threshold", [0.2, 0.52, 0.8])
@pytest.mark.parametrize("max_degree", [1, 2, 4])
def test_lists_equal_oracle_across_decode_policies(decode, threshold, max_degree):
    _check(_model(), _trace(400), threshold, max_degree, decode)


@pytest.mark.parametrize("encoder", ["exact", "hash"])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("k", [8, 16, 128])
def test_lists_equal_oracle_across_table_geometry(k, c, encoder):
    model = _model(k, c, encoder, seed=k + c)
    _check(model, _trace(300))
    _check(model, _trace(300), threshold=0.3, max_degree=4, decode="confidence")


@pytest.mark.parametrize("length", [T - 1, T, T + 1, 2])
def test_short_traces(length):
    _check(_model(), _trace(length), varied=False)


def test_long_trace_runs_pooled(monkeypatch):
    """More than 1024 windows: ``predict_head_codes`` fans out like ``predict_proba``."""
    fanned = []
    real_run = rowpool.run
    monkeypatch.setattr(rowpool, "run", lambda job, jobs: fanned.append(jobs) or real_run(job, jobs))
    trace = _trace(1024 + T + 300)
    _check(_model(), trace)
    if rowpool.workers() >= 2:
        assert fanned, "no call fanned out"


def test_serving_conformance_traces(dart, libquantum_traces):
    """The matrix's own DART and traces (its oracle is ``prefetch_lists``)."""
    for trace in libquantum_traces(2, 450, 21):
        want = model_prefetch_lists(trace, dart.predictor.predict_proba, dart.config,
                                    threshold=dart.threshold, max_degree=dart.max_degree,
                                    decode=dart.decode)
        assert dart.prefetch_lists(trace) == want
        assert any(want)


@pytest.mark.parametrize("encoder", ["exact", "hash"])
def test_head_codes_equal_windowed_head_encode(encoder):
    model = _model(16, 2, encoder)
    trace = _trace(300)
    xa, xp = _windows(trace)
    want = model.head_table.pq.encode(model.layer_outputs(xa, xp)["pooled"])
    got = model.predict_head_codes(*_accesses(trace))
    assert got.shape == (len(trace) - T + 1, model.head_table.n_subspaces)
    assert np.array_equal(got, want)


def test_head_proba_equals_predict_proba_bitwise():
    model = _model()
    trace = _trace(1100)
    xa, xp = _windows(trace)
    probs = model.predict_proba(xa, xp, batch_size=1024)
    codes = model.predict_head_codes(*_accesses(trace), batch_size=1024)
    assert np.array_equal(model.head_proba(codes), probs)
    out = np.empty_like(probs)
    assert model.head_proba(codes, out) is out
    assert np.array_equal(out, probs)


def test_unique_rows_decode_to_anchor_free_deltas():
    """Adding the anchor after the decode is the decode's own order of work."""
    probs = np.random.default_rng(2).random((64, PRE.bitmap_size))
    anchors = np.random.default_rng(3).integers(0, 1 << 40, 64)
    with_anchor = decode_bitmap_probs(probs, anchors, 0.6, 3)
    at_zero = decode_bitmap_probs(probs, np.zeros(64, dtype=np.int64), 0.6, 3)
    assert with_anchor == [[int(a) + d for d in row] for a, row in zip(anchors, at_zero)]


# ------------------------------------------- layer 0's post-attention lookup
def _oracle_codes(model, trace):
    """Head codes of every window through the generic per-window trunk."""
    return model.head_table.pq.encode(model.layer_outputs(*_windows(trace))["pooled"])


def _distinct_post_rows(model, trace, windows=None):
    """Distinct (access key, position, out-projection tuple) rows of layer 0
    over the given windows (default: all), from the generic per-window path."""
    xa, xp = _windows(trace)
    if windows is not None:
        xa, xp = xa[windows], xp[windows]
    x0 = model.layer_outputs(xa, xp)["embed"]
    msa = model.layers[0].msa
    out = msa.out_codes(msa.qkv.pq.encode(x0.reshape(-1, x0.shape[-1])), len(xa), T)
    acc = _accesses(trace)
    keys = np.hstack([model.addr_table.pq.encode(acc[0]), model.pc_table.pq.encode(acc[1])])
    starts = np.arange(len(trace) - T + 1) if windows is None else np.asarray(windows)
    at = np.add.outer(starts, np.arange(T)).reshape(-1)
    rows = np.column_stack([keys[at], np.tile(np.arange(T), len(starts)), out])
    return len(np.unique(rows, axis=0))


def _count_post_rows(monkeypatch, model):
    """Rows that layer 0's post-attention half computes from now on."""
    layer0 = model.layers[0]
    rows = []
    real = layer0.post
    monkeypatch.setattr(layer0, "post", lambda x, a: rows.append(a.size // a.shape[-1])
                        or real(x, a), raising=False)
    return rows


TRUNKS = [
    (16, 2, "exact", 1),
    (64, 3, "exact", 1),  # the unmapped QKV site
    (16, 2, "hash", 1),
    (16, 2, "exact", 2),
    (64, 3, "hash", 2),
]


@pytest.mark.parametrize("map_keys", [1024, 4])
@pytest.mark.parametrize("pooled", [True, False])
@pytest.mark.parametrize("k, c, encoder, layers", TRUNKS)
def test_head_codes_equal_per_window_oracle(k, c, encoder, layers, pooled, map_keys,
                                            monkeypatch):
    """Segments of 256 windows over several: fanned out over the row pool or
    in the calling thread, with a map that holds every key or one that
    clears in every segment, the head codes and lists are the oracle's."""
    model = _model(k, c, encoder, seed=k + c + layers, layers=layers)
    if (k, c) == (64, 3):
        assert not mappable(model.layers[0].msa.qkv.table)
    monkeypatch.setattr(tabular_model, "INPUT_MAP_KEYS", map_keys)
    if not pooled:
        monkeypatch.setattr(rowpool, "_pool", False)
        assert rowpool.workers() == 0
    fanned = []
    real_run = rowpool.run
    monkeypatch.setattr(rowpool, "run", lambda job, jobs: fanned.append(jobs) or real_run(job, jobs))
    trace = _trace(700, app="602.gcc")
    post_rows = _count_post_rows(monkeypatch, model)
    clears = model.input_map().clears
    got = model.predict_head_codes(*_accesses(trace), batch_size=256)
    assert np.array_equal(got, _oracle_codes(model, trace))
    if map_keys == 4:
        assert model.input_map().clears - clears >= 2, "the map never cleared mid-call"
    else:
        assert sum(post_rows) == _distinct_post_rows(model, trace)
    assert bool(fanned) == (pooled and rowpool.workers() >= 2)
    want = model_prefetch_lists(trace, model.predict_proba, PRE, threshold=0.52)
    assert head_code_prefetch_lists(trace, model, PRE, threshold=0.52, batch_size=256) == want
    ba = block_address(trace.addrs)
    assert len({tuple(b - int(a) for b in lst) for lst, a in zip(want, ba)}) >= 2


@pytest.mark.parametrize("k, c, encoder, layers", TRUNKS)
def test_window_head_codes_run_each_post_row_once(k, c, encoder, layers, monkeypatch):
    """A k > 1 flush's windows (overlapping, repeated, out of order) get the
    oracle's head codes, and layer 0's post-attention half runs once per
    distinct (access key, position, out tuple) of the flush."""
    model = _model(k, c, encoder, seed=k + c + layers, layers=layers)
    trace = _trace(300)
    starts = np.array([40, 3, 41, 200, 3, 42, 120, 7, 250, 44])
    post_rows = _count_post_rows(monkeypatch, model)
    got = model.window_head_codes(*_accesses(trace), starts)
    assert np.array_equal(got, _oracle_codes(model, trace)[starts])
    assert sum(post_rows) == _distinct_post_rows(model, trace, starts)
    assert _distinct_post_rows(model, trace, starts) < len(starts) * T


def test_post_memo_bound_clears_mid_call(monkeypatch):
    """A memo bound far below the call's distinct rows empties the memo
    again and again; the head codes stay the oracle's."""
    monkeypatch.setattr(tabular_model, "POST_MEMO_ROWS", 300)
    model = _model(seed=3)
    trace = _trace(900, app="602.gcc")
    post_rows = _count_post_rows(monkeypatch, model)
    got = model.predict_head_codes(*_accesses(trace), batch_size=64)
    assert np.array_equal(got, _oracle_codes(model, trace))
    assert sum(post_rows) > _distinct_post_rows(model, trace) > 2 * 300


def test_out_space_past_int64_runs_every_row(monkeypatch):
    """K=128, C=8 at the out projection: ``K**C`` times the map's rows does
    not fit an int64 key, so every layer-0 row runs the post-attention half,
    and the head codes are still the oracle's."""
    trace = make_workload("462.libquantum", scale=0.02, seed=3)
    ds = build_dataset(trace.pcs, trace.addrs, PRE, max_samples=400)
    student = AttentionPredictor(
        ModelConfig(layers=1, dim=16, heads=2, history_len=T, bitmap_size=PRE.bitmap_size),
        ds.x_addr.shape[2], ds.x_pc.shape[2], rng=0,
    )
    model, _ = tabularize_predictor(student, ds.x_addr, ds.x_pc,
                                    TableConfig(16, 2, 128, 8, 16, 2, 16, 2), rng=0)
    trace = _trace(300)
    post_rows = _count_post_rows(monkeypatch, model)
    got = model.predict_head_codes(*_accesses(trace), batch_size=64)
    assert 128**8 * model.input_map().rows.shape[0] >= 2**63
    assert np.array_equal(got, _oracle_codes(model, trace))
    assert sum(post_rows) == len(got) * T
    starts = np.array([5, 9, 5, 100])
    assert np.array_equal(model.window_head_codes(*_accesses(trace), starts), got[starts])
