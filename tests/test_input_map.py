"""DART's single-query serving path: the input map and the emission memo.

At ``k == 1`` the fast path gathers each access's first-layer input row and
QKV codes from a per-model map keyed on (access code tuple, position), and
the flush path decodes each distinct head code tuple once per install.
Served emissions must equal the batch oracle (``model_prefetch_lists`` over
``predict_proba``) list for list, and ``query1`` must equal ``query`` bit for
bit. Models get random head tables, and every check asserts at least two
distinct delta lists: with one list for every window, a wrong key, a wrong
position or a memo entry served to the wrong tuple would go unseen.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np
import pytest

import repro.runtime.microbatch as microbatch
import repro.tabularization.fastpath as fastpath
from repro.data import PreprocessConfig, build_dataset
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch import DARTPrefetcher
from repro.prefetch.nn_prefetcher import SingleRowDecoder, model_prefetch_lists
from repro.runtime import MicroBatcher, serve
from repro.runtime.multistream import serve_interleaved
from repro.tabularization import TableConfig, tabularize_predictor
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


def _model(k=16, c=2, encoder="exact", layers=1, seed=0):
    """A fresh copy (no fast path, no maps) with a random head table."""
    model = copy.deepcopy(_tables(k, c, encoder, layers))
    head = model.head_table
    head.table = np.random.default_rng(seed).normal(0.0, 3.0 / head.n_subspaces, head.table.shape)
    return model


def _oracle(model, trace, threshold=0.52, max_degree=2, decode="distance"):
    return model_prefetch_lists(trace, model.predict_proba, PRE, threshold=threshold,
                                max_degree=max_degree, decode=decode)


def _served(model, trace, threshold=0.52, max_degree=2, decode="distance"):
    """B=1 ``serve`` lists; every flush must take the fast path."""
    stream = DARTPrefetcher(model, PRE, threshold=threshold, max_degree=max_degree,
                            decode=decode).stream(batch_size=1)
    _, lists = serve(stream, trace, collect=True)
    assert stream.fast_path_flushes == stream.predict_calls > 0
    return lists


def _assert_varied(lists, trace):
    ba = block_address(trace.addrs)
    deltas = {tuple(b - int(a) for b in lst) for lst, a in zip(lists, ba)}
    assert len(deltas) >= 2, "every window decodes to the same deltas"


def _windows(trace):
    seg = PRE.segmenter()
    view = np.lib.stride_tricks.sliding_window_view
    return (seg.segment_block_addresses(view(block_address(trace.addrs), T)),
            seg.segment_pcs(view(trace.pcs, T)))


def _assert_query1_bitwise(model, trace):
    xa, xp = _windows(trace)
    ref = model.query(xa, xp)
    for i in range(len(xa)):
        assert np.array_equal(model.query1(xa[i], xp[i]), ref[i]), f"window {i} diverged"


def _check(model, trace, **policy):
    want = _oracle(model, trace, **policy)
    assert _served(model, trace, **policy) == want
    _assert_varied(want, trace)
    return want


@pytest.mark.parametrize("encoder", ["exact", "hash"])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("k", [8, 16, 128])
def test_served_and_query1_equal_oracle_across_geometry(k, c, encoder):
    model = _model(k, c, encoder, seed=k + c)
    trace = _trace(300)
    if (k, c) == (128, 3):
        assert not mappable(model.layers[0].msa.qkv.table)  # the unmapped QKV tail
    _check(model, trace)
    _assert_query1_bitwise(model, trace)


@pytest.mark.parametrize("k, c", [(16, 2), (128, 3)])
def test_two_layers(k, c):
    """Layer 0 takes its QKV codes from the map; layer 1 encodes its own."""
    model = _model(k, c, layers=2, seed=7)
    trace = _trace(300)
    _check(model, trace)
    _assert_query1_bitwise(model, trace)


@pytest.mark.parametrize("decode", ["distance", "confidence"])
@pytest.mark.parametrize("threshold", [0.2, 0.52, 0.8])
@pytest.mark.parametrize("max_degree", [1, 2, 4])
def test_served_equals_oracle_across_decode_policies(decode, threshold, max_degree):
    _check(_model(), _trace(400), threshold=threshold, max_degree=max_degree, decode=decode)


def test_multistream_b1():
    model = _model(seed=4)
    traces = [_trace(350, seed) for seed in (5, 6)]
    pf = DARTPrefetcher(model, PRE, threshold=0.52)
    engine = pf.multistream(batch_size=1)
    handles = engine.streams(len(traces))
    _, _, lists = serve_interleaved(handles, traces, collect=True)
    assert engine.fast_path_flushes == engine.predict_calls > 0
    for got, trace in zip(lists, traces):
        want = _oracle(model, trace)
        assert got == want
        _assert_varied(want, trace)


def test_mixed_k1_and_batched_flushes():
    """B=64 with a deadline and explicit flushes: k == 1 and k > 1 flushes
    share one install, so the memo must not leak into the batched decode."""
    model = _model(seed=9)
    trace = _trace(500)
    mb = MicroBatcher(model.predict_proba, PRE, threshold=0.52, batch_size=64, max_wait=5)
    rng = np.random.default_rng(0)
    got: dict[int, list[int]] = {}
    for pc, addr in zip(trace.pcs, trace.addrs):
        emissions = mb.push(int(pc), int(addr))
        if mb._pending and rng.random() < 0.3:
            emissions += mb.flush()
        for em in emissions:
            got[em.seq] = list(em.blocks)
    for em in mb.flush():
        got[em.seq] = list(em.blocks)
    assert 0 < mb.fast_path_flushes < mb.predict_calls
    want = _oracle(model, trace)
    assert [got[s] for s in range(len(trace))] == want
    _assert_varied(want, trace)


def _distinct_keys(model, trace) -> int:
    seg = PRE.segmenter()
    codes = np.hstack([model.addr_table.pq.encode(seg.segment_block_addresses(
        block_address(trace.addrs))), model.pc_table.pq.encode(seg.segment_pcs(trace.pcs))])
    return len(np.unique(codes, axis=0))


def _distinct_head_tuples(model, trace) -> int:
    seg = PRE.segmenter()
    codes = model.predict_head_codes(seg.segment_block_addresses(block_address(trace.addrs)),
                                     seg.segment_pcs(trace.pcs))
    return len(np.unique(codes, axis=0))


def test_bounds_clear_when_full(monkeypatch):
    """A map and a memo far smaller than the trace's key and tuple counts
    are cleared again and again, and serve the same lists."""
    monkeypatch.setattr(fastpath, "INPUT_MAP_KEYS", 4)
    monkeypatch.setattr(microbatch, "EMISSION_MEMO_TUPLES", 4)
    model = _model(64, 2, seed=11)
    trace = _trace(600, app="602.gcc")
    cap = max(4, T)  # a window holds up to T distinct keys
    assert _distinct_keys(model, trace) > 2 * cap
    assert _distinct_head_tuples(model, trace) > 2 * 4
    clears = []
    real_fill = fastpath.SingleQueryFastPath._fill

    def fill(self, m, keys):
        held = set(m.ids)
        bases = real_fill(self, m, keys)
        clears.append(not held <= set(m.ids))
        return bases

    monkeypatch.setattr(fastpath.SingleQueryFastPath, "_fill", fill)
    want = _oracle(model, trace)
    stream = DARTPrefetcher(model, PRE, threshold=0.52).stream(batch_size=1)
    assert serve(stream, trace, collect=True)[1] == want
    _assert_varied(want, trace)
    m = model.fast_path()._input_map()
    assert m.cap == cap and len(m.ids) <= cap
    assert sum(clears) > 1, "the map was never cleared"
    _, memo = stream._mb._path._emissions._entry
    assert 0 < len(memo) <= 4
    _assert_query1_bitwise(model, trace)


def test_each_head_tuple_decoded_once_per_install(monkeypatch):
    model = _model(seed=13)
    trace = _trace(400)
    calls = []
    real = SingleRowDecoder.decode1
    monkeypatch.setattr(SingleRowDecoder, "decode1",
                        lambda self, row, anchor: calls.append(anchor) or real(self, row, anchor))
    _check(model, trace)
    assert len(calls) == _distinct_head_tuples(model, trace) < len(trace) - T + 1
    assert set(calls) == {0}  # decoded at anchor 0; each query adds its own


def test_input_map_holds_each_key_once():
    """Enough keys for the map to grow twice: rows held before a growth
    must still serve after it."""
    model = _model(64, 2, seed=2)
    trace = _trace(600, app="602.gcc")
    _check(model, trace)
    _assert_query1_bitwise(model, trace)
    m = model.fast_path()._input_map()
    assert 4 * 16 >= len(m.ids) == _distinct_keys(model, trace) > 2 * 16
    assert sorted(m.ids.values()) == list(range(0, len(m.ids) * T, T))


def _perturb(arr, seed):
    return arr + np.random.default_rng(seed).normal(0.0, 0.5 * arr.std() + 1e-3, arr.shape)


REBINDS = [
    ("addr_table", lambda m: m.addr_table, "table"),
    ("pc_table", lambda m: m.pc_table, "table"),
    ("head_table", lambda m: m.head_table, "table"),
    ("pos", lambda m: m.pos, "pe"),
    ("ln_in", lambda m: m.ln_in, "gamma"),
]


def test_served_b1_engine_tracks_table_rebinds():
    """Rebinding a table mid-stream (what ``TabularLinear.rebuild`` does)
    rebuilds the input map or the emission memo: every later emission equals
    a fresh oracle of the rebound model, and each rebind changes that
    oracle, so a stale map or memo would show."""
    model = _model(seed=21)
    trace = _trace(600)
    stream = DARTPrefetcher(model, PRE, threshold=0.52).stream(batch_size=1)
    stream.reset()
    got: list = [None] * len(trace)
    step = len(trace) // (len(REBINDS) + 1)
    want = _oracle(model, trace)
    for n, (name, owner, attr) in enumerate([(None, None, None), *REBINDS]):
        lo, hi = n * step, (len(trace) if n == len(REBINDS) else (n + 1) * step)
        if name is not None:
            old = want
            target = owner(model)
            setattr(target, attr, _perturb(getattr(target, attr), n))
            want = _oracle(model, trace)
            assert want[lo:hi] != old[lo:hi], f"rebinding {name} changed nothing"
        for i in range(lo, hi):
            for em in stream.ingest(int(trace.pcs[i]), int(trace.addrs[i])):
                got[em.seq] = list(em.blocks)
        assert got[lo:hi] == want[lo:hi], f"stale after rebinding {name}"
        _assert_varied(want[lo:hi], trace.slice(lo, hi))
    assert stream.fast_path_flushes == stream.predict_calls
