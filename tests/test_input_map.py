"""DART's table serving path: the input map and the emission memo.

Every flush of a table predictor gathers each access's first-layer input
row and QKV codes from a per-model map keyed on (access code tuple,
position), and decodes each distinct head code tuple once per install. A
k == 1 flush runs the single-query fast path over the map; a larger flush
keys each access of its streams' ring spans once and runs the generic trunk
from layer 0's mapped rows. Served emissions must equal the batch oracle
(``model_prefetch_lists`` over ``predict_proba``) list for list, and
``query1`` must equal ``query`` bit for bit. Models get random head tables,
and every check asserts at least two distinct delta lists: with one list for
every window, a wrong key, a wrong position or a memo entry served to the
wrong tuple would go unseen.
"""

from __future__ import annotations

import copy
import pickle
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

import repro.runtime.microbatch as microbatch
import repro.tabularization.tabular_model as tabular_model
from repro.data import PreprocessConfig, build_dataset
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch import DARTPrefetcher
from repro.prefetch.nn_prefetcher import SingleRowDecoder, model_prefetch_lists
from repro.runtime import MicroBatcher, serve
from repro.runtime.multistream import serve_interleaved
from repro.tabularization import TableConfig, tabularize_predictor
from repro.tabularization.tabular_model import TabularAttentionPredictor
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


@contextmanager
def _counting(owner, name, record=lambda *args: args):
    """Record ``record(*args)`` for each call of ``owner.<name>`` inside the block."""
    real = getattr(owner, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    setattr(owner, name, spy)
    try:
        yield calls
    finally:
        setattr(owner, name, real)


@contextmanager
def _memo_path_only(engine_calls):
    """Every flush inside the block takes the table path: ``engine_calls()``
    gives ``(predict_calls, fast_path_flushes)`` after it, and the generic
    flush's decode (``microbatch.decode_bitmap_probs``; the batch oracle
    calls its own import) must never run."""
    with _counting(TabularAttentionPredictor, "window_head_codes") as batched, \
            _counting(microbatch, "decode_bitmap_probs") as generic:
        yield batched
    predict_calls, k1 = engine_calls()
    assert not generic, "a flush ran the generic predict and decode"
    assert predict_calls == k1 + len(batched) > 0


def _served(model, trace, batch_size=1, max_wait=None, threshold=0.52, max_degree=2,
            decode="distance"):
    """``serve`` lists at ``batch_size``; every flush must take the table path."""
    with _memo_path_only(lambda: (stream.predict_calls, stream.fast_path_flushes)) as batched:
        stream = DARTPrefetcher(model, PRE, threshold=threshold, max_degree=max_degree,
                                decode=decode).stream(batch_size=batch_size, max_wait=max_wait)
        _, lists = serve(stream, trace, collect=True)
    if batch_size == 1:
        assert not batched
    else:
        assert batched, "no k > 1 flush ran"
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


def _check(model, trace, batch_sizes=(1, 32), **policy):
    want = _oracle(model, trace, **policy)
    for b in batch_sizes:
        assert _served(model, trace, batch_size=b, **policy) == want, f"B={b} diverged"
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
    monkeypatch.setattr(tabular_model, "INPUT_MAP_KEYS", 4)
    monkeypatch.setattr(microbatch, "EMISSION_MEMO_TUPLES", 4)
    model = _model(64, 2, seed=11)
    trace = _trace(600, app="602.gcc")
    cap = max(4, T)  # a window holds up to T distinct keys
    assert _distinct_keys(model, trace) > 2 * cap
    assert _distinct_head_tuples(model, trace) > 2 * 4
    clears = []
    real_fill = TabularAttentionPredictor._fill_inputs

    def fill(self, m, keys):
        held = set(m.ids)
        bases = real_fill(self, m, keys)
        clears.append(not held <= set(m.ids))
        return bases

    monkeypatch.setattr(TabularAttentionPredictor, "_fill_inputs", fill)
    want = _oracle(model, trace)
    stream = DARTPrefetcher(model, PRE, threshold=0.52).stream(batch_size=1)
    assert serve(stream, trace, collect=True)[1] == want
    _assert_varied(want, trace)
    m = model.input_map()
    assert m.cap == 4 and len(m.ids) <= cap
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
    want = _oracle(model, trace)
    distinct = _distinct_head_tuples(model, trace)
    assert distinct < len(trace) - T + 1
    for b in (1, 32):  # each install starts its own memo
        calls.clear()
        assert _served(model, trace, batch_size=b) == want
        assert len(calls) == distinct, f"B={b}"
        assert set(calls) == {0}  # decoded at anchor 0; each query adds its own
    _assert_varied(want, trace)


def test_input_map_holds_each_key_once():
    """Enough keys for the map to grow twice: rows held before a growth
    must still serve after it."""
    model = _model(64, 2, seed=2)
    trace = _trace(600, app="602.gcc")
    _check(model, trace)
    _assert_query1_bitwise(model, trace)
    m = model.input_map()
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


PROTOTYPE_REBINDS = [
    ("ffn1", lambda m: m.layers[0].ffn1.pq, "prototypes"),
    ("out", lambda m: m.layers[0].msa.out.pq, "prototypes"),
    ("addr_table", lambda m: m.addr_table.pq, "prototypes"),
    ("head_table", lambda m: m.head_table.pq, "prototypes"),
]


def _serve_across_rebinds(model, trace, rebinds, batch_size=1, max_wait=None):
    """Serve ``trace`` in ``len(rebinds) + 1`` segments on one engine and
    rebind one array before each segment after the first. Each segment's
    emissions must equal a fresh oracle of the model as rebound, and each
    rebind must change that oracle, so a stale map, memo or plan would show.
    Pending queries are flushed at each segment's end, before the rebind.
    Returns the engine."""
    stream = DARTPrefetcher(model, PRE, threshold=0.52).stream(
        batch_size=batch_size, max_wait=max_wait)
    stream.reset()
    got: list = [None] * len(trace)
    step = len(trace) // (len(rebinds) + 1)
    want = _oracle(model, trace)
    for n, (name, owner, attr) in enumerate([(None, None, None), *rebinds]):
        lo, hi = n * step, (len(trace) if n == len(rebinds) else (n + 1) * step)
        if name is not None:
            old = want
            target = owner(model)
            setattr(target, attr, _perturb(getattr(target, attr), n))
            want = _oracle(model, trace)
            assert want[lo:hi] != old[lo:hi], f"rebinding {name} changed nothing"
        emissions = []
        for i in range(lo, hi):
            emissions += stream.ingest(int(trace.pcs[i]), int(trace.addrs[i]))
        emissions += stream.flush()
        for em in emissions:
            got[em.seq] = list(em.blocks)
        assert got[lo:hi] == want[lo:hi], f"stale after rebinding {name}"
        _assert_varied(want[lo:hi], trace.slice(lo, hi))
    return stream


def test_served_b1_engine_tracks_table_rebinds():
    """Rebinding a table mid-stream (what ``TabularLinear.rebuild`` does)
    rebuilds the input map or the emission memo."""
    stream = _serve_across_rebinds(_model(seed=21), _trace(600), REBINDS)
    assert stream.fast_path_flushes == stream.predict_calls


def test_served_batched_engine_tracks_table_rebinds():
    """The same rebinds under k > 1 flushes."""
    model = _model(seed=22)
    with _memo_path_only(lambda: (stream.predict_calls, stream.fast_path_flushes)) as batched:
        stream = _serve_across_rebinds(model, _trace(600), REBINDS, batch_size=32, max_wait=9)
    assert batched


def test_served_engine_tracks_prototype_rebinds():
    """Rebinding a quantizer's prototypes (as ``fit`` and refits do) reaches
    every built encode plan: after each rebind ``query1`` equals ``query``
    bit for bit and served B=1 emissions equal a fresh oracle."""
    model = _model(seed=23)
    trace = _trace(500)
    assert mappable(model.layers[0].ffn1.table)  # ffn1 feeds the FFN2 code map
    model.query1(*(w[0] for w in _windows(trace)))  # build the plans first
    for rebind in PROTOTYPE_REBINDS:
        _serve_across_rebinds(model, trace, [rebind])
        _assert_query1_bitwise(model, trace)


# ------------------------------------------------------------- k > 1 flushes
@pytest.mark.parametrize("batch_size, max_wait", [(2, None), (32, None), (32, 5), (64, 16)])
def test_batched_flushes_equal_oracle(batch_size, max_wait):
    model = _model(seed=30 + batch_size)
    trace = _trace(500)
    want = _oracle(model, trace)
    assert _served(model, trace, batch_size=batch_size, max_wait=max_wait) == want
    _assert_varied(want, trace)


def _drive_uneven(handles, traces, weights, rng):
    """Feed each handle its trace, picking the next stream at random with
    the given weights; returns each stream's lists."""
    out = [[[] for _ in range(len(t))] for t in traces]
    pos = [0] * len(traces)
    live = [i for i in range(len(traces)) if len(traces[i])]

    def place(i, emissions):
        for em in emissions:
            out[i][em.seq] = list(em.blocks)

    while live:
        w = np.asarray([weights[i] for i in live])
        i = live[rng.choice(len(live), p=w / w.sum())]
        t = traces[i]
        place(i, handles[i].ingest(int(t.pcs[pos[i]]), int(t.addrs[pos[i]])))
        pos[i] += 1
        if pos[i] == len(t):
            live.remove(i)
    for i, h in enumerate(handles):
        place(i, h.flush())
    return out


def test_multistream_uneven_interleave():
    """Four streams interleaved unevenly: one flush's groups have very
    different sizes, and each group's span is its own stream's."""
    model = _model(seed=31)
    traces = [_trace(n, seed) for n, seed in ((450, 5), (300, 6), (220, 7), (120, 8))]
    engine = DARTPrefetcher(model, PRE, threshold=0.52).multistream(batch_size=32, max_wait=12)
    handles = engine.streams(len(traces))
    with _memo_path_only(lambda: (engine.predict_calls, engine.fast_path_flushes)), \
            _counting(microbatch._FlushPath, "flush",
                      lambda _, groups: sorted(len(pend) for _, pend in groups)) as sizes:
        got = _drive_uneven(handles, traces, [0.5, 0.3, 0.15, 0.05], np.random.default_rng(0))
    assert any(len(g) >= 3 and g[0] < g[-1] for g in sizes), "no uneven multi-stream flush"
    for s, trace in enumerate(traces):
        want = _oracle(model, trace)
        assert got[s] == want, f"stream {s} diverged"
        _assert_varied(want, trace)


def test_sharded_two_workers():
    """Four tenants of different apps over two worker processes: each
    worker's flushes span two streams whose windows differ."""
    model = _model(seed=32)
    traces = [_trace(n, seed, app) for n, seed, app in (
        (400, 5, "462.libquantum"), (350, 6, "605.mcf"), (300, 7, "602.gcc"),
        (250, 8, "410.bwaves"))]
    with DARTPrefetcher(model, PRE, threshold=0.52).sharded(
        workers=2, batch_size=32, max_wait=16
    ) as eng:
        _, _, lists = eng.serve(traces, collect=True)
    for s, trace in enumerate(traces):
        want = _oracle(model, trace)
        assert lists[s] == want, f"stream {s} diverged"
        _assert_varied(want, trace)


def test_batched_flush_never_evicts_its_own_keys(monkeypatch):
    """With both bounds patched to 4, every k > 1 flush brings more keys
    than the map holds: the map is cleared and grown to hold that flush's
    keys, and the memo is cleared again and again."""
    monkeypatch.setattr(tabular_model, "INPUT_MAP_KEYS", 4)
    monkeypatch.setattr(microbatch, "EMISSION_MEMO_TUPLES", 4)
    model = _model(64, 2, seed=33)
    trace = _trace(600, app="602.gcc")
    held = []
    real_fill = TabularAttentionPredictor._fill_inputs

    def fill(self, m, keys):
        bases = real_fill(self, m, keys)
        held.append(len(m.ids))
        assert set(keys) <= set(m.ids)
        return bases

    monkeypatch.setattr(TabularAttentionPredictor, "_fill_inputs", fill)
    want = _oracle(model, trace)
    assert _served(model, trace, batch_size=32, max_wait=20) == want
    _assert_varied(want, trace)
    assert max(held) > 2 * 4, "no flush brought more keys than the bound"
    m = model.input_map()
    assert m.cap == 4 and m.rows.shape[0] >= len(m.ids) * T


def test_hot_swap_mid_stream_batched():
    """A swap drains the pending queries with the outgoing model; later
    flushes use the new model's map and a new memo. The two models differ
    only in their head tables, so every window reaches the same head code
    tuple under both, and a memo entry that outlived the swap would serve
    the old model's deltas."""
    old, new = _model(16, 2, seed=34), _model(16, 2, seed=35)
    trace = _trace(600)
    cut = 277
    want_old, want_new = _oracle(old, trace), _oracle(new, trace)
    assert want_old[cut:] != want_new[cut:]
    stream = DARTPrefetcher(old, PRE, threshold=0.52).stream(batch_size=32, max_wait=7)
    got: list = [None] * len(trace)
    emissions = []
    for i in range(len(trace)):
        if i == cut:
            emissions += stream.swap_model(new)
        emissions += stream.ingest(int(trace.pcs[i]), int(trace.addrs[i]))
    emissions += stream.flush()
    for em in emissions:
        got[em.seq] = list(em.blocks)
    assert stream.swaps == 1
    assert got[:cut] == want_old[:cut]
    assert got[cut:] == want_new[cut:]
    _assert_varied(want_new[cut:], trace.slice(cut, len(trace)))


def test_non_consecutive_pending_after_thaw():
    """A thawed stream whose pending seqs skip ahead flushes together with a
    live stream: its span covers the skipped accesses and each window is
    still its own."""
    model = _model(seed=36)
    t0, t1 = _trace(200, 5), _trace(200, 6)
    pf = DARTPrefetcher(model, PRE, threshold=0.52)
    src = pf.multistream(batch_size=32)
    (h,) = src.streams(1)
    n0 = T - 1 + 25
    for i in range(n0):
        assert not [em for em in h.ingest(int(t0.pcs[i]), int(t0.addrs[i])) if em.blocks]
    snap = src.export_stream(h.index)
    pending = snap["snapshot/pending"]
    assert len(pending) == 25
    keep = pending[[0, 3, 4, 9, 17, 24]]
    snap["snapshot/pending"] = keep

    dst = pf.multistream(batch_size=32)
    (live,) = dst.streams(1)
    moved = dst.import_stream(snap)
    got = {}
    for i in range(T - 1 + 12):
        for em in live.ingest(int(t1.pcs[i]), int(t1.addrs[i])):
            got[em.seq] = list(em.blocks)
    with _memo_path_only(lambda: (dst.predict_calls, dst.fast_path_flushes)) as batched:
        tail = live.flush()
    assert len(batched) == 1
    for em in tail:
        got[em.seq] = list(em.blocks)
    moved_got = {em.seq: list(em.blocks) for em in moved.poll()}
    want0, want1 = _oracle(model, t0), _oracle(model, t1)
    assert sorted(moved_got) == keep.tolist()
    assert [moved_got[s] for s in keep.tolist()] == [want0[s] for s in keep.tolist()]
    assert [got[s] for s in range(T - 1 + 12)] == want1[: T - 1 + 12]
    ba = block_address(t0.addrs)
    assert len({tuple(b - int(ba[s]) for b in want0[s]) for s in keep.tolist()}) >= 2


@pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
def test_copies_drop_the_input_map(clone):
    model = _model(seed=37)
    trace = _trace(300)
    want = _check(model, trace, batch_sizes=(32,))
    assert len(model.input_map().ids) > 0
    twin = copy.deepcopy(model) if clone == "deepcopy" else pickle.loads(pickle.dumps(model))
    assert "_inputs" not in vars(twin) and "_fast_path" not in vars(twin)
    assert twin.input_map() is not model.input_map()
    assert twin.input_map().ids == {}
    assert _served(twin, trace, batch_size=32) == want
