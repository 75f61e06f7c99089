"""Multi-stream shared-model serving: isolation, equivalence, coalescing.

The tentpole bar: each stream served through a shared
:class:`MultiStreamEngine` must emit **bit-identically** to serving that
stream alone through the single-stream path (and hence to the batch path).
On top of that, shared batching must actually coalesce: under a latency
deadline it issues measurably fewer ``predict_proba`` calls than per-stream
batching at the same ``B``.
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    BatchAdapter,
    serve,
    serve_interleaved,
)

# `dart` and `four_traces` are the shared session fixtures in conftest.py.


# ------------------------------------------------------------------ equivalence
def test_four_streams_match_solo_runs(dart, four_traces):
    """Acceptance bar: N=4 interleaved streams == 4 solo single-stream runs."""
    engine = dart.multistream(batch_size=64)
    handles = engine.streams(4)
    _, per_stream, lists = serve_interleaved(handles, four_traces, collect=True)
    assert engine.predict_calls > 0
    for i, trace in enumerate(four_traces):
        solo = BatchAdapter(dart.stream(batch_size=64)).prefetch_lists(trace)
        assert lists[i] == solo, f"stream {i} diverged from its solo run"
        assert per_stream[i].accesses == len(trace)
    assert any(any(row) for row in lists[0])  # the model actually prefetches


def test_cross_stream_isolation_uneven_interleave(dart, four_traces):
    """Two different traces, unevenly interleaved by hand (2:1), must each
    still reproduce their solo runs — per-tenant state never leaks."""
    a, b = four_traces[0], four_traces[1].slice(0, 300)
    engine = dart.multistream(batch_size=32)
    ha, hb = engine.stream("a"), engine.stream("b")
    collected = {ha.index: [[] for _ in range(len(a))], hb.index: [[] for _ in range(len(b))]}

    def pump(handle, trace, i):
        for em in handle.ingest(int(trace.pcs[i]), int(trace.addrs[i])):
            collected[handle.index][em.seq] = list(em.blocks)

    ia = ib = 0
    while ia < len(a) or ib < len(b):
        for _ in range(2):  # two accesses of A per access of B
            if ia < len(a):
                pump(ha, a, ia)
                ia += 1
        if ib < len(b):
            pump(hb, b, ib)
            ib += 1
    for handle in (ha, hb):
        for em in handle.flush():
            collected[handle.index][em.seq] = list(em.blocks)

    assert collected[ha.index] == dart.prefetch_lists(a)
    assert collected[hb.index] == dart.prefetch_lists(b)


def test_handles_preserve_emission_invariant(dart, four_traces):
    """Per handle: exactly one emission per access, ascending seq."""
    engine = dart.multistream(batch_size=17)
    handles = engine.streams(3)
    seqs = {h.index: [] for h in handles}
    n = 250
    for i in range(n):
        for h, trace in zip(handles, four_traces):
            for em in h.ingest(int(trace.pcs[i]), int(trace.addrs[i])):
                seqs[h.index].append(em.seq)
    for h in handles:
        seqs[h.index].extend(em.seq for em in h.flush())
    for h in handles:
        assert seqs[h.index] == list(range(n))


# ------------------------------------------------------------------- coalescing
def test_shared_batching_halves_predict_calls(dart, four_traces):
    """Acceptance bar: >=2x fewer predict calls than per-stream batching at
    the same B under a latency deadline (where per-stream batches run small)."""
    b, w = 64, 8
    engine = dart.multistream(batch_size=b, max_wait=w)
    serve_interleaved(engine.streams(4), four_traces)
    shared_calls = engine.predict_calls

    solos = [dart.stream(batch_size=b, max_wait=w) for _ in range(4)]
    serve_interleaved(solos, four_traces)
    solo_calls = sum(s.predict_calls for s in solos)

    assert shared_calls > 0
    assert solo_calls >= 2 * shared_calls, (solo_calls, shared_calls)
    # Same questions answered either way.
    assert engine.queries_answered == sum(s.queries_answered for s in solos)


def test_mean_batch_fill_grows_with_streams(dart, four_traces):
    """More tenants -> fuller shared batches at the same deadline."""
    fills = []
    for n in (1, 4):
        engine = dart.multistream(batch_size=64, max_wait=8)
        serve_interleaved(engine.streams(n), four_traces[:n])
        fills.append(engine.stats()["mean_batch_fill"])
    assert fills[1] > fills[0]


# --------------------------------------------------------------------- protocol
def test_flush_on_one_handle_answers_everyone(dart, four_traces):
    """A flush drains the whole engine; other handles get outbox deliveries."""
    engine = dart.multistream(batch_size=512)
    h0, h1 = engine.streams(2)
    t = dart.config.history_len
    a, b = four_traces[0], four_traces[1]
    for i in range(t + 5):  # past warm-up, below batch size: all queries pend
        h0.ingest(int(a.pcs[i]), int(a.addrs[i]))
        h1.ingest(int(b.pcs[i]), int(b.addrs[i]))
    assert h0.pending and h1.pending
    ems0 = h0.flush()  # one coalesced predict answers both streams
    assert engine.predict_calls == 1
    assert ems0 and not h0.pending and not h1.pending
    assert h1.poll()  # h1's answers arrived in its outbox


def test_per_handle_reset_is_isolated(dart, four_traces):
    """Resetting one tenant must not disturb another's in-flight state."""
    engine = dart.multistream(batch_size=64)
    h0, h1 = engine.streams(2)
    a, b = four_traces[0].slice(0, 400), four_traces[1].slice(0, 400)
    collected = [[] for _ in range(len(b))]
    for i in range(100):  # dirty both streams
        h0.ingest(int(a.pcs[i]), int(a.addrs[i]))
        h1.ingest(int(b.pcs[i]), int(b.addrs[i]))
    h0.reset()
    h1.reset()
    assert h0.pending == 0 and h0.seq == 0
    # Serve b through h1 after the reset: must match its solo run.
    for i in range(len(b)):
        for em in h1.ingest(int(b.pcs[i]), int(b.addrs[i])):
            collected[em.seq] = list(em.blocks)
    for em in h1.flush():
        collected[em.seq] = list(em.blocks)
    assert collected == dart.prefetch_lists(b)


def test_serve_single_handle_through_engine_loop(dart, four_traces):
    """A StreamHandle is a full StreamingPrefetcher: engine.serve drives it."""
    engine = dart.multistream(batch_size=32)
    handle = engine.stream()
    stats, lists = serve(handle, four_traces[0], collect=True)
    assert stats.accesses == len(four_traces[0])
    assert lists == dart.prefetch_lists(four_traces[0])


def test_engine_rejects_bad_config(dart):
    with pytest.raises(ValueError):
        dart.multistream(batch_size=0)
    with pytest.raises(ValueError):
        dart.multistream(max_wait=0)
    engine = dart.multistream()
    with pytest.raises(ValueError):
        engine.streams(2, names=["only-one"])
    with pytest.raises(ValueError):
        serve_interleaved([engine.stream()], [])


def test_engine_carries_cost_metadata(dart):
    engine = dart.multistream()
    handle = engine.stream()
    assert handle.latency_cycles == dart.latency_cycles
    assert handle.storage_bytes == dart.storage_bytes
    assert engine.stats()["model_copies"] == 1


# ------------------------------------------------------------------- multicore
def test_multicore_shared_model_matches_per_core_instances(dart, four_traces, tabular_student, preprocess_config):
    """One shared table model serving 2 cores == 2 private model instances."""
    from repro.prefetch import DARTPrefetcher
    from repro.sim import HierarchyConfig, LevelConfig
    from repro.sim.multicore import simulate_multicore

    tab, _ = tabular_student
    cfg = HierarchyConfig(
        l1d=LevelConfig(4 * 1024, 4, 5.0),
        l2=LevelConfig(16 * 1024, 4, 10.0),
        llc=LevelConfig(64 * 1024, 8, 20.0),
        paging=False,
    )
    traces = [four_traces[0], four_traces[1]]
    replicated = simulate_multicore(
        traces,
        prefetchers=[
            DARTPrefetcher(tab, preprocess_config, threshold=0.4, max_degree=3),
            DARTPrefetcher(tab, preprocess_config, threshold=0.4, max_degree=3),
        ],
        config=cfg,
    )
    shared = simulate_multicore(
        traces,
        config=cfg,
        shared_prefetcher=dart,
        shared_stream_kwargs={"batch_size": 32, "max_wait": 8},
    )
    for a, b in zip(replicated.cores, shared.cores):
        assert (a.cycles, a.prefetches_issued, a.prefetches_useful) == (
            b.cycles,
            b.prefetches_issued,
            b.prefetches_useful,
        )
    assert shared.predictor["model_copies"] == 1
    assert shared.predictor["streams"] == 2
    assert shared.predictor["predict_calls"] > 0
    assert "shared_predictor" in shared.summary()


def test_multicore_shared_model_validation(dart, four_traces):
    from repro.prefetch import NextLinePrefetcher
    from repro.sim.multicore import simulate_multicore

    with pytest.raises(ValueError):
        simulate_multicore(
            [four_traces[0]], prefetchers=[NextLinePrefetcher()], shared_prefetcher=dart
        )
    with pytest.raises(TypeError):
        simulate_multicore([four_traces[0]], shared_prefetcher=NextLinePrefetcher())
    with pytest.raises(ValueError, match="shared_stream_kwargs"):
        simulate_multicore([four_traces[0]], shared_stream_kwargs={"batch_size": 8})


def test_aggregate_latency_counts_equal_sum_of_streams(dart, four_traces):
    """Regression: the aggregate sketch counts each timed delivery exactly
    once per stream — the end-of-run drain included, even when every stream
    ends on the same tick and the first handle's drain flush answers all of
    them (the others then deliver from their outboxes).
    """
    # Equal-length traces ending on the same tick, batch size large enough
    # that a full batch worth of queries is still pending at the drain.
    traces = [t.slice(0, 300) for t in four_traces]
    engine = dart.multistream(batch_size=4096)
    agg, per_stream, _ = serve_interleaved(engine.streams(4), traces)
    counts = [s.extra["latency_count"] for s in per_stream]
    assert agg.extra["latency_count"] == sum(counts), (agg.extra, counts)
    # Every access was timed, plus exactly one drain-delivery per stream.
    assert counts == [300 + 1] * 4


def test_max_wait_deadline_bounds_pending_per_stream(dart, four_traces):
    engine = dart.multistream(batch_size=512, max_wait=16)
    handles = engine.streams(2)
    for i in range(300):
        for h, trace in zip(handles, four_traces):
            h.ingest(int(trace.pcs[i]), int(trace.addrs[i]))
            assert h.pending <= 16
