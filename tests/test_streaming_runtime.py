"""Streaming runtime: protocol, adapters, micro-batching, serving engine.

The load-bearing property is **batch/stream equivalence**: for any predictor,
``BatchAdapter(p.stream()).prefetch_lists(trace)`` must equal
``p.prefetch_lists(trace)`` bit for bit — across rule-based state machines,
and the micro-batched learned path (all batch sizes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch import (
    BestOffsetPrefetcher,
    DARTPrefetcher,
    ISBPrefetcher,
    NextLinePrefetcher,
    Prefetcher,
    StreamPrefetcher,
    StridePrefetcher,
)
from repro.runtime import (
    BatchAdapter,
    Emission,
    MicroBatcher,
    StreamingPrefetcher,
    as_streaming,
    serve,
)
from repro.sim import SimConfig, simulate
from repro.traces import MemoryTrace

RULE_BASED = [
    BestOffsetPrefetcher,
    ISBPrefetcher,
    StreamPrefetcher,
    StridePrefetcher,
    lambda: NextLinePrefetcher(degree=2),
]


def _ids(factories):
    return [f().name for f in factories]


# ---------------------------------------------------------------- rule-based
@pytest.mark.parametrize("factory", RULE_BASED, ids=_ids(RULE_BASED))
def test_rule_based_stream_matches_batch(small_trace, factory):
    pf = factory()
    assert BatchAdapter(pf.stream()).prefetch_lists(small_trace) == pf.prefetch_lists(small_trace)


def test_stream_carries_cost_metadata():
    pf = BestOffsetPrefetcher()
    s = pf.stream()
    assert (s.name, s.latency_cycles, s.storage_bytes) == (
        pf.name,
        pf.latency_cycles,
        pf.storage_bytes,
    )


def test_base_prefetcher_has_no_stream():
    with pytest.raises(TypeError):
        Prefetcher().stream()


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2_000)), min_size=1, max_size=120
    ),
    which=st.sampled_from(["bo", "isb", "streamer", "stride"]),
)
def test_streaming_equivalence_property(data, which):
    """Equivalence holds on arbitrary short (pc, block) sequences."""
    factory = {
        "bo": BestOffsetPrefetcher,
        "isb": ISBPrefetcher,
        "streamer": StreamPrefetcher,
        "stride": StridePrefetcher,
    }[which]
    pcs = np.asarray([p for p, _ in data], dtype=np.int64)
    addrs = np.asarray([a << 6 for _, a in data], dtype=np.int64)  # block-aligned
    trace = MemoryTrace(np.arange(len(data), dtype=np.int64), pcs, addrs)
    pf = factory()
    assert BatchAdapter(pf.stream()).prefetch_lists(trace) == pf.prefetch_lists(trace)


# ------------------------------------------------------------- learned (DART)
@pytest.fixture(scope="module")
def dart(tabular_student, preprocess_config):
    tab, _ = tabular_student
    return DARTPrefetcher(tab, preprocess_config, threshold=0.4, max_degree=3)


@pytest.mark.parametrize("batch_size", [1, 5, 64, 512])
def test_dart_stream_matches_batch_across_batch_sizes(small_trace, dart, batch_size):
    trace = small_trace.slice(0, 1200)
    expected = dart.prefetch_lists(trace)
    got = BatchAdapter(dart.stream(batch_size=batch_size)).prefetch_lists(trace)
    assert got == expected
    assert any(got)  # the model actually prefetches on this trace


@pytest.mark.parametrize("decode", ["distance", "confidence"])
@pytest.mark.parametrize("max_degree", [1, 4])
def test_dart_stream_equivalence_across_decode_policies(
    small_trace, tabular_student, preprocess_config, decode, max_degree
):
    tab, _ = tabular_student
    pf = DARTPrefetcher(
        tab, preprocess_config, threshold=0.4, max_degree=max_degree, decode=decode
    )
    trace = small_trace.slice(0, 800)
    assert (
        BatchAdapter(pf.stream(batch_size=32)).prefetch_lists(trace)
        == pf.prefetch_lists(trace)
    )


def test_max_wait_deadline_semantics(dart):
    """max_wait=N flushes when the oldest query has N accesses behind it."""
    stream = dart.stream(batch_size=512, max_wait=2)
    t = dart.config.history_len
    # Warm up history, then watch the deadline: queries queue at ages 0, 1
    # and flush when the oldest hits age 2 — bursts of 3.
    flush_sizes = []
    for i in range(t - 1 + 9):
        ems = stream.ingest(7, (1000 + i) << 6)
        real = [e for e in ems if e.seq >= t - 1]
        if real:
            flush_sizes.append(len(real))
    assert flush_sizes == [3, 3, 3]


def test_latency_sketch_bounds_memory():
    from repro.runtime.engine import _LatencySketch

    sketch = _LatencySketch(cap=64)
    for i in range(10_000):
        sketch.add(float(i))
    assert len(sketch.samples) < 64
    assert sketch.count == 10_000
    assert sketch.peak == 9999.0
    assert sketch.mean == pytest.approx(4999.5)


def test_dart_stream_max_wait_bounds_pending(small_trace, dart):
    stream = dart.stream(batch_size=512, max_wait=16)
    pcs, addrs = small_trace.pcs, small_trace.addrs
    for i in range(400):
        stream.ingest(int(pcs[i]), int(addrs[i]))
        assert stream.pending <= 16
    # And the deadline path still reproduces the batch output.
    trace = small_trace.slice(0, 600)
    assert BatchAdapter(dart.stream(batch_size=512, max_wait=16)).prefetch_lists(
        trace
    ) == dart.prefetch_lists(trace)


def test_dart_stream_reuses_prediction_buffers(small_trace, dart):
    """Steady-state serving issues exactly one predict call per flush."""
    calls = []
    inner = dart.predictor.predict_proba

    def counting(x_addr, x_pc, batch_size=512, out=None):
        calls.append(x_addr.shape[0])
        return inner(x_addr, x_pc, batch_size=batch_size, out=out)

    stream = MicroBatcher(
        counting, dart.config, threshold=dart.threshold,
        max_degree=dart.max_degree, batch_size=32,
    )
    pcs, addrs = small_trace.pcs, small_trace.addrs
    for i in range(200):
        stream.ingest(int(pcs[i]), int(addrs[i]))
    stream.flush()
    t = dart.config.history_len
    assert sum(calls) == 200 - (t - 1)  # every access with history queried once
    assert all(c <= 32 for c in calls)
    # The single-stream engine keeps the multistream engine's scorecard.
    stats = stream.stats()
    assert stats["streams"] == 1 and stats["predict_calls"] == len(calls)
    assert stats["queries_answered"] == sum(calls)


# ----------------------------------------------------------- protocol details
def test_emission_invariant_one_per_access(small_trace, dart):
    """Exactly one emission per access, in ascending seq order."""
    for stream in (BestOffsetPrefetcher().stream(), dart.stream(batch_size=17)):
        seqs = []
        pcs, addrs = small_trace.pcs, small_trace.addrs
        n = 300
        for i in range(n):
            seqs.extend(em.seq for em in stream.ingest(int(pcs[i]), int(addrs[i])))
        seqs.extend(em.seq for em in stream.flush())
        assert seqs == list(range(n))


def test_observe_flattens_emissions():
    stream = NextLinePrefetcher(degree=2).stream()
    assert stream.observe(7, 0x1000) == [0x41, 0x42]


def test_stream_reset_restarts_cleanly(small_trace, dart):
    stream = dart.stream(batch_size=16)
    first = BatchAdapter(stream).prefetch_lists(small_trace.slice(0, 300))
    # BatchAdapter resets on entry, so a second run over the same data matches.
    second = BatchAdapter(stream).prefetch_lists(small_trace.slice(0, 300))
    assert first == second


def test_microbatcher_reset_is_bit_identical_to_fresh(small_trace, dart):
    """reset() must clear the feature rings/anchors, not just seq/pending:
    a serve-reset-serve run must match a fresh engine bit for bit."""
    kwargs = dict(threshold=dart.threshold, max_degree=dart.max_degree, batch_size=16)
    mb = MicroBatcher(dart.predictor.predict_proba, dart.config, **kwargs)
    pcs, addrs = small_trace.pcs, small_trace.addrs
    for i in range(137):  # odd count: leaves queries pending and rings dirty
        mb.ingest(int(pcs[i]), int(addrs[i]))
    assert mb.pending
    mb.reset()
    assert mb.seq == 0 and not mb.pending
    (state,) = mb._states
    assert not state.addr_ring.any() and not state.pc_ring.any()
    assert not state.anchors.any()

    def run(engine):
        out = []
        for i in range(300):
            out.extend(engine.ingest(int(pcs[i]), int(addrs[i])))
        out.extend(engine.flush())
        return out

    fresh = MicroBatcher(dart.predictor.predict_proba, dart.config, **kwargs)
    assert run(mb) == run(fresh)


def test_serve_times_the_final_drain():
    """The end-of-stream flush (the tail predict answering up to B-1 queries)
    must appear in the latency sketch, not vanish untimed."""
    import time as _time

    class SlowDrain(StreamingPrefetcher):
        name = "slow-drain"

        def __init__(self):
            self.seq = 0

        def ingest(self, pc, addr):
            self.seq += 1
            return []

        def flush(self):
            _time.sleep(0.02)  # stand-in for the deferred tail predict
            return [Emission(s, []) for s in range(self.seq)]

    stats, lists = serve(SlowDrain(), [(0, i << 6) for i in range(50)], collect=True)
    assert lists == [[] for _ in range(50)]
    assert stats.max_us >= 10_000  # the 20 ms drain is in the sketch


def test_microbatcher_rejects_bad_config(dart):
    with pytest.raises(ValueError):
        MicroBatcher(dart.predictor.predict_proba, dart.config, batch_size=0)
    with pytest.raises(ValueError):
        MicroBatcher(dart.predictor.predict_proba, dart.config, max_wait=0)


def test_scalar_segmentation_bit_identical(preprocess_config):
    """The streaming hot path segments exactly like the batch vectorized path."""
    seg = preprocess_config.segmenter()
    rng = np.random.default_rng(0)
    blocks = rng.integers(0, 1 << 30, size=50, dtype=np.int64)
    pcs = rng.integers(0, 1 << 20, size=50, dtype=np.int64)
    batch_a = seg.segment_block_addresses(blocks)
    batch_p = seg.segment_pcs(pcs)
    out_a = np.empty(seg.n_addr_segments)
    out_p = np.empty(seg.n_pc_segments)
    for i in range(50):
        seg.segment_access_into(int(blocks[i]), int(pcs[i]), out_a, out_p)
        assert np.array_equal(out_a, batch_a[i])
        assert np.array_equal(out_p, batch_p[i])


# -------------------------------------------------------------------- serving
def test_serve_reports_stats_and_lists(small_trace):
    pf = BestOffsetPrefetcher()
    stats, lists = serve(pf.stream(), small_trace, collect=True)
    assert stats.accesses == len(small_trace)
    assert lists == pf.prefetch_lists(small_trace)
    assert stats.prefetches == sum(len(r) for r in lists)
    assert stats.throughput > 0
    assert stats.p50_us <= stats.p99_us <= stats.max_us
    d = stats.to_dict()
    assert d["accesses"] == stats.accesses and "p99_us" in d


def test_serve_accepts_chunked_sources(small_trace):
    chunks = [small_trace.slice(0, 500), small_trace.slice(500, len(small_trace))]
    stats, lists = serve(NextLinePrefetcher().stream(), chunks, collect=True)
    assert stats.accesses == len(small_trace)
    assert lists == NextLinePrefetcher().prefetch_lists(small_trace)


def test_as_streaming_passthrough():
    s = BestOffsetPrefetcher().stream()
    assert as_streaming(s) is s
    assert isinstance(as_streaming(BestOffsetPrefetcher()), StreamingPrefetcher)


def test_batch_adapter_round_trips_to_stream():
    s = BestOffsetPrefetcher().stream()
    adapter = BatchAdapter(s)
    assert as_streaming(adapter) is s  # adapter.stream() returns the wrapped stream


# ------------------------------------------------------------------ simulator
def test_simulator_streaming_mode_matches_batch_for_sync_streams(small_trace):
    cfg = SimConfig()
    for pf in (BestOffsetPrefetcher(), ISBPrefetcher()):
        a = simulate(small_trace, pf, cfg)
        b = simulate(small_trace, pf, cfg, streaming=True)
        assert (a.cycles, a.demand_hits, a.demand_misses) == (
            b.cycles,
            b.demand_hits,
            b.demand_misses,
        )
        assert (a.prefetches_issued, a.prefetches_useful) == (
            b.prefetches_issued,
            b.prefetches_useful,
        )


def test_simulator_streaming_mode_with_dart(small_trace, dart):
    trace = small_trace.slice(0, 1500)
    r = simulate(trace, dart, SimConfig(), streaming=True, stream_kwargs={"batch_size": 32})
    assert r.demand_accesses == len(trace)
    assert r.prefetches_issued > 0
    # Micro-batching defers emissions, so issue volume cannot exceed batch mode.
    batch = simulate(trace, dart, SimConfig())
    assert r.prefetches_issued <= batch.prefetches_issued


def test_emission_namedtuple_shape():
    em = Emission(3, [1, 2])
    assert em.seq == 3 and em.blocks == [1, 2]
