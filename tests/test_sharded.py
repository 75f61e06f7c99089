"""Sharded multi-process serving: identity, swap broadcast, failure, cleanup.

The acceptance bar: :class:`ShardedEngine` per-stream emissions are
bit-identical to the single-process :class:`MultiStreamEngine` for N=8
streams at W in {1, 2, 4} — including across a mid-stream ``swap_model``
broadcast — and a dying worker surfaces as a named :class:`ShardFailure`
(with the affected stream ids) instead of a hang, with every shared-memory
segment unlinked by ``close()`` no matter how the run ended. The chaos
tests (seeded worker reply delays) are in ``test_pipeline.py``.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.runtime import ShardFailure, serve, serve_interleaved

# The tiny DART and the eight trace shards come from the shared fixtures in
# conftest.py (`dart`, `eight_traces`) — one model fit for the whole session.
N_STREAMS = 8
LEN = 350


@pytest.fixture(scope="module")
def reference_lists(dart, eight_traces):
    """Single-process MultiStreamEngine output: the identity baseline."""
    engine = dart.multistream(batch_size=64)
    _, _, lists = serve_interleaved(
        engine.streams(N_STREAMS), eight_traces, collect=True
    )
    return lists


# ------------------------------------------------------------------ identity
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_matches_multistream(dart, eight_traces, reference_lists, workers):
    with dart.sharded(workers=workers, batch_size=64) as engine:
        agg, per_stream, lists = engine.serve(eight_traces, collect=True)
        stats = engine.stats()
    for i in range(N_STREAMS):
        assert lists[i] == reference_lists[i], f"stream {i} diverged at W={workers}"
        assert per_stream[i].accesses == LEN
    assert agg.accesses == N_STREAMS * LEN
    assert stats["predict_calls"] > 0
    assert stats["model_copies"] == 1  # one shm segment for the whole fleet
    assert stats["shm_bytes"] is not None
    assert any(any(row) for row in lists[0])


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_swap_broadcast_mid_stream(dart, eight_traces, reference_lists, workers):
    """A no-op version bump broadcast halfway must not change one emission."""
    artifact = dart.artifact
    engine = dart.sharded(workers=workers, batch_size=64, io_chunk=32)
    collected = [[[] for _ in range(LEN)] for _ in range(N_STREAMS)]
    with engine:
        handles = engine.streams(N_STREAMS)

        def pump(lo, hi):
            for i in range(lo, hi):
                for h, t in zip(handles, eight_traces):
                    for em in h.ingest(int(t.pcs[i]), int(t.addrs[i])):
                        collected[h.index][em.seq] = list(em.blocks)

        pump(0, LEN // 2)
        engine.swap_model(artifact.successor(artifact.model, reason="rotate"))
        assert engine.swaps == 1
        assert engine.model_version == 2
        pump(LEN // 2, LEN)
        for h in handles:
            for em in h.flush():
                collected[h.index][em.seq] = list(em.blocks)
        assert engine.stats()["model_version"] == 2
    for i in range(N_STREAMS):
        assert collected[i] == reference_lists[i], (
            f"stream {i} diverged across the swap at W={workers}"
        )


def test_shard_handle_is_a_streaming_prefetcher(dart, eight_traces):
    """serve() drives a ShardHandle like any stream; emission invariant holds."""
    with dart.sharded(workers=2, batch_size=32) as engine:
        handle = engine.stream("solo")
        stats, lists = serve(handle, eight_traces[0], collect=True)
    assert stats.accesses == LEN
    assert lists == dart.prefetch_lists(eight_traces[0])


def test_swap_refused_before_anything_changes(dart, eight_traces):
    class WrongGeometry:
        class model_config:
            bitmap_size = 4096
            history_len = 99

        def predict_proba(self):  # pragma: no cover - never called
            pass

    with dart.sharded(workers=2, batch_size=64) as engine:
        handles = engine.streams(2)
        with pytest.raises(ValueError, match="geometry"):
            engine.swap_model(WrongGeometry())
        assert engine.swaps == 0
        # The refusal left the fleet serving: a full run still matches batch.
        for h, trace in zip(handles, eight_traces):
            out = [[] for _ in range(LEN)]
            for i in range(LEN):
                for em in h.ingest(int(trace.pcs[i]), int(trace.addrs[i])):
                    out[em.seq] = list(em.blocks)
            for em in h.flush():
                out[em.seq] = list(em.blocks)
            assert out == dart.prefetch_lists(trace)


# ------------------------------------------------------------------- failure
def test_worker_death_raises_named_shard_failure(dart, eight_traces):
    """Kill one worker mid-stream: a prompt ShardFailure naming its streams."""
    engine = dart.sharded(workers=2, batch_size=64, io_chunk=16)
    try:
        handles = engine.streams(4)
        for i in range(60):
            for h, t in zip(handles, eight_traces):
                h.ingest(int(t.pcs[i]), int(t.addrs[i]))
        victim = engine._shards[0]
        victim.process.kill()
        victim.process.join(timeout=5.0)
        t0 = time.monotonic()
        with pytest.raises(ShardFailure) as exc:
            for i in range(60, LEN):
                for h, t in zip(handles, eight_traces):
                    h.ingest(int(t.pcs[i]), int(t.addrs[i]))
        assert time.monotonic() - t0 < 10.0  # no hang on the dead pipe
        # Streams 0 and 2 live on shard 0 (round-robin placement).
        assert exc.value.shard == 0
        assert exc.value.stream_ids == [0, 2]
        assert len(exc.value.stream_names) == 2
        # The failure is sticky for that shard.
        with pytest.raises(ShardFailure):
            engine.flush_all()
    finally:
        engine.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crash_injection_segments_always_unlinked(dart, eight_traces, seed):
    """Seeded kill at a random point: close() still unlinks every segment."""
    rng = np.random.default_rng(900 + seed)
    kill_at = int(rng.integers(10, LEN - 10))
    victim_id = int(rng.integers(0, 2))
    engine = dart.sharded(workers=2, batch_size=64, io_chunk=8)
    handles = engine.streams(4)
    names = [pub.name for pub in engine._publications]
    assert names, "the DART path must publish a segment"
    try:
        with pytest.raises(ShardFailure):
            for i in range(LEN):
                if i == kill_at:
                    engine._shards[victim_id].process.kill()
                    engine._shards[victim_id].process.join(timeout=5.0)
                for h, t in zip(handles, eight_traces):
                    h.ingest(int(t.pcs[i]), int(t.addrs[i]))
            engine.flush_all()  # small io_chunk may defer the failing dispatch
    finally:
        engine.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_context_manager_exit_unlinks(dart, eight_traces):
    with dart.sharded(workers=2, batch_size=64) as engine:
        engine.serve(eight_traces[:2], collect=False)
        name = engine._publications[0].name
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    engine.close()  # idempotent


def test_swap_with_dead_worker_keeps_survivors_consistent(dart, eight_traces):
    """A shard dying mid-broadcast still raises, but survivors end on the new
    version with their request-reply protocol in lockstep (no stale acks)."""
    oracle = dart.prefetch_lists(eight_traces[0])
    engine = dart.sharded(workers=2, batch_size=64, io_chunk=16)
    try:
        handles = engine.streams(4)
        collected = {}
        for i in range(40):
            for h, t in zip(handles, eight_traces):
                for em in h.ingest(int(t.pcs[i]), int(t.addrs[i])):
                    if h.index == 0:
                        collected[em.seq] = list(em.blocks)
        engine._shards[1].process.kill()
        engine._shards[1].process.join(timeout=5.0)
        with pytest.raises(ShardFailure):
            engine.swap_model(
                dart.artifact.successor(dart.artifact.model, reason="rotate")
            )
        # Live workers swapped; counters advanced once.
        assert engine.swaps == 1 and engine.model_version == 2
        # Stream 0 lives on the surviving shard: pumping it further must keep
        # yielding in-order, oracle-identical emissions (a desynchronized
        # pipe would route a stale swap ack as the access reply).
        for i in range(40, 150):
            t = eight_traces[0]
            for em in handles[0].ingest(int(t.pcs[i]), int(t.addrs[i])):
                collected[em.seq] = list(em.blocks)
        assert collected, "survivor stopped emitting after the failed swap"
        assert all(blocks == oracle[seq] for seq, blocks in collected.items())
        # Both generations' segments are unlinked in the end.
        names = [pub.name for pub in engine._publications]
    finally:
        engine.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_failed_publish_keeps_live_segment_tracked(dart):
    """If publishing the replacement model fails, the serving segment must
    stay owned by the engine so close() still unlinks it."""
    engine = dart.sharded(workers=1, batch_size=64)
    engine.start()
    name = engine._publications[0].name
    with pytest.raises(TypeError, match="wire codec"):
        engine.swap_model(lambda xa, xp, batch_size=1: None)
    assert [pub.name for pub in engine._publications] == [name]
    assert engine.swaps == 0
    engine.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------- plumbing
def test_registration_and_validation_errors(dart, eight_traces):
    with pytest.raises(ValueError):
        dart.sharded(workers=0)
    # Refused in the frontend, before any worker boots on a bad knob.
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        dart.sharded(workers=2, batch_size=0)
    with pytest.raises(ValueError, match="max_wait must be >= 1"):
        dart.sharded(workers=2, max_wait=0)
    with dart.sharded(workers=2) as engine:
        with pytest.raises(ValueError):
            engine.streams(2, names=["only-one"])
        engine.streams(2)
        with pytest.raises(ValueError):
            engine.serve(eight_traces[:3])  # 3 sources for 2 streams
    with pytest.raises(TypeError, match="wire codec"):
        from repro.runtime import ShardedEngine

        ShardedEngine(lambda xa, xp, batch_size=1: None, dart.config, workers=1)


def test_stats_aggregate_across_shards(dart, eight_traces):
    with dart.sharded(workers=2, batch_size=32, max_wait=8) as engine:
        agg, per_stream, _ = engine.serve(eight_traces[:4], collect=False)
        stats = engine.stats()
    assert stats["streams"] == 4 and stats["workers"] == 2
    assert stats["queries_answered"] == 4 * (LEN - (dart.config.history_len - 1))
    assert stats["predict_calls"] > 0
    assert stats["mean_batch_fill"] > 1.0
    # Latency accounting: every access was timed in some worker, and the
    # aggregate sketch is exactly the union of the per-stream sketches.
    assert agg.extra["latency_count"] == sum(
        s.extra["latency_count"] for s in per_stream
    )
    assert agg.extra["latency_count"] == 4 * LEN
    assert agg.throughput > 0
    # The two keys perfbench's traced sharded pass reads.
    assert stats["pipeline"]["credit_stalls"] == 0
    assert 0.0 <= stats["pipeline"]["overlap_ratio"] <= 1.0


def test_handle_reset_is_isolated(dart, eight_traces):
    a, b = eight_traces[0], eight_traces[1]
    with dart.sharded(workers=2, batch_size=64, io_chunk=16) as engine:
        ha, hb = engine.streams(2)
        for i in range(100):
            ha.ingest(int(a.pcs[i]), int(a.addrs[i]))
            hb.ingest(int(b.pcs[i]), int(b.addrs[i]))
        ha.reset()
        hb.reset()
        assert ha.seq == 0
        out = [[] for _ in range(LEN)]
        for i in range(LEN):
            for em in hb.ingest(int(b.pcs[i]), int(b.addrs[i])):
                out[em.seq] = list(em.blocks)
        for em in hb.flush():
            out[em.seq] = list(em.blocks)
        assert out == dart.prefetch_lists(b)


# ------------------------------------------------------------ REPLY_ERR audit
def test_shard_failure_names_the_opcode_in_flight():
    """The failure message carries the request opcode the worker was serving
    (named when known, numeric otherwise, absent when there was none)."""
    from repro.runtime.sharded import OP_ACCESS

    exc = ShardFailure(1, [3], ["s[3]"], "Traceback ...", opcode=OP_ACCESS)
    assert exc.opcode == OP_ACCESS
    assert "during OP_ACCESS" in str(exc)
    assert "op 99" in str(ShardFailure(0, [], [], "x", opcode=99))
    assert "during" not in str(ShardFailure(0, [], [], "x"))


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_error_audit_names_opcode(dart, eight_traces, workers):
    """A worker-side exception (not a death) must surface as a ShardFailure
    naming the shard, the opcode in flight, and the affected streams — with
    the worker's traceback attached — whether shard 0 serves the whole fleet
    or shares it. Regression: the error reply used to ship meta=0, so the
    audit trail lost the operation that failed."""
    from repro.runtime.sharded import OP_ACCESS

    engine = dart.sharded(workers=workers, batch_size=32, io_chunk=16)
    try:
        handles = engine.streams(4)
        for i in range(40):
            for h, t in zip(handles, eight_traces):
                h.ingest(int(t.pcs[i]), int(t.addrs[i]))
        # Malformed data-plane frame: 3 bytes cannot parse as int64 rows, so
        # the worker's OP_ACCESS handler raises mid-request.
        engine._send_data(engine._shards[0], OP_ACCESS, True, b"xyz")
        with pytest.raises(ShardFailure) as exc:
            engine.flush_all()
        assert exc.value.shard == 0
        assert exc.value.opcode == OP_ACCESS
        assert "during OP_ACCESS" in str(exc.value)
        # Round-robin placement: shard 0 holds every workers-th stream.
        expected = list(range(0, 4, workers))
        assert exc.value.stream_ids == expected
        assert len(exc.value.stream_names) == len(expected)
        assert "Traceback" in exc.value.reason
        # The failure is sticky for that shard.
        with pytest.raises(ShardFailure):
            engine.flush_all()
    finally:
        engine.close()
