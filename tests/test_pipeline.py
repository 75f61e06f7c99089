"""Sharded data plane under chaos: exactly-once, ascending, bit-identical.

The frontend keeps at most one data-plane request outstanding per worker and
commits each reply against its echoed sequence number. These tests delay
every worker reply by a seeded random sleep (``chaos_reply_delay``) and check
that emissions stay exactly-once, per-stream ascending and equal to the batch
oracle: in handle mode under several chaos seeds, in the ``serve`` poller,
and across swap / migrate / rescale barriers.
"""

from __future__ import annotations

import pytest


def _drive_handles(eng, handles, traces, seen, churn=None):
    """Ingest all traces through open handles, logging emissions in arrival
    order as ``(seq, blocks)`` per stream; ``churn[i]`` runs before access i."""
    n = len(traces[0])
    for i in range(n):
        if churn and i in churn:
            churn[i]()
        for h, t in zip(handles, traces):
            for em in h.ingest(int(t.pcs[i]), int(t.addrs[i])):
                seen[h.index].append((em.seq, list(em.blocks)))
    for h in handles:
        for em in eng.close_stream(h):
            seen[h.index].append((em.seq, list(em.blocks)))


def _assert_exactly_once_ascending(seen, traces, oracle):
    for s, t in enumerate(traces):
        seqs = [q for q, _ in seen[s]]
        assert seqs == sorted(seqs), f"stream {s}: emissions not ascending"
        assert len(seqs) == len(set(seqs)), f"stream {s}: duplicate emission"
        got = [[] for _ in range(len(t))]
        for q, blocks in seen[s]:
            got[q] = blocks
        assert got == oracle[s], f"stream {s} diverged from batch oracle"


@pytest.fixture(scope="module")
def chaos_traces(libquantum_traces):
    return libquantum_traces(4, 220, 70)


@pytest.fixture(scope="module")
def chaos_oracle(dart, chaos_traces):
    return [dart.prefetch_lists(t) for t in chaos_traces]


@pytest.mark.parametrize("seed", [1, 2, 8])
def test_chaos_fuzz_exactly_once_ascending(dart, chaos_traces, chaos_oracle, seed):
    """Seeded reply-delay fuzz: slow, jittery workers never reorder, drop,
    or duplicate an emission in handle mode, under three delay schedules."""
    seen = [[] for _ in chaos_traces]
    with dart.sharded(
        workers=2, io_chunk=8, chaos_reply_delay=(0.001, 1234 + seed),
    ) as eng:
        handles = [eng.open_stream(f"t{i}") for i in range(len(chaos_traces))]
        _drive_handles(eng, handles, chaos_traces, seen)
    _assert_exactly_once_ascending(seen, chaos_traces, chaos_oracle)


def test_chaos_serve_poller_bit_identical(dart, chaos_traces, chaos_oracle):
    """The select-style serve poller under chaos: small chunks and random
    worker delays — still bit-identical to the batch oracle."""
    with dart.sharded(
        workers=2, serve_chunk=64, chaos_reply_delay=(0.002, 99),
    ) as eng:
        _, per_stream, lists = eng.serve(chaos_traces, collect=True)
        assert all(s.outstanding is None for s in eng._shards)
    for s in range(len(chaos_traces)):
        assert lists[s] == chaos_oracle[s], f"stream {s} diverged"
        assert per_stream[s].accesses == len(chaos_traces[s])


def test_barriers_commit_outstanding_reply(dart, chaos_traces, chaos_oracle):
    """Swap / migrate / rescale land while chaos keeps replies lagging; each
    barrier commits the outstanding reply first, so the drained emissions
    all commit and the run stays bit-identical."""
    from repro.runtime.sharded import OP_FLUSH

    seen = [[] for _ in chaos_traces]
    with dart.sharded(
        workers=2, io_chunk=4, chaos_reply_delay=(0.001, 7),
    ) as eng:
        handles = [eng.open_stream(f"t{i}") for i in range(len(chaos_traces))]
        n = len(chaos_traces[0])

        def migrate_with_reply_outstanding():
            # The freeze must commit the source's outstanding flush reply
            # before it reads its own.
            eng._send_data(eng._shards[handles[0].shard_id], OP_FLUSH, True)
            eng.migrate_stream(handles[0], (handles[0].shard_id + 1) % eng.workers)

        churn = {
            n // 4: lambda: eng.rescale(3),
            n // 3: lambda: eng.swap_model(dart.predictor),  # no-op generation
            n // 2: migrate_with_reply_outstanding,
            3 * n // 4: lambda: eng.rescale(2),
        }
        _drive_handles(eng, handles, chaos_traces, seen, churn=churn)
        elastic = eng.stats()["elastic"]
    assert elastic["migrations"] == 1 and elastic["rescales"] == 2
    _assert_exactly_once_ascending(seen, chaos_traces, chaos_oracle)
