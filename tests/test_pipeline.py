"""Pipelined sharded data plane: credit window, chaos fuzz, barrier quiesce.

The pipelined frontend keeps up to ``pipeline_depth`` chunks in flight per
worker and commits replies in per-worker sequence order. These tests pin the
load-bearing claims from DESIGN.md "Pipelined data plane":

* emissions stay **exactly-once and per-stream ascending** at every depth,
  even when workers reply late and jittery (seeded ``chaos_reply_delay``);
* depth 1 **degenerates to lockstep** — same emissions, same worker predict
  schedule, and the meter records a pure one-outstanding occupancy profile;
* every barrier (swap, migrate, rescale, close) **quiesces the window**
  mid-flight without dropping or duplicating an emission;
* the ``stats()["pipeline"]`` meter balances: every send is histogrammed and
  every in-flight request was committed by the time serving returns.
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
def pipeline_traces(libquantum_traces):
    return libquantum_traces(4, 220, 70)


@pytest.fixture(scope="module")
def pipeline_oracle(dart, pipeline_traces):
    return [dart.prefetch_lists(t) for t in pipeline_traces]


@pytest.mark.parametrize("depth", [1, 2, 8])
def test_chaos_fuzz_exactly_once_ascending(
    dart, pipeline_traces, pipeline_oracle, depth
):
    """Seeded reply-delay fuzz: slow, jittery workers never reorder,
    drop, or duplicate an emission at any window depth."""
    seen = [[] for _ in pipeline_traces]
    with dart.sharded(
        workers=2, io_chunk=8, pipeline_depth=depth,
        chaos_reply_delay=(0.001, 1234 + depth),
    ) as eng:
        handles = [eng.open_stream(f"t{i}") for i in range(len(pipeline_traces))]
        _drive_handles(eng, handles, pipeline_traces, seen)
    _assert_exactly_once_ascending(seen, pipeline_traces, pipeline_oracle)


def test_chaos_serve_poller_bit_identical(dart, pipeline_traces, pipeline_oracle):
    """The select-style serve poller under chaos: deep window, small chunks,
    random worker delays — still bit-identical to the batch oracle."""
    with dart.sharded(
        workers=2, serve_chunk=64, pipeline_depth=8,
        chaos_reply_delay=(0.002, 99),
    ) as eng:
        _, per_stream, lists = eng.serve(pipeline_traces, collect=True)
        meter = eng.stats()["pipeline"]
    for s in range(len(pipeline_traces)):
        assert lists[s] == pipeline_oracle[s], f"stream {s} diverged"
        assert per_stream[s].accesses == len(pipeline_traces[s])
    assert meter["sends"] == sum(meter["inflight_hist"])


def test_depth1_degenerates_to_lockstep(dart, libquantum_traces):
    """Depth 1 is the historical lockstep bit-for-bit: identical emissions,
    identical worker predict schedule, and a pure one-outstanding meter
    (no stalls, every send left exactly one request in flight)."""
    traces = libquantum_traces(2, 260, 90)
    outs, stats = {}, {}
    for depth in (1, 8):
        with dart.sharded(workers=2, pipeline_depth=depth) as eng:
            _, _, lists = eng.serve(traces, collect=True)
            stats[depth] = eng.stats()
            outs[depth] = lists
    assert outs[1] == outs[8]
    # Framing differs (deeper windows ship smaller chunks) but the per-worker
    # ingest order doesn't, so the micro-batch schedule is unchanged.
    assert stats[1]["predict_calls"] == stats[8]["predict_calls"]
    meter = stats[1]["pipeline"]
    assert meter["depth"] == 1
    assert meter["credit_stalls"] == 0
    assert meter["inflight_hist"] == [0, meter["sends"]]
    # The deep window must actually go multi-outstanding (occupancy is a
    # protocol fact, not a timing one — sends outpace commits by design).
    assert sum(stats[8]["pipeline"]["inflight_hist"][2:]) > 0


def test_barriers_quiesce_mid_flight_window(dart, pipeline_traces, pipeline_oracle):
    """Swap / migrate / rescale land while up to 8 chunks are in flight (and
    chaos keeps replies lagging); each barrier quiesces the window first, so
    the drained emissions all commit and the run stays bit-identical."""
    seen = [[] for _ in pipeline_traces]
    with dart.sharded(
        workers=2, io_chunk=4, pipeline_depth=8,
        chaos_reply_delay=(0.001, 7),
    ) as eng:
        handles = [eng.open_stream(f"t{i}") for i in range(len(pipeline_traces))]
        n = len(pipeline_traces[0])
        churn = {
            n // 4: lambda: eng.rescale(3),
            n // 3: lambda: eng.swap_model(dart.predictor),  # no-op generation
            n // 2: lambda: eng.migrate_stream(
                handles[0], (handles[0].shard_id + 1) % eng.workers
            ),
            3 * n // 4: lambda: eng.rescale(2),
        }
        _drive_handles(eng, handles, pipeline_traces, seen, churn=churn)
        elastic = eng.stats()["elastic"]
    assert elastic["migrations"] == 1 and elastic["rescales"] == 2
    _assert_exactly_once_ascending(seen, pipeline_traces, pipeline_oracle)


def test_pipeline_meter_accounting(dart, pipeline_traces):
    """The meter balances and the window is empty once serving returns."""
    with dart.sharded(workers=2, serve_chunk=32, pipeline_depth=4) as eng:
        eng.serve(pipeline_traces)
        meter = eng.stats()["pipeline"]
        assert all(
            not s.inflight and s.inflight_bytes == 0 for s in eng._shards
        )
    assert meter["depth"] == 4
    assert meter["sends"] > 0
    assert meter["sends"] == sum(meter["inflight_hist"])
    assert meter["inflight_hist"][0] == 0  # a send leaves >= 1 in flight
    replies = sum(w["replies"] for w in meter["per_worker"].values())
    assert replies == meter["sends"]
    assert 0.0 <= meter["overlap_ratio"] <= 1.0
    for w in meter["per_worker"].values():
        assert 0 <= w["overlapped"] <= w["replies"]


def test_constructor_validates_pipeline_knobs(dart):
    with pytest.raises(ValueError):
        dart.sharded(workers=1, pipeline_depth=0)
    with pytest.raises(ValueError):
        dart.sharded(workers=1, pipe_window_bytes=100)
