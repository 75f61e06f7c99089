"""Record/replay serving contracts.

Captures live sessions — single-stream, multistream and sharded engines —
into ``DARTTRC1`` traces, replays them on
freshly constructed engines, and pins the declarative contracts: a clean
session replays bit-identically; a tampered trace (mutated emission, dropped
record) fails with a *named* :class:`ContractViolation`; the trace codec
refuses truncated/tampered/foreign containers and version skew with named
errors; and replay pacing derives from the recorded schedule, not the
recording host's wall clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    ContractViolation,
    SessionRecorder,
    SessionTrace,
    replay,
    serve,
)
from repro.runtime.record import (
    EV_ACCESS,
    EV_EMIT,
    EV_MIGRATE,
    EV_RESCALE,
    EV_SWAP,
    TRACE_MAGIC,
)
from repro.runtime.replay import REPLAY_TIMEOUT_FLOOR, effective_reply_timeout
from repro.utils.serialization import pack_arrays

N_STREAMS = 3
LEN = 240


@pytest.fixture(scope="module")
def churn_traces(libquantum_traces):
    return libquantum_traces(N_STREAMS, LEN, 70)


def _pairs(trace):
    return list(zip(trace.pcs.tolist(), trace.addrs.tolist()))


def record_sharded_churn(pf, traces, **engine_kwargs):
    """Record an elastic sharded session: mid-session migration, swap,
    rescale up and back down, a late admission, and full close-out."""
    recorder = SessionRecorder()
    engine = pf.sharded(workers=2, batch_size=32, io_chunk=16, **engine_kwargs)
    recorder.attach(engine, model=pf.artifact)
    with engine:
        handles = [engine.stream(f"s{i}") for i in range(len(traces))]
        pairs = [_pairs(t) for t in traces]
        length = min(len(p) for p in pairs)
        late = None
        for p in range(length):
            if p == length // 4:
                engine.rescale(3)
            if p == length // 3:
                late = engine.stream("late")
            if p == length // 2:
                src = engine._shards[handles[0].shard_id]
                target = next(
                    s.id for s in engine._shards[: engine.workers]
                    if s.id != src.id
                )
                engine.migrate_stream(handles[0], target)
            if p == 5 * length // 8:
                nxt = pf.artifact.successor(
                    pf.artifact.model, reason="record-replay churn"
                )
                engine.swap_model(nxt)
            if p == 3 * length // 4:
                engine.rescale(2)
            for h, pr in zip(handles, pairs):
                h.ingest(*pr[p])
            if late is not None and p >= length // 3:
                h_pc, h_addr = pairs[0][p - length // 3]
                late.ingest(h_pc, h_addr)
        for h in handles:
            engine.close_stream(h)
        if late is not None:
            engine.close_stream(late)
    return recorder.trace()


def test_sharded_churn_replays_bit_identically(dart, churn_traces):
    trace = record_sharded_churn(dart, churn_traces)
    # The session really exercised the control plane.
    kinds = set(trace.events[:, 0].tolist())
    assert {EV_MIGRATE, EV_RESCALE, EV_SWAP} <= kinds
    assert "ipc" not in trace.meta["engine"]
    assert trace.meta["boot_model"] in trace.models

    report = replay(trace)
    assert report.column == "sharded"
    assert report.streams == N_STREAMS + 1
    assert report.accesses == trace.summary()["accesses"]
    assert report.emissions == trace.summary()["emissions"]
    assert report.swaps == 1
    assert report.migrations >= 1
    assert report.rescales == 2
    assert "bit-identity" in report.contracts


#: engine-block fields of retired engine options -> the column each had
RETIRED_COLUMNS = {"ipc": "sharded-ring", "pipeline_depth": "sharded-pipelined"}


@pytest.mark.parametrize("field, value", [("ipc", "ring"), ("pipeline_depth", 4)])
def test_ring_era_trace_replays_on_the_pipe(dart, churn_traces, field, value):
    """Traces recorded by retired engine options carry them in their engine
    block: ``"ipc": "ring"`` (the shared-memory ring transport) or
    ``"pipeline_depth"`` (the data-plane credit window). They still load and
    replay on their recorded ``sharded`` column under the full contract set,
    which ignores the field. The retired columns themselves are gone."""
    trace = record_sharded_churn(dart, churn_traces)
    assert field not in trace.meta["engine"]
    trace.meta["engine"][field] = value
    old = SessionTrace.from_bytes(trace.to_bytes())
    assert old.meta["engine"][field] == value

    report = replay(old)
    assert report.column == "sharded"
    assert report.emissions == trace.summary()["emissions"]
    assert {"exactly-once-ascending", "bit-identity"} <= set(report.contracts)
    with pytest.raises(ValueError, match="unknown replay column"):
        replay(old, column=RETIRED_COLUMNS[field])


def test_sharded_trace_replays_cross_column(dart, churn_traces):
    """A sharded session replays bit-identically on the in-process column
    (the swap target shares the boot tables, so the swap is bit-transparent
    and migrations/rescales are no-ops)."""
    trace = record_sharded_churn(dart, churn_traces)
    report = replay(trace, column="multistream")
    assert report.column == "multistream"
    assert report.emissions == trace.summary()["emissions"]


def test_sharded_trace_round_trips_through_disk(dart, churn_traces, tmp_path):
    trace = record_sharded_churn(dart, churn_traces)
    path = str(tmp_path / "session.darttrc")
    n = trace.save(path)
    assert n > 0
    report = replay(path, column="multistream")
    assert report.accesses == trace.summary()["accesses"]


def test_trace_carrying_poll_interval_still_replays(dart, churn_traces):
    """Recorders once also wrote ``timing.poll_interval``; such a trace
    still decodes and replays on its recorded column."""
    trace = record_sharded_churn(dart, churn_traces)
    assert set(trace.meta["timing"]) == {"reply_timeout"}
    trace.meta["timing"]["poll_interval"] = 0.05
    old = SessionTrace.from_bytes(trace.to_bytes())
    report = replay(old)
    assert report.column == "sharded"
    assert report.emissions == trace.summary()["emissions"]


def test_mutated_emission_fails_bit_identity(dart, churn_traces):
    trace = record_sharded_churn(dart, churn_traces)
    emit_rows = np.flatnonzero(
        (trace.events[:, 0] == EV_EMIT) & (trace.events[:, 4] > 0)
    )
    off = int(trace.events[emit_rows[len(emit_rows) // 2], 3])
    trace.blocks[off] += 1  # flip one prefetched block address
    with pytest.raises(ContractViolation) as exc:
        replay(trace, column="multistream")
    assert exc.value.contract == "bit-identity"
    assert exc.value.stream is not None and exc.value.index is not None


def test_dropped_record_fails_exactly_once(dart, churn_traces):
    trace = record_sharded_churn(dart, churn_traces)
    emit_rows = np.flatnonzero(trace.events[:, 0] == EV_EMIT)
    victim = int(emit_rows[len(emit_rows) // 3])
    tampered = SessionTrace(
        np.delete(trace.events, victim, axis=0), trace.blocks, trace.meta,
        trace.models,
    )
    # Recorded-side contract: fails before any replay engine is constructed.
    with pytest.raises(ContractViolation) as exc:
        replay(tampered, column="multistream")
    assert exc.value.contract == "exactly-once-ascending"
    assert "missing" in str(exc.value) or "dropped" in str(exc.value)


def test_duplicated_record_fails_exactly_once(dart, churn_traces):
    trace = record_sharded_churn(dart, churn_traces)
    emit_rows = np.flatnonzero(trace.events[:, 0] == EV_EMIT)
    victim = int(emit_rows[len(emit_rows) // 2])
    dup = np.insert(trace.events, victim, trace.events[victim], axis=0)
    tampered = SessionTrace(dup, trace.blocks, trace.meta, trace.models)
    with pytest.raises(ContractViolation) as exc:
        replay(tampered, column="multistream")
    assert exc.value.contract == "exactly-once-ascending"
    assert "duplicate or out-of-order" in str(exc.value)


def test_multistream_session_records_and_replays(dart, churn_traces):
    recorder = SessionRecorder()
    engine = dart.multistream(batch_size=32)
    recorder.attach(engine, model=dart.artifact)
    handles = [engine.stream(f"m{i}") for i in range(len(churn_traces))]
    pairs = [_pairs(t) for t in churn_traces]
    length = min(len(p) for p in pairs)
    for p in range(length):
        if p == length // 2:
            engine.swap_model(
                dart.artifact.successor(dart.artifact.model, reason="ms swap")
            )
        for h, pr in zip(handles, pairs):
            h.ingest(*pr[p])
    engine.close_stream(handles[0].index)
    for h in handles[1:]:
        h.flush()
    trace = recorder.trace()
    assert trace.meta["engine"]["column"] == "multistream"
    report = replay(trace)
    assert report.column == "multistream"
    assert report.swaps == 1
    assert report.emissions == trace.summary()["emissions"]


def test_serve_records_plain_stream(dart, libquantum_traces):
    """A single stream is a one-stream engine: ``attach`` records it with its
    serving knobs, and the trace replays with no overrides."""
    trace = libquantum_traces(1, 800, 70)[0]
    stream = dart.stream(batch_size=32)
    recorder = SessionRecorder()
    recorder.attach(stream, model=dart.artifact)
    stats, _ = serve(stream, trace)
    session = recorder.trace()
    engine = session.meta["engine"]
    assert engine["column"] == "multistream"
    assert engine["batch_size"] == 32
    assert (engine["threshold"], engine["max_degree"]) == (
        dart.threshold, dart.max_degree,
    )
    report = replay(session)
    assert report.accesses == stats.accesses == 800
    assert report.emissions == session.summary()["emissions"] == 800


# ------------------------------------------------------------- codec fuzzing
def _random_trace(rng: np.random.Generator) -> SessionTrace:
    """A synthetic session assembled through the recorder hooks."""
    from repro.runtime.streaming import Emission

    rec = SessionRecorder()
    rec._engine_meta = {"column": "multistream", "workers": 1, "batch_size": 8}
    n_streams = int(rng.integers(1, 4))
    for s in range(n_streams):
        rec.on_open(s, f"fuzz[{s}]")
    for s in range(n_streams):
        n = int(rng.integers(0, 30))
        for seq in range(n):
            rec.on_access(s, int(rng.integers(0, 1 << 30)),
                          int(rng.integers(0, 1 << 40)))
            blocks = rng.integers(0, 1 << 30, size=int(rng.integers(0, 4)))
            rec.on_emissions(s, [Emission(seq, blocks.tolist())])
    rec.on_flush()
    return rec.trace()


def test_trace_codec_round_trips_random_sessions():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        trace = _random_trace(rng)
        back = SessionTrace.from_bytes(trace.to_bytes())
        assert np.array_equal(back.events, trace.events)
        assert np.array_equal(back.blocks, trace.blocks)
        assert back.meta["engine"] == trace.meta["engine"]
        assert back.accesses() == trace.accesses()
        assert back.emissions() == trace.emissions()


def test_trace_codec_refuses_bad_magic():
    data = _random_trace(np.random.default_rng(0)).to_bytes()
    with pytest.raises(ValueError, match="not a session trace"):
        SessionTrace.from_bytes(b"XXXXXXXX" + data[8:])


def test_trace_codec_refuses_truncation():
    data = _random_trace(np.random.default_rng(1)).to_bytes()
    with pytest.raises(ValueError, match="truncated session trace"):
        SessionTrace.from_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="extends past the buffer"):
        SessionTrace.from_bytes(data[:-3])


def test_trace_codec_refuses_foreign_containers():
    reg = pack_arrays({"x": np.arange(4)}, b"DARTREG1", what="registry blob")
    with pytest.raises(ValueError, match="not a session trace"):
        SessionTrace.from_bytes(reg)


def test_trace_codec_refuses_version_skew():
    skewed = pack_arrays(
        {"events": np.empty((0, 5), dtype=np.int64),
         "blocks": np.empty(0, dtype=np.int64)},
        TRACE_MAGIC,
        meta={"trace_format": 2},
        what="session trace",
    )
    with pytest.raises(ValueError, match="format 2.*replays format 1"):
        SessionTrace.from_bytes(skewed)


def test_trace_codec_refuses_missing_event_log():
    hollow = pack_arrays(
        {"blocks": np.empty(0, dtype=np.int64)}, TRACE_MAGIC,
        meta={"trace_format": 1}, what="session trace",
    )
    with pytest.raises(ValueError, match="missing its event log"):
        SessionTrace.from_bytes(hollow)


# -------------------------------------------------- cross-host determinism
def test_replay_timeout_floors_recorded_value():
    assert effective_reply_timeout({"timing": {"reply_timeout": 0.2}}) == (
        REPLAY_TIMEOUT_FLOOR
    )
    assert effective_reply_timeout({"timing": {}}) == REPLAY_TIMEOUT_FLOOR
    assert effective_reply_timeout(
        {"timing": {"reply_timeout": 2 * REPLAY_TIMEOUT_FLOOR}}
    ) == 2 * REPLAY_TIMEOUT_FLOOR


def test_replay_survives_slower_host(dart, libquantum_traces):
    """A session recorded with an aggressive reply_timeout replays on a
    'slower host' (chaos-delayed worker replies far beyond that timeout)
    without spurious timeouts: replay pacing derives from the recorded
    schedule, with the recorded timeout raised to a generous floor."""
    traces = libquantum_traces(2, 120, 90)
    recorder = SessionRecorder()
    engine = dart.sharded(
        workers=2, batch_size=32, io_chunk=16, reply_timeout=0.2
    )
    recorder.attach(engine, model=dart.artifact)
    with engine:
        handles = [engine.stream(f"t{i}") for i in range(2)]
        for pr0, pr1 in zip(_pairs(traces[0]), _pairs(traces[1])):
            handles[0].ingest(*pr0)
            handles[1].ingest(*pr1)
        for h in handles:
            engine.close_stream(h)
    trace = recorder.trace()
    assert trace.meta["timing"]["reply_timeout"] == pytest.approx(0.2)
    # Each data-plane reply now takes up to 0.4 s — double the *recorded*
    # timeout. The floored replay timeout must ride it out.
    report = replay(trace, engine_overrides={"chaos_reply_delay": (0.4, 7)})
    assert report.reply_timeout == REPLAY_TIMEOUT_FLOOR
    assert report.emissions == trace.summary()["emissions"]


# ------------------------------------------------------------------ CLI face
def test_cli_record_replay_round_trip(dart, tmp_path, capsys):
    import json as _json

    from repro.cli import main as cli_main

    tables = str(tmp_path / "tables.npz")
    dart.artifact.save(tables)
    out = str(tmp_path / "session.darttrc")
    rc = cli_main([
        "record", "--tables", tables, "--scale", "0.02", "--workers", "2",
        "--batch-size", "32", "-o", out,
    ])
    assert rc == 0
    assert "recorded sharded session" in capsys.readouterr().out
    report_path = tmp_path / "replay.json"
    rc = cli_main(["replay", out, "--json", str(report_path)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "contracts held" in printed
    report = _json.loads(report_path.read_text())
    assert report["column"] == "sharded"
    assert report["swaps"] == 1
    assert report["migrations"] >= 1
    # Cross-column replay of the same golden trace from the CLI.
    assert cli_main(["replay", out, "--column", "multistream"]) == 0
