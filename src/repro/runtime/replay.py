"""Replay a recorded serving session under declarative behavioral contracts.

:func:`replay` re-executes the schedule a :class:`~repro.runtime.record
.SessionRecorder` captured — accesses, flushes, opens/closes, migrations,
rescales, model swaps — against a **freshly constructed** engine of any
column, and checks the contracts a practical NN-prefetching deployment
leans on:

* ``exactly-once-ascending`` — per stream, emissions carry each seq exactly
  once, in ascending delivery order (checked on the *recorded* emission
  stream first — a dropped or duplicated trace record fails before any
  engine spins up — then on the replayed one);
* ``bit-identity`` — the replayed emission stream equals the recorded one,
  record for record;
* ``accuracy-floor`` / ``coverage-floor`` — the replayed session's prefetch
  quality (scored by :func:`~repro.runtime.adaptation.score_prefetch_lists`,
  the monitor's offline twin) does not drop below the recorded session's;
* ``swap-pause`` / ``migration-pause`` — every swap drained at most one
  batch per worker, every migration carried at most one flush batch of
  pending queries — on the recorded values and the replayed ones.

Each violation raises a named :class:`ContractViolation` carrying the
contract, the stream, and the first offending record.

Replay pacing derives from the *schedule*, not the recording host's clock:
the replay engine's ``reply_timeout`` is the recorded value raised to a
generous floor (:data:`REPLAY_TIMEOUT_FLOOR`), so a session recorded on a
fast machine replays on a slow CI host without spurious timeouts. The
ordering argument is unchanged from the live engines: replay issues the same
barrier ops at the same schedule points, so the drain/ack proofs (DESIGN.md
"Elastic serving") carry over verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.record import (
    EV_ACCESS,
    EV_CLOSE,
    EV_EMIT,
    EV_FLUSH,
    EV_MIGRATE,
    EV_OPEN,
    EV_RESCALE,
    EV_RESET,
    EV_SWAP,
    SessionTrace,
)

#: replay never waits less than this for a worker reply, whatever the
#: recording host used — a slower replay host must not time out spuriously.
REPLAY_TIMEOUT_FLOOR = 60.0

#: engine columns a trace can replay on
REPLAY_COLUMNS = (
    "multistream",
    "sharded",
)

#: scoring window for the accuracy/coverage floors (score_prefetch_lists)
SCORE_LOOKAHEAD = 16


class ContractViolation(RuntimeError):
    """A replay contract failed; names the contract and the first offender."""

    def __init__(self, contract: str, detail: str, stream: int | None = None,
                 index: int | None = None):
        self.contract = str(contract)
        self.stream = stream
        self.index = index
        self.detail = str(detail)
        where = ""
        if stream is not None:
            where += f" stream {stream}"
        if index is not None:
            where += f" record {index}"
        super().__init__(
            f"replay contract {self.contract!r} violated{where and ' at' + where}: "
            f"{self.detail}"
        )


@dataclass
class ReplayReport:
    """What a successful replay executed and verified."""

    column: str
    streams: int
    accesses: int
    emissions: int
    prefetches: int
    accuracy: float
    coverage: float
    swaps: int
    migrations: int
    rescales: int
    reply_timeout: float
    contracts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "column": self.column,
            "streams": self.streams,
            "accesses": self.accesses,
            "emissions": self.emissions,
            "prefetches": self.prefetches,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "swaps": self.swaps,
            "migrations": self.migrations,
            "rescales": self.rescales,
            "reply_timeout": self.reply_timeout,
            "contracts": list(self.contracts),
        }


def effective_reply_timeout(trace_or_meta) -> float:
    """The reply timeout replay uses: recorded value, floored generously."""
    meta = (
        trace_or_meta.meta
        if isinstance(trace_or_meta, SessionTrace)
        else trace_or_meta
    )
    recorded = float((meta.get("timing") or {}).get("reply_timeout") or 0.0)
    return max(recorded, REPLAY_TIMEOUT_FLOOR)


# ---------------------------------------------------------------- contracts
def _check_exactly_once(label: str, per_stream: dict, counts: dict) -> None:
    """Each stream's emission list carries seq 0..n-1 exactly once, ascending."""
    for s in sorted(counts):
        n = counts[s]
        emissions = per_stream.get(s, [])
        last = -1
        for i, em in enumerate(emissions):
            if em.seq <= last:
                raise ContractViolation(
                    "exactly-once-ascending", stream=s, index=i,
                    detail=f"{label} emission #{i} carries seq {em.seq} after "
                           f"seq {last} (duplicate or out-of-order)",
                )
            if em.seq >= n:
                raise ContractViolation(
                    "exactly-once-ascending", stream=s, index=i,
                    detail=f"{label} emission #{i} carries seq {em.seq} but the "
                           f"stream only ingested {n} accesses",
                )
            last = em.seq
        if len(emissions) != n:
            seen = {em.seq for em in emissions}
            missing = next(k for k in range(n) if k not in seen)
            raise ContractViolation(
                "exactly-once-ascending", stream=s, index=len(emissions),
                detail=f"{label} stream delivered {len(emissions)} of {n} "
                       f"emissions; seq {missing} is missing (dropped record)",
            )


def _check_bit_identity(recorded: dict, replayed: dict) -> None:
    for s in sorted(set(recorded) | set(replayed)):
        rec = recorded.get(s, [])
        rep = replayed.get(s, [])
        for i in range(min(len(rec), len(rep))):
            a, b = rec[i], rep[i]
            if a.seq != b.seq or list(a.blocks) != list(b.blocks):
                raise ContractViolation(
                    "bit-identity", stream=s, index=i,
                    detail=f"recorded (seq {a.seq}, blocks {list(a.blocks)}) "
                           f"!= replayed (seq {b.seq}, blocks {list(b.blocks)})",
                )
        if len(rec) != len(rep):
            raise ContractViolation(
                "bit-identity", stream=s, index=min(len(rec), len(rep)),
                detail=f"recorded {len(rec)} emissions, replayed {len(rep)}",
            )


def _score(accesses: dict, emissions: dict) -> dict:
    """Aggregate accuracy/coverage of a session (monitor's offline twin)."""
    from repro.runtime.adaptation import score_prefetch_lists
    from repro.utils.bits import block_address

    issued = accurate = covered = total = 0
    for s, pairs in accesses.items():
        if not pairs:
            continue
        lists: list[list[int]] = [[] for _ in pairs]
        for em in emissions.get(s, []):
            lists[em.seq] = list(em.blocks)
        blocks = [block_address(addr) for _, addr in pairs]
        r = score_prefetch_lists(lists, blocks, lookahead=SCORE_LOOKAHEAD)
        issued += r["issued"]
        accurate += r["accurate"]
        covered += round(r["coverage"] * r["accesses"])
        total += r["accesses"]
    return {
        "accuracy": accurate / issued if issued else 0.0,
        "coverage": covered / total if total else 0.0,
    }


def _check_pause_bounds(label: str, meta: dict, migrations: list,
                        swap_drains: list) -> None:
    """``migrations`` is a list of carried-pending counts; ``swap_drains`` a
    list of ``(drained, cohort)`` pairs, where ``cohort`` is the number of
    workers the swap broadcast to *at swap time* (rescales move the bound)."""
    batch = int(meta.get("engine", {}).get("batch_size") or 1)
    for i, pending in enumerate(migrations):
        if pending > batch:
            raise ContractViolation(
                "migration-pause", index=i,
                detail=f"{label} migration #{i} carried {pending} pending "
                       f"queries (> one flush batch of {batch})",
            )
    for i, (drained, cohort) in enumerate(swap_drains):
        bound = batch * max(1, cohort)
        if drained > bound:
            raise ContractViolation(
                "swap-pause", index=i,
                detail=f"{label} swap #{i} drained {drained} queries "
                       f"(> {bound} = one batch across {cohort} workers)",
            )


# ------------------------------------------------------------------- driver
def _resolve_model(trace: SessionTrace, model):
    if model is not None:
        return model
    digest = trace.meta.get("boot_model")
    if digest and digest in trace.models:
        from repro.runtime.artifact import decode_model

        return decode_model(trace.models[digest])
    raise ValueError(
        "session trace embeds no boot model "
        f"(boot_model={digest!r}); pass model=<artifact> to replay()"
    )


def _build_engine(column: str, model, config, meta: dict, reply_timeout: float,
                  engine_overrides: dict | None):
    # Fields of retired engine options in older traces (the ring transport's
    # "ipc", the credit window's "pipeline_depth") are ignored.
    eng = meta.get("engine", {})
    common = dict(
        batch_size=int(eng.get("batch_size") or 64),
        max_wait=eng.get("max_wait"),
        threshold=float(eng.get("threshold", 0.5)),
        max_degree=int(eng.get("max_degree", 2)),
        decode=eng.get("decode", "distance"),
    )
    if column == "multistream":
        from repro.runtime.multistream import MultiStreamEngine

        kwargs = {**common, "name": "replay"}
        kwargs.update(engine_overrides or {})
        return MultiStreamEngine(model, config, **kwargs)
    from repro.runtime.sharded import ShardedEngine

    kwargs = {
        **common,
        "workers": int(eng.get("workers") or 1),
        "io_chunk": int(eng.get("io_chunk") or 256),
        "reply_timeout": reply_timeout,
        "name": "replay",
    }
    kwargs.update(engine_overrides or {})
    return ShardedEngine(model, config, **kwargs)


def replay(trace, column: str | None = None, model=None,
           engine_overrides: dict | None = None,
           floors: dict | None = None) -> ReplayReport:
    """Re-execute a recorded session; enforce the full contract set.

    ``trace`` is a :class:`SessionTrace`, raw ``DARTTRC1`` bytes, or a path.
    ``column`` picks the replay engine (default: the recorded column;
    ``"stream"``-recorded traces replay on ``multistream``). ``model``
    overrides the embedded boot model; ``engine_overrides`` merge into the
    replay engine's constructor (the chaos/fault-injection hook);
    ``floors`` overrides the accuracy/coverage floors (defaults: the
    recorded session's own score).

    Returns a :class:`ReplayReport` on success; raises
    :class:`ContractViolation` on the first broken contract.
    """
    if isinstance(trace, (bytes, bytearray, memoryview)):
        trace = SessionTrace.from_bytes(bytes(trace))
    elif isinstance(trace, str):
        trace = SessionTrace.load(trace)
    meta = trace.meta
    recorded_column = meta.get("engine", {}).get("column", "multistream")
    if column is None:
        column = "multistream" if recorded_column == "stream" else recorded_column
    if column not in REPLAY_COLUMNS:
        raise ValueError(
            f"unknown replay column {column!r} (choose from {REPLAY_COLUMNS})"
        )

    recorded_access = trace.accesses()
    recorded_emit = trace.emissions()
    counts = {s: len(pairs) for s, pairs in recorded_access.items()}

    # Recorded-side contracts first: a tampered trace (dropped or duplicated
    # emission record) fails before any worker process spins up.
    _check_exactly_once("recorded", recorded_emit, counts)
    rec_migrations = [
        int(row[4]) for row in trace.events if row[0] == EV_MIGRATE
    ]
    # Swap drain bounds scale with the fleet (or cohort) at swap time, so
    # walk the schedule tracking rescales to attribute each swap's fleet.
    swaps_meta = meta.get("swaps", [])
    rec_drains: list[tuple[int, int]] = []
    fleet = int(meta.get("engine", {}).get("workers") or 1)
    for row in trace.events:
        if row[0] == EV_RESCALE:
            fleet = int(row[3])
        elif row[0] == EV_SWAP:
            swap = swaps_meta[int(row[2])]
            cohort = swap.get("workers")
            rec_drains.append(
                (int(swap.get("drained", 0)),
                 len(cohort) if cohort else fleet)
            )
    _check_pause_bounds("recorded", meta, rec_migrations, rec_drains)

    from repro.data.dataset import PreprocessConfig

    config = PreprocessConfig(**meta.get("preprocess", {}))
    boot = _resolve_model(trace, model)
    reply_timeout = effective_reply_timeout(meta)
    engine = _build_engine(
        column, boot, config, meta, reply_timeout, engine_overrides
    )
    sharded = column != "multistream"

    replayed: dict[int, list] = {s: [] for s in counts}
    handles: dict[int, object] = {}
    rep_migrations: list[int] = []
    rep_drains: list[tuple[int, int]] = []
    swaps = rescales = 0

    def collect(stream: int, emissions) -> None:
        if emissions:
            replayed.setdefault(stream, []).extend(emissions)

    def poll_all() -> None:
        for s, h in handles.items():
            if not getattr(h, "closed", False):
                collect(s, h.poll())

    try:
        for row in trace.events:
            kind, stream = int(row[0]), int(row[1])
            if kind == EV_ACCESS:
                collect(stream, handles[stream].ingest(int(row[2]), int(row[3])))
            elif kind == EV_EMIT:
                continue  # the recorded oracle, not a schedule op
            elif kind == EV_OPEN:
                names = meta.get("streams", [])
                name = names[stream] if stream < len(names) else None
                handles[stream] = engine.stream(name)
            elif kind == EV_FLUSH:
                engine.flush_all()
                poll_all()
            elif kind == EV_CLOSE:
                handle = handles[stream]
                final = (
                    engine.close_stream(handle)
                    if sharded
                    else engine.close_stream(handle.index)
                )
                collect(stream, final)
            elif kind == EV_MIGRATE:
                if sharded:
                    record = engine.migrate_stream(handles[stream], int(row[3]))
                    rep_migrations.append(int(record["pending"]))
                    poll_all()
                # multistream: migration is bit-transparent; nothing to move.
            elif kind == EV_RESCALE:
                if sharded:
                    engine.rescale(int(row[3]))
                rescales += 1
            elif kind == EV_SWAP:
                swap = meta.get("swaps", [])[int(row[2])]
                from repro.runtime.artifact import decode_model

                target = decode_model(trace.models[swap["digest"]])
                cohort = swap.get("workers")
                if sharded:
                    engine.swap_model(target, workers=cohort)
                    n = len(cohort) if cohort else engine.workers
                else:
                    engine.swap_model(target)
                    n = 1
                rep_drains.append((int(engine.last_swap_drained), n))
                poll_all()
                swaps += 1
            elif kind == EV_RESET:
                if stream >= 0:
                    handles[stream].reset()
                    replayed.get(stream, []).clear()
                else:
                    engine.reset()
                    for lst in replayed.values():
                        lst.clear()
            else:
                raise ValueError(f"session trace has unknown event kind {kind}")
        # Streams the session left open: drain them like a session end would.
        if any(not getattr(h, "closed", False) for h in handles.values()):
            engine.flush_all()
            poll_all()
    finally:
        if sharded:
            engine.close()

    # Replayed-side contracts.
    _check_exactly_once("replayed", replayed, counts)
    _check_bit_identity(recorded_emit, replayed)
    _check_pause_bounds("replayed", meta, rep_migrations, rep_drains)

    rec_score = _score(recorded_access, recorded_emit)
    rep_score = _score(recorded_access, replayed)
    eps = 1e-9
    want_acc = (floors or {}).get("accuracy", rec_score["accuracy"] - eps)
    want_cov = (floors or {}).get("coverage", rec_score["coverage"] - eps)
    if rep_score["accuracy"] < want_acc:
        raise ContractViolation(
            "accuracy-floor",
            detail=f"replayed accuracy {rep_score['accuracy']:.4f} below the "
                   f"floor {want_acc:.4f}",
        )
    if rep_score["coverage"] < want_cov:
        raise ContractViolation(
            "coverage-floor",
            detail=f"replayed coverage {rep_score['coverage']:.4f} below the "
                   f"floor {want_cov:.4f}",
        )

    return ReplayReport(
        column=column,
        streams=len(counts),
        accesses=sum(counts.values()),
        emissions=sum(len(v) for v in replayed.values()),
        prefetches=sum(len(em.blocks) for v in replayed.values() for em in v),
        accuracy=rep_score["accuracy"],
        coverage=rep_score["coverage"],
        swaps=swaps,
        migrations=len(rep_migrations),
        rescales=rescales,
        reply_timeout=reply_timeout,
        contracts=[
            "exactly-once-ascending", "bit-identity", "accuracy-floor",
            "coverage-floor", "swap-pause", "migration-pause",
        ],
    )
