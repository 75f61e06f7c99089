"""Elastic sharded serving: N streams across W workers, one table copy.

:class:`~repro.runtime.multistream.MultiStreamEngine` already serves N
streams from one model, but everything runs on one Python interpreter — one
core's worth of table lookups no matter how many the host has. This module
scales that engine *out*: a :class:`ShardedEngine` places tenant streams
across ``W`` OS worker processes, each running its own
``MultiStreamEngine`` over the **same physical tables**, mapped zero-copy
from a named shared-memory segment (:mod:`repro.tabularization.shm`). The
hierarchy is stored once for the whole fleet; workers hold read-only views.

The fleet is **elastic** — nothing about it is fixed at construction:

* :meth:`ShardedEngine.open_stream` admits a new tenant at any point during
  serving, routed to the least-loaded worker;
* :meth:`ShardedEngine.close_stream` drains the stream's pending queries and
  returns its final emissions before freeing the slot;
* :meth:`ShardedEngine.migrate_stream` freezes a stream's full
  :class:`~repro.runtime.microbatch.StreamState` (feature rings, anchors,
  pending queue, latency sketch) into the pipe protocol's snapshot codec and
  rehydrates it **bit-identically** on another worker;
* :meth:`ShardedEngine.rescale` grows or shrinks the fleet, spawning fresh
  workers (booted on the *current* model generation, so rescale composes
  with :meth:`ShardedEngine.swap_model`) or draining doomed ones by
  migrating their streams to the survivors.

All of it without dropping or reordering a single emission — see DESIGN.md
"Elastic serving" for the ordering proofs, and ``tests/test_elastic.py`` for
the randomized churn fuzz that pins them.

Topology (see DESIGN.md "Sharded serving" for the lifecycle diagrams)::

    frontend (ShardedEngine)                 worker w  (one process each)
    ├─ ShardHandle per stream  ── pipe ──►   MultiStreamEngine over
    ├─ per-worker send buffers               shm-mapped tables; per-stream
    └─ publications (shm owner)  ◄─ pipe ──  StreamState + latency sketches

Wire protocol: every message is one length-prefixed frame (the connection
frames; the body is a fixed ``<iq`` header — opcode, meta — plus a raw
``int64`` payload). Accesses travel as ``(local_stream, pc, addr)`` rows;
emissions return as flat ``[stream, seq, n, blocks…]`` records. Nothing in
the protocol pickles — models that cannot ride shared memory travel in the
``DARTMDL1`` wire container (:func:`repro.runtime.artifact.encode_model`),
stats replies are JSON, and snapshots use the stream-state codec, so a
worker never executes attacker-controllable deserialization.

The pipe is the only transport (DESIGN.md "Transport decision"): data
plane (accesses and emissions) and control plane (registration, swaps,
migration snapshots, stats, shutdown) share one duplex connection per
worker.

**One outstanding request per worker.** The data plane is request/reply:
the frontend sends a worker one ``OP_ACCESS`` or ``OP_FLUSH`` chunk and
commits its reply before that worker gets another. Each request carries a
per-worker sequence number (packed into the frame's ``meta`` word alongside
the deliver flag) that the worker echoes, so a stray reply is a named
protocol failure, never a misattributed emission. :meth:`ShardedEngine.serve`
still overlaps the workers: every worker receives its chunk before any reply
is read, and the frontend parks in a select across every worker's pipe
(``connection.wait``), so a slow shard never stalls the drain of a faster
one. Every control-plane send first commits the shard's outstanding reply,
so the drain/ack ordering proofs of the barriers (flush, swap, freeze,
rescale, close) see a quiet channel. See DESIGN.md "One outstanding request
per worker" for why there is no deeper window.

Guarantees preserved from the single-process engines:

* **one emission per access, ascending seq, per stream** — streams are
  pinned to a worker, the pipe is FIFO, and the worker's engine already
  upholds the invariant, so the frontend only has to deliver in arrival
  order (each handle's outbox);
* **bit-identical emissions** — batch composition cannot change a row's
  answer (row-local predictor), so re-partitioning streams across workers
  only moves *when* answers arrive, never *what* they are (pinned by
  ``tests/test_sharded.py`` and the conformance suite);
* **zero-downtime swaps** — :meth:`ShardedEngine.swap_model` publishes the
  new tables as a fresh segment, broadcasts it, barriers on every worker's
  drain-ack (each worker drains pending queries with the *outgoing* model,
  exactly like the single-process swap), then unlinks the old segment.

Failure semantics: a dead or errored worker surfaces as a named
:class:`ShardFailure` carrying the affected stream ids — the frontend never
hangs on a broken pipe — and :meth:`ShardedEngine.close` (or the context
manager) unlinks every segment the engine ever published, even after a
crash mid-swap.
"""

from __future__ import annotations

import json
import struct
import time
import weakref

import numpy as np

from repro.data.dataset import PreprocessConfig
from repro.runtime.engine import (
    StreamLifecycle,
    StreamStats,
    _LatencySketch,
    access_pairs,
)
from repro.runtime.microbatch import (
    resolve_predictor,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.runtime.streaming import Emission, StreamingPrefetcher

_HDR = struct.Struct("<iq")  # (opcode, meta)

# Request opcodes (frontend -> worker).
OP_REGISTER = 1   # meta = number of new streams
OP_ACCESS = 2     # meta = seq<<1 | deliver; payload int64 (k, 3)
OP_FLUSH = 3      # meta = seq<<1 | deliver
OP_SWAP = 4       # meta = deliver<<1 | is_codec; payload = shm name / DARTMDL1 blob
OP_RESET = 5      # meta = local stream index, -1 = every stream
OP_STATS = 6
OP_SHUTDOWN = 7
OP_CLOSE = 8      # meta = local stream index; drain + retire the slot
OP_FREEZE = 9     # meta = local stream index; export a migration snapshot
OP_THAW = 10      # payload = snapshot bytes; rehydrate as a new local stream

# Reply opcodes (worker -> frontend).
REPLY_OK = 100
REPLY_EMISSIONS = 101  # meta = echoed request seq (data plane) or drain
                       # count (swap ack); payload records
REPLY_STATS = 102      # payload = utf-8 JSON dict
REPLY_ERR = 103        # meta = the request opcode in flight; payload = utf-8
                       # traceback
REPLY_SNAPSHOT = 104   # meta = pending queries carried; payload snapshot bytes

_OP_NAMES = {
    OP_REGISTER: "OP_REGISTER", OP_ACCESS: "OP_ACCESS", OP_FLUSH: "OP_FLUSH",
    OP_SWAP: "OP_SWAP", OP_RESET: "OP_RESET", OP_STATS: "OP_STATS",
    OP_SHUTDOWN: "OP_SHUTDOWN", OP_CLOSE: "OP_CLOSE", OP_FREEZE: "OP_FREEZE",
    OP_THAW: "OP_THAW",
}


class ShardFailure(RuntimeError):
    """A worker process died or errored; names the streams it was serving.

    ``opcode`` is the request opcode in flight when the worker errored
    (echoed by the worker in its ``REPLY_ERR`` meta word); ``None`` when the
    failure was not a worker-reported error (process death, pipe breakage,
    protocol desync).
    """

    def __init__(self, shard: int, stream_ids: list[int], stream_names: list[str],
                 reason: str, opcode: int | None = None):
        self.shard = int(shard)
        self.stream_ids = list(stream_ids)
        self.stream_names = list(stream_names)
        self.reason = str(reason)
        self.opcode = None if opcode is None else int(opcode)
        during = (
            f" during {_OP_NAMES.get(self.opcode, f'op {self.opcode}')}"
            if self.opcode is not None else ""
        )
        super().__init__(
            f"shard {shard} failed{during} ({self.reason}); "
            f"affected streams: {self.stream_ids} ({', '.join(self.stream_names)})"
        )


# --------------------------------------------------------------------- worker
def _worker_serve_loop(worker_id: int, conn, model_spec, engine_kwargs: dict,
                       chaos_reply_delay: tuple | None = None):
    """One shard: a MultiStreamEngine over shared tables, driven by the pipe.

    Runs in its own OS process. Never returns normally — exits on
    ``OP_SHUTDOWN``, a closed pipe, or after reporting an error.

    Requests are processed strictly FIFO and every reply goes back on the
    same pipe, echoing the data-plane request's sequence number.
    ``chaos_reply_delay = (max_s, seed)`` is the fault-injection hook used by
    the chaos fuzz: each data-plane reply is preceded by a seeded random
    sleep in ``[0, max_s)``, simulating slow/jittery shards without touching
    the protocol.
    """
    import traceback

    from repro.runtime.multistream import MultiStreamEngine

    chaos_rng = None
    chaos_max = 0.0
    if chaos_reply_delay is not None:
        import random as _random

        chaos_max = float(chaos_reply_delay[0])
        chaos_rng = _random.Random(int(chaos_reply_delay[1]) ^ (worker_id * 0x9E3779B1))

    tables = None
    model = None
    try:
        if model_spec[0] == "shm":
            from repro.tabularization.shm import attach_artifact

            model, tables = attach_artifact(model_spec[1])
        else:
            from repro.runtime.artifact import decode_model

            model = decode_model(model_spec[1])
        engine = MultiStreamEngine(model, **engine_kwargs)
        handles: list = []
        sketches: list[_LatencySketch] = []
        counts: list[list[int]] = []  # per stream: [accesses, prefetches, emissions]
        perf = time.perf_counter

        completed: list[tuple[int, Emission]] = []  # since the last reply

        def note(lidx: int, ems) -> None:
            for em in ems:
                counts[lidx][1] += len(em.blocks)
                counts[lidx][2] += 1
                completed.append((lidx, em))

        def drain() -> None:
            """Sweep emissions parked in outboxes by *other* streams' flushes."""
            for lidx, h in enumerate(handles):
                if h is not None:
                    note(lidx, h.poll())

        def reply_emissions(deliver: bool, meta: int | None = None) -> None:
            drain()
            if meta is None:
                meta = len(completed)
            if deliver and completed:
                records: list[int] = []
                for lidx, em in completed:
                    records.append(lidx)
                    records.append(em.seq)
                    records.append(len(em.blocks))
                    records.extend(em.blocks)
                payload = np.asarray(records, dtype=np.int64).tobytes()
            else:
                payload = b""
            completed.clear()
            conn.send_bytes(_HDR.pack(REPLY_EMISSIONS, meta) + payload)

        while True:
            try:
                msg = conn.recv_bytes()
            except (EOFError, OSError):
                return  # frontend went away; nothing left to serve
            op, meta = _HDR.unpack_from(msg)
            payload = msg[_HDR.size :]
            try:
                if op == OP_ACCESS:
                    # Data-plane meta packs (request seq << 1) | deliver; the
                    # seq is echoed in the reply so the frontend can check it
                    # against the request it has outstanding.
                    rows = np.frombuffer(payload, dtype=np.int64).reshape(-1, 3).tolist()
                    for lidx, pc, addr in rows:
                        t0 = perf()
                        ems = handles[lidx].ingest(pc, addr)
                        sketches[lidx].add(perf() - t0)
                        counts[lidx][0] += 1
                        note(lidx, ems)
                    if chaos_rng is not None:
                        time.sleep(chaos_rng.random() * chaos_max)
                    reply_emissions(deliver=bool(meta & 1), meta=meta >> 1)
                elif op == OP_FLUSH:
                    engine.flush_all()
                    if chaos_rng is not None:
                        time.sleep(chaos_rng.random() * chaos_max)
                    reply_emissions(deliver=bool(meta & 1), meta=meta >> 1)
                elif op == OP_REGISTER:
                    for _ in range(int(meta)):
                        handles.append(engine.stream())
                        sketches.append(_LatencySketch())
                        counts.append([0, 0, 0])
                    conn.send_bytes(_HDR.pack(REPLY_OK, len(handles)))
                elif op == OP_SWAP:
                    deliver = bool(meta & 2)
                    if meta & 1:
                        from repro.runtime.artifact import decode_model

                        engine.swap_model(decode_model(payload))
                        old = None
                    else:
                        from repro.tabularization.shm import attach_artifact

                        new_model, new_tables = attach_artifact(payload.decode("utf-8"))
                        engine.swap_model(new_model)
                        old, model, tables = (model, tables), new_model, new_tables
                    # Drained answers ride the ack so no emission is dropped.
                    reply_emissions(deliver, meta=engine.last_swap_drained)
                    if old is not None and old[1] is not None:
                        old_model, old_tables = old
                        del old_model, old
                        try:
                            old_tables.close()
                        except BufferError:  # a view still alive somewhere
                            pass
                elif op == OP_CLOSE:
                    lidx = int(meta)
                    # Final emissions: the engine drains parked-outbox answers
                    # first, then the close flush — ascending seq throughout.
                    note(lidx, engine.close_stream(lidx))
                    handles[lidx] = None
                    reply_emissions(deliver=True)
                elif op == OP_FREEZE:
                    lidx = int(meta)
                    # Already-computed answers leave with the emissions reply
                    # (before the snapshot), so rehydration only ever owes the
                    # *unanswered* pending queue.
                    note(lidx, handles[lidx].poll())
                    snap = engine.export_stream(lidx)
                    carried = int(snap["snapshot/pending"].size)
                    sk = sketches[lidx]
                    snap["stats/sketch_samples"] = np.asarray(sk.samples, dtype=np.float64)
                    snap["stats/sketch_meta"] = np.asarray(
                        [sk.count, sk._stride], dtype=np.int64
                    )
                    snap["stats/sketch_acc"] = np.asarray(
                        [sk.total, sk.peak], dtype=np.float64
                    )
                    snap["stats/counts"] = np.asarray(counts[lidx], dtype=np.int64)
                    handles[lidx] = None
                    reply_emissions(deliver=True)
                    body = snapshot_to_bytes(snap)
                    conn.send_bytes(_HDR.pack(REPLY_SNAPSHOT, carried) + body)
                elif op == OP_THAW:
                    snap = snapshot_from_bytes(payload)
                    sk = _LatencySketch()
                    sk_meta = snap.pop("stats/sketch_meta", None)
                    if sk_meta is not None:
                        acc = snap.pop("stats/sketch_acc")
                        sk.count, sk._stride = int(sk_meta[0]), int(sk_meta[1])
                        sk.total, sk.peak = float(acc[0]), float(acc[1])
                        sk.samples = [float(v) for v in snap.pop("stats/sketch_samples")]
                    cnt = snap.pop("stats/counts", None)
                    handles.append(engine.import_stream(snap))
                    sketches.append(sk)
                    counts.append([int(v) for v in cnt] if cnt is not None else [0, 0, 0])
                    conn.send_bytes(_HDR.pack(REPLY_OK, len(handles) - 1))
                elif op == OP_RESET:
                    if int(meta) < 0:
                        engine.reset()
                        for lidx in range(len(handles)):
                            if handles[lidx] is None:
                                continue
                            sketches[lidx] = _LatencySketch()
                            counts[lidx] = [0, 0, 0]
                    else:
                        handles[int(meta)].reset()
                        sketches[int(meta)] = _LatencySketch()
                        counts[int(meta)] = [0, 0, 0]
                    conn.send_bytes(_HDR.pack(REPLY_OK, 0))
                elif op == OP_STATS:
                    stats = {
                        "worker": worker_id,
                        "engine": engine.stats(),
                        "streams": [
                            None
                            if handles[l] is None
                            else {
                                "accesses": counts[l][0],
                                "prefetches": counts[l][1],
                                "emissions": counts[l][2],
                                "sketch": sketches[l].state(),
                            }
                            for l in range(len(handles))
                        ],
                    }
                    body = json.dumps(stats).encode("utf-8")
                    conn.send_bytes(_HDR.pack(REPLY_STATS, len(body)) + body)
                elif op == OP_SHUTDOWN:
                    conn.send_bytes(_HDR.pack(REPLY_OK, 0))
                    return
                else:
                    raise ValueError(f"unknown opcode {op}")
            except Exception:
                try:
                    # Echo the opcode that was in flight so the frontend's
                    # ShardFailure can name the operation, not just the shard.
                    conn.send_bytes(
                        _HDR.pack(REPLY_ERR, op)
                        + traceback.format_exc().encode("utf-8", "replace")
                    )
                except (BrokenPipeError, OSError):
                    pass
                return
    finally:
        del model
        if tables is not None:
            try:
                tables.close()
            except BufferError:
                pass
        try:
            conn.close()
        except OSError:
            pass


class _Shard:
    """Frontend bookkeeping for one worker process."""

    def __init__(self, shard_id: int):
        self.id = shard_id
        self.process = None
        self.conn = None
        self.handles: list["ShardHandle"] = []  # by local index
        self.sendbuf: list[tuple[int, int, int]] = []
        self.alive = False
        # Model generation this worker serves (set on spawn, updated per
        # swap): partial swaps leave the fleet intentionally mixed, and
        # publication refcounting keys off these per-shard specs.
        self.spec = None
        self.version: int | None = None
        # Data plane: the next request sequence number (monotone for the
        # worker's lifetime) and the seq of the one request awaiting its
        # reply, or None.
        self.data_seq = 0
        self.outstanding: int | None = None
        # Overlap accounting: data-plane replies committed, and how many of
        # them were already waiting when the frontend went to read them.
        self.replies = 0
        self.overlapped = 0


class ShardHandle(StreamingPrefetcher):
    """One tenant stream of a :class:`ShardedEngine`.

    Implements the streaming protocol with *buffered* ingest: accesses are
    batched per worker pipe message (``io_chunk``), so emissions may arrive
    a few calls late — always in order, always exactly one per access once
    :meth:`flush` runs, exactly like the micro-batched engines (whose
    answers are already deferred by design).
    """

    def __init__(self, engine: "ShardedEngine", index: int, shard: _Shard,
                 local_index: int, name: str):
        self._engine = engine
        self.index = index
        self.shard_id = shard.id
        self.local_index = local_index
        self.name = name
        self.latency_cycles = engine.latency_cycles
        self.storage_bytes = engine.storage_bytes
        self.seq = 0
        self.closed = False
        self.lifecycle = StreamLifecycle(homes=[shard.id])
        self._outbox: list[Emission] = []

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError(f"stream {self.name!r} is closed")

    def poll(self) -> list[Emission]:
        """Emissions already returned by the worker (never blocks)."""
        out = self._outbox
        self._outbox = []
        # Every delivered emission leaves through this outbox drain — the
        # single funnel a session recorder needs to capture the stream.
        if out and self._engine._recorder is not None:
            self._engine._recorder.on_emissions(self.index, out)
        return out

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        self._check_open()
        if self._engine._recorder is not None:
            self._engine._recorder.on_access(self.index, pc, addr)
        self._engine._ingest(self, pc, addr)
        self.seq += 1
        return self.poll()

    def flush(self) -> list[Emission]:
        self._check_open()
        self._engine.flush_all()
        return self.poll()

    def close(self) -> list[Emission]:
        """Retire this stream; returns its final (drained) emissions."""
        return self._engine.close_stream(self)

    def reset(self) -> None:
        """Reset *this stream only* (frontend buffers and worker state)."""
        self._check_open()
        if self._engine._recorder is not None:
            self._engine._recorder.on_reset(self.index)
        self._engine._reset_stream(self)
        self.seq = 0
        self._outbox = []


class ShardedEngine:
    """N streams across W worker processes over one shared table hierarchy.

    ``model`` may be a :class:`~repro.runtime.artifact.ModelArtifact` or bare
    :class:`TabularAttentionPredictor` (published once into shared memory —
    the zero-copy path), or any predictor the no-pickle model wire codec
    carries (:func:`repro.runtime.artifact.encode_model` — e.g. the NN student
    baseline; each worker then decodes a private copy). Serving knobs
    (``batch_size``, ``max_wait``, decode policy) mirror
    :class:`~repro.runtime.multistream.MultiStreamEngine` and apply per
    worker.

    ``io_chunk`` is the pipe batching depth in handle mode: accesses per
    worker message. Bigger chunks amortize the syscall + framing cost;
    emissions arrive correspondingly later (a :meth:`flush_all` bounds the
    wait, exactly like a micro-batch flush).

    Each worker has one duplex pipe to the frontend, carrying both the data
    plane (access rows, emission replies) and the control plane (admission,
    swap, migration snapshots, stats, shutdown). A worker has at most one
    data-plane request outstanding: handle mode sends a chunk and reads its
    reply, and :meth:`serve` sends every worker its chunk before it reads
    any reply, parking in a select across the pipes. Every control-plane
    send first commits the outstanding reply.

    ``reply_timeout`` is the total deadline of every wait for a worker
    reply; ``drain_poll_interval`` is how often such a wait wakes to probe
    the worker for death (the wait itself returns the moment data lands), so
    a worker that dies mid-wait is caught within one interval. Workers start
    with ``fork`` where the platform has it, else ``spawn``.

    ``chaos_reply_delay=(max_s, seed)`` injects a seeded random sleep before
    every data-plane reply in each worker — the fault-injection hook the
    chaos fuzz uses to prove the exactly-once/ordering invariants under
    slow, jittery shards. Leave ``None`` in production.

    Use as a context manager (or call :meth:`close`) — the engine owns named
    shared-memory segments that must be unlinked.
    """

    def __init__(
        self,
        model,
        config: PreprocessConfig,
        workers: int = 2,
        batch_size: int = 64,
        max_wait: int | None = None,
        threshold: float = 0.5,
        max_degree: int = 2,
        decode: str = "distance",
        io_chunk: int = 256,
        serve_chunk: int = 2048,
        name: str = "sharded",
        latency_cycles: int = 0,
        storage_bytes: float = 0.0,
        reply_timeout: float = 60.0,
        drain_poll_interval: float = 0.005,
        chaos_reply_delay: tuple | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_wait is not None and max_wait < 1:
            raise ValueError("max_wait must be >= 1 (or None)")
        if io_chunk < 1 or serve_chunk < 1:
            raise ValueError("io_chunk / serve_chunk must be >= 1")
        if reply_timeout <= 0 or drain_poll_interval <= 0:
            raise ValueError("reply_timeout / drain_poll_interval must be > 0")
        # Validate geometry + capture the artifact version before any process
        # or segment exists (same refusal point as the in-process engines).
        _, version = resolve_predictor(model, config)
        self.config = config
        self.workers = int(workers)
        self.name = name
        self.io_chunk = int(io_chunk)
        self.serve_chunk = int(serve_chunk)
        self.latency_cycles = int(latency_cycles)
        self.storage_bytes = float(storage_bytes)
        self._engine_kwargs = dict(
            config=config,
            threshold=threshold,
            max_degree=max_degree,
            decode=decode,
            batch_size=int(batch_size),
            max_wait=max_wait,
        )
        self.batch_size = int(batch_size)
        self.max_wait = max_wait
        self.reply_timeout = float(reply_timeout)
        self.drain_poll_interval = float(drain_poll_interval)
        self._chaos_reply_delay = chaos_reply_delay
        import multiprocessing as mp

        self.start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(self.start_method)
        self._publications: list = []  # SharedTables this engine owns
        self._spec_cache: list = []  # (weakref(model), spec, version) of live pubs
        self._model_spec = self._publish_cached(model, version)
        self._model_version = version
        self._swaps = 0
        self.last_swap_drained = 0
        self._shards = [_Shard(i) for i in range(self.workers)]
        self._handles: list[ShardHandle] = []
        self._started = False
        self._closed = False
        # Elastic lifecycle accounting: a monotone op clock (any lifecycle
        # event ticks it) plus event counters, surfaced via stats()["elastic"].
        self._ops = 0
        self._opened = 0
        self._closed_streams = 0
        self._migrations = 0
        self._rescales = 0
        self.last_migration: dict | None = None
        #: session recorder, when one is attached (SessionRecorder.attach)
        self._recorder = None

    # -------------------------------------------------------------- publishing
    def _publish(self, model):
        """Turn a swap/boot target into a worker-loadable model spec."""
        from repro.runtime.artifact import ModelArtifact, is_model_artifact
        from repro.tabularization.shm import publish_artifact
        from repro.tabularization.tabular_model import TabularAttentionPredictor

        if is_model_artifact(model) or isinstance(model, TabularAttentionPredictor):
            if not is_model_artifact(model):
                model = ModelArtifact(model)
            pub = publish_artifact(model)
            self._publications.append(pub)
            return ("shm", pub.name)
        from repro.runtime.artifact import encode_model

        try:
            return ("codec", encode_model(model))
        except TypeError as exc:
            raise TypeError(
                f"cannot ship {type(model).__name__} to worker processes: "
                f"not a tabular artifact (shared memory) and not carried by "
                f"the no-pickle model wire codec ({exc})"
            ) from exc

    def _publish_cached(self, model, version):
        """Publish ``model``, reusing the live segment of a prior publish.

        Partial swaps make spec *identity* meaningful: a cohort swap followed
        by the complementary swap of the same model object must land both
        cohorts on the same segment, or the fleet never converges back to a
        single generation (and a rollback to the boot artifact would leak a
        redundant copy of tables that are already mapped). The cache is keyed
        on object identity *and* resolved version, and entries drop out as
        soon as their segment is unlinked or their model is garbage-collected.
        """
        live = {pub.name for pub in self._publications}
        self._spec_cache = [
            entry for entry in self._spec_cache
            if entry[0]() is not None
            and (entry[1][0] != "shm" or entry[1][1] in live)
        ]
        for ref, spec, ver in self._spec_cache:
            if ref() is model and ver == version:
                return spec
        spec = self._publish(model)
        try:
            self._spec_cache.append((weakref.ref(model), spec, version))
        except TypeError:  # un-weakreferenceable models just never reuse
            pass
        return spec

    @property
    def shm_bytes(self) -> int | None:
        """Total bytes of live shared segments (None for codec-shipped models)."""
        return sum(p.nbytes for p in self._publications) if self._publications else None

    # ------------------------------------------------------------ registration
    @staticmethod
    def _live_count(shard: _Shard) -> int:
        return sum(1 for h in shard.handles if h is not None and not h.closed)

    def stream(self, name: str | None = None) -> ShardHandle:
        """Admit a new tenant stream, placed on the least-loaded worker.

        Admission works at any point — before the fleet starts (the worker
        registers the slot on spawn) or mid-serve (an ``OP_REGISTER`` round
        trip). Ties break toward the lowest worker id, so a balanced fleet
        fills round-robin.
        """
        if self._closed:
            raise ValueError("engine is closed")
        shard = min(
            self._shards[: self.workers],
            key=lambda s: (self._live_count(s), s.id),
        )
        index = len(self._handles)
        handle = ShardHandle(
            self, index, shard, len(shard.handles),
            name or f"{self.name}[{index}]",
        )
        self._ops += 1
        handle.lifecycle.opened_at = self._ops
        self._opened += 1
        shard.handles.append(handle)
        self._handles.append(handle)
        if self._started:
            self._send(shard, OP_REGISTER, 1)
            self._expect(shard, REPLY_OK)
        if self._recorder is not None:
            self._recorder.on_open(handle.index, handle.name, shard.id)
        return handle

    #: admission alias — the elastic-lifecycle name for :meth:`stream`
    open_stream = stream

    def streams(self, n: int, names=None) -> list[ShardHandle]:
        if names is not None and len(names) != n:
            raise ValueError("need one name per stream")
        return [self.stream(names[i] if names else None) for i in range(n)]

    @property
    def n_streams(self) -> int:
        """Live (not closed) tenant streams."""
        return sum(1 for h in self._handles if not h.closed)

    @property
    def live_handles(self) -> list[ShardHandle]:
        """Open stream handles, in admission order."""
        return [h for h in self._handles if not h.closed]

    # ---------------------------------------------------------------- process
    def _spawn_shard(self, shard: _Shard) -> None:
        """Boot one worker process on the *current* model generation."""
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_serve_loop,
            args=(shard.id, child, self._model_spec, self._engine_kwargs,
                  self._chaos_reply_delay),
            name=f"{self.name}-w{shard.id}",
            daemon=True,
        )
        proc.start()
        child.close()
        shard.process = proc
        shard.conn = parent
        shard.alive = True
        shard.spec = self._model_spec
        shard.version = self._model_version

    def _shutdown_shard(self, shard: _Shard, ack_timeout: float) -> None:
        """Ask one worker to exit (tolerant of a dead pipe) and drop the conn."""
        if shard.conn is not None:
            if shard.alive and shard.process is not None and shard.process.is_alive():
                try:
                    shard.conn.send_bytes(_HDR.pack(OP_SHUTDOWN, 0))
                    if shard.conn.poll(ack_timeout):
                        shard.conn.recv_bytes()
                except (BrokenPipeError, EOFError, OSError):
                    pass
            try:
                shard.conn.close()
            except OSError:
                pass
        shard.alive = False

    @staticmethod
    def _reap_shard(shard: _Shard) -> None:
        """Join the worker process, escalating terminate -> kill if needed."""
        proc = shard.process
        if proc is None:
            return
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(timeout=1.0)

    def _retire_shard(self, shard: _Shard) -> None:
        """Gracefully stop one (drained) worker and reap its process."""
        self._shutdown_shard(shard, ack_timeout=5.0)
        self._reap_shard(shard)

    def start(self) -> None:
        """Spawn the worker fleet (idempotent; implicit on first use)."""
        if self._started:
            return
        if self._closed:
            raise ValueError("engine is closed")
        for shard in self._shards:
            self._spawn_shard(shard)
        self._started = True
        for shard in self._shards:
            if shard.handles:
                self._send(shard, OP_REGISTER, len(shard.handles))
                self._expect(shard, REPLY_OK)

    def _fail(self, shard: _Shard, reason: str, opcode: int | None = None):
        shard.alive = False
        live = [h for h in shard.handles if h is not None and not h.closed]
        raise ShardFailure(
            shard.id,
            [h.index for h in live],
            [h.name for h in live],
            reason,
            opcode=opcode,
        )

    def _send(self, shard: _Shard, op: int, meta: int, payload: bytes = b"") -> None:
        """Frame one message onto the worker pipe, after committing the
        shard's outstanding data-plane reply (if any).

        Every request goes through here — data chunks and every barrier op
        (register, swap, close, freeze, thaw, reset, stats) — so by the time
        the worker sees a barrier the request/reply channel is quiet and the
        drain/ack ordering proofs apply. The committed reply is routed to its
        handles' outboxes — committing never drops an emission.
        """
        self._quiesce(shard)
        if not self._started:
            self.start()
        if not shard.alive:
            self._fail(shard, "worker already failed")
        try:
            shard.conn.send_bytes(_HDR.pack(op, meta) + payload)
        except (BrokenPipeError, OSError) as exc:
            self._fail(shard, f"pipe send failed: {exc!r}")

    def _recv(self, shard: _Shard, timeout: float | None = None):
        """Receive one reply; never hangs on a dead worker.

        ``timeout`` defaults to the engine's ``reply_timeout``; the wait
        wakes every ``drain_poll_interval`` to probe the worker process for
        death (the poll itself returns the moment data lands).
        """
        conn = shard.conn
        if timeout is None:
            timeout = self.reply_timeout
        interval = self.drain_poll_interval
        deadline = time.monotonic() + timeout
        while True:
            try:
                if conn.poll(interval):
                    msg = conn.recv_bytes()
                    break
            except (EOFError, OSError) as exc:
                self._fail(shard, f"pipe closed: {exc!r}")
            if shard.process is not None and not shard.process.is_alive():
                try:  # drain a reply that raced the death
                    if conn.poll(0):
                        msg = conn.recv_bytes()
                        break
                except (EOFError, OSError):
                    pass
                self._fail(
                    shard,
                    f"worker process died (exit code {shard.process.exitcode})",
                )
            if time.monotonic() > deadline:
                self._fail(shard, f"no reply within {timeout}s")
        op, meta = _HDR.unpack_from(msg)
        if op == REPLY_ERR:
            self._fail(shard, msg[_HDR.size :].decode("utf-8", "replace"),
                       opcode=meta)
        return op, meta, msg[_HDR.size :]

    def _expect(self, shard: _Shard, want_op: int):
        op, meta, payload = self._recv(shard)
        if op != want_op:
            self._fail(shard, f"protocol error: got opcode {op}, wanted {want_op}")
        return meta, payload

    # ------------------------------------------------------------ data plane
    # A worker has at most one data-plane request outstanding. Each carries a
    # monotone per-worker sequence number (meta = seq << 1 | deliver) that
    # the worker echoes in its reply; a reply with any other seq, or one
    # nobody asked for, is a named protocol failure.

    def _data_ready(self, shard: _Shard) -> bool:
        """True when a data-plane reply is already waiting (never blocks)."""
        try:
            return shard.conn.poll(0)
        except (EOFError, OSError) as exc:
            self._fail(shard, f"pipe closed: {exc!r}")

    def _send_data(self, shard: _Shard, op: int, deliver: bool,
                   payload: bytes = b"") -> None:
        """Ship one data-plane request; its reply is committed later."""
        seq = shard.data_seq
        self._send(shard, op, (seq << 1) | (1 if deliver else 0), payload)
        shard.data_seq = seq + 1
        shard.outstanding = seq

    def _drain_one(self, shard: _Shard, ready: bool | None = None) -> None:
        """Commit the outstanding reply (blocks until it arrives)."""
        if ready is None:
            ready = self._data_ready(shard)
        op, meta, payload = self._recv(shard)
        if op != REPLY_EMISSIONS:
            self._fail(
                shard, f"protocol error: got opcode {op}, wanted {REPLY_EMISSIONS}"
            )
        if shard.outstanding is None:
            self._fail(shard, f"protocol error: unsolicited reply seq {meta}")
        if int(meta) != shard.outstanding:
            self._fail(
                shard,
                f"protocol error: reply seq {int(meta)}, "
                f"expected {shard.outstanding}",
            )
        shard.outstanding = None
        shard.replies += 1
        shard.overlapped += bool(ready)
        self._route(shard, payload)

    def _drain_ready(self, shard: _Shard) -> bool:
        """Commit the outstanding reply if it has already landed (no blocking)."""
        if shard.outstanding is not None and self._data_ready(shard):
            self._drain_one(shard, ready=True)
            return True
        return False

    def _quiesce(self, shard: _Shard) -> None:
        """Commit the outstanding reply, if there is one."""
        if shard.outstanding is not None:
            self._drain_one(shard)

    def _wait_data_reply(self, shards: list[_Shard]) -> None:
        """Select-style park until *some* listed shard has a reply ready.

        Waits on all the worker connections at once
        (``multiprocessing.connection.wait``, looked up per call so a wrapped
        ``wait`` is honoured); a dead worker is probed every lap and surfaces
        as a named :class:`ShardFailure`, never a hang.
        """
        from multiprocessing.connection import wait as conn_wait

        deadline = time.monotonic() + self.reply_timeout
        while True:
            try:
                if conn_wait([s.conn for s in shards], self.drain_poll_interval):
                    return
            except (EOFError, OSError):
                pass  # fall through to the per-shard death probe
            for s in shards:
                if s.process is not None and not s.process.is_alive():
                    if not self._data_ready(s):
                        self._fail(
                            s,
                            f"worker process died (exit code {s.process.exitcode})",
                        )
                    return
            if time.monotonic() > deadline:
                self._fail(shards[0], f"no reply within {self.reply_timeout}s")

    # ----------------------------------------------------------------- serving
    def _route(self, shard: _Shard, payload: bytes) -> int:
        """Deliver a flat emission payload into the owning handles' outboxes."""
        if not payload:
            return 0
        a = np.frombuffer(payload, dtype=np.int64)
        i = 0
        n = 0
        size = a.size
        while i < size:
            lidx = int(a[i])
            seq = int(a[i + 1])
            nb = int(a[i + 2])
            blocks = a[i + 3 : i + 3 + nb].tolist()
            shard.handles[lidx]._outbox.append(Emission(seq, blocks))
            i += 3 + nb
            n += 1
        return n

    def _dispatch(self, shard: _Shard) -> None:
        """Ship a shard's buffered accesses, then commit the reply: the
        emissions land in the owning handles' outboxes before this returns."""
        if not shard.sendbuf:
            return
        arr = np.asarray(shard.sendbuf, dtype=np.int64)
        shard.sendbuf.clear()
        self._send_data(shard, OP_ACCESS, True, arr.tobytes())
        self._drain_one(shard)

    def _ingest(self, handle: ShardHandle, pc: int, addr: int) -> None:
        shard = self._shards[handle.shard_id]
        shard.sendbuf.append((handle.local_index, int(pc), int(addr)))
        if len(shard.sendbuf) >= self.io_chunk:
            self._dispatch(shard)

    def flush_all(self) -> None:
        """Answer everything pending in every shard (one flush per worker).

        A barrier: every shard's buffered accesses and one ``OP_FLUSH`` are
        shipped first (so all workers flush concurrently), then every flush
        reply is committed — when this returns, each stream's answers sit in
        its handle's outbox.
        """
        if self._recorder is not None:
            self._recorder.on_flush()
        if not self._started:
            return
        for shard in self._shards:
            self._dispatch(shard)
            self._send_data(shard, OP_FLUSH, True)
        for shard in self._shards:
            self._quiesce(shard)

    def _reset_stream(self, handle: ShardHandle) -> None:
        shard = self._shards[handle.shard_id]
        shard.sendbuf = [
            entry for entry in shard.sendbuf if entry[0] != handle.local_index
        ]
        if self._started:
            self._send(shard, OP_RESET, handle.local_index)
            self._expect(shard, REPLY_OK)

    def reset(self) -> None:
        """Reset every stream (worker predict counters persist, like in-process)."""
        if self._recorder is not None:
            self._recorder.on_reset()
        for shard in self._shards:
            shard.sendbuf.clear()
            if self._started:
                self._send(shard, OP_RESET, -1)
                self._expect(shard, REPLY_OK)
        for handle in self._handles:
            if handle.closed:
                continue
            handle.seq = 0
            handle._outbox = []

    # ----------------------------------------------------------------- elastic
    def _resolve(self, stream) -> ShardHandle:
        """Accept a handle or a global stream index; refuse closed streams."""
        handle = self._handles[stream] if isinstance(stream, int) else stream
        if handle._engine is not self:
            raise ValueError(f"stream {handle.name!r} belongs to another engine")
        if handle.closed:
            raise ValueError(f"stream {handle.name!r} is closed")
        return handle

    def close_stream(self, stream) -> list[Emission]:
        """Retire one tenant: drain its pending queries, return its final
        emissions (in seq order), free its slot on the worker.

        Ordering: the shard's buffered accesses are dispatched first (so the
        drain answers *every* access the stream ever ingested), then the
        worker flushes the stream's pending with the serving model and ships
        parked-outbox answers ahead of the drained ones. Other tenants on the
        shard are untouched — their answers completed by the drain wait in
        their own outboxes, exactly like any flush.
        """
        handle = self._resolve(stream)
        if self._recorder is not None:
            self._recorder.on_close(handle.index)
        self._ops += 1
        self._closed_streams += 1
        handle.lifecycle.closed_at = self._ops
        shard = self._shards[handle.shard_id]
        if not self._started:
            if handle.seq == 0:
                # Never ingested anything: free the slot without booting the
                # fleet. The placeholder keeps later local indices aligned.
                handle.closed = True
                return []
            # Pre-start ingests are sitting in the send buffer — the drain
            # below must still answer every one of them, so boot the fleet.
            self.start()
        self._dispatch(shard)
        self._send(shard, OP_CLOSE, handle.local_index)
        _, payload = self._expect(shard, REPLY_EMISSIONS)
        self._route(shard, payload)
        shard.handles[handle.local_index] = None
        handle.closed = True
        return handle.poll()

    def migrate_stream(self, stream, worker: int) -> dict:
        """Move one live stream to another worker, bit-identically.

        The stream's :class:`~repro.runtime.microbatch.StreamState` — feature
        rings, anchors, clock, *unanswered* pending queue — plus its latency
        sketch and serving counters are frozen into the snapshot codec
        (:func:`~repro.runtime.microbatch.snapshot_to_bytes`), shipped over
        both pipes, and rehydrated on the target. Already-computed answers
        leave the source with the freeze reply (before the snapshot), and the
        carried pending queue is answered by the target's next flush, so no
        emission is dropped, duplicated, or reordered. The migration pause is
        bounded by that carried queue: at most one flush batch.

        Returns a record: ``{stream, from, to, pending, bytes}``.
        """
        handle = self._resolve(stream)
        if not 0 <= worker < self.workers:
            raise ValueError(
                f"worker {worker} out of range (fleet has {self.workers})"
            )
        self.start()
        source = self._shards[handle.shard_id]
        target = self._shards[worker]
        if target is source:  # no-op: nothing moves, the op clock stays put
            return {"stream": handle.index, "from": source.id, "to": target.id,
                    "pending": 0, "bytes": 0}
        self._ops += 1
        # Everything the stream ingested must reach the source before the
        # freeze — the snapshot is only complete after the buffered rows land.
        self._dispatch(source)
        self._send(source, OP_FREEZE, handle.local_index)
        _, payload = self._expect(source, REPLY_EMISSIONS)
        self._route(source, payload)
        carried, body = self._expect(source, REPLY_SNAPSHOT)
        source.handles[handle.local_index] = None
        try:
            self._send(target, OP_THAW, 0, bytes(body))
            new_local, _ = self._expect(target, REPLY_OK)
        except ShardFailure as exc:
            # The frozen state was in flight to a dead target: the migrating
            # stream is that worker's casualty. Seal the handle (its source
            # slot is already retired — no op may touch it again) and name
            # the stream in the failure alongside the target's own tenants.
            handle.closed = True
            handle.lifecycle.closed_at = self._ops
            self._closed_streams += 1
            raise ShardFailure(
                exc.shard,
                exc.stream_ids + [handle.index],
                exc.stream_names + [handle.name],
                exc.reason,
                opcode=exc.opcode,
            ) from exc
        handle.shard_id = target.id
        handle.local_index = int(new_local)
        while len(target.handles) <= handle.local_index:
            target.handles.append(None)
        target.handles[handle.local_index] = handle
        handle.lifecycle.migrations += 1
        handle.lifecycle.homes.append(target.id)
        self._migrations += 1
        record = {
            "stream": handle.index,
            "from": source.id,
            "to": target.id,
            "pending": int(carried),
            "bytes": len(body),
        }
        self.last_migration = record
        if self._recorder is not None:
            self._recorder.on_migrate(
                handle.index, source.id, target.id, int(carried)
            )
        return record

    def rescale(self, workers: int) -> dict:
        """Grow or shrink the worker fleet to ``workers`` processes, live.

        Growing spawns fresh workers booted on the *current* model generation
        (so a rescale after — or before — a :meth:`swap_model` broadcast
        keeps the whole fleet on one version; new admissions start landing on
        the empty workers immediately). Shrinking migrates every stream off
        the doomed workers onto the least-loaded survivors, then retires the
        drained workers newest-first behind a shutdown barrier — a worker is
        only reaped once it has acked, and a worker that fails mid-drain
        stays owned by the engine so :meth:`close` still reaps it and every
        emission ordering guarantee of :meth:`migrate_stream` applies
        per-stream.

        Returns ``{from, to, migrated, seconds}`` (``migrated`` = global
        stream ids moved, in drain order).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if self._closed:
            raise ValueError("engine is closed")
        self.start()
        before = self.workers
        migrated: list[int] = []
        t0 = time.perf_counter()
        if workers > before:
            for wid in range(before, workers):
                shard = _Shard(wid)
                self._spawn_shard(shard)
                self._shards.append(shard)
            self.workers = workers
        elif workers < before:
            survivors = self._shards[:workers]
            for shard in self._shards[workers:]:
                for h in list(shard.handles):
                    if h is None or h.closed:
                        continue
                    tgt = min(survivors, key=lambda s: (self._live_count(s), s.id))
                    self.migrate_stream(h, tgt.id)
                    migrated.append(h.index)
            # Drain barrier: victims are empty now. Retire newest-first so
            # shard id == list position survives a partial failure, and only
            # pop a shard once its process is actually reaped.
            while len(self._shards) > workers:
                self._retire_shard(self._shards[-1])
                self._shards.pop()
            self.workers = workers
        self._ops += 1
        self._rescales += 1
        if self._recorder is not None:
            self._recorder.on_rescale(before, workers)
        return {
            "from": before,
            "to": workers,
            "migrated": migrated,
            "seconds": time.perf_counter() - t0,
        }

    # -------------------------------------------------------------------- swap
    def _retire_unreferenced(self) -> None:
        """Unlink published segments no shard spec (and no boot spec) uses.

        Partial swaps make generations refcounted: a segment stays alive as
        long as *any* worker serves it or new workers would boot from it.
        Survivors close their mappings during a swap and a dead worker's
        mapping died with it, so an unreferenced generation unlinks safely
        (POSIX keeps it alive for any straggling mapping).
        """
        live = {self._model_spec[1]} if self._model_spec[0] == "shm" else set()
        for shard in self._shards:
            if shard.spec is not None and shard.spec[0] == "shm":
                live.add(shard.spec[1])
        for pub in list(self._publications):
            if pub.name not in live:
                self._publications.remove(pub)
                pub.close()
                pub.unlink()

    def swap_model(self, model, workers=None) -> dict:
        """Zero-downtime model replacement, broadcast to a cohort of shards.

        ``workers=None`` (the default) swaps the whole fleet; a list of
        worker ids narrows the broadcast to that cohort — the canary
        primitive :class:`~repro.registry.rollout.FleetRollout` stages
        rollouts with. The rest of the fleet keeps serving its current
        generation, untouched and undrained.

        Ordering guarantees (each is load-bearing, see DESIGN.md):

        1. geometry is validated *before* anything is drained or published —
           an incompatible artifact is refused while the old tables serve;
        2. every targeted shard's buffered accesses are dispatched first, so
           the outgoing model answers exactly the queries that preceded the
           swap;
        3. the new segment is published before any worker hears about it;
        4. the barrier (one drain-ack per targeted worker) completes before
           any superseded segment is unlinked — no worker can be left
           mid-attach on a vanished name. Segments are refcounted across
           generations: one is unlinked only once no shard references it.

        When the cohort converges the fleet back onto a single generation
        (a full swap, or the partial swap that covers the remainder), that
        generation becomes the boot spec for future workers (``rescale``
        growth spawns on it). Emissions drained by the swap are delivered to
        their handles' outboxes; a no-op swap is bit-identical to never
        swapping.

        Returns a record: ``{workers, version, drained}`` (the swapped worker
        ids, the installed version, the queries the barrier drained).
        """
        _, version = resolve_predictor(model, self.config)
        if workers is None:
            targets = list(self._shards)
        else:
            ids = sorted({int(w) for w in workers})
            if not ids:
                raise ValueError("workers=[] swaps nothing; pass None for the fleet")
            for w in ids:
                if not 0 <= w < self.workers:
                    raise ValueError(
                        f"worker {w} out of range (fleet has {self.workers})"
                    )
            targets = [self._shards[w] for w in ids]
        if not self._started:
            if len(targets) < self.workers:
                self.start()  # a cohort only exists once the fleet runs
            else:
                # No fleet yet: just replace the boot spec (and its segment).
                self._model_spec = self._publish_cached(model, version)
                self._model_version = version
                self._swaps += 1
                self._retire_unreferenced()
                if self._recorder is not None:
                    self._recorder.on_swap(model)
                return {"workers": [s.id for s in targets], "version": version,
                        "drained": 0}
        for shard in targets:
            self._dispatch(shard)
        # The outgoing generations stay tracked until the new one is safely
        # published and broadcast — if anything below raises, close() can
        # still unlink every segment that exists.
        spec = self._publish_cached(model, version)
        if spec[0] == "shm":
            meta, payload = 2, spec[1].encode("utf-8")
        else:
            meta, payload = 2 | 1, spec[1]
        # Broadcast + barrier. A shard that dies mid-broadcast must not
        # desynchronize the survivors: their acks are still consumed (so the
        # request-reply protocol stays in lockstep), the version counters
        # advance (every *live* targeted worker is on the new tables), and
        # the first failure is re-raised once the barrier completes.
        failures: list[ShardFailure] = []
        sent: list[_Shard] = []
        for shard in targets:
            try:
                self._send(shard, OP_SWAP, meta, payload)
                sent.append(shard)
            except ShardFailure as exc:
                failures.append(exc)
        drained = 0
        for shard in sent:  # barrier: every surviving targeted worker swapped
            try:
                d, body = self._expect(shard, REPLY_EMISSIONS)
                drained += int(d)
                self._route(shard, body)
            except ShardFailure as exc:
                failures.append(exc)
        for shard in targets:
            shard.spec = spec
            shard.version = version
        self.last_swap_drained = drained
        self._swaps += 1
        if all(s.spec == spec for s in self._shards):
            self._model_spec = spec
            self._model_version = version
        self._retire_unreferenced()
        if self._recorder is not None and not failures:
            self._recorder.on_swap(
                model,
                workers=None if workers is None else [s.id for s in targets],
                drained=drained,
            )
        if failures:
            raise failures[0]
        return {"workers": [s.id for s in targets], "version": version,
                "drained": drained}

    @property
    def swaps(self) -> int:
        return self._swaps

    @property
    def model_version(self) -> int | None:
        return self._model_version

    # ------------------------------------------------------------------- stats
    def _worker_stats(self) -> list[dict]:
        out = []
        for shard in self._shards:
            self._send(shard, OP_STATS, 0)
            op, _, payload = self._recv(shard)
            if op != REPLY_STATS:
                self._fail(shard, f"protocol error: got opcode {op} for STATS")
            out.append(json.loads(payload.decode("utf-8")))
        return out

    @property
    def predict_calls(self) -> int:
        return self.stats()["predict_calls"]

    @property
    def queries_answered(self) -> int:
        return self.stats()["queries_answered"]

    def stats(self) -> dict:
        """Aggregate serving counters across the whole fleet."""
        if not self._started:
            self.start()
        per_worker = self._worker_stats()
        calls = sum(w["engine"]["predict_calls"] for w in per_worker)
        answered = sum(w["engine"]["queries_answered"] for w in per_worker)
        fast = sum(w["engine"].get("fast_path_flushes", 0) for w in per_worker)
        replies = sum(s.replies for s in self._shards)
        overlapped = sum(s.overlapped for s in self._shards)
        return {
            "workers": self.workers,
            "streams": self.n_streams,
            "batch_size": self.batch_size,
            "max_wait": self.max_wait,
            "model_copies": 1 if self._model_spec[0] == "shm" else self.workers,
            "shm_bytes": self.shm_bytes,
            "model_version": self._model_version,
            "worker_versions": [s.version for s in self._shards],
            "swaps": self._swaps,
            "predict_calls": calls,
            "fast_path_flushes": fast,
            "queries_answered": answered,
            "mean_batch_fill": (answered / calls) if calls else 0.0,
            "start_method": self.start_method,
            "pipeline": {
                # Share of data-plane replies already waiting when the
                # frontend went to read them: how much worker compute
                # overlapped the frontend and the other workers.
                "overlap_ratio": (overlapped / replies) if replies else 0.0,
                # No credit window exists, so no send ever waits for a free
                # credit. Kept at 0 because perfbench's traced pass reads it.
                "credit_stalls": 0,
            },
            "elastic": {
                "opened": self._opened,
                "closed": self._closed_streams,
                "migrations": self._migrations,
                "rescales": self._rescales,
                "live_streams": self.n_streams,
                "ops": self._ops,
            },
        }

    def stream_stats(self) -> list[StreamStats]:
        """Per-live-stream serving stats straight off the workers.

        The elastic flows drive handles directly (no ``serve`` wall clock),
        so ``seconds`` is reported as 0 and throughput is undefined; the
        latency sketch, access/prefetch counts and lifecycle fields are exact
        — and a migrated stream's sketch travels with it, so
        ``latency_count`` is conserved across migrations and rescales.
        """
        if not self._started:
            self.start()
        out = [stats for _, _, stats in self._live_stream_stats(0.0)]
        out.sort(key=lambda s: s.extra["stream"])
        return out

    def _live_stream_stats(self, seconds: float) -> list[tuple]:
        """``(handle, sketch state, StreamStats)`` per live stream, worker by
        worker, with ``seconds`` as each stream's wall clock."""
        out = []
        for shard, wstats in zip(self._shards, self._worker_stats()):
            for h, s in zip(shard.handles, wstats["streams"]):
                if h is None or h.closed or s is None:
                    continue
                sk = _LatencySketch.merge([s["sketch"]])
                out.append((h, s["sketch"], sk.to_stats(
                    h.name, s["accesses"], s["prefetches"], seconds,
                    {"stream": h.index, "shard": shard.id,
                     "latency_count": sk.count,
                     **h.lifecycle.to_dict()},
                )))
        return out

    # ------------------------------------------------------------- serve loop
    def serve(
        self, sources, collect: bool = False
    ) -> tuple[StreamStats, list[StreamStats], list[list[list[int]]] | None]:
        """Drive one finite source per *live* stream through the fleet;
        mirrored on :func:`~repro.runtime.multistream.serve_interleaved`.

        This is the whole-trace convenience driver, not a fleet freeze: the
        engine stays fully elastic before, between, and after ``serve`` runs
        (``open_stream`` / ``close_stream`` / ``migrate_stream`` /
        ``rescale`` at any point — drive the handles directly to interleave
        churn with serving, as the churn fuzz and ``repro stream --churn``
        do). Sources pair with the open handles in admission order; with no
        streams registered yet, one is admitted per source.

        Accesses are pre-partitioned per shard and shipped in
        ``serve_chunk``-sized frames — all shards receive their chunk before
        any reply is read, so the workers' predicts overlap in wall-clock.
        Per-access latency is measured inside each worker (pipe transit
        excluded, predict cost included) and the sketches are merged here;
        ``seconds``/throughput is the frontend's wall clock over the whole
        run. Returns ``(aggregate, per_stream, lists)``.
        """
        if self.n_streams == 0:
            self.streams(len(sources))
        live = self.live_handles
        if len(sources) != len(live):
            raise ValueError(
                f"need one source per live stream ({len(live)} open, "
                f"{len(sources)} sources)"
            )
        pos = {h.index: p for p, h in enumerate(live)}
        self.start()
        self.reset()
        # Materialize each stream as (pc, addr) int64 columns.
        cols: list[np.ndarray] = []
        for src in sources:
            if hasattr(src, "pcs") and hasattr(src, "addrs"):
                pcs = np.asarray(src.pcs, dtype=np.int64)
                addrs = np.asarray(src.addrs, dtype=np.int64)
            else:
                pairs = np.asarray(list(access_pairs(src)), dtype=np.int64)
                pairs = pairs.reshape(-1, 2)
                pcs, addrs = pairs[:, 0], pairs[:, 1]
            cols.append(np.stack([pcs, addrs], axis=1))
        # Per shard: one (k, 3) frame stream, streams interleaved round-robin
        # by per-stream position (the order serve_interleaved would feed them).
        merged: list[np.ndarray] = []
        for shard in self._shards:
            parts, order_keys = [], []
            for h in shard.handles:
                if h is None or h.closed:
                    continue
                c = cols[pos[h.index]]
                part = np.empty((len(c), 3), dtype=np.int64)
                part[:, 0] = h.local_index
                part[:, 1:] = c
                parts.append(part)
                order_keys.append(np.arange(len(c), dtype=np.int64))
            if not parts:
                merged.append(np.empty((0, 3), dtype=np.int64))
                continue
            allrows = np.concatenate(parts)
            order = np.lexsort((allrows[:, 0], np.concatenate(order_keys)))
            merged.append(allrows[order])
        lists: list[list[list[int]]] | None = (
            [[[] for _ in range(len(cols[g]))] for g in range(len(live))]
            if collect
            else None
        )
        # A recorder needs the emission payloads even when the caller did not
        # ask for them: force delivery and drain the outboxes (handle.poll is
        # the recording funnel). The accesses are logged up front, in the same
        # round-robin-by-position order serve_interleaved would issue them —
        # per-stream order is what replay (and the emission invariant) keys on.
        recording = self._recorder is not None
        deliver = collect or recording
        if recording:
            rounds = max((len(c) for c in cols), default=0)
            for p in range(rounds):
                for h in live:
                    c = cols[pos[h.index]]
                    if p < len(c):
                        self._recorder.on_access(
                            h.index, int(c[p, 0]), int(c[p, 1])
                        )

        def consume_outboxes():
            if not deliver:
                return
            for handle in live:
                for em in handle.poll():
                    if collect:
                        lists[pos[handle.index]][em.seq] = list(em.blocks)

        cursors = [0] * len(self._shards)
        chunk = self.serve_chunk
        t0 = time.perf_counter()
        while True:
            # Every idle worker gets its next chunk…
            sent = 0
            for shard in self._shards:
                data = merged[shard.id]
                lo = cursors[shard.id]
                if shard.outstanding is None and lo < len(data):
                    hi = min(lo + chunk, len(data))
                    cursors[shard.id] = hi
                    self._send_data(
                        shard, OP_ACCESS, deliver, data[lo:hi].tobytes()
                    )
                    sent += 1
            # …then commit whatever replies have landed, from any worker —
            # a slow shard never gates the drain of a faster one.
            drained = sum(self._drain_ready(shard) for shard in self._shards)
            if drained:
                consume_outboxes()
            pending = [s for s in self._shards if s.outstanding is not None]
            if not pending and all(
                cursors[s.id] >= len(merged[s.id]) for s in self._shards
            ):
                break
            if not sent and not drained and pending:
                # Every worker is busy: park in the select across all
                # emission channels until one reply is ready.
                self._wait_data_reply(pending)
        if recording:
            self._recorder.on_flush()
        for shard in self._shards:  # drain barrier: flush all, then commit
            self._send_data(shard, OP_FLUSH, deliver)
        for shard in self._shards:
            self._quiesce(shard)
        consume_outboxes()
        seconds = time.perf_counter() - t0

        rows = self._live_stream_stats(seconds)
        per_stream: list[StreamStats] = [None] * len(live)  # type: ignore
        for h, _, stats in rows:
            per_stream[pos[h.index]] = stats
        agg_sketch = _LatencySketch.merge([state for _, state, _ in rows])
        aggregate = agg_sketch.to_stats(
            f"{self.n_streams}-stream/{self.workers}-worker",
            sum(s.accesses for s in per_stream),
            sum(s.prefetches for s in per_stream),
            seconds,
            {"streams": self.n_streams, "workers": self.workers,
             "latency_count": agg_sketch.count},
        )
        return aggregate, per_stream, lists

    # ---------------------------------------------------------------- lifetime
    def close(self) -> None:
        """Stop the fleet and unlink every segment this engine published.

        Idempotent, and deliberately tolerant: a worker that already died
        (crash injection, kill -9) is reaped with ``terminate``/``kill``, and
        segment unlinking runs regardless — no name leaks into ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        # Commit any outstanding data reply first so the shutdown ack below
        # is the next frame on each pipe, not a stale data reply. A shard
        # that already died can't be drained — skip it, the reap below
        # handles the corpse.
        for shard in self._shards:
            try:
                self._quiesce(shard)
            except (ShardFailure, OSError):
                pass
        # Two passes so the exit requests overlap: every worker hears the
        # shutdown before any join blocks on a straggler.
        for shard in self._shards:
            self._shutdown_shard(shard, ack_timeout=1.0)
        for shard in self._shards:
            self._reap_shard(shard)
        for pub in self._publications:
            try:
                pub.close()
            except BufferError:  # pragma: no cover
                pass
            pub.unlink()
        self._publications = []

    def __enter__(self) -> "ShardedEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
