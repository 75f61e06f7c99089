"""Session recording: capture a live serving session into a replayable trace.

The churn fuzz proves invariants on *synthetic* schedules; production needs
the inverse — capture a real session and replay it as a permanent regression
test. A :class:`SessionRecorder` attaches to any engine
(:class:`~repro.runtime.sharded.ShardedEngine`,
:class:`~repro.runtime.multistream.MultiStreamEngine`, including the
one-stream engine ``stream()`` returns) and captures the full session:

* the **schedule** — every access in arrival order, interleaved with the
  control-plane ops (open/close/migrate/rescale/swap/flush/reset) exactly
  where they fired;
* the **emission stream** — every delivered emission, attributed to its
  stream in delivery order (the bit-identity oracle replay checks against);
* the **models** — the boot model and every swap target, embedded as
  ``DARTMDL1`` wire blobs keyed by their content digest (the same SHA-256
  the PR 7 registry addresses objects by), so a trace is self-contained and
  registry-resolvable at once.

Everything lands in a versioned, self-describing ``DARTTRC1`` container —
JSON manifest + raw int64/uint8 payload via
:func:`repro.utils.serialization.pack_arrays`, the same no-pickle container
as ``DARTSNP1`` stream snapshots and ``DARTMDL1`` model blobs. See
:mod:`repro.runtime.replay` for the replay driver and the declarative
contracts it enforces.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.runtime.artifact import encode_model
from repro.runtime.streaming import Emission
from repro.utils.serialization import pack_arrays, unpack_arrays

#: the session-trace container family (manifest + payload, no pickle)
TRACE_MAGIC = b"DARTTRC1"
#: bumped when the event schema changes; replay refuses skewed traces
TRACE_FORMAT = 1

# Event kinds. One row per event: (kind, stream, a, b, c) int64.
EV_OPEN = 1      # stream admitted; a = shard id at admission (-1 if n/a)
EV_ACCESS = 2    # a = pc, b = byte address
EV_EMIT = 3      # a = seq, b = offset into the blocks array, c = n blocks
EV_FLUSH = 4     # schedule-level flush barrier (engine-wide)
EV_CLOSE = 5     # stream retired
EV_MIGRATE = 6   # a = source worker, b = target worker, c = pending carried
EV_RESCALE = 7   # a = fleet size before, b = after
EV_SWAP = 8      # a = index into meta["swaps"], b = queries drained
EV_RESET = 9     # reset; stream = -1 for engine-wide, else that stream only

EVENT_NAMES = {
    EV_OPEN: "open", EV_ACCESS: "access", EV_EMIT: "emit", EV_FLUSH: "flush",
    EV_CLOSE: "close", EV_MIGRATE: "migrate", EV_RESCALE: "rescale",
    EV_SWAP: "swap", EV_RESET: "reset",
}


def _preprocess_meta(config) -> dict:
    return dataclasses.asdict(config)


class SessionTrace:
    """One recorded serving session, loadable/savable as ``DARTTRC1`` bytes.

    ``events`` is an ``(n, 5)`` int64 array of ``(kind, stream, a, b, c)``
    rows (see the ``EV_*`` constants); ``blocks`` is the flat int64 pool
    ``EV_EMIT`` rows slice their block lists out of; ``models`` maps content
    digests to ``DARTMDL1`` wire blobs; ``meta`` is the JSON manifest block
    (engine config, stream names, swap records, timing, summary).
    """

    def __init__(self, events: np.ndarray, blocks: np.ndarray, meta: dict,
                 models: dict[str, bytes]):
        self.events = np.asarray(events, dtype=np.int64).reshape(-1, 5)
        self.blocks = np.asarray(blocks, dtype=np.int64).reshape(-1)
        self.meta = meta
        self.models = dict(models)

    # ------------------------------------------------------------------ codec
    def to_bytes(self) -> bytes:
        arrays: dict[str, np.ndarray] = {
            "events": self.events,
            "blocks": self.blocks,
        }
        for digest, blob in sorted(self.models.items()):
            arrays[f"models/{digest}"] = np.frombuffer(blob, dtype=np.uint8)
        meta = dict(self.meta)
        meta["trace_format"] = TRACE_FORMAT
        return pack_arrays(arrays, TRACE_MAGIC, meta=meta, what="session trace")

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SessionTrace":
        arrays, meta = unpack_arrays(buf, TRACE_MAGIC, what="session trace")
        fmt = meta.get("trace_format")
        if fmt != TRACE_FORMAT:
            raise ValueError(
                f"session trace format {fmt!r}; this build replays "
                f"format {TRACE_FORMAT}"
            )
        if "events" not in arrays or "blocks" not in arrays:
            raise ValueError("session trace is missing its event log")
        models = {
            key.split("/", 1)[1]: arrays[key].tobytes()
            for key in arrays
            if key.startswith("models/")
        }
        # Copies: unpack_arrays returns read-only views into the buffer.
        return cls(
            arrays["events"].copy(), arrays["blocks"].copy(), meta, models
        )

    def save(self, path: str) -> int:
        data = self.to_bytes()
        with open(path, "wb") as f:
            f.write(data)
        return len(data)

    @classmethod
    def load(cls, path: str) -> "SessionTrace":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())

    # ------------------------------------------------------------- projections
    @property
    def stream_names(self) -> list[str]:
        return list(self.meta.get("streams", []))

    def accesses(self) -> dict[int, list[tuple[int, int]]]:
        """Per-stream ``(pc, addr)`` pairs since each stream's last reset.

        A reset truncates the stream's emission obligation (its pending
        queries are discarded, its seq restarts), so pre-reset accesses drop
        out of the projection — mirroring what replay re-executes.
        """
        out: dict[int, list[tuple[int, int]]] = {}
        ev = self.events
        for k in range(len(ev)):
            kind, s = int(ev[k, 0]), int(ev[k, 1])
            if kind == EV_ACCESS:
                out.setdefault(s, []).append((int(ev[k, 2]), int(ev[k, 3])))
            elif kind == EV_RESET:
                for key in ([s] if s >= 0 else list(out)):
                    out.get(key, []).clear()
        return out

    def emissions(self) -> dict[int, list[Emission]]:
        """Per-stream recorded emissions (since each stream's last reset),
        in delivery order."""
        out: dict[int, list[Emission]] = {}
        ev, blocks = self.events, self.blocks
        for k in range(len(ev)):
            kind, s = int(ev[k, 0]), int(ev[k, 1])
            if kind == EV_EMIT:
                off, n = int(ev[k, 3]), int(ev[k, 4])
                out.setdefault(s, []).append(
                    Emission(int(ev[k, 2]), blocks[off:off + n].tolist())
                )
            elif kind == EV_RESET:
                for key in ([s] if s >= 0 else list(out)):
                    out.get(key, []).clear()
        return out

    def summary(self) -> dict:
        return dict(self.meta.get("summary", {}))


class SessionRecorder:
    """Capture one serving session into a :class:`SessionTrace`.

    Attach to an engine (:meth:`attach`) *before* driving it. Every schedule
    event and every delivered emission is appended to the in-memory event
    log; :meth:`trace` seals the log into a container, :meth:`save` writes it
    to disk.

    Engines call the ``on_*`` hooks; they are cheap appends (no copies, no
    encoding) except :meth:`on_swap`, which encodes the incoming model once
    through the ``DARTMDL1`` wire codec to digest and embed it.
    """

    def __init__(self):
        self._events: list[tuple[int, int, int, int, int]] = []
        self._blocks: list[int] = []
        self._models: dict[str, bytes] = {}
        self._swaps: list[dict] = []
        self._names: list[str] = []
        self._engine_meta: dict = {}
        self._preprocess: dict = {}
        self._timing: dict = {}
        self._boot_digest: str | None = None
        self._accesses = 0
        self._emissions = 0
        self._prefetches = 0

    # ------------------------------------------------------------- attachment
    def _embed(self, model) -> str:
        """Embed ``model``'s wire blob under its SHA-256 (the registry's
        content address, so a trace's models are registry-resolvable)."""
        blob = encode_model(model)
        digest = hashlib.sha256(blob).hexdigest()
        self._models.setdefault(digest, blob)
        return digest

    def attach(self, engine, model=None):
        """Instrument ``engine``; returns it for chaining.

        ``model`` (optional) is the boot model — embedding it makes the trace
        self-contained, so :func:`~repro.runtime.replay.replay` needs no
        external artifact. Streams already registered on the engine are
        recorded as opened at the head of the schedule.
        """
        from repro.runtime.multistream import MultiStreamEngine
        from repro.runtime.sharded import ShardedEngine

        if isinstance(engine, ShardedEngine):
            ek = engine._engine_kwargs
            self._engine_meta = {
                "column": "sharded",
                "workers": engine.workers,
                "batch_size": engine.batch_size,
                "max_wait": engine.max_wait,
                "threshold": ek["threshold"],
                "max_degree": ek["max_degree"],
                "decode": ek["decode"],
                "io_chunk": engine.io_chunk,
            }
            self._timing = {"reply_timeout": engine.reply_timeout}
            self._preprocess = _preprocess_meta(engine.config)
            existing = [
                (h, self._shard_of(engine, h)) for h in engine._handles
            ]
        elif isinstance(engine, MultiStreamEngine):
            path = engine._path
            self._engine_meta = {
                "column": "multistream",
                "workers": 1,
                "batch_size": engine.batch_size,
                "max_wait": engine.max_wait,
                "threshold": path.threshold,
                "max_degree": path.max_degree,
                "decode": path.decode,
            }
            self._preprocess = _preprocess_meta(engine.config)
            existing = [(h, -1) for h in engine._handles if h is not None]
        else:
            raise TypeError(
                f"cannot record a {type(engine).__name__}: attach() takes a "
                "ShardedEngine or MultiStreamEngine"
            )
        if model is not None:
            self._boot_digest = self._embed(model)
        engine._recorder = self
        for handle, shard in existing:
            self.on_open(handle.index, handle.name, shard)
        return engine

    @staticmethod
    def _shard_of(engine, handle) -> int:
        return getattr(handle, "shard_id", -1)

    # ------------------------------------------------------------------ hooks
    def on_open(self, stream: int, name: str, shard: int = -1) -> int:
        while len(self._names) <= stream:
            self._names.append(f"stream[{len(self._names)}]")
        self._names[stream] = str(name)
        self._events.append((EV_OPEN, int(stream), int(shard), 0, 0))
        return int(stream)

    def on_access(self, stream: int, pc: int, addr: int) -> None:
        self._accesses += 1
        self._events.append((EV_ACCESS, int(stream), int(pc), int(addr), 0))

    def on_emissions(self, stream: int, emissions) -> None:
        for em in emissions:
            off = len(self._blocks)
            self._blocks.extend(int(b) for b in em.blocks)
            self._events.append(
                (EV_EMIT, int(stream), int(em.seq), off, len(em.blocks))
            )
            self._emissions += 1
            self._prefetches += len(em.blocks)

    def on_flush(self) -> None:
        self._events.append((EV_FLUSH, -1, 0, 0, 0))

    def on_close(self, stream: int) -> None:
        self._events.append((EV_CLOSE, int(stream), 0, 0, 0))

    def on_migrate(self, stream: int, source: int, target: int,
                   pending: int) -> None:
        self._events.append(
            (EV_MIGRATE, int(stream), int(source), int(target), int(pending))
        )

    def on_rescale(self, before: int, after: int) -> None:
        self._events.append((EV_RESCALE, -1, int(before), int(after), 0))

    def on_swap(self, model, workers=None, drained: int = 0) -> None:
        digest = self._embed(model)
        ordinal = len(self._swaps)
        self._swaps.append({
            "digest": digest,
            "workers": None if workers is None else [int(w) for w in workers],
            "drained": int(drained),
        })
        self._events.append((EV_SWAP, -1, ordinal, int(drained), 0))

    def on_reset(self, stream: int = -1) -> None:
        """``stream >= 0`` is a per-stream reset; ``-1`` is engine-wide."""
        self._events.append((EV_RESET, int(stream), 0, 0, 0))

    # ------------------------------------------------------------------- seal
    def trace(self) -> SessionTrace:
        """Seal the log into a :class:`SessionTrace` (the log keeps growing
        if the session continues; each call snapshots the session so far)."""
        events = (
            np.asarray(self._events, dtype=np.int64).reshape(-1, 5)
            if self._events else np.empty((0, 5), dtype=np.int64)
        )
        meta = {
            "kind": "session",
            "engine": dict(self._engine_meta),
            "preprocess": dict(self._preprocess),
            "streams": list(self._names),
            "swaps": [dict(s) for s in self._swaps],
            "boot_model": self._boot_digest,
            "timing": dict(self._timing),
            "summary": {
                "accesses": self._accesses,
                "emissions": self._emissions,
                "prefetches": self._prefetches,
            },
        }
        return SessionTrace(
            events, np.asarray(self._blocks, dtype=np.int64), meta,
            self._models,
        )

    def save(self, path: str) -> int:
        return self.trace().save(path)

