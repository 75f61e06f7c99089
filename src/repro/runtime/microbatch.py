"""Micro-batched online serving for the learned predictors.

The tabular/NN predictors are vectorized: one ``predict_proba`` call on a
``(B, T, S)`` batch costs far less than ``B`` calls on ``(1, T, S)`` slices,
because the per-call Python and NumPy dispatch overhead dominates at batch 1.
A real deployment therefore queues triggers briefly and answers them in
bursts. The machinery splits into two halves with different sharing rules:

* :class:`StreamState` — the **per-tenant** half. Each access stream (a core,
  a client, a trace shard) owns its feature rings and pending queue: the
  single new (block, PC) pair is segmented once, at arrival, into a
  preallocated mirrored ring (each row written at ``i % C`` and ``i % C + C``
  so every length-``T`` history window is a contiguous slice). Histories are
  never re-segmented — the window for access ``n`` shares ``T - 1`` rows with
  the window for ``n - 1``, mirroring the batch path's
  ``sliding_window_view``. This state must never be shared across streams;
  mixing two streams' rings would corrupt every window.
* :class:`_FlushPath` — the **shared** half. It owns the preallocated gather
  buffers and the predictor, and can answer pending queries from *any number
  of stream states* with **one** vectorized ``predict_proba`` call: the flush
  gathers each stream's windows (one ``np.take`` per stream into slices of
  the shared batch buffer), predicts once, and the shared
  :func:`~repro.prefetch.nn_prefetcher.decode_bitmap_probs` turns each row
  into prefetch candidates — the same decode the batch path runs, which is
  why all serving paths are bit-identical.

:class:`MicroBatcher` composes one ``StreamState`` with a ``_FlushPath``:
the single-stream engine. A flush fires when ``batch_size`` queries are
pending, when the oldest pending query has waited ``max_wait`` accesses (the
deadline that bounds worst-case response time), or on demand
(:meth:`~MicroBatcher.flush`).
:class:`~repro.runtime.multistream.MultiStreamEngine` composes N stream
states with one ``_FlushPath``, coalescing queries across streams so a batch
fills N× faster and the model is stored once.

:class:`StreamingModelPrefetcher` wraps a micro-batcher in the
:class:`~repro.runtime.streaming.StreamingPrefetcher` protocol; it is what
``DARTPrefetcher.stream()`` / ``NeuralPrefetcher.stream()`` return.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.data.dataset import PreprocessConfig
from repro.prefetch.nn_prefetcher import SingleRowDecoder, decode_bitmap_probs
from repro.runtime.streaming import Emission, StreamingPrefetcher
from repro.tabularization.transitions import CodeMapCache
from repro.utils.bits import block_address

#: Head code tuples the single-query emission memo holds before it is cleared
#: (a K=128, C=2 head has 16,384).
EMISSION_MEMO_TUPLES = 16_384


def resolve_predictor(model, config: PreprocessConfig):
    """Normalize a swap/install target into ``(predict_proba, version)``.

    Accepts a raw ``predict_proba`` callable, any object exposing one (the
    tabular or NN predictors), or a
    :class:`~repro.runtime.artifact.ModelArtifact` (whose version id is
    surfaced). Geometry is validated against the engine's preprocessing
    config *before* anything is installed, so an incompatible swap is refused
    while the old tables keep serving.
    """
    from repro.runtime.artifact import is_model_artifact

    version = None
    if is_model_artifact(model):
        version = int(model.version)
        model = model.model
    # Tabular predictors expose model_config; the NN predictors expose the
    # same ModelConfig as .config — validate whichever is present.
    mc = getattr(model, "model_config", None)
    if mc is None:
        mc = getattr(model, "config", None)
    if mc is not None and hasattr(mc, "bitmap_size") and hasattr(mc, "history_len"):
        if (mc.bitmap_size, mc.history_len) != (config.bitmap_size, config.history_len):
            raise ValueError(
                f"model geometry (bitmap={mc.bitmap_size}, T={mc.history_len}) "
                f"does not match the engine (bitmap={config.bitmap_size}, "
                f"T={config.history_len}); swap refused"
            )
    predict = model if callable(model) and not hasattr(model, "predict_proba") else model.predict_proba
    return predict, version


class StreamState:
    """Per-stream featurization state: mirrored feature rings + pending queue.

    ``depth`` is the flush path's batch size ``B``: a window's oldest row must
    survive until its query flushes, and a query can have at most ``B - 1``
    same-stream accesses arrive behind it before the (global) batch is full,
    so ring capacity ``T + B`` suffices — for the single-stream engine and
    for a stream sharing a flush path with any number of others.
    """

    def __init__(self, config: PreprocessConfig, depth: int):
        seg = config.segmenter()
        self.seg = seg
        self.t_hist = config.history_len
        #: ring capacity (see class docstring)
        self.cap = self.t_hist + int(depth)
        cap = self.cap
        # Mirrored rings (each row written at r and r + cap): contiguous windows.
        self.addr_ring = np.zeros((2 * cap, seg.n_addr_segments), dtype=np.float64)
        self.pc_ring = np.zeros((2 * cap, seg.n_pc_segments), dtype=np.float64)
        self.anchors = np.zeros(cap, dtype=np.int64)
        #: index of the next access of *this stream*
        self.seq = 0
        #: seqs featurized but not yet answered
        self.pending: list[int] = []

    def push(self, pc: int, addr: int) -> Emission | None:
        """Featurize one access.

        Returns the warm-up emission (empty candidates) while the stream has
        no full history yet; afterwards returns ``None`` and appends the seq
        to :attr:`pending` for the owner's flush policy to answer.
        """
        seq = self.seq
        self.seq = seq + 1
        cap = self.cap
        blk = int(block_address(int(addr)))
        r = seq % cap
        self.seg.segment_access_into(blk, int(pc), self.addr_ring[r], self.pc_ring[r])
        self.addr_ring[r + cap] = self.addr_ring[r]
        self.pc_ring[r + cap] = self.pc_ring[r]
        self.anchors[r] = blk
        if seq < self.t_hist - 1:
            # Warm-up: no full history yet — answer "nothing" immediately so
            # downstream consumers (merge, filter) see every seq exactly once.
            return Emission(seq, [])
        self.pending.append(seq)
        return None

    def oldest_age(self) -> int:
        """Accesses of this stream that arrived after the oldest pending query."""
        return (self.seq - 1) - self.pending[0] if self.pending else 0

    def reset(self) -> None:
        self.seq = 0
        self.pending.clear()
        # Stale rows can never feed a prediction (warm-up rewrites every row a
        # window can reach before the first query), but zeroing keeps the
        # post-reset state bit-identical to a freshly built stream — pinned by
        # the serve-reset-serve test.
        self.addr_ring[:] = 0.0
        self.pc_ring[:] = 0.0
        self.anchors[:] = 0

    # ---------------------------------------------------------------- snapshot
    def freeze(self) -> dict[str, np.ndarray]:
        """Snapshot the full featurization state as a flat array dict.

        The snapshot captures everything serving needs — mirrored rings,
        anchors, the stream clock and the *unanswered* pending queue — plus
        the geometry it was taken under, so :meth:`thaw` can refuse a
        mismatched rehydration with a named error instead of corrupting
        windows. Arrays are copies: the snapshot stays valid after the live
        state moves on (or is retired by a migration).
        """
        return {
            "snapshot/format": np.asarray([SNAPSHOT_FORMAT], dtype=np.int64),
            "snapshot/geometry": np.asarray(
                [self.t_hist, self.cap,
                 self.seg.n_addr_segments, self.seg.n_pc_segments],
                dtype=np.int64,
            ),
            "snapshot/seq": np.asarray([self.seq], dtype=np.int64),
            "snapshot/pending": np.asarray(self.pending, dtype=np.int64),
            "snapshot/addr_ring": self.addr_ring.copy(),
            "snapshot/pc_ring": self.pc_ring.copy(),
            "snapshot/anchors": self.anchors.copy(),
        }

    @classmethod
    def thaw(
        cls, config: PreprocessConfig, depth: int, snapshot: dict
    ) -> "StreamState":
        """Rebuild a stream state bit-identically from a :meth:`freeze` dict.

        The target geometry (``config`` + flush depth) must match the
        snapshot's exactly — rings laid out for a different capacity or
        segmenter cannot hold the same windows, so a mismatch raises
        ``ValueError`` before anything is built.
        """
        fmt = int(np.asarray(snapshot["snapshot/format"]).ravel()[0])
        if fmt != SNAPSHOT_FORMAT:
            raise ValueError(
                f"stream snapshot format {fmt}; this build reads "
                f"format {SNAPSHOT_FORMAT}"
            )
        state = cls(config, depth)
        want = (state.t_hist, state.cap,
                state.seg.n_addr_segments, state.seg.n_pc_segments)
        got = tuple(int(v) for v in np.asarray(snapshot["snapshot/geometry"]).ravel())
        if got != want:
            raise ValueError(
                f"stream snapshot geometry (T, cap, addr_segs, pc_segs)={got} "
                f"does not match the target engine {want}; thaw refused"
            )
        state.addr_ring[...] = snapshot["snapshot/addr_ring"]
        state.pc_ring[...] = snapshot["snapshot/pc_ring"]
        state.anchors[...] = snapshot["snapshot/anchors"]
        state.seq = int(np.asarray(snapshot["snapshot/seq"]).ravel()[0])
        state.pending = [int(s) for s in np.asarray(snapshot["snapshot/pending"]).ravel()]
        return state


# ------------------------------------------------------------ snapshot codec
#: bump when the freeze() key set or semantics change
SNAPSHOT_FORMAT = 1
SNAPSHOT_MAGIC = b"DARTSNP1"


def snapshot_to_bytes(snapshot: dict[str, np.ndarray]) -> bytes:
    """Pack a flat array dict into one self-describing byte string.

    The shared container idiom (MAGIC, uint64 manifest length, JSON
    manifest, raw contiguous payloads) now lives once in
    :mod:`repro.registry.codec`; this is the ``DARTSNP1`` instantiation —
    what a frozen stream travels through the sharded engine's
    length-prefixed pipe protocol as. No pickle.
    """
    from repro.registry.codec import pack_arrays

    return pack_arrays(snapshot, SNAPSHOT_MAGIC, what="stream-state snapshot")


def snapshot_from_bytes(buf: bytes) -> dict[str, np.ndarray]:
    """Unpack :func:`snapshot_to_bytes` output; named errors on bad framing."""
    from repro.registry.codec import unpack_arrays

    arrays, _ = unpack_arrays(buf, SNAPSHOT_MAGIC, what="stream-state snapshot")
    # Writable copies, detached from the wire buffer (thaw mutates rings).
    return {key: arr.copy() for key, arr in arrays.items()}


class _FlushPath:
    """Shared flush machinery: gather → one vectorized predict → decode.

    Holds the preallocated ``(B, T, S)`` gather buffers and the (single)
    predictor reference; :meth:`flush` answers pending queries from any
    number of :class:`StreamState` instances in one ``predict_proba`` call.
    """

    def __init__(
        self,
        predict_proba,
        config: PreprocessConfig,
        threshold: float,
        max_degree: int,
        decode: str,
        batch_size: int,
    ):
        self.threshold = float(threshold)
        self.max_degree = int(max_degree)
        self.decode = decode
        self.batch_size = int(batch_size)
        seg = config.segmenter()
        t_hist = config.history_len
        self._t_hist = t_hist
        b = self.batch_size
        self._x_addr = np.empty((b, t_hist, seg.n_addr_segments), dtype=np.float64)
        self._x_pc = np.empty((b, t_hist, seg.n_pc_segments), dtype=np.float64)
        self._anchors = np.empty(b, dtype=np.int64)
        self._probs = np.empty((b, config.bitmap_size), dtype=np.float64)
        self._win = np.arange(t_hist, dtype=np.intp)
        #: row-wise decode twin (bit-identical; used by the k == 1 dispatch)
        self._decode1 = SingleRowDecoder(config.bitmap_size, threshold, max_degree, decode)
        #: vectorized predict calls issued (the quantity shared batching cuts)
        self.predict_calls = 0
        #: queries answered across all calls
        self.queries_answered = 0
        #: model replacements installed (0 = still on the boot model)
        self.swaps = 0
        #: version id of the installed model, when known (ModelArtifact swaps)
        self.model_version: int | None = None
        #: flushes answered by the single-query fast path (k == 1 dispatches)
        self.fast_path_flushes = 0
        self.set_predictor(predict_proba)
        self.swaps = 0  # installing the boot model is not a swap

    def set_predictor(self, predict_proba, version: int | None = None) -> None:
        """Install a new predict callable (the table side of a hot swap).

        Callers must have drained pending queries first — the flush policies
        do (see ``swap_model``); the gather buffers are geometry-bound and
        keep being valid because swaps are refused unless the new model
        matches the engine's preprocessing config.

        When the callable is a bound method of a model exposing
        ``fast_path()`` (the tabular predictor), the single-query plan is
        built here, once per install — so one-row flushes skip the generic
        n-row gather/predict machinery entirely. A swap replaces the plan
        with the new model's (never reuses the old one).
        """
        self._predict = predict_proba
        try:
            params = inspect.signature(predict_proba).parameters
            self._supports_out = "out" in params
        except (TypeError, ValueError):  # builtins / C callables
            self._supports_out = False
        fast = None
        model = getattr(predict_proba, "__self__", None)
        if model is not None and hasattr(model, "fast_path"):
            fast = model.fast_path()
            if (
                fast.t_hist != self._t_hist
                or fast.bitmap_size != self._probs.shape[1]
            ):  # geometry-incompatible plan: serve generically
                fast = None
        self._fast = fast
        #: head code tuple -> deltas of the k == 1 path: it belongs to this
        #: install's decode policy, and is rebuilt when the head or sigmoid
        #: table it was decoded from is rebound
        self._emissions = CodeMapCache()
        self.swaps += 1
        if version is not None:
            self.model_version = version

    def flush(self, groups: list[tuple[StreamState, list[int]]]) -> list[list[Emission]]:
        """Answer each group's pending seqs; one predict call for all groups.

        Callers own the pending lists (this method does not clear them). The
        total query count must not exceed ``batch_size`` — the flush policies
        (single- and multi-stream) flush as soon as the batch fills, so the
        bound holds by construction.
        """
        k = sum(len(pend) for _, pend in groups)
        if k == 0:
            return [[] for _ in groups]
        if k > self.batch_size:
            raise ValueError(f"{k} pending queries exceed batch_size={self.batch_size}")
        t = self._t_hist
        if k == 1 and self._fast is not None:
            # Single-query dispatch: the window for seq is a *contiguous*
            # slice of the mirrored ring (rows r+cap-T+1 .. r+cap), so it
            # feeds the fused plan as a view — no gather, no batch predict.
            # Its deltas are a function of its head codes, so each distinct
            # head tuple is decoded once, at anchor 0, and each query adds
            # its own anchor. Bit-identity with the generic path is pinned
            # by the serving-conformance matrix.
            for state, pend in groups:
                if pend:
                    break
            cap = state.cap
            r = pend[0] % cap
            lo = r + cap - t + 1
            fast = self._fast
            codes = fast.head_codes(state.addr_ring[lo : lo + t], state.pc_ring[lo : lo + t])
            model = fast.model
            memo = self._emissions.get((model.head_table.table, model.sigmoid.table), dict)
            key = codes.tobytes()
            deltas = memo.get(key)
            if deltas is None:
                if len(memo) >= EMISSION_MEMO_TUPLES:
                    memo.clear()
                fast.head_proba_into(codes, self._probs[:1])
                deltas = memo[key] = tuple(self._decode1.decode1(self._probs[0], 0))
            anchor = int(state.anchors[r])
            lists = [[anchor + d for d in deltas]]
            self.fast_path_flushes += 1
        else:
            offset = 0
            for state, pend in groups:
                kk = len(pend)
                if kk == 0:
                    continue
                pos = np.asarray(pend, dtype=np.intp) % state.cap
                # Window rows for seq: mirrored-ring indices r+cap-T+1 .. r+cap.
                rows = pos[:, None] + (state.cap - t + 1) + self._win[None, :]
                np.take(state.addr_ring, rows, axis=0, out=self._x_addr[offset : offset + kk])
                np.take(state.pc_ring, rows, axis=0, out=self._x_pc[offset : offset + kk])
                self._anchors[offset : offset + kk] = state.anchors[pos]
                offset += kk
            if self._supports_out:
                probs = self._predict(
                    self._x_addr[:k], self._x_pc[:k],
                    batch_size=self.batch_size, out=self._probs[:k],
                )
            else:
                probs = self._predict(self._x_addr[:k], self._x_pc[:k], batch_size=self.batch_size)
            lists = decode_bitmap_probs(
                probs, self._anchors[:k], self.threshold, self.max_degree, self.decode
            )
        self.predict_calls += 1
        self.queries_answered += k
        out: list[list[Emission]] = []
        offset = 0
        for _, pend in groups:
            kk = len(pend)
            out.append([Emission(s, blocks) for s, blocks in zip(pend, lists[offset : offset + kk])])
            offset += kk
        return out


class MicroBatcher:
    """Single-stream micro-batching: one :class:`StreamState` + a flush path.

    Parameters
    ----------
    predict_proba:
        ``predict_proba(x_addr, x_pc, batch_size=...)`` callable (NN or
        tabular predictor). If it accepts an ``out=`` argument (the tabular
        model does), the output buffer is preallocated and reused too.
    config:
        Preprocessing geometry (history length, segmenter, bitmap size).
    threshold / max_degree / decode:
        Decode policy, as in :func:`repro.prefetch.nn_prefetcher.model_prefetch_lists`.
    batch_size:
        Maximum pending queries per predict call (``B``).
    max_wait:
        Flush when the oldest pending query is this many accesses old
        (``None`` = only flush on a full batch or an explicit flush).
    """

    def __init__(
        self,
        predict_proba,
        config: PreprocessConfig,
        threshold: float = 0.5,
        max_degree: int = 2,
        decode: str = "distance",
        batch_size: int = 64,
        max_wait: int | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_wait is not None and max_wait < 1:
            raise ValueError("max_wait must be >= 1 (or None)")
        self.config = config
        self.batch_size = int(batch_size)
        self.max_wait = max_wait
        self._state = StreamState(config, depth=self.batch_size)
        predict, version = resolve_predictor(predict_proba, config)
        self._path = _FlushPath(
            predict, config, threshold, max_degree, decode, self.batch_size
        )
        self._path.model_version = version
        #: queries the most recent swap had to drain (its pause, in queries)
        self.last_swap_drained = 0

    # ------------------------------------------------------------- introspection
    @property
    def seq(self) -> int:
        return self._state.seq

    @property
    def threshold(self) -> float:
        return self._path.threshold

    @property
    def max_degree(self) -> int:
        return self._path.max_degree

    @property
    def decode(self) -> str:
        return self._path.decode

    @property
    def _pending(self) -> list[int]:
        return self._state.pending

    @property
    def predict_calls(self) -> int:
        """Vectorized predict calls issued so far (not reset by :meth:`reset`)."""
        return self._path.predict_calls

    @property
    def fast_path_flushes(self) -> int:
        """Flushes answered by the single-query fast path (k == 1 dispatches)."""
        return self._path.fast_path_flushes

    @property
    def swaps(self) -> int:
        """Model replacements installed since construction."""
        return self._path.swaps

    @property
    def model_version(self) -> int | None:
        """Version of the installed model, when swaps carried artifacts."""
        return self._path.model_version

    # ---------------------------------------------------------------- serving
    def swap_model(self, model) -> list[Emission]:
        """Atomically replace the served tables at a flush boundary.

        The swap is emission-lossless: every pending query is answered by the
        *outgoing* model in one flush (the entire pause — at most one
        ``batch_size`` predict call), the new predictor is installed, and the
        drained emissions are returned so the caller can deliver them in
        order. ``model`` may be a :class:`~repro.runtime.artifact.
        ModelArtifact` (its version id is then tracked), a predictor object,
        or a bare ``predict_proba`` callable; geometry-incompatible models
        are refused before anything changes.
        """
        predict, version = resolve_predictor(model, self.config)
        drained = self.flush()
        self.last_swap_drained = len(drained)
        self._path.set_predictor(predict, version)
        return drained

    def push(self, pc: int, addr: int) -> list[Emission]:
        """Featurize one access and return any emissions it completes."""
        warmup = self._state.push(pc, addr)
        if warmup is not None:
            return [warmup]
        if len(self._state.pending) >= self.batch_size or (
            # Age of the oldest pending query = accesses that arrived after it.
            self.max_wait is not None and self._state.oldest_age() >= self.max_wait
        ):
            return self.flush()
        return []

    def flush(self) -> list[Emission]:
        """Answer all pending queries with one vectorized predict call."""
        state = self._state
        if not state.pending:
            return []
        (emissions,) = self._path.flush([(state, state.pending)])
        state.pending.clear()
        return emissions

    def reset(self) -> None:
        self._state.reset()


class StreamingModelPrefetcher(StreamingPrefetcher):
    """A learned predictor served online through a :class:`MicroBatcher`."""

    def __init__(
        self,
        predict_proba,
        config: PreprocessConfig,
        threshold: float = 0.5,
        max_degree: int = 2,
        decode: str = "distance",
        batch_size: int = 64,
        max_wait: int | None = None,
        name: str = "model-stream",
        latency_cycles: int = 0,
        storage_bytes: float = 0.0,
    ):
        self._mb = MicroBatcher(
            predict_proba,
            config,
            threshold=threshold,
            max_degree=max_degree,
            decode=decode,
            batch_size=batch_size,
            max_wait=max_wait,
        )
        self.name = name
        self.latency_cycles = int(latency_cycles)
        self.storage_bytes = float(storage_bytes)
        self.seq = 0

    @property
    def batch_size(self) -> int:
        return self._mb.batch_size

    @property
    def pending(self) -> int:
        """Queries queued but not yet answered."""
        return len(self._mb._pending)

    @property
    def predict_calls(self) -> int:
        """Vectorized predict calls issued so far."""
        return self._mb.predict_calls

    @property
    def fast_path_flushes(self) -> int:
        """Flushes answered by the single-query fast path (k == 1 dispatches)."""
        return self._mb.fast_path_flushes

    @property
    def swaps(self) -> int:
        return self._mb.swaps

    @property
    def model_version(self) -> int | None:
        return self._mb.model_version

    def swap_model(self, model) -> list[Emission]:
        """Hot-swap the served model; returns the drained emissions (in order)."""
        return self._mb.swap_model(model)

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        emissions = self._mb.push(pc, addr)
        self.seq = self._mb.seq
        return emissions

    def flush(self) -> list[Emission]:
        return self._mb.flush()

    def reset(self) -> None:
        self._mb.reset()
        self.seq = 0
