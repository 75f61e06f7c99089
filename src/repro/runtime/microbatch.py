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
* :class:`_FlushPath` — the **shared** half. It owns the predictor and
  answers pending queries from *any number of stream states* in **one**
  vectorized pass. For a table predictor every flush, of one query or of
  many, reads head codes (the k == 1 fast path, or
  ``window_head_codes`` over each stream's ring span, each access encoded
  once and its first-layer rows gathered from the model's input map) and
  turns each head code tuple into deltas through a per-install emission
  memo, decoding a tuple once. Other predictors gather each stream's
  windows into preallocated buffers (one ``np.take`` per stream), predict
  once, and decode with the shared
  :func:`~repro.prefetch.nn_prefetcher.decode_bitmap_probs` — the decode the
  batch path runs. Both are bit-identical to the batch oracle.

:class:`~repro.runtime.multistream.MultiStreamEngine` is the one in-process
engine built from them: N stream states over one ``_FlushPath``, coalescing
queries across streams so a batch fills N× faster and the model is stored
once. A flush fires when ``batch_size`` queries are pending, when the oldest
pending query has waited ``max_wait`` accesses of its stream (the deadline
that bounds worst-case response time), or on demand.
:class:`MicroBatcher` is that engine with exactly one stream, speaking the
:class:`~repro.runtime.streaming.StreamingPrefetcher` protocol itself; it is
what ``DARTPrefetcher.stream()`` / ``NeuralPrefetcher.stream()`` return.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.data.dataset import PreprocessConfig
from repro.prefetch.nn_prefetcher import SingleRowDecoder, decode_bitmap_probs
from repro.runtime.multistream import MultiStreamEngine
from repro.runtime.streaming import Emission, StreamingPrefetcher
from repro.tabularization.tabular_model import key_view
from repro.tabularization.transitions import CodeMapCache
from repro.utils.bits import block_address
from repro.utils.serialization import pack_arrays, unpack_arrays

#: Head code tuples the emission memo holds before it is cleared (a K=128,
#: C=2 head has 16,384).
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
    so ring capacity ``T + B`` suffices — for a stream served alone or beside
    any number of others.
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

    The ``DARTSNP1`` family of the one container
    (:func:`repro.utils.serialization.pack_arrays`): what a frozen stream
    travels through the sharded engine's length-prefixed pipe protocol as.
    No pickle.
    """
    return pack_arrays(snapshot, SNAPSHOT_MAGIC, what="stream-state snapshot")


def snapshot_from_bytes(buf: bytes) -> dict[str, np.ndarray]:
    """Unpack :func:`snapshot_to_bytes` output; named errors on bad framing."""
    arrays, _ = unpack_arrays(buf, SNAPSHOT_MAGIC, what="stream-state snapshot")
    # Writable copies, detached from the wire buffer (thaw mutates rings).
    return {key: arr.copy() for key, arr in arrays.items()}


class _FlushPath:
    """Shared flush machinery: head codes → emission memo (table
    predictors), or gather → one vectorized predict → decode (others).

    Holds the (single) predictor reference, the emission memo and the
    preallocated ``(B, T, S)`` gather buffers of the generic path;
    :meth:`flush` answers pending queries from any number of
    :class:`StreamState` instances in one pass.
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
        #: row-wise decode twin (bit-identical; decodes the memo's misses)
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

        Callers must have drained pending queries first — the engine's
        ``swap_model`` does; the gather buffers are geometry-bound and
        keep being valid because swaps are refused unless the new model
        matches the engine's preprocessing config.

        When the callable is a bound method of a model exposing
        ``fast_path()`` (the tabular predictor), the single-query plan is
        built here, once per install, and every flush reads head codes and
        the emission memo instead of running ``predict_proba``. A swap
        replaces the plan and the memo with the new model's (never reuses
        the old ones).
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
        #: head code tuple -> deltas (table predictors): it belongs to this
        #: install's decode policy, and is rebuilt when the head or sigmoid
        #: table it was decoded from is rebound
        self._emissions = CodeMapCache()
        self.swaps += 1
        if version is not None:
            self.model_version = version

    def flush(self, groups: list[tuple[StreamState, list[int]]]) -> list[list[Emission]]:
        """Answer each group's pending seqs in one pass over all groups.

        Callers own the pending lists (this method does not clear them). The
        total query count must not exceed ``batch_size`` — the engine flushes
        as soon as the batch fills, so the bound holds by construction.
        """
        k = sum(len(pend) for _, pend in groups)
        if k == 0:
            return [[] for _ in groups]
        if k > self.batch_size:
            raise ValueError(f"{k} pending queries exceed batch_size={self.batch_size}")
        if self._fast is not None:
            lists = self._memo_lists(groups, k)
        else:
            t = self._t_hist
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

    def _memo_lists(self, groups, k: int) -> list[list[int]]:
        """Every query's blocks from its head codes and the emission memo.

        A k == 1 flush runs the fast path's plan on the window, a contiguous
        slice of the mirrored ring (rows r+cap-T+1 .. r+cap). A larger flush
        takes, per stream, the contiguous ring span from its oldest pending
        window's first access to its newest pending access (``k + T - 1``
        rows for consecutive seqs, never more than the ring) and hands all
        spans to ``window_head_codes``, which encodes and keys each access
        once. Each head code row is then looked up in the memo; a tuple it
        lacks is decoded once, at anchor 0, and each query adds its own
        anchor. Bit-identity with the generic path is pinned by the
        serving-conformance matrix and ``tests/test_input_map.py``.
        """
        fast, t = self._fast, self._t_hist
        if k == 1:
            for state, pend in groups:
                if pend:
                    break
            cap = state.cap
            r = pend[0] % cap
            lo = r + cap - t + 1
            codes = fast.head_codes(state.addr_ring[lo : lo + t], state.pc_ring[lo : lo + t])
            keys = [codes.tobytes()]
            anchors = [int(state.anchors[r])]
            self.fast_path_flushes += 1
        else:
            addr, pc, starts, anchors = [], [], [], []
            n = 0
            for state, pend in groups:
                if not pend:
                    continue
                cap = state.cap
                first = min(pend) - t + 1
                size = max(pend) - first + 1
                lo = first % cap
                addr.append(state.addr_ring[lo : lo + size])
                pc.append(state.pc_ring[lo : lo + size])
                seqs = np.asarray(pend, dtype=np.intp)
                starts.append(seqs + (n - first - t + 1))  # window starts in the spans
                anchors += state.anchors[seqs % cap].tolist()
                n += size
            codes = fast.model.window_head_codes(
                np.concatenate(addr), np.concatenate(pc), np.concatenate(starts)
            )
            keys = key_view(codes).tolist()
        model = fast.model
        memo = self._emissions.get((model.head_table.table, model.sigmoid.table), dict)
        lists = []
        for a, key in zip(anchors, keys):
            deltas = memo.get(key)
            if deltas is None:
                if len(memo) >= EMISSION_MEMO_TUPLES:
                    memo.clear()
                codes = np.frombuffer(key, dtype=np.intp).reshape(-1, 1).copy()
                fast.head_proba_into(codes, self._probs[:1])
                deltas = memo[key] = tuple(self._decode1.decode1(self._probs[0], 0))
            lists.append([a + d for d in deltas])
        return lists


class MicroBatcher(MultiStreamEngine, StreamingPrefetcher):
    """The single-stream engine: a :class:`MultiStreamEngine` with exactly one
    registered stream, speaking the
    :class:`~repro.runtime.streaming.StreamingPrefetcher` protocol itself.

    It is what ``DARTPrefetcher.stream()`` / ``NeuralPrefetcher.stream()``
    return. Every flush rule (the ``batch_size`` / ``max_wait`` trigger, the
    swap drain, the counters and :meth:`stats`) is the multistream engine's;
    parameters are :class:`MultiStreamEngine`'s.
    """

    def __init__(self, predict_proba, config: PreprocessConfig, *,
                 name: str = "model-stream", **knobs):
        super().__init__(predict_proba, config, name=name, **knobs)
        self._handle = self.stream(name)

    @property
    def seq(self) -> int:
        return self._handle.seq

    @property
    def pending(self) -> int:
        """Queries queued but not yet answered."""
        return self._handle.pending

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        return self._handle.ingest(pc, addr)

    def flush(self) -> list[Emission]:
        """Answer all pending queries with one vectorized predict call."""
        return self._handle.flush()

    def swap_model(self, model) -> list[Emission]:
        """Hot-swap the served model (see :meth:`MultiStreamEngine.swap_model`);
        returns the emissions the swap drained, in order."""
        super().swap_model(model)
        return self._handle.poll()
