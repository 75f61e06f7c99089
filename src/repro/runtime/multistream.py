"""The in-process serving engine: N access streams, one model, one flush path.

``sim/multicore.py`` models the scenario a deployment actually faces: N
cores, each with its own access stream, sharing one predictor. Serving each
stream through its own engine works but wastes both axes the paper cares
about:

* **storage** — N engines hold N references (and, naively, N copies) of the
  same table hierarchy;
* **latency/throughput** — a per-stream batch of ``B = 64`` needs 64 accesses
  *of that one stream* to fill, so under a latency deadline (``max_wait``)
  every stream flushes small, mostly-empty batches and the per-call dispatch
  overhead comes right back.

:class:`MultiStreamEngine` fixes both: every stream keeps its own private
:class:`~repro.runtime.microbatch.StreamState` (feature rings + pending
queue — the per-tenant featurization that *Fine-Grained Address Segmentation*
requires to stay isolated per stream), but all pending queries are coalesced
into **one** vectorized ``predict_proba`` call per flush across streams. With
8 streams, a ``B = 64`` batch fills in ~8 accesses per stream instead of 64,
and the shared predictor is stored once.

It is the only in-process engine. The single-stream engine
(:class:`~repro.runtime.microbatch.MicroBatcher`, what ``stream()`` returns)
is a ``MultiStreamEngine`` that registers exactly one stream, and every
sharded worker runs one, so the flush trigger, the swap drain and the
counters exist once.

Per-stream results are **bit-identical** to serving that stream alone: the
predictor is row-local (every table lookup, LayerNorm and pooling operates
per row, so batch composition cannot change a row's answer) and the decode is
the shared :func:`~repro.prefetch.nn_prefetcher.decode_bitmap_probs`. Only
*when* an answer arrives changes — which is the point, and which is why
latency attribution shifts: the access that completes the shared batch pays
the predict for everyone (see DESIGN.md "Multi-stream serving").

Each registered stream is driven through a :class:`StreamHandle`, a full
:class:`~repro.runtime.streaming.StreamingPrefetcher`: emissions completed by
*another* stream's flush wait in the handle's outbox and are delivered on its
next ``ingest``/``flush``/``poll``, preserving the per-stream emission
invariant (exactly one emission per access, ascending seq).

``microbatch`` subclasses :class:`MultiStreamEngine`, so this module imports
its stream state and flush path inside the methods that build them.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.data.dataset import PreprocessConfig
from repro.runtime.engine import StreamStats, _LatencySketch, access_pairs
from repro.runtime.streaming import Emission, StreamingPrefetcher

if TYPE_CHECKING:
    from repro.runtime.microbatch import StreamState


class StreamHandle(StreamingPrefetcher):
    """One tenant's view of a :class:`MultiStreamEngine`.

    Implements the standard streaming protocol; answers computed by flushes
    that *other* streams triggered are parked in this handle's outbox and
    drained on the next call. ``flush`` drains the whole engine (one
    coalesced predict), then returns only this stream's emissions — the
    other handles receive theirs in their outboxes.
    """

    def __init__(self, engine: "MultiStreamEngine", index: int, name: str):
        self._engine = engine
        self.index = index
        self.name = name
        self.latency_cycles = engine.latency_cycles
        self.storage_bytes = engine.storage_bytes
        self.seq = 0
        self._outbox: list[Emission] = []

    @property
    def closed(self) -> bool:
        """True once this stream was closed or exported (migrated away)."""
        return self._engine._states[self.index] is None

    @property
    def pending(self) -> int:
        """This stream's queries queued but not yet answered."""
        state = self._engine._states[self.index]
        return len(state.pending) if state is not None else 0

    def poll(self) -> list[Emission]:
        """Drain emissions already completed (possibly by other streams' flushes)."""
        out = self._outbox
        if not out:
            return []
        self._outbox = []
        # The outbox drain is the single funnel every delivered emission
        # passes through — the one hook point session recording needs.
        if self._engine._recorder is not None:
            self._engine._recorder.on_emissions(self.index, out)
        return out

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        engine = self._engine
        if engine._recorder is not None:
            engine._recorder.on_access(self.index, pc, addr)
        self.seq = engine._ingest(self, pc, addr)
        return self.poll()

    def flush(self) -> list[Emission]:
        if self._engine._recorder is not None:
            self._engine._recorder.on_flush()
        self._engine.flush_all()
        return self.poll()

    def reset(self) -> None:
        """Reset *this stream only*; other tenants are untouched."""
        if self._engine._recorder is not None:
            self._engine._recorder.on_reset(self.index)
        self._engine._reset_stream(self.index)
        self.seq = 0
        self._outbox.clear()


class MultiStreamEngine:
    """N per-tenant stream states, one shared model, one flush path.

    Parameters
    ----------
    predict_proba:
        ``predict_proba(x_addr, x_pc, batch_size=...)`` callable, a predictor
        exposing one (NN or tabular), or a
        :class:`~repro.runtime.artifact.ModelArtifact`. If the callable
        accepts ``out=`` (the tabular model does), its output buffer is
        preallocated and reused too.
    config:
        Preprocessing geometry (history length, segmenter, bitmap size).
    threshold / max_degree / decode:
        Decode policy, as in :func:`repro.prefetch.nn_prefetcher.model_prefetch_lists`.
    batch_size:
        Maximum pending queries per predict call (``B``), counted across all
        streams.
    max_wait:
        Flush when a stream's oldest pending query is this many of *that
        stream's* accesses old (``None`` = only flush on a full batch or an
        explicit flush). A deadline flush still answers everything pending,
        keeping one predict call per flush.

    Register tenants with :meth:`stream` / :meth:`streams`; drive them
    through the returned :class:`StreamHandle`\\ s.
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
        name: str = "multistream",
        latency_cycles: int = 0,
        storage_bytes: float = 0.0,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_wait is not None and max_wait < 1:
            raise ValueError("max_wait must be >= 1 (or None)")
        self.config = config
        self.batch_size = int(batch_size)
        self.max_wait = max_wait
        self.name = name
        self.latency_cycles = int(latency_cycles)
        self.storage_bytes = float(storage_bytes)
        from repro.runtime.microbatch import _FlushPath, resolve_predictor

        predict, version = resolve_predictor(predict_proba, config)
        self._path = _FlushPath(
            predict, config, threshold, max_degree, decode, self.batch_size
        )
        self._path.model_version = version
        self._states: list[StreamState | None] = []
        self._handles: list[StreamHandle] = []
        self._n_pending = 0
        #: queries the most recent swap had to drain (its pause, in queries)
        self.last_swap_drained = 0
        #: session recorder, when one is attached (SessionRecorder.attach)
        self._recorder = None

    # ------------------------------------------------------------ registration
    def stream(self, name: str | None = None) -> StreamHandle:
        """Register a new tenant stream; returns its handle."""
        from repro.runtime.microbatch import StreamState

        index = len(self._states)
        self._states.append(StreamState(self.config, depth=self.batch_size))
        handle = StreamHandle(self, index, name or f"{self.name}[{index}]")
        self._handles.append(handle)
        if self._recorder is not None:
            self._recorder.on_open(index, handle.name)
        return handle

    def streams(self, n: int, names: Sequence[str] | None = None) -> list[StreamHandle]:
        """Register ``n`` tenant streams at once."""
        if names is not None and len(names) != n:
            raise ValueError("need one name per stream")
        return [self.stream(names[i] if names else None) for i in range(n)]

    @property
    def n_streams(self) -> int:
        """Live (not closed / exported) streams."""
        return sum(1 for s in self._states if s is not None)

    # ----------------------------------------------------------------- serving
    def _ingest(self, handle: StreamHandle, pc: int, addr: int) -> int:
        """Featurize one access of ``handle``'s stream, flush if the batch
        is full or its deadline passed; returns the stream's new clock."""
        state = self._states[handle.index]
        if state is None:
            raise ValueError(f"stream {handle.name!r} is closed")
        warmup = state.push(pc, addr)
        if warmup is not None:
            handle._outbox.append(warmup)
            return state.seq
        self._n_pending += 1
        # Only the ingesting stream's own clock advanced, so only its oldest
        # pending query aged — the deadline check stays O(1) per access.
        if self._n_pending >= self.batch_size or (
            self.max_wait is not None and state.oldest_age() >= self.max_wait
        ):
            self.flush_all()
        return state.seq

    def flush_all(self) -> None:
        """Answer everything pending, across all streams.

        Normally one coalesced predict ≤ ``batch_size`` (the flush trigger
        fires before the bound is crossed), but an :meth:`import_stream`
        rehydration can legally land *on top of* an already-loaded engine —
        the combined backlog then drains in ``batch_size``-bounded chunks,
        preserving each stream's pending order (chunking cannot change an
        answer: the predictor is row-local). Each chunk walks the stream
        list only until its budget is spent.
        """
        left = self._n_pending
        while left > 0:
            chunk = budget = min(self.batch_size, left)
            groups: list[tuple[StreamState, list[int]]] = []
            owners: list[StreamHandle] = []
            for handle, state in zip(self._handles, self._states):
                if state is None or not state.pending:
                    continue
                pend = state.pending
                if len(pend) > budget:
                    pend = pend[:budget]
                groups.append((state, pend))
                owners.append(handle)
                budget -= len(pend)
                if budget == 0:
                    break
            for handle, (state, pend), emissions in zip(
                owners, groups, self._path.flush(groups)
            ):
                handle._outbox += emissions
                if pend is state.pending:
                    state.pending.clear()
                else:
                    del state.pending[: len(pend)]
            left -= chunk
        self._n_pending = 0

    # --------------------------------------------------------------- lifecycle
    def close_stream(self, index: int) -> list[Emission]:
        """Retire one stream: drain its pending queries, return every
        undelivered emission (parked outbox first, drained answers after —
        ascending seq), and free the slot. Other tenants are untouched; the
        slot's index is never reused, so remaining handles stay valid.
        """
        handle = self._handles[index]
        state = self._states[index]
        if handle is None or state is None:
            raise ValueError(f"stream {index} is already closed")
        if self._recorder is not None:
            self._recorder.on_close(index)
        while state.pending:
            take = min(self.batch_size, len(state.pending))
            pend = state.pending if take == len(state.pending) else state.pending[:take]
            (emissions,) = self._path.flush([(state, pend)])
            handle._outbox.extend(emissions)
            self._n_pending -= take
            if pend is state.pending:
                state.pending.clear()
            else:
                del state.pending[:take]
        final = handle.poll()
        self._states[index] = None
        self._handles[index] = None
        return final

    def export_stream(self, index: int) -> dict:
        """Freeze one stream into a snapshot dict and retire its slot.

        The snapshot (see :meth:`~repro.runtime.microbatch.StreamState.freeze`)
        carries the feature rings, anchors, clock and the *unanswered* pending
        queue — :meth:`import_stream` on any engine with the same geometry
        rehydrates it bit-identically, and the pending queries are answered by
        the target's next flush (batch composition cannot change an answer).
        Parked emissions must be delivered first: exporting with a non-empty
        outbox raises, because those answers would otherwise be lost.
        """
        handle = self._handles[index]
        state = self._states[index]
        if handle is None or state is None:
            raise ValueError(f"stream {index} is already closed")
        if handle._outbox:
            raise ValueError(
                f"stream {index} has undelivered emissions; poll() the handle "
                f"before exporting"
            )
        snapshot = state.freeze()
        self._n_pending -= len(state.pending)
        self._states[index] = None
        self._handles[index] = None
        return snapshot

    def import_stream(self, snapshot: dict, name: str | None = None) -> StreamHandle:
        """Rehydrate an exported stream as a new tenant of this engine.

        Geometry (preprocessing config + batch depth) must match the
        snapshot's — enforced by the thaw. The imported pending queue joins
        this engine's backlog and is answered on the next flush, in order.
        """
        from repro.runtime.microbatch import StreamState

        state = StreamState.thaw(self.config, self.batch_size, snapshot)
        index = len(self._states)
        self._states.append(state)
        handle = StreamHandle(self, index, name or f"{self.name}[{index}]")
        handle.seq = state.seq
        self._handles.append(handle)
        self._n_pending += len(state.pending)
        return handle

    def swap_model(self, model) -> None:
        """Atomically replace the shared model for every registered stream.

        Drains everything pending (across all tenants) with the *outgoing*
        model in one coalesced predict — the entire swap pause — then
        installs the new predictor. The drained answers land in each
        handle's outbox exactly as a normal flush would, so no tenant drops
        or reorders an emission; a no-op swap leaves every stream's output
        bit-identical to an unswapped engine. ``model`` may be a
        :class:`~repro.runtime.artifact.ModelArtifact`, a predictor object,
        or a ``predict_proba`` callable; geometry mismatches are refused
        before the drain.
        """
        from repro.runtime.microbatch import resolve_predictor

        predict, version = resolve_predictor(model, self.config)
        pending = self._n_pending
        self.flush_all()
        self.last_swap_drained = pending
        self._path.set_predictor(predict, version)
        if self._recorder is not None:
            self._recorder.on_swap(model, drained=pending)

    @property
    def swaps(self) -> int:
        """Model replacements installed since construction."""
        return self._path.swaps

    @property
    def model_version(self) -> int | None:
        return self._path.model_version

    def _reset_stream(self, index: int) -> None:
        state = self._states[index]
        if state is None:
            raise ValueError(f"stream {index} is closed")
        self._n_pending -= len(state.pending)
        state.reset()

    def reset(self) -> None:
        """Reset every live stream (counters like :attr:`predict_calls` persist)."""
        for handle in self._handles:
            if handle is not None:
                handle.reset()

    # ------------------------------------------------------------------- stats
    @property
    def predict_calls(self) -> int:
        return self._path.predict_calls

    @property
    def queries_answered(self) -> int:
        return self._path.queries_answered

    @property
    def fast_path_flushes(self) -> int:
        """Flushes answered by the single-query fast path (k == 1 dispatches)."""
        return self._path.fast_path_flushes

    def stats(self) -> dict:
        """Aggregate serving counters (the shared-batching scorecard)."""
        calls = self._path.predict_calls
        return {
            "streams": self.n_streams,
            "batch_size": self.batch_size,
            "max_wait": self.max_wait,
            "model_copies": 1,
            "model_version": self.model_version,
            "swaps": self.swaps,
            "predict_calls": calls,
            "fast_path_flushes": self._path.fast_path_flushes,
            "queries_answered": self._path.queries_answered,
            "mean_batch_fill": (self._path.queries_answered / calls) if calls else 0.0,
        }


def serve_interleaved(
    streams: Sequence[StreamingPrefetcher],
    sources: Sequence[Iterable],
    collect: bool = False,
    measure: bool = True,
) -> tuple[StreamStats, list[StreamStats], list[list[list[int]]] | None]:
    """Round-robin ``sources[i]`` into ``streams[i]``; per-stream + aggregate stats.

    The multi-tenant analogue of :func:`repro.runtime.engine.serve`: one
    access from each live source per round, every ``ingest`` individually
    timed, and the end-of-stream drain timed too. Works unchanged for
    :class:`StreamHandle`\\ s of one shared engine (the first handle's drain
    flushes everything in one coalesced predict; the rest drain their
    outboxes) and for independent per-stream engines (each drains itself) —
    which is exactly the comparison ``bench_multistream`` runs.

    Per-stream ``seconds`` is the shared wall-clock of the whole interleaved
    run (streams are served concurrently, so per-stream wall time is not
    separable); per-stream latency percentiles are attributed to the stream
    whose ``ingest`` paid the cost — under shared batching the access that
    completes the batch pays the predict for everyone (see DESIGN.md).

    Returns ``(aggregate, per_stream, lists)`` where ``lists[i]`` is stream
    ``i``'s attributed prefetch lists (``collect=True`` only).
    """
    if len(streams) != len(sources):
        raise ValueError("need exactly one source per stream")
    n = len(streams)
    for stream in streams:
        stream.reset()
    iters = [iter(access_pairs(src)) for src in sources]
    lists: list[list[list[int]]] | None = [[] for _ in range(n)] if collect else None
    sketches = [_LatencySketch() for _ in range(n)]
    agg = _LatencySketch()
    accesses = [0] * n
    prefetches = [0] * n
    perf = time.perf_counter
    t0 = perf()
    alive = list(range(n))
    while alive:
        nxt = []
        for i in alive:
            try:
                pc, addr = next(iters[i])
            except StopIteration:
                continue
            nxt.append(i)
            accesses[i] += 1
            if collect:
                lists[i].append([])
            if measure:
                t_in = perf()
                emissions = streams[i].ingest(pc, addr)
                dt = perf() - t_in
                sketches[i].add(dt)
                agg.add(dt)
            else:
                emissions = streams[i].ingest(pc, addr)
            for em in emissions:
                prefetches[i] += len(em.blocks)
                if collect:
                    lists[i][em.seq] = list(em.blocks)
        alive = nxt
    # Drain every stream (timed, like serve's tail flush). For handles of one
    # shared engine the first flush answers all streams (and pays the whole
    # predict — the attribution shift DESIGN.md documents); the rest just
    # empty their outboxes at ~zero cost. Drains that deliver nothing add no
    # sample.
    for i, stream in enumerate(streams):
        if measure:
            t_in = perf()
            tail = stream.flush()
            dt = perf() - t_in
            if tail:
                sketches[i].add(dt)
                agg.add(dt)
        else:
            tail = stream.flush()
        for em in tail:
            prefetches[i] += len(em.blocks)
            if collect:
                lists[i][em.seq] = list(em.blocks)
    seconds = perf() - t0

    def _stats(name: str, sketch: _LatencySketch, acc: int, pf: int, extra: dict) -> StreamStats:
        # latency_count pins the aggregation invariant: every timed delivery
        # contributes exactly one sample to its stream's sketch and one to the
        # aggregate, so aggregate count == sum of per-stream counts (the drain
        # flush included, even when all streams end on the same tick) — see
        # the regression test in tests/test_multistream.py.
        return sketch.to_stats(name, acc, pf, seconds, {**extra, "latency_count": sketch.count})

    per_stream = [
        _stats(streams[i].name, sketches[i], accesses[i], prefetches[i], {"stream": i})
        for i in range(n)
    ]
    aggregate = _stats(
        f"{n}-stream", agg, sum(accesses), sum(prefetches), {"streams": n}
    )
    return aggregate, per_stream, lists
