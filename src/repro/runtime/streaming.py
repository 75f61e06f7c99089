"""Online prefetch serving: the streaming protocol and its adapters.

The batch API (:meth:`Prefetcher.prefetch_lists`) answers "what would this
predictor have requested at every access of this trace"; a deployment instead
sees one access at a time and must answer *now*. :class:`StreamingPrefetcher`
is that online contract:

* :meth:`~StreamingPrefetcher.observe` ingests one ``(pc, byte-address)``
  access and returns the block addresses to prefetch immediately;
* :meth:`~StreamingPrefetcher.ingest` is the attributed form used by the
  adapters and the simulator: it returns :class:`Emission` records tagging
  each candidate list with the access (``seq``) that triggered it, which is
  what lets a micro-batched engine answer *late* without losing attribution;
* :meth:`~StreamingPrefetcher.flush` drains whatever is still pending;
* :meth:`~StreamingPrefetcher.reset` returns the engine to its initial state.

Protocol invariant: across ``ingest`` + a final ``flush``, **exactly one
emission per observed access, in ascending ``seq`` order**. Synchronous
engines (rule-based state machines) emit at the triggering access; deferred
engines (the micro-batched model path) emit bursts at flush points. The
invariant is what makes the :class:`BatchAdapter` equivalence exact.

Adapters close the loop with the batch world:

* :class:`SequentialStreamAdapter` — any :class:`SequentialPrefetcher`
  (BO, ISB, streamer, stride, next-line) as a stream;
* :class:`BatchAdapter` — any stream back into a :class:`Prefetcher`, used by
  the equivalence tests to prove both paths bit-identical.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.prefetch.base import Prefetcher, SequentialPrefetcher
from repro.traces.trace import MemoryTrace
from repro.utils.bits import block_address


class Emission(NamedTuple):
    """Prefetch candidates attributed to the access that triggered them."""

    seq: int
    blocks: list[int]


class StreamingPrefetcher:
    """Online prefetcher protocol (see module docstring for the invariant)."""

    name: str = "stream"
    latency_cycles: int = 0
    storage_bytes: float = 0.0

    def __init__(self):
        #: index of the next access to be observed
        self.seq = 0

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        """Consume one access; return completed emissions (possibly none)."""
        raise NotImplementedError

    def observe(self, pc: int, addr: int) -> list[int]:
        """Consume one access; return block addresses to prefetch now.

        Sugar over :meth:`ingest` for callers that do not need attribution
        (the issue queue of a real LLC does not care which trigger a request
        came from — the simulator and the adapters do).
        """
        out: list[int] = []
        for em in self.ingest(pc, addr):
            out.extend(em.blocks)
        return out

    def flush(self) -> list[Emission]:
        """Emit everything still pending (end of stream / quiescence)."""
        return []

    def reset(self) -> None:
        self.seq = 0


class SequentialStreamAdapter(StreamingPrefetcher):
    """Any per-access state machine (:class:`SequentialPrefetcher`) as a stream.

    Synchronous: every access emits exactly one (possibly empty) emission at
    observe time, so latency is the state machine's own ``step`` cost.
    """

    def __init__(self, inner: SequentialPrefetcher):
        self.inner = inner
        self.name = inner.name
        self.latency_cycles = inner.latency_cycles
        self.storage_bytes = inner.storage_bytes
        self.seq = 0
        self._state = inner.reset_state()

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        seq = self.seq
        self.seq = seq + 1
        blocks = self.inner.step(self._state, int(pc), int(block_address(int(addr))), seq)
        return [Emission(seq, blocks)]

    def reset(self) -> None:
        self.seq = 0
        self._state = self.inner.reset_state()


class BatchAdapter(Prefetcher):
    """Replay a trace through a stream, recovering the batch ``prefetch_lists``.

    The bridge back from the online world: feeds every access through
    :meth:`StreamingPrefetcher.ingest`, places each emission at its trigger
    access, and flushes at end of trace. With the same underlying predictor
    this reproduces the legacy batch output bit for bit — the equivalence the
    streaming test suite pins down.
    """

    def __init__(self, stream: StreamingPrefetcher):
        self._stream = stream
        self.name = stream.name
        self.latency_cycles = stream.latency_cycles
        self.storage_bytes = stream.storage_bytes

    def stream(self, **kwargs) -> StreamingPrefetcher:
        """Round-trip back to the wrapped stream (knobs were fixed at wrap time)."""
        return self._stream

    def prefetch_lists(self, trace: MemoryTrace) -> list[list[int]]:
        stream = self._stream
        stream.reset()
        n = len(trace)
        out: list[list[int]] = [[] for _ in range(n)]
        pcs = trace.pcs
        addrs = trace.addrs
        for i in range(n):
            for em in stream.ingest(int(pcs[i]), int(addrs[i])):
                out[em.seq] = list(em.blocks)
        for em in stream.flush():
            out[em.seq] = list(em.blocks)
        return out


def as_streaming(prefetcher, **kwargs) -> StreamingPrefetcher:
    """Coerce a prefetcher (batch or streaming) into a stream.

    ``kwargs`` (e.g. ``batch_size``, ``max_wait``) are forwarded to the
    prefetcher's :meth:`Prefetcher.stream` factory; already-streaming inputs
    pass through unchanged.
    """
    if isinstance(prefetcher, StreamingPrefetcher):
        return prefetcher
    return prefetcher.stream(**kwargs)
