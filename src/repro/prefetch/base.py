"""Prefetcher interface.

A prefetcher consumes the LLC demand-access stream and emits, for every
access, a list of *block addresses* to prefetch. Because every prefetcher in
this study (rule-based and learned alike) derives its predictions purely from
the access sequence — not from cache state — predictions can be generated in
one pass over the trace and replayed by the timing simulator, which applies
the predictor's latency. This is what makes NN predictors simulatable at
trace scale: their queries batch.

Two serving shapes exist (DESIGN.md "Streaming runtime"):

* the whole-trace batch API, :meth:`Prefetcher.prefetch_lists`;
* the online API, :meth:`Prefetcher.stream`, which returns a
  :class:`repro.runtime.StreamingPrefetcher` that ingests one access at a
  time. The two are bit-identical on the same access sequence.

Rule-based prefetchers subclass :class:`SequentialPrefetcher`, exposing their
per-access state machine; ``prefetch_lists`` and ``stream`` are then both
derived from the same :meth:`SequentialPrefetcher.step`.

``latency_cycles`` is the prediction latency the simulator charges between a
trigger access and its prefetch issue (the paper's central practical
quantity, Table IX). ``storage_bytes`` is reported for the Table IX-style
comparison tables.
"""

from __future__ import annotations


from repro.traces.trace import MemoryTrace


class Prefetcher:
    """Base class: subclasses implement :meth:`prefetch_lists`."""

    #: human-readable identifier used in benchmark tables
    name: str = "base"
    #: prediction latency in cycles (0 = idealized)
    latency_cycles: int = 0
    #: predictor state size in bytes
    storage_bytes: float = 0.0

    def prefetch_lists(self, trace: MemoryTrace) -> list[list[int]]:
        """Per-access prefetch candidate block addresses.

        ``out[i]`` are the block addresses requested in response to access
        ``i``. Must be deterministic for a given trace.
        """
        raise NotImplementedError

    def stream(self, **kwargs):
        """Return a :class:`repro.runtime.StreamingPrefetcher` for this predictor.

        Subclasses with an online form override this; the base class has no
        incremental formulation to offer.
        """
        raise TypeError(f"{type(self).__name__} has no streaming implementation")

    def describe(self) -> dict:
        return {
            "name": self.name,
            "latency_cycles": self.latency_cycles,
            "storage_bytes": self.storage_bytes,
        }


class SequentialPrefetcher(Prefetcher):
    """A prefetcher defined by an explicit per-access state machine.

    Subclasses implement :meth:`reset_state` (allocate fresh predictor state)
    and :meth:`step` (consume one access, mutate the state, return the
    prefetch candidates for that access). ``prefetch_lists`` replays the trace
    through ``step``; ``stream`` wraps the same state machine for online
    serving — the two paths share every line of prediction logic, which is
    what makes them bit-identical by construction.
    """

    def reset_state(self) -> object:
        """Allocate and return a fresh predictor state."""
        raise NotImplementedError

    def step(self, state, pc: int, block: int, index: int) -> list[int]:
        """Consume access ``index`` = (``pc``, ``block``); return prefetches.

        ``block`` is the cache-*block* address of the access. ``index`` is the
        0-based position in the access stream (some predictors time internal
        events in accesses).
        """
        raise NotImplementedError

    def prefetch_lists(self, trace: MemoryTrace) -> list[list[int]]:
        state = self.reset_state()
        blocks = trace.block_addrs
        pcs = trace.pcs
        step = self.step
        return [
            step(state, int(pcs[i]), int(blocks[i]), i) for i in range(len(blocks))
        ]

    def stream(self, **kwargs):
        # Serving knobs like ``batch_size`` are accepted (and ignored) so a
        # caller can pass one configuration to any prefetcher (``repro stream``).
        from repro.runtime.streaming import SequentialStreamAdapter

        return SequentialStreamAdapter(self)


class PrecomputedPrefetcher(Prefetcher):
    """Wrap externally computed prefetch lists (used by tests and ablations)."""

    def __init__(self, lists: list[list[int]], name: str = "precomputed", latency_cycles: int = 0):
        self._lists = lists
        self.name = name
        self.latency_cycles = int(latency_cycles)

    def prefetch_lists(self, trace: MemoryTrace) -> list[list[int]]:
        if len(self._lists) != len(trace):
            raise ValueError(
                f"precomputed lists ({len(self._lists)}) do not match trace length ({len(trace)})"
            )
        return self._lists
