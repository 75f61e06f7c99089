"""Drive a streaming prefetcher over an access source; measure the serving.

This is the runtime's outermost loop — the piece a deployment would run
against a live LLC access feed. It owns none of the prediction logic; it just
pumps accesses into a :class:`~repro.runtime.streaming.StreamingPrefetcher`,
times every ``ingest`` call (and the end-of-stream drain, whose tail predict
answers up to ``B - 1`` queries at once) with a wall clock, and aggregates the paper's
practicality metrics for software serving: throughput (accesses/s) and
per-access response latency percentiles (p50/p99). For a micro-batched
engine the latency distribution is the interesting part — most observes are
ring writes (sub-microsecond) and every ``B``-th pays the vectorized predict,
so p50 vs p99 exposes the batching trade directly.

Sources can be anything that yields ``(pc, addr)`` pairs: a
:class:`~repro.traces.trace.MemoryTrace`, the chunked iterators from
:mod:`repro.traces.io` (which never materialize the full trace), or a live
generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.traces.trace import MemoryTrace

from repro.runtime.streaming import StreamingPrefetcher


def access_pairs(source) -> Iterator[tuple[int, int]]:
    """Normalize an access source into ``(pc, byte-address)`` pairs.

    Accepts a :class:`MemoryTrace`, an iterable of traces (chunked
    ingestion), or an iterable that already yields pairs / ``(instr, pc,
    addr)`` triples.
    """
    if isinstance(source, MemoryTrace):
        source = (source,)
    for item in source:
        if isinstance(item, MemoryTrace):
            pcs, addrs = item.pcs, item.addrs
            for i in range(len(item)):
                yield int(pcs[i]), int(addrs[i])
        elif len(item) == 3:  # (instr_id, pc, addr) triple from iter_accesses
            yield int(item[1]), int(item[2])
        else:
            yield int(item[0]), int(item[1])


@dataclass
class StreamStats:
    """Serving metrics for one run of :func:`serve`."""

    name: str
    accesses: int
    prefetches: int
    seconds: float
    #: per-``ingest`` wall-clock latency percentiles, microseconds
    p50_us: float
    p99_us: float
    mean_us: float
    max_us: float
    extra: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Accesses served per second."""
        return self.accesses / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "accesses": self.accesses,
            "prefetches": self.prefetches,
            "seconds": self.seconds,
            "throughput": self.throughput,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "mean_us": self.mean_us,
            "max_us": self.max_us,
            **self.extra,
        }


@dataclass
class StreamLifecycle:
    """One stream's serving lifecycle under an elastic engine.

    The elastic :class:`~repro.runtime.sharded.ShardedEngine` stamps these on
    every handle: when the stream was admitted (in engine lifecycle ops —
    open/close/migrate/rescale/swap events, not wall clock), when it closed,
    how often it migrated and the ordered list of workers that hosted it
    (admission placement first). Surfaced through ``stats()["elastic"]`` and
    per-stream ``StreamStats.extra``.
    """

    opened_at: int = 0
    closed_at: int | None = None
    migrations: int = 0
    #: worker ids that hosted the stream, in order (admission first)
    homes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "opened_at": self.opened_at,
            "closed_at": self.closed_at,
            "migrations": self.migrations,
            "homes": list(self.homes),
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (no NumPy round-trip)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


#: latency samples kept for percentile estimation; memory stays bounded on
#: arbitrarily long streams (mean/max stay exact via running accumulators).
LATENCY_SAMPLE_CAP = 1 << 16


class _LatencySketch:
    """Bounded latency recorder: exact below the cap, stride-decimated above.

    Once ``LATENCY_SAMPLE_CAP`` samples accumulate, every other retained
    sample is dropped and the sampling stride doubles — deterministic (no
    RNG), O(cap) memory, and percentiles stay representative because the
    retained samples remain uniformly spread over the stream.
    """

    def __init__(self, cap: int = LATENCY_SAMPLE_CAP):
        self.cap = cap
        self.samples: list[float] = []
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        self._stride = 1

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.peak:
            self.peak = value
        if self.count % self._stride == 0:
            self.samples.append(value)
            if len(self.samples) >= self.cap:
                self.samples = self.samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def state(self) -> dict:
        """Plain-dict form, cheap to ship across a process boundary."""
        return {
            "count": self.count,
            "total": self.total,
            "peak": self.peak,
            "samples": list(self.samples),
            "stride": self._stride,
        }

    @classmethod
    def merge(cls, states: "Iterable[dict]", cap: int = LATENCY_SAMPLE_CAP) -> "_LatencySketch":
        """Combine per-shard sketch states into one aggregate sketch.

        Counts, totals and peaks merge exactly; retained samples concatenate
        (each shard's set is uniformly spread over its own stream, so the
        union stays representative) and re-decimate if the union overflows
        the cap.
        """
        out = cls(cap)
        for st in states:
            out.count += int(st["count"])
            out.total += float(st["total"])
            out.peak = max(out.peak, float(st["peak"]))
            out.samples.extend(st["samples"])
            out._stride = max(out._stride, int(st.get("stride", 1)))
        while len(out.samples) >= cap:
            out.samples = out.samples[::2]
            out._stride *= 2
        return out

    def to_stats(
        self, name: str, accesses: int, prefetches: int, seconds: float, extra: dict
    ) -> StreamStats:
        """Package this sketch as a :class:`StreamStats` record."""
        samples = sorted(self.samples)
        return StreamStats(
            name=name,
            accesses=accesses,
            prefetches=prefetches,
            seconds=seconds,
            p50_us=_percentile(samples, 0.50) * 1e6,
            p99_us=_percentile(samples, 0.99) * 1e6,
            mean_us=self.mean * 1e6,
            max_us=self.peak * 1e6,
            extra=extra,
        )


def serve(
    stream: StreamingPrefetcher,
    source: Iterable,
    collect: bool = False,
    measure: bool = True,
) -> tuple[StreamStats, list[list[int]] | None]:
    """Pump every access of ``source`` through ``stream``; return metrics.

    With ``collect=True`` also assembles the attributed per-access prefetch
    lists (the streaming equivalent of ``prefetch_lists``) — handy for
    equivalence checks but costs memory proportional to the trace, so leave
    it off when serving chunked multi-hundred-MB traces.
    ``measure=False`` skips per-access timing (the timing itself costs two
    clock reads per access) and reports only totals. To record the session,
    attach a :class:`~repro.runtime.record.SessionRecorder` to ``stream``
    first.
    """
    stream.reset()
    lists: list[list[int]] = [] if collect else None
    sketch = _LatencySketch()
    prefetches = 0
    accesses = 0
    perf = time.perf_counter
    t0 = perf()
    for pc, addr in access_pairs(source):
        accesses += 1
        if collect:
            lists.append([])
        if measure:
            t_in = perf()
            emissions = stream.ingest(pc, addr)
            sketch.add(perf() - t_in)
        else:
            emissions = stream.ingest(pc, addr)
        for em in emissions:
            prefetches += len(em.blocks)
            if collect:
                lists[em.seq] = list(em.blocks)
    # The end-of-stream drain answers up to B-1 still-pending queries with a
    # full predict call; time it like any ingest so the tail flush shows up in
    # p99/max instead of silently vanishing from the latency sketch. A drain
    # that delivered nothing (synchronous streams) adds no sample — there was
    # no response to attribute the time to.
    if measure:
        t_in = perf()
        tail = stream.flush()
        if tail:
            sketch.add(perf() - t_in)
    else:
        tail = stream.flush()
    for em in tail:
        prefetches += len(em.blocks)
        if collect:
            lists[em.seq] = list(em.blocks)
    seconds = perf() - t0
    return sketch.to_stats(stream.name, accesses, prefetches, seconds, {}), lists
