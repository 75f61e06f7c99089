"""Trace-driven LLC simulation with a simplified out-of-order core.

Timing model (two-clock, documented in DESIGN.md):

* ``fetch`` — the execution frontier. It advances at the retire width
  (``d_instr / width`` per access) but cannot run more than ``rob``
  instructions past the oldest unretired load: each load's retire time is
  queued, and when a new load is more than ``rob`` instructions younger than
  a queued load, the frontier is floored at that load's retire time. This
  yields ROB-bounded memory-level parallelism: independent misses within the
  ROB window overlap, exactly the first-order behaviour of a 4-wide OoO core.
* ``retire`` — in-order retirement: each load retires at
  ``max(prev_retire + d_instr/width, data_ready)``.

Memory model: LLC hit = ``llc_latency``; miss = DRAM fixed latency with at
most ``mshr`` outstanding fills (extra misses wait for the earliest
completion). Prefetches share the MSHRs and fill the cache with a
``ready_cycle``; a demand hit on an in-flight line waits for the fill (the
late-prefetch penalty that separates DART from high-latency NN prefetchers).

Prefetch timeliness: a trigger at core time ``t`` issues its prefetches at
``t + prefetcher.latency_cycles`` — predictions cost time, the paper's core
argument.

Two prediction-delivery modes (DESIGN.md "Streaming runtime"):

* **batch** (default) — ``prefetch_lists`` is precomputed and replayed, the
  original whole-trace arrangement;
* **streaming** (``streaming=True``) — predictions are consumed from a
  :class:`repro.runtime.StreamingPrefetcher` as the simulated core advances.
  A synchronous engine behaves identically to batch mode; a micro-batched
  engine's deferred emissions become visible at the *emission* access (their
  trigger has already passed), so batching cost shows up as lost timeliness
  — exactly the trade the runtime exists to measure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.prefetch.base import Prefetcher
from repro.sim.cache import SetAssocCache
from repro.sim.metrics import SimResult
from repro.traces.trace import MemoryTrace


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters (defaults follow the paper's Table III LLC/CPU)."""

    llc_capacity_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 16
    llc_latency: float = 20.0
    dram_latency: float = 200.0
    width: int = 4
    rob: int = 256
    mshr: int = 64

    def make_llc(self) -> SetAssocCache:
        return SetAssocCache.from_capacity(self.llc_capacity_bytes, self.llc_ways)


def simulate(
    trace: MemoryTrace,
    prefetcher: Prefetcher | None = None,
    config: SimConfig | None = None,
    name: str | None = None,
    streaming: bool = False,
    stream_kwargs: dict | None = None,
) -> SimResult:
    """Run the trace through the LLC (+ optional prefetcher); return metrics.

    ``streaming=True`` consumes predictions online instead of replaying a
    precomputed list: ``prefetcher`` may be a batch prefetcher (coerced via
    :func:`repro.runtime.as_streaming` with ``stream_kwargs``, e.g.
    ``{"batch_size": 64}``) or an already-built
    :class:`repro.runtime.StreamingPrefetcher`.
    """
    cfg = config or SimConfig()
    llc = cfg.make_llc()
    blocks = trace.block_addrs
    instr_ids = trace.instr_ids
    n = len(blocks)
    pf_lists: list[list[int]] | None = None
    stream = None
    pcs = trace.pcs
    addrs = trace.addrs
    pred_latency = 0.0
    if prefetcher is not None:
        if streaming:
            from repro.runtime import as_streaming

            stream = as_streaming(prefetcher, **(stream_kwargs or {}))
            stream.reset()
            pred_latency = float(stream.latency_cycles)
        else:
            pf_lists = prefetcher.prefetch_lists(trace)
            pred_latency = float(prefetcher.latency_cycles)

    width = float(cfg.width)
    rob = int(cfg.rob)
    llc_lat = cfg.llc_latency
    dram_lat = cfg.dram_latency
    mshr = int(cfg.mshr)

    fetch = 0.0
    retire = 0.0
    rob_floor = 0.0
    robq: deque[tuple[int, float]] = deque()  # (instr_id, retire_time) of loads
    missq: deque[float] = deque()  # outstanding fill completion times (sorted)
    pfq: deque[tuple[float, int]] = deque()  # (visible_time, block)

    hits = misses = late_hits = 0
    issued = useful = 0
    prev_instr = 0

    def drain_prefetches(now: float) -> None:
        nonlocal issued
        while pfq and pfq[0][0] <= now:
            t_vis, blk = pfq.popleft()
            if llc.peek(blk) is not None:
                continue  # already present or in flight: drop
            while missq and missq[0] <= t_vis:
                missq.popleft()
            if len(missq) >= mshr:
                continue  # no MSHR free: prefetch dropped
            ready = t_vis + dram_lat
            missq.append(ready)
            llc.insert(blk, ready, prefetched=True)
            issued += 1

    for i in range(n):
        instr_i = int(instr_ids[i])
        gap = (instr_i - prev_instr) / width
        prev_instr = instr_i
        fetch += gap
        # ROB run-ahead bound: loads >= rob instructions older must retire.
        while robq and robq[0][0] <= instr_i - rob:
            r = robq.popleft()[1]
            if r > rob_floor:
                rob_floor = r
        if fetch < rob_floor:
            fetch = rob_floor
        now = fetch
        drain_prefetches(now)

        block = int(blocks[i])
        line = llc.lookup(block)
        if line is not None:
            if line.ready_cycle > now:
                lat = (line.ready_cycle - now) + llc_lat
                late_hits += 1
            else:
                lat = llc_lat
            if line.prefetched and not line.used:
                line.used = True
                useful += 1
            hits += 1
        else:
            misses += 1
            while missq and missq[0] <= now:
                missq.popleft()
            issue_t = now
            if len(missq) >= mshr:
                issue_t = missq.popleft()  # wait for the earliest completion
            ready = issue_t + dram_lat
            missq.append(ready)
            lat = ready - now
            llc.insert(block, ready, prefetched=False)

        ready_time = now + lat
        step = gap if gap > 0.25 else 0.25  # retire bandwidth: <= width/cycle
        retire = max(retire + step, ready_time)
        robq.append((instr_i, retire))

        if pf_lists is not None and pf_lists[i]:
            vis = now + pred_latency
            for blk in pf_lists[i]:
                pfq.append((vis, blk))
        elif stream is not None:
            # Deferred emissions (micro-batched engines) surface here, at the
            # access that completed their batch — later than their trigger.
            vis = now + pred_latency
            for em in stream.ingest(int(pcs[i]), int(addrs[i])):
                for blk in em.blocks:
                    pfq.append((vis, blk))

    result = SimResult(
        name=name or (prefetcher.name if prefetcher else "baseline"),
        instructions=int(instr_ids[-1]) if n else 0,
        cycles=retire,
        demand_accesses=n,
        demand_hits=hits,
        demand_misses=misses,
        late_prefetch_hits=late_hits,
        prefetches_issued=issued,
        prefetches_useful=useful,
        prefetch_hits=useful,
    )
    if stream is not None and hasattr(stream, "adaptation_summary"):
        # Drift-aware serving: record what the adaptation loop did (versions
        # installed, drift reasons, windowed accuracy) alongside the IPC
        # numbers, so phase-shift recovery is inspectable per run.
        result.extra["adaptation"] = stream.adaptation_summary()
    return result
