"""Full cache-hierarchy simulator: L1D → L2 → LLC → banked DRAM.

The fast simulator (:mod:`repro.sim.simulator`) models the LLC only — the
level the paper's prefetchers live at — and charges a flat DRAM latency.
This module is the detailed sibling for whole-hierarchy studies:

* three :class:`~repro.sim.policy_cache.PolicyCache` levels with Table III
  geometry (L1D 64 KB/12-way/5 cy, L2 1 MB/8-way/10 cy, LLC 8 MB/16-way/20 cy)
  and a replacement policy per level (LRU by default);
* inclusive LLC with back-invalidation, write-back/write-allocate with dirty
  eviction traffic charged to DRAM;
* the banked open-page :class:`~repro.sim.dram.DRAMModel` with per-bank row
  buffers and per-channel bus serialization;
* optional first-touch virtual→physical :class:`~repro.sim.paging.PageTable`
  (physical frames scatter DRAM rows, as in ChampSim) and a data TLB;
* LLC prefetching with predictor latency, MSHR occupancy and late-fill
  semantics identical to the fast simulator.

Because prefetches fill the LLC only, the access stream arriving at the LLC
(= the L2 miss stream) is invariant under prefetching, so predictions are
computed in one batched pass over that stream and replayed — the same
sequence-in/prefetch-out contract every predictor here satisfies (see
``repro.prefetch.base``).

The core timing model is the same two-clock ROB-bounded scheme as the fast
simulator, so IPCs from the two agree to first order when the hierarchy adds
nothing (e.g. an L1-resident working set).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.prefetch.base import Prefetcher
from repro.sim.dram import DRAMConfig, DRAMModel
from repro.sim.metrics import SimResult
from repro.sim.paging import TLB, PageTable
from repro.sim.policy_cache import PolicyCache
from repro.traces.trace import MemoryTrace
from repro.utils.bits import PAGE_BITS, BLOCK_BITS


@dataclass(frozen=True)
class LevelConfig:
    """Geometry and hit latency of one cache level."""

    capacity_bytes: int
    n_ways: int
    latency: float
    policy: str = "lru"

    def make(self) -> PolicyCache:
        return PolicyCache.from_capacity(self.capacity_bytes, self.n_ways, policy=self.policy)


@dataclass(frozen=True)
class HierarchyConfig:
    """Table III hierarchy; swap levels per experiment with ``dataclasses.replace``."""

    l1d: LevelConfig = LevelConfig(64 * 1024, 12, 5.0)
    l2: LevelConfig = LevelConfig(1024 * 1024, 8, 10.0)
    llc: LevelConfig = LevelConfig(8 * 1024 * 1024, 16, 20.0)
    dram: DRAMConfig = DRAMConfig()
    width: int = 4
    rob: int = 256
    mshr: int = 64
    #: translate virtual→physical before DRAM (ChampSim behaviour)
    paging: bool = True
    paging_seed: int = 0
    #: model a 64-entry data TLB with a 100-cycle walk
    tlb: bool = False
    tlb_entries: int = 64
    tlb_walk_latency: float = 100.0


@dataclass
class LevelStats:
    """Demand hit/miss and write-back counters for one level."""

    name: str
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class HierarchyResult:
    """Per-level stats plus the overall :class:`SimResult`."""

    sim: SimResult
    l1d: LevelStats = field(default_factory=lambda: LevelStats("L1D"))
    l2: LevelStats = field(default_factory=lambda: LevelStats("L2"))
    llc: LevelStats = field(default_factory=lambda: LevelStats("LLC"))
    dram: dict = field(default_factory=dict)
    tlb_hit_rate: float = 1.0
    pages_touched: int = 0

    def summary(self) -> dict:
        out = self.sim.summary()
        out.update(
            l1d_hit_rate=round(self.l1d.hit_rate, 4),
            l2_hit_rate=round(self.l2.hit_rate, 4),
            llc_hit_rate=round(self.llc.hit_rate, 4),
            dram_row_hit_rate=self.dram.get("row_hit_rate", 0.0),
        )
        return out


def extract_llc_stream(trace: MemoryTrace, config: HierarchyConfig | None = None) -> np.ndarray:
    """Indices of ``trace`` accesses that miss both L1D and L2.

    This is the access stream the LLC (and therefore the prefetcher) sees.
    Replacement state does not depend on timing, so one untimed pass suffices
    and the result is exact for the timed run.
    """
    cfg = config or HierarchyConfig()
    l1 = cfg.l1d.make()
    l2 = cfg.l2.make()
    blocks = trace.block_addrs
    keep: list[int] = []
    for i in range(len(blocks)):
        b = int(blocks[i])
        if l1.lookup(b) is not None:
            continue
        if l2.lookup(b) is not None:
            l1.fill(b)
            continue
        keep.append(i)
        l2.fill(b)
        l1.fill(b)
    return np.asarray(keep, dtype=np.int64)


def simulate_hierarchy(
    trace: MemoryTrace,
    prefetcher: Prefetcher | None = None,
    config: HierarchyConfig | None = None,
    writes: np.ndarray | None = None,
    name: str | None = None,
) -> HierarchyResult:
    """Run ``trace`` through the full hierarchy; returns per-level metrics.

    Parameters
    ----------
    writes:
        Optional boolean mask marking store accesses (write-allocate;
        dirty lines generate write-back DRAM traffic on eviction). ``None``
        treats the whole trace as loads, matching the LLC-only simulator.
    """
    cfg = config or HierarchyConfig()
    l1 = cfg.l1d.make()
    l2 = cfg.l2.make()
    llc = cfg.llc.make()
    dram = DRAMModel(cfg.dram)
    pages = PageTable(seed=cfg.paging_seed) if cfg.paging else None
    tlb = TLB(cfg.tlb_entries, cfg.tlb_walk_latency) if cfg.tlb else None
    blocks_per_page = 1 << (PAGE_BITS - BLOCK_BITS)

    blocks = trace.block_addrs
    instr_ids = trace.instr_ids
    n = len(blocks)
    if writes is not None:
        writes = np.asarray(writes, dtype=bool)
        if len(writes) != n:
            raise ValueError("writes mask length must match trace length")

    # ---- batched predictions over the (prefetch-invariant) LLC stream ----
    pf_lists: list[list[int]] | None = None
    llc_indices: np.ndarray | None = None
    pred_latency = 0.0
    if prefetcher is not None:
        llc_indices = extract_llc_stream(trace, cfg)
        llc_trace = MemoryTrace(
            trace.instr_ids[llc_indices],
            trace.pcs[llc_indices],
            trace.addrs[llc_indices],
            name=trace.name,
        )
        pf_lists = prefetcher.prefetch_lists(llc_trace)
        pred_latency = float(prefetcher.latency_cycles)

    def phys(block: int) -> int:
        """DRAM-visible block address (translated when paging is on)."""
        if pages is None:
            return block
        vpage, off = divmod(block, blocks_per_page)
        return pages.frame(vpage) * blocks_per_page + off

    s1, s2, s3 = LevelStats("L1D"), LevelStats("L2"), LevelStats("LLC")
    stats_by_level = {1: s1, 2: s2, 3: s3}

    def writeback(block: int, now: float) -> None:
        dram.access(phys(block), now, is_write=True)

    def evict_from_llc(victim, now: float) -> None:
        """Back-invalidate inner levels; collect dirtiness; write back."""
        dirty = victim.dirty
        for inner, stats in ((l1, s1), (l2, s2)):
            line = inner.invalidate(victim.block)
            if line is not None and line.dirty:
                dirty = True
        if dirty:
            s3.writebacks += 1
            writeback(victim.block, now)

    def fill_all(block: int, now: float, ready: float) -> None:
        """Allocate in every level (inclusive) handling evictions."""
        v3 = llc.fill(block, ready_cycle=ready)
        if v3 is not None:
            evict_from_llc(v3, now)
        v2 = l2.fill(block)
        if v2 is not None and v2.dirty:
            s2.writebacks += 1
            # Dirty L2 victim merges into the LLC copy (inclusive).
            line = llc.peek(v2.block)
            if line is not None:
                line.dirty = True
        v1 = l1.fill(block)
        if v1 is not None and v1.dirty:
            s1.writebacks += 1
            line = l2.peek(v1.block)
            if line is not None:
                line.dirty = True
            else:
                line = llc.peek(v1.block)
                if line is not None:
                    line.dirty = True

    width = float(cfg.width)
    rob = int(cfg.rob)
    mshr = int(cfg.mshr)
    l1_lat, l2_lat, llc_lat = cfg.l1d.latency, cfg.l2.latency, cfg.llc.latency

    fetch = 0.0
    retire = 0.0
    rob_floor = 0.0
    robq: deque[tuple[int, float]] = deque()
    missq: deque[float] = deque()  # outstanding DRAM fills (completion times)
    pfq: deque[tuple[float, int]] = deque()  # (visible_time, block)

    hits = misses = late_hits = 0
    issued = useful = 0
    prev_instr = 0
    llc_cursor = 0  # position in llc_indices / pf_lists

    def drain_prefetches(now: float) -> None:
        nonlocal issued
        while pfq and pfq[0][0] <= now:
            t_vis, blk = pfq.popleft()
            if llc.peek(blk) is not None:
                continue
            while missq and missq[0] <= t_vis:
                missq.popleft()
            if len(missq) >= mshr:
                continue
            ready = dram.access(phys(blk), t_vis)
            missq.append(ready)
            v = llc.fill(blk, prefetched=True, ready_cycle=ready)
            if v is not None:
                evict_from_llc(v, t_vis)
            issued += 1

    for i in range(n):
        instr_i = int(instr_ids[i])
        gap = (instr_i - prev_instr) / width
        prev_instr = instr_i
        fetch += gap
        while robq and robq[0][0] <= instr_i - rob:
            r = robq.popleft()[1]
            if r > rob_floor:
                rob_floor = r
        if fetch < rob_floor:
            fetch = rob_floor
        now = fetch
        drain_prefetches(now)

        block = int(blocks[i])
        is_write = bool(writes[i]) if writes is not None else False
        lat = 0.0
        if tlb is not None:
            lat += tlb.access(block // blocks_per_page)

        s1.accesses += 1
        line1 = l1.lookup(block, write=is_write)
        if line1 is not None:
            s1.hits += 1
            lat += l1_lat
        else:
            s1.misses += 1
            s2.accesses += 1
            line2 = l2.lookup(block)
            if line2 is not None:
                s2.hits += 1
                lat += l1_lat + l2_lat
                v1 = l1.fill(block, dirty=is_write)
                if v1 is not None and v1.dirty:
                    s1.writebacks += 1
                    line2b = l2.peek(v1.block)
                    if line2b is not None:
                        line2b.dirty = True
            else:
                s2.misses += 1
                s3.accesses += 1
                line3 = llc.lookup(block)
                if line3 is not None:
                    s3.hits += 1
                    if line3.ready_cycle > now:
                        lat += (line3.ready_cycle - now) + l1_lat + l2_lat + llc_lat
                        late_hits += 1
                    else:
                        lat += l1_lat + l2_lat + llc_lat
                    if line3.prefetched and not line3.used:
                        line3.used = True
                        useful += 1
                    hits += 1
                    llc_ready = line3.ready_cycle
                else:
                    s3.misses += 1
                    misses += 1
                    while missq and missq[0] <= now:
                        missq.popleft()
                    issue_t = now
                    if len(missq) >= mshr:
                        issue_t = missq.popleft()
                    llc_ready = dram.access(phys(block), issue_t)
                    missq.append(llc_ready)
                    lat += (llc_ready - now) + l1_lat + l2_lat + llc_lat
                fill_all(block, now, llc_ready)
                if is_write:
                    lw = l1.peek(block)
                    if lw is not None:
                        lw.dirty = True
                # This access reached the LLC: fire its prefetches.
                if pf_lists is not None:
                    # llc_indices is exactly the L2-miss stream, in order.
                    assert llc_indices is not None
                    if llc_cursor < len(llc_indices) and int(llc_indices[llc_cursor]) == i:
                        lst = pf_lists[llc_cursor]
                        llc_cursor += 1
                        if lst:
                            vis = now + pred_latency
                            for blk in lst:
                                pfq.append((vis, blk))

        ready_time = now + lat
        step = gap if gap > 0.25 else 0.25
        retire = max(retire + step, ready_time)
        robq.append((instr_i, retire))

    sim = SimResult(
        name=name or (prefetcher.name if prefetcher else "baseline"),
        instructions=int(instr_ids[-1]) if n else 0,
        cycles=retire,
        demand_accesses=s3.accesses,
        demand_hits=hits,
        demand_misses=misses,
        late_prefetch_hits=late_hits,
        prefetches_issued=issued,
        prefetches_useful=useful,
        prefetch_hits=useful,
    )
    return HierarchyResult(
        sim=sim,
        l1d=s1,
        l2=s2,
        llc=s3,
        dram=dram.stats.as_dict(),
        tlb_hit_rate=tlb.hit_rate if tlb is not None else 1.0,
        pages_touched=pages.pages_touched if pages is not None else 0,
    )
