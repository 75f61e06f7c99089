"""Multi-tenant contention world: private L1s, shared L2, shared DRAM.

The serving stack so far scores each tenant stream in isolation — accuracy
counters per stream, IPC per core. But the real cost of a *bad* prefetcher
is paid in shared resources: a low-accuracy tenant fills the shared cache
with garbage (evicting other tenants' live lines) and burns interconnect
slots that demands needed. This module builds the smallest world where that
coupling is visible and attributable:

* each tenant owns a **private L1** (:class:`~repro.sim.policy_cache.
  PolicyCache`, tree-PLRU by default — the common L1 policy);
* all tenants contend for **one shared L2** (PLRU) through a
  **bandwidth-limited interconnect** — a per-cycle slot model in the Simu3
  idiom: ``slots_per_cycle`` requests cross per cycle, the rest queue;
* the **banked DRAM model** (:class:`~repro.sim.dram.DRAMModel`) and the
  MSHR pool are shared.

Tenants run in disjoint block-address spaces (:data:`TENANT_ADDRESS_STRIDE`
apart), so the owner of any resident line is
``block // TENANT_ADDRESS_STRIDE`` — which makes pollution *attributable*:
when tenant A's prefetch fill evicts tenant B's line from the shared L2, the
(A, B) cell of the pollution matrix ticks, and the live/dead split records
whether the victim was a line B was actually using (a demand line or an
already-used prefetch) or dead weight.

Prefetchers are **streaming tenants** (:class:`~repro.runtime.streaming.
StreamingPrefetcher` — engine handles, adapters, throttled wrappers), fed
access-by-access *online* while the world advances, because admission
control (:mod:`repro.runtime.throttle`) changes emissions dynamically —
there is no batch precompute that could know what a throttle will decide.
Emissions inject at ``prefetch_level`` (the shared L2 by default, plus the
owner's L1 when set to ``"l1"``), tagged by owner.

:class:`PoisonedStream` is the adversarial tenant for benchmarks and tests:
it preserves its inner stream's cadence and seq numbering (the exactly-once
contract still holds) but replaces every predicted block with deterministic
garbage — accuracy 0, maximal pollution.

The event loop (:func:`_simulate`) is the repo's one multi-core loop: a
tuple of private levels per tenant above one shared level, an optional
link, and where prefetchers are fed are its parameters.
:func:`simulate_contention` runs it as ``(l1,)`` over the shared L2 behind
the slot link; :func:`~repro.sim.multicore.simulate_multicore` runs it as
``(l1d, l2)`` over a shared LLC with no link, replaying batch lists.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.runtime.streaming import Emission, StreamingPrefetcher
from repro.sim.dram import DRAMConfig, DRAMModel
from repro.sim.hierarchy import HierarchyConfig, LevelConfig, LevelStats
from repro.sim.metrics import SimResult
from repro.traces.trace import MemoryTrace

#: per-tenant block-address offset (1 TiB apart); the line owner is
#: recoverable from any resident block address by integer division.
TENANT_ADDRESS_STRIDE = 1 << 34


def tenant_of(block: int) -> int:
    """Owner tenant of an (offset) block address."""
    return block // TENANT_ADDRESS_STRIDE


@dataclass(frozen=True)
class ContentionConfig:
    """Geometry and bandwidth of the shared-hierarchy tenant world.

    The defaults are deliberately small (16 KB private L1s, one 256 KB
    shared L2) so that a handful of tenants genuinely contend — contention
    scenarios that fit comfortably in cache measure nothing.
    """

    l1: LevelConfig = LevelConfig(16 * 1024, 4, 4.0, policy="plru")
    l2: LevelConfig = LevelConfig(256 * 1024, 8, 12.0, policy="plru")
    dram: DRAMConfig = DRAMConfig()
    #: interconnect requests (demand misses + prefetch fills) per cycle
    slots_per_cycle: int = 1
    #: one-way interconnect traversal latency, cycles
    link_latency: float = 4.0
    #: where prefetches land: "l2" (shared) or "l1" (owner's L1 + shared L2)
    prefetch_level: str = "l2"
    width: int = 4
    rob: int = 256
    mshr: int = 32

    def __post_init__(self) -> None:
        if self.prefetch_level not in ("l1", "l2"):
            raise ValueError(
                f"prefetch_level must be 'l1' or 'l2', got {self.prefetch_level!r}"
            )
        if self.slots_per_cycle <= 0:
            raise ValueError("slots_per_cycle must be positive")


class Interconnect:
    """Bandwidth-limited L1↔L2 link: ``slots_per_cycle`` grants per cycle.

    The Simu3 slot idiom: a monotonic cycle cursor plus a used-slot count.
    A request at time ``t`` is granted in the first cycle at or after ``t``
    with a free slot; everything else queues (modelled by pushing the grant
    time forward — per-tenant waits are accounted so stolen slots are
    attributable to the tenant whose traffic consumed them).
    """

    def __init__(self, slots_per_cycle: int, n_tenants: int):
        self.slots_per_cycle = int(slots_per_cycle)
        self._cycle = 0
        self._used = 0
        self.demand_grants = [0] * n_tenants
        self.prefetch_grants = [0] * n_tenants
        self.demand_wait = [0.0] * n_tenants
        self.prefetch_wait = [0.0] * n_tenants

    def grant(self, cycle: float, tenant: int, prefetch: bool = False) -> float:
        c = int(cycle)
        if c > self._cycle:
            self._cycle = c
            self._used = 0
        if self._used >= self.slots_per_cycle:
            self._cycle += 1
            self._used = 0
        self._used += 1
        t = max(float(self._cycle), cycle)
        if prefetch:
            self.prefetch_grants[tenant] += 1
            self.prefetch_wait[tenant] += t - cycle
        else:
            self.demand_grants[tenant] += 1
            self.demand_wait[tenant] += t - cycle
        return t

    def stats(self) -> dict:
        return {
            "slots_per_cycle": self.slots_per_cycle,
            "demand_grants": list(self.demand_grants),
            "prefetch_grants": list(self.prefetch_grants),
            "demand_wait_cycles": [round(w, 1) for w in self.demand_wait],
            "prefetch_wait_cycles": [round(w, 1) for w in self.prefetch_wait],
        }


class PoisonedStream(StreamingPrefetcher):
    """Adversarial tenant: same cadence, deterministic garbage predictions.

    Wraps any streaming prefetcher and rewrites every non-empty emission to
    ``degree`` garbage blocks that the tenant will never demand (spread
    across cache sets so the shared L2 takes the full pollution hit). Seq
    numbering and the one-emission-per-access contract are untouched, so
    the poisoned tenant is indistinguishable from a catastrophically
    mispredicting model — which is the point.
    """

    #: far corner of the tenant's own address space (still < the stride)
    GARBAGE_BASE = 1 << 28

    def __init__(self, inner: StreamingPrefetcher, degree: int = 4, salt: int = 0):
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.inner = inner
        self.degree = int(degree)
        self.salt = int(salt)
        self.name = f"{getattr(inner, 'name', 'stream')}+poison"
        self.latency_cycles = getattr(inner, "latency_cycles", 0.0)
        self.storage_bytes = getattr(inner, "storage_bytes", 0)

    def _garble(self, emissions: list[Emission]) -> list[Emission]:
        out = []
        for em in emissions:
            if not em.blocks:
                out.append(em)
                continue
            base = self.GARBAGE_BASE + self.salt
            blocks = [
                base + ((em.seq * 7919 + j * 193) & 0xFFFFF)
                for j in range(self.degree)
            ]
            out.append(Emission(em.seq, blocks))
        return out

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        return self._garble(self.inner.ingest(pc, addr))

    def flush(self) -> list[Emission]:
        return self._garble(self.inner.flush())

    def reset(self) -> None:
        self.inner.reset()


@dataclass
class TenantResult:
    """One tenant's view of the shared world."""

    sim: SimResult
    l1: LevelStats
    l2: LevelStats  # this tenant's demand traffic into the shared L2
    #: prefetches that never injected because the line was already resident
    redundant_prefetches: int = 0

    def summary(self) -> dict:
        return {
            **self.sim.summary(),
            "l1_hit_rate": round(self.l1.hit_rate, 4),
            "l2_demand_hit_rate": round(self.l2.hit_rate, 4),
            "redundant_prefetches": self.redundant_prefetches,
        }


@dataclass
class ContentionResult:
    """Per-tenant results plus shared-resource and attribution statistics."""

    tenants: list[TenantResult]
    l2: LevelStats
    dram: dict = field(default_factory=dict)
    interconnect: dict = field(default_factory=dict)
    #: pollution[a][v]: tenant a's prefetch fills that evicted tenant v's
    #: lines from the shared L2 (a != v)
    pollution: list[list[int]] = field(default_factory=list)
    #: same, counting only *live* victims (demand lines or used prefetches)
    pollution_live: list[list[int]] = field(default_factory=list)
    #: per-tenant throttle summaries (tenants wearing a ThrottledStream)
    throttle: dict = field(default_factory=dict)
    #: collected emissions per tenant (``collect=True``), oracle-shaped
    lists: list[list[list[int]]] | None = None

    @property
    def aggregate_ipc(self) -> float:
        return sum(t.sim.ipc for t in self.tenants)

    def inflicted(self, tenant: int, live_only: bool = False) -> int:
        """Total cross-tenant evictions caused by ``tenant``'s prefetches."""
        m = self.pollution_live if live_only else self.pollution
        return sum(n for v, n in enumerate(m[tenant]) if v != tenant)

    def suffered(self, tenant: int, live_only: bool = False) -> int:
        """Evictions of ``tenant``'s lines caused by *other* tenants."""
        m = self.pollution_live if live_only else self.pollution
        return sum(row[tenant] for a, row in enumerate(m) if a != tenant)

    def summary(self) -> dict:
        return {
            "aggregate_ipc": round(self.aggregate_ipc, 4),
            "l2_hit_rate": round(self.l2.hit_rate, 4),
            "dram_row_hit_rate": self.dram.get("row_hit_rate", 0.0),
            "pollution": [list(row) for row in self.pollution],
            "pollution_live": [list(row) for row in self.pollution_live],
            "interconnect": dict(self.interconnect),
            "throttle": dict(self.throttle),
            "tenants": [t.summary() for t in self.tenants],
        }


class _Tenant:
    """One tenant's (or core's) private state: trace cursor, caches, clocks."""

    def __init__(
        self,
        idx: int,
        trace: MemoryTrace,
        private: tuple[LevelConfig, ...],
        n_tenants: int,
        collect: bool,
    ):
        self.idx = idx
        self.trace = trace
        self.blocks = trace.block_addrs + idx * TENANT_ADDRESS_STRIDE
        self.instr_ids = trace.instr_ids
        self.caches = [level.make() for level in private]
        self.stats = [LevelStats(f"tenant{idx}/L{j + 1}") for j in range(len(private))]
        #: this tenant's demand traffic into the shared level
        self.shared_stats = LevelStats(f"tenant{idx}/L{len(private) + 1}-demand")
        self.pos = 0
        self.fetch = 0.0
        self.retire = 0.0
        self.rob_floor = 0.0
        self.prev_instr = 0
        self.robq: deque[tuple[int, float]] = deque()
        self.late_hits = 0
        self.issued = 0
        self.useful = 0
        self.redundant = 0
        #: this tenant's row of the pollution matrices (see ContentionResult)
        self.pollution = [0] * n_tenants
        self.pollution_live = [0] * n_tenants
        self.lists = [[] for _ in range(len(self.blocks))] if collect else None

    def sim_result(self, label: str, demand_hits: int) -> SimResult:
        return SimResult(
            name=f"{label}{self.idx}:{self.trace.name or 'trace'}",
            instructions=int(self.instr_ids[-1]) if len(self.instr_ids) else 0,
            cycles=self.retire,
            demand_accesses=len(self.blocks),
            demand_hits=demand_hits,
            demand_misses=self.shared_stats.misses,
            late_prefetch_hits=self.late_hits,
            prefetches_issued=self.issued,
            prefetches_useful=self.useful,
            prefetch_hits=self.useful,
        )


def _simulate(
    traces: list[MemoryTrace],
    streams: list[StreamingPrefetcher | None],
    cfg: ContentionConfig | HierarchyConfig,
    private: tuple[LevelConfig, ...],
    shared: LevelConfig,
    link: Interconnect | None = None,
    link_latency: float = 0.0,
    prefetch_to_l1: bool = False,
    feed_at_shared: bool = False,
    collect: bool = False,
) -> tuple[list[_Tenant], LevelStats, DRAMModel]:
    """Run ``private`` levels per tenant above one ``shared`` level.

    ``cfg`` supplies ``dram``, ``width``, ``rob`` and ``mshr``. Without a
    ``link`` a request reaches the shared level the cycle it leaves the
    private ones. Streams ingest every access before the prefetch drain or,
    with ``feed_at_shared``, only shared-level accesses after their lookup.
    """
    n = len(traces)
    if n == 0:
        raise ValueError("need at least one trace")
    if len(streams) != n:
        raise ValueError("need one stream slot per tenant")
    llc = shared.make()
    dram = DRAMModel(cfg.dram)
    tenants = [_Tenant(i, t, private, n, collect) for i, t in enumerate(traces)]

    width = float(cfg.width)
    rob = int(cfg.rob)
    mshr = int(cfg.mshr)
    private_lats = [level.latency for level in private]

    missq: deque[float] = deque()  # shared MSHR pool
    # heap of (visible_time, seq, offset_block, owner tenant)
    pfq: list[tuple[float, int, int, int]] = []
    pf_seq = 0

    def drain_prefetches(now: float) -> None:
        while pfq and pfq[0][0] <= now:
            t_vis, _, blk, owner = heapq.heappop(pfq)
            if llc.peek(blk) is not None:
                tenants[owner].redundant += 1
                continue
            granted = t_vis if link is None else link.grant(t_vis, owner, prefetch=True)
            while missq and missq[0] <= granted:
                missq.popleft()
            if len(missq) >= mshr:
                continue  # fabric saturated: the speculative fill is dropped
            ready = dram.access(blk, granted + link_latency)
            missq.append(ready)
            t = tenants[owner]
            victim = llc.fill(blk, prefetched=True, ready_cycle=ready)
            if victim is not None and (v := tenant_of(victim.block)) != owner:
                t.pollution[v] += 1
                if not victim.prefetched or victim.used:
                    # A demand line, or a prefetch the victim tenant already
                    # used: live state another tenant's speculation destroyed.
                    t.pollution_live[v] += 1
            if prefetch_to_l1:
                t.caches[0].fill(blk, prefetched=True, ready_cycle=ready)
            t.issued += 1

    def feed(t: _Tenant, i: int, now: float) -> None:
        """Ingest access ``i`` into ``t``'s stream; queue what it emits."""
        nonlocal pf_seq
        stream = streams[t.idx]
        vis = now + float(getattr(stream, "latency_cycles", 0.0))
        offset = t.idx * TENANT_ADDRESS_STRIDE
        for em in stream.ingest(int(t.trace.pcs[i]), int(t.trace.addrs[i])):
            if t.lists is not None:
                t.lists[em.seq] = list(em.blocks)
            for blk in em.blocks:
                heapq.heappush(pfq, (vis, pf_seq, blk + offset, t.idx))
                pf_seq += 1

    def path_latency(start: float, now: float) -> float:
        # Left-to-right sums: another association can round differently,
        # and the goldens pin cycles exactly.
        lat = start - now
        for level_lat in private_lats:
            lat += level_lat
        return lat + shared.latency

    # Event loop: always advance the tenant with the smallest current time.
    heap = [(0.0, t.idx) for t in tenants if len(t.blocks)]
    while heap:
        _, ti = heapq.heappop(heap)
        t = tenants[ti]
        i = t.pos
        t.pos += 1
        instr_i = int(t.instr_ids[i])
        gap = (instr_i - t.prev_instr) / width
        t.prev_instr = instr_i
        t.fetch += gap
        while t.robq and t.robq[0][0] <= instr_i - rob:
            r = t.robq.popleft()[1]
            if r > t.rob_floor:
                t.rob_floor = r
        if t.fetch < t.rob_floor:
            t.fetch = t.rob_floor
        now = t.fetch

        if not feed_at_shared and streams[ti] is not None:
            feed(t, i, now)
        drain_prefetches(now)

        block = int(t.blocks[i])
        lat = 0.0
        for j, cache in enumerate(t.caches):
            lat += private_lats[j]
            line = cache.lookup(block)
            if line is None:
                continue
            t.stats[j].hits += 1
            if line.ready_cycle > now:  # in-flight prefetch: wait it out
                lat += line.ready_cycle - now
                t.late_hits += 1
            if line.prefetched and not line.used:
                line.used = True
                t.useful += 1
            for upper in t.caches[:j]:
                upper.fill(block)
            break
        else:
            granted = now if link is None else link.grant(now, ti, prefetch=False)
            arrive = granted + link_latency
            line = llc.lookup(block)
            if line is not None:
                t.shared_stats.hits += 1
                lat = path_latency(arrive, now)
                if line.ready_cycle > arrive:  # late prefetch: wait for the fill
                    t.late_hits += 1
                    # Same sum either way; each world keeps the rounding its goldens pin.
                    wait = line.ready_cycle - arrive
                    lat = path_latency(line.ready_cycle, now) if link is None else lat + wait
                if line.prefetched and not line.used:
                    line.used = True
                    tenants[tenant_of(block)].useful += 1
            else:
                while missq and missq[0] <= arrive:
                    missq.popleft()
                issue_t = arrive
                if len(missq) >= mshr:
                    issue_t = missq.popleft()
                ready = dram.access(block, issue_t)
                missq.append(ready)
                lat = path_latency(ready, now)
                # Demand fills evict too, but that is ordinary capacity
                # contention — the pollution matrix tracks only evictions a
                # *prefetch* caused, so blame lands on speculation alone.
                llc.fill(block, ready_cycle=ready)
            for cache in t.caches:
                cache.fill(block)
            if feed_at_shared and streams[ti] is not None:
                feed(t, i, now)

        ready_time = now + lat
        step = gap if gap > 0.25 else 0.25
        t.retire = max(t.retire + step, ready_time)
        t.robq.append((instr_i, t.retire))
        if t.pos < len(t.blocks):
            heapq.heappush(heap, (t.fetch, ti))

    # Tail flush: contract hygiene (and lists completeness) — emissions
    # delivered after the last access cannot affect timing, but the
    # exactly-once invariant and the oracle-shape comparison need them.
    shared_stats = LevelStats(f"L{len(private) + 1}-shared")
    for t, stream in zip(tenants, streams):
        for em in stream.flush() if stream is not None else ():
            if t.lists is not None:
                t.lists[em.seq] = list(em.blocks)
        # The loop counts hits only: each level sees the misses of the one above.
        accesses = len(t.blocks)
        for st in (*t.stats, t.shared_stats):
            st.accesses, st.misses = accesses, accesses - st.hits
            accesses = st.misses
        shared_stats.accesses += t.shared_stats.accesses
        shared_stats.hits += t.shared_stats.hits
        shared_stats.misses += t.shared_stats.misses
    return tenants, shared_stats, dram


def simulate_contention(
    traces: list[MemoryTrace],
    streams: list[StreamingPrefetcher | None] | None = None,
    config: ContentionConfig | None = None,
    collect: bool = False,
) -> ContentionResult:
    """Run ``len(traces)`` tenants against one shared L2 + DRAM.

    ``streams[i]`` serves tenant ``i`` online (``None`` = no prefetching):
    every access is ingested as the world reaches it, and whatever the
    stream emits — full, degree-capped, dropped, poisoned — injects at
    ``config.prefetch_level`` tagged with the tenant's address space. The
    same handle objects driving a live :class:`~repro.runtime.multistream.
    MultiStreamEngine` or :class:`~repro.runtime.sharded.ShardedEngine`
    fleet work unchanged.

    With ``collect=True`` the result carries every tenant's emissions in
    oracle shape (``lists[tenant][seq]``) — the bit-identity hook the
    zero-overhead throttling gate compares against batch answers.
    """
    cfg = config or ContentionConfig()
    streams = [None] * len(traces) if streams is None else streams
    ic = Interconnect(cfg.slots_per_cycle, len(traces))
    tenants, l2_stats, dram = _simulate(
        traces, streams, cfg, (cfg.l1,), cfg.l2, link=ic, link_latency=cfg.link_latency,
        prefetch_to_l1=cfg.prefetch_level == "l1", collect=collect,
    )

    throttle_summaries: dict = {}
    for idx, stream in enumerate(streams):
        throttle = getattr(stream, "throttle", None)
        if throttle is not None and hasattr(throttle, "summary"):
            throttle_summaries[getattr(stream, "name", f"tenant{idx}")] = (
                throttle.summary()
            )

    results = [
        TenantResult(
            sim=t.sim_result("tenant", t.stats[0].hits + t.shared_stats.hits),
            l1=t.stats[0],
            l2=t.shared_stats,
            redundant_prefetches=t.redundant,
        )
        for t in tenants
    ]
    return ContentionResult(
        tenants=results,
        l2=l2_stats,
        dram=dram.stats.as_dict(),
        interconnect=ic.stats(),
        pollution=[t.pollution for t in tenants],
        pollution_live=[t.pollution_live for t in tenants],
        throttle=throttle_summaries,
        lists=[t.lists for t in tenants] if collect else None,
    )
