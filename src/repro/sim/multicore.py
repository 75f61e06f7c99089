"""Multi-core simulation: private L1D/L2 per core, shared LLC + DRAM.

Table III simulates a 4-core system. The shared LLC and DRAM are where
prefetching interacts across cores: one core's aggressive prefetcher evicts
another core's working set and steals DRAM bus slots, which the
multi-programmed runs (``bench_hierarchy``, examples) quantify.

This is the contention world's event loop (:mod:`repro.sim.contention`)
configured as the Table III hierarchy: private levels ``(l1d, l2)`` per core
above one shared LLC built from ``config.llc``, shared DRAM and MSHRs, and no
interconnect. Cores run in disjoint address spaces (:data:`CORE_ADDRESS_STRIDE`
apart, like ChampSim's).

Prefetchers sit at the LLC, one per core. Prefetches fill the LLC only, so
each core's LLC stream is known up front (:func:`extract_llc_stream`) and its
lists are computed in one batch: per core, or — with ``shared_prefetcher`` —
by one model serving every core as tenant streams of a
:class:`~repro.runtime.multistream.MultiStreamEngine` (coalesced predict
batches, one model copy, per-core lists bit-identical to private copies; the
engine's counters land in :attr:`MulticoreResult.predictor`). The lists are
replayed into the loop as each core's LLC accesses happen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.prefetch.base import Prefetcher
from repro.runtime.multistream import serve_interleaved
from repro.runtime.streaming import Emission, StreamingPrefetcher
from repro.sim.contention import TENANT_ADDRESS_STRIDE, _simulate
from repro.sim.hierarchy import HierarchyConfig, LevelStats, extract_llc_stream
from repro.sim.metrics import SimResult
from repro.traces.trace import MemoryTrace

#: per-core address-space offset in blocks (1 TiB apart: no aliasing)
CORE_ADDRESS_STRIDE = TENANT_ADDRESS_STRIDE


@dataclass
class MulticoreResult:
    """Per-core results plus shared-resource statistics."""

    cores: list[SimResult]
    llc: LevelStats
    dram: dict = field(default_factory=dict)
    #: shared-model serving counters (empty unless ``shared_prefetcher`` ran)
    predictor: dict = field(default_factory=dict)

    @property
    def aggregate_ipc(self) -> float:
        return sum(r.ipc for r in self.cores)

    def weighted_speedup(self, alone: list[SimResult]) -> float:
        """Sum of per-core IPC ratios vs. the runs-alone baselines."""
        if len(alone) != len(self.cores):
            raise ValueError("need one runs-alone result per core")
        return sum(
            shared.ipc / single.ipc
            for shared, single in zip(self.cores, alone)
            if single.ipc > 0
        )

    def summary(self) -> dict:
        out = {
            "aggregate_ipc": round(self.aggregate_ipc, 4),
            "llc_hit_rate": round(self.llc.hit_rate, 4),
            "dram_row_hit_rate": self.dram.get("row_hit_rate", 0.0),
            "cores": [r.summary() for r in self.cores],
        }
        if self.predictor:
            out["shared_predictor"] = dict(self.predictor)
        return out


class _ListReplay(StreamingPrefetcher):
    """One core's batch lists, replayed over its LLC accesses: the k-th
    ingest must be the k-th access of the precomputed LLC stream."""

    def __init__(self, trace: MemoryTrace, cfg: HierarchyConfig, latency_cycles):
        idxs = extract_llc_stream(trace, cfg)
        self.llc_trace = MemoryTrace(
            trace.instr_ids[idxs], trace.pcs[idxs], trace.addrs[idxs], trace.name
        )
        self.addrs = self.llc_trace.addrs.tolist()
        self.latency_cycles = float(latency_cycles)
        self.lists: list[list[int]] = []  # filled by the batch pass
        self.seq = 0

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        k = self.seq
        if k >= len(self.addrs) or self.addrs[k] != addr:
            raise RuntimeError(f"LLC access {k} is not the precomputed LLC stream's")
        self.seq = k + 1
        return [Emission(k, self.lists[k])]


def simulate_multicore(
    traces: list[MemoryTrace],
    prefetchers: list[Prefetcher | None] | None = None,
    config: HierarchyConfig | None = None,
    shared_prefetcher: Prefetcher | None = None,
    shared_stream_kwargs: dict | None = None,
) -> MulticoreResult:
    """Simulate ``len(traces)`` cores sharing one LLC and DRAM.

    ``prefetchers[i]`` serves core ``i`` (``None`` = no prefetching for that
    core). Alternatively ``shared_prefetcher`` (a model-backed prefetcher
    exposing ``.multistream()``, e.g. :class:`~repro.prefetch.dart.DARTPrefetcher`)
    serves *every* core from one model; ``shared_stream_kwargs`` forwards
    ``batch_size`` / ``max_wait`` to its engine.
    """
    cfg = config or HierarchyConfig()
    n_cores = len(traces)
    if shared_prefetcher is not None:
        if prefetchers is not None and any(p is not None for p in prefetchers):
            raise ValueError("pass per-core prefetchers or shared_prefetcher, not both")
        if not hasattr(shared_prefetcher, "multistream"):
            raise TypeError(
                "shared_prefetcher must expose .multistream() (a model-backed "
                "prefetcher such as DARTPrefetcher or NeuralPrefetcher)"
            )
    elif shared_stream_kwargs is not None:
        raise ValueError("shared_stream_kwargs needs a shared_prefetcher")
    elif prefetchers is not None and len(prefetchers) != n_cores:
        raise ValueError("need one prefetcher slot per core")

    streams: list[StreamingPrefetcher | None] = [None] * n_cores
    predictor_stats: dict = {}
    if shared_prefetcher is not None:
        # The engine's equivalence bar makes these lists bit-identical to
        # per-core model instances, so timing matches the replicated path.
        engine = shared_prefetcher.multistream(**(shared_stream_kwargs or {}))
        replays = [_ListReplay(t, cfg, shared_prefetcher.latency_cycles) for t in traces]
        handles = engine.streams(n_cores, names=[f"core{i}" for i in range(n_cores)])
        subs = [r.llc_trace for r in replays]
        _, _, lists = serve_interleaved(handles, subs, collect=True, measure=False)
        for replay, lst in zip(replays, lists):
            replay.lists = lst
        streams = replays
        predictor_stats = {**engine.stats(), "name": shared_prefetcher.name}
    else:
        # Batched predictions per core over its private LLC-level stream.
        for i, pf in enumerate(prefetchers or ()):
            if pf is not None:
                streams[i] = replay = _ListReplay(traces[i], cfg, pf.latency_cycles)
                replay.lists = pf.prefetch_lists(replay.llc_trace)

    cores, llc, dram = _simulate(
        traces, streams, cfg, (cfg.l1d, cfg.l2), cfg.llc, feed_at_shared=True
    )
    return MulticoreResult(
        cores=[t.sim_result("core", t.shared_stats.hits) for t in cores],
        llc=replace(llc, name="LLC"),
        dram=dram.stats.as_dict(),
        predictor=predictor_stats,
    )
