"""ChampSim-like trace-driven simulation (paper Sec. VII-A1).

The simulators share one timing model (retire width, ROB run-ahead,
MSHR-bounded memory parallelism, prefetch timeliness):

* :func:`simulate` — the fast LLC-only simulator used by the paper's
  experiments (Figs. 12–14): set-associative LRU LLC + flat DRAM latency.
* :func:`simulate_hierarchy` — the detailed single-core variant: L1D/L2/LLC
  with LRU or PLRU replacement, write-back traffic, banked open-page DRAM
  (:class:`DRAMModel`), virtual→physical paging and an optional TLB.
* one multi-core event loop (private levels per core over one shared level
  and DRAM) behind two adapters: :func:`simulate_multicore` (Table III's
  4-core system: private L1D/L2, shared LLC, batch prefetch lists) and
  :func:`simulate_contention` (online tenant streams, private L1s, one shared
  L2 behind a slot interconnect, attributable pollution for the admission
  throttle in :mod:`repro.runtime.throttle`).

Prefetch timeliness is the paper's central quantity: a prefetch issues
``latency_cycles`` after its trigger access, so slow predictors produce late
(or useless) prefetches. Reported metrics follow the standard taxonomy:
accuracy (useful / issued), coverage (prefetch-served demands / baseline
misses), and IPC improvement over the no-prefetch baseline.

Analysis helpers: :func:`opt_miss_rate` (Belady bound) and
:func:`replacement_headroom`.
"""

from repro.sim.cache import SetAssocCache
from repro.sim.contention import (
    TENANT_ADDRESS_STRIDE,
    ContentionConfig,
    ContentionResult,
    Interconnect,
    PoisonedStream,
    TenantResult,
    simulate_contention,
    tenant_of,
)
from repro.sim.dram import DRAMConfig, DRAMModel, DRAMStats
from repro.sim.hierarchy import (
    HierarchyConfig,
    HierarchyResult,
    LevelConfig,
    LevelStats,
    extract_llc_stream,
    simulate_hierarchy,
)
from repro.sim.metrics import SimResult, ipc_improvement
from repro.sim.multicore import MulticoreResult, simulate_multicore
from repro.sim.optimal import opt_miss_count, opt_miss_rate, replacement_headroom
from repro.sim.paging import TLB, PageTable
from repro.sim.policy_cache import PolicyCache
from repro.sim.replacement import make_policy, policy_names
from repro.sim.simulator import SimConfig, simulate

__all__ = [
    "SetAssocCache",
    "PolicyCache",
    "make_policy",
    "policy_names",
    "DRAMConfig",
    "DRAMModel",
    "DRAMStats",
    "PageTable",
    "TLB",
    "LevelConfig",
    "LevelStats",
    "HierarchyConfig",
    "HierarchyResult",
    "extract_llc_stream",
    "simulate_hierarchy",
    "MulticoreResult",
    "simulate_multicore",
    "ContentionConfig",
    "ContentionResult",
    "Interconnect",
    "PoisonedStream",
    "TenantResult",
    "TENANT_ADDRESS_STRIDE",
    "simulate_contention",
    "tenant_of",
    "SimResult",
    "ipc_improvement",
    "opt_miss_count",
    "opt_miss_rate",
    "replacement_headroom",
    "SimConfig",
    "simulate",
]
