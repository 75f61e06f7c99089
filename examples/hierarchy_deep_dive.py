#!/usr/bin/env python3
"""Whole-hierarchy study: where do a workload's cycles actually go?

The paper evaluates prefetchers at the LLC with a flat DRAM latency; this
example runs the *detailed* substrate — L1D/L2/LLC with replacement policies,
first-touch virtual→physical paging, and the banked open-page DRAM model — to
answer questions the flat model cannot:

1. how much each cache level filters (hit-rate ladder),
2. whether misses are capacity or replacement misses (Belady headroom),
3. how much DRAM row locality the OS page allocator destroys,
4. what an LLC prefetcher is worth once all of that is modeled.

Usage::

    python examples/hierarchy_deep_dive.py [workload]   # default: 602.gcc
"""

import sys

from repro.prefetch import BestOffsetPrefetcher, StreamPrefetcher
from repro.sim import (
    HierarchyConfig,
    ipc_improvement,
    opt_miss_rate,
    replacement_headroom,
    simulate,
    simulate_hierarchy,
)
from repro.traces import WORKLOAD_NAMES, make_workload


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "602.gcc"
    if workload not in WORKLOAD_NAMES:
        raise SystemExit(f"unknown workload {workload!r}; choose from {WORKLOAD_NAMES}")

    trace = make_workload(workload, scale=0.2, seed=2)
    print(f"=== hierarchy deep-dive: {workload} ({len(trace):,} accesses) ===\n")

    # 1. The hit-rate ladder and DRAM behaviour, paging on vs. off.
    for paging in (True, False):
        cfg = HierarchyConfig(paging=paging)
        r = simulate_hierarchy(trace, None, cfg)
        tag = "paged (ChampSim-like)" if paging else "contiguous frames"
        print(f"--- {tag} ---")
        print(f"  L1D {r.l1d.hit_rate:7.2%}   L2 {r.l2.hit_rate:7.2%}   "
              f"LLC {r.llc.hit_rate:7.2%}")
        print(f"  DRAM row-hit rate : {r.dram['row_hit_rate']:.2%} "
              f"({r.dram['row_conflicts']} conflicts)")
        print(f"  IPC               : {r.sim.ipc:.3f}\n")

    # 2. Replacement headroom: would a better policy than LRU help at all?
    flat = simulate(trace, None)
    head = replacement_headroom(trace, flat.demand_misses, 8 * 1024 * 1024, 16)
    print("--- Belady (OPT) analysis at the LLC ---")
    print(f"  LRU misses        : {head['lru_misses']:,}")
    print(f"  OPT misses        : {head['opt_misses']:,}")
    print(f"  OPT miss rate     : {opt_miss_rate(trace, 8 * 1024 * 1024):.2%}")
    print(f"  replacement slack : {head['headroom']:.2%} "
          f"(what a perfect policy could remove; the rest needs prefetching)\n")

    # 3. Replacement-policy ablation at the LLC.
    print("--- LLC replacement policy (full hierarchy) ---")
    from dataclasses import replace

    base_cfg = HierarchyConfig()
    for policy in ("lru", "plru"):
        cfg = replace(base_cfg, llc=replace(base_cfg.llc, policy=policy))
        r = simulate_hierarchy(trace, None, cfg)
        print(f"  {policy:7s} LLC hit {r.llc.hit_rate:7.2%}   IPC {r.sim.ipc:.3f}")
    print()

    # 4. What prefetching is worth in the detailed model.
    print("--- LLC prefetchers in the detailed model ---")
    cfg = HierarchyConfig()
    base = simulate_hierarchy(trace, None, cfg)
    for pf in (StreamPrefetcher(), BestOffsetPrefetcher()):
        r = simulate_hierarchy(trace, pf, cfg)
        print(f"  {pf.name:9s} IPC {r.sim.ipc:.3f} ({ipc_improvement(r.sim, base.sim):+6.1%})  "
              f"accuracy {r.sim.accuracy:6.2%}  LLC hit {r.llc.hit_rate:.2%}")


if __name__ == "__main__":
    main()
