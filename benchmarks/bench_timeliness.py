"""Timeliness anatomy of the rule-based field (sequence-level taxonomy).

Explains the shootout outcomes without a timing loop: for each prefetcher,
classify every prediction as timely / late / useless / redundant by its
distance-to-use, and verify the structural expectations —

* BO's offset search buys longer distances than a depth-limited streamer;
* charging a 27.7 K-cycle predictor latency (Voyager's, Table IX) on the
  same predictions reclassifies essentially all timely prefetches as late —
  the sequence-level version of the paper's Figs. 12–14 collapse.
"""

from repro.prefetch import (
    BestOffsetPrefetcher,
    StreamPrefetcher,
    analyze_timeliness,
)
from repro.sim import SimConfig, simulate
from repro.traces import make_workload
from repro.utils import log


def bench_timeliness_anatomy(benchmark, profile):
    app = "462.libquantum"
    trace = make_workload(app, scale=profile.sim_trace_scale, seed=2)
    base = simulate(trace, None, SimConfig())
    cpa = base.cycles / max(base.demand_accesses, 1)

    def run():
        out = {}
        for pf in (StreamPrefetcher(), BestOffsetPrefetcher()):
            out[pf.name] = analyze_timeliness(trace, pf, cycles_per_access=cpa)
        return out

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    log.table(
        f"Timeliness anatomy on {app} ({cpa:.1f} cycles/access)",
        ["prefetcher", "timely", "late", "useless", "redundant", "median dist"],
        [
            [name, f"{r.timely:,}", f"{r.late:,}", f"{r.useless:,}",
             f"{r.redundant:,}", f"{r.summary()['median_distance']:.0f}"]
            for name, r in reports.items()
        ],
    )
    for r in reports.values():
        assert r.timely + r.late + r.useless + r.redundant == r.total
    # BO's best-offset search must reach at least the streamer's distance.
    assert (
        reports["BO"].summary()["median_distance"]
        >= reports["Streamer"].summary()["median_distance"]
    )


def bench_timeliness_latency_collapse(benchmark, profile):
    app = "462.libquantum"
    trace = make_workload(app, scale=profile.sim_trace_scale, seed=2)
    base = simulate(trace, None, SimConfig())
    cpa = base.cycles / max(base.demand_accesses, 1)

    class _WithLatency:
        def __init__(self, inner, latency):
            self._inner = inner
            self.name = f"{inner.name}@{latency}"
            self.latency_cycles = latency
            self.storage_bytes = inner.storage_bytes

        def prefetch_lists(self, trace):
            return self._inner.prefetch_lists(trace)

    def run():
        bo = BestOffsetPrefetcher()
        fast = analyze_timeliness(trace, bo, cycles_per_access=cpa)
        slow = analyze_timeliness(
            trace, _WithLatency(BestOffsetPrefetcher(), 27_700), cycles_per_access=cpa
        )
        return fast, slow

    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    log.table(
        "Same predictions, Voyager's latency (27.7K cycles)",
        ["variant", "timely fraction"],
        [
            ["BO @ 60 cyc", f"{fast.timely_fraction:.1%}"],
            ["BO @ 27.7K cyc", f"{slow.timely_fraction:.1%}"],
        ],
    )
    assert slow.timely_fraction < 0.25 * max(fast.timely_fraction, 1e-9) or (
        fast.timely_fraction == 0.0
    )