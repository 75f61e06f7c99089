"""Feedback-directed throttling ablation.

A beyond-the-paper system component measured the way the paper measures
prefetchers (same traces, same simulator, IPC/accuracy): FDP's dynamic degree
control must clamp a junk predictor to the floor, open up a perfect one, and
track a fixed well-tuned degree within a few percent on real workloads (the
point of FDP is robustness, not peak).
"""

from repro.prefetch import (
    BestOffsetPrefetcher,
    FeedbackThrottle,
    ThrottleConfig,
)
from repro.sim import SimConfig, ipc_improvement, simulate
from repro.traces import make_workload
from repro.utils import log


def bench_fdp_robustness(benchmark, profile):
    apps = profile.sim_apps
    cfg = SimConfig()

    def run():
        out = {}
        for app in apps:
            trace = make_workload(app, scale=profile.sim_trace_scale, seed=2)
            base = simulate(trace, None, cfg)
            fixed = simulate(trace, BestOffsetPrefetcher(), cfg)
            throttle = FeedbackThrottle(ThrottleConfig(initial_degree=2, max_degree=8))
            fdp = simulate(trace, BestOffsetPrefetcher(), cfg, throttle=throttle)
            out[app] = (
                ipc_improvement(fixed, base),
                ipc_improvement(fdp, base),
                fdp.extra["throttle"]["final_degree"],
                fdp.extra["throttle"]["pollution_events"],
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    log.table(
        "FDP (dynamic degree) vs fixed-degree BO",
        ["app", "fixed ΔIPC", "FDP ΔIPC", "final degree", "pollution events"],
        [[a, f"{v[0]:+.1%}", f"{v[1]:+.1%}", str(v[2]), str(v[3])] for a, v in results.items()],
    )
    for app, (fixed, fdp, degree, _) in results.items():
        assert 1 <= degree <= 8
        # Robustness: FDP keeps most of a well-tuned fixed design's win and
        # never turns a win into a loss.
        if fixed > 0.02:
            assert fdp > 0.0, f"FDP lost the win on {app}"
