"""Feedback-directed throttling (FDP)."""

import pytest

from repro.prefetch import (
    FeedbackThrottle,
    NextLinePrefetcher,
    PrecomputedPrefetcher,
    ThrottleConfig,
)
from repro.sim import SimConfig, ipc_improvement, simulate
from repro.traces.generators import StreamPhase, compose_trace


def _stream_trace(n=4000, gap=20):
    return compose_trace([(StreamPhase(0, 10**7, stride_blocks=1), n)], seed=0, mean_instr_gap=gap)


# ---------------------------------------------------------------- controller
def test_throttle_validation():
    with pytest.raises(ValueError):
        FeedbackThrottle(ThrottleConfig(min_degree=4, initial_degree=2))


def test_throttle_grows_on_high_accuracy():
    t = FeedbackThrottle(ThrottleConfig(interval=10, initial_degree=2, max_degree=6))
    for _ in range(3):
        for _ in range(10):
            t.on_useful(late=False)
            t.on_issue()
    assert t.current_degree() > 2
    assert t.current_degree() <= 6


def test_throttle_shrinks_on_low_accuracy():
    t = FeedbackThrottle(ThrottleConfig(interval=10, initial_degree=4, min_degree=1))
    for _ in range(5):
        for _ in range(10):
            t.on_issue()  # issued, never useful
    assert t.current_degree() == 1


def test_throttle_grows_on_lateness():
    cfg = ThrottleConfig(interval=10, initial_degree=2, acc_high=0.99, late_high=0.5)
    t = FeedbackThrottle(cfg)
    for _ in range(10):
        t.on_useful(late=True)  # 100% late; accuracy below acc_high
        t.on_issue()
    assert t.current_degree() == 3


def test_throttle_shrinks_on_pollution():
    cfg = ThrottleConfig(interval=10, initial_degree=4, pollution_high=0.1, acc_high=0.5)
    t = FeedbackThrottle(cfg)
    for k in range(10):
        t.on_useful(late=False)
        t.on_prefetch_eviction(victim_block=1000 + k)
        t.on_demand_miss(1000 + k)  # every victim comes back: pure pollution
        t.on_issue()
    assert t.current_degree() == 3  # shrank despite perfect accuracy
    assert t.total_pollution == 10


def test_throttle_pollution_filter_bounded():
    t = FeedbackThrottle(ThrottleConfig(filter_entries=4))
    for k in range(10):
        t.on_prefetch_eviction(k)
    assert len(t._evicted) <= 4
    t.on_demand_miss(0)  # long-evicted entry fell out of the filter
    assert t.total_pollution == 0


def test_throttle_summary_fields():
    t = FeedbackThrottle()
    s = t.summary()
    assert s["final_degree"] == t.current_degree()
    assert s["adjustments"] == 0


# ------------------------------------------------------- simulator coupling
def test_fdp_raises_degree_on_accurate_stream():
    tr = _stream_trace()
    pf = NextLinePrefetcher(degree=8)  # offers 8 candidates; FDP gates them
    pf.latency_cycles = 0
    throttle = FeedbackThrottle(ThrottleConfig(initial_degree=1, max_degree=8, interval=128))
    r = simulate(tr, pf, SimConfig(), throttle=throttle)
    info = r.extra["throttle"]
    assert info["final_degree"] > 1  # accurate stream: controller opened up
    assert info["adjustments"] > 0


def test_fdp_clamps_junk_prefetcher():
    tr = _stream_trace(3000)
    junk = [[int(b) + 10**6, int(b) + 2 * 10**6] for b in tr.block_addrs]
    pf = PrecomputedPrefetcher(junk, name="junk")
    throttle = FeedbackThrottle(ThrottleConfig(initial_degree=8, max_degree=8, interval=128))
    r = simulate(tr, pf, SimConfig(), throttle=throttle)
    assert r.extra["throttle"]["final_degree"] == 1
    # throttling reduces junk issued vs. unthrottled
    r_free = simulate(tr, pf, SimConfig())
    assert r.prefetches_issued < r_free.prefetches_issued


def test_fdp_never_hurts_a_good_prefetcher_much():
    tr = _stream_trace()
    base = simulate(tr, None)
    pf = NextLinePrefetcher(degree=4)
    pf.latency_cycles = 0
    plain = ipc_improvement(simulate(tr, pf), base)
    throttled = ipc_improvement(
        simulate(tr, NextLinePrefetcher(degree=4), SimConfig(), throttle=FeedbackThrottle()),
        base,
    )
    assert throttled > 0.5 * plain


def test_no_throttle_means_no_extra():
    tr = _stream_trace(500)
    r = simulate(tr, NextLinePrefetcher(degree=1))
    assert "throttle" not in r.extra
