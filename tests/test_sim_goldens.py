"""Golden outputs of every simulator: flat LLC, hierarchy, multi-core, contention.

Every field the simulators report — each run's, core's or tenant's
``SimResult`` (cycles exactly), the level stats, the DRAM counters, TLB and
paging counters, pollution and interconnect statistics — is pinned against
``data/sim_goldens.json``, so a refactor of an event loop cannot move a
single number unnoticed. The flat :func:`~repro.sim.simulate` is the one
the paper's Figs. 12–14 run; :func:`~repro.sim.simulate_hierarchy` is the
detailed single-core loop.

The DART case depends on a trained model, whose float arithmetic may differ
on another BLAS build. Its golden therefore also records a digest of the
per-core prefetch lists: when the model itself predicts differently on this
host, the timing comparison is skipped (the shared == replicated check
still runs), because it would then be measuring the model, not the
simulator.

To re-pin after a deliberate timing-model change, dump the dicts the
``_*_snapshot`` helpers return into the JSON file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.prefetch import BestOffsetPrefetcher, PrecomputedPrefetcher, StreamPrefetcher
from repro.runtime import AdmissionController, Emission, ThrottleConfig, as_streaming
from repro.runtime.streaming import StreamingPrefetcher
from repro.sim import (
    ContentionConfig,
    HierarchyConfig,
    LevelConfig,
    PoisonedStream,
    SimConfig,
    extract_llc_stream,
    simulate,
    simulate_contention,
    simulate_hierarchy,
)
from repro.sim.multicore import simulate_multicore
from repro.traces import make_workload
from repro.traces.trace import MemoryTrace
from repro.utils.bits import BLOCK_BITS

GOLDENS = json.loads((Path(__file__).parent / "data" / "sim_goldens.json").read_text())

WORKLOADS = ["462.libquantum", "602.gcc", "605.mcf", "619.lbm"]


def _traces(n: int, length: int = 1200, hetero: bool = True) -> list[MemoryTrace]:
    names = WORKLOADS if hetero else WORKLOADS[:1] * 4
    return [
        make_workload(names[i], scale=0.01, seed=5 + i).slice(0, length) for i in range(n)
    ]


def _mc_cfg() -> HierarchyConfig:
    return HierarchyConfig(
        l1d=LevelConfig(4 * 1024, 4, 5.0),
        l2=LevelConfig(16 * 1024, 4, 10.0),
        llc=LevelConfig(64 * 1024, 8, 20.0),
        paging=False,
    )


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _plain(obj):
    """JSON round trip: tuples become lists, floats stay exact."""
    return json.loads(json.dumps(obj))


def _oracle_lists(trace: MemoryTrace, cfg: HierarchyConfig, ahead: int) -> list[list[int]]:
    sub = trace.block_addrs[extract_llc_stream(trace, cfg)]
    return [[int(sub[i + ahead])] if i + ahead < len(sub) else [] for i in range(len(sub))]


def _llc_subtrace(trace: MemoryTrace, cfg: HierarchyConfig) -> MemoryTrace:
    idxs = extract_llc_stream(trace, cfg)
    return MemoryTrace(
        trace.instr_ids[idxs], trace.pcs[idxs], trace.addrs[idxs], name=trace.name
    )


def _reuse_trace(n: int = 3000) -> MemoryTrace:
    """A sequential stream interleaved with random reuse of 1,400 blocks.

    The synthetic workloads barely reuse a line at small scale, so their
    hits come from prefetching alone. Here every third access continues a
    stream (work for the prefetchers) and the rest revisit a footprint
    larger than the 64 KB LLC, so the replacement policy decides hits.
    """
    rng = np.random.default_rng(0)
    idx = np.arange(n)
    stream = (1 << 20) + idx // 3
    reuse = rng.integers(0, 1400, n)
    blocks = np.where(idx % 3 == 0, stream, reuse).astype(np.int64)
    pcs = np.where(idx % 3 == 0, 0x400, 0x500 + (reuse & 7)).astype(np.int64)
    instr_ids = np.cumsum(rng.integers(1, 20, n)).astype(np.int64)
    return MemoryTrace(instr_ids, pcs, blocks << BLOCK_BITS, name="reuse")


def _flat_cases() -> dict:
    """The flat LLC simulator, on a 64 KB LLC so the trace evicts."""
    cfg = SimConfig(llc_capacity_bytes=64 * 1024, llc_ways=8)
    trace = _reuse_trace()
    ahead = [
        [int(trace.block_addrs[i + 12])] if i + 12 < len(trace) else []
        for i in range(len(trace))
    ]
    cases = {
        "none": simulate(trace, config=cfg),
        "none_table3": simulate(trace),
        "bo": simulate(trace, BestOffsetPrefetcher(), cfg),
        "streamer": simulate(trace, StreamPrefetcher(), cfg),
        "streamer_streaming": simulate(trace, StreamPrefetcher(), cfg, streaming=True),
        "precomputed_lat30_ahead12": simulate(
            trace, PrecomputedPrefetcher(ahead, latency_cycles=30), cfg
        ),
    }
    return {name: _plain(dataclasses.asdict(r)) for name, r in cases.items()}


def _hierarchy_snapshot(r) -> dict:
    return _plain(
        {
            "sim": dataclasses.asdict(r.sim),
            "l1d": r.l1d.as_dict(),
            "l2": r.l2.as_dict(),
            "llc": r.llc.as_dict(),
            "dram": r.dram,
            "tlb_hit_rate": r.tlb_hit_rate,
            "pages_touched": r.pages_touched,
        }
    )


def _hierarchy_cases() -> dict:
    """The single-core hierarchy: Table III, and a small one that evicts."""
    trace = _reuse_trace()
    small = dataclasses.replace(_mc_cfg(), paging=True)
    plru = dataclasses.replace(
        small,
        l1d=dataclasses.replace(small.l1d, policy="plru"),
        l2=dataclasses.replace(small.l2, policy="plru"),
        llc=dataclasses.replace(small.llc, policy="plru"),
    )
    writes = (trace.addrs // 64) % 3 == 0
    cases = {
        "table3_lru": simulate_hierarchy(trace),
        "small_lru": simulate_hierarchy(trace, config=small),
        "small_plru": simulate_hierarchy(trace, config=plru),
        "small_writes": simulate_hierarchy(trace, config=small, writes=writes),
        "small_tlb": simulate_hierarchy(
            trace, config=dataclasses.replace(small, tlb=True)
        ),
        "small_streamer": simulate_hierarchy(trace, StreamPrefetcher(), small),
    }
    return {name: _hierarchy_snapshot(r) for name, r in cases.items()}


def _multicore_snapshot(r) -> dict:
    return _plain(
        {
            "cores": [dataclasses.asdict(c) for c in r.cores],
            "llc": r.llc.as_dict(),
            "dram": r.dram,
        }
    )


def _multicore_cases() -> dict:
    cfg = _mc_cfg()
    cases = {}
    cases["1core_none"] = simulate_multicore(_traces(1), config=cfg)
    # A zero-latency prefetch for the very next LLC access is where the
    # order of feed, drain and demand lookup shows in the cycles.
    for lat, ahead in ((0, 1), (0, 12), (30, 12)):
        traces = _traces(2, hetero=False)
        pfs = [
            PrecomputedPrefetcher(_oracle_lists(t, cfg, ahead), latency_cycles=lat)
            for t in traces
        ]
        cases[f"2core_precomputed_lat{lat}_ahead{ahead}"] = simulate_multicore(
            traces, prefetchers=pfs, config=cfg
        )
    traces = _traces(2, hetero=False)
    cases["2core_one_prefetcher"] = simulate_multicore(
        traces,
        prefetchers=[PrecomputedPrefetcher(_oracle_lists(traces[0], cfg, 8)), None],
        config=cfg,
    )
    cases["4core_hetero_none"] = simulate_multicore(_traces(4), config=cfg)
    cases["4core_hetero_streamer"] = simulate_multicore(
        _traces(4), prefetchers=[StreamPrefetcher() for _ in range(4)], config=cfg
    )
    cases["4core_same_streamer"] = simulate_multicore(
        _traces(4, hetero=False),
        prefetchers=[StreamPrefetcher() for _ in range(4)],
        config=cfg,
    )
    return {name: _multicore_snapshot(r) for name, r in cases.items()}


class _NextBlocks(StreamingPrefetcher):
    """Deterministic degree-``d`` next-line stream with zero latency."""

    def __init__(self, degree: int = 2):
        self.degree = degree
        self.name = "nextblocks"
        self.latency_cycles = 0.0
        self.storage_bytes = 0
        self.seq = 0

    def ingest(self, pc, addr):
        seq = self.seq
        self.seq += 1
        blk = addr >> BLOCK_BITS
        return [Emission(seq, [blk + j + 1 for j in range(self.degree)])]

    def flush(self):
        return []

    def reset(self):
        self.seq = 0


def _contention_snapshot(r) -> dict:
    return _plain(
        {
            "tenants": [
                {
                    "sim": dataclasses.asdict(t.sim),
                    "l1": t.l1.as_dict(),
                    "l2": t.l2.as_dict(),
                    "redundant": t.redundant_prefetches,
                }
                for t in r.tenants
            ],
            "l2": r.l2.as_dict(),
            "dram": r.dram,
            "interconnect": r.interconnect,
            "pollution": r.pollution,
            "pollution_live": r.pollution_live,
            "throttle": r.throttle,
            "lists": None if r.lists is None else _digest(r.lists),
        }
    )


def _contention_cases() -> dict:
    def streams():
        return [as_streaming(StreamPrefetcher()), _NextBlocks(), None]

    traces = _traces(3)
    cases = {}
    cases["default"] = simulate_contention(traces, streams(), collect=True)
    cases["slots2"] = simulate_contention(
        traces, streams(), ContentionConfig(slots_per_cycle=2)
    )
    cases["prefetch_l1"] = simulate_contention(
        traces, streams(), ContentionConfig(prefetch_level="l1")
    )
    small_l2 = ContentionConfig(l2=LevelConfig(32 * 1024, 4, 12.0, policy="plru"))
    poisoned = streams()
    poisoned[1] = PoisonedStream(poisoned[1], degree=8)
    cases["poisoned"] = simulate_contention(traces, poisoned, small_l2)
    ctl = AdmissionController(
        ThrottleConfig(
            floor=0.2, recover=0.4, min_samples=16, check_every=16, hold=64, lookahead=8
        )
    )
    throttled = streams()
    throttled[1] = PoisonedStream(throttled[1], degree=8)
    throttled = [
        None if s is None else ctl.wrap(s, f"tenant{i}") for i, s in enumerate(throttled)
    ]
    cases["throttled"] = simulate_contention(traces, throttled, small_l2, collect=True)
    return {name: _contention_snapshot(r) for name, r in cases.items()}


def _assert_cases_equal(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"golden case {name!r} moved"


def test_flat_goldens():
    _assert_cases_equal(_flat_cases(), GOLDENS["flat"])


def test_hierarchy_goldens():
    _assert_cases_equal(_hierarchy_cases(), GOLDENS["hierarchy"])


def test_multicore_goldens():
    _assert_cases_equal(_multicore_cases(), GOLDENS["multicore"])


def test_contention_goldens():
    _assert_cases_equal(_contention_cases(), GOLDENS["contention"])


def test_multicore_dart_goldens(dart, tabular_student, preprocess_config):
    """Replicated and shared DART give identical cores, pinned to goldens."""
    from repro.prefetch import DARTPrefetcher

    tab, _ = tabular_student
    cfg = _mc_cfg()
    traces = _traces(2, hetero=False)
    replicas = [
        DARTPrefetcher(tab, preprocess_config, threshold=0.4, max_degree=3)
        for _ in traces
    ]
    lists = [
        pf.prefetch_lists(_llc_subtrace(t, cfg)) for pf, t in zip(replicas, traces)
    ]
    replicated = _multicore_snapshot(
        simulate_multicore(traces, prefetchers=replicas, config=cfg)
    )
    shared = _multicore_snapshot(
        simulate_multicore(
            traces,
            config=cfg,
            shared_prefetcher=dart,
            shared_stream_kwargs={"batch_size": 16, "max_wait": 4},
        )
    )
    assert shared == replicated
    want = GOLDENS["multicore_dart"]
    if _digest(lists) != want["lists_digest"]:
        pytest.skip("the DART model predicts differently on this host's BLAS")
    assert replicated == want["result"]

