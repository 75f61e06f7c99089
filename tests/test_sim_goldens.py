"""Golden outputs of the multi-core and contention simulators.

Every field the two worlds report — each core's/tenant's ``SimResult``
(cycles exactly), the level stats, the DRAM counters, pollution and
interconnect statistics — is pinned against ``data/sim_goldens.json``, so a
refactor of the event loop cannot move a single number unnoticed.

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

import pytest

from repro.prefetch import PrecomputedPrefetcher, StreamPrefetcher
from repro.runtime import AdmissionController, Emission, ThrottleConfig, as_streaming
from repro.runtime.streaming import StreamingPrefetcher
from repro.sim import (
    ContentionConfig,
    HierarchyConfig,
    LevelConfig,
    PoisonedStream,
    extract_llc_stream,
    simulate_contention,
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

