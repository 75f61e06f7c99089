"""Multicore simulator: per-core accounting, shared-resource contention."""

import dataclasses

import numpy as np
import pytest

from repro.prefetch import PrecomputedPrefetcher
from repro.sim import HierarchyConfig, LevelConfig, extract_llc_stream
from repro.sim.multicore import CORE_ADDRESS_STRIDE, simulate_multicore
from repro.traces.generators import StreamPhase, compose_trace
from repro.traces.trace import MemoryTrace


def _cfg() -> HierarchyConfig:
    return HierarchyConfig(
        l1d=LevelConfig(4 * 1024, 4, 5.0),
        l2=LevelConfig(16 * 1024, 4, 10.0),
        llc=LevelConfig(64 * 1024, 8, 20.0),
        paging=False,
    )


def _stream_trace(n=2000, gap=12, seed=0):
    return compose_trace(
        [(StreamPhase(0, 10**7, stride_blocks=1), n)], seed=seed, mean_instr_gap=gap
    )


def _hot_trace(n=2000, blocks=8):
    addrs = (np.arange(n) % blocks).astype(np.int64) << 6
    return MemoryTrace(np.arange(1, n + 1) * 10, np.zeros(n, dtype=np.int64), addrs)


def test_validation():
    with pytest.raises(ValueError):
        simulate_multicore([])
    with pytest.raises(ValueError):
        simulate_multicore([_hot_trace(100)], prefetchers=[None, None])


def test_single_core_accounting():
    tr = _stream_trace(1000)
    r = simulate_multicore([tr], config=_cfg())
    assert len(r.cores) == 1
    core = r.cores[0]
    assert core.demand_accesses == 1000
    assert core.ipc > 0
    assert r.llc.accesses == core.demand_misses + r.llc.hits


def test_cores_do_not_alias():
    """Two copies of the same trace live in disjoint address spaces: core 1
    must not hit on core 0's lines."""
    tr = _stream_trace(1500)
    r = simulate_multicore([tr, tr], config=_cfg())
    # both cores miss everything: pure cold streams, no cross-core sharing
    assert r.cores[0].demand_misses == 1500
    assert r.cores[1].demand_misses == 1500
    assert r.llc.hits == 0


def test_address_stride_is_generous():
    tr = _stream_trace(100)
    assert int(tr.block_addrs.max()) < CORE_ADDRESS_STRIDE


def test_shared_llc_contention_slows_cores():
    """Two LLC-hungry cores sharing one LLC run slower than running alone."""
    n = 4000
    # working set ~48KB: fits the 64KB LLC alone, thrashes when doubled
    addrs = (np.arange(n) % 768).astype(np.int64) << 6
    tr = MemoryTrace(np.arange(1, n + 1) * 10, np.zeros(n, dtype=np.int64), addrs)
    alone = simulate_multicore([tr], config=_cfg())
    shared = simulate_multicore([tr, tr], config=_cfg())
    assert shared.cores[0].ipc < alone.cores[0].ipc
    ws = shared.weighted_speedup(alone.cores + alone.cores)
    assert ws < 2.0  # contention: below perfect scaling


def test_weighted_speedup_requires_matching_baselines():
    tr = _hot_trace(500)
    r = simulate_multicore([tr, tr], config=_cfg())
    with pytest.raises(ValueError):
        r.weighted_speedup(r.cores[:1])


def test_hot_cores_dont_contend():
    """L1-resident cores never touch the LLC after warmup: sharing costs only
    the (amortized) warmup fills."""
    tr = _hot_trace(20000)
    alone = simulate_multicore([tr], config=_cfg())
    shared = simulate_multicore([tr, tr, tr, tr], config=_cfg())
    assert shared.cores[0].ipc == pytest.approx(alone.cores[0].ipc, rel=0.02)


def test_per_core_prefetcher_attribution():
    tr = _stream_trace(2500, gap=20)
    cfg = _cfg()
    idxs = extract_llc_stream(tr, cfg)
    sub = tr.block_addrs[idxs]
    lists = [[int(sub[i + 30])] if i + 30 < len(sub) else [] for i in range(len(sub))]
    pf = PrecomputedPrefetcher(lists, name="oracle")
    r = simulate_multicore([tr, tr], prefetchers=[pf, None], config=cfg)
    assert r.cores[0].prefetches_issued > 0
    assert r.cores[1].prefetches_issued == 0
    assert r.cores[0].ipc > r.cores[1].ipc  # same program, one has help


def test_prefetcher_improves_multicore_ipc():
    tr = _stream_trace(2500, gap=20)
    cfg = _cfg()
    idxs = extract_llc_stream(tr, cfg)
    sub = tr.block_addrs[idxs]
    lists = [[int(sub[i + 30])] if i + 30 < len(sub) else [] for i in range(len(sub))]
    pf1 = PrecomputedPrefetcher([list(x) for x in lists], name="o1")
    pf2 = PrecomputedPrefetcher([list(x) for x in lists], name="o2")
    base = simulate_multicore([tr, tr], config=cfg)
    with_pf = simulate_multicore([tr, tr], prefetchers=[pf1, pf2], config=cfg)
    assert with_pf.aggregate_ipc > base.aggregate_ipc


def test_heterogeneous_traces():
    r = simulate_multicore([_hot_trace(1000), _stream_trace(1000, gap=10)], config=_cfg())
    assert r.cores[0].ipc > r.cores[1].ipc  # cache-resident vs streaming


def test_summary_shape():
    r = simulate_multicore([_hot_trace(300)], config=_cfg())
    s = r.summary()
    assert "aggregate_ipc" in s and len(s["cores"]) == 1
    assert s["llc_hit_rate"] >= 0.0


def test_dram_stats_exposed():
    r = simulate_multicore([_stream_trace(800)], config=_cfg())
    assert r.dram["reads"] > 0


def test_llc_follows_configured_policy():
    """The shared LLC is built from ``config.llc``, replacement policy included:
    without prefetching its hits equal an untimed replay of the LLC stream."""
    n = 4000
    rng = np.random.default_rng(0)
    addrs = rng.integers(0, 1400, n).astype(np.int64) << 6
    tr = MemoryTrace(np.arange(1, n + 1) * 10, np.zeros(n, dtype=np.int64), addrs)
    hits = {}
    for policy in ("lru", "plru"):
        base = _cfg()
        cfg = dataclasses.replace(
            base,
            l1d=dataclasses.replace(base.l1d, policy=policy),
            l2=dataclasses.replace(base.l2, policy=policy),
            llc=dataclasses.replace(base.llc, policy=policy),
        )
        llc, expect = cfg.llc.make(), 0
        for b in tr.block_addrs[extract_llc_stream(tr, cfg)].tolist():
            if llc.lookup(b) is None:
                llc.fill(b)
            else:
                expect += 1
        hits[policy] = simulate_multicore([tr], config=cfg).llc.hits
        assert hits[policy] == expect, policy
    assert hits["lru"] != hits["plru"]  # the trace tells the policies apart


def test_list_replay_rejects_a_misaligned_stream():
    """Batch lists replay only onto the LLC stream they were computed for."""
    from repro.runtime import Emission
    from repro.sim.multicore import _ListReplay

    replay = _ListReplay(_stream_trace(50), _cfg(), latency_cycles=0)
    replay.lists = [[7] for _ in range(len(replay.llc_trace))]
    first = int(replay.llc_trace.addrs[0])
    assert replay.ingest(0, first) == [Emission(0, [7])]
    with pytest.raises(RuntimeError, match="LLC access 1"):
        replay.ingest(0, first)
