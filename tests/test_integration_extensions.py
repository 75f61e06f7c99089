"""End-to-end integration across the extension systems.

Each test chains several subsystems the way a user would: trained DART
tables through the detailed hierarchy simulator, through the packed export,
and alongside the analysis tooling — catching interface drift that
per-module tests cannot see.
"""

import numpy as np
import pytest

from repro.prefetch import DARTPrefetcher, analyze_timeliness
from repro.sim import HierarchyConfig, LevelConfig, simulate, simulate_hierarchy
from repro.traces import load_any, make_workload, save_csv


@pytest.fixture(scope="module")
def dart_pf(tabular_student, preprocess_config):
    tab, _ = tabular_student
    return DARTPrefetcher(tab, preprocess_config, max_degree=2)


@pytest.fixture(scope="module")
def sim_trace():
    return make_workload("462.libquantum", scale=0.02, seed=5)


def test_dart_in_detailed_hierarchy(dart_pf, sim_trace):
    cfg = HierarchyConfig(
        l1d=LevelConfig(4 * 1024, 4, 5.0),
        l2=LevelConfig(16 * 1024, 4, 10.0),
        llc=LevelConfig(256 * 1024, 8, 20.0),
    )
    base = simulate_hierarchy(sim_trace, None, cfg)
    r = simulate_hierarchy(sim_trace, dart_pf, cfg)
    assert r.sim.prefetches_issued > 0
    assert r.llc.hit_rate >= base.llc.hit_rate
    assert r.sim.ipc >= base.sim.ipc * 0.95  # never a large regression


def test_dart_survives_packed_export_roundtrip(
    tmp_path, tabular_student, preprocess_config, sim_trace
):
    from repro.tabularization import export_packed, import_packed

    tab, _ = tabular_student
    path = tmp_path / "dart.bin"
    export_packed(tab, path, float_dtype="float64")
    back = import_packed(path)
    pf_a = DARTPrefetcher(tab, preprocess_config, max_degree=2)
    pf_b = DARTPrefetcher(back, preprocess_config, max_degree=2)
    assert pf_a.prefetch_lists(sim_trace) == pf_b.prefetch_lists(sim_trace)


def test_csv_roundtrip_feeds_dart(tmp_path, dart_pf, sim_trace):
    path = tmp_path / "w.csv.gz"
    save_csv(sim_trace, path)
    back = load_any(path)
    lists = dart_pf.prefetch_lists(back)
    assert lists == dart_pf.prefetch_lists(sim_trace)


def test_timeliness_analysis_on_dart(dart_pf, sim_trace):
    base = simulate(sim_trace, None)
    cpa = base.cycles / max(base.demand_accesses, 1)
    rep = analyze_timeliness(sim_trace, dart_pf, cycles_per_access=cpa)
    assert rep.total > 0
    assert rep.timely + rep.late + rep.useless + rep.redundant == rep.total
    # DART's latency is double-digit cycles: timeliness must not collapse the
    # way a 27.7K-cycle predictor's does on the same distances.
    slow = analyze_timeliness(
        sim_trace,
        _Relabel(dart_pf, latency=27_700),
        cycles_per_access=cpa,
    )
    assert rep.timely >= slow.timely


class _Relabel:
    """Wrap a prefetcher with a different latency (for the contrast test)."""

    def __init__(self, inner, latency):
        self._inner = inner
        self.name = inner.name + "-slow"
        self.latency_cycles = latency
        self.storage_bytes = inner.storage_bytes

    def prefetch_lists(self, trace):
        return self._inner.prefetch_lists(trace)
