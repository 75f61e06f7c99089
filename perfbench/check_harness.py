"""Checks of the harness's own code (not collected by the repository suite).

Run from the repository root::

    python3 -m pytest -q perfbench/check_harness.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import types

import numpy as np
import pytest

from perfbench import run

run.import_program()

from perfbench import layers, model, spans, workloads  # noqa: E402
from repro.runtime import engine as engine_mod  # noqa: E402


# ------------------------------------------------------------------- spans
def test_self_time_on_a_nested_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    summary = spans.summarize(np.array([0, 1, 1, 2]), parent, start, end, ["root", "x", "b"])
    assert summary["x"] == {"calls": 2, "us": 4e6, "self_us": 3e6}
    assert summary["root"]["self_us"] == 3e6


def test_tracer_records_parents_and_self_time_adds_up():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", size=lambda a: a[0])
    outer = tracer.wrap(lambda x: inner(x) * inner(x), "outer")
    assert outer(2) == 9
    assert [tracer.names[i] for i in tracer.name_ids] == ["outer", "inner", "inner"]
    assert list(tracer.parents) == [-1, 0, 0]
    assert tracer.counters == {"inner.size": 4.0}
    summary = tracer.summary()
    total = sum(v["self_us"] for v in summary.values())
    assert total == pytest.approx(tracer.root_seconds() * 1e6)


def test_generator_wrapper_records_one_span_per_item():
    tracer = spans.Tracer()
    items = tracer.wrap_iter(lambda n: (i * i for i in range(n)), "gen")
    assert list(items(3)) == [0, 1, 4]
    # three items plus the call that found the generator exhausted
    assert tracer.summary()["gen"]["calls"] == 4


def test_a_failing_call_still_closes_its_span():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.ends[0] >= tracer.starts[0] > 0
    assert tracer._stack == [-1]


class _Base:
    def inherited(self):
        return "base"


class _Owner(_Base):
    def own(self):
        return "own"


def test_patches_restore_own_and_inherited_attributes():
    own, inherited = _Owner.__dict__["own"], _Base.__dict__["inherited"]
    module = types.SimpleNamespace(fn=len)
    with spans.Patches() as patches:
        patches.install(_Owner, "own", lambda fn: lambda self: "wrapped")
        patches.install(_Owner, "inherited", lambda fn: lambda self: "wrapped")
        patches.install(module, "fn", lambda fn: abs)
        assert _Owner().own() == _Owner().inherited() == "wrapped"
        assert _Base().inherited() == "base"
    assert _Owner.__dict__["own"] is own
    assert "inherited" not in _Owner.__dict__
    assert inspect.getattr_static(_Owner, "inherited") is inherited
    assert module.fn is len


def test_layer_wrappers_are_removed_by_identity():
    predictor = model.load_dart(_tables()).predictor
    patches = spans.Patches()
    layers.install(spans.Tracer(), patches, predictor)
    saved = list(patches._saved)
    assert len(saved) > 30
    for owner, attr, original, _ in saved:
        assert inspect.getattr_static(owner, attr) is not original
    patches.restore()
    for owner, attr, original, _ in saved:
        assert inspect.getattr_static(owner, attr) is original


def test_latency_capture_is_scoped_and_reads_the_programs_samples():
    original = engine_mod._LatencySketch
    with workloads.latency_sketches() as made:
        assert engine_mod._LatencySketch is not original
        sketch = engine_mod._LatencySketch()
        for v in (3e-6, 1e-6, 2e-6):
            sketch.add(v)
    assert engine_mod._LatencySketch is original
    assert made == [sketch]
    rnd = workloads.Round(3, 1.0, list(sketch.samples), None, 2.0)
    workloads.check_reported_p50(rnd)
    with pytest.raises(RuntimeError):
        workloads.check_reported_p50(workloads.Round(3, 1.0, [1e-6], None, 2.0))


def test_percentiles_are_nearest_rank():
    p50, p99, p999, n = layers.percentiles_us([i * 1e-6 for i in range(1, 1002)])
    assert (p50, p99, p999, n) == pytest.approx((501.0, 991.0, 1000.0, 1001))


def test_held_out_seed_is_documented():
    assert f"Seed {run.HELD_OUT_SEED} is held out" in run.__doc__


# -------------------------------------------------------- tiny end-to-end
def _tables():
    src = run.SRC / "repro"
    path, _ = model.ensure_tables(run.ROOT, run.SRC, model.source_digest(src))
    return path


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "B1_ACCESSES", 64)
    monkeypatch.setattr(workloads, "TENANT_ACCESSES", 48)
    monkeypatch.setattr(workloads, "SIM_SCALE", 0.001)
    monkeypatch.setattr(run, "SETUPS_PER_CALL", 1)
    monkeypatch.setattr(run, "MIN_ROUNDS", {})
    monkeypatch.setattr(run, "DEFAULT_MIN_ROUNDS", 2)
    monkeypatch.setattr(run, "TRACE_ROUNDS", {})
    monkeypatch.setattr(run, "DEFAULT_TRACE_ROUNDS", 1)
    monkeypatch.setattr(workloads.SimIPC, "warm_up", lambda self: None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_named_metric_with_its_unit(tiny, workload, trace):
    _tables()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["tabularization.cost.latency_cycles"] > 0
        assert values["trace.overhead"] > 0
    else:
        assert all(v > 0 for v in values.values()), values
