"""Canary fleet rollout: partial swaps, regression rollback, healthy promote.

The scenarios are deterministic by construction — synthetic traces with fixed
seeds, a deterministic engine, and a controller whose decisions depend only on
the observed access/emission sequence:

* an **injected regression** (the candidate's ``head/table`` rolled along the
  logit axis, so predictions still fire but land on the wrong bitmap deltas)
  must roll back: the canary cohort returns to the baseline, the control
  cohort never sees the bad tables, and **no emission is dropped or
  reordered** anywhere in the fleet;
* a **healthy candidate** (bit-identical tables, next version id) must
  promote fleet-wide and advance the bound registry ref to a delta successor
  of the old head;
* a **partial swap** of a bit-identical candidate must leave every stream's
  emissions bit-identical to a run that never swapped, while the engine
  tracks mixed per-worker generations and refcounts the shm segments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.registry import FleetRollout, ModelRegistry, RolloutConfig
from repro.runtime import ModelArtifact
from repro.runtime.artifact import VERSION_KEY


# ------------------------------------------------------------------ helpers
def healthy_candidate(artifact: ModelArtifact) -> ModelArtifact:
    """Next version, bit-identical tables (a no-op re-fit)."""
    state = artifact.state()
    state[VERSION_KEY] = np.array([artifact.version + 1], dtype=np.int64)
    return ModelArtifact.from_state(state)


def broken_candidate(artifact: ModelArtifact) -> ModelArtifact:
    """Next version with ``head/table`` mirrored along the logit axis.

    Every lookup still produces confident scores — but each logit lands on
    the *mirrored* output bitmap position, so the canary keeps emitting
    prefetches while predicting backward deltas a forward-moving stream
    never demands. That is the regression shape a rollout must catch (a
    silently-wrong model, not a crashing one).
    """
    state = artifact.state()
    table = np.array(state["head/table"])
    state["head/table"] = np.ascontiguousarray(table[..., ::-1])
    state[VERSION_KEY] = np.array([artifact.version + 1], dtype=np.int64)
    return ModelArtifact.from_state(state)


def drive(engine, rollout, handles, traces, limit=None):
    """Interleave the traces' accesses round-robin through the fleet.

    Returns per-stream emission lists (ingest returns + final flush), the
    exactly-once accounting the assertions run on.
    """
    emissions = [[] for _ in handles]
    counts = [0] * len(handles)
    n = min(len(tr.pcs) for tr in traces) if limit is None else limit
    for i in range(n):
        for s, (h, tr) in enumerate(zip(handles, traces)):
            pc, addr = int(tr.pcs[i]), int(tr.addrs[i])
            ems = h.ingest(pc, addr)
            counts[s] += 1
            emissions[s].extend(ems)
            rollout.observe(h, pc, addr, ems)
    engine.flush_all()
    for s, h in enumerate(handles):
        emissions[s].extend(h.poll())
    return emissions, counts


def assert_exactly_once(emissions, counts) -> None:
    """One emission per access, ascending contiguous seq — nothing dropped."""
    for ems, n in zip(emissions, counts):
        assert [em.seq for em in ems] == list(range(n))


def rollout_config(**overrides) -> RolloutConfig:
    base = dict(
        canary_workers=1,
        check_every=32,
        min_samples=24,
        regression_drop=0.2,
        promote_after=10**9,  # never, unless a test lowers it
        lookahead=16,
        window=2048,
        result_window=512,
    )
    base.update(overrides)
    return RolloutConfig(**base)


def run_regression_scenario(dart, traces):
    baseline = dart.artifact
    with dart.sharded(workers=2, batch_size=16, max_wait=4, io_chunk=1) as engine:
        handles = engine.streams(2)
        rollout = FleetRollout(
            engine, broken_candidate(baseline), baseline, rollout_config()
        )
        rollout.start()
        assert rollout.state == "canary"
        assert engine.stats()["worker_versions"] == [2, 1]
        emissions, counts = drive(engine, rollout, handles, traces)
        stats = engine.stats()
    return rollout, emissions, counts, stats


# ---------------------------------------------------------------- rollback
def test_injected_regression_rolls_back(dart, libquantum_traces):
    traces = libquantum_traces(2, 600, 70)
    rollout, emissions, counts, stats = run_regression_scenario(dart, traces)
    assert rollout.state == "rolled_back"
    event = rollout.events[-1]
    assert event["action"] == "rollback" and event["verdict"] == "regression"
    assert event["restored_version"] == 1
    assert event["canary_accuracy"] < event["control_accuracy"] - 0.2
    # The whole fleet serves the baseline again; the control cohort never
    # left it (the regression was contained to the canary worker).
    assert stats["worker_versions"] == [1, 1]
    assert stats["swaps"] == 2  # canary install + rollback
    assert rollout.published is None
    assert_exactly_once(emissions, counts)


def test_rollback_is_deterministic(dart, libquantum_traces):
    """Same traces, same seeds -> byte-equal decision logs, twice."""
    traces = libquantum_traces(2, 600, 70)
    first = run_regression_scenario(dart, traces)
    second = run_regression_scenario(dart, traces)
    assert first[0].events == second[0].events
    assert first[0].summary() == second[0].summary()
    assert [[(e.seq, tuple(e.blocks)) for e in ems] for ems in first[1]] == \
           [[(e.seq, tuple(e.blocks)) for e in ems] for ems in second[1]]


# ----------------------------------------------------------------- promote
def test_healthy_candidate_promotes_and_advances_ref(dart, libquantum_traces, tmp_path):
    traces = libquantum_traces(2, 600, 70)
    baseline = dart.artifact
    reg = ModelRegistry(tmp_path / "reg")
    baseline_digest = reg.put(baseline, name="serving")
    candidate = healthy_candidate(baseline)
    with dart.sharded(workers=2, batch_size=16, max_wait=4, io_chunk=1) as engine:
        handles = engine.streams(2)
        rollout = FleetRollout(
            engine, candidate, baseline,
            rollout_config(promote_after=240),
            registry=reg, ref="serving",
        )
        rollout.start()
        emissions, counts = drive(engine, rollout, handles, traces)
        stats = engine.stats()
        publications = len(engine._publications)
    assert rollout.state == "promoted"
    assert rollout.events[-1]["action"] == "promote"
    # Fleet-wide on the candidate, converged back to one generation.
    assert stats["worker_versions"] == [2, 2]
    assert stats["model_version"] == 2
    assert publications == 1  # superseded segments were refcounted away
    assert_exactly_once(emissions, counts)
    # The deployment log lives in the registry: ref advanced to a delta
    # successor of the old head.
    assert rollout.published is not None
    assert reg.resolve("serving") == rollout.published
    manifest = reg.manifest("serving")
    assert manifest["parent"] == baseline_digest
    assert manifest["artifact_version"] == 2
    restored = reg.get("serving")
    assert restored.version == 2
    a, b = restored.state(), candidate.state()
    assert all(np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes() for k in a)


# ------------------------------------------------------------ partial swap
def test_partial_swap_is_invisible_to_serving(dart, libquantum_traces):
    """A cohort swap to bit-identical tables changes no emission anywhere."""
    traces = libquantum_traces(2, 400, 90)
    candidate = healthy_candidate(dart.artifact)

    def run(swap_points):
        with dart.sharded(workers=2, batch_size=16, max_wait=4, io_chunk=1) as engine:
            handles = engine.streams(2)
            out = [[] for _ in handles]
            for i in range(len(traces[0].pcs)):
                if i in swap_points:
                    engine.swap_model(candidate, workers=swap_points[i])
                for s, (h, tr) in enumerate(zip(handles, traces)):
                    out[s].extend(h.ingest(int(tr.pcs[i]), int(tr.addrs[i])))
            engine.flush_all()
            for s, h in enumerate(handles):
                out[s].extend(h.poll())
            stats = engine.stats()
            pubs = len(engine._publications)
        return out, stats, pubs

    plain, stats0, _ = run({})
    swapped, stats1, pubs1 = run({150: [0]})
    assert [[(e.seq, tuple(e.blocks)) for e in ems] for ems in plain] == \
           [[(e.seq, tuple(e.blocks)) for e in ems] for ems in swapped]
    assert stats0["worker_versions"] == [1, 1]
    # Mixed generations: worker 0 on v2, worker 1 still on the boot tables,
    # and both shm segments stay alive (each is still referenced).
    assert stats1["worker_versions"] == [2, 1]
    assert stats1["model_version"] == 1
    assert pubs1 == 2


def test_partial_swap_converges_and_retires_segments(dart, libquantum_traces):
    candidate = healthy_candidate(dart.artifact)
    with dart.sharded(workers=2, batch_size=16, io_chunk=1) as engine:
        engine.streams(2)
        engine.start()
        assert len(engine._publications) == 1
        assert engine.swap_model(candidate, workers=[0])["workers"] == [0]
        assert len(engine._publications) == 2
        assert engine.stats()["worker_versions"] == [2, 1]
        engine.swap_model(candidate, workers=[1])
        # Fleet converged on one generation: it becomes the boot spec and
        # the superseded segments unlink.
        assert len(engine._publications) == 1
        stats = engine.stats()
    assert stats["worker_versions"] == [2, 2]
    assert stats["model_version"] == 2
    assert stats["swaps"] == 2


def test_swap_and_rollout_validation(dart):
    with dart.sharded(workers=2, batch_size=16) as engine:
        with pytest.raises(ValueError, match="workers=\\[\\] swaps nothing"):
            engine.swap_model(dart.artifact, workers=[])
        with pytest.raises(ValueError, match="out of range"):
            engine.swap_model(dart.artifact, workers=[5])
        with pytest.raises(ValueError, match="no control workers"):
            FleetRollout(
                engine, dart.artifact, dart.artifact,
                RolloutConfig(canary_workers=2),
            )
        with pytest.raises(ValueError, match="needs a ref name"):
            FleetRollout(
                engine, dart.artifact, dart.artifact,
                registry=object(),
            )
        rollout = FleetRollout(engine, dart.artifact, dart.artifact)
        rollout.start()
        with pytest.raises(ValueError, match="already canary"):
            rollout.start()
    with pytest.raises(ValueError):
        RolloutConfig(canary_workers=0)
    with pytest.raises(ValueError):
        RolloutConfig(regression_drop=-0.1)
