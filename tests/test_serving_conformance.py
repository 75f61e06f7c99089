"""The one serving-conformance oracle: every engine vs. batch, one matrix.

Every serving path this repo has grown — ``stream()`` (synchronous for the
rule-based prefetchers, the one-stream ``MicroBatcher`` for the learned
ones), shared-model ``MultiStreamEngine``, multi-process ``ShardedEngine``
— promises the same thing: per-stream
emissions **bit-identical** to the batch ``prefetch_lists`` oracle. Earlier
PRs each pinned their own engine with ad-hoc tests; this suite is the single
parametrized matrix ({DART, NN, 2 rule-based} x {B=1, B=32} x engine) every
future engine plugs into instead.

Cells that cannot apply are *skipped with a reason*, not silently dropped:
rule-based prefetchers are synchronous state machines (no micro-batch, no
shared model), so only the ``stream`` engine applies to them and the batch
size is meaningless.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.prefetch import (
    BestOffsetPrefetcher,
    DARTPrefetcher,
    NeuralPrefetcher,
    StreamPrefetcher,
)
from repro.runtime import ModelArtifact, as_streaming

# The two mid-trace churn columns pin the elastic engine to the same oracle:
# ElasticSharded with a rescale (grow then shrink) or a migration (there and
# back) injected mid-trace must still be bit-identical per stream. Future
# engines — elastic or not — plug in here instead of growing ad-hoc tests.
ENGINES = [
    "stream",
    "multistream",
    "sharded",
    "elastic-rescale",
    "elastic-migrate",
    # Record a live session, replay the trace on a fresh engine under the
    # full behavioral-contract set; bit-identity makes replay transitively
    # conformant with the batch oracle.
    "recorded-replay",
    # The admission throttle's zero-overhead guarantee: a fleet wrapped in
    # an AdmissionController whose throttle can never fire (floor 0.0) must
    # be bit-identical to the unwrapped engines — and hence to the oracle.
    "throttled",
]
MODEL_BACKED = {"dart", "nn"}
#: Distinct delta lists the DART row must emit per trace. The trained tables
#: decode to only two, which lets an engine that serves one window's lists at
#: another window's access pass; the seed-0 random head gives 27 per trace.
MIN_DART_DELTA_LISTS = 10


@pytest.fixture(scope="module")
def conformance_traces(libquantum_traces):
    """Two genuinely different streams (the multi-stream engines serve both)."""
    return libquantum_traces(2, 450, 21)


def _random_head_dart(tabular_student, preprocess_config):
    """DART over a copy of the shared tables with a seeded random head table,
    so different windows decode to different delta lists."""
    tab = copy.deepcopy(tabular_student[0])
    head = tab.head_table
    head.table = np.random.default_rng(0).normal(
        0.0, 3.0 / head.n_subspaces, head.table.shape
    )
    return DARTPrefetcher(
        ModelArtifact(tab, version=1), preprocess_config, threshold=0.4, max_degree=3
    )


@pytest.fixture(scope="module")
def prefetchers(tabular_student, trained_student, preprocess_config):
    return {
        "dart": _random_head_dart(tabular_student, preprocess_config),
        "nn": NeuralPrefetcher(
            trained_student, preprocess_config, name="TransFetch",
            latency_cycles=0, threshold=0.4, max_degree=3,
        ),
        "bo": BestOffsetPrefetcher(),
        "streamer": StreamPrefetcher(),
    }


@pytest.fixture(scope="module")
def oracles(prefetchers, conformance_traces):
    """Batch ``prefetch_lists`` per (prefetcher, trace): the ground truth."""
    out = {
        kind: [pf.prefetch_lists(t) for t in conformance_traces]
        for kind, pf in prefetchers.items()
    }
    for lists, trace in zip(out["dart"], conformance_traces):
        deltas = {
            tuple(b - int(blk) for b in row) for row, blk in zip(lists, trace.block_addrs)
        }
        assert len(deltas) >= MIN_DART_DELTA_LISTS, f"{len(deltas)} distinct delta lists"
    return out


def drive(stream, trace) -> list[list[int]]:
    """Generic streaming driver: place each emission at its trigger access."""
    out: list[list[int]] = [[] for _ in range(len(trace))]
    for i in range(len(trace)):
        for em in stream.ingest(int(trace.pcs[i]), int(trace.addrs[i])):
            out[em.seq] = list(em.blocks)
    for em in stream.flush():
        out[em.seq] = list(em.blocks)
    return out


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("batch_size", [1, 32])
@pytest.mark.parametrize("kind", ["dart", "nn", "bo", "streamer"])
def test_engine_matches_batch_oracle(
    kind, batch_size, engine, prefetchers, oracles, conformance_traces
):
    pf = prefetchers[kind]
    if kind not in MODEL_BACKED:
        if engine not in ("stream", "throttled"):
            pytest.skip(f"rule-based {kind} has no {engine} engine (synchronous)")
        if batch_size != 1:
            pytest.skip("rule-based streams are synchronous; B does not apply")

    if engine == "stream":
        kwargs = {"batch_size": batch_size} if kind in MODEL_BACKED else {}
        stream = as_streaming(pf, **kwargs)
        got = drive(stream, conformance_traces[0])
        assert got == oracles[kind][0]
        if kind == "dart" and batch_size == 1:
            # B=1 DART must actually serve through the single-query fast path
            # (which the equality above pins bit-identical to the oracle).
            assert stream.fast_path_flushes > 0
    elif engine == "multistream":
        ms = pf.multistream(batch_size=batch_size)
        handles = ms.streams(2)
        got = [drive_pair(handles, conformance_traces)]
        for s, trace in enumerate(conformance_traces):
            assert got[0][s] == oracles[kind][s], f"stream {s} diverged"
    elif engine == "sharded":
        with pf.sharded(workers=2, batch_size=batch_size) as eng:
            _, per_stream, lists = eng.serve(conformance_traces, collect=True)
        for s in range(2):
            assert lists[s] == oracles[kind][s], f"stream {s} diverged"
            assert per_stream[s].accesses == len(conformance_traces[s])
    elif engine == "throttled":
        from repro.runtime import AdmissionController, ThrottleConfig

        # floor=0.0 means accuracy can never sink below the floor, so the
        # throttle never escalates — the never-fires column of the matrix.
        ctl = AdmissionController(ThrottleConfig(floor=0.0, recover=0.0))
        if kind in MODEL_BACKED:
            ms = pf.multistream(batch_size=batch_size)
            handles = ctl.wrap_all(list(ms.streams(2)))
            got = drive_pair(handles, conformance_traces)
            for s in range(2):
                assert got[s] == oracles[kind][s], f"stream {s} diverged"
        else:
            stream = ctl.wrap(as_streaming(pf))
            assert drive(stream, conformance_traces[0]) == oracles[kind][0]
        # The wrapper really was engaged, and it never moved a tenant.
        assert ctl.states() and all(s == "full" for s in ctl.states().values())
        assert all(not t.transitions for t in ctl.tenants.values())
    elif engine == "recorded-replay":
        from repro.runtime import SessionRecorder, replay

        rec = SessionRecorder()
        ms = pf.multistream(batch_size=batch_size)
        rec.attach(ms, model=getattr(pf, "artifact", None) or pf.model)
        handles = ms.streams(2)
        got = drive_pair(handles, conformance_traces)
        for s, trace in enumerate(conformance_traces):
            assert got[s] == oracles[kind][s], f"stream {s} diverged (live)"
        # replay() raises ContractViolation if the fresh engine's emissions
        # differ from the recorded ones in any bit; recorded == oracle above.
        report = replay(rec.trace())
        assert report.column == "multistream"
        assert report.accesses == sum(len(t) for t in conformance_traces)
        assert "bit-identity" in report.contracts
    else:  # elastic-rescale / elastic-migrate: churn injected mid-trace
        n = len(conformance_traces[0])
        churn = {
            "elastic-rescale": {n // 4: lambda e, h: e.rescale(3),
                                3 * n // 4: lambda e, h: e.rescale(1)},
            "elastic-migrate": {n // 3: lambda e, h: e.migrate_stream(h[0], 1),
                                2 * n // 3: lambda e, h: e.migrate_stream(h[0], 0)},
        }[engine]
        with pf.sharded(workers=2, batch_size=batch_size, io_chunk=16) as eng:
            handles = [eng.open_stream(f"t{s}") for s in range(2)]
            out = [[[] for _ in range(len(t))] for t in conformance_traces]
            for i in range(n):
                if i in churn:
                    churn[i](eng, handles)
                for h, t in zip(handles, conformance_traces):
                    for em in h.ingest(int(t.pcs[i]), int(t.addrs[i])):
                        out[h.index][em.seq] = list(em.blocks)
            for h in handles:
                for em in eng.close_stream(h):
                    out[h.index][em.seq] = list(em.blocks)
            assert eng.stats()["elastic"]["closed"] == 2
        for s in range(2):
            assert out[s] == oracles[kind][s], f"stream {s} diverged under churn"

    # The model actually prefetches on this workload — an all-empty oracle
    # would make every equality above vacuous.
    assert any(any(row) for row in oracles[kind][0])


def drive_pair(handles, traces) -> list[list[list[int]]]:
    """Interleave two streams through their shared-engine handles."""
    out = [[[] for _ in range(len(t))] for t in traces]
    for i in range(max(len(t) for t in traces)):
        for h, t in zip(handles, traces):
            if i < len(t):
                for em in h.ingest(int(t.pcs[i]), int(t.addrs[i])):
                    out[h.index][em.seq] = list(em.blocks)
    for h in handles:
        for em in h.flush():
            out[h.index][em.seq] = list(em.blocks)
    return out
