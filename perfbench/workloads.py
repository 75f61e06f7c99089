"""The three workloads: what each sets up, what one round serves, and how
its outputs are checked.

Every serving workload is a closed loop driven by the program's own serve
call: the next access goes in only after the previous ``ingest`` returned.
A *round* is one such call over the workload's whole input; the harness
repeats rounds until the run's time is up. Rounds reuse one input, so the
batch oracle is computed once per run.

Latency samples are the program's own per-``ingest`` timings. The serve
calls keep them in a private ``_LatencySketch``; :func:`latency_sketches`
swaps in a subclass that only remembers each instance it creates, so the
samples are read back without adding work to any access.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.runtime.engine as engine_mod
import repro.runtime.multistream as multistream
import repro.runtime.sharded as sharded
import repro.sim.simulator as simulator
from repro.prefetch import BestOffsetPrefetcher, model_prefetch_lists
from repro.sim import SimConfig
from repro.traces import make_workload
from repro.traces.workloads import PAPER_LENGTHS

from perfbench.layers import nearest_rank, sim_facts
from perfbench.model import PREPROCESS, load_dart
from perfbench.spans import Patches

TENANTS = ("462.libquantum", "605.mcf", "602.gcc", "410.bwaves")
#: accesses per round: a few tenths of a second of serving on a 2-CPU host,
#: shorter than the host's slow phases, and enough samples for a p99 with
#: 10 beyond it
B1_ACCESSES = 1000
TENANT_ACCESSES = 300
#: rows per predict call when building the oracle
ORACLE_ROWS = 16
#: the paper's Fig. 12 input: fixed, so its simulated counts never move
SIM_SCALE = 0.05
SIM_SEED = 2


@dataclass
class Round:
    """One round's accesses, wall time, latency samples (s) and outputs."""

    accesses: int
    seconds: float
    samples: list = field(default_factory=list)
    outputs: object = None
    #: the program's own p50 for the round, when it reports one (µs)
    reported_p50_us: float | None = None
    #: prefetch candidates emitted (serving workloads)
    candidates: int = 0
    #: seconds of each spare set-up run between this round's steps
    setups: list = field(default_factory=list)


def tenant_trace(name: str, accesses: int, seed: int):
    scale = accesses / PAPER_LENGTHS[name] * 1.25
    trace = make_workload(name, scale=scale, seed=seed).slice(0, accesses)
    if len(trace) != accesses:
        raise ValueError(f"{name}: generated {len(trace)} accesses, need {accesses}")
    return trace


@contextmanager
def latency_sketches():
    """Collect every latency sketch the serve calls create, in order."""
    made = []

    class Recording(engine_mod._LatencySketch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with Patches() as patches:
        for mod in (engine_mod, multistream, sharded):
            patches.install(mod, "_LatencySketch", lambda _: Recording)
        yield made


def _serve_round(call, *args) -> Round:
    """Run one serve call; its aggregate sketch is the last one created."""
    with latency_sketches() as made:
        t0 = time.perf_counter()
        agg, lists = call(*args)
        seconds = time.perf_counter() - t0
    return Round(agg.accesses, seconds, list(made[-1].samples), lists, agg.p50_us,
                 sum(len(blocks) for stream in lists for blocks in stream))


class ServingSession:
    """Common part of the three serving workloads."""

    traces: list
    dart = None

    @property
    def round_accesses(self) -> int:
        return sum(len(t) for t in self.traces)

    def oracle(self) -> list:
        """``DARTPrefetcher.prefetch_lists`` on each input, in small chunks:
        the batch path's default 1024-row chunks would set the run's peak
        RSS, which is meant to be the serving engine's."""
        dart = self.dart
        return [model_prefetch_lists(t, dart.predictor.predict_proba, dart.config,
                                     threshold=dart.threshold, max_degree=dart.max_degree,
                                     batch_size=ORACLE_ROWS, decode=dart.decode)
                for t in self.traces]

    def failed_accesses(self, outputs: list, oracle: list) -> int:
        """Accesses whose emission differs from the batch oracle."""
        bad = 0
        for got, want in zip(outputs, oracle):
            bad += abs(len(got) - len(want))
            bad += sum(1 for g, w in zip(got, want) if g != w)
        return bad

    def queries(self, rounds: int) -> int:
        warm = PREPROCESS.history_len - 1
        return rounds * sum(max(0, len(t) - warm) for t in self.traces)

    def run_round(self, between=None) -> Round:
        """One serve call; ``between``, if given, runs after it, untimed."""
        rnd = self.serve_round()
        if between is not None:
            between()
        return rnd

    def warm_up(self) -> None:
        """One unmeasured round: first-call allocations and thread start-up."""
        self.run_round()

    def fresh_engine(self) -> bool:
        """Rebuild in-process engines (they bind the predictor when built);
        True if the engine was rebuilt."""
        return False

    def close(self) -> None:
        pass


class B1Stream(ServingSession):
    def __init__(self, seed: int, tables):
        self.traces = [tenant_trace("462.libquantum", B1_ACCESSES, seed)]
        self.dart = load_dart(tables)
        self.fresh_engine()

    def fresh_engine(self) -> bool:
        self.stream = self.dart.stream(batch_size=1)
        return True

    def serve_round(self) -> Round:
        def serve_one(stream, trace):
            stats, lists = engine_mod.serve(stream, trace, collect=True)
            return stats, [lists]
        return _serve_round(serve_one, self.stream, self.traces[0])

    def counters(self) -> dict:
        return {"predict_calls": self.stream.predict_calls,
                "fast_path_flushes": self.stream.fast_path_flushes}


class ShardedW2(ServingSession):
    def __init__(self, seed: int, tables):
        self.traces = [tenant_trace(n, TENANT_ACCESSES, seed) for n in TENANTS]
        self.dart = load_dart(tables)
        self.engine = self.dart.sharded(workers=2, batch_size=64, max_wait=16)
        self.engine.streams(len(self.traces))
        self.engine.start()

    def serve_round(self) -> Round:
        def serve_all(traces):
            agg, _, lists = self.engine.serve(traces, collect=True)
            return agg, lists
        return _serve_round(serve_all, self.traces)

    def counters(self) -> dict:
        stats = self.engine.stats()
        return {"predict_calls": stats["predict_calls"],
                "fast_path_flushes": stats["fast_path_flushes"],
                "sharded_stats": stats}

    def close(self) -> None:
        self.engine.close()


class SimIPC:
    """Fig. 12 on one app: no prefetcher, BO and DART over one trace."""

    def __init__(self, seed: int, tables):
        # The input is fixed on purpose: the simulated counts (and the
        # paper's quality numbers) must be identical on every run.
        del seed
        self.trace = make_workload("462.libquantum", scale=SIM_SCALE, seed=SIM_SEED)
        self.dart = load_dart(tables)
        self.bo = BestOffsetPrefetcher()
        self.config = SimConfig()

    @property
    def round_accesses(self) -> int:
        return 3 * len(self.trace)

    def run_round(self, between=None) -> Round:
        """One Fig. 12 answer; its latency sample is host time per access.

        ``between``, if given, runs untimed after each of the three
        simulations: a round lasts seconds, longer than the host's phases.
        """
        seconds, results = 0.0, []
        for pf in (None, self.bo, self.dart):
            t0 = time.perf_counter()
            results.append(simulator.simulate(self.trace, pf, self.config))
            seconds += time.perf_counter() - t0
            if between is not None:
                between()
        return Round(self.round_accesses, seconds, [seconds / self.round_accesses], results)

    def oracle(self):
        """No oracle: every round must repeat the first round's counts."""
        return None

    def failed_accesses(self, outputs, reference) -> int:
        """Simulated accesses whose run's counts differ from ``reference``."""
        return sum(len(self.trace) for got, want in zip(outputs, reference)
                   if counts(got) != counts(want))

    def quality(self, outputs) -> dict:
        return sim_facts(*outputs)

    def warm_up(self) -> None:
        """First batch-predict call pays allocator and BLAS start-up."""
        self.dart.prefetch_lists(self.trace.slice(0, 2048))

    def fresh_engine(self) -> bool:
        return False

    def close(self) -> None:
        pass


def counts(result) -> tuple:
    """Every simulated statistic of one run."""
    return (result.instructions, result.cycles, result.demand_accesses,
            result.demand_hits, result.demand_misses, result.late_prefetch_hits,
            result.prefetches_issued, result.prefetches_useful, result.prefetch_hits)


WORKLOADS = {
    "b1-stream": B1Stream,
    "sharded-w2": ShardedW2,
    "sim-ipc": SimIPC,
}


def check_reported_p50(rnd: Round) -> None:
    """The captured sketch must be the one the program's p50 came from."""
    if rnd.reported_p50_us is None:
        return
    mine = nearest_rank(sorted(rnd.samples), 0.50) * 1e6
    if mine != rnd.reported_p50_us:
        raise RuntimeError(
            f"captured latency samples give p50 {mine} us, the program reported "
            f"{rnd.reported_p50_us} us")
