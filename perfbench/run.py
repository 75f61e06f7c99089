"""Repository benchmark: three workloads against one trained DART model.

Run from the repository root::

    python3 perfbench/run.py --workload b1-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace 1``
additionally runs a traced pass and prints every per-layer metric instead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
detail record (environment stamp, sample counts, per-round figures, span
summary), also written to ``perfbench/out/``.

Workloads (BENCHMARK.json says why each exists):

* ``b1-stream`` -- one 462.libquantum stream, ``DARTPrefetcher.stream(
  batch_size=1)`` driven by ``runtime.serve``: the single-query fast path.
* ``sharded-w2`` -- four tenants through ``ShardedEngine(workers=2)`` (B=64,
  max_wait=16) with default transport and depth, one BLAS thread per
  process (``BLAS_ENV``): the batched path behind IPC.
* ``sim-ipc`` -- ``sim.simulate`` with no prefetcher, BO and DART on the
  fixed Fig. 12 input (462.libquantum, scale 0.05).

End-to-end metrics (always from untraced passes):

* ``setup_s`` -- median over several set-ups of the time before the first
  access can be served: generate the inputs from ``--seed``, load the
  tables, build the engine and start its workers. One set-up builds the
  measured session; the median is over the spare ones, which run between
  its rounds (sim-ipc: between its simulations) and are closed at once.
  Unlike the timings below they are not picked by host phase: set-up is
  slowed in slow phases even at its fastest (b1-stream: p5 6.9 ms in an
  undisturbed run, 8-10.5 ms in a disturbed one), and its median over the
  whole run moves least between the two (10-12.7 ms). Building the tables
  (once per source tree, cached) and the oracle are timed in the detail
  record instead.
* ``throughput_aps`` -- accesses per wall-clock second over the run's
  fastest rounds (sim-ipc: simulated accesses per host second of its three
  simulations).
* ``latency_p50_us`` -- nearest-rank median of the program's own
  per-``ingest`` timings (sharded: the per-access latency its workers
  measure), pooled over the same fastest rounds.
* ``latency_p99_us`` -- median over all rounds of each round's nearest-rank
  p99 of the same timings. A round holds 1,000-1,200 samples, so its p99
  has at least 10 beyond it; sample counts and the median round's p99.9
  are in the detail record. For sim-ipc one request is one Fig. 12 answer
  (all three simulations) and its one sample per round is the host time
  per simulated access.

  The fastest rounds are the share ``FAST_SHARE`` of the workload (at
  least three) with the least wall time per access. On a shared 2-vCPU VM
  every CPU-bound step slows by up to 2x for seconds to minutes at a time
  (a fixed pure-Python loop swings between 1.1 and 2.2 ms in step with
  b1-stream's 250-520 us per access), so a median over a run reports how
  much of it fell in a slow host phase. b1-stream, one process, keeps its
  fastest 5%: they report the program's own speed as long as about a
  second of the run was undisturbed. sharded-w2 runs three processes on
  the two CPUs; its fastest few rounds are lucky schedules rather than
  undisturbed stretches (ten-seed IQR/median of throughput 0.17 for the
  fastest 5%, 0.06 for the faster half), so it keeps the faster half.
  sim-ipc's 10 s rounds are too few to pick from, so all count. The tail
  is the other way round: nearly every round holds some slow-phase
  accesses, so the median round's p99 is steady while the fastest rounds'
  p99 depends on whether they held any.
* ``peak_rss_mb`` -- peak resident set of the benchmark process plus that
  of every live worker process.

Correctness: every emission of every serving round is compared with the
batch ``prefetch_lists`` oracle on the same input; sim-ipc requires every
round's simulated counts to equal the first round's. A mismatch, an
exception or a round timeout counts the affected accesses as failed.

Seeds: any integer selects the serving inputs. Seed 1009 is held out: do
not use it while developing a change; use it to confirm a claim on inputs
the change was not tuned on.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: share of a run's rounds, fastest first, that the end-to-end timings pool
#: (the module docstring says why each), and the least number of rounds
#: that share may hold
FAST_SHARE = {"b1-stream": 0.05, "sharded-w2": 0.5, "sim-ipc": 1.0}
MIN_FAST_ROUNDS = 3
#: spare set-ups each time a round lets them run; setup_s is their median
SETUPS_PER_CALL = 3
#: rounds a pass serves at least, however short --seconds is
MIN_ROUNDS = {"sim-ipc": 2}
DEFAULT_MIN_ROUNDS = 3
#: rounds of the traced pass: fixed, so its counts repeat exactly
TRACE_ROUNDS = {"sim-ipc": 1}
DEFAULT_TRACE_ROUNDS = 3
#: BLAS threading per workload. sharded-w2 runs one BLAS thread per process:
#: with the default (one per CPU, in the frontend and in each of the two
#: workers) six threads share two CPUs and its rounds swing between about
#: 550 and 1,200 accesses/s with the scheduler's state, which no run length
#: averages out; pinned, they hold 3,000-3,500.
BLAS_ENV = {"sharded-w2": {"OPENBLAS_NUM_THREADS": "1"}}
ROUND_TIMEOUT_S = 60
HELD_OUT_SEED = 1009


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program source under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")


def environment(digest: str) -> dict:
    """What the numbers cannot be read without: CPUs, BLAS, versions, commit."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_digest": digest,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live worker process (Linux)."""
    import multiprocessing

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                kb += next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        except (OSError, StopIteration, ValueError):
            pass
    return kb / 1024


class _RoundTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _RoundTimeout(f"round exceeded {ROUND_TIMEOUT_S} s")


def run_rounds(session, reference, seconds: float | None, count: int, log: list,
               between=None):
    """Serve rounds until ``seconds`` have passed and ``count`` rounds are done.

    Each round's outputs are checked against ``reference`` (the oracle; for
    sim-ipc, the first round's outputs) and then dropped, so memory and
    garbage-collector work stay flat over a run. A round that raises or
    times out ends the pass and all of its accesses count as failed.
    ``between``, when given, goes to each round, which calls it outside its
    timing; the set-up times it returns are kept in the round's ``setups``.
    Returns ``(rounds, attempted, failed, reference)``.
    """
    from perfbench.workloads import check_reported_p50

    rounds, attempted, failed = [], 0, 0
    spare: list = []
    hook = None if between is None else (lambda: spare.extend(between()))
    t0 = time.perf_counter()
    while True:
        signal.alarm(ROUND_TIMEOUT_S)
        try:
            spare.clear()
            rnd = session.run_round(hook)
            rnd.setups = list(spare)
            check_reported_p50(rnd)
        except Exception:  # a failing round is a measured outcome, not a crash
            log.append(traceback.format_exc())
            attempted += session.round_accesses
            failed += session.round_accesses
            break
        finally:
            signal.alarm(0)
        if reference is None:
            reference = rnd.outputs
        attempted += rnd.accesses
        failed += session.failed_accesses(rnd.outputs, reference)
        rnd.outputs = None
        rounds.append(rnd)
        if len(rounds) >= count and (seconds is None or time.perf_counter() - t0 >= seconds):
            break
    return rounds, attempted, failed, reference


def fastest_rounds(rounds, share: float) -> list:
    """The ``share`` of ``rounds`` (at least ``MIN_FAST_ROUNDS``) with the
    least wall time per access."""
    ranked = sorted(rounds, key=lambda r: r.seconds / r.accesses)
    return ranked[:max(MIN_FAST_ROUNDS, math.ceil(len(ranked) * share))]


def end_to_end(rounds, share, first_setup, rss, detail) -> dict:
    from perfbench import layers

    fast = fastest_rounds(rounds, share)
    setups = [s for r in rounds for s in r.setups] or [first_setup]
    p50, _, _, n = layers.percentiles_us([s for r in fast for s in r.samples])
    accesses, seconds = sum(r.accesses for r in fast), sum(r.seconds for r in fast)
    per_round = [layers.percentiles_us(r.samples) for r in rounds]
    detail["latency"] = {"rounds": len(rounds), "fast_rounds": len(fast), "fast_samples": n,
                         "setups": len(setups),
                         "samples_per_round": min((p[3] for p in per_round), default=0),
                         "median_round_p999_us": statistics.median(p[2] for p in per_round)
                         if rounds else 0.0}
    return {
        "setup_s": statistics.median(setups),
        "throughput_aps": accesses / seconds if seconds else 0.0,
        "latency_p50_us": p50,
        "latency_p99_us": statistics.median(p[1] for p in per_round) if rounds else 0.0,
        "peak_rss_mb": rss,
    }


def traced_pass(args, session, rounds, reference, detail):
    """Re-run a fixed number of rounds with every layer wrapped.

    Returns ``(per-layer metrics, attempted, failed)``. The wrappers are
    removed, and checked removed by identity, before anything else runs.
    """
    import numpy as np

    from perfbench import layers, spans

    tracer = spans.Tracer()
    predictor = session.dart.predictor
    before = session.counters() if hasattr(session, "counters") else {}
    with spans.Patches() as patches:
        layers.install(tracer, patches, predictor)
        if session.fresh_engine():  # a rebuilt engine counts from zero
            before = {}
        traced, attempted, failed, _ = run_rounds(
            session, reference, None,
            TRACE_ROUNDS.get(args.workload, DEFAULT_TRACE_ROUNDS), detail["errors"])
    after = session.counters() if hasattr(session, "counters") else {}

    def wall_per_access(rs):
        return statistics.median(r.seconds / r.accesses for r in rs)

    traced_s = sum(r.seconds for r in traced)
    facts: dict = {
        "accesses": sum(r.accesses for r in traced),
        "overhead": wall_per_access(traced) / wall_per_access(rounds)
        if traced and rounds else 0.0,
        "unattributed_share": 1.0 - tracer.root_seconds() / traced_s if traced_s else 0.0,
    }
    if args.workload == "sim-ipc":
        if reference is not None:
            facts["sim"] = session.quality(reference)
    else:
        facts["queries"] = session.queries(len(traced))
        facts["candidates"] = sum(r.candidates for r in traced)
        for key in ("predict_calls", "fast_path_flushes"):
            facts[key] = after.get(key, 0) - before.get(key, 0)
        if "sharded_stats" in after:
            pipe, pipe0 = after["sharded_stats"]["pipeline"], before["sharded_stats"]["pipeline"]
            facts["sharded_stats"] = {
                "shm_bytes": after["sharded_stats"]["shm_bytes"],
                "pipeline": {"overlap_ratio": pipe["overlap_ratio"],
                             "credit_stalls": pipe["credit_stalls"] - pipe0["credit_stalls"]},
            }
            w50, w99, _, _ = layers.percentiles_us([s for r in traced for s in r.samples])
            facts["worker_p50_us"], facts["worker_p99_us"] = w50, w99
    summary = tracer.summary()
    detail["trace"] = {"spans": len(tracer), "summary": summary, "counters": tracer.counters,
                       "facts": {k: v for k, v in facts.items() if k != "sharded_stats"}}
    OUT.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(OUT / f"{args.workload}-seed{args.seed}-spans.npz", **tracer.arrays())
    return layers.per_layer(summary, tracer.counters, facts, predictor), attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    # Before NumPy loads: BLAS reads its thread count once, at import.
    os.environ.update(BLAS_ENV.get(args.workload, {}))
    import_program()

    from perfbench import layers, model
    from perfbench.workloads import WORKLOADS

    digest = model.source_digest(SRC / "repro")
    tables, build_s = model.ensure_tables(ROOT, SRC, digest)
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "environment": environment(digest), "tables_build_s": build_s,
                    "errors": []}
    signal.signal(signal.SIGALRM, _alarm)
    make = WORKLOADS[args.workload]

    def set_up():
        """(seconds, session) of one set-up."""
        gc.collect()  # start each set-up from the same heap state
        t0 = time.perf_counter()
        built = make(args.seed, tables)
        return time.perf_counter() - t0, built

    def spare_set_ups() -> list:
        times = []
        for _ in range(SETUPS_PER_CALL):
            seconds, spare = set_up()
            spare.close()
            times.append(seconds)
        return times

    # The first set-up builds the measured session; spare ones run (and are
    # closed at once) between its rounds' steps, spread over the whole run.
    session = None
    try:
        first_setup, session = set_up()
        t0 = time.perf_counter()
        oracle = session.oracle()
        detail["oracle_s"] = time.perf_counter() - t0
        session.warm_up()
        rounds, attempted, failed, reference = run_rounds(
            session, oracle, args.seconds,
            MIN_ROUNDS.get(args.workload, DEFAULT_MIN_ROUNDS), detail["errors"],
            between=None if args.trace else spare_set_ups)
        rss = peak_rss_mb()
        if args.trace:
            metrics, t_attempted, t_failed = traced_pass(args, session, rounds, reference, detail)
            attempted += t_attempted
            failed += t_failed
        else:
            metrics = end_to_end(rounds, FAST_SHARE[args.workload], first_setup, rss, detail)
    finally:
        if session is not None:
            session.close()
    detail["first_setup_s"] = first_setup
    detail["rounds"] = [dict(zip(("p50_us", "p99_us"), layers.percentiles_us(r.samples)[:2]),
                             accesses=r.accesses, seconds=r.seconds, setups=r.setups)
                        for r in rounds]

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set differs from BENCHMARK.json {kind}: "
                           f"missing {sorted(set(units) - set(metrics))}, "
                           f"extra {sorted(set(metrics) - set(units))}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def reap_children() -> None:
    """Stop and wait for every process this run started.

    Worker processes still alive (a failed close) are terminated and joined.
    The shared-memory resource tracker is a separate helper process that
    would otherwise outlive the benchmark, unreaped; stopping it here waits
    until it has exited.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        reap_children()
    sys.exit(code)
