"""Low-occupancy latency: the B=1 fast path and the live-migration pause.

Not a paper figure — the raw-speed check for the runtime. A real prefetcher
lives at occupancy one (one access in flight, no batch to amortize over), so
this bench pins the per-access latency of serving:

* **B=1 fast path** — DART served at batch size 1 through the single-query
  fast path must run >= 3x the generic one-row ``predict_proba`` flush
  (the same engine given a bare callable, so it cannot find the fast path),
  measured in the same run: ``--pairs`` alternating pairs of full serves,
  the gate reading the median per-pair ratio. Its p50 must be <= 150 us
  (the median over the pairs of each fast run's p50). Emissions of both
  columns must be bit-identical to the batch oracle, and every fast-column
  flush must dispatch through the fast path (``fast_path_flushes ==
  predict_calls``). B=1 runs in one process, so both timing gates apply on
  every host. Every timing is reported as a median with its interquartile
  range over the pairs, not as the best run;
* **live-migration pause** — streams migrated back and forth across a W=2
  ``ShardedEngine`` must stay bit-identical to the batch oracle, and the
  pause p99 is compared against the committed ``BENCH_elastic.json``
  baseline (5,055 us).

The pause gate follows the ``bench_sharded`` convention: on hosts without
enough cores for the worker processes to actually run in parallel the pause
is still measured and recorded, but the gate is marked skipped with the
reason — a frontend and a worker time-sharing one core measure the
scheduler, not the IPC. Every bit-identity bar is enforced everywhere.

Run standalone (writes the ``BENCH_latency.json`` trajectory artifact)::

    PYTHONPATH=src python benchmarks/bench_latency.py

``--smoke`` (CI) shrinks every section. Future PRs compare their numbers
against the committed history of this artifact; keep the workload/seed stable.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np
from bench_sharded import build_dart, make_streams

from repro.runtime import MicroBatcher, serve
from repro.utils import log

#: migration pause p99 from the committed BENCH_elastic.json.
ELASTIC_PAUSE_BASELINE_US = 5055.3

B1_SPEEDUP_BAR = 3.0
B1_P50_BAR_US = 150.0
MIN_CPUS_FOR_TIMING_GATE = 4  # same convention as bench_sharded scaling gate


def _pct(sorted_us: list[float], q: float) -> float:
    return sorted_us[min(len(sorted_us) - 1, int(round(q * (len(sorted_us) - 1))))]


def _spread(name: str, values) -> dict:
    """``{name}_median`` and ``{name}_iqr`` of per-pair values (flat, so the
    trend table shows them)."""
    q1, med, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return {f"{name}_median": float(med), f"{name}_iqr": float(q3 - q1)}


# ------------------------------------------------------------- B=1 fast path
def bench_b1(accesses: int, pairs: int, seed: int) -> dict:
    traces = make_streams(1, accesses, seed)
    trace = traces[0]
    dart = build_dart(trace)
    batch_lists = dart.prefetch_lists(trace)
    predict = dart.predictor.predict_proba

    def generic_predict(x_addr, x_pc, batch_size, out=None):
        # A bare callable: the flush path finds no fast_path() behind it and
        # answers each one-row flush with the generic predict_proba.
        return predict(x_addr, x_pc, batch_size=batch_size, out=out)

    def fast():
        return dart.stream(batch_size=1)

    def generic():
        return MicroBatcher(
            generic_predict, dart.config, threshold=dart.threshold,
            max_degree=dart.max_degree, decode=dart.decode, batch_size=1,
        )

    def run(make) -> dict:
        stream = make()
        stats, lists = serve(stream, trace, collect=True)
        return {
            **stats.to_dict(),
            "identical_to_batch": lists == batch_lists,
            "predict_calls": stream.predict_calls,
            "fast_path_flushes": stream.fast_path_flushes,
        }

    runs = []
    for i in range(pairs):
        # Alternate which column goes first, so neither always runs warm.
        order = (("fast", fast), ("generic", generic))
        pair = dict((name, run(make)) for name, make in (order if i % 2 == 0 else order[::-1]))
        pair["speedup"] = pair["fast"]["throughput"] / pair["generic"]["throughput"]
        runs.append(pair)
    cols = ("fast", "generic")
    out = {
        "accesses": accesses,
        "pairs": pairs,
        "runs": runs,
        **_spread("speedup", [r["speedup"] for r in runs]),
        "all_identical": all(r[c]["identical_to_batch"] for r in runs for c in cols),
        "all_fast_path": all(
            r["fast"]["fast_path_flushes"] == r["fast"]["predict_calls"] > 0
            and r["generic"]["fast_path_flushes"] == 0
            for r in runs
        ),
    }
    for c in cols:
        for stat in ("throughput", "p50_us", "p99_us"):
            out.update(_spread(f"{c}_{stat}", [r[c][stat] for r in runs]))
    return out


# ------------------------------------------------------ migration pause bench
def bench_migration(
    accesses: int, n_streams: int, workers: int, batch_size: int, seed: int
) -> dict:
    traces = make_streams(n_streams, accesses, seed)
    dart = build_dart(traces[0])
    oracles = [dart.prefetch_lists(t) for t in traces]
    perf = time.perf_counter
    pauses: list[float] = []
    collected: list[dict] = [{} for _ in range(n_streams)]
    engine = dart.sharded(
        workers=workers, batch_size=batch_size, max_wait=4, io_chunk=64,
        drain_poll_interval=5e-4,
    )
    with engine:
        handles = [engine.open_stream(f"t{i}") for i in range(n_streams)]

        def pump(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                for k, h in enumerate(handles):
                    for em in h.ingest(
                        int(traces[k].pcs[i]), int(traces[k].addrs[i])
                    ):
                        collected[k][em.seq] = list(em.blocks)

        # Migrate every stream there and back, serving between migrations.
        step = max(accesses // (2 * n_streams + 1), 1)
        cursor = 0
        for h in handles + handles:
            pump(cursor, min(cursor + step, accesses))
            cursor = min(cursor + step, accesses)
            t0 = perf()
            engine.migrate_stream(h, (h.shard_id + 1) % workers)
            pauses.append(perf() - t0)
        pump(cursor, accesses)
        for k, h in enumerate(handles):
            for em in engine.close_stream(h):
                collected[k][em.seq] = list(em.blocks)

    identical = all(
        [collected[k].get(s) for s in range(accesses)] == oracles[k][:accesses]
        for k in range(n_streams)
    )
    us = sorted(p * 1e6 for p in pauses)
    return {
        "accesses_per_stream": accesses,
        "streams": n_streams,
        "workers": workers,
        "batch_size": batch_size,
        "migrations": len(us),
        "pause_p50_us": _pct(us, 0.50),
        "pause_p99_us": _pct(us, 0.99),
        "pause_max_us": us[-1],
        "identical_to_batch": identical,
    }


# --------------------------------------------------------------------- driver
def run(args) -> dict:
    cpus = os.cpu_count() or 1
    skip_reason = (
        f"skipped ({cpus} CPU(s) visible; frontend and workers time-share "
        f"cores, so wall-clock measures the scheduler, not the IPC)"
    )

    b1 = bench_b1(args.accesses, args.pairs, args.seed)
    migration = bench_migration(
        args.migration_accesses, args.migration_streams, 2,
        args.batch_size, args.seed,
    )
    speedup = b1["speedup_median"]
    p50 = b1["fast_p50_us_median"]

    gates = {
        "b1_speedup": {
            "bar": B1_SPEEDUP_BAR,
            "measured": speedup,
            "status": "pass" if speedup >= B1_SPEEDUP_BAR else "fail",
        },
        "b1_identity": {
            "bar": True,
            "measured": b1["all_identical"] and b1["all_fast_path"],
            "status": ("pass" if b1["all_identical"] and b1["all_fast_path"]
                       else "fail"),
        },
        "b1_p50": {
            "bar": B1_P50_BAR_US,
            "measured": p50,
            "status": "pass" if p50 <= B1_P50_BAR_US else "fail",
        },
        "migration_identity": {
            "bar": True,
            "measured": migration["identical_to_batch"],
            "status": "pass" if migration["identical_to_batch"] else "fail",
        },
        "migration_pause": {
            "bar": ELASTIC_PAUSE_BASELINE_US,
            "measured": migration["pause_p99_us"],
            "status": (
                ("pass"
                 if migration["pause_p99_us"] < ELASTIC_PAUSE_BASELINE_US
                 else "fail")
                if cpus >= MIN_CPUS_FOR_TIMING_GATE else skip_reason
            ),
        },
    }
    ok = all(g["status"] != "fail" for g in gates.values())

    record = {
        "workload": "462.libquantum",
        "seed": args.seed,
        "cpus": cpus,
        "baseline": {
            "migration_pause_p99_us": ELASTIC_PAUSE_BASELINE_US,
            "source": "BENCH_elastic.json",
        },
        "b1": b1,
        "migration": migration,
        "gates": gates,
        "pass": ok,
    }

    def cell(name: str, fmt: str) -> str:
        return f"{b1[name + '_median']:{fmt}} (IQR {b1[name + '_iqr']:{fmt}})"

    fast_runs = [r["fast"] for r in b1["runs"]]
    log.table(
        f"B=1 DART serving ({args.accesses:,} accesses, median of {args.pairs} "
        f"alternating pairs, {cpus} CPU(s) visible)",
        ["metric", "generic flush", "fast path", "gate"],
        [
            ["acc/s", cell("generic_throughput", ",.0f"), cell("fast_throughput", ",.0f"),
             f"{speedup:.2f}x (IQR {b1['speedup_iqr']:.2f}, bar {B1_SPEEDUP_BAR}x): "
             f"{gates['b1_speedup']['status']}"],
            ["p50 us", cell("generic_p50_us", ".1f"), cell("fast_p50_us", ".1f"),
             f"<= {B1_P50_BAR_US:.0f}: {gates['b1_p50']['status']}"],
            ["p99 us", cell("generic_p99_us", ".1f"), cell("fast_p99_us", ".1f"), "-"],
            ["fast-path flushes", "0",
             f"{sum(r['fast_path_flushes'] for r in fast_runs):,}/"
             f"{sum(r['predict_calls'] for r in fast_runs):,}",
             "all: " + str(b1["all_fast_path"])],
            ["identical to batch", "-", str(b1["all_identical"]), "required"],
        ],
    )
    log.table(
        f"live-migration pause ({migration['migrations']} migrations, "
        f"drain poll 0.5 ms)",
        ["p50 us", "p99 us", "max us", "identical"],
        [[f"{migration['pause_p50_us']:.0f}",
          f"{migration['pause_p99_us']:.0f}",
          f"{migration['pause_max_us']:.0f}",
          str(migration["identical_to_batch"])]],
    )
    verdict = "PASS" if ok else "FAIL"
    print(
        f"[{verdict}] B=1 {speedup:.2f}x vs the generic flush "
        f"(p50 {p50:.1f} us), "
        f"migration p99 {migration['pause_p99_us']:.0f} us "
        f"(baseline {ELASTIC_PAUSE_BASELINE_US:.0f} us), "
        f"identity: B=1 {b1['all_identical']}, "
        f"migration {migration['identical_to_batch']}"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--accesses", type=int, default=5000, help="B=1 section, per run")
    ap.add_argument("--pairs", type=int, default=9, help="B=1 alternating fast/generic pairs")
    ap.add_argument("--migration-accesses", type=int, default=2000, help="per stream")
    ap.add_argument("--migration-streams", type=int, default=8)
    ap.add_argument("--batch-size", type=int, default=16)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--output", "-o", default="BENCH_latency.json")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI run: every section shrunk")
    args = ap.parse_args(argv)
    if args.smoke:
        args.accesses = 1500
        args.pairs = 3
        args.migration_accesses = 800
        args.migration_streams = 4
    record = run(args)
    return 0 if record["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
