"""Pipelined sharded data plane vs. the one-outstanding lockstep.

Not a paper figure — the pipelining check for the sharded runtime: the same
fleet (W workers, shared tables) serving the same streams at credit-window
depths {1, 2, 8}. Three bars:

* **bit-identity** — emissions at *every* depth must equal the
  single-process ``MultiStreamEngine`` oracle (pipelining must never change
  answers);
* **lockstep degeneracy** — depth 1 must behave exactly like the historical
  one-outstanding protocol: zero credit stalls, every send leaving exactly
  one request in flight, and the same worker predict schedule as the deep
  window (framing differs, ingest order doesn't);
* **throughput** — depth 8 over depth 1 at W >= 2 must gain >= 1.3x *when
  the host actually has cores to overlap onto* (>= 2 visible CPUs). On a
  1-CPU host the ratio is still measured and recorded, but the gate is
  marked skipped — overlapping compute onto one time-shared core cannot
  win, and pretending otherwise would poison the committed trajectory.

Run standalone (writes the ``BENCH_pipeline.json`` trajectory artifact)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --accesses 10000

``--smoke`` (CI) shrinks to 4 streams x ~1.2k accesses. Future PRs compare
their numbers against the committed history of this artifact; keep the
workload/seed stable.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.runtime import serve_interleaved
from repro.utils import log

from bench_sharded import build_dart, make_streams

DEPTHS = [1, 2, 8]
THROUGHPUT_BAR = 1.3
MIN_CPUS_FOR_GATE = 2


def run(
    accesses: int,
    n_streams: int,
    workers: int,
    batch_size: int,
    max_wait: int,
    output: str | None,
    seed: int = 2,
    identity_accesses: int | None = None,
) -> dict:
    traces = make_streams(n_streams, accesses, seed)
    dart = build_dart(traces[0])
    cpus = os.cpu_count() or 1

    # The oracle every depth must reproduce, on a shorter prefix so the
    # throughput sweep dominates the wall clock.
    id_len = min(accesses, identity_accesses or 3000)
    id_traces = [t.slice(0, id_len) for t in traces]
    ref = dart.multistream(batch_size=batch_size, max_wait=max_wait)
    _, _, ref_lists = serve_interleaved(
        ref.streams(n_streams), id_traces, collect=True
    )

    record: dict = {
        "workload": "462.libquantum",
        "seed": seed,
        "streams": n_streams,
        "accesses_per_stream": accesses,
        "batch_size": batch_size,
        "max_wait": max_wait,
        "workers": workers,
        "cpus": cpus,
        "by_depth": {},
    }
    rows = []
    for depth in DEPTHS:
        with dart.sharded(
            workers=workers, batch_size=batch_size, max_wait=max_wait,
            pipeline_depth=depth,
        ) as eng:
            agg, _, _ = eng.serve(traces, collect=False)
            stats = eng.stats()
        with dart.sharded(
            workers=workers, batch_size=batch_size, max_wait=max_wait,
            pipeline_depth=depth,
        ) as eng:
            _, _, lists = eng.serve(id_traces, collect=True)
        identical = all(lists[i] == ref_lists[i] for i in range(n_streams))
        meter = stats["pipeline"]
        record["by_depth"][str(depth)] = {
            **agg.to_dict(),
            "identical_to_single_process": identical,
            "predict_calls": stats["predict_calls"],
            "pipeline": meter,
        }
        rows.append(
            [str(depth), f"{agg.throughput:,.0f}", f"{agg.p50_us:.1f}",
             f"{agg.p99_us:.1f}", str(meter["credit_stalls"]),
             f"{meter['overlap_ratio']:.2f}", str(identical)]
        )
    log.table(
        f"pipelined serving of {n_streams} streams over W={workers} "
        f"({accesses:,} accesses each, B={batch_size}, "
        f"{cpus} CPU(s) visible)",
        ["depth", "acc/s", "p50 us", "p99 us", "stalls", "overlap", "identical"],
        rows,
    )

    record["all_identical"] = all(
        v["identical_to_single_process"] for v in record["by_depth"].values()
    )
    # Depth 1 must be the historical lockstep exactly: no stalls, a pure
    # one-outstanding occupancy profile, and the same predict schedule as
    # the deepest window.
    m1 = record["by_depth"]["1"]["pipeline"]
    record["depth1_lockstep_exact"] = (
        m1["credit_stalls"] == 0
        and m1["inflight_hist"] == [0, m1["sends"]]
        and record["by_depth"]["1"]["predict_calls"]
        == record["by_depth"][str(max(DEPTHS))]["predict_calls"]
    )
    thr = {d: v["throughput"] for d, v in record["by_depth"].items()}
    d_hi = str(max(DEPTHS))
    ratio = thr[d_hi] / thr["1"] if thr["1"] else 0.0
    record["throughput_depth%s_over_depth1" % d_hi] = ratio
    record["throughput_bar"] = THROUGHPUT_BAR
    gate_applies = cpus >= MIN_CPUS_FOR_GATE and workers >= 2
    record["throughput_gate"] = (
        "enforced" if gate_applies
        else f"skipped ({cpus} CPU(s) visible; overlap needs cores)"
    )
    throughput_ok = (ratio >= THROUGHPUT_BAR) if gate_applies else True
    ok = (
        record["all_identical"]
        and record["depth1_lockstep_exact"]
        and throughput_ok
    )
    record["pass"] = ok
    verdict = "PASS" if ok else "FAIL"
    print(
        f"[{verdict}] depth 1->{d_hi}: {ratio:.2f}x throughput "
        f"(bar {THROUGHPUT_BAR}x, gate {record['throughput_gate']}), "
        f"bit-identical={record['all_identical']}, "
        f"depth-1 lockstep exact={record['depth1_lockstep_exact']}"
    )
    if output:
        with open(output, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"wrote {output}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--accesses", type=int, default=10_000, help="per stream")
    ap.add_argument("--streams", type=int, default=8)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--max-wait", type=int, default=16)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--output", "-o", default="BENCH_pipeline.json")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI run: 4 streams, ~1.2k accesses")
    args = ap.parse_args(argv)
    if args.smoke:
        args.accesses = 1200
        args.streams = 4
        args.batch_size = 16
        args.max_wait = 4
    record = run(
        args.accesses, args.streams, args.workers, args.batch_size,
        args.max_wait, args.output, seed=args.seed,
    )
    return 0 if record["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
