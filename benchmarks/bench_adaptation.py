"""Drift-aware adaptation vs. frozen tables on a phase-switching workload.

Not a paper figure — the deployment-side check for the online adaptation
runtime. The scenario: a student NN is distilled on a workload containing
two phases (unit-stride streaming, then a strided multi-array walk over a
different address region), but the *tables* are fit on phase-A data only —
exactly the "train once, serve forever" deployment the paper describes. When
the stream shifts to phase B, the frozen tables lose accuracy (the PQ
prototypes no longer cover the live input distribution) even though the
underlying student still generalizes; the adaptive engine must

(a) detect the drift (feature signal within ~one feature-window of the
    boundary, or the windowed-accuracy drop),
(b) re-tabularize the frozen student on the post-boundary window (Eq. 26
    fine-tuning + PQ re-fit) and hot-swap the result with zero dropped
    emissions, and
(c) recover **at least half** of the frozen-table accuracy loss on the
    post-shift tail, with the swap pause bounded by one flush
    (``last_swap_drained <= batch_size``).

Run standalone (writes the ``BENCH_adaptation.json`` trajectory artifact)::

    PYTHONPATH=src python benchmarks/bench_adaptation.py

``--smoke`` (CI) shrinks the trace and training budget; the recovery bar
drops to "adaptive beats frozen on the tail" since tiny runs are noisier.
Future PRs compare their numbers against the committed history of this
artifact; keep the workload/seed stable.
"""

from __future__ import annotations

import argparse
import json

from repro.data import PreprocessConfig, build_dataset
from repro.distillation import TrainConfig, train_model
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch import DARTPrefetcher
from repro.runtime import AdaptationConfig, ModelArtifact, score_prefetch_lists, serve
from repro.tabularization import TableConfig, tabularize_predictor
from repro.traces import phase_shift_trace
from repro.utils import log

#: geometry kept small so the bench finishes in CI; recovery ratios, not
#: absolute accuracy, are the tracked quantity.
PREPROCESS = PreprocessConfig(history_len=8, window=6, delta_range=32)
MODEL = ModelConfig(layers=1, dim=16, heads=2, history_len=8, bitmap_size=64)
TABLE = TableConfig.uniform(32, 2)
LOOKAHEAD = 8


def build_artifact(trace, shift: int, student_samples: int, table_samples: int,
                   epochs: int):
    """Student distilled on the whole workload; tables fit on phase A only.

    Model seeds are fixed (independent of the trace seed): the tracked
    quantity is recovery of *table* fidelity, so the student must stay the
    same competent model across trace-seed sweeps.
    """
    ds = build_dataset(trace.pcs, trace.addrs, PREPROCESS, max_samples=student_samples)
    seg = PREPROCESS.segmenter()
    student = AttentionPredictor(MODEL, seg.n_addr_segments, seg.n_pc_segments, rng=0)
    train_model(student, ds, None,
                TrainConfig(epochs=epochs, batch_size=128, lr=2e-3, seed=0))
    tr_a = trace.slice(0, shift)
    ds_a = build_dataset(tr_a.pcs, tr_a.addrs, PREPROCESS, max_samples=table_samples)
    tables, _ = tabularize_predictor(
        student, ds_a.x_addr, ds_a.x_pc, TABLE, fine_tune=True, rng=1
    )
    artifact = ModelArtifact(tables, version=1, metadata={"fit": "phase-A"})
    return artifact, student


def serve_collect(stream, trace) -> list[list[int]]:
    """Drive the stream over the trace; attributed per-access lists."""
    _, lists = serve(stream, trace, collect=True, measure=False)
    return lists


def run(accesses: int, student_samples: int, table_samples: int, epochs: int,
        batch_size: int, max_wait: int, window: int, output: str | None,
        seed: int = 2, smoke: bool = False) -> dict:
    trace = phase_shift_trace(accesses, shift_at=0.5, seed=seed)
    shift = len(trace) // 2
    tail = shift + (len(trace) - shift) // 2  # adaptation must settle by here
    artifact, student = build_artifact(trace, shift, student_samples, table_samples,
                                       epochs)
    dart = DARTPrefetcher(artifact, PREPROCESS, threshold=0.5, max_degree=2,
                          student=student)
    blocks = trace.block_addrs

    def phase_scores(lists) -> dict:
        return {
            "phase_a": score_prefetch_lists(lists[:shift], blocks[:shift], LOOKAHEAD),
            "phase_b_tail": score_prefetch_lists(lists[tail:], blocks[tail:], LOOKAHEAD),
        }

    # Student ceiling: the NN served directly — adaptation can at best
    # restore table fidelity to this.
    from repro.prefetch import NeuralPrefetcher

    student_pf = NeuralPrefetcher(student, PREPROCESS, "student", latency_cycles=0,
                                  threshold=0.5, max_degree=2)
    ceiling = phase_scores(student_pf.prefetch_lists(trace))

    # Frozen baseline: the tables never change.
    frozen_lists = serve_collect(
        dart.stream(batch_size=batch_size, max_wait=max_wait), trace
    )
    frozen = phase_scores(frozen_lists)

    # Adaptive engine: drift monitor + re-fit + hot swap.
    cfg = AdaptationConfig(
        window=window, lookahead=LOOKAHEAD, check_every=128, min_samples=128,
        result_window=512, acc_drop=0.15, feature_window=min(512, window // 2),
        feature_threshold=6.0, refit_samples=table_samples, seed=seed + 3,
    )
    adaptive_stream = dart.stream(batch_size=batch_size, max_wait=max_wait, adapt=cfg)
    adaptive_lists = serve_collect(adaptive_stream, trace)
    adaptive = phase_scores(adaptive_lists)
    summary = adaptive_stream.adaptation_summary()
    engine = adaptive_stream._engine

    acc_a = frozen["phase_a"]["accuracy"]
    acc_b_frozen = frozen["phase_b_tail"]["accuracy"]
    acc_b_adaptive = adaptive["phase_b_tail"]["accuracy"]
    loss = acc_a - acc_b_frozen
    recovered = acc_b_adaptive - acc_b_frozen
    ratio = recovered / loss if loss > 1e-9 else float("inf")
    swap_bounded = engine.last_swap_drained <= batch_size

    record = {
        "workload": "phase-shift",
        "seed": seed,
        "accesses": accesses,
        "shift_at": shift,
        "tail_from": tail,
        "batch_size": batch_size,
        "max_wait": max_wait,
        "adapt_window": window,
        "lookahead": LOOKAHEAD,
        "frozen": frozen,
        "adaptive": adaptive,
        "student_ceiling": ceiling,
        "adaptations": summary["adaptations"],
        "final_version": summary["version"],
        "events": summary["events"],
        "last_swap_drained": engine.last_swap_drained,
        "swap_pause_bounded_by_one_flush": swap_bounded,
        "frozen_loss": loss,
        "recovered": recovered,
        "recovery_ratio": ratio,
    }

    log.table(
        f"adaptive vs frozen serving on a phase shift ({accesses:,} accesses, "
        f"B={batch_size}, window={window})",
        ["engine", "phase A acc", "phase B tail acc", "swaps"],
        [
            ["frozen", f"{acc_a:.3f}", f"{acc_b_frozen:.3f}", "0"],
            ["adaptive", f"{adaptive['phase_a']['accuracy']:.3f}",
             f"{acc_b_adaptive:.3f}", str(summary["adaptations"])],
            ["student (ceiling)", f"{ceiling['phase_a']['accuracy']:.3f}",
             f"{ceiling['phase_b_tail']['accuracy']:.3f}", "-"],
        ],
    )
    for ev in summary["events"]:
        log.info(f"  event: {ev}")

    # Smoke runs are tiny and noisy: only require the adaptive engine to beat
    # the frozen one on the tail. The full run gates the paper-grade bar.
    if smoke:
        ok = (summary["adaptations"] >= 1 and recovered > 0 and swap_bounded)
        bar = "recovered > 0"
    else:
        ok = (summary["adaptations"] >= 1 and loss > 0.05
              and recovered >= 0.5 * loss and swap_bounded)
        bar = ">= half of frozen loss"
    record["pass"] = ok
    verdict = "PASS" if ok else "FAIL"
    print(
        f"[{verdict}] frozen loss {loss:.3f}, recovered {recovered:.3f} "
        f"({ratio:.0%}, bar: {bar}); {summary['adaptations']} swap(s), "
        f"pause {engine.last_swap_drained} queries (<= B={batch_size}: {swap_bounded})"
    )
    if output:
        with open(output, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"wrote {output}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--accesses", type=int, default=24_000)
    ap.add_argument("--train-samples", type=int, default=2400,
                    help="student training samples (whole workload)")
    ap.add_argument("--table-samples", type=int, default=1600,
                    help="table-fit / re-fit samples (one phase)")
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--max-wait", type=int, default=8)
    ap.add_argument("--window", type=int, default=2048)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--output", "-o", default="BENCH_adaptation.json")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI run: short trace, light training")
    args = ap.parse_args(argv)
    if args.smoke:
        # Short trace but a solid training budget: an undertrained student
        # prefetches pure noise and the recovery signal vanishes.
        args.accesses = 12_000
        args.train_samples = 2000
        args.table_samples = 1200
        args.epochs = 4
        args.window = 1024
    record = run(args.accesses, args.train_samples, args.table_samples, args.epochs,
                 args.batch_size, args.max_wait, args.window, args.output,
                 seed=args.seed, smoke=args.smoke)
    return 0 if record["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
