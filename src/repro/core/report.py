"""Campaign report generator: one call → a markdown summary document.

``pytest benchmarks/`` regenerates every table and figure with assertions;
this module is the *reporting* side — it runs the cheap, training-free
portions of the campaign (analytic cost model, configurator tiers, trace
statistics, rule-based shootout) and renders them as a markdown document a
user can diff against EXPERIMENTS.md or attach to a CI run.

Training-bound experiments (Tables VI–VII, Figs. 8–14) are intentionally
excluded: they cost hours at paper scale and live in the benchmark suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.models.config import DART_CONFIG, STUDENT_CONFIG, TEACHER_CONFIG
from repro.prefetch import TableConfigurator
from repro.prefetch.cost_model import (
    nn_ops,
    nn_storage_bits,
    nn_systolic_latency,
    tabular_model_latency,
    tabular_model_ops,
    tabular_model_storage_bits,
)
from repro.sim import SimConfig, ipc_improvement, simulate
from repro.tabularization import TableConfig
from repro.traces import PAPER_TABLE4, make_workload, trace_statistics


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(out)


def section_cost_model() -> str:
    """Table V: teacher / student / DART complexity from the analytic model."""
    table = TableConfig.uniform(128, 2)
    rows = [
        ["Teacher (4,256,8)", f"{nn_systolic_latency(TEACHER_CONFIG):,.0f}",
         f"{nn_storage_bits(TEACHER_CONFIG) / 8 / 1e6:.1f} MB", f"{nn_ops(TEACHER_CONFIG):,.0f}"],
        ["Student (1,32,2)", f"{nn_systolic_latency(STUDENT_CONFIG):,.0f}",
         f"{nn_storage_bits(STUDENT_CONFIG) / 8 / 1e3:.1f} KB", f"{nn_ops(STUDENT_CONFIG):,.0f}"],
        ["DART (1,32,2,K=128,C=2)", f"{tabular_model_latency(DART_CONFIG, table):,.0f}",
         f"{tabular_model_storage_bits(DART_CONFIG, table) / 8 / 1e3:.1f} KB",
         f"{tabular_model_ops(DART_CONFIG, table):,.0f}"],
    ]
    return "## Model complexity (paper Table V)\n\n" + _md_table(
        ["model", "latency (cycles)", "storage", "arith. ops"], rows
    )


def section_configurator() -> str:
    """Table VIII: the three budget tiers plus the Pareto frontier size."""
    cfg = TableConfigurator()
    rows = []
    for name, (tau, s) in (
        ("DART-S", (60, 30_000)),
        ("DART", (100, 1_000_000)),
        ("DART-L", (200, 4_000_000)),
    ):
        c = cfg.configure(tau, s)
        rows.append(
            [name, f"{tau} cyc / {s / 1e3:.0f} KB",
             f"(L={c.model.layers}, D={c.model.dim}, H={c.model.heads}, "
             f"K={c.table.k_input}, C={c.table.c_input})",
             f"{c.latency_cycles:.0f}", f"{c.storage_bytes / 1024:.1f} KB"]
        )
    frontier = cfg.pareto_frontier()
    body = _md_table(["variant", "budget (τ, s)", "configuration", "latency", "storage"], rows)
    return (
        "## Configurator tiers (paper Table VIII)\n\n" + body +
        f"\n\nDesign space: {len(cfg.candidates)} candidates, "
        f"{len(frontier)} on the latency/storage/capacity Pareto frontier."
    )


def section_traces(scale: float, seed: int = 1) -> str:
    """Table IV: per-app synthetic trace statistics vs the paper's."""
    rows = []
    for app, (p_len, p_pages, p_deltas) in PAPER_TABLE4.items():
        s = trace_statistics(make_workload(app, scale=scale, seed=seed))
        rows.append(
            [app, f"{s['n_accesses'] / 1e3:.1f}K / {p_len / 1e3:.1f}K",
             f"{s['n_pages'] / 1e3:.1f}K / {p_pages / 1e3:.1f}K",
             f"{s['n_deltas'] / 1e3:.1f}K / {p_deltas / 1e3:.1f}K"]
        )
    return (
        f"## Trace statistics, ours / paper (Table IV, scale={scale})\n\n"
        + _md_table(["app", "# address", "# page", "# delta"], rows)
    )


@dataclass(frozen=True)
class ShootoutSpec:
    """Which apps and prefetchers the report's shootout section runs."""

    apps: tuple[str, ...] = ("462.libquantum", "602.gcc")
    scale: float = 0.05
    seed: int = 2


def section_shootout(spec: ShootoutSpec | None = None) -> str:
    """Rule-based prefetcher shootout (no training required)."""
    from repro.prefetch import (
        BestOffsetPrefetcher,
        ISBPrefetcher,
        StreamPrefetcher,
    )

    spec = spec or ShootoutSpec()
    cfg = SimConfig()
    roster = [StreamPrefetcher(), BestOffsetPrefetcher(), ISBPrefetcher()]
    rows = []
    for app in spec.apps:
        trace = make_workload(app, scale=spec.scale, seed=spec.seed)
        base = simulate(trace, None, cfg)
        for pf in roster:
            r = simulate(trace, pf, cfg)
            rows.append(
                [app, pf.name, f"{ipc_improvement(r, base):+.1%}",
                 f"{r.accuracy:.1%}", f"{r.coverage(base.demand_misses):.1%}"]
            )
    return (
        f"## Rule-based shootout (scale={spec.scale}, apps={list(spec.apps)})\n\n"
        + _md_table(["app", "prefetcher", "ΔIPC", "accuracy", "coverage"], rows)
    )


def generate_report(
    trace_scale: float = 0.02,
    shootout: ShootoutSpec | None = None,
    output: str | os.PathLike | None = None,
) -> str:
    """Assemble the full markdown report; optionally write it to ``output``."""
    parts = [
        "# DART reproduction — campaign report",
        "",
        "Generated by `repro.core.report` (training-free sections only; run "
        "`pytest benchmarks/ --benchmark-only` for the full campaign).",
        "",
        section_cost_model(),
        "",
        section_configurator(),
        "",
        section_traces(trace_scale),
        "",
        section_shootout(shootout),
        "",
    ]
    doc = "\n".join(parts)
    if output is not None:
        with open(output, "w", encoding="utf-8") as f:
            f.write(doc)
    return doc
