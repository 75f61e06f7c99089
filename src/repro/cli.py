"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror a deployment workflow:

* ``trace``     — generate a synthetic SPEC-like trace and print its Table IV statistics.
* ``train``     — run the Fig. 2 pipeline on a trace and save the table hierarchy.
* ``simulate``  — replay a trace through the LLC simulator: accuracy, coverage, IPC.
* ``stream``    — serve a trace online (``--cores``, ``--workers``, ``--churn``, ``--adapt``).
* ``record``    — capture a sharded serving session (elastic churn scripted in).
* ``replay``    — re-execute a recorded session under the behavioral contracts.
* ``configure`` — query the table configurator for a (latency, storage) budget.
* ``hierarchy`` — full L1D/L2/LLC + banked-DRAM simulation of one trace.
* ``multicore`` — N cores sharing one LLC and DRAM, optionally one shared model.
* ``contend``   — tenants contending for a shared L2, with an optional throttle.
* ``analyze``   — trace statistics plus OPT replacement headroom.
* ``export``    — pack trained tables into a binary blob, or print its provenance.
* ``registry``  — the content-addressed model registry (put/log/checkout/push/pull).
* ``report``    — a training-free markdown campaign report.

Every ``--trace`` takes ``.npz``, ``.csv`` or whitespace text, each optionally
gzipped. Every subcommand is importable and unit-tested via :func:`main(argv)`.
"""

from __future__ import annotations

import argparse
import sys

from repro.utils import log


def _load_trace(args):
    """The ``--trace`` file (any format ``load_any`` reads), else ``--workload``."""
    from repro.traces import load_any, make_workload

    if args.trace:
        return load_any(args.trace)
    return make_workload(args.workload, scale=args.scale, seed=args.seed)


def _tenant_traces(args) -> list:
    """One synthetic trace per positional workload, seeded ``--seed + i``."""
    from repro.traces import make_workload

    return [
        make_workload(w, scale=args.scale, seed=args.seed + i)
        for i, w in enumerate(args.workloads)
    ]


def _split(trace, n: int) -> list:
    """``n`` contiguous, near-equal shards of ``trace``."""
    bounds = [round(i * len(trace) / n) for i in range(n + 1)]
    return [trace.slice(bounds[i], bounds[i + 1]) for i in range(n)]


def _write_json(path: str, obj, what: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=str)
    print(f"wrote {what} to {path}")


def _require_positive(args, *names: str) -> None:
    """Refuse any of the named options below 1 (``None`` means unset)."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise SystemExit(f"--{name.replace('_', '-')} must be >= 1")


def _cmd_trace(args) -> int:
    from repro.traces import make_workload, trace_statistics

    trace = make_workload(args.workload, scale=args.scale, seed=args.seed)
    stats = trace_statistics(trace)
    log.table(
        f"trace statistics for {args.workload}",
        ["metric", "value"],
        [[k, v] for k, v in stats.items() if k != "name"],
    )
    if args.output:
        trace.save(args.output)
        print(f"saved {len(trace):,} accesses to {args.output}")
    return 0


def _cmd_train(args) -> int:
    from repro.core import DARTPipeline
    from repro.data import PreprocessConfig
    from repro.distillation import TrainConfig
    from repro.models import ModelConfig, save_attention_predictor
    from repro.runtime import ModelArtifact

    trace = _load_trace(args)
    log.set_verbose(True)
    pipeline = DARTPipeline(
        preprocess=PreprocessConfig(),
        teacher_config=ModelConfig(
            layers=args.teacher_layers,
            dim=args.teacher_dim,
            heads=args.teacher_heads,
            history_len=16,
            bitmap_size=256,
        ),
        latency_budget=args.latency_budget,
        storage_budget=args.storage_budget,
        teacher_train=TrainConfig(epochs=args.epochs, seed=args.seed),
        student_train=TrainConfig(epochs=args.epochs, lr=2e-3, seed=args.seed + 1),
        max_samples=args.max_samples,
        seed=args.seed,
    )
    result = pipeline.run(trace)
    log.table(
        "pipeline result",
        ["stage", "F1"],
        [[k, f"{v:.4f}"] for k, v in result.f1.items()],
    )
    print(f"DART: {result.dart.latency_cycles} cycles, "
          f"{result.dart.storage_bytes / 1024:.1f} KB")
    if args.output:
        # Ship a versioned artifact: the blob records where it came from, so
        # `repro export --info` / `_make_prefetcher` can trace deployed
        # tables back to this training run.
        artifact = ModelArtifact(
            result.tabular,
            version=1,
            metadata={
                "trained_on": args.trace or args.workload,
                "seed": args.seed,
                "epochs": args.epochs,
                "max_samples": args.max_samples,
                "f1": {k: round(float(v), 4) for k, v in result.f1.items()},
            },
        )
        artifact.save(args.output)
        print(f"saved table hierarchy to {args.output} (artifact v{artifact.version})")
    if args.save_student:
        save_attention_predictor(result.student, args.save_student)
        print(f"saved distilled student to {args.save_student} "
              "(enables `stream --adapt --student ...`)")
    return 0


#: prefetcher names accepted by ``simulate``/``hierarchy``/``multicore``
PREFETCHER_CHOICES = [
    "none",
    "bo",
    "isb",
    "stride",
    "nextline",
    "streamer",
    "dart",
]


def _make_prefetcher(name: str, tables: str | None, student: str | None = None):
    from repro.data import PreprocessConfig
    from repro.prefetch import (
        BestOffsetPrefetcher,
        DARTPrefetcher,
        ISBPrefetcher,
        NextLinePrefetcher,
        StreamPrefetcher,
        StridePrefetcher,
    )

    if name == "none":
        return None
    if name == "bo":
        return BestOffsetPrefetcher()
    if name == "isb":
        return ISBPrefetcher()
    if name == "stride":
        return StridePrefetcher()
    if name == "nextline":
        return NextLinePrefetcher(degree=2)
    if name == "streamer":
        return StreamPrefetcher()
    if name == "dart":
        if not tables:
            raise SystemExit("--tables <file.npz> is required for the dart prefetcher")
        from repro.runtime import ModelArtifact

        artifact = ModelArtifact.load(tables)
        info = artifact.describe()
        log.info(
            f"loaded tables v{info['version']} (config {info['config_hash']}, "
            f"{info['model']}) from {tables}"
        )
        for key, value in info.items():
            if key.startswith("meta."):
                log.info(f"  {key[5:]}: {value}")
        student_model = None
        if student:
            from repro.models import load_attention_predictor

            student_model = load_attention_predictor(student)
        # Serving geometry comes from the artifact itself (history length and
        # bitmap width are properties of the trained tables, not CLI
        # defaults); segment-bit knobs keep the repo defaults.
        mc = artifact.model_config
        config = PreprocessConfig(
            history_len=mc.history_len, delta_range=mc.bitmap_size // 2
        )
        return DARTPrefetcher(artifact, config, student=student_model)
    raise SystemExit(f"unknown prefetcher {name!r}")


def _require_model(pf, needs: str, attr: str = "sharded"):
    """``pf``, refused unless it is model-backed (has ``attr``)."""
    if not hasattr(pf, attr):
        raise SystemExit(f"{needs} needs a model-backed prefetcher (--prefetcher dart)")
    return pf


def _cmd_simulate(args) -> int:
    from repro.sim import SimConfig, ipc_improvement, simulate

    trace = _load_trace(args)
    cfg = SimConfig()
    base = simulate(trace, None, cfg, name="baseline")
    pf = _make_prefetcher(args.prefetcher, args.tables)
    rows = [["baseline", "-", f"{base.ipc:.3f}", "-", "-", f"{base.hit_rate:.2%}"]]
    if pf is not None:
        r = simulate(trace, pf, cfg)
        rows.append(
            [
                pf.name,
                str(pf.latency_cycles),
                f"{r.ipc:.3f} ({ipc_improvement(r, base):+.1%})",
                f"{r.accuracy:.2%}",
                f"{r.coverage(base.demand_misses):.2%}",
                f"{r.hit_rate:.2%}",
            ]
        )
    log.table(
        f"simulation of {trace.name or args.trace or args.workload} "
        f"({len(trace):,} accesses)",
        ["run", "pred latency", "IPC", "accuracy", "coverage", "hit rate"],
        rows,
    )
    return 0


def _stream_many(args, pf) -> int:
    """``stream --cores N`` / ``--workers W``: N interleaved trace shards.

    Served by per-stream engines, one shared model engine (``--share-model``)
    or W worker processes mapping the tables zero-copy from shared memory
    (``--workers``, one stream per worker unless ``--cores`` is given; see
    DESIGN.md "Sharded serving"). Sharding needs random access, so this
    materializes the trace (``--chunk-size`` does not apply).
    """
    from repro.runtime import as_streaming, serve_interleaved

    workers = args.workers
    n = args.cores if args.cores > 1 else workers
    shards = _split(_load_trace(args), n)
    trace_label = args.trace or args.workload
    knobs = {"batch_size": args.batch_size, "max_wait": args.max_wait}

    if workers > 1:
        with pf.sharded(workers=workers, **knobs) as engine:
            agg, per_stream, lists = engine.serve(shards, collect=args.compare_batch)
            stats = engine.stats()
        shm_kb = (stats["shm_bytes"] or 0) / 1024
        title = (
            f"across {workers} worker processes (B={args.batch_size}, "
            f"{stats['predict_calls']} predict calls, {shm_kb:.0f} KB shared tables)"
        )
        extra = {"workers": workers, "engine": stats}
        fleet = f" / {workers} workers"
    else:
        if args.share_model:
            engine = pf.multistream(**knobs)
            streams = engine.streams(n)
        else:
            # Every stream gets private state over the one loaded prefetcher:
            # a model engine its micro-batching state (no N reloads of the
            # tables file), a rule-based adapter its own ``reset_state()``.
            streams = [as_streaming(pf, **knobs) for _ in range(n)]
            for i, stream in enumerate(streams):  # named like engine handles
                stream.name = f"{pf.name}[{i}]"
        agg, per_stream, lists = serve_interleaved(
            streams, shards, collect=args.compare_batch
        )
        predict_calls = (
            engine.predict_calls
            if args.share_model
            else sum(getattr(s, "predict_calls", 0) for s in streams)
        )
        mode = "shared model" if args.share_model else "per-stream engines"
        title = f"({mode}, B={args.batch_size}, {predict_calls} predict calls)"
        extra = {"share_model": bool(args.share_model), "predict_calls": predict_calls}
        if args.share_model:
            extra["engine"] = engine.stats()
        fleet = ""

    def _row(name, s):
        return [name, f"{s.accesses:,}", f"{s.prefetches:,}",
                f"{s.p50_us:.1f}", f"{s.p99_us:.1f}", f"{s.max_us:.1f}"]

    rows = [_row(s.name, s) for s in per_stream] + [_row("aggregate", agg)]
    record = {
        "prefetcher": pf.name,
        "trace": trace_label,
        "cores": n,
        "batch_size": args.batch_size,
        "max_wait": args.max_wait,
        "aggregate": agg.to_dict(),
        "per_stream": [s.to_dict() for s in per_stream],
        **extra,
    }
    identical = None
    if args.compare_batch:
        # Each shard must match its solo batch run (``prefetch_lists`` starts
        # from fresh predictor state, so the one prefetcher serves them all).
        identical = all(got == pf.prefetch_lists(s) for got, s in zip(lists, shards))
        rows.append(["bit-identical to solo batch", str(identical), "", "", "", ""])
        record["identical_to_batch"] = identical
    log.table(
        f"{n}-stream serving of {trace_label} {title}",
        ["stream", "accesses", "prefetches", "p50 us", "p99 us", "max us"],
        rows,
    )
    print(f"throughput: {agg.throughput:,.0f} accesses/s across {n} streams{fleet}")
    if args.json:
        _write_json(args.json, record, "serving stats")
    return 1 if identical is False else 0


def _churn(pf, engine, shards, late, reason: str):
    """Serve ``shards`` through the started sharded ``engine``, then close all.

    With L the shortest shard: rescale to W+1 at L/4, admit ``late`` at L/3,
    migrate stream 0 at L/2, hot-swap at 5L/8 and rescale back at 3L/4
    (``late=None``: no scripted op). Returns ``(sources, events, emissions)``,
    ``emissions[k]`` mapping stream k's access seq to its prefetched blocks.
    """
    n = len(shards)
    length = min(len(s) for s in shards)
    boot = engine.workers
    artifact = getattr(pf, "artifact", None)
    handles = [engine.open_stream(f"tenant[{i}]") for i in range(n)]
    sources = list(shards)
    events: list[dict] = []
    emissions: list[dict] = [{} for _ in range(n + 1)]
    marks = {} if late is None else {
        length // 4: ("rescale", lambda: engine.rescale(boot + 1)),
        length // 2: ("migrate", lambda: engine.migrate_stream(
            handles[0], (handles[0].shard_id + 1) % engine.workers)),
        5 * length // 8: ("swap", lambda: engine.swap_model(
            artifact.successor(artifact.model, reason=reason))
            if artifact is not None else None),
        3 * length // 4: ("rescale", lambda: engine.rescale(boot)),
    }
    for i in range(length):
        if late is not None and i == length // 3:  # a tenant arrives mid-serve
            handles.append(engine.open_stream("tenant[late]"))
            sources.append(late)
            events.append({"at": i, "op": "open", "info": {
                "stream": handles[-1].index, "worker": handles[-1].shard_id}})
        if i in marks:
            op, fn = marks[i]
            events.append({"at": i, "op": op, "info": fn()})
        for k, (h, src) in enumerate(zip(handles, sources)):
            j = i if k < n else i - length // 3
            if 0 <= j < len(src):
                for em in h.ingest(int(src.pcs[j]), int(src.addrs[j])):
                    emissions[k][em.seq] = list(em.blocks)
    for k, h in enumerate(handles):
        for em in engine.close_stream(h):
            emissions[k][em.seq] = list(em.blocks)
    return sources, events, emissions


def _stream_churn(args, pf) -> int:
    """``stream --workers W --churn``: the elastic serving scenario.

    Serves N trace shards through a sharded fleet under the scripted elastic
    lifecycle of :func:`_churn` — grow the fleet, live-migrate a stream,
    hot-swap the model (version bump), shrink back, admit a late tenant,
    close everything — and gates the run on bit-identity against the batch
    path. This is the CLI face of ``tests/test_elastic.py``.
    """
    import json

    n = args.cores if args.cores > 1 else args.workers  # --churn needs W >= 2
    *shards, late = _split(_load_trace(args), n + 1)
    trace_label = args.trace or args.workload
    with pf.sharded(
        workers=args.workers, batch_size=args.batch_size, max_wait=args.max_wait,
    ) as engine:
        sources, events, emissions = _churn(pf, engine, shards, late, "churn rotate")
        stats = engine.stats()
    rows = [[str(e["at"]), e["op"],
             json.dumps(e["info"], default=str) if e["info"] else "-"]
            for e in events]
    log.table(
        f"elastic churn over {trace_label} (W={args.workers}, "
        f"B={args.batch_size}, {n}+1 tenants)",
        ["access #", "op", "detail"],
        rows,
    )
    el = stats["elastic"]
    print(
        f"lifecycle: {el['opened']} opened / {el['closed']} closed, "
        f"{el['migrations']} migrations, {el['rescales']} rescales, "
        f"{stats['swaps']} swaps (model v{stats['model_version']})"
    )
    identical = None
    if args.compare_batch:
        identical = all(
            [got.get(s) for s in range(len(got))]
            == pf.prefetch_lists(src.slice(0, len(got)))
            for src, got in zip(sources, emissions)
        )
        print(f"bit-identical to batch under churn: {identical}")
    if args.json:
        record = {
            "prefetcher": pf.name, "trace": trace_label, "workers": args.workers,
            "batch_size": args.batch_size, "events": events, "engine": stats,
            "identical_to_batch": identical,
        }
        _write_json(args.json, record, "churn stats")
    return 0 if identical in (None, True) else 1


def _cmd_record(args) -> int:
    """``repro record``: capture a live serving session into a replayable trace.

    Serves N trace shards through a sharded fleet under a
    :class:`~repro.runtime.record.SessionRecorder` — by default with the full
    elastic churn of :func:`_churn` scripted in (rescale, live migration, hot
    swap, late admission) — and writes the sealed ``DARTTRC1`` trace.
    ``repro replay`` re-executes it under the behavioral contracts.
    """
    from repro.runtime import SessionRecorder

    _require_positive(args, "streams", "workers", "batch_size")
    pf = _require_model(_make_prefetcher(args.prefetcher, args.tables), "record")
    *shards, late = _split(_load_trace(args), args.streams + 1)

    recorder = SessionRecorder()
    engine = pf.sharded(workers=args.workers, batch_size=args.batch_size)
    recorder.attach(engine, model=getattr(pf, "artifact", None))
    with engine:
        _churn(pf, engine, shards, late if args.churn else None, "recorded churn")
    session = recorder.trace()
    nbytes = session.save(args.output)
    s = session.summary()
    meta = session.meta
    print(
        f"recorded {meta['engine']['column']} session: {len(session.stream_names)} "
        f"streams, {s['accesses']} accesses, {s['emissions']} emissions, "
        f"{len(meta['swaps'])} swaps, {len(session.models)} embedded model(s)"
    )
    print(f"wrote {args.output} ({nbytes:,} bytes)")
    return 0


def _cmd_replay(args) -> int:
    """``repro replay``: re-execute a recorded session under the contracts.

    Exits nonzero with the named contract on the first violation — the CI
    face of the golden-trace gate.
    """
    from repro.runtime import ContractViolation, SessionTrace
    from repro.runtime.replay import replay

    session = SessionTrace.load(args.trace)
    model = None
    if args.tables:
        from repro.runtime import ModelArtifact

        model = ModelArtifact.load(args.tables)
    try:
        report = replay(session, column=args.column, model=model)
    except ContractViolation as exc:
        print(f"REPLAY FAIL [{exc.contract}]: {exc}")
        return 1
    log.table(
        f"replayed {args.trace} on the {report.column} column",
        ["metric", "value"],
        [[k, f"{v:.4g}" if isinstance(v, float) else str(v)]
         for k, v in report.to_dict().items() if k != "contracts"],
    )
    print(f"contracts held: {', '.join(report.contracts)}")
    if args.json:
        _write_json(args.json, report.to_dict(), "replay report")
    return 0


def _cmd_stream(args) -> int:
    import time

    from repro.runtime import as_streaming, serve
    from repro.traces import iter_chunks

    _require_positive(args, "batch_size", "max_wait", "chunk_size", "cores", "workers")
    if args.adapt and args.cores > 1:
        raise SystemExit("--adapt currently serves a single stream (drop --cores)")
    if args.churn and args.workers < 2:
        raise SystemExit("--churn drives the elastic sharded fleet (add --workers W, W >= 2)")
    if args.workers > 1:
        if args.adapt:
            raise SystemExit("--adapt currently serves a single process (drop --workers)")
        if args.share_model:
            raise SystemExit(
                "--workers already shares the tables across all streams "
                "(drop --share-model)"
            )
    elif args.cores == 1:
        if args.share_model:
            raise SystemExit("--share-model only makes sense with --cores N (N > 1)")
        if args.adapt and args.prefetcher != "dart":
            raise SystemExit("--adapt needs re-fittable tables (--prefetcher dart)")
        if args.adapt and args.compare_batch:
            raise SystemExit(
                "--adapt changes the served model mid-stream; the batch path "
                "cannot match it (drop --compare-batch)"
            )
    pf = _make_prefetcher(args.prefetcher, args.tables, args.student)
    if args.workers > 1:
        _require_model(pf, "--churn" if args.churn else "--workers")
    if args.share_model:
        _require_model(pf, "--share-model", "multistream")
    if pf is None:
        raise SystemExit("stream requires a prefetcher (try --prefetcher bo)")
    if args.churn:
        return _stream_churn(args, pf)
    if args.workers > 1 or args.cores > 1:
        return _stream_many(args, pf)
    if args.trace:
        # Chunked ingestion: the single stream never holds the whole file.
        source = iter_chunks(args.trace, chunk_size=args.chunk_size)
    else:
        source = _load_trace(args)
    trace_label = args.trace or args.workload
    stream_kwargs = {"batch_size": args.batch_size, "max_wait": args.max_wait}
    if args.adapt:
        if getattr(pf, "student", None) is None:
            raise SystemExit(
                "--adapt re-tabularizes the distilled student on drift: pass "
                "--student <file.npz> (saved by `repro train --save-student`)"
            )
        if args.adapt_window < 128:
            raise SystemExit("--adapt-window must be >= 128 accesses")
        from repro.runtime import AdaptationConfig

        # Scale the feature window with the corpus so small windows work.
        stream_kwargs["adapt"] = AdaptationConfig(
            window=args.adapt_window,
            feature_window=min(1024, args.adapt_window // 2),
        )
    stream = as_streaming(pf, **stream_kwargs)
    # Rule-based streams answer synchronously and ignore the batching knobs;
    # only report B for engines that actually micro-batch.
    effective_b = getattr(stream, "batch_size", None)
    stats, lists = serve(stream, source, collect=args.compare_batch)

    rows = [
        ["accesses", f"{stats.accesses:,}"],
        ["prefetches emitted", f"{stats.prefetches:,}"],
        ["wall time", f"{stats.seconds:.3f} s"],
        ["throughput", f"{stats.throughput:,.0f} accesses/s"],
        ["latency p50", f"{stats.p50_us:.1f} us"],
        ["latency p99", f"{stats.p99_us:.1f} us"],
        ["latency mean", f"{stats.mean_us:.1f} us"],
    ]
    record = stats.to_dict()
    record["prefetcher"] = pf.name
    record["trace"] = trace_label
    record["batch_size"] = effective_b
    fast_flushes = getattr(stream, "fast_path_flushes", None)
    if fast_flushes:
        # B=1 serving dispatches whole flushes through the single-query fast
        # path; surface how many so the latency numbers are attributable.
        rows.append(["fast-path flushes", f"{fast_flushes:,}"])
        record["fast_path_flushes"] = fast_flushes
    if args.adapt:
        summary = stream.adaptation_summary()
        record["adaptation"] = summary
        rows.append(["adaptations", str(summary["adaptations"])])
        rows.append(["model version", str(summary["version"])])
        mon = summary["monitor"]
        rows.append(["window accuracy", f"{mon['accuracy']:.2%}"])
        rows.append(["window coverage", f"{mon['coverage']:.2%}"])
        for ev in summary["events"]:
            if ev.get("outcome") == "swapped":
                rows.append([
                    f"swap @ {ev['seq']}",
                    f"v{ev['version']} ({ev['reason']}, drained {ev['drained']})",
                ])
    if args.compare_batch:
        # Batch reference needs the materialized trace; rebuild the source.
        trace = _load_trace(args) if args.trace else source
        t0 = time.perf_counter()
        batch_lists = pf.prefetch_lists(trace)
        batch_seconds = time.perf_counter() - t0
        identical = batch_lists == lists
        rows.append(["batch path", f"{batch_seconds:.3f} s "
                     f"({len(trace) / batch_seconds:,.0f} accesses/s)"])
        rows.append(["bit-identical to batch", str(identical)])
        record["batch_seconds"] = batch_seconds
        record["batch_throughput"] = len(trace) / batch_seconds
        record["identical_to_batch"] = identical
    batch_note = f" (B={effective_b})" if effective_b is not None else " (synchronous)"
    log.table(
        f"streaming {pf.name} over {trace_label}{batch_note}",
        ["metric", "value"],
        rows,
    )
    if args.json:
        _write_json(args.json, record, "serving stats")
    if args.compare_batch and not record["identical_to_batch"]:
        return 1
    return 0


def _cmd_configure(args) -> int:
    from repro.prefetch import configure_dart

    c = configure_dart(args.latency_budget, args.storage_budget)
    print(f"best configuration under (tau={args.latency_budget} cycles, "
          f"s={args.storage_budget} bytes):")
    print(f"  {c.summary()}")
    return 0


def _cmd_hierarchy(args) -> int:
    from repro.sim import HierarchyConfig, ipc_improvement, simulate_hierarchy

    trace = _load_trace(args)
    cfg = HierarchyConfig(paging=not args.no_paging, tlb=args.tlb)
    base = simulate_hierarchy(trace, None, cfg, name="baseline")

    def _row(name, r, gain):
        return [name, f"{r.sim.ipc:.3f}", gain,
                f"{r.l1d.hit_rate:.2%}", f"{r.l2.hit_rate:.2%}",
                f"{r.llc.hit_rate:.2%}", f"{r.dram['row_hit_rate']:.2%}"]

    rows = [_row("baseline", base, "-")]
    pf = _make_prefetcher(args.prefetcher, args.tables)
    if pf is not None:
        r = simulate_hierarchy(trace, pf, cfg)
        rows.append(_row(pf.name, r, f"{ipc_improvement(r.sim, base.sim):+.1%}"))
    log.table(
        f"hierarchy simulation of {trace.name or 'trace'} ({len(trace):,} accesses)",
        ["run", "IPC", "ΔIPC", "L1D hit", "L2 hit", "LLC hit", "DRAM row hit"],
        rows,
    )
    return 0


def _cmd_multicore(args) -> int:
    from repro.sim import HierarchyConfig
    from repro.sim.multicore import simulate_multicore

    traces = _tenant_traces(args)
    cfg = HierarchyConfig()
    if args.share_model:
        shared = _require_model(
            _make_prefetcher(args.prefetcher, args.tables), "--share-model", "multistream"
        )
        r = simulate_multicore(traces, config=cfg, shared_prefetcher=shared)
    else:
        pf = [_make_prefetcher(args.prefetcher, args.tables) for _ in traces]
        r = simulate_multicore(traces, prefetchers=pf, config=cfg)
    rows = [
        [c.name, f"{c.ipc:.3f}", f"{c.accuracy:.2%}", str(c.prefetches_issued)]
        for c in r.cores
    ]
    rows.append(["aggregate", f"{r.aggregate_ipc:.3f}", "-", "-"])
    title = f"{len(traces)}-core simulation (shared LLC + DRAM)"
    if r.predictor:
        title += (
            f" — shared {r.predictor['name']}: 1 model copy, "
            f"{r.predictor['predict_calls']} predict calls"
        )
    log.table(title, ["core", "IPC", "pf accuracy", "pf issued"], rows)
    return 0


def _cmd_contend(args) -> int:
    from repro.runtime import AdmissionController, ThrottleConfig, as_streaming
    from repro.sim import ContentionConfig, PoisonedStream, simulate_contention

    traces = _tenant_traces(args)
    cfg = ContentionConfig(
        slots_per_cycle=args.slots,
        prefetch_level=args.prefetch_level,
    )

    streams = []
    for _ in traces:
        pf = _make_prefetcher(args.prefetcher, args.tables)
        streams.append(None if pf is None else as_streaming(pf))
    for idx in args.poison or []:
        if not 0 <= idx < len(streams) or streams[idx] is None:
            raise SystemExit(f"--poison {idx}: no such prefetching tenant")
        streams[idx] = PoisonedStream(streams[idx], degree=args.poison_degree)
    controller = None
    if args.throttle:
        controller = AdmissionController(
            ThrottleConfig(
                floor=args.floor, recover=args.recover, lookahead=args.lookahead
            )
        )
        streams = [
            controller.wrap(s, f"tenant{i}") if s is not None else None
            for i, s in enumerate(streams)
        ]

    res = simulate_contention(traces, streams, cfg)
    rows = []
    for i, (w, t) in enumerate(zip(args.workloads, res.tenants)):
        state = controller.state(f"tenant{i}") if controller and streams[i] else "-"
        poisoned = "*" if args.poison and i in args.poison else ""
        rows.append([
            f"{i}: {w}{poisoned}", f"{t.sim.ipc:.3f}",
            f"{t.l1.hit_rate:.2%}", f"{t.l2.hit_rate:.2%}",
            str(t.sim.prefetches_issued), str(res.inflicted(i)),
            str(res.suffered(i)), state,
        ])
    rows.append([
        "aggregate", f"{res.aggregate_ipc:.3f}", "-",
        f"{res.l2.hit_rate:.2%}", "-", "-", "-", "-",
    ])
    title = (
        f"{len(traces)}-tenant contention world (shared {cfg.l2.policy.upper()} L2, "
        f"{args.slots} slot/cycle, prefetch->{args.prefetch_level}"
        + (", throttled" if args.throttle else "") + ")"
    )
    log.table(
        title,
        ["tenant", "IPC", "L1 hit", "L2 demand hit", "pf issued",
         "pollution inflicted", "suffered", "throttle"],
        rows,
    )
    if args.json:
        _write_json(args.json, res.summary(), "contention summary")
    return 0


def _cmd_analyze(args) -> int:
    from repro.sim import SimConfig, opt_miss_rate, replacement_headroom, simulate
    from repro.traces import trace_statistics

    trace = _load_trace(args)
    stats = trace_statistics(trace)
    cfg = SimConfig()
    base = simulate(trace, None, cfg)
    opt = opt_miss_rate(trace, cfg.llc_capacity_bytes, cfg.llc_ways)
    head = replacement_headroom(trace, base.demand_misses, cfg.llc_capacity_bytes, cfg.llc_ways)
    log.table(
        f"analysis of {trace.name or 'trace'}",
        ["metric", "value"],
        [[k, v] for k, v in stats.items() if k != "name"]
        + [
            ["LRU miss rate", f"{base.demand_misses / max(len(trace), 1):.2%}"],
            ["OPT miss rate", f"{opt:.2%}"],
            ["replacement headroom", f"{head['headroom']:.2%}"],
        ],
    )
    return 0


def _cmd_export(args) -> int:
    from repro.runtime import ModelArtifact
    from repro.tabularization import export_packed, packed_info

    if args.info:
        # Provenance report for either container: the packed .bin (header
        # only — no table materialization) or the tables .npz (full load).
        try:
            info = packed_info(args.tables)
            attrs = info.pop("attrs", {})
            artifact = attrs.pop("artifact", None)
            rows = [[k, str(v)] for k, v in sorted({**info, **attrs}.items())]
            if artifact:
                rows.append(["artifact version", str(artifact.get("version"))])
                for k, v in sorted(artifact.get("metadata", {}).items()):
                    rows.append([f"meta.{k}", str(v)])
        except ValueError:
            artifact = ModelArtifact.load(args.tables)
            rows = [[k, str(v)] for k, v in artifact.describe().items()]
        log.table(f"artifact info for {args.tables}", ["field", "value"], rows)
        return 0
    if not args.output:
        raise SystemExit("export needs an output path (or --info to inspect)")
    artifact = ModelArtifact.load(args.tables)
    nbytes = export_packed(artifact, args.output, float_dtype=args.float_dtype)
    print(f"exported {args.tables} (v{artifact.version}) -> {args.output} "
          f"({nbytes:,} bytes, {args.float_dtype})")
    return 0


def _cmd_registry(args) -> int:
    from repro.registry import FilesystemRemote, ModelRegistry
    from repro.runtime import ModelArtifact

    remote = (
        FilesystemRemote(args.remote) if getattr(args, "remote", None) else None
    )
    reg = ModelRegistry(args.root, remote=remote)
    if args.verb == "put":
        artifact = ModelArtifact.load(args.tables)
        digest = reg.put(artifact, parent=args.parent, name=args.name)
        m = reg.manifest(digest)
        tail = f" -> ref {args.name}" if args.name else ""
        print(f"{digest}  artifact v{m['artifact_version']} stored as "
              f"{m['kind']} ({m['payload_bytes']:,} payload bytes){tail}")
    elif args.verb == "log":
        rows = [
            [m["digest"][:12], str(m["artifact_version"]), m["kind"],
             f"{m['payload_bytes']:,}", (m["parent"] or "")[:12]]
            for m in reg.log(args.ref)
        ]
        log.table(
            f"lineage of {args.ref} (newest first)",
            ["version", "artifact", "kind", "payload bytes", "parent"],
            rows,
        )
    elif args.verb == "checkout":
        artifact = reg.checkout(args.ref, args.output)
        print(f"checked out {args.ref} (artifact v{artifact.version}) "
              f"-> {args.output}")
    elif args.verb == "push":
        r = reg.push(args.ref)
        print(f"pushed {r['head'][:12]}… to {args.remote}: "
              f"{r['pushed']} objects uploaded, {r['skipped']} already there")
    elif args.verb == "pull":
        r = reg.pull(args.ref)
        print(f"pulled {r['head'][:12]}… from {args.remote}: "
              f"{r['pulled']} objects fetched, {r['skipped']} already cached")
    return 0


def _cmd_report(args) -> int:
    from repro.core.report import ShootoutSpec, generate_report

    doc = generate_report(
        trace_scale=args.scale,
        shootout=ShootoutSpec(apps=tuple(args.apps), scale=args.scale),
        output=args.output,
    )
    if args.output:
        print(f"wrote campaign report to {args.output} ({len(doc):,} chars)")
    else:
        print(doc)
    return 0


def _add_trace_args(p, scale: float, seed: int) -> None:
    """``--workload/--trace/--scale/--seed``: the trace a subcommand runs on."""
    p.add_argument("--workload", default="462.libquantum")
    p.add_argument("--trace", default=None, help="trace file (.npz/.csv/.txt[.gz])")
    p.add_argument("--scale", type=float, default=scale)
    p.add_argument("--seed", type=int, default=seed)


def _add_prefetcher_args(
    p, default: str, tables_help: str | None = "tables .npz for --prefetcher dart"
) -> None:
    p.add_argument("--prefetcher", choices=PREFETCHER_CHOICES, default=default)
    p.add_argument("--tables", default=None, help=tables_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DART reproduction command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="generate a synthetic workload trace")
    p_trace.add_argument("workload", help="e.g. 462.libquantum")
    p_trace.add_argument("--scale", type=float, default=1.0)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--output", "-o", default=None, help="write trace .npz here")
    p_trace.set_defaults(func=_cmd_trace)

    p_train = sub.add_parser("train", help="run the DART pipeline, save tables")
    _add_trace_args(p_train, scale=0.05, seed=0)
    p_train.add_argument("--epochs", type=int, default=3)
    p_train.add_argument("--max-samples", type=int, default=3000)
    p_train.add_argument("--teacher-layers", type=int, default=2)
    p_train.add_argument("--teacher-dim", type=int, default=64)
    p_train.add_argument("--teacher-heads", type=int, default=4)
    p_train.add_argument("--latency-budget", type=float, default=100.0)
    p_train.add_argument("--storage-budget", type=float, default=1_000_000.0)
    p_train.add_argument("--output", "-o", default=None, help="write tables .npz here")
    p_train.add_argument("--save-student", default=None,
                         help="also save the distilled student NN .npz "
                              "(required later for `stream --adapt`)")
    p_train.set_defaults(func=_cmd_train)

    p_sim = sub.add_parser("simulate", help="simulate a prefetcher on a trace")
    _add_trace_args(p_sim, scale=0.1, seed=2)
    _add_prefetcher_args(p_sim, "bo")
    p_sim.set_defaults(func=_cmd_simulate)

    p_str = sub.add_parser("stream", help="serve a trace through the online runtime")
    _add_trace_args(p_str, scale=0.1, seed=2)
    _add_prefetcher_args(p_str, "bo")
    p_str.add_argument("--batch-size", type=int, default=64, help="micro-batch size B")
    p_str.add_argument("--max-wait", type=int, default=None,
                       help="flush when the oldest query waited this many accesses")
    p_str.add_argument("--chunk-size", type=int, default=65536,
                       help="trace-file ingestion chunk (accesses)")
    p_str.add_argument("--cores", type=int, default=1,
                       help="serve N interleaved trace shards (concurrent "
                            "streams; materializes the trace to shard it)")
    p_str.add_argument("--share-model", action="store_true",
                       help="one shared model engine for all streams "
                            "(cross-stream micro-batching; model-backed only)")
    p_str.add_argument("--workers", type=int, default=1,
                       help="serve the streams across W OS worker processes, "
                            "tables mapped zero-copy from shared memory "
                            "(model-backed only; default streams = workers "
                            "unless --cores is given)")
    p_str.add_argument("--churn", action="store_true",
                       help="with --workers W: run the elastic scenario "
                            "(mid-serve open/close, live migration, rescale, "
                            "hot swap) instead of a fixed-fleet serve")
    p_str.add_argument("--compare-batch", action="store_true",
                       help="also run prefetch_lists and check bit-identity")
    p_str.add_argument("--adapt", action="store_true",
                       help="drift-aware serving: monitor the stream, re-fit "
                            "the tables on drift, hot-swap (needs --student)")
    p_str.add_argument("--adapt-window", type=int, default=4096,
                       help="accesses retained as the re-fitting window")
    p_str.add_argument("--student", default=None,
                       help="distilled student .npz (from `train --save-student`)")
    p_str.add_argument("--json", default=None, help="write serving stats JSON here")
    p_str.set_defaults(func=_cmd_stream)

    p_rec = sub.add_parser(
        "record", help="capture a live serving session into a replayable trace"
    )
    _add_trace_args(p_rec, scale=0.05, seed=2)
    _add_prefetcher_args(p_rec, "dart")
    p_rec.add_argument("--workers", type=int, default=2)
    p_rec.add_argument("--streams", type=int, default=2,
                       help="trace shards served as concurrent streams")
    p_rec.add_argument("--batch-size", type=int, default=32)
    p_rec.add_argument("--no-churn", dest="churn", action="store_false",
                       help="skip the scripted elastic churn (migrate / "
                            "rescale / hot swap / late admission)")
    p_rec.add_argument("--output", "-o", required=True,
                       help="DARTTRC1 session trace destination")
    p_rec.set_defaults(func=_cmd_record)

    p_rpl = sub.add_parser(
        "replay",
        help="re-execute a recorded session under the behavioral contracts",
    )
    p_rpl.add_argument("trace", help="DARTTRC1 session trace (from `repro record`)")
    p_rpl.add_argument("--column", default=None,
                       help="replay engine column (default: the recorded one; "
                            "multistream or sharded)")
    p_rpl.add_argument("--tables", default=None,
                       help="boot-model .npz override (defaults to the model "
                            "embedded in the trace)")
    p_rpl.add_argument("--json", default=None, help="write the replay report here")
    p_rpl.set_defaults(func=_cmd_replay)

    p_cfg = sub.add_parser("configure", help="query the table configurator")
    p_cfg.add_argument("latency_budget", type=float)
    p_cfg.add_argument("storage_budget", type=float)
    p_cfg.set_defaults(func=_cmd_configure)

    p_hier = sub.add_parser(
        "hierarchy", help="full L1D/L2/LLC + banked-DRAM simulation"
    )
    _add_trace_args(p_hier, scale=0.1, seed=2)
    _add_prefetcher_args(p_hier, "bo", tables_help=None)
    p_hier.add_argument("--no-paging", action="store_true", help="skip virtual->physical")
    p_hier.add_argument("--tlb", action="store_true", help="model a 64-entry data TLB")
    p_hier.set_defaults(func=_cmd_hierarchy)

    p_mc = sub.add_parser("multicore", help="N cores sharing one LLC and DRAM")
    p_mc.add_argument("workloads", nargs="+", help="one workload name per core")
    p_mc.add_argument("--scale", type=float, default=0.05)
    p_mc.add_argument("--seed", type=int, default=2)
    _add_prefetcher_args(p_mc, "none")
    p_mc.add_argument("--share-model", action="store_true",
                      help="serve all cores from one shared model "
                           "(cross-core micro-batching; model-backed only)")
    p_mc.set_defaults(func=_cmd_multicore)

    p_con = sub.add_parser(
        "contend",
        help="multi-tenant contention: private L1s, one shared L2, "
             "bandwidth-limited interconnect, optional admission throttle",
    )
    p_con.add_argument("workloads", nargs="+", help="one workload name per tenant")
    p_con.add_argument("--scale", type=float, default=0.02)
    p_con.add_argument("--seed", type=int, default=2)
    _add_prefetcher_args(p_con, "stride")
    p_con.add_argument("--poison", type=int, action="append", metavar="TENANT",
                       help="garble this tenant's predictions (repeatable)")
    p_con.add_argument("--poison-degree", type=int, default=8)
    p_con.add_argument("--throttle", action="store_true",
                       help="wrap every tenant in the accuracy-driven "
                            "admission controller")
    p_con.add_argument("--floor", type=float, default=0.25,
                       help="accuracy below which a tenant escalates")
    p_con.add_argument("--recover", type=float, default=0.40,
                       help="accuracy at which a tenant de-escalates")
    p_con.add_argument("--lookahead", type=int, default=16,
                       help="accuracy horizon in accesses")
    p_con.add_argument("--slots", type=int, default=1,
                       help="interconnect grants per cycle")
    p_con.add_argument("--prefetch-level", choices=["l1", "l2"], default="l2")
    p_con.add_argument("--json", default=None, help="write the full summary here")
    p_con.set_defaults(func=_cmd_contend)

    p_an = sub.add_parser("analyze", help="trace statistics + OPT replacement headroom")
    _add_trace_args(p_an, scale=0.05, seed=0)
    p_an.set_defaults(func=_cmd_analyze)

    p_exp = sub.add_parser("export", help="pack trained tables into a binary blob")
    p_exp.add_argument("tables", help="tables .npz from `repro train`, or a "
                                      "packed .bin with --info")
    p_exp.add_argument("output", nargs="?", default=None, help="packed .bin destination")
    p_exp.add_argument(
        "--float-dtype", choices=["float64", "float32", "float16"], default="float32"
    )
    p_exp.add_argument("--info", action="store_true",
                       help="print the blob's version/config/metadata and exit")
    p_exp.set_defaults(func=_cmd_export)

    p_reg = sub.add_parser(
        "registry",
        help="content-addressed model registry (put/log/checkout/push/pull)",
    )
    reg_sub = p_reg.add_subparsers(dest="verb", required=True)

    def _reg(verb: str, help: str):
        p = reg_sub.add_parser(verb, help=help)
        p.add_argument("--root", required=True, help="local registry directory")
        p.set_defaults(func=_cmd_registry)
        return p

    rp = _reg("put", "publish a tables/artifact .npz as a registry version")
    rp.add_argument("tables", help="artifact .npz (from train / checkout)")
    rp.add_argument("--name", default=None, help="ref to advance to the new version")
    rp.add_argument("--parent", default=None,
                    help="ref/digest to delta-encode against (lineage parent)")
    rl = _reg("log", "version lineage of a ref/digest, newest first")
    rl.add_argument("ref")
    rc = _reg("checkout", "materialize a version as a standalone .npz")
    rc.add_argument("ref")
    rc.add_argument("--output", "-o", required=True, help="destination .npz")
    rh = _reg("push", "upload a version's lineage to a filesystem remote")
    rh.add_argument("ref")
    rh.add_argument("--remote", required=True, help="remote registry directory")
    ru = _reg("pull", "fetch a version's lineage from a filesystem remote")
    ru.add_argument("ref")
    ru.add_argument("--remote", required=True, help="remote registry directory")

    p_rep = sub.add_parser("report", help="markdown campaign report (training-free)")
    p_rep.add_argument("--scale", type=float, default=0.02)
    p_rep.add_argument("--apps", nargs="+", default=["462.libquantum", "602.gcc"])
    p_rep.add_argument("--output", "-o", default=None)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
