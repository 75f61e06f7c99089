"""Which public functions of each layer the traced run wraps, and the
per-layer metrics derived from the spans they record.

Span names are ``<module>.<function>`` (the layer names of BENCHMARK.json);
table-hierarchy components are named after
``TabularAttentionPredictor.cost_components()`` so their measured self time
sits beside the cost model's cycles, ops and storage (paper Eq. 20-22).
"""

from __future__ import annotations

import multiprocessing.connection as mpc

import numpy as np

import repro.prefetch.nn_prefetcher as nn_prefetcher
import repro.quantization.pq as pq_mod
import repro.runtime.engine as engine_mod
import repro.runtime.microbatch as microbatch
import repro.runtime.multistream as multistream
import repro.sim.simulator as simulator
import repro.tabularization.fastpath as fastpath
import repro.tabularization.linear_kernel as linear_kernel
from repro.data.segmentation import AddressSegmenter
from repro.prefetch import BestOffsetPrefetcher, DARTPrefetcher
from repro.quantization.pq import ProductQuantizer
from repro.runtime.sharded import ShardedEngine
from repro.sim.cache import SetAssocCache
from repro.tabularization.attention_kernel import TabularAttention
from repro.tabularization.layernorm_op import LayerNormOp
from repro.tabularization.linear_kernel import TabularLinear
from repro.tabularization.sigmoid_lut import SigmoidLUT
from repro.tabularization.tabular_model import (
    LATENCY_LAYERNORM,
    LATENCY_SIGMOID,
    TabularAttentionPredictor,
)

KINDS = {TabularLinear: "linear", TabularAttention: "attention",
         LayerNormOp: "layernorm", SigmoidLUT: "sigmoid"}


def component_names(model: TabularAttentionPredictor) -> dict[int, str]:
    """``id(component) -> metric-safe cost-model name`` (``enc0/qkv`` -> ``enc0_qkv``)."""
    return {id(comp): name.replace("/", "_") for name, comp, _ in model.cost_components()}


def _rows(args) -> int:
    x = args[1]
    return x.shape[0] if x.ndim > 1 else 1


def install(tracer, patches, model: TabularAttentionPredictor) -> None:
    """Wrap every traced function; ``patches.restore()`` undoes all of it."""
    comps = component_names(model)

    def component(key):
        def name(args):
            return f"tabularization.{comps.get(id(key(args[0])), 'other')}"
        return name

    span = tracer.wrap
    plan = [
        # runtime: the serving loops and the per-access featurization
        (engine_mod, "serve", "runtime.engine.serve", None),
        (multistream, "serve_interleaved", "runtime.engine.serve", None),
        (microbatch.StreamState, "push", "runtime.microbatch.push", None),
        (microbatch.MicroBatcher, "flush", "runtime.microbatch.flush", None),
        (multistream.MultiStreamEngine, "flush_all", "runtime.microbatch.flush", None),
        (AddressSegmenter, "segment_access_into", "data.segmentation.segment_access_into", None),
        # quantization: encoders and the generic gather+sum
        (ProductQuantizer, "encode", "quantization.pq_encode", _rows),
        (fastpath.EncodePlan, "encode", "quantization.encode_plan", None),
        (linear_kernel, "lookup_aggregate", "quantization.lookup_aggregate", None),
        (pq_mod, "lookup_aggregate", "quantization.lookup_aggregate", None),
        # tabularization: the batched and single-query entry points ...
        (TabularAttentionPredictor, "predict_proba", "tabularization.predict_proba", _rows),
        (fastpath.SingleQueryFastPath, "query_into", "tabularization.fast_path.query_into", None),
        # ... and each component, by cost-model name
        (TabularLinear, "query", component(lambda s: s), None),
        (fastpath.RowPlan, "run", component(lambda s: s.kernel), None),
        (TabularAttention, "query", component(lambda s: s), None),
        (fastpath.AttentionPlan, "run", component(lambda s: s.attn), None),
        (LayerNormOp, "query", component(lambda s: s), None),
        (LayerNormOp, "query_into", component(lambda s: s), None),
        (fastpath._LayerNormPlan, "run", component(lambda s: s.op), None),
        (SigmoidLUT, "query", component(lambda s: s), None),
        (SigmoidLUT, "query_into", component(lambda s: s), None),
        # prefetch: decode at both import sites, the batch path, BO
        (nn_prefetcher, "decode_bitmap_probs", "prefetch.decode", lambda a: a[0].shape[0]),
        (microbatch, "decode_bitmap_probs", "prefetch.decode", lambda a: a[0].shape[0]),
        (nn_prefetcher.SingleRowDecoder, "decode1", "prefetch.decode1", None),
        (DARTPrefetcher, "prefetch_lists", "prefetch.prefetch_lists", lambda a: len(a[1])),
        (BestOffsetPrefetcher, "prefetch_lists", "prefetch.bo_prefetch_lists", None),
        # sharded frontend: its serve loop and the pipe calls it makes
        (ShardedEngine, "serve", "runtime.sharded.serve", None),
        (mpc.Connection, "send_bytes", "runtime.sharded.send_bytes",
         lambda a: memoryview(a[1]).nbytes),
        (mpc.Connection, "recv_bytes", "runtime.sharded.recv_bytes", None),
        (mpc.Connection, "poll", "runtime.sharded.wait", None),
        (mpc, "wait", "runtime.sharded.wait", None),
        # sim: the simulation loop and its cache
        (simulator, "simulate", "sim.simulate", lambda a: len(a[0])),
        (SetAssocCache, "lookup", "sim.cache", None),
        (SetAssocCache, "insert", "sim.cache", None),
        (SetAssocCache, "peek", "sim.cache", None),
    ]
    for owner, attr, name, size in plan:
        patches.install(owner, attr, lambda fn, name=name, size=size: span(fn, name, size))
    for owner in (engine_mod, multistream):
        patches.install(owner, "access_pairs",
                        lambda fn: tracer.wrap_iter(fn, "runtime.engine.access_pairs"))


def per_layer(summary: dict, counters: dict, facts: dict,
              model: TabularAttentionPredictor) -> dict[str, float]:
    """Per-layer metric values for one traced pass.

    ``facts`` carries what the spans cannot: ``accesses`` served (or
    simulated) in the traced pass, ``queries`` answered, engine counters
    (``predict_calls``, ``fast_path_flushes``, ``candidates``), sharded
    ``stats``/worker latency, sim results, and the trace-quality ratios.
    Layers that did not run report 0.
    """
    def s(name, field):
        return summary.get(name, {}).get(field, 0.0)

    def per(num, den):
        return num / den if den else 0.0

    acc = facts.get("accesses", 0)
    out: dict[str, float] = {}
    serve_acc = acc if "runtime.engine.serve" in summary else 0
    out["runtime.engine.serve.self_us_per_access"] = per(s("runtime.engine.serve", "self_us"), serve_acc)
    out["runtime.engine.access_pairs.us_per_access"] = per(
        s("runtime.engine.access_pairs", "us"), serve_acc)

    out["runtime.microbatch.push.calls"] = s("runtime.microbatch.push", "calls")
    out["runtime.microbatch.push.self_us"] = s("runtime.microbatch.push", "self_us")
    out["runtime.microbatch.flush.calls"] = s("runtime.microbatch.flush", "calls")
    out["runtime.microbatch.flush.self_us_per_call"] = per(
        s("runtime.microbatch.flush", "self_us"), s("runtime.microbatch.flush", "calls"))
    calls = facts.get("predict_calls", 0)
    out["runtime.microbatch.batch_fill_mean"] = per(facts.get("queries", 0), calls)
    out["runtime.microbatch.fast_path_share"] = per(facts.get("fast_path_flushes", 0), calls)

    seg = "data.segmentation.segment_access_into"
    out[f"{seg}.calls"] = s(seg, "calls")
    out[f"{seg}.us_per_call"] = per(s(seg, "us"), s(seg, "calls"))

    out["quantization.pq_encode.rows"] = counters.get("quantization.pq_encode.size", 0.0)
    out["quantization.pq_encode.us_per_row"] = per(
        s("quantization.pq_encode", "us"), out["quantization.pq_encode.rows"])
    for name in ("encode_plan", "lookup_aggregate"):
        full = f"quantization.{name}"
        out[f"{full}.calls"] = s(full, "calls")
        out[f"{full}.us_per_call"] = per(s(full, "us"), s(full, "calls"))

    pp = "tabularization.predict_proba"
    out[f"{pp}.calls"] = s(pp, "calls")
    out[f"{pp}.us_per_row"] = per(s(pp, "us"), counters.get(f"{pp}.size", 0.0))
    fp = "tabularization.fast_path.query_into"
    out[f"{fp}.calls"] = s(fp, "calls")
    out[f"{fp}.us_per_call"] = per(s(fp, "us"), s(fp, "calls"))
    kind_self = dict.fromkeys(KINDS.values(), 0.0)
    names = component_names(model)
    for _, comp, seq_len in model.cost_components():
        safe = names[id(comp)]
        own = s(f"tabularization.{safe}", "self_us")
        kind_self[KINDS[type(comp)]] += own
        out[f"tabularization.{safe}.self_us"] = own
        out.update(component_cost(f"tabularization.{safe}", comp, seq_len, model))
    for kind, own in kind_self.items():
        out[f"tabularization.{kind}.self_us"] = own
    out["tabularization.cost.latency_cycles"] = float(model.latency_cycles())
    out["tabularization.cost.arithmetic_ops"] = float(model.arithmetic_ops())
    out["tabularization.cost.storage_kb"] = model.storage_bytes() / 1024

    out["prefetch.decode.rows"] = counters.get("prefetch.decode.size", 0.0)
    out["prefetch.decode.us_per_row"] = per(s("prefetch.decode", "us"), out["prefetch.decode.rows"])
    out["prefetch.decode1.calls"] = s("prefetch.decode1", "calls")
    out["prefetch.decode1.us_per_call"] = per(s("prefetch.decode1", "us"), s("prefetch.decode1", "calls"))
    out["prefetch.prefetch_lists.us_per_access"] = per(
        s("prefetch.prefetch_lists", "us"), counters.get("prefetch.prefetch_lists.size", 0.0))
    out["prefetch.candidates_per_query"] = per(facts.get("candidates", 0), facts.get("queries", 0))

    sh = "runtime.sharded"
    sharded_acc = acc if f"{sh}.serve" in summary else 0
    stats = facts.get("sharded_stats", {})
    out[f"{sh}.serve.self_us_per_access"] = per(s(f"{sh}.serve", "self_us"), sharded_acc)
    out[f"{sh}.send_bytes.calls"] = s(f"{sh}.send_bytes", "calls")
    out[f"{sh}.send_bytes.bytes"] = counters.get(f"{sh}.send_bytes.size", 0.0)
    out[f"{sh}.send_bytes.us"] = s(f"{sh}.send_bytes", "us")
    out[f"{sh}.recv_bytes.calls"] = s(f"{sh}.recv_bytes", "calls")
    # poll() waits through connection.wait(): self time avoids counting twice
    out[f"{sh}.recv_bytes.wait_us"] = s(f"{sh}.recv_bytes", "us") + s(f"{sh}.wait", "self_us")
    out[f"{sh}.overlap_ratio"] = stats.get("pipeline", {}).get("overlap_ratio", 0.0)
    out[f"{sh}.credit_stalls"] = stats.get("pipeline", {}).get("credit_stalls", 0)
    out[f"{sh}.shm_bytes"] = stats.get("shm_bytes") or 0
    out[f"{sh}.worker_latency_p50_us"] = facts.get("worker_p50_us", 0.0)
    out[f"{sh}.worker_latency_p99_us"] = facts.get("worker_p99_us", 0.0)

    sim_acc = counters.get("sim.simulate.size", 0.0)
    out["sim.simulate.self_us_per_access"] = per(s("sim.simulate", "self_us"), sim_acc)
    out["sim.cache.calls"] = s("sim.cache", "calls")
    out["sim.cache.us"] = s("sim.cache", "us")
    out.update(facts.get("sim") or dict.fromkeys(SIM_FACTS, 0.0))

    out["trace.overhead"] = facts.get("overhead", 0.0)
    out["trace.unattributed_share"] = facts.get("unattributed_share", 0.0)
    return out


def component_cost(prefix: str, comp, seq_len, model) -> dict[str, float]:
    """One component's analytic cycles, ops and storage (Eq. 16-23)."""
    if seq_len is None:  # LayerNorm / sigmoid LUT: direct arithmetic
        cycles = LATENCY_SIGMOID if comp is model.sigmoid else LATENCY_LAYERNORM
        ops, bits = 0.0, comp.storage_bits
    else:
        cycles = comp.latency_cycles()
        ops = comp.ops(seq_len)
        bits = comp.storage_bits(seq_len, model.table_config.data_bits)
    return {f"{prefix}.cycles": float(cycles), f"{prefix}.ops": float(ops),
            f"{prefix}.storage_kb": float(bits) / 8 / 1024}


SIM_FACTS = (
    "sim.ipc_speedup", "sim.ipc_gain_vs_bo", "sim.prefetch_accuracy", "sim.prefetch_coverage",
    *(f"sim.{tag}.{stat}" for tag in ("dart", "bo")
      for stat in ("llc_hit_rate", "late_prefetch_hits", "prefetches_issued", "prefetches_useful")),
)


def sim_facts(base, bo, dart) -> dict[str, float]:
    """The simulated quality numbers (deterministic) of one trio."""
    out = {
        "sim.ipc_speedup": dart.ipc / base.ipc - 1.0,
        "sim.ipc_gain_vs_bo": (dart.ipc - bo.ipc) / bo.ipc,
        "sim.prefetch_accuracy": dart.accuracy,
        "sim.prefetch_coverage": dart.coverage(base.demand_misses),
    }
    for tag, r in (("dart", dart), ("bo", bo)):
        out[f"sim.{tag}.llc_hit_rate"] = r.hit_rate
        out[f"sim.{tag}.late_prefetch_hits"] = r.late_prefetch_hits
        out[f"sim.{tag}.prefetches_issued"] = r.prefetches_issued
        out[f"sim.{tag}.prefetches_useful"] = r.prefetches_useful
    return out


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank percentile, the same rule the program's serve stats use."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return float(sorted_values[min(n - 1, max(0, int(round(q * (n - 1)))))])


def percentiles_us(samples_s) -> tuple[float, float, float, int]:
    """(p50, p99, p99.9, count) in microseconds of a list of seconds."""
    v = np.sort(np.asarray(samples_s, dtype=np.float64)) * 1e6
    return nearest_rank(v, 0.50), nearest_rank(v, 0.99), nearest_rank(v, 0.999), len(v)
