"""Ablations over the design choices DESIGN.md calls out.

1. **Encoder**: exact nearest-prototype vs log2(K) hash tree (the paper's
   latency model assumes the hash encoder; how much F1 does it cost?).
2. **Fine-tune solver**: closed-form least squares vs the paper's E-epoch SGD.
3. **Attention surrogate**: softmax student vs sigmoid-attention student
   (Eq. 14 bakes sigmoid into the QKV table; does training the student with
   sigmoid attention shrink the tabularization gap?).
4. **Decode policy**: timeliness-major vs confidence-major prefetch decode.
"""

from conftest import DART_TABLE, PREPROCESS, STUDENT_MODEL, get_tabular, tabular_f1

from repro.core.evaluate import f1_score
from repro.distillation import TrainConfig, train_model
from repro.models import AttentionPredictor
from repro.tabularization import TableConfig, tabularize_predictor
from repro.utils import log


def _pick_app(suite):
    for app in ("410.bwaves", "462.libquantum"):
        if app in suite:
            return suite[app]
    return next(iter(suite.values()))


def bench_ablation_encoder(benchmark, suite):
    art = _pick_app(suite)

    def run():
        out = {}
        for enc in ("exact", "hash"):
            table = TableConfig(
                *(getattr(DART_TABLE, f) for f in (
                    "k_input", "c_input", "k_attn", "c_attn",
                    "k_ffn", "c_ffn", "k_output", "c_output")),
                encoder=enc,
            )
            tab, _ = get_tabular(art, fine_tune=True, table=table, tag=f"enc:{enc}")
            out[enc] = tabular_f1(art, tab)
        return out

    f1s = benchmark.pedantic(run, rounds=1, iterations=1)
    log.table(
        f"Ablation: PQ encoder ({art.name})",
        ["encoder", "F1"],
        [[k, f"{v:.3f}"] for k, v in f1s.items()],
    )
    # the hash encoder trades accuracy for log(K) latency; it must stay usable
    assert f1s["hash"] > 0.3 * f1s["exact"]


def bench_ablation_finetune_solver(benchmark, suite):
    art = _pick_app(suite)

    def run():
        out = {}
        for solver in ("lstsq", "sgd"):
            tab, _ = tabularize_predictor(
                art.student, art.ds_train.x_addr, art.ds_train.x_pc,
                DART_TABLE, fine_tune=True, ft_solver=solver, ft_epochs=20, rng=7,
            )
            out[solver] = tabular_f1(art, tab)
        return out

    f1s = benchmark.pedantic(run, rounds=1, iterations=1)
    log.table(
        f"Ablation: fine-tune solver ({art.name})",
        ["solver", "F1"],
        [[k, f"{v:.3f}"] for k, v in f1s.items()],
    )
    assert abs(f1s["lstsq"] - f1s["sgd"]) < 0.15  # same objective, same story


def bench_ablation_sigmoid_attention_student(benchmark, suite):
    """Does a sigmoid-attention student tabularize with a smaller F1 gap?"""
    art = _pick_app(suite)

    def run():
        cfg = STUDENT_MODEL.scaled(score_mode="sigmoid")
        student = AttentionPredictor(
            cfg, art.ds_train.x_addr.shape[2], art.ds_train.x_pc.shape[2], rng=21
        )
        train_model(
            student, art.ds_train, art.ds_val,
            TrainConfig(epochs=4, batch_size=128, lr=2e-3, seed=21),
        )
        f1_nn = f1_score(
            art.ds_val.labels, student.predict_proba(art.ds_val.x_addr, art.ds_val.x_pc)
        )
        tab, _ = tabularize_predictor(
            student, art.ds_train.x_addr, art.ds_train.x_pc, DART_TABLE,
            fine_tune=True, rng=22,
        )
        f1_tab = tabular_f1(art, tab)
        # softmax baseline from the shared artifacts
        tab_soft, _ = get_tabular(art, fine_tune=True, table=DART_TABLE)
        return {
            "softmax student": art.f1["student"],
            "softmax DART": tabular_f1(art, tab_soft),
            "sigmoid student": f1_nn,
            "sigmoid DART": f1_tab,
        }

    f1s = benchmark.pedantic(run, rounds=1, iterations=1)
    log.table(
        f"Ablation: attention surrogate ({art.name})",
        ["model", "F1"],
        [[k, f"{v:.3f}"] for k, v in f1s.items()],
    )
    assert f1s["sigmoid DART"] > 0.0


def bench_ablation_decode_policy(benchmark, suite, profile):
    """Timeliness-major vs confidence-major prefetch decode.

    The delta bitmap's look-forward window is the predictor's only lookahead;
    picking the *farthest* above-threshold deltas ("distance") buys
    timeliness at a small accuracy cost, while picking the most probable ones
    ("confidence") tends to select near deltas whose prefetches land late.
    """
    from repro.prefetch import DARTPrefetcher
    from repro.sim import SimConfig, ipc_improvement, simulate
    from repro.traces import make_workload

    art = _pick_app(suite)
    tab, _ = get_tabular(art, fine_tune=True, table=DART_TABLE)
    trace = make_workload(art.name, scale=profile.sim_trace_scale, seed=2)
    cfg = SimConfig()

    def run():
        base = simulate(trace, None, cfg)
        out = {}
        for decode in ("distance", "confidence"):
            pf = DARTPrefetcher(tab, PREPROCESS, name=f"DART[{decode}]", decode=decode)
            r = simulate(trace, pf, cfg)
            out[decode] = (
                ipc_improvement(r, base),
                r.accuracy,
                r.coverage(base.demand_misses),
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    log.table(
        f"Ablation: decode policy ({art.name})",
        ["decode", "IPC gain", "accuracy", "coverage"],
        [[k, f"{v[0]:+.3f}", f"{v[1]:.3f}", f"{v[2]:.3f}"] for k, v in results.items()],
    )
    # timeliness-major decode must not lose to confidence-major on IPC
    assert results["distance"][0] >= results["confidence"][0] - 0.02
