"""The one DART model every workload serves, and its build cache.

Recipe: the paper's "DART" variant (student L=1, D=32, H=2, T=16, bitmap
256; tables K=128, C=2), trained directly on a seeded 462.libquantum trace
(2k samples, 2 epochs) and tabularized with fine-tuning. Training is
deterministic, so the tables depend only on the program's source: they are
built once per source tree, in a child process, and cached under
``perfbench/cache/``. The child keeps training's memory peak (about 0.5 GB
while tabularizing) out of the benchmark process, whose peak RSS is a
reported metric.

Run as ``python3 -m perfbench.model --out PATH`` (with ``src`` on
``PYTHONPATH``) to build the tables into ``PATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.data import PreprocessConfig, build_dataset
from repro.distillation import TrainConfig, train_model
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch import DARTPrefetcher
from repro.tabularization import TableConfig, tabularize_predictor
from repro.tabularization.serialization import load_tabular_model, save_tabular_model
from repro.traces import make_workload

PREPROCESS = PreprocessConfig(history_len=16, window=10, delta_range=128)
STUDENT = ModelConfig(layers=1, dim=32, heads=2, history_len=16, bitmap_size=256)
TABLE = TableConfig.uniform(128, 2)
TRAIN_APP = "462.libquantum"
TRAIN_SCALE = 0.05
TRAIN_SEED = 0
TRAIN_SAMPLES = 2000
TRAIN_EPOCHS = 2
#: everything above, folded into the cache key
RECIPE = repr((PREPROCESS, STUDENT, TABLE, TRAIN_APP, TRAIN_SCALE, TRAIN_SEED,
               TRAIN_SAMPLES, TRAIN_EPOCHS))


def build_tables():
    """Train the student and tabularize it (seconds, ~0.5 GB peak)."""
    trace = make_workload(TRAIN_APP, scale=TRAIN_SCALE, seed=TRAIN_SEED)
    ds = build_dataset(trace.pcs, trace.addrs, PREPROCESS, max_samples=TRAIN_SAMPLES)
    student = AttentionPredictor(STUDENT, ds.x_addr.shape[2], ds.x_pc.shape[2], rng=TRAIN_SEED)
    train_model(student, ds, None,
                TrainConfig(epochs=TRAIN_EPOCHS, batch_size=128, lr=2e-3, seed=TRAIN_SEED))
    tables, _ = tabularize_predictor(student, ds.x_addr, ds.x_pc, TABLE, fine_tune=True, rng=6)
    return tables


def source_digest(src: Path) -> str:
    """SHA-256 over every Python file of the program plus the recipe."""
    h = hashlib.sha256(RECIPE.encode())
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_tables(root: Path, src: Path, digest: str) -> tuple[Path, float | None]:
    """Path of the cached tables, building them first when missing.

    Returns ``(path, seconds spent building)``; seconds is ``None`` on a
    cache hit.
    """
    path = root / "perfbench" / "cache" / f"dart-{digest[:16]}.npz"
    if path.exists():
        return path, None
    path.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(root), env.get("PYTHONPATH", "")) if p
    )
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "perfbench.model", "--out", str(path)],
        cwd=root, env=env, check=True, timeout=600,
    )
    return path, time.perf_counter() - t0


def load_dart(path: Path) -> DARTPrefetcher:
    """A fresh prefetcher over freshly loaded tables (no shared plan caches)."""
    return DARTPrefetcher(load_tabular_model(path), PREPROCESS, max_degree=2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="build the benchmark's DART tables")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    save_tabular_model(build_tables(), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
