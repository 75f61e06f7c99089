"""Drift-aware online adaptation: monitor the stream, re-fit, hot-swap.

The paper's deployment story ends at "train once, serve frozen tables", but
real access streams change phase under the server (Hashemi et al. note
offline-trained prefetchers decay; the attention predictor is
phase-sensitive). Tabularization is exactly what makes *cheap re-fitting*
possible: the student NN stays frozen, and only the tables — prototypes fit
to the input distribution plus Eq. 26 fine-tuned weights — are re-learned on
a recent window of the live stream, then installed with a zero-downtime
``swap_model``.

Three pieces:

* :class:`StreamMonitor` — sliding-window signals over the live stream:
  accuracy/coverage of recent emissions against the accesses that actually
  followed (each predicted block must be demanded within ``lookahead``
  accesses), plus :func:`repro.traces.phases.window_features` descriptors
  whose self-calibrated z-distance flags a phase change even before the
  accuracy window fills.
* :class:`AdaptationController` — the policy loop: every ``check_every``
  accesses it asks the monitor for a drift verdict; on drift it calls the
  ``refit`` callable on the retained ``(pcs, addrs)`` window, wraps the
  result as the next :class:`~repro.runtime.artifact.ModelArtifact` version,
  and hot-swaps the serving engine (pause bounded by one flush). Every
  decision is appended to :attr:`AdaptationController.events`.
* :class:`AdaptiveStream` — a :class:`~repro.runtime.streaming.
  StreamingPrefetcher` wrapping the single-stream engine (a one-stream
  :class:`~repro.runtime.multistream.MultiStreamEngine`) plus a controller;
  what ``DARTPrefetcher.stream(adapt=...)`` returns. The per-access emission
  invariant is preserved: swap-drained emissions are delivered in order with
  the triggering ingest.

:func:`tabular_refit` / :func:`nn_refit` build the standard refit callables;
:func:`score_prefetch_lists` is the offline scorer the bench and tests use
to measure recovery.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.runtime.streaming import Emission, StreamingPrefetcher
from repro.utils.bits import block_address


@dataclass(frozen=True)
class AdaptationConfig:
    """Knobs of the online adaptation loop (all counts are in accesses).

    Attributes
    ----------
    window:
        Accesses retained as the re-fitting corpus (and the feature window's
        upper bound). Also the default cooldown: after a swap the loop waits
        until the window refills with post-swap data.
    lookahead:
        A predicted block counts as accurate iff it is demanded within this
        many subsequent accesses (match the preprocessing label window for
        paper-consistent accounting).
    check_every:
        Drift is evaluated every this many accesses.
    min_samples:
        Predicted blocks required in the accuracy window before accuracy
        drift is judged.
    result_window:
        Finalized emissions kept in the sliding accuracy window.
    acc_drop:
        Absolute accuracy drop from the post-(re)fit reference that declares
        drift.
    acc_floor:
        Optional absolute accuracy floor; below it drift is declared
        regardless of the reference.
    feature_window:
        Accesses summarized by one ``window_features`` row per check.
    feature_threshold:
        Self-calibrated z-distance (against the post-swap feature history)
        above which a phase change is declared.
    feature_history:
        Feature rows kept for the calibration (needs >= 3 to judge).
    cooldown:
        Accesses after a swap before the next drift check (``None`` =
        ``window``).
    refit_delay:
        Accesses between drift *detection* and the re-fit (``None`` =
        ``window // 2``). Detection typically fires within one feature
        window of a phase boundary, when the retained corpus is still
        dominated by the old phase; the delay lets post-boundary accesses
        accumulate, and the re-fit then trains only on accesses observed
        since detection.
    refit_samples:
        Cap on dataset samples handed to the refit callable.
    seed:
        Base RNG seed; adaptation ``i`` re-fits with ``seed + i`` so the
        whole loop is deterministic.
    """

    window: int = 4096
    lookahead: int = 16
    check_every: int = 256
    min_samples: int = 256
    result_window: int = 1024
    acc_drop: float = 0.15
    acc_floor: float | None = None
    feature_window: int = 1024
    feature_threshold: float = 6.0
    feature_history: int = 8
    cooldown: int | None = None
    refit_delay: int | None = None
    refit_samples: int = 2048
    seed: int = 0

    def __post_init__(self):
        if self.window < 2 or self.lookahead < 1 or self.check_every < 1:
            raise ValueError("window/lookahead/check_every must be positive")
        if self.feature_window > self.window:
            raise ValueError("feature_window cannot exceed window")

    @property
    def effective_cooldown(self) -> int:
        return self.window if self.cooldown is None else self.cooldown

    @property
    def effective_refit_delay(self) -> int:
        return self.window // 2 if self.refit_delay is None else self.refit_delay


class _Record:
    """One emission under evaluation: predicted blocks awaiting demands."""

    __slots__ = ("created", "blocks", "hits")

    def __init__(self, created: int, blocks: list[int]):
        self.created = created
        self.blocks = blocks
        self.hits = 0


class StreamMonitor:
    """Sliding-window accuracy/coverage + feature-drift signals.

    Feed every access through :meth:`update` and every emission through
    :meth:`record`; ask :meth:`check_drift` for a verdict. After a model
    swap call :meth:`rebase` so the window restarts against the new model.
    """

    def __init__(self, config: AdaptationConfig | None = None):
        self.config = config or AdaptationConfig()
        cfg = self.config
        self.seq = 0
        self._pcs: deque[int] = deque(maxlen=cfg.window)
        self._addrs: deque[int] = deque(maxlen=cfg.window)
        # Emissions being scored: records ordered by creation, plus an index
        # block -> records that predicted it (left-to-right in seq order).
        self._records: deque[_Record] = deque()
        self._by_block: dict[int, deque[_Record]] = {}
        # Finalized (aged past lookahead) results in a sliding window.
        self._results: deque[tuple[int, int]] = deque()
        self._sum_blocks = 0
        self._sum_hits = 0
        # Coverage of recent accesses (demanded block was predicted in time).
        self._covered: deque[int] = deque()
        self._sum_covered = 0
        # Feature calibration history (one row per check since last rebase).
        self._feat_history: deque[np.ndarray] = deque(maxlen=cfg.feature_history)
        self._ref_acc: float | None = None
        self._cooldown_until = 0

    # ------------------------------------------------------------------ feed
    def update(self, pc: int, addr: int) -> None:
        """Ingest one access: match it against outstanding predictions."""
        seq = self.seq
        self.seq = seq + 1
        self._pcs.append(int(pc))
        self._addrs.append(int(addr))
        blk = int(block_address(int(addr)))
        # A record created at c is eligible for accesses c+1 .. c+lookahead,
        # so it expires (strictly) below horizon = seq - lookahead.
        horizon = seq - self.config.lookahead
        while self._records and self._records[0].created < horizon:
            rec = self._records.popleft()
            if rec.blocks:
                self._push_result(len(rec.blocks), rec.hits)
            for b in rec.blocks:
                q = self._by_block.get(b)
                while q and q[0].created < horizon:
                    q.popleft()
                if q is not None and not q:
                    del self._by_block[b]
        covered = 0
        q = self._by_block.get(blk)
        if q:
            while q and q[0].created < horizon:
                q.popleft()
            if q:
                q.popleft().hits += 1  # a prediction satisfies one demand
                covered = 1
            if not q:
                # The purge *or* the satisfying pop may have drained the
                # deque — either way the empty shell must go, or _by_block
                # grows one dead entry per satisfied block forever.
                del self._by_block[blk]
        self._covered.append(covered)
        self._sum_covered += covered
        if len(self._covered) > self.config.result_window:
            self._sum_covered -= self._covered.popleft()

    def record(self, emissions: list[Emission]) -> None:
        """Register completed emissions for accuracy scoring."""
        for em in emissions:
            if not em.blocks:
                continue  # warm-up / empty answers carry no evidence
            rec = _Record(self.seq - 1, [int(b) for b in em.blocks])
            self._records.append(rec)
            for b in rec.blocks:
                self._by_block.setdefault(b, deque()).append(rec)

    def _push_result(self, n_blocks: int, hits: int) -> None:
        self._results.append((n_blocks, hits))
        self._sum_blocks += n_blocks
        self._sum_hits += hits
        if len(self._results) > self.config.result_window:
            n, h = self._results.popleft()
            self._sum_blocks -= n
            self._sum_hits -= h

    # --------------------------------------------------------------- signals
    @property
    def samples(self) -> int:
        """Predicted blocks currently inside the accuracy window."""
        return self._sum_blocks

    @property
    def accuracy(self) -> float:
        """Windowed accuracy: predicted blocks demanded within lookahead."""
        return self._sum_hits / self._sum_blocks if self._sum_blocks else 0.0

    @property
    def coverage(self) -> float:
        """Windowed coverage: accesses whose block a prediction anticipated."""
        return self._sum_covered / len(self._covered) if self._covered else 0.0

    def recent(self) -> tuple[np.ndarray, np.ndarray]:
        """The retained ``(pcs, addrs)`` window — the re-fitting corpus."""
        return (
            np.asarray(self._pcs, dtype=np.int64),
            np.asarray(self._addrs, dtype=np.int64),
        )

    def feature_distance(self) -> float | None:
        """Self-calibrated z-distance of the current feature row.

        Returns ``None`` until the window holds ``feature_window`` accesses
        and >= 3 calibration rows exist. Appends the current row to the
        calibration history as a side effect (one row per call — call it at
        check cadence only).
        """
        from repro.traces.phases import window_features
        from repro.traces.trace import MemoryTrace

        from itertools import islice

        w = self.config.feature_window
        if len(self._addrs) < w:
            return None
        # Materialize only the trailing feature window, not the whole
        # retained corpus (this runs on the serving hot path every check).
        start = len(self._addrs) - w
        pcs = np.fromiter(islice(self._pcs, start, None), dtype=np.int64, count=w)
        addrs = np.fromiter(islice(self._addrs, start, None), dtype=np.int64, count=w)
        trace = MemoryTrace(np.arange(w, dtype=np.int64), pcs, addrs)
        row = window_features(trace, window=w)[0]
        hist = self._feat_history
        dist: float | None = None
        if len(hist) >= 3:
            stack = np.stack(hist)
            mu = stack.mean(axis=0)
            sd = np.maximum(stack.std(axis=0), 0.05)
            dist = float(np.max(np.abs(row - mu) / sd))
        hist.append(row)
        return dist

    def check_drift(self) -> str | None:
        """A drift verdict (``"accuracy"``/``"features"``) or ``None``."""
        cfg = self.config
        if self.seq < self._cooldown_until:
            return None
        if self._sum_blocks >= cfg.min_samples:
            acc = self.accuracy
            if self._ref_acc is not None and acc < self._ref_acc - cfg.acc_drop:
                return "accuracy"
            # Reference = best windowed accuracy seen since the last rebase:
            # pinning the first post-min_samples value would freeze a
            # still-warming-up reading and make later drops undetectable.
            if self._ref_acc is None or acc > self._ref_acc:
                self._ref_acc = acc
            if cfg.acc_floor is not None and acc < cfg.acc_floor:
                return "accuracy"
        dist = self.feature_distance()
        if dist is not None and dist > cfg.feature_threshold:
            return "features"
        return None

    def rebase(self) -> None:
        """Restart the signal windows against a freshly installed model."""
        self._records.clear()
        self._by_block.clear()
        self._results.clear()
        self._sum_blocks = self._sum_hits = 0
        self._covered.clear()
        self._sum_covered = 0
        self._feat_history.clear()
        self._ref_acc = None
        self._cooldown_until = self.seq + self.config.effective_cooldown

    def reset(self) -> None:
        self.seq = 0
        self._pcs.clear()
        self._addrs.clear()
        self.rebase()
        self._cooldown_until = 0

    def summary(self) -> dict:
        return {
            "seq": self.seq,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "samples": self.samples,
            "reference_accuracy": self._ref_acc,
        }


class AdaptationController:
    """Drift -> re-fit -> hot-swap, with artifact lineage and an event log.

    ``refit(pcs, addrs, seed) -> TabularAttentionPredictor`` (or any
    predictor the engine accepts) is the re-learning step; the controller
    owns *when* it runs and what version the result becomes. A refit that
    raises ``ValueError`` (e.g. the window is still too short to build a
    dataset) is recorded as a skip and retried after a short cooldown.
    """

    def __init__(
        self,
        engine,
        refit,
        config: AdaptationConfig | None = None,
        artifact=None,
        registry=None,
        publish_ref: str | None = None,
    ):
        self.engine = engine
        self.refit = refit
        self.config = config or AdaptationConfig()
        self.monitor = StreamMonitor(self.config)
        self.artifact = artifact
        self.version = int(artifact.version) if artifact is not None else 1
        self.adaptations = 0
        self.events: list[dict] = []
        #: (seq, reason) of a detected-but-not-yet-refit drift
        self._pending: tuple[int, str] | None = None
        # Registry binding: the baseline is published up front (idempotent —
        # content addressing makes a re-publish a no-op) and every swapped
        # re-fit becomes a delta successor of the current head, so the full
        # adaptation lineage is replayable from the registry alone.
        self.registry = registry
        self.publish_ref = publish_ref
        self.head_digest: str | None = None
        if registry is not None:
            if artifact is None:
                raise ValueError("registry publishing needs a baseline artifact")
            self.head_digest = registry.put(artifact, name=publish_ref)
        self._baseline_digest = self.head_digest

    def observe(self, pc: int, addr: int, emissions: list[Emission]) -> list[Emission]:
        """Feed one access + its emissions; returns swap-drained emissions."""
        self.monitor.update(pc, addr)
        self.monitor.record(emissions)
        if self.monitor.seq % self.config.check_every != 0:
            return []
        if self._pending is None:
            reason = self.monitor.check_drift()
            if reason is None:
                return []
            self._pending = (self.monitor.seq, reason)
            self.events.append(
                {"seq": self.monitor.seq, "reason": reason, "outcome": "detected",
                 "accuracy": self.monitor.accuracy, "coverage": self.monitor.coverage}
            )
        detected_seq, reason = self._pending
        # Let post-boundary accesses accumulate so the re-fit corpus is the
        # *new* phase, not the tail of the old one.
        if self.monitor.seq - detected_seq < self.config.effective_refit_delay:
            return []
        self._pending = None
        return self._adapt(reason, detected_seq)

    def _adapt(self, reason: str, detected_seq: int) -> list[Emission]:
        mon = self.monitor
        pcs, addrs = mon.recent()
        # Train only on accesses observed since detection (the corpus the
        # drift verdict was about), capped by what the window retains.
        fresh = min(len(addrs), mon.seq - detected_seq)
        if fresh > 0:
            pcs, addrs = pcs[-fresh:], addrs[-fresh:]
        accuracy_before = mon.accuracy
        event = {
            "seq": mon.seq,
            "detected_seq": detected_seq,
            "reason": reason,
            "accuracy_before": accuracy_before,
            "coverage_before": mon.coverage,
            "window": int(len(addrs)),
        }
        try:
            model = self.refit(pcs, addrs, self.config.seed + self.adaptations)
        except ValueError as exc:
            event.update(outcome="skipped", error=str(exc))
            self.events.append(event)
            # Short cooldown: retry once more data has accumulated.
            mon._cooldown_until = mon.seq + self.config.check_every
            return []
        if self.artifact is not None:
            self.artifact = self.artifact.successor(
                model, refit_reason=reason, refit_seq=mon.seq
            )
            target = self.artifact
            self.version = self.artifact.version
        else:
            target = model
            self.version += 1
        drained = self.engine.swap_model(target)
        self.adaptations += 1
        mon.rebase()
        event.update(
            outcome="swapped",
            version=self.version,
            drained=len(drained),
            predict_calls=getattr(self.engine, "predict_calls", None),
        )
        if self.registry is not None:
            event["digest"] = self.head_digest = self.registry.put(
                self.artifact, parent=self.head_digest, name=self.publish_ref
            )
        self.events.append(event)
        return drained

    def summary(self) -> dict:
        return {
            "adaptations": self.adaptations,
            "version": self.version,
            "monitor": self.monitor.summary(),
            "events": list(self.events),
        }


class AdaptiveStream(StreamingPrefetcher):
    """A micro-batched engine plus the adaptation loop, as one stream.

    Wraps the single-stream engine (a
    :class:`~repro.runtime.microbatch.MicroBatcher`, a one-stream
    :class:`~repro.runtime.multistream.MultiStreamEngine`): every ingest
    feeds the engine, then the controller; if the controller
    swaps, the drained (old-model) emissions ride along in order, so the
    one-emission-per-access invariant survives adaptation. ``reset``
    restores the *initial* model version, making repeated runs (``serve``
    resets first) deterministic.
    """

    def __init__(
        self,
        engine,
        refit,
        config: AdaptationConfig | None = None,
        artifact=None,
        name: str | None = None,
        registry=None,
        publish_ref: str | None = None,
    ):
        self._engine = engine
        self._initial = artifact if artifact is not None else engine._path._predict
        self._initial_artifact = artifact
        self.controller = AdaptationController(
            engine, refit, config, artifact, registry=registry, publish_ref=publish_ref
        )
        self.name = name or f"{engine.name}+adapt"
        self.latency_cycles = engine.latency_cycles
        self.storage_bytes = engine.storage_bytes
        self.seq = 0

    @property
    def batch_size(self) -> int:
        return self._engine.batch_size

    @property
    def predict_calls(self) -> int:
        return self._engine.predict_calls

    @property
    def adaptations(self) -> int:
        return self.controller.adaptations

    @property
    def model_version(self) -> int:
        return self.controller.version

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        emissions = self._engine.ingest(pc, addr)
        drained = self.controller.observe(pc, addr, emissions)
        self.seq = self._engine.seq
        return emissions + drained if drained else emissions

    def flush(self) -> list[Emission]:
        tail = self._engine.flush()
        self.controller.monitor.record(tail)
        return tail

    def reset(self) -> None:
        self._engine.reset()
        self._engine.swap_model(self._initial)
        ctl = self.controller
        ctl.monitor.reset()
        ctl.artifact = self._initial_artifact
        ctl.version = (
            int(self._initial_artifact.version)
            if self._initial_artifact is not None
            else 1
        )
        ctl.adaptations = 0
        ctl.events.clear()
        ctl._pending = None
        ctl.head_digest = ctl._baseline_digest
        self.seq = 0

    def adaptation_summary(self) -> dict:
        return self.controller.summary()


# ------------------------------------------------------------ refit recipes
def tabular_refit(
    student,
    preprocess,
    table_config,
    fine_tune: bool = True,
    ft_epochs: int = 30,
    max_samples: int = 2048,
):
    """The paper-native re-fit: re-tabularize the frozen student on the window.

    Re-runs Algorithm 1 on the recent accesses — PQ prototypes are re-learned
    on the window's (approximated) activations and every linear is re-solved
    with Eq. 26 (:func:`~repro.tabularization.finetune.finetune_linear`) —
    so the tables re-acquire fidelity to the student *on the current phase's
    input distribution*. The student NN itself never changes.
    """
    from repro.data.dataset import build_dataset
    from repro.tabularization.converter import tabularize_predictor

    def refit(pcs: np.ndarray, addrs: np.ndarray, seed: int = 0):
        ds = build_dataset(pcs, addrs, preprocess, max_samples=max_samples)
        model, _ = tabularize_predictor(
            student, ds.x_addr, ds.x_pc, table_config,
            fine_tune=fine_tune, ft_epochs=ft_epochs, rng=seed,
        )
        return model

    return refit


def nn_refit(model, preprocess, epochs: int = 2, lr: float = 1e-3, max_samples: int = 2048):
    """Re-fit recipe for NN-served streams: fine-tune a copy on the window.

    The served model is deep-copied so the pre-swap predictor stays intact
    (a no-op adaptation must leave the original untouched), trained for a few
    epochs on the window dataset, and the copy is what gets swapped in.
    """
    import copy

    from repro.data.dataset import build_dataset
    from repro.distillation import TrainConfig, train_model

    def refit(pcs: np.ndarray, addrs: np.ndarray, seed: int = 0):
        ds = build_dataset(pcs, addrs, preprocess, max_samples=max_samples)
        clone = copy.deepcopy(model)
        train_model(
            clone, ds, None, TrainConfig(epochs=epochs, batch_size=128, lr=lr, seed=seed)
        )
        return clone

    return refit


# ------------------------------------------------------------------ scoring
def score_prefetch_lists(
    lists: list[list[int]], blocks, lookahead: int = 16
) -> dict:
    """Offline accuracy/coverage of per-access prefetch lists.

    A prefetch issued at access ``i`` is *accurate* iff its block is demanded
    at some access in ``(i, i + lookahead]``; an access is *covered* iff its
    block was prefetched by an in-window earlier access. This is the same
    definition :class:`StreamMonitor` applies online, in batch form — the
    bench scores phase segments with it.
    """
    blocks = [int(b) for b in np.asarray(blocks)]
    if len(lists) != len(blocks):
        raise ValueError(f"{len(lists)} lists vs {len(blocks)} accesses")
    positions: dict[int, list[int]] = {}
    for i, b in enumerate(blocks):
        positions.setdefault(b, []).append(i)
    issued = hits = 0
    covered = [False] * len(blocks)
    for i, lst in enumerate(lists):
        for b in lst:
            issued += 1
            arr = positions.get(int(b))
            if not arr:
                continue
            j = bisect.bisect_right(arr, i)
            if j < len(arr) and arr[j] <= i + lookahead:
                hits += 1
                covered[arr[j]] = True
    return {
        "accesses": len(blocks),
        "issued": issued,
        "accurate": hits,
        "accuracy": hits / issued if issued else 0.0,
        "coverage": sum(covered) / len(blocks) if blocks else 0.0,
    }
