"""DART: the table-based prefetcher (paper Sec. IV-C, Fig. 3).

DART couples a :class:`TabularAttentionPredictor` (the hierarchy of tables
produced by distillation + tabularization) with the shared decode logic. Its
latency and storage are *derived from its own tables* via the paper's cost
model rather than asserted, so constraint compliance (Eq. 9) is checkable.
"""

from __future__ import annotations

from repro.data.dataset import PreprocessConfig
from repro.prefetch.base import Prefetcher
from repro.prefetch.nn_prefetcher import head_code_prefetch_lists
from repro.tabularization.tabular_model import TabularAttentionPredictor
from repro.traces.trace import MemoryTrace


class DARTPrefetcher(Prefetcher):
    """Hierarchy-of-tables prefetcher.

    ``predictor`` may be a bare :class:`TabularAttentionPredictor` or a
    versioned :class:`~repro.runtime.artifact.ModelArtifact` (kept as
    :attr:`artifact`, so serving engines and exports stay traceable to the
    training run). ``student`` optionally retains the distilled NN the
    tables came from — it is what the online adaptation loop re-tabularizes
    on drift (:meth:`stream` with ``adapt=``).
    """

    def __init__(
        self,
        predictor: TabularAttentionPredictor,
        config: PreprocessConfig,
        name: str = "DART",
        threshold: float = 0.5,
        max_degree: int = 2,
        decode: str = "distance",
        student=None,
    ):
        from repro.runtime.artifact import is_model_artifact

        self.artifact = None
        if is_model_artifact(predictor):
            self.artifact = predictor
            predictor = predictor.model
        self.predictor = predictor
        self.config = config
        self.name = name
        self.threshold = float(threshold)
        self.max_degree = int(max_degree)
        self.decode = decode
        self.student = student
        self.latency_cycles = int(round(predictor.latency_cycles()))
        self.storage_bytes = float(predictor.storage_bytes())

    def prefetch_lists(self, trace: MemoryTrace) -> list[list[int]]:
        return head_code_prefetch_lists(
            trace,
            self.predictor,
            self.config,
            threshold=self.threshold,
            max_degree=self.max_degree,
            decode=self.decode,
        )

    def stream(
        self,
        batch_size: int = 64,
        max_wait: int | None = None,
        adapt=None,
        refit=None,
        registry=None,
        publish_ref: str | None = None,
    ):
        """Online serving engine: micro-batched queries into the tables.

        With ``adapt`` (``True`` or an :class:`~repro.runtime.adaptation.
        AdaptationConfig`) the engine is wrapped in an
        :class:`~repro.runtime.adaptation.AdaptiveStream`: a drift monitor
        watches the live stream and, on a phase change, re-tabularizes the
        retained :attr:`student` on the recent window (Eq. 26 fine-tuning +
        PQ re-fit) and hot-swaps the tables with zero dropped emissions.
        ``refit`` overrides the re-fitting recipe (a callable
        ``(pcs, addrs, seed) -> predictor``); without it, :attr:`student`
        must have been provided at construction.

        With ``registry`` (a :class:`~repro.registry.registry.ModelRegistry`;
        requires ``adapt`` and an artifact-wrapped predictor) the baseline is
        published up front and every swapped re-fit is published as a delta
        successor — optionally advancing ``publish_ref`` — so the adaptation
        lineage is replayable offline.
        """
        from repro.runtime.microbatch import MicroBatcher

        engine = MicroBatcher(
            self.predictor.predict_proba,
            self.config,
            threshold=self.threshold,
            max_degree=self.max_degree,
            decode=self.decode,
            batch_size=batch_size,
            max_wait=max_wait,
            name=self.name,
            latency_cycles=self.latency_cycles,
            storage_bytes=self.storage_bytes,
        )
        if adapt is None or adapt is False:
            if registry is not None:
                raise ValueError("registry publishing requires adapt=...")
            return engine
        from repro.runtime.adaptation import AdaptationConfig, AdaptiveStream, tabular_refit

        cfg = adapt if isinstance(adapt, AdaptationConfig) else AdaptationConfig()
        if refit is None:
            if self.student is None:
                raise ValueError(
                    "stream(adapt=...) needs the distilled student to re-fit "
                    "tables from: construct DARTPrefetcher(..., student=...) "
                    "or pass an explicit refit callable"
                )
            refit = tabular_refit(
                self.student,
                self.config,
                self.predictor.table_config,
                max_samples=cfg.refit_samples,
            )
        return AdaptiveStream(
            engine, refit, cfg, artifact=self.artifact, name=self.name,
            registry=registry, publish_ref=publish_ref,
        )

    def multistream(self, batch_size: int = 64, max_wait: int | None = None):
        """Shared-model engine serving N concurrent streams (cores, clients).

        All registered streams' queries coalesce into one vectorized table
        query per flush, and the table hierarchy is stored once instead of
        per stream — see :class:`repro.runtime.multistream.MultiStreamEngine`.
        """
        from repro.runtime.multistream import MultiStreamEngine

        return MultiStreamEngine(
            self.predictor.predict_proba,
            self.config,
            threshold=self.threshold,
            max_degree=self.max_degree,
            decode=self.decode,
            batch_size=batch_size,
            max_wait=max_wait,
            name=self.name,
            latency_cycles=self.latency_cycles,
            storage_bytes=self.storage_bytes,
        )

    def sharded(
        self,
        workers: int = 2,
        batch_size: int = 64,
        max_wait: int | None = None,
        **kwargs,
    ):
        """Multi-process serving: N streams over W workers, one table copy.

        The tables are published once into shared memory and every worker
        process maps them zero-copy (read-only views), so the hierarchy is
        stored once for the whole fleet — see
        :class:`repro.runtime.sharded.ShardedEngine`. Close the engine (or
        use it as a context manager) to release the segment.

        The fleet is elastic: ``workers`` is only the boot size. The returned
        engine admits (``open_stream``), retires (``close_stream``), migrates
        (``migrate_stream`` — bit-identical snapshot move) and rescales
        (``rescale``) live, composing with ``swap_model`` — tenants and cores
        can come and go mid-serve without a single dropped or reordered
        emission.
        """
        from repro.runtime.sharded import ShardedEngine

        return ShardedEngine(
            self.artifact if self.artifact is not None else self.predictor,
            self.config,
            workers=workers,
            threshold=self.threshold,
            max_degree=self.max_degree,
            decode=self.decode,
            batch_size=batch_size,
            max_wait=max_wait,
            name=self.name,
            latency_cycles=self.latency_cycles,
            storage_bytes=self.storage_bytes,
            **kwargs,
        )

    def meets_constraints(self, latency_budget: float, storage_budget: float) -> bool:
        """Eq. 9: ``L(T) < tau`` and ``S(T) < s``."""
        return self.latency_cycles < latency_budget and self.storage_bytes < storage_budget
