"""Neural prefetcher wrappers: TransFetch-like, Voyager-like, and ideal modes.

A neural prefetcher is a trained multi-label predictor plus decode logic: on
access ``i`` the model sees the last ``T`` (address, PC) pairs, outputs a
delta bitmap, and every bit above threshold becomes a prefetch of
``anchor + delta`` (capped at ``max_degree``, highest probability first).

Because predictions depend only on the access stream, features for a whole
trace are built once (sliding windows) and the model queries in large batches
— this is the vectorization that lets a NumPy model drive 100K+-access
simulations. The simulator applies ``latency_cycles`` between the trigger and
the prefetch issue; the paper's "-I" (ideal) baselines are the same predictor
with zero latency.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import PreprocessConfig
from repro.data.delta_bitmap import bitmap_index_to_delta
from repro.prefetch.base import Prefetcher
from repro.traces.trace import MemoryTrace
from repro.utils.bits import block_address


#: per-delta-range |delta| ranking vectors for the "distance" decode — pure
#: functions of geometry, cached so per-flush decodes (the B=1 latency path
#: calls this once per access) don't rebuild them
_RANK_SCORE_CACHE: dict[int, np.ndarray] = {}


def _distance_rank_score(delta_range: int) -> np.ndarray:
    score = _RANK_SCORE_CACHE.get(delta_range)
    if score is None:
        all_deltas = bitmap_index_to_delta(np.arange(2 * delta_range), delta_range)
        score = np.abs(all_deltas).astype(np.float64)  # farther = better
        _RANK_SCORE_CACHE[delta_range] = score
    return score


class SingleRowDecoder:
    """Allocation-light :func:`decode_bitmap_probs` for one row at a time.

    The B=1 latency path decodes one bitmap per access, where the generic
    batch decode's ``np.where`` / ``take_along_axis`` wrappers and per-call
    allocations cost more than the ranking itself. This decoder is bound to
    one (bitmap size, threshold, degree, policy) at construction, holds its
    scratch, and replays the exact same operations row-wise:

    * the mask is built with ``copyto(where=...)`` over a ``-1.0``-filled
      buffer — elementwise-identical to ``np.where(cond, score, -1.0)``;
    * the ordering is the same default ``argsort`` (same algorithm, same
      tie-breaking) on the same negated scores;
    * deltas come from a precomputed ``bitmap_index_to_delta`` table, which
      is a pure function of the index.

    ``tests/test_latency_serving.py`` pins ``decode1 ==
    decode_bitmap_probs`` on fuzzed inputs. Not thread-safe (scratch is
    reused), matching the single-threaded flush paths that own one.
    """

    def __init__(self, bitmap_size: int, threshold: float, max_degree: int, decode: str):
        if decode not in ("distance", "confidence"):
            raise ValueError(f"unknown decode policy {decode!r}")
        self.threshold = float(threshold)
        self.max_degree = int(max_degree)
        self.decode = decode
        delta_range = int(bitmap_size) // 2
        self.rank_score = _distance_rank_score(delta_range) if decode == "distance" else None
        self.all_deltas = bitmap_index_to_delta(np.arange(bitmap_size), delta_range)
        self._masked = np.empty(bitmap_size, dtype=np.float64)
        self._neg = np.empty(bitmap_size, dtype=np.float64)
        self._bmask = np.empty(bitmap_size, dtype=bool)

    def decode1(self, probs_row: np.ndarray, anchor) -> list[int]:
        """Prefetch blocks for one ``(2R,)`` probability row."""
        m = self._masked
        np.greater(probs_row, self.threshold, self._bmask)
        m.fill(-1.0)
        np.copyto(m, self.rank_score if self.decode == "distance" else probs_row,
                  where=self._bmask)
        np.negative(m, self._neg)
        order = self._neg.argsort()[: self.max_degree]
        chosen = m.take(order)
        valid = chosen > 0
        if not valid.any():
            return []
        return (int(anchor) + self.all_deltas.take(order)[valid]).tolist()


def decode_bitmap_probs(
    probs: np.ndarray,
    anchors: np.ndarray,
    threshold: float = 0.5,
    max_degree: int = 2,
    decode: str = "distance",
) -> list[list[int]]:
    """Turn delta-bitmap probabilities into per-row prefetch block lists.

    ``probs`` is ``(n, 2R)``; ``anchors`` the ``(n,)`` block addresses the
    deltas are relative to. This is the single decode implementation shared by
    the whole-trace batch paths (:func:`model_prefetch_lists`,
    :func:`head_code_prefetch_lists`) and the streaming micro-batcher —
    sharing it is what keeps the serving paths bit-identical.

    ``decode`` selects which of the above-threshold bits become prefetches
    when more than ``max_degree`` qualify:

    * ``"distance"`` (default) — prefer the *farthest* deltas. The bitmap's
      look-forward window is the predictor's only source of timeliness: on a
      stream every bit +1..+W is set, and prefetching +W hides
      ``W x per-access-cycles`` of latency whereas +1 hides almost none. This
      matches how variable-degree bitmap prefetchers achieve coverage in the
      paper (DART trades a little accuracy for timeliness: Fig. 12 shows DART
      ~0.81 vs BO ~0.89 accuracy, yet Fig. 14 shows DART winning IPC).
    * ``"confidence"`` — prefer the highest-probability deltas (ablation).
    """
    if decode not in ("distance", "confidence"):
        raise ValueError(f"unknown decode policy {decode!r}")
    delta_range = probs.shape[1] // 2
    anchors = np.asarray(anchors, dtype=np.int64)
    # Vectorized decode: mask below threshold, rank the rest per row.
    if decode == "distance":
        rank_score = _distance_rank_score(delta_range)
        masked = np.where(probs > threshold, rank_score[None, :], -1.0)
    else:
        masked = np.where(probs > threshold, probs, -1.0)
    order = np.argsort(-masked, axis=1)[:, :max_degree]  # top candidates
    chosen = np.take_along_axis(masked, order, axis=1)
    deltas = bitmap_index_to_delta(order, delta_range)
    valid = chosen > 0
    out: list[list[int]] = []
    for row in range(order.shape[0]):
        v = valid[row]
        if v.any():
            out.append((anchors[row] + deltas[row][v]).tolist())
        else:
            out.append([])
    return out


def model_prefetch_lists(
    trace: MemoryTrace,
    predict_proba,
    config: PreprocessConfig,
    threshold: float = 0.5,
    max_degree: int = 2,
    batch_size: int = 1024,
    decode: str = "distance",
) -> list[list[int]]:
    """Batched trace → prefetch-lists pipeline shared by all learned prefetchers.

    ``predict_proba(x_addr, x_pc, batch_size)`` is any callable with the
    predictor interface (NN or tabular). The first ``history_len - 1`` accesses
    have no full history and produce no prefetches. See
    :func:`decode_bitmap_probs` for the ``decode`` policies.
    """
    t_hist = config.history_len
    ba = block_address(trace.addrs)
    n = len(ba)
    out: list[list[int]] = [[] for _ in range(n)]
    if n < t_hist:
        return out
    seg = config.segmenter()
    addr_windows = np.lib.stride_tricks.sliding_window_view(ba, t_hist)
    pc_windows = np.lib.stride_tricks.sliding_window_view(trace.pcs, t_hist)
    x_addr = seg.segment_block_addresses(addr_windows)
    x_pc = seg.segment_pcs(pc_windows)
    probs = predict_proba(x_addr, x_pc, batch_size=batch_size)
    # A predictor may answer fewer rows than windows (e.g. label oracles with
    # no full look-forward at the tail); those accesses keep empty lists.
    anchors = ba[t_hist - 1 : t_hist - 1 + probs.shape[0]]
    decoded = decode_bitmap_probs(probs, anchors, threshold, max_degree, decode)
    out[t_hist - 1 : t_hist - 1 + len(decoded)] = decoded
    return out


def head_code_prefetch_lists(
    trace: MemoryTrace,
    predictor,
    config: PreprocessConfig,
    threshold: float = 0.5,
    max_degree: int = 2,
    batch_size: int = 1024,
    decode: str = "distance",
) -> list[list[int]]:
    """:func:`model_prefetch_lists` for a table predictor, each step done once.

    ``predictor`` is a :class:`~repro.tabularization.tabular_model.
    TabularAttentionPredictor`. Each access is segmented and encoded once
    (``predict_head_codes``). A window's probability row is a function of
    its head code row alone, and :func:`decode_bitmap_probs` reads only that
    row and adds the anchor last. So each distinct code row is decoded once,
    at anchor 0, and every window emits its anchor plus its row's deltas.
    The lists equal ``model_prefetch_lists(trace, predictor.predict_proba,
    …)`` for any K and C.
    """
    t_hist = config.history_len
    ba = block_address(trace.addrs)
    n = len(ba)
    out: list[list[int]] = [[] for _ in range(n)]
    if n < t_hist:
        return out
    seg = config.segmenter()
    codes = predictor.predict_head_codes(
        seg.segment_block_addresses(ba), seg.segment_pcs(trace.pcs), batch_size=batch_size
    )
    rows, inverse = np.unique(codes, axis=0, return_inverse=True)
    deltas = decode_bitmap_probs(
        predictor.head_proba(rows), np.zeros(len(rows), dtype=np.int64),
        threshold, max_degree, decode,
    )
    anchors = ba[t_hist - 1 :].tolist()
    out[t_hist - 1 :] = [
        [a + d for d in deltas[j]] for a, j in zip(anchors, inverse.reshape(-1).tolist())
    ]
    return out


class NeuralPrefetcher(Prefetcher):
    """A trained predictor deployed as an LLC prefetcher.

    Parameters mirror the paper's Table IX entries, e.g.::

        NeuralPrefetcher(model, pp, name="TransFetch",
                         latency_cycles=4500, storage_bytes=13.8e6)
        NeuralPrefetcher(model, pp, name="TransFetch-I", latency_cycles=0)
    """

    def __init__(
        self,
        model,
        config: PreprocessConfig,
        name: str,
        latency_cycles: int,
        storage_bytes: float = 0.0,
        threshold: float = 0.5,
        max_degree: int = 2,
        decode: str = "distance",
    ):
        self.model = model
        self.config = config
        self.name = name
        self.latency_cycles = int(latency_cycles)
        self.storage_bytes = float(storage_bytes)
        self.threshold = float(threshold)
        self.max_degree = int(max_degree)
        self.decode = decode

    def prefetch_lists(self, trace: MemoryTrace) -> list[list[int]]:
        return model_prefetch_lists(
            trace,
            self.model.predict_proba,
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
    ):
        """Online serving engine (micro-batched) for this predictor.

        With ``adapt`` (``True`` or an :class:`~repro.runtime.adaptation.
        AdaptationConfig`) the engine adapts online: on drift a *copy* of the
        NN is fine-tuned on the recent access window and hot-swapped in
        (:func:`~repro.runtime.adaptation.nn_refit`); ``refit`` overrides
        the recipe.
        """
        from repro.runtime.microbatch import MicroBatcher

        engine = MicroBatcher(
            self.model.predict_proba,
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
            return engine
        from repro.runtime.adaptation import AdaptationConfig, AdaptiveStream, nn_refit

        cfg = adapt if isinstance(adapt, AdaptationConfig) else AdaptationConfig()
        if refit is None:
            refit = nn_refit(self.model, self.config, max_samples=cfg.refit_samples)
        return AdaptiveStream(engine, refit, cfg, name=self.name)

    def multistream(self, batch_size: int = 64, max_wait: int | None = None):
        """Shared-model engine serving N concurrent streams (one NN, N tenants)."""
        from repro.runtime.multistream import MultiStreamEngine

        return MultiStreamEngine(
            self.model.predict_proba,
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
        """Multi-process serving for the NN baselines.

        NNs have no tabular state to map zero-copy, so each worker process
        deserializes a private copy of the model (``model_copies == W`` in
        :meth:`~repro.runtime.sharded.ShardedEngine.stats` — the storage
        contrast with DART's shared segment is the point of the comparison).
        The elastic lifecycle (``open_stream`` / ``close_stream`` /
        ``migrate_stream`` / ``rescale``) works identically: stream snapshots
        are model-independent featurization state, so NN streams migrate
        bit-identically too (a worker spawned by ``rescale`` re-deserializes
        its private model copy).
        """
        from repro.runtime.sharded import ShardedEngine

        return ShardedEngine(
            self.model,
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
