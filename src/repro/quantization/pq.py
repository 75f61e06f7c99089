"""Product quantizer: subspace splitting, prototype learning, encoding, tables.

Implements the training (Eqs. 5–6) and query (Eqs. 7–8) halves of PQ:

* :class:`ProductQuantizer` — learns ``K`` prototypes in each of ``C``
  subspaces of the input dimension, and encodes vectors to ``(n, C)`` index
  arrays with either exact nearest-prototype search (``encoder="exact"``) or
  the log2(K) hash tree (``encoder="hash"``). The exact encoder runs the
  tiled kernel :func:`~repro.quantization.kmeans.nearest_into` on each
  subspace's column slice of the unpadded input, with the fused operand the
  quantizer caches (:meth:`ProductQuantizer.exact_operands`); the kernel's
  zero columns do the subspace padding. The single-query fast path's
  ``EncodePlan`` takes the same operands, so a row gets the same codes
  whether it is served alone or in a batch.
* :func:`build_weight_table` — precomputes prototype-times-weight dot products
  into a ``(C, K, D_out)`` table, optionally folding the bias into subspace 0
  (the paper's ``b_r`` trick, Eq. 10).
* :func:`lookup_aggregate` — the query-side gather+sum (Eq. 8 / Eq. 11).
* :func:`pairwise_prototype_table` — prototype-pair dot products for the
  attention kernel's QK table (Eq. 12).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.quantization.encoders import HashTreeEncoder
from repro.quantization.kmeans import kmeans_fit, nearest_into, nearest_operands
from repro.utils.rng import new_rng, spawn_rngs

#: Serializes ``exact_operands`` misses across threads.
_OPERANDS_LOCK = threading.Lock()


class ProductQuantizer:
    """Learn and apply a per-subspace vector quantizer.

    Parameters
    ----------
    dim:
        Input vector dimension ``D``.
    n_subspaces:
        Number of subspaces ``C``. ``D`` is zero-padded up to a multiple of
        ``C`` so each subspace has ``V = ceil(D / C)`` dims; padding dims are
        constant zero so they never affect distances or dot products.
    n_prototypes:
        Prototypes per subspace ``K``.
    encoder:
        ``"exact"`` (argmin over prototypes; used for accuracy experiments) or
        ``"hash"`` (Maddness hash tree; the paper's log(K) latency encoder).
    """

    def __init__(
        self,
        dim: int,
        n_subspaces: int,
        n_prototypes: int,
        encoder: str = "exact",
        rng=0,
        kmeans_iters: int = 15,
        max_train_rows: int = 32768,
    ):
        if encoder not in ("exact", "hash"):
            raise ValueError(f"unknown encoder {encoder!r}")
        self.max_train_rows = int(max_train_rows)
        self.dim = int(dim)
        self.n_subspaces = int(n_subspaces)
        self.n_prototypes = int(n_prototypes)
        if self.n_subspaces <= 0 or self.n_prototypes <= 0:
            raise ValueError("n_subspaces and n_prototypes must be positive")
        if self.n_subspaces > self.dim:
            raise ValueError(
                f"n_subspaces {self.n_subspaces} exceeds vector dim {self.dim}"
            )
        self.encoder_kind = encoder
        self.subdim = -(-self.dim // self.n_subspaces)  # ceil
        self.padded_dim = self.subdim * self.n_subspaces
        self.kmeans_iters = int(kmeans_iters)
        self._rng = new_rng(rng)
        #: learned prototypes, shape (C, K, subdim)
        self.prototypes: np.ndarray | None = None
        self._hash_trees: list[HashTreeEncoder] | None = None
        # exact_operands() cache: (the prototypes array it was built from, operands)
        self._operands: tuple = (None, None)

    # ------------------------------------------------------------------ util
    def _pad(self, x: np.ndarray) -> np.ndarray:
        """Zero-pad the feature axis up to ``padded_dim``."""
        if x.shape[-1] == self.padded_dim:
            return x
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {x.shape[-1]}")
        pad = self.padded_dim - self.dim
        return np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, pad)])

    def _split(self, x2d: np.ndarray) -> np.ndarray:
        """(n, padded_dim) -> (C, n, subdim) view-based reshape."""
        n = x2d.shape[0]
        return (
            self._pad(x2d).reshape(n, self.n_subspaces, self.subdim).transpose(1, 0, 2)
        )

    # ------------------------------------------------------------------- fit
    def fit(self, x2d: np.ndarray) -> "ProductQuantizer":
        """Learn prototypes from training rows ``x2d`` of shape ``(n, D)``."""
        x2d = np.asarray(x2d, dtype=np.float64)
        if x2d.ndim != 2:
            raise ValueError(f"fit expects a 2-D array, got shape {x2d.shape}")
        if x2d.shape[0] > self.max_train_rows:
            # Uniform temporal subsample: prototype quality saturates well
            # below this count, and k-means cost is linear in rows.
            sel = np.linspace(0, x2d.shape[0] - 1, self.max_train_rows).astype(np.int64)
            x2d = x2d[sel]
        subs = self._split(x2d)  # (C, n, V)
        protos = np.zeros((self.n_subspaces, self.n_prototypes, self.subdim))
        rngs = spawn_rngs(self._rng, self.n_subspaces)
        if self.encoder_kind == "hash":
            self._hash_trees = []
            for c in range(self.n_subspaces):
                tree = HashTreeEncoder(self.n_prototypes).fit(subs[c])
                self._hash_trees.append(tree)
                protos[c] = tree.prototypes
        else:
            for c in range(self.n_subspaces):
                centers, _, _ = kmeans_fit(
                    subs[c], self.n_prototypes, rng=rngs[c], max_iters=self.kmeans_iters
                )
                protos[c] = centers
        self.prototypes = protos
        return self

    # ---------------------------------------------------------------- encode
    def exact_operands(self) -> list[np.ndarray]:
        """Per-subspace fused ``(subdim+1, K)`` operands of the exact encoder:
        the rows ``-2·Pᵀ``, then ``‖P‖²`` (``kmeans.nearest_operands``).

        Built on first use and cached until ``prototypes`` is rebound, as
        ``fit`` and ``load_tabular_model`` do. They are derived data and are
        never serialized. Concurrent first calls build them once: a miss
        takes a lock and checks again; a hit takes no lock.
        """
        protos = self.prototypes
        if protos is None:
            raise RuntimeError("ProductQuantizer not fitted")
        src, operands = self._operands
        if src is not protos:
            with _OPERANDS_LOCK:
                src, operands = self._operands
                if src is not protos:
                    operands = [nearest_operands(p) for p in protos]
                    self._operands = (protos, operands)
        return operands

    def encode(self, x2d: np.ndarray) -> np.ndarray:
        """Encode rows to prototype indices; returns ``(n, C)`` intp.

        The result is the transpose of a ``(C, n)`` array, one row per
        subspace, which is the layout the table gathers index with.
        """
        if self.prototypes is None:
            raise RuntimeError("ProductQuantizer not fitted")
        x2d = np.asarray(x2d, dtype=np.float64)
        squeeze = x2d.ndim == 1
        if squeeze:
            x2d = x2d[None, :]
        if self.encoder_kind == "hash":
            subs = self._split(x2d)  # (C, n, V)
            codes = np.empty(subs.shape[:2], dtype=np.intp)
            for c, tree in enumerate(self._hash_trees):
                codes[c] = tree.encode(subs[c])
        else:
            width = x2d.shape[-1]
            if width not in (self.dim, self.padded_dim):
                raise ValueError(f"expected dim {self.dim}, got {width}")
            codes = np.empty((self.n_subspaces, x2d.shape[0]), dtype=np.intp)
            v = self.subdim
            for c, op in enumerate(self.exact_operands()):
                # The last subspace's slice may be narrower than ``subdim``;
                # the kernel's zero columns pad it.
                nearest_into(x2d[:, c * v : (c + 1) * v], op, codes[c])
        return codes[:, 0] if squeeze else codes.T

    def reconstruct(self, codes: np.ndarray) -> np.ndarray:
        """Rebuild (quantized) vectors from codes — used in tests/analysis."""
        if self.prototypes is None:
            raise RuntimeError("ProductQuantizer not fitted")
        codes = np.asarray(codes)
        parts = self.prototypes[np.arange(self.n_subspaces)[None, :], codes]
        return parts.reshape(codes.shape[0], self.padded_dim)[:, : self.dim]

    def quantization_error(self, x2d: np.ndarray) -> float:
        """Mean squared reconstruction error of ``x2d`` under this quantizer."""
        recon = self.reconstruct(self.encode(x2d))
        return float(((np.asarray(x2d, dtype=np.float64) - recon) ** 2).mean())

    # ----------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        if self.prototypes is None:
            raise RuntimeError("ProductQuantizer not fitted")
        state = {"prototypes": self.prototypes.copy()}
        if self.encoder_kind == "hash":
            for c, tree in enumerate(self._hash_trees):
                for lvl in range(tree.depth):
                    state[f"tree/{c}/dims/{lvl}"] = tree.split_dims[lvl].copy()
                    state[f"tree/{c}/ths/{lvl}"] = tree.thresholds[lvl].copy()
        return state


def build_weight_table(
    pq: ProductQuantizer, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Precompute ``table[c, k, o] = W[o] . P[c, k]`` (+ bias fold), Eq. 10.

    ``weight`` is ``(D_out, D_in)`` in the paper's convention. The bias is
    folded into subspace 0, so query-time aggregation adds it exactly once.
    Returns ``(C, K, D_out)``.
    """
    if pq.prototypes is None:
        raise RuntimeError("ProductQuantizer not fitted")
    d_out, d_in = weight.shape
    if d_in != pq.dim:
        raise ValueError(f"weight in_dim {d_in} != quantizer dim {pq.dim}")
    w_pad = np.zeros((d_out, pq.padded_dim))
    w_pad[:, :d_in] = weight
    w_subs = w_pad.reshape(d_out, pq.n_subspaces, pq.subdim)
    # table[c, k, o] = sum_v P[c, k, v] * W[o, c, v]
    table = np.einsum("ckv,ocv->cko", pq.prototypes, w_subs, optimize=True)
    if bias is not None:
        table[0] += np.asarray(bias, dtype=np.float64)[None, :]
    return np.ascontiguousarray(table)


def lookup_aggregate(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Query-side gather and subspace sum (Eq. 8 / Eq. 11).

    ``table`` is ``(C, K, D_out)``, ``codes`` is ``(n, C)``; the result is
    ``(n, D_out)``. Each subspace is one vectorized ``take`` added in place
    (the hardware analogue is C parallel lookups + a log(C) adder tree), so
    no ``(n, C, D_out)`` gather is materialized. The subspaces are summed in
    order, as the single-query fast path's ``np.add.reduce(axis=0)`` sums
    them.
    """
    out = table[0].take(codes[:, 0], 0)
    for c in range(1, table.shape[0]):
        out += table[c].take(codes[:, c], 0)
    return out


def pairwise_prototype_table(
    protos_a: np.ndarray, protos_b: np.ndarray
) -> np.ndarray:
    """Pairwise dot products of two prototype sets per subspace (Eq. 12).

    Inputs are ``(C, K, V)``; the result ``(C, K, K)`` holds
    ``table[c, i, j] = P_a[c, i] . P_b[c, j]``.
    """
    if protos_a.shape != protos_b.shape:
        raise ValueError(
            f"prototype shapes differ: {protos_a.shape} vs {protos_b.shape}"
        )
    return np.einsum("civ,cjv->cij", protos_a, protos_b, optimize=True)
