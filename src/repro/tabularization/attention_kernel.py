"""Attention tabularization kernel (paper Sec. V-B).

Attention has no fixed weight matrix, so the kernel tabularizes *pairwise*
prototype products and quantizes twice:

1. learn K prototypes each for Q rows and K rows (subspaces over ``D_k``) and
   precompute the **QK table** ``h[c, i, j] = P_q[c,i] . P_k[c,j]`` (Eq. 12);
2. reproduce the approximated ``Q̃K̃ᵀ`` on the training set (Eq. 13), learn K
   prototypes of its rows (subspaces over ``T``) — the second quantization
   that caps table depth at ``2K²`` instead of ``K³``;
3. fold scaling and the elementwise-sigmoid activation surrogate (Eq. 14)
   into those prototypes, and precompute the **QKV table** against prototypes
   of the rows of ``Vᵀ``.

A query (Eq. 13/15) is: encode Q and K → gather/sum the QK table → encode the
result and Vᵀ → gather/sum the QKV table. No matrix multiplication, scaling,
or activation evaluation happens at query time.

Note on the activation: the paper's NN uses row-softmax, but a per-subspace
prototype cannot see the whole row, so Eq. 14 substitutes an elementwise
``sigmoid(x / sqrt(D_k))``. We implement that faithfully; downstream
fine-tuning (Eq. 26) absorbs part of the surrogate error, and a
sigmoid-attention student is available as an ablation.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.quantization.pq import ProductQuantizer, pairwise_prototype_table
from repro.utils.rng import spawn_rngs


def _pair_lookup(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``out[b, i, j] = sum_c table[c, rows[c, b, i], cols[c, b, j]]``.

    ``table`` is ``(C, K, K)``; ``rows``/``cols`` are ``(C, B, I)``/``(C, B, J)``
    codes. Entry ``(r, s)`` of ``table[c]`` is element ``r·K + s`` of its
    flattened view, so each subspace is one ``take``, added in place in
    subspace order, as the single-query fast path's ``np.add.reduce(axis=0)``
    sums them.
    """
    k = table.shape[1]

    def gather(c):
        return table[c].reshape(-1).take(rows[c][:, :, None] * k + cols[c][:, None, :])

    out = gather(0)
    for c in range(1, table.shape[0]):
        out += gather(c)
    return out


class TabularAttention:
    """Scaled-dot-product attention as two quantizations + two tables."""

    def __init__(
        self,
        pq_q: ProductQuantizer,
        pq_k: ProductQuantizer,
        pq_qk: ProductQuantizer,
        pq_v: ProductQuantizer,
        qk_table: np.ndarray,
        qkv_table: np.ndarray,
        head_dim: int,
        seq_len: int,
    ):
        self.pq_q = pq_q
        self.pq_k = pq_k
        self.pq_qk = pq_qk
        self.pq_v = pq_v
        self.qk_table = qk_table  # (C_k, K, K)
        self.qkv_table = qkv_table  # (C_t, K, K)
        self.head_dim = int(head_dim)
        self.seq_len = int(seq_len)

    # ------------------------------------------------------------------ train
    @classmethod
    def train(
        cls,
        q_train: np.ndarray,
        k_train: np.ndarray,
        v_train: np.ndarray,
        n_prototypes: int,
        n_subspaces_k: int,
        n_subspaces_t: int | None = None,
        encoder: str = "exact",
        rng=0,
    ) -> "TabularAttention":
        """Train the kernel from attention inputs ``(N, T, D_k)`` each.

        ``n_subspaces_k`` (C_k) splits the ``D_k`` axis for Q/K prototypes;
        ``n_subspaces_t`` (C_t, default equal — the paper sets C_k = C_t = C)
        splits the ``T`` axis for the second quantization and V columns.
        """
        q_train = np.asarray(q_train, dtype=np.float64)
        k_train = np.asarray(k_train, dtype=np.float64)
        v_train = np.asarray(v_train, dtype=np.float64)
        if q_train.shape != k_train.shape or q_train.shape != v_train.shape:
            raise ValueError("Q, K, V training sets must share a shape")
        if q_train.ndim != 3:
            raise ValueError(f"expected (N, T, D_k), got {q_train.shape}")
        n, t, dk = q_train.shape
        if n_subspaces_t is None:
            n_subspaces_t = n_subspaces_k
        r_q, r_k, r_qk, r_v = spawn_rngs(rng, 4)
        # Step 1: prototypes of Q and K rows; pairwise QK table (Eq. 12).
        pq_q = ProductQuantizer(dk, n_subspaces_k, n_prototypes, encoder=encoder, rng=r_q)
        pq_k = ProductQuantizer(dk, n_subspaces_k, n_prototypes, encoder=encoder, rng=r_k)
        pq_q.fit(q_train.reshape(-1, dk))
        pq_k.fit(k_train.reshape(-1, dk))
        qk_table = pairwise_prototype_table(pq_q.prototypes, pq_k.prototypes)
        # Step 2: reproduce Q̃K̃ᵀ (N, T, T) through the table (Eq. 13), quantize
        # its rows.
        qk_hat = _pair_lookup(qk_table, *cls._encode_qk(pq_q, pq_k, q_train, k_train))
        pq_qk = ProductQuantizer(t, n_subspaces_t, n_prototypes, encoder=encoder, rng=r_qk)
        pq_qk.fit(qk_hat.reshape(-1, t))
        # Step 3: fold scale + sigmoid into the prototypes (Eq. 14) and take
        # pairwise products with prototypes of Vᵀ rows (columns of V).
        processed = F.sigmoid(pq_qk.prototypes / np.sqrt(dk))  # (C_t, K, V_t)
        pq_v = ProductQuantizer(t, n_subspaces_t, n_prototypes, encoder=encoder, rng=r_v)
        v_cols = np.ascontiguousarray(v_train.transpose(0, 2, 1)).reshape(-1, t)
        pq_v.fit(v_cols)
        qkv_table = pairwise_prototype_table(processed, pq_v.prototypes)
        return cls(pq_q, pq_k, pq_qk, pq_v, qk_table, qkv_table, dk, t)

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _encode_qk(
        pq_q: ProductQuantizer, pq_k: ProductQuantizer, q: np.ndarray, k: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(C_k, B, T)`` Q and K codes for ``(B, T, D_k)`` inputs."""
        b, t, dk = q.shape
        iq = pq_q.encode(q.reshape(-1, dk)).T.reshape(-1, b, t)
        ik = pq_k.encode(k.reshape(-1, dk)).T.reshape(-1, b, t)
        return iq, ik

    # ------------------------------------------------------------------ query
    def query(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Lookup-only attention for ``(B, T, D_k)`` inputs (Eq. 15)."""
        b, t, dk = q.shape
        if t != self.seq_len or dk != self.head_dim:
            raise ValueError(
                f"query shape (T={t}, Dk={dk}) differs from training "
                f"(T={self.seq_len}, Dk={self.head_dim})"
            )
        return self.query_codes(*self._encode_qk(self.pq_q, self.pq_k, q, k), v)

    def query_codes(self, iq: np.ndarray, ik: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`query` from ready ``(C_k, B, T)`` Q and K codes.

        The codes are what ``pq_q`` / ``pq_k`` give the rows of Q and K; an
        exact code transition (``TabularMSA.code_transition``) supplies them
        without an encode. ``v`` is ``(B, T, D_k)``.
        """
        b, t, dk = v.shape
        qk_hat = _pair_lookup(self.qk_table, iq, ik)
        iqk = self.pq_qk.encode(qk_hat.reshape(-1, t)).T.reshape(-1, b, t)
        v_cols = np.ascontiguousarray(v.transpose(0, 2, 1)).reshape(-1, t)
        iv = self.pq_v.encode(v_cols).T.reshape(-1, b, dk)
        return _pair_lookup(self.qkv_table, iqk, iv)

    # ------------------------------------------------------------------ costs
    @property
    def n_prototypes(self) -> int:
        return self.pq_q.n_prototypes

    @property
    def n_subspaces_k(self) -> int:
        return self.pq_q.n_subspaces

    @property
    def n_subspaces_t(self) -> int:
        return self.pq_qk.n_subspaces

    def latency_cycles(self) -> float:
        """Eq. 17: two encode+lookup+aggregate rounds."""
        k = self.n_prototypes
        return float(
            2 * np.log2(k) + np.log2(self.n_subspaces_k) + np.log2(self.n_subspaces_t) + 2
        )

    def storage_bits(self, seq_len: int, data_bits: int = 32) -> float:
        """Eq. 19: four encodings + two K² tables."""
        k, ck, ct = self.n_prototypes, self.n_subspaces_k, self.n_subspaces_t
        enc = (2 * seq_len * ck + seq_len * ct + self.head_dim * ct) * np.log2(k)
        tables = (k * k) * (ck + ct) * data_bits
        return enc + tables

    def ops(self, seq_len: int) -> float:
        """Eq. 21: four encodings + two aggregations (paper-exact)."""
        k, ck, ct = self.n_prototypes, self.n_subspaces_k, self.n_subspaces_t
        enc = (2 * seq_len * ck + seq_len * ct + self.head_dim * ct) * np.log2(k)
        agg = seq_len**2 * np.log2(ck) + self.head_dim**2 * np.log2(ct)
        return enc + agg
