"""Future-work prototype (paper Sec. VIII): fuse multiple layers into one table.

The paper's conclusion proposes "converting multiple layers into a single
table to further reduce latency, storage, and operations". This module
implements that idea for the FFN block: instead of two linear kernels with a
ReLU in between (two encode+lookup rounds), a **fused table** maps input
prototypes straight to the block's *output*::

    table[c, k, :] = share_c * FFN(P[c, k])      (evaluated through the NN)

Query = one encode + one lookup + aggregate — half the latency of the
two-kernel path. The catch (measured honestly in ``bench_ablations``): the
FFN is nonlinear, and a sum of per-subspace contributions cannot represent
``f(sum of parts)`` exactly, so accuracy drops as C grows; with C=1 the fused
table is exactly nearest-prototype function approximation.

This is the *approximate* variant, kept for the ablation and not served.
The served hierarchy fuses exactly instead
(:mod:`repro.tabularization.transitions`): it keeps both FFN tables but maps
each FFN1 code tuple to its FFN2 codes, so the FFN2 encode becomes a gather
with no change to any output bit.
"""

from __future__ import annotations

import numpy as np

from repro.quantization.pq import ProductQuantizer, lookup_aggregate


class FusedFunctionTable:
    """Single-table approximation of an arbitrary row-wise function."""

    def __init__(self, pq: ProductQuantizer, table: np.ndarray, in_dim: int, out_dim: int):
        self.pq = pq
        self.table = table  # (C, K, D_out)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    @classmethod
    def train(
        cls,
        fn,
        x_train: np.ndarray,
        in_dim: int,
        out_dim: int,
        n_prototypes: int,
        n_subspaces: int = 1,
        encoder: str = "exact",
        rng=0,
    ) -> "FusedFunctionTable":
        """Build a fused table for ``fn`` (any row-wise callable, e.g. an FFN).

        For ``C == 1`` entries are ``fn(prototype)`` — exact nearest-prototype
        approximation. For ``C > 1`` each subspace contributes
        ``fn(prototype embedded at its slice, zero elsewhere) / something`` is
        *not* well defined for nonlinear ``fn``; instead we use the residual
        decomposition: subspace 0 holds ``fn(mean-completed prototype)`` and
        later subspaces hold first-order corrections measured on the training
        set. This keeps the query a pure lookup+sum while staying honest about
        the approximation (see bench_ablations for the accuracy cost).
        """
        x2d = np.asarray(x_train, dtype=np.float64).reshape(-1, in_dim)
        pq = ProductQuantizer(in_dim, n_subspaces, n_prototypes, encoder=encoder, rng=rng).fit(x2d)
        c, k = pq.n_subspaces, pq.n_prototypes
        table = np.zeros((c, k, out_dim))
        mean = x2d.mean(axis=0)
        mean_pad = np.zeros(pq.padded_dim)
        mean_pad[:in_dim] = mean
        sub = pq.subdim
        if c == 1:
            protos = pq.prototypes[0][:, :in_dim]
            table[0] = fn(protos)
        else:
            # Subspace 0: fn evaluated at (prototype slice 0, mean elsewhere).
            # Subspaces c>0: correction fn(mean with slice c swapped) - fn(mean).
            base = fn(mean[None, :])[0]
            for ci in range(c):
                probe = np.tile(mean_pad, (k, 1))
                probe[:, ci * sub : (ci + 1) * sub] = pq.prototypes[ci]
                vals = fn(probe[:, :in_dim])
                if ci == 0:
                    table[ci] = vals
                else:
                    table[ci] = vals - base[None, :]
        return cls(pq, table, in_dim, out_dim)

    def query(self, x: np.ndarray) -> np.ndarray:
        lead = x.shape[:-1]
        codes = self.pq.encode(x.reshape(-1, self.in_dim))
        return lookup_aggregate(self.table, codes).reshape(*lead, self.out_dim)

    def make_row_plan(self, n_rows: int):
        """Preallocated fixed-row-count query plan (the single-query fast path).

        The fused table shares the linear kernel's ``(pq, table)`` layout, so
        the same :class:`~repro.tabularization.fastpath.RowPlan` applies.
        """
        from repro.tabularization.fastpath import RowPlan

        return RowPlan(self, n_rows)

    def latency_cycles(self) -> float:
        """One encode+lookup+aggregate round (vs two for the unfused pair)."""
        return float(np.log2(self.pq.n_prototypes) + np.log2(self.pq.n_subspaces) + 1)

    def storage_bits(self, seq_len: int, data_bits: int = 32) -> float:
        k, c = self.pq.n_prototypes, self.pq.n_subspaces
        return seq_len * c * np.log2(k) + self.out_dim * k * c * data_bits
