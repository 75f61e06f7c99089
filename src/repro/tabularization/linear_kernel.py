"""Linear tabularization kernel (paper Sec. V-A).

Training (Eq. 10): learn ``K`` prototypes per subspace from the layer's input
rows, then precompute ``table[c, k, :] = W . P[c, k]`` with the bias folded
into subspace 0, so a query is encode → gather → sum with nothing else.

Query (Eq. 11): all ``T`` row vectors encode and look up independently
("embarrassingly parallel" in the paper); here that parallelism is expressed
as one vectorized gather over the flattened rows.

Cost accounting implements Eqs. 16 / 18 / 20 so the assembled model can report
the same latency/storage/ops the paper's Table V does.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.quantization.pq import ProductQuantizer, build_weight_table, lookup_aggregate


class TabularLinear:
    """A linear layer converted to prototype encoding + table lookups."""

    def __init__(self, pq: ProductQuantizer, table: np.ndarray, in_dim: int, out_dim: int):
        self.pq = pq
        self.table = table  # (C, K, D_out)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    # ------------------------------------------------------------------ train
    @classmethod
    def train(
        cls,
        layer: Linear,
        x_train: np.ndarray,
        n_prototypes: int,
        n_subspaces: int,
        encoder: str = "exact",
        rng=0,
    ) -> "TabularLinear":
        """Tabularize ``layer`` using its (possibly approximated) input rows.

        ``x_train`` may have any leading shape ``(..., D_in)``; rows across
        samples and sequence positions are pooled, exactly as the paper
        reshapes ``X̃`` from ``(N, T, D_I)`` to ``(N·T, D_I)``.
        """
        x2d = np.asarray(x_train, dtype=np.float64).reshape(-1, layer.in_dim)
        pq = ProductQuantizer(
            layer.in_dim, n_subspaces, n_prototypes, encoder=encoder, rng=rng
        ).fit(x2d)
        bias = layer.bias.value if layer.bias is not None else None
        table = build_weight_table(pq, layer.weight.value, bias)
        return cls(pq, table, layer.in_dim, layer.out_dim)

    # ---------------------------------------------------------------- refresh
    def rebuild(self, weight: np.ndarray, bias: np.ndarray | None = None) -> "TabularLinear":
        """Recompute the table for updated layer weights, keeping prototypes.

        The deployment refresh path: when the NN layer's weights drift (e.g.
        periodic online fine-tuning), only the ``(C, K, D_out)`` dot-product
        table needs recomputing — one small GEMM — because the prototypes
        describe the *input* distribution, which drifts on a much slower
        timescale. Modifies this kernel in place and returns it.
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != (self.out_dim, self.in_dim):
            raise ValueError(
                f"weight shape {weight.shape} != ({self.out_dim}, {self.in_dim})"
            )
        self.table = build_weight_table(self.pq, weight, bias)
        return self

    # ------------------------------------------------------------------ query
    def query(self, x: np.ndarray) -> np.ndarray:
        """Lookup-based affine map for inputs ``(..., D_in)``."""
        lead = x.shape[:-1]
        codes = self.pq.encode(x.reshape(-1, self.in_dim))
        out = lookup_aggregate(self.table, codes)
        return out.reshape(*lead, self.out_dim)

    # ------------------------------------------------------------------ costs
    @property
    def n_prototypes(self) -> int:
        return self.pq.n_prototypes

    @property
    def n_subspaces(self) -> int:
        return self.pq.n_subspaces

    def latency_cycles(self) -> float:
        """Eq. 16: ``log(K) + log(C) + 1`` under full parallelism."""
        return float(np.log2(self.n_prototypes) + np.log2(self.n_subspaces) + 1)

    def storage_bits(self, seq_len: int, data_bits: int = 32) -> float:
        """Eq. 18: encoding indices + table entries."""
        k, c = self.n_prototypes, self.n_subspaces
        return seq_len * c * np.log2(k) + self.out_dim * k * c * data_bits

    def ops(self, seq_len: int) -> float:
        """Eq. 20: encoding comparisons + aggregation adds (paper-exact)."""
        k, c = self.n_prototypes, self.n_subspaces
        return seq_len * c * np.log2(k) + seq_len * self.out_dim * np.log2(c)
