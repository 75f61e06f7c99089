"""Pass-through LayerNorm for the tabular model.

Algorithm 1 (line 18): LayerNorm is dimension-wise arithmetic without matrix
multiplication, so the tabular hierarchy keeps the original parameters and
operation. The cost model charges it ``L_ln`` cycles (Eq. 22); its storage is
the two parameter vectors.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layernorm import LayerNorm


class LayerNormOp:
    """Immutable inference-only LayerNorm built from a trained nn.LayerNorm."""

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
        self.gamma = np.asarray(gamma, dtype=np.float64).copy()
        self.beta = np.asarray(beta, dtype=np.float64).copy()
        self.eps = float(eps)
        self.dim = self.gamma.shape[0]

    @classmethod
    def from_layer(cls, layer: LayerNorm) -> "LayerNormOp":
        return cls(layer.gamma.value, layer.beta.value, layer.eps)

    def query(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        stat = x.shape[:-1] + (1,)
        return self.query_into(
            x, np.empty(stat), np.empty(stat), np.empty_like(x), np.empty_like(x)
        )

    def query_into(
        self,
        x: np.ndarray,
        mean_scratch: np.ndarray,
        var_scratch: np.ndarray,
        sq_scratch: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """``(x - mean) / sqrt(var + eps) * gamma + beta`` into ``out``.

        ``mean_scratch``/``var_scratch`` are ``(..., 1)`` keepdims buffers;
        ``sq_scratch`` and ``out`` match ``x``. The mean and variance run the
        ``np.add.reduce`` + divide sequences of NumPy's ``x.mean`` /
        ``x.var``, with ``x - mean`` formed once and reused for the variance
        and the numerator, so the result is bitwise that expression's. The
        fast path's ``_LayerNormPlan`` calls it on fixed buffers.
        """
        d = x.shape[-1]
        mean, var = mean_scratch, var_scratch
        np.add.reduce(x, axis=-1, keepdims=True, out=mean)
        np.true_divide(mean, d, mean)
        np.subtract(x, mean, out)  # the numerator, reused for the variance
        np.multiply(out, out, sq_scratch)
        np.add.reduce(sq_scratch, axis=-1, keepdims=True, out=var)
        np.true_divide(var, d, var)
        np.add(var, self.eps, var)
        np.sqrt(var, var)
        np.true_divide(out, var, out)
        np.multiply(out, self.gamma, out)
        np.add(out, self.beta, out)
        return out

    @property
    def storage_bits(self) -> int:
        return 2 * self.dim * 32
