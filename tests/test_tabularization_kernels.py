"""Linear kernel, attention kernel, sigmoid LUT, LayerNorm op (Sec. V)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layernorm import LayerNorm
from repro.nn.linear import Linear
from repro.tabularization import (
    LayerNormOp,
    SigmoidLUT,
    TabularAttention,
    TabularLinear,
)


# ------------------------------------------------------------- linear kernel
def _clustered(rng, n, d, k=8, spread=0.1):
    centers = rng.standard_normal((k, d)) * 2
    return centers[rng.integers(0, k, size=n)] + spread * rng.standard_normal((n, d))


def test_tabular_linear_approximates(rng):
    lin = Linear(16, 6, rng=0)
    x = _clustered(rng, 1000, 16)
    tab = TabularLinear.train(lin, x, n_prototypes=64, n_subspaces=4, rng=1)
    exact = lin.forward(x)
    approx = tab.query(x)
    rel = np.abs(approx - exact).mean() / np.abs(exact).mean()
    assert rel < 0.25


def test_tabular_linear_handles_3d_inputs(rng):
    lin = Linear(8, 4, rng=0)
    x3 = _clustered(rng, 600, 8).reshape(30, 20, 8)
    tab = TabularLinear.train(lin, x3, 32, 2, rng=1)
    out = tab.query(x3)
    assert out.shape == (30, 20, 4)
    # flattening must not change results (rows are independent)
    assert np.allclose(out.reshape(-1, 4), tab.query(x3.reshape(-1, 8)))


def test_tabular_linear_bias_is_folded(rng):
    lin = Linear(8, 4, rng=0)
    lin.bias.value[:] = 100.0
    x = _clustered(rng, 500, 8)
    tab = TabularLinear.train(lin, x, 32, 2, rng=1)
    approx = tab.query(x)
    assert abs(approx.mean() - 100.0) < 5.0  # bias applied exactly once


def test_tabular_linear_costs_match_paper_formulas():
    lin = Linear(32, 96, rng=0)
    x = np.random.default_rng(0).standard_normal((500, 32))
    tab = TabularLinear.train(lin, x, 128, 2, rng=1)
    assert tab.latency_cycles() == 7 + 1 + 1  # Eq. 16
    t = 16
    assert tab.storage_bits(t) == t * 2 * 7 + 96 * 128 * 2 * 32  # Eq. 18
    assert tab.ops(t) == t * 2 * 7 + t * 96 * 1  # Eq. 20 (log2(2)=1)


def test_tabular_linear_error_shrinks_with_k(rng):
    lin = Linear(12, 5, rng=0)
    x = _clustered(rng, 800, 12, k=16, spread=0.3)
    exact = lin.forward(x)
    errs = []
    for k in (8, 32, 128):
        tab = TabularLinear.train(lin, x, k, 2, rng=1)
        errs.append(float(np.abs(tab.query(x) - exact).mean()))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------- attention kernel
def _qkv_data(rng, n=300, t=8, dk=8):
    # Cluster-structured Q/K/V (realistic activations are clusterable).
    q = _clustered(rng, n * t, dk, k=12, spread=0.2).reshape(n, t, dk)
    k = _clustered(rng, n * t, dk, k=12, spread=0.2).reshape(n, t, dk)
    v = _clustered(rng, n * t, dk, k=12, spread=0.2).reshape(n, t, dk)
    return q, k, v


def _sigmoid_attention_reference(q, k, v):
    dk = q.shape[-1]
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
    return F.sigmoid(scores) @ v


def test_attention_kernel_approximates_sigmoid_attention(rng):
    q, k, v = _qkv_data(rng)
    kern = TabularAttention.train(q, k, v, n_prototypes=128, n_subspaces_k=2, rng=0)
    approx = kern.query(q, k, v)
    exact = _sigmoid_attention_reference(q, k, v)
    rel = np.abs(approx - exact).mean() / (np.abs(exact).mean() + 1e-12)
    # Double quantization on weakly-clustered synthetic data: coarse but
    # clearly correlated (real activations cluster far better; see converter
    # tests where end-to-end F1 survives).
    assert rel < 0.45


def test_attention_kernel_error_shrinks_with_k(rng):
    q, k, v = _qkv_data(rng)
    exact = _sigmoid_attention_reference(q, k, v)
    errs = []
    for n_proto in (8, 32, 128):
        kern = TabularAttention.train(q, k, v, n_proto, 2, rng=0)
        errs.append(float(np.abs(kern.query(q, k, v) - exact).mean()))
    assert errs[0] > errs[2]
    assert errs[1] > errs[2]


def test_attention_kernel_table_shapes(rng):
    q, k, v = _qkv_data(rng, n=100, t=8, dk=8)
    kern = TabularAttention.train(q, k, v, 16, 2, rng=0)
    assert kern.qk_table.shape == (2, 16, 16)  # (C_k, K, K) — Eq. 12
    assert kern.qkv_table.shape == (2, 16, 16)  # (C_t, K, K) — Eq. 14
    # 2 K^2-depth tables: the paper's "2K^2 instead of K^3" headline
    assert kern.qk_table.size + kern.qkv_table.size == 2 * 2 * 16**2


def test_attention_kernel_rejects_mismatched_query(rng):
    q, k, v = _qkv_data(rng, n=50, t=8, dk=8)
    kern = TabularAttention.train(q, k, v, 16, 2, rng=0)
    with pytest.raises(ValueError):
        kern.query(q[:, :4], k[:, :4], v[:, :4])  # wrong T


def test_attention_kernel_costs_match_paper_formulas(rng):
    q, k, v = _qkv_data(rng, n=50, t=16, dk=16)
    kern = TabularAttention.train(q, k, v, 128, 2, rng=0)
    assert kern.latency_cycles() == 2 * (7 + 1 + 1)  # Eq. 17
    t, dk = 16, 16
    expect_storage = (3 * t + dk) * 2 * 7 + 2 * 128 * 128 * 2 * 32
    assert kern.storage_bits(t) == expect_storage  # Eq. 19
    expect_ops = (3 * t + dk) * 2 * 7 + (t * t + dk * dk) * 1
    assert kern.ops(t) == expect_ops  # Eq. 21


# ------------------------------------------------------------------ LUT & LN
def test_sigmoid_lut_accuracy():
    lut = SigmoidLUT(n_entries=1024)
    assert lut.max_error() < 5e-3
    x = np.array([-100.0, 0.0, 100.0])
    y = lut.query(x)
    assert y[0] < 1e-3 and abs(y[1] - 0.5) < 1e-2 and y[2] > 0.999


def test_sigmoid_lut_resolution_tradeoff():
    coarse = SigmoidLUT(n_entries=32).max_error()
    fine = SigmoidLUT(n_entries=2048).max_error()
    assert fine < coarse


def test_sigmoid_lut_validation():
    with pytest.raises(ValueError):
        SigmoidLUT(n_entries=1)
    with pytest.raises(ValueError):
        SigmoidLUT(x_min=2.0, x_max=1.0)


def test_layernorm_op_matches_nn_layer(rng):
    ln = LayerNorm(8)
    ln.gamma.value[:] = rng.standard_normal(8)
    ln.beta.value[:] = rng.standard_normal(8)
    op = LayerNormOp.from_layer(ln)
    x = rng.standard_normal((10, 8))
    assert np.allclose(op.query(x), ln.forward(x))
    assert op.storage_bits == 2 * 8 * 32


def _layernorm_reference(op, x):
    """The two-mean expression ``LayerNormOp.query`` used to evaluate."""
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(
        x.var(-1, keepdims=True) + op.eps
    ) * op.gamma + op.beta


@pytest.mark.parametrize("d", [8, 32, 33, 129])  # 129 crosses the pairwise block
@pytest.mark.parametrize("lead", [(10,), (3, 16)])
def test_layernorm_op_bitwise_equals_reference_expression(d, lead):
    rng = np.random.default_rng(d)
    op = LayerNormOp(rng.standard_normal(d), rng.standard_normal(d), eps=1e-5)
    x = rng.standard_normal((*lead, d)) * 3.0 + 0.5
    ref = _layernorm_reference(op, x)
    assert np.array_equal(op.query(x), ref)
    stat = (*lead, 1)
    out = np.empty_like(x)
    got = op.query_into(x, np.empty(stat), np.empty(stat), np.empty_like(x), out)
    assert got is out
    assert np.array_equal(out, ref)
