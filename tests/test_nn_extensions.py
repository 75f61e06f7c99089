"""NN substrate extensions: learned positions, GELU/Tanh, LR schedulers —
gradients verified by finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    GELU,
    SGD,
    Adam,
    CosineAnnealingLR,
    ExponentialLR,
    LearnedPositionalEmbedding,
    StepLR,
    Tanh,
    WarmupCosineLR,
)
from repro.nn import functional as F

EPS = 1e-6
TOL = 1e-5


def _num_grad(fn, arr, idx):
    flat = arr.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + EPS
    lp = fn()
    flat[idx] = orig - EPS
    lm = fn()
    flat[idx] = orig
    return (lp - lm) / (2 * EPS)


# ------------------------------------------------------- learned positions
def test_learned_positions_add_and_shape():
    pe = LearnedPositionalEmbedding(6, 3, rng=0)
    x = np.zeros((2, 4, 3))
    out = pe.forward(x)
    np.testing.assert_allclose(out[0], pe.weight.value[:4])
    np.testing.assert_allclose(out[0], out[1])


def test_learned_positions_length_check():
    pe = LearnedPositionalEmbedding(4, 3)
    with pytest.raises(ValueError):
        pe.forward(np.zeros((1, 5, 3)))
    with pytest.raises(ValueError):
        LearnedPositionalEmbedding(0, 3)


def test_learned_positions_finite_difference():
    rng = np.random.default_rng(1)
    pe = LearnedPositionalEmbedding(6, 4, rng=3)
    x = rng.standard_normal((2, 5, 4))
    g_out = rng.standard_normal((2, 5, 4))

    def loss():
        return float((pe.forward(x) * g_out).sum())

    pe.forward(x)
    pe.zero_grad()
    g_in = pe.backward(g_out)
    np.testing.assert_allclose(g_in, g_out)  # additive: identity to input
    flat_grad = pe.weight.grad.reshape(-1)
    for j in rng.choice(pe.weight.value.size, size=10, replace=False):
        num = _num_grad(loss, pe.weight.value, j)
        assert abs(num - flat_grad[j]) < TOL * max(1.0, abs(num))


# ------------------------------------------------------------- activations
@pytest.mark.parametrize("act_cls", [GELU, Tanh])
def test_activation_input_gradient(act_cls):
    rng = np.random.default_rng(2)
    act = act_cls()
    x = rng.standard_normal((3, 4))
    g_out = rng.standard_normal((3, 4))
    act.forward(x)
    g_in = act.backward(g_out)

    def loss():
        return float((act.forward(x) * g_out).sum())

    for j in range(x.size):
        num = _num_grad(loss, x, j)
        assert abs(num - g_in.reshape(-1)[j]) < 1e-4 * max(1.0, abs(num))


def test_gelu_matches_definition_at_zero_and_large_x():
    g = GELU()
    assert g.forward(np.array([0.0]))[0] == 0.0
    np.testing.assert_allclose(g.forward(np.array([10.0]))[0], 10.0, rtol=1e-6)
    np.testing.assert_allclose(g.forward(np.array([-10.0]))[0], 0.0, atol=1e-6)


def test_tanh_range():
    t = Tanh()
    out = t.forward(np.linspace(-5, 5, 11))
    assert np.all(np.abs(out) < 1.0)


# -------------------------------------------------------------- schedulers
def _opt():
    from repro.nn import Parameter

    return SGD([Parameter(np.zeros(1))], lr=1.0)


def test_step_lr_decays_in_steps():
    sch = StepLR(_opt(), step_size=3, gamma=0.1)
    lrs = [sch.step() for _ in range(6)]
    assert lrs[0] == lrs[1] == 1.0
    assert lrs[2] == pytest.approx(0.1)
    assert lrs[5] == pytest.approx(0.01)


def test_exponential_lr():
    sch = ExponentialLR(_opt(), gamma=0.5)
    assert sch.step() == pytest.approx(0.5)
    assert sch.step() == pytest.approx(0.25)


def test_cosine_annealing_endpoints():
    sch = CosineAnnealingLR(_opt(), t_max=10, min_lr=0.1)
    lrs = [sch.step() for _ in range(12)]
    assert lrs[-1] == pytest.approx(0.1)  # clamps at min after t_max
    assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))  # monotone decay


def test_warmup_cosine_ramps_then_decays():
    sch = WarmupCosineLR(_opt(), warmup=4, t_max=12, min_lr=0.0)
    lrs = [sch.step() for _ in range(12)]
    assert lrs[0] == pytest.approx(0.25)
    assert lrs[3] == pytest.approx(1.0)  # end of warmup
    assert max(lrs) == pytest.approx(1.0)
    assert lrs[-1] == pytest.approx(0.0, abs=1e-12)


def test_scheduler_validation():
    with pytest.raises(ValueError):
        StepLR(_opt(), step_size=0)
    with pytest.raises(ValueError):
        CosineAnnealingLR(_opt(), t_max=0)
    with pytest.raises(ValueError):
        WarmupCosineLR(_opt(), warmup=10, t_max=5)


def test_scheduler_drives_optimizer_lr():
    opt = _opt()
    sch = ExponentialLR(opt, gamma=0.9)
    sch.step()
    assert opt.lr == pytest.approx(0.9)
    assert sch.current_lr == opt.lr


def test_scheduler_works_with_adam():
    from repro.nn import Parameter

    p = Parameter(np.ones(3))
    opt = Adam([p], lr=0.01)
    sch = CosineAnnealingLR(opt, t_max=5)
    p.grad[:] = 1.0
    for _ in range(5):
        opt.step()
        sch.step()
    assert opt.lr == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------------- properties
@settings(max_examples=20, deadline=None)
@given(st.integers(2, 50), st.integers(2, 10))
def test_property_softmax_rows_sum_to_one(n, c):
    rng = np.random.default_rng(n * 100 + c)
    z = rng.standard_normal((n, c)) * 10
    s = F.softmax(z, axis=1)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s >= 0)
