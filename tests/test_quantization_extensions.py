"""Table bit-width quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import (
    apply_bitwidth,
    dequantize_array,
    fake_quantize,
    quantization_snr_db,
    quantize_array,
)


# ---------------------------------------------------------------- bitwidth
def test_quantize_roundtrip_error_bounded_by_half_step():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 20)) * 4
    q, scale = quantize_array(x, bits=8)
    back = dequantize_array(q, scale)
    step = float(np.max(scale))
    assert np.abs(x - back).max() <= step / 2 + 1e-12


def test_quantize_dtype_selection():
    x = np.linspace(-1, 1, 10)
    assert quantize_array(x, 8)[0].dtype == np.int8
    assert quantize_array(x, 16)[0].dtype == np.int16
    assert quantize_array(x, 32)[0].dtype == np.int32


def test_quantize_per_channel_beats_global_on_skewed_scales():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 4))
    x[:, 0] *= 1000.0  # one huge channel would eat the global scale
    glob = np.abs(x - fake_quantize(x, 8)).mean()
    per = np.abs(x - fake_quantize(x, 8, axis=1)).mean()
    assert per < glob


def test_quantize_zero_array():
    q, scale = quantize_array(np.zeros((3, 3)), 8)
    assert np.all(q == 0)
    np.testing.assert_allclose(dequantize_array(q, scale), 0.0)


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize_array(np.ones(3), bits=1)
    with pytest.raises(ValueError):
        quantize_array(np.ones(3), bits=64)


def test_snr_increases_with_bits():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2000)
    snrs = [quantization_snr_db(x, b) for b in (4, 8, 16)]
    assert snrs[0] < snrs[1] < snrs[2]
    # ~6 dB/bit rule of thumb (loose bounds: signal is not full-scale)
    assert snrs[1] - snrs[0] > 15.0


@settings(max_examples=20, deadline=None)
@given(bits=st.integers(2, 16), seed=st.integers(0, 100))
def test_property_fake_quantize_idempotent(bits, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(40)
    once = fake_quantize(x, bits)
    twice = fake_quantize(once, bits)
    np.testing.assert_allclose(once, twice, atol=1e-12)


# ----------------------------------------------- apply to a tabular model
def test_apply_bitwidth_to_tabular_model(tabular_student, split_dataset):
    from repro.core.evaluate import f1_score

    model, _ = tabular_student
    _, ds_val = split_dataset
    # Work on fresh copies of the tables so the session fixture stays intact.
    import copy

    m32 = copy.deepcopy(model)
    base_probs = m32.predict_proba(ds_val.x_addr, ds_val.x_pc)
    base_storage = m32.storage_bytes()

    m8 = apply_bitwidth(copy.deepcopy(model), 8)
    assert m8.table_config.data_bits == 8
    assert m8.storage_bytes() < base_storage
    probs8 = m8.predict_proba(ds_val.x_addr, ds_val.x_pc)
    f1_base = f1_score(ds_val.labels, base_probs)
    f1_q8 = f1_score(ds_val.labels, probs8)
    assert f1_q8 > 0.5 * f1_base  # 8-bit tables keep most of the F1

    m2 = apply_bitwidth(copy.deepcopy(model), 2)
    probs2 = m2.predict_proba(ds_val.x_addr, ds_val.x_pc)
    # 2-bit entries must visibly distort outputs (sanity that the knob bites)
    assert np.abs(probs2 - base_probs).mean() > np.abs(probs8 - base_probs).mean()
