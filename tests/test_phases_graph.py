"""Phase detection."""

import numpy as np
import pytest

from repro.traces import (
    FEATURE_NAMES,
    detect_phases,
    phase_summary,
    phase_transition_matrix,
    window_features,
)
from repro.traces.generators import RandomPhase, StreamPhase, compose_trace


def _two_phase_trace(n=4096):
    """First half pure stream, second half random: trivially two phases."""
    return compose_trace(
        [
            (StreamPhase(0, 10**6, stride_blocks=1), n // 2),
            (RandomPhase(0, 10**7), n // 2),
        ],
        seed=0,
    )


# ---------------------------------------------------------------- features
def test_window_features_shape():
    tr = _two_phase_trace()
    f = window_features(tr, window=256)
    assert f.shape == (len(tr) // 256, len(FEATURE_NAMES))


def test_window_features_validation():
    with pytest.raises(ValueError):
        window_features(_two_phase_trace(512), window=1)


def test_stream_windows_look_streamy():
    tr = _two_phase_trace(4096)
    f = window_features(tr, window=256)
    half = len(f) // 2
    stream_frac = f[:, FEATURE_NAMES.index("stream_frac")]
    entropy = f[:, FEATURE_NAMES.index("delta_entropy")]
    assert stream_frac[:half].mean() > 0.9
    assert stream_frac[half:].mean() < 0.2
    assert entropy[:half].mean() < entropy[half:].mean()


# --------------------------------------------------------------- detection
def test_detect_phases_separates_stream_from_random():
    tr = _two_phase_trace(8192)
    labels = detect_phases(tr, n_phases=2, window=256, seed=0)
    half = len(labels) // 2
    first = np.bincount(labels[:half]).argmax()
    second = np.bincount(labels[half:]).argmax()
    assert first != second
    # each half is dominated by its own phase label
    assert (labels[:half] == first).mean() > 0.9
    assert (labels[half:] == second).mean() > 0.9


def test_detect_phases_empty_and_tiny():
    tiny = _two_phase_trace(512)
    assert len(detect_phases(tiny, n_phases=3, window=1024)) == 0
    labels = detect_phases(tiny, n_phases=8, window=256)  # k clamps to windows
    assert len(labels) == 2


def test_phase_summary_covers_all_windows():
    tr = _two_phase_trace(4096)
    labels = detect_phases(tr, n_phases=2, window=256, seed=0)
    summ = phase_summary(tr, labels, window=256)
    assert sum(s["windows"] for s in summ) == len(labels)
    assert abs(sum(s["fraction"] for s in summ) - 1.0) < 1e-9
    for s in summ:
        for name in FEATURE_NAMES:
            assert name in s


def test_transition_matrix_rows_normalized():
    labels = np.array([0, 0, 1, 1, 0, 2, 2, 2])
    mat = phase_transition_matrix(labels)
    assert mat.shape == (3, 3)
    np.testing.assert_allclose(mat.sum(axis=1), 1.0)


def test_transition_matrix_two_phase_trace_is_blocky():
    tr = _two_phase_trace(8192)
    labels = detect_phases(tr, n_phases=2, window=256, seed=0)
    mat = phase_transition_matrix(labels, 2)
    # phases are long-lived: self-transition dominates
    assert mat[0, 0] > 0.5 and mat[1, 1] > 0.5


def test_detect_phases_is_deterministic_without_scipy():
    """The in-repo k-means keeps phase detection seeded/deterministic."""
    import inspect

    import repro.traces.phases as phases_mod

    assert "scipy" not in inspect.getsource(phases_mod)
    tr = _two_phase_trace(4096)
    l1 = detect_phases(tr, n_phases=2, window=256, seed=7)
    l2 = detect_phases(tr, n_phases=2, window=256, seed=7)
    assert np.array_equal(l1, l2)


def test_phase_shift_trace_two_detectable_phases():
    from repro.traces import phase_shift_trace

    tr = phase_shift_trace(8192, shift_at=0.5, seed=1)
    assert len(tr) == 8192
    labels = detect_phases(tr, n_phases=2, window=256, seed=0)
    half = len(labels) // 2
    first = np.bincount(labels[:half]).argmax()
    second = np.bincount(labels[half:]).argmax()
    assert first != second
    assert (labels[:half] == first).mean() > 0.9
    assert (labels[half:] == second).mean() > 0.9


def test_phase_shift_trace_validation():
    from repro.traces import phase_shift_trace

    with pytest.raises(ValueError):
        phase_shift_trace(1000, shift_at=0.0)
    with pytest.raises(ValueError):
        phase_shift_trace(1000, shift_at=1.5)
