"""Packed binary table export: the ``DARTTBL2`` file and model round-trip.

The container layout itself (alignment, truncation, foreign families) is
pinned for every family in ``test_container.py``.
"""

import numpy as np
import pytest

from repro.tabularization import export, export_packed, import_packed, packed_info
from repro.tabularization.export import MAGIC
from repro.utils.serialization import pack_arrays, unpack_arrays


def test_magic_and_header_parse(tmp_path, tabular_student):
    model, _ = tabular_student
    path = tmp_path / "t.bin"
    total = export_packed(model, path, float_dtype="float32")
    raw = path.read_bytes()
    assert total == len(raw) and raw[:8] == MAGIC == b"DARTTBL2"
    arrays, attrs = unpack_arrays(raw, MAGIC)
    assert attrs["format"] == "dart-tabular" and attrs["float_dtype"] == "float32"
    info = packed_info(path)
    assert info["attrs"] == attrs and info["entries"] == len(arrays)
    assert info["payload_bytes"] == sum(a.nbytes for a in arrays.values())


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTATBL0" + b"\x00" * 100)
    with pytest.raises(ValueError, match="magic"):
        import_packed(path)


def test_rejects_unsupported_dtype(tmp_path, tabular_student, monkeypatch):
    model, _ = tabular_student
    state = export.model_state(model)
    monkeypatch.setattr(
        export, "model_state", lambda m: {**state, "c": np.array([1 + 2j])}
    )
    with pytest.raises(ValueError, match="not supported"):
        export_packed(model, tmp_path / "x.bin")


def test_export_import_model_roundtrip_float64(tmp_path, tabular_student, split_dataset):
    model, _ = tabular_student
    _, ds_val = split_dataset
    path = tmp_path / "model.bin"
    export_packed(model, path, float_dtype="float64")
    back = import_packed(path)
    a = model.predict_proba(ds_val.x_addr[:64], ds_val.x_pc[:64])
    b = back.predict_proba(ds_val.x_addr[:64], ds_val.x_pc[:64])
    np.testing.assert_allclose(a, b, atol=1e-12)  # bit-faithful at float64


def test_export_float32_smaller_and_close(tmp_path, tabular_student, split_dataset):
    model, _ = tabular_student
    _, ds_val = split_dataset
    p64 = tmp_path / "m64.bin"
    p32 = tmp_path / "m32.bin"
    n64 = export_packed(model, p64, float_dtype="float64")
    n32 = export_packed(model, p32, float_dtype="float32")
    assert n32 < 0.66 * n64
    back = import_packed(p32)
    a = model.predict_proba(ds_val.x_addr[:64], ds_val.x_pc[:64])
    b = back.predict_proba(ds_val.x_addr[:64], ds_val.x_pc[:64])
    assert np.abs(a - b).max() < 1e-3


def test_export_rejects_bad_dtype(tmp_path, tabular_student):
    model, _ = tabular_student
    with pytest.raises(ValueError):
        export_packed(model, tmp_path / "x.bin", float_dtype="float8")


def test_import_rejects_non_model_file(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(pack_arrays({"x": np.zeros(3)}, MAGIC, meta={"format": "other"}))
    with pytest.raises(ValueError, match="tabular model"):
        import_packed(path)
