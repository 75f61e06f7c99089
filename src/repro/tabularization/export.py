"""Packed binary export of a table hierarchy — the deployment artifact.

``save_tabular_model`` round-trips through ``.npz`` for Python workflows;
*this* format is what a hardware/firmware consumer would ingest: a single
little-endian blob with a fixed-layout header, a JSON manifest, and raw
array payloads — no zip container, no NumPy metadata, parseable from C in a
few dozen lines. It is the ``DARTTBL2`` family of the one array container
(:func:`repro.utils.serialization.pack_arrays`).

Layout::

    offset  size  field
    0       8     magic  b"DARTTBL2"
    8       8     uint64 manifest length = H
    16      H     UTF-8 JSON: {"format": 2, "arrays": {name: {dtype, shape,
                               offset}}, "meta": {...attrs}}
    P       ...   raw array payloads, little-endian; P is 16 + H rounded up
                  to 64, and each array starts at P + offset, 64-byte aligned

Offsets are relative to the payload start ``P``, so a consumer can mmap the
file and point kernels straight at the tables. ``export_packed`` can
down-convert float64 tables to float32/float16 on the way out (independent of
the fixed-point study in :mod:`repro.quantization.bitwidth` — this is the
wire format, that is the arithmetic model).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.tabularization.serialization import (
    FORMAT_VERSION,
    config_fingerprint,
    model_from_state,
    model_state,
)
from repro.utils.serialization import pack_arrays, unpack_arrays

MAGIC = b"DARTTBL2"
_WHAT = "DART table file"

#: dtypes allowed in the container (names are NumPy canonical strings)
_ALLOWED_DTYPES = {
    "float64", "float32", "float16", "int64", "int32", "int16", "int8", "uint8",
}


def _read(path: str | os.PathLike) -> tuple[dict[str, np.ndarray], dict]:
    return unpack_arrays(Path(path).read_bytes(), MAGIC, what=_WHAT)


def export_packed(model, path: str | os.PathLike, float_dtype: str = "float32") -> int:
    """Export a tabular model **or** a :class:`~repro.runtime.artifact.
    ModelArtifact` as one packed blob.

    Float arrays are stored as ``float_dtype`` (``float64``/``float32``/
    ``float16``); integer arrays keep their width. Returns total bytes
    written. Round-trip via :func:`import_packed` reconstructs a working
    model (bit-exact when exporting at float64). When given an artifact, its
    version and metadata are embedded in the container attrs so a deployed
    blob stays traceable to its training run (``repro export --info``).
    """
    if float_dtype not in ("float64", "float32", "float16"):
        raise ValueError(f"unsupported float dtype {float_dtype!r}")
    from repro.runtime.artifact import is_model_artifact

    attrs: dict = {"format": "dart-tabular", "float_dtype": float_dtype,
                   "format_version": FORMAT_VERSION}
    if is_model_artifact(model):
        attrs["artifact"] = {"version": int(model.version), "metadata": model.metadata}
        model = model.model
    attrs["config_hash"] = config_fingerprint(model.model_config, model.table_config)
    out: dict[str, np.ndarray] = {}
    for name, arr in model_state(model).items():
        if np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(float_dtype)
        if arr.dtype.name not in _ALLOWED_DTYPES:
            raise ValueError(
                f"dtype {arr.dtype.name} of {name!r} not supported by the container"
            )
        out[name] = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    data = pack_arrays(out, MAGIC, meta=attrs, what=_WHAT)
    Path(path).write_bytes(data)
    return len(data)


def import_packed(path: str | os.PathLike):
    """Load a packed export back into a queryable tabular model."""
    arrays, attrs = _read(path)
    if attrs.get("format") != "dart-tabular":
        raise ValueError("packed file does not contain a tabular model")
    # Native-order copies: the unpacked arrays are read-only views into the file.
    state = {k: v.astype(np.float64 if np.issubdtype(v.dtype, np.floating) else v.dtype.name)
             for k, v in arrays.items()}
    return model_from_state(state)


def packed_info(path: str | os.PathLike) -> dict:
    """Container inventory + provenance without converting any table.

    Total bytes per dtype, entry count, and the embedded attrs (float dtype,
    config hash, artifact version/metadata when the blob was exported from a
    :class:`ModelArtifact`), read off the zero-copy views.
    """
    arrays, attrs = _read(path)
    by_dtype: dict[str, int] = {}
    for arr in arrays.values():
        by_dtype[arr.dtype.name] = by_dtype.get(arr.dtype.name, 0) + arr.nbytes
    return {
        "entries": len(arrays),
        "payload_bytes": sum(by_dtype.values()),
        "bytes_by_dtype": by_dtype,
        "attrs": attrs,
    }
