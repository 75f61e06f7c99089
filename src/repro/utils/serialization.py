"""Array persistence: ``.npz`` files and the one no-pickle byte container.

Components that need persistence expose ``state_dict() -> dict[str, ndarray]``
and ``load_state_dict(dict)``; these helpers write/read such dicts. Keys may
contain ``/`` to express nesting (``"layers/0/weight"``), which is preserved
verbatim by ``numpy.savez``.

``.npz`` writes are crash-safe: the file is assembled in a temp file *in the
target directory* and atomically renamed into place, so a process killed
mid-save can never leave a torn artifact under the destination name — a
reader sees either the old complete file or the new complete file.

Every other array bundle (registry blobs, stream snapshots, the model wire
format, session traces, shared-memory table segments, packed table exports)
travels in one self-describing container, written by :func:`pack_arrays` and
parsed by :func:`unpack_arrays` only::

    MAGIC (8 bytes) | manifest length (uint64 LE) | JSON manifest | pad | payload

The manifest is ``{"format": 2, "arrays": {key: {dtype, shape, offset}},
"meta": {...}}``. The payload starts at the first 64-byte boundary after the
manifest, every array starts 64-byte aligned, and offsets are relative to
the payload start, so the layout never depends on the manifest's own size.
The magic names the container family, so a blob of one family cannot be
read as another.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

#: manifest format of :func:`pack_arrays` (1 was the unaligned layout)
CONTAINER_FORMAT = 2
_MAGIC_LEN = 8
_HEADER = _MAGIC_LEN + 8  # magic + uint64 manifest length
_ALIGN = 64


def save_arrays(path: str | os.PathLike, arrays: dict[str, np.ndarray]) -> None:
    """Save a flat dict of ndarrays to ``path`` (``.npz`` appended if missing).

    Atomic: written to a sibling temp file and ``os.replace``-d over the
    destination (rename is atomic on the same filesystem).
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_arrays(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Load a dict saved by :func:`save_arrays`."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def pack_arrays(
    arrays: dict[str, np.ndarray],
    magic: bytes,
    meta: dict | None = None,
    what: str = "container",
    into=None,
):
    """Pack a flat array dict (plus an optional JSON-able ``meta`` block).

    Returns the container as ``bytes``. With ``into``, a callable taking the
    container's size and returning a writable buffer at least that large
    (e.g. a fresh shared-memory segment's ``buf``), the container is written
    straight into that buffer, which is returned instead.
    """
    if len(magic) != _MAGIC_LEN:
        raise ValueError(f"{what} magic must be {_MAGIC_LEN} bytes, got {len(magic)}")
    specs: dict[str, dict] = {}
    prepared: list[tuple[np.ndarray, int]] = []
    end = 0  # relative to the payload base
    for key in arrays:
        arr = np.asarray(arrays[key], order="C")  # keeps 0-d shapes
        if arr.dtype.hasobject:
            raise TypeError(f"{what} array {key!r} has object dtype")
        offset = _aligned(end)
        specs[key] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
        prepared.append((arr, offset))
        end = offset + arr.nbytes
    manifest: dict = {"format": CONTAINER_FORMAT, "arrays": specs}
    if meta is not None:
        manifest["meta"] = meta
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    base = _aligned(_HEADER + len(blob))
    # Padding stays as allocated: bytearray and fresh segments are zeroed.
    buf = bytearray(base + end) if into is None else into(base + end)
    buf[:_MAGIC_LEN] = magic
    buf[_MAGIC_LEN:_HEADER] = len(blob).to_bytes(8, "little")
    buf[_HEADER : _HEADER + len(blob)] = blob
    for arr, offset in prepared:
        dst = np.ndarray(arr.nbytes, dtype=np.uint8, buffer=buf, offset=base + offset)
        dst[:] = arr.reshape(-1).view(np.uint8)
    return bytes(buf) if into is None else buf


def unpack_arrays(buf, magic: bytes, what: str = "container") -> tuple[dict[str, np.ndarray], dict]:
    """Unpack :func:`pack_arrays` output; named errors on any bad framing.

    Returns ``(arrays, meta)``. Arrays are read-only zero-copy views into
    ``buf`` (callers that mutate must copy — :meth:`ndarray.copy`); they do
    not pin ``buf``, so a mapping closed under them leaves them dangling.
    The whole layout is validated before the first view is built.
    """
    size = len(buf)
    if size < _HEADER or bytes(buf[:_MAGIC_LEN]) != magic:
        raise ValueError(f"not a {what} (bad magic)")
    mlen = int.from_bytes(bytes(buf[_MAGIC_LEN:_HEADER]), "little")
    if _HEADER + mlen > size:
        raise ValueError(
            f"truncated {what}: manifest claims {mlen} bytes, buffer holds {size}"
        )
    manifest = json.loads(bytes(buf[_HEADER : _HEADER + mlen]).decode("utf-8"))
    if manifest.get("format") != CONTAINER_FORMAT:
        raise ValueError(
            f"{what} manifest format {manifest.get('format')!r}; "
            f"this build reads format {CONTAINER_FORMAT}"
        )
    base = _aligned(_HEADER + mlen)
    layout = []
    for key, spec in manifest["arrays"].items():
        dtype = np.dtype(spec["dtype"])
        count = int(np.prod(spec["shape"], dtype=np.int64))
        start = base + int(spec["offset"])
        if start + dtype.itemsize * count > size:
            raise ValueError(f"truncated {what}: array {key!r} extends past the buffer")
        layout.append((key, tuple(spec["shape"]), dtype, start))
    out: dict[str, np.ndarray] = {}
    for key, shape, dtype, start in layout:
        arr = np.ndarray(shape, dtype=dtype, buffer=buf, offset=start)
        arr.flags.writeable = False
        out[key] = arr
    return out, manifest.get("meta", {})
