"""One array container for every family: layout, round trip and refusals.

Registry blobs, stream snapshots, the model wire format, session traces,
shared-memory table segments and packed table exports are all
:func:`repro.utils.serialization.pack_arrays` containers under their own
magic. Each family is written here through its own writer and read back
through its own reader, and must keep the one layout: a bit-identical round
trip, every array 64-byte aligned, a foreign family's blob refused, and
truncation or a format-1 manifest refused by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

import numpy as np
import pytest
from test_shm import random_state

from repro.registry import REGISTRY_MAGIC
from repro.runtime.artifact import MODEL_WIRE_MAGIC, decode_model
from repro.runtime.microbatch import SNAPSHOT_MAGIC, snapshot_from_bytes, snapshot_to_bytes
from repro.runtime.record import TRACE_MAGIC, SessionTrace
from repro.tabularization import export, shm
from repro.utils.serialization import pack_arrays, unpack_arrays


def _segment_bytes(state) -> bytes:
    """Publish ``state`` into a segment and copy the segment out."""
    with shm.publish_state(state) as pub:
        seg = shared_memory.SharedMemory(name=pub.name)
        try:
            return bytes(seg.buf)
        finally:
            seg.close()


def _attach_bytes(blob: bytes, tmp_path):
    """The shm reader over raw bytes: a segment holding ``blob``, attached."""
    seg = shared_memory.SharedMemory(create=True, size=max(len(blob), 1))
    try:
        seg.buf[: len(blob)] = blob
        shm.attach_state(seg.name).close()
    finally:
        seg.close()
        seg.unlink()


def _packed_info_bytes(blob: bytes, tmp_path):
    path = tmp_path / "tables.darttbl"
    path.write_bytes(blob)
    return export.packed_info(path)


@dataclass(frozen=True)
class Family:
    name: str
    magic: bytes
    what: str  # how the family's reader names it in errors
    pack: Callable[[dict], bytes]  # the family's writer
    read: Callable  # the family's reader: (blob, tmp_path) -> anything

    def __repr__(self) -> str:
        return self.name


FAMILIES = [
    Family(
        "registry-blob", REGISTRY_MAGIC, "registry blob",
        lambda st: pack_arrays(st, REGISTRY_MAGIC, meta={"kind": "full"}, what="registry blob"),
        lambda b, _: unpack_arrays(b, REGISTRY_MAGIC, what="registry blob"),
    ),
    Family(
        "stream-snapshot", SNAPSHOT_MAGIC, "stream-state snapshot",
        snapshot_to_bytes, lambda b, _: snapshot_from_bytes(b),
    ),
    Family(
        "model-wire", MODEL_WIRE_MAGIC, "model wire blob",
        lambda st: pack_arrays(st, MODEL_WIRE_MAGIC, meta={"kind": "tabular"}),
        lambda b, _: decode_model(b),
    ),
    Family(
        "session-trace", TRACE_MAGIC, "session trace",
        lambda st: pack_arrays(st, TRACE_MAGIC, meta={"trace_format": 1}),
        lambda b, _: SessionTrace.from_bytes(b),
    ),
    Family("shm-segment", shm.MAGIC, "DART table segment", _segment_bytes, _attach_bytes),
    Family(
        "packed-export", export.MAGIC, "DART table file",
        lambda st: pack_arrays(st, export.MAGIC, meta={"format": "dart-tabular"}),
        _packed_info_bytes,
    ),
]


def _manifest(blob: bytes) -> tuple[dict, int]:
    """The manifest and the payload base, parsed by hand from the spec."""
    mlen = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16 : 16 + mlen]), -(-(16 + mlen) // 64) * 64


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_roundtrip_is_bit_identical_and_aligned(family, seed):
    state = random_state(np.random.default_rng(1000 + seed))
    state["flags"] = np.array([True, False, True])
    state["empty"] = np.zeros((0, 4), dtype=np.int32)
    blob = family.pack(state)
    assert blob[:8] == family.magic
    manifest, base = _manifest(blob)
    assert manifest["format"] == 2
    assert base % 64 == 0
    assert all(spec["offset"] % 64 == 0 for spec in manifest["arrays"].values())
    arrays, _ = unpack_arrays(blob, family.magic)
    assert sorted(arrays) == sorted(state)
    for key, arr in state.items():
        got = arrays[key]
        assert (got.dtype, got.shape) == (arr.dtype, arr.shape), key
        assert got.tobytes() == arr.tobytes(), key
        assert not got.flags.writeable, key


def test_attached_segment_views_are_64_byte_aligned():
    state = random_state(np.random.default_rng(7))
    with shm.publish_state(state) as pub:
        tables = shm.attach_state(pub.name)
        addresses = [v.ctypes.data for v in tables.state().values() if v.nbytes]
        tables.close()
    assert addresses and all(a % 64 == 0 for a in addresses)


@pytest.mark.parametrize(
    "writer, reader",
    [(w, r) for w in FAMILIES for r in FAMILIES if w is not r],
    ids=lambda f: f.name,
)
def test_foreign_family_is_refused(writer, reader, tmp_path):
    blob = writer.pack({"x": np.arange(4)})
    with pytest.raises(ValueError, match=f"not a {reader.what}.*bad magic"):
        reader.read(blob, tmp_path)


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_truncation_is_refused_by_name(family, tmp_path):
    blob = family.pack({"a": np.arange(40, dtype=np.int64), "b": np.ones((3, 5))})
    _, base = _manifest(blob)
    for cut in (len(blob) - 1, base + 8, base - 1, 16):
        with pytest.raises(ValueError, match=f"truncated {family.what}"):
            family.read(blob[:cut], tmp_path)


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_format_1_manifest_is_refused_by_name(family, tmp_path):
    blob = family.pack({"a": np.arange(4)})
    manifest, _ = _manifest(blob)
    manifest["format"] = 1
    text = json.dumps(manifest).encode("utf-8")
    old = family.magic + len(text).to_bytes(8, "little") + text + np.arange(4).tobytes()
    with pytest.raises(ValueError, match=f"{family.what}.* format 1; this build reads format 2"):
        family.read(old, tmp_path)
