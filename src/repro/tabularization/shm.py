"""Zero-copy publication of table hierarchies via POSIX shared memory.

The tables are strictly read-only at inference time (every query kernel is a
gather + sum; nothing writes back), which makes them the ideal payload for
`multiprocessing.shared_memory`: one process **publishes** a
:class:`~repro.runtime.artifact.ModelArtifact` into a named segment, any
number of worker processes **attach** and reconstruct the full
:class:`TabularAttentionPredictor` as read-only ndarray *views* into the same
physical pages — W workers cost one copy of the hierarchy, not W.

The segment is the ``DARTSHM1`` family of the one array container
(:func:`repro.utils.serialization.pack_arrays`), keyed by the same flat key
space :mod:`repro.tabularization.serialization` writes to ``.npz``; every
array starts 64-byte aligned. Attaching re-runs the *serialization layer's
own validation* — ``format/version`` header, ``format/config_hash``
fingerprint and the per-config key manifest — so a stale or foreign segment
fails with the same named errors a bad ``.npz`` would, before any kernel is
built.

Zero-copy depends on one property of the reconstruction path:
``np.ascontiguousarray`` on an already-contiguous array returns the array
itself. Every array is written contiguously here, so
:func:`~repro.tabularization.serialization.model_from_state` builds kernels
whose tables *are* the shared pages (pinned by ``tests/test_shm.py``).

Lifetime: the publisher owns the segment name and must eventually
:meth:`~SharedTables.unlink` it (``ShardedEngine.close`` does); attachers
:meth:`~SharedTables.close` their mapping once the model built from it is
dropped. Worker processes spawned through ``multiprocessing`` share the
publisher's resource tracker, so attaches register no duplicate claims and a
crashed publisher's segments are still reaped at interpreter exit.
"""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory

import numpy as np

from repro.utils.serialization import pack_arrays, unpack_arrays

MAGIC = b"DARTSHM1"


def _new_segment_name() -> str:
    """A fresh, collision-improbable POSIX shm name (``/dev/shm/dart-…``)."""
    return f"dart-{secrets.token_hex(6)}"


class SharedTables:
    """A published or attached shared-memory segment of named arrays.

    Construct through :func:`publish_state` / :func:`attach_state` (or the
    artifact-level wrappers). ``owner`` marks the publisher: only the owner
    unlinks on context-manager exit; attachers merely close their mapping.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self.owner = owner
        self.name = shm.name
        #: segment size in bytes (header + manifest + payload)
        self.nbytes = int(shm.size)
        self._views: dict[str, np.ndarray] | None = None
        self._closed = False

    # ------------------------------------------------------------------ views
    def state(self) -> dict[str, np.ndarray]:
        """Read-only ndarray views over the segment, keyed like a state dict.

        Views share the segment's physical pages (zero-copy) and are marked
        non-writeable; mutating one raises. Keep this object alive as long as
        anything built from the views is in use.
        """
        if self._closed:
            raise ValueError(f"shared tables {self.name!r} are closed")
        if self._views is None:
            self._views, _ = unpack_arrays(
                self._shm.buf, MAGIC, what=f"DART table segment {self.name!r}"
            )
        return self._views

    # --------------------------------------------------------------- lifetime
    def close(self) -> None:
        """Release this process's mapping (safe to call twice).

        Drop every view handed out (and every model built from them) first:
        the views do not pin the mapping, so a read through one after close
        touches unmapped memory.
        """
        if self._closed:
            return
        self._views = None
        self._shm.close()
        self._closed = True

    def unlink(self) -> None:
        """Remove the segment name from the system (idempotent).

        Existing mappings stay valid until each process closes; new attaches
        fail with ``FileNotFoundError``.
        """
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedTables":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()


# -------------------------------------------------------------- state level
def publish_state(
    state: dict[str, np.ndarray], name: str | None = None
) -> SharedTables:
    """Write a flat state dict into a fresh named shared-memory segment.

    The container is laid out first and the arrays are written straight into
    the new segment, so no second full copy of the tables is ever built.
    """
    segment: list[shared_memory.SharedMemory] = []

    def create(size: int):
        segment.append(shared_memory.SharedMemory(
            create=True, size=size, name=name or _new_segment_name()
        ))
        return segment[0].buf

    try:
        pack_arrays(state, MAGIC, what="DART table segment", into=create)
    except BaseException:
        for shm in segment:
            shm.close()
            shm.unlink()
        raise
    return SharedTables(segment[0], owner=True)


def attach_state(name: str) -> SharedTables:
    """Map an existing segment read-only; validates the container framing."""
    # NOTE on the resource tracker: worker processes spawned/forked via
    # multiprocessing share the publisher's tracker, whose registry is a set —
    # re-registering the name here is a no-op and the publisher's unlink
    # removes the single entry. (Unregistering here instead would clobber the
    # publisher's registration and crash the tracker on unlink.)
    tables = SharedTables(shared_memory.SharedMemory(name=name), owner=False)
    try:
        tables.state()
    except BaseException:
        tables.close()
        raise
    return tables


# ----------------------------------------------------------- artifact level
def publish_artifact(artifact, name: str | None = None) -> SharedTables:
    """Publish a :class:`ModelArtifact`'s full state into shared memory.

    The segment carries the exact key set ``artifact.save`` would write to
    disk — serialization header (``format/version``, ``format/config_hash``),
    model/table config blocks, every kernel array, and the artifact's
    version/metadata — so attachers revalidate it like any other blob.
    """
    from repro.runtime.artifact import ModelArtifact, is_model_artifact

    if not is_model_artifact(artifact):
        artifact = ModelArtifact(artifact)
    return publish_state(artifact.state(), name=name)


def attach_artifact(name: str):
    """Attach a published artifact; returns ``(ModelArtifact, SharedTables)``.

    The returned model's tables are zero-copy read-only views into the
    segment: keep the :class:`SharedTables` open for as long as the model
    serves, and :meth:`~SharedTables.close` it only after dropping the model.
    Validation is the serialization layer's own: header version, config
    fingerprint, and the per-config required-key manifest all run before any
    kernel is constructed.
    """
    from repro.runtime.artifact import ModelArtifact
    from repro.tabularization.serialization import validate_state_header

    tables = attach_state(name)
    try:
        state = tables.state()
        validate_state_header(state)
        artifact = ModelArtifact.from_state(state)
    except BaseException:
        tables.close()
        raise
    return artifact, tables
