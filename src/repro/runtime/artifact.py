"""Versioned model artifacts: the unit of deployment the runtime holds.

A serving engine never owns a bare :class:`TabularAttentionPredictor` — it
holds a :class:`ModelArtifact`: the predictor plus a monotonically increasing
version id, its ``ModelConfig``/``TableConfig`` fingerprint, and free-form
metadata tracing the tables back to the training run (workload, sample count,
parent version). That wrapper is what makes zero-downtime replacement
meaningful: ``swap_model`` can refuse geometry-incompatible tables before a
single query is answered, the adaptation loop can record *which* version
served *which* stretch of the stream, and an exported blob can say where it
came from.

Persistence rides on :mod:`repro.tabularization.serialization`: the artifact
keys (``artifact/version``, ``artifact/meta_json``) sit next to the model
state in the same flat ``.npz``, so :func:`load_tabular_model` still reads an
artifact blob (ignoring the extra keys) and :meth:`ModelArtifact.load` reads a
plain model blob (defaulting version/metadata).

The **model wire codec** (:func:`encode_model` / :func:`decode_model`, the
``DARTMDL1`` container family) is how a model travels to a sharded worker
when it cannot ride shared memory, and what the session recorder embeds.
It carries a :class:`ModelArtifact`, a bare
:class:`TabularAttentionPredictor` or an
:class:`~repro.models.attention_model.AttentionPredictor` student; anything
else is refused with a named ``TypeError`` instead of being pickled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.tabularization.serialization import (
    config_fingerprint,
    model_from_state,
    model_state,
)
from repro.tabularization.tabular_model import TabularAttentionPredictor
from repro.utils.serialization import load_arrays, pack_arrays, save_arrays, unpack_arrays

VERSION_KEY = "artifact/version"
META_KEY = "artifact/meta_json"
#: model wire format for worker processes (the no-pickle swap payload)
MODEL_WIRE_MAGIC = b"DARTMDL1"


def is_model_artifact(obj) -> bool:
    """The one artifact-detection predicate (engines, prefetchers, export)."""
    return isinstance(obj, ModelArtifact)


def _meta_to_array(metadata: dict) -> np.ndarray:
    payload = json.dumps(metadata, sort_keys=True).encode("utf-8")
    return np.frombuffer(payload, dtype=np.uint8).copy()


def _meta_from_array(arr: np.ndarray) -> dict:
    return json.loads(np.asarray(arr, dtype=np.uint8).tobytes().decode("utf-8"))


@dataclass
class ModelArtifact:
    """A table hierarchy plus the identity that makes it deployable."""

    model: TabularAttentionPredictor
    version: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.version = int(self.version)
        if self.version < 1:
            raise ValueError(f"artifact version must be >= 1, got {self.version}")

    # ------------------------------------------------------------- identity
    @property
    def model_config(self):
        return self.model.model_config

    @property
    def table_config(self):
        return self.model.table_config

    @property
    def config_hash(self) -> int:
        """The serialization-layer fingerprint of this artifact's configs."""
        return config_fingerprint(self.model.model_config, self.model.table_config)

    def describe(self) -> dict:
        """Flat summary for logs / ``repro export --info``."""
        mc, tc = self.model.model_config, self.model.table_config
        return {
            "version": self.version,
            "config_hash": f"{self.config_hash:#x}",
            "model": f"L={mc.layers} D={mc.dim} H={mc.heads} T={mc.history_len} "
                     f"bitmap={mc.bitmap_size}",
            "tables": f"K=({tc.k_input},{tc.k_attn},{tc.k_ffn},{tc.k_output}) "
                      f"C=({tc.c_input},{tc.c_attn},{tc.c_ffn},{tc.c_output}) "
                      f"encoder={tc.encoder}",
            "latency_cycles": int(round(self.model.latency_cycles())),
            "storage_bytes": float(self.model.storage_bytes()),
            **{f"meta.{k}": v for k, v in sorted(self.metadata.items())},
        }

    # -------------------------------------------------------------- lineage
    def successor(self, model: TabularAttentionPredictor, **metadata) -> "ModelArtifact":
        """The next version in this artifact's lineage.

        The successor must keep the serving geometry (bitmap size and history
        length) so a hot swap stays legal; table sizes may change (the
        adaptation loop re-fits prototypes, not the architecture).
        """
        mc_old, mc_new = self.model.model_config, model.model_config
        if (mc_new.bitmap_size, mc_new.history_len) != (mc_old.bitmap_size, mc_old.history_len):
            raise ValueError(
                f"successor geometry (bitmap={mc_new.bitmap_size}, "
                f"T={mc_new.history_len}) differs from v{self.version} "
                f"(bitmap={mc_old.bitmap_size}, T={mc_old.history_len})"
            )
        meta = dict(self.metadata)
        meta.update(metadata)
        meta["parent_version"] = self.version
        return ModelArtifact(model, version=self.version + 1, metadata=meta)

    # ---------------------------------------------------------- persistence
    def state(self) -> dict[str, np.ndarray]:
        state = model_state(self.model)
        state[VERSION_KEY] = np.array([self.version], dtype=np.int64)
        state[META_KEY] = _meta_to_array(self.metadata)
        return state

    def save(self, path) -> None:
        """Write a standalone artifact ``.npz`` (crash-safe: temp + rename).

        A file is a *checkout*, not the system of record — versioned storage,
        delta lineage, and distribution live in
        :class:`~repro.registry.registry.ModelRegistry` (``put`` / ``get``);
        this writes the same flat state a registry ``checkout`` would,
        atomically, so a killed process can never leave a torn artifact
        under ``path``.
        """
        save_arrays(path, self.state())

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "ModelArtifact":
        model = model_from_state(state)
        version = int(state[VERSION_KEY][0]) if VERSION_KEY in state else 1
        metadata = _meta_from_array(state[META_KEY]) if META_KEY in state else {}
        return cls(model, version=version, metadata=metadata)

    @classmethod
    def load(cls, path) -> "ModelArtifact":
        """Load an artifact blob; plain model blobs get version 1, empty meta."""
        return cls.from_state(load_arrays(path))


# ----------------------------------------------------------- model wire codec
def encode_model(model) -> bytes:
    """Serialize a swap/boot model into the ``DARTMDL1`` wire container.

    The sharded control plane's replacement for ``pickle.dumps(model)``:
    only models with a defined array state can travel to a worker, and each
    arrives tagged with its kind so :func:`decode_model` rebuilds the right
    type. Raises a named ``TypeError`` for anything else.
    """
    from repro.models.attention_model import AttentionPredictor, student_state

    if is_model_artifact(model):
        kind, state = "artifact", model.state()
    elif isinstance(model, TabularAttentionPredictor):
        kind, state = "tabular", model_state(model)
    elif isinstance(model, AttentionPredictor):
        kind, state = "student", student_state(model)
    else:
        raise TypeError(
            f"cannot encode {type(model).__name__} for worker shipping: the "
            "no-pickle wire codec carries ModelArtifact, TabularAttentionPredictor "
            "or AttentionPredictor payloads only"
        )
    return pack_arrays(state, MODEL_WIRE_MAGIC, meta={"kind": kind}, what="model wire blob")


def decode_model(buf: bytes):
    """Rebuild the model :func:`encode_model` serialized."""
    from repro.models.attention_model import student_from_state

    arrays, meta = unpack_arrays(buf, MODEL_WIRE_MAGIC, what="model wire blob")
    kind = meta.get("kind")
    if kind == "artifact":
        return ModelArtifact.from_state(arrays)
    if kind == "tabular":
        return model_from_state(arrays)
    if kind == "student":
        return student_from_state(arrays)
    raise ValueError(f"model wire blob has unknown kind {kind!r}")
