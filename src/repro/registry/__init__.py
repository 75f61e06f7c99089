"""Model lifecycle: content-addressed storage, delta lineage, fleet rollout.

The serving stack (stream → multi-stream → hot-swap → sharded → elastic)
consumes :class:`~repro.runtime.artifact.ModelArtifact`\\ s; this package is
where those artifacts live between training and serving:

* :mod:`~repro.registry.store` — content-addressed blobs, local cache,
  pluggable remotes (:class:`FilesystemRemote` in-tree);
* :mod:`~repro.registry.delta` — row-level delta encoding between successor
  versions (adaptation re-fits change few table rows);
* :mod:`~repro.registry.registry` — :class:`ModelRegistry`:
  ``put/get/push/pull/checkout/log`` over version manifests and refs;
* :mod:`~repro.registry.rollout` — :class:`FleetRollout`: canary a new
  version on a subset of sharded workers, promote on monitor health,
  auto-roll-back on regression.
"""

from repro.registry.delta import apply_state_delta, delta_nbytes, state_delta
from repro.registry.registry import REGISTRY_MAGIC, ModelRegistry
from repro.registry.rollout import FleetRollout, RolloutConfig
from repro.registry.store import (
    BlobStore,
    FilesystemRemote,
    RegistryError,
    Remote,
    sha256_digest,
)

__all__ = [
    "BlobStore",
    "FilesystemRemote",
    "FleetRollout",
    "ModelRegistry",
    "REGISTRY_MAGIC",
    "RegistryError",
    "Remote",
    "RolloutConfig",
    "apply_state_delta",
    "delta_nbytes",
    "sha256_digest",
    "state_delta",
]
