"""The content-addressed model registry: versions, lineage, push/pull.

A registry *version* is two content-addressed objects in a
:class:`~repro.registry.store.BlobStore`:

* a **payload blob** (``DARTREG1`` container): either the artifact's full
  flat state or a :mod:`~repro.registry.delta` row-delta against its parent;
* a **manifest** — a small JSON object naming the payload digest, the
  encoding kind, the parent version digest, the artifact version id /
  config fingerprint, and the artifact metadata. The manifest's own SHA-256
  *is* the version id.

Because both objects are content-addressed, identical publishes dedupe to
nothing, a version id is valid in every cache and remote, and ``push`` /
``pull`` reduce to copying the digests the other side is missing.
Reconstruction (:meth:`ModelRegistry.get`) walks parents to the nearest
``full`` payload and re-applies the deltas forward — bit-identical by the
delta codec's contract. A payload missing locally is fetched from the bound
remote on demand (and counted in :attr:`ModelRegistry.pulled_blobs`), so a
cache eviction is a latency event, not a failure.

Refs (``refs/<name>``) are movable name → version pointers — ``put(...,
name=...)`` advances one, the rollout controller advances one on promote,
and the CLI verbs (``repro registry push/pull/checkout/log``) speak them.
"""

from __future__ import annotations

import json

import numpy as np

from repro.registry.delta import apply_state_delta, state_delta
from repro.registry.store import BlobStore, RegistryError, Remote, sha256_digest
from repro.utils.serialization import pack_arrays, unpack_arrays

#: container magic of registry payload blobs (full states and deltas)
REGISTRY_MAGIC = b"DARTREG1"
#: manifest schema version; bump when the JSON layout changes
MANIFEST_SCHEMA = 1

#: lineage-walk hard stop — a chain longer than this means a parent cycle
_MAX_CHAIN = 100_000


class ModelRegistry:
    """A local content-addressed model store, optionally bound to a remote."""

    def __init__(self, root, remote: Remote | None = None):
        self.store = BlobStore(root)
        self.remote = remote
        self.root = self.store.root
        #: payload/manifest blobs fetched from the remote on demand
        self.pulled_blobs = 0

    # -------------------------------------------------------------- resolution
    def resolve(self, ref_or_digest: str) -> str:
        """A ref name, full digest, or unique digest prefix -> full digest."""
        ref = self.store.get_ref(ref_or_digest) if "/" not in ref_or_digest else None
        if ref is not None:
            return ref
        cand = str(ref_or_digest)
        if len(cand) == 64 and not set(cand) - set("0123456789abcdef"):
            return cand
        if 6 <= len(cand) < 64 and not set(cand) - set("0123456789abcdef"):
            matches = [d for d in self.store.digests() if d.startswith(cand)]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise RegistryError(
                    f"digest prefix {cand!r} is ambiguous ({len(matches)} objects)"
                )
        raise RegistryError(
            f"{ref_or_digest!r} is neither a known ref nor a (unique prefix "
            f"of a) stored digest in {self.root!r}"
        )

    def refs(self) -> dict[str, str]:
        return self.store.refs()

    # ----------------------------------------------------------------- objects
    def _fetch(self, digest: str) -> bytes:
        """Object bytes from the local store, else the remote (cached back)."""
        if self.store.has(digest):
            return self.store.get(digest)
        if self.remote is not None and self.remote.has_blob(digest):
            data = self.remote.get_blob(digest)
            if sha256_digest(data) != digest:
                raise RegistryError(
                    f"remote returned corrupt bytes for {digest[:12]}…"
                )
            self.store.put(data)
            self.pulled_blobs += 1
            return data
        where = f"store {self.root!r}"
        if self.remote is not None:
            where += " or its remote"
        raise RegistryError(f"object {digest[:12]}… not found in {where}")

    def manifest(self, ref_or_digest: str) -> dict:
        """The version manifest (plus its ``digest``) for a ref/digest."""
        digest = self.resolve(ref_or_digest)
        try:
            info = json.loads(self._fetch(digest).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise RegistryError(
                f"object {digest[:12]}… is not a version manifest (payload "
                "blobs are not versions — resolve a ref or manifest digest)"
            ) from None
        if not isinstance(info, dict) or info.get("schema") != MANIFEST_SCHEMA:
            raise RegistryError(
                f"object {digest[:12]}… has manifest schema "
                f"{info.get('schema') if isinstance(info, dict) else None!r}; "
                f"this build reads schema {MANIFEST_SCHEMA}"
            )
        info["digest"] = digest
        return info

    # --------------------------------------------------------------- publishing
    def put(self, artifact, parent: str | None = None, name: str | None = None) -> str:
        """Store one artifact version; returns its (manifest) digest.

        With ``parent`` (a ref/digest of an existing version) the payload is
        a row-delta against that version — unless the delta would not be
        smaller, in which case a full snapshot is stored and the lineage
        pointer kept anyway. With ``name`` the ref advances to the new
        version. Publishing is deterministic: the same artifact with the
        same parent always produces the same digest (no timestamps).
        """
        state = artifact.state()
        parent_digest = self.resolve(parent) if parent is not None else None
        kind = "full"
        payload_state = state
        if parent_digest is not None:
            parent_state = self.state(parent_digest)
            delta = state_delta(parent_state, state)
            full_bytes = sum(np.asarray(a).nbytes for a in state.values())
            delta_bytes = sum(np.asarray(a).nbytes for a in delta.values())
            if delta_bytes < full_bytes:
                kind, payload_state = "delta", delta
        payload = pack_arrays(
            payload_state, REGISTRY_MAGIC, meta={"kind": kind},
            what="registry blob",
        )
        payload_digest = self.store.put(payload)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "kind": kind,
            "payload": payload_digest,
            "payload_bytes": len(payload),
            "parent": parent_digest,
            "artifact_version": int(artifact.version),
            "config_hash": f"{artifact.config_hash:#x}",
            "metadata": artifact.metadata,
        }
        digest = self.store.put(
            json.dumps(manifest, sort_keys=True).encode("utf-8")
        )
        if name is not None:
            self.store.set_ref(name, digest)
        return digest

    # ------------------------------------------------------------ reconstruction
    def _payload_state(self, manifest: dict) -> dict[str, np.ndarray]:
        arrays, meta = unpack_arrays(
            self._fetch(manifest["payload"]), REGISTRY_MAGIC, what="registry blob"
        )
        if meta.get("kind") != manifest["kind"]:
            raise RegistryError(
                f"payload of version {manifest['digest'][:12]}… claims kind "
                f"{meta.get('kind')!r} but its manifest says {manifest['kind']!r}"
            )
        return arrays

    def state(self, ref_or_digest: str) -> dict[str, np.ndarray]:
        """The full flat array state of a version (chain walk + delta replay)."""
        chain = [self.manifest(ref_or_digest)]
        while chain[-1]["kind"] == "delta":
            if chain[-1]["parent"] is None:
                raise RegistryError(
                    f"version {chain[-1]['digest'][:12]}… is a delta with no "
                    "parent: corrupt manifest"
                )
            if len(chain) > _MAX_CHAIN:
                raise RegistryError("lineage chain exceeds sanity bound (cycle?)")
            chain.append(self.manifest(chain[-1]["parent"]))
        state = self._payload_state(chain[-1])
        for manifest in reversed(chain[:-1]):
            state = apply_state_delta(state, self._payload_state(manifest))
        return state

    def get(self, ref_or_digest: str):
        """Reconstruct the :class:`~repro.runtime.artifact.ModelArtifact`."""
        from repro.runtime.artifact import ModelArtifact

        return ModelArtifact.from_state(self.state(ref_or_digest))

    def checkout(self, ref_or_digest: str, path):
        """Materialize a version as a standalone artifact ``.npz`` file."""
        artifact = self.get(ref_or_digest)
        artifact.save(path)
        return artifact

    def log(self, ref_or_digest: str) -> list[dict]:
        """Version manifests from ``ref_or_digest`` back to the root, newest first."""
        out = [self.manifest(ref_or_digest)]
        while out[-1]["parent"] is not None:
            if len(out) > _MAX_CHAIN:
                raise RegistryError("lineage chain exceeds sanity bound (cycle?)")
            out.append(self.manifest(out[-1]["parent"]))
        return out

    # ------------------------------------------------------------------ syncing
    def _require_remote(self, remote: Remote | None) -> Remote:
        remote = remote or self.remote
        if remote is None:
            raise RegistryError("no remote bound to this registry (pass one)")
        return remote

    def _chain_digests(self, head: str) -> list[str]:
        """Every object digest (manifests + payloads) reachable from ``head``."""
        out: list[str] = []
        for manifest in self.log(head):
            out.append(manifest["digest"])
            out.append(manifest["payload"])
        return out

    def push(self, ref_or_digest: str, remote: Remote | None = None) -> dict:
        """Upload a version's full lineage (and advance the remote ref)."""
        remote = self._require_remote(remote)
        head = self.resolve(ref_or_digest)
        pushed = skipped = 0
        for digest in self._chain_digests(head):
            if remote.has_blob(digest):
                skipped += 1
                continue
            remote.put_blob(digest, self._fetch(digest))
            pushed += 1
        name = ref_or_digest if self.store.get_ref(ref_or_digest) else None
        if name is not None:
            remote.set_ref(name, head)
        return {"head": head, "pushed": pushed, "skipped": skipped, "ref": name}

    def pull(self, ref_or_digest: str, remote: Remote | None = None) -> dict:
        """Fetch a version's full lineage from the remote into the local cache."""
        remote = self._require_remote(remote)
        name = None
        head = remote.get_ref(ref_or_digest)
        if head is not None:
            name = ref_or_digest
        else:
            head = ref_or_digest
            if len(head) != 64 or set(head) - set("0123456789abcdef"):
                raise RegistryError(
                    f"{ref_or_digest!r} is neither a remote ref nor a full digest"
                )
        pulled = skipped = 0
        # Walk manifests via _fetch (which caches as it goes), then sweep the
        # payloads the walk referenced.
        cursor: str | None = head
        while cursor is not None:
            for digest in (cursor,):
                if self.store.has(digest):
                    skipped += 1
                else:
                    self.store.put(remote.get_blob(digest))
                    pulled += 1
            manifest = self.manifest(cursor)
            payload = manifest["payload"]
            if self.store.has(payload):
                skipped += 1
            else:
                self.store.put(remote.get_blob(payload))
                pulled += 1
            cursor = manifest["parent"]
        if name is not None:
            self.store.set_ref(name, head)
        return {"head": head, "pulled": pulled, "skipped": skipped, "ref": name}

    # ----------------------------------------------------------------- lifecycle
    def evict_local(self, keep_refs: bool = True) -> int:
        """Drop every locally cached object (refs survive by default).

        Models the cache-pressure path: after eviction any ``get`` walks to
        the remote. Returns the number of objects removed.
        """
        removed = 0
        for digest in self.store.digests():
            removed += bool(self.store.delete(digest))
        if not keep_refs:
            for name in list(self.store.refs()):
                self.store.delete_ref(name)
        return removed

    def stats(self) -> dict:
        """Storage accounting (the bench's delta-vs-full scorecard)."""
        objects = self.store.digests()
        manifests = versions = 0
        payload_bytes = {"full": 0, "delta": 0}
        for digest in objects:
            data = self.store.get(digest)
            try:
                info = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if isinstance(info, dict) and info.get("schema") == MANIFEST_SCHEMA:
                manifests += 1
                versions += 1
                if self.store.has(info["payload"]):
                    kind = info["kind"]
                    payload_bytes[kind] = payload_bytes.get(kind, 0) + (
                        len(self.store.get(info["payload"]))
                    )
        return {
            "objects": len(objects),
            "versions": versions,
            "total_bytes": self.store.object_bytes(),
            "payload_bytes": payload_bytes,
            "refs": self.refs(),
            "pulled_blobs": self.pulled_blobs,
        }
