"""Content-addressed model registry: storage, deltas, lineage, sync, CLI.

Pins the registry subsystem's contracts:

* the blob store is content-addressed, integrity-checked, and crash-safe;
* successor versions store as row deltas and reconstruct **bit-identically**
  through arbitrarily deep lineage chains — including after the local cache
  is evicted and every object must be re-pulled from the remote;
* a 10-deep adaptation-style chain stores >= 5x smaller than ten full
  snapshots (the whole point of delta encoding);
* push/pull move exactly the missing objects; refs advance;
* ``ModelArtifact.save`` is atomic (a crashed save never leaves a torn file);
* the adaptation loop publishes its re-fits as delta successors;
* the ``repro registry`` CLI verbs drive all of it end to end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.registry import (
    FilesystemRemote,
    ModelRegistry,
    RegistryError,
    apply_state_delta,
    sha256_digest,
    state_delta,
)
from repro.registry.store import BlobStore
from repro.runtime import ModelArtifact
from repro.runtime.artifact import VERSION_KEY


# ------------------------------------------------------------------ helpers
def assert_states_identical(a: dict, b: dict) -> None:
    """Byte-for-byte equality of two flat array states."""
    assert sorted(a) == sorted(b)
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        assert x.dtype == y.dtype and x.shape == y.shape, key
        assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes(), key


def perturbed_successor(artifact: ModelArtifact, seed: int, cells: int = 2) -> ModelArtifact:
    """The next version with a few entries of one table nudged (re-fit shaped).

    Edits land inside a single subspace row of ``addr/table``, so the delta
    codec stores one first-axis row of one array — the sparse-edit shape a
    window re-fit produces.
    """
    state = artifact.state()
    rng = np.random.default_rng(seed)
    key = "addr/table"
    arr = np.array(state[key], copy=True)
    idx = rng.choice(arr.shape[1], size=min(cells, arr.shape[1]), replace=False)
    arr[0, idx] += rng.normal(scale=0.05, size=arr[0, idx].shape).astype(arr.dtype)
    state[key] = arr
    state[VERSION_KEY] = np.array([artifact.version + 1], dtype=np.int64)
    return ModelArtifact.from_state(state)


def make_chain(artifact: ModelArtifact, depth: int) -> list[ModelArtifact]:
    chain = [artifact]
    for i in range(depth - 1):
        chain.append(perturbed_successor(chain[-1], seed=100 + i))
    return chain


# ------------------------------------------------------------------ store
def test_blob_store_roundtrip_dedup_and_integrity(tmp_path):
    store = BlobStore(tmp_path / "reg")
    data = b"the quick brown blob"
    digest = store.put(data)
    assert digest == sha256_digest(data)
    assert store.put(data) == digest  # dedup: same digest, one object
    assert store.digests() == [digest]
    assert store.get(digest) == data
    # Corrupt the object on disk: get() must refuse, not return garbage.
    path = store._path(digest)
    with open(path, "wb") as fh:
        fh.write(b"tampered")
    with pytest.raises(RegistryError, match="corrupt"):
        store.get(digest)
    with pytest.raises(RegistryError, match="malformed object digest"):
        store.get("not-a-digest")


def test_refs_are_movable_pointers(tmp_path):
    store = BlobStore(tmp_path / "reg")
    d1, d2 = store.put(b"one"), store.put(b"two")
    store.set_ref("serving", d1)
    assert store.get_ref("serving") == d1
    store.set_ref("serving", d2)  # refs move; objects never do
    assert store.refs() == {"serving": d2}
    for bad in ("", "a/b", ".hidden"):
        with pytest.raises(RegistryError, match="malformed ref name"):
            store.set_ref(bad, d1)
    assert store.get_ref("absent") is None


def test_no_temp_files_survive_writes(tmp_path):
    store = BlobStore(tmp_path / "reg")
    store.put(b"x" * 4096)
    store.set_ref("r", store.put(b"y"))
    leftovers = [p for p in (tmp_path / "reg").rglob(".tmp-*")]
    assert leftovers == []


# ------------------------------------------------------------------ deltas
def test_state_delta_roundtrip_preserves_exotic_floats():
    parent = {
        "t": np.zeros((16, 8)),
        "same": np.arange(6, dtype=np.int32),
        "gone": np.ones(3),
    }
    t2 = parent["t"].copy()
    t2[0, 0] = -0.0  # byte change, value-equal to 0.0
    t2[5, 3] = np.nan
    child = {"t": t2, "same": parent["same"], "new": np.full(2, 7.0)}
    delta = state_delta(parent, child)
    rec = apply_state_delta(parent, delta)
    assert_states_identical(rec, child)
    # -0.0 vs 0.0 is a byte change: the row must have been stored.
    assert np.array_equal(delta["delta/rows/t"], [0, 5])
    meta = json.loads(np.asarray(delta["delta/meta"], dtype=np.uint8).tobytes())
    assert meta["unchanged"] == ["same"] and meta["removed"] == ["gone"]


def test_state_delta_fuzz_roundtrip(rng):
    for trial in range(25):
        r = np.random.default_rng(5000 + trial)
        parent = {
            f"k{i}": r.normal(size=(int(r.integers(2, 30)), int(r.integers(1, 8))))
            for i in range(int(r.integers(1, 6)))
        }
        parent["ints"] = r.integers(0, 100, size=int(r.integers(2, 40)))
        child = {}
        for key, arr in parent.items():
            roll = r.random()
            if roll < 0.2:
                continue  # dropped key
            arr = np.array(arr, copy=True)
            if roll < 0.7:  # sparse row edits
                n = int(r.integers(0, max(1, arr.shape[0] // 3)))
                idx = r.choice(arr.shape[0], size=n, replace=False)
                arr[idx] = r.normal(size=arr[idx].shape) if arr.dtype.kind == "f" \
                    else r.integers(0, 100, size=arr[idx].shape)
            elif roll < 0.85:  # reshape: must fall back to full storage
                arr = arr.reshape(-1)
            child[key] = arr
        child["brand_new"] = r.normal(size=(3, 3))
        rec = apply_state_delta(parent, state_delta(parent, child))
        assert_states_identical(rec, child)


def test_apply_delta_to_wrong_parent_is_named():
    parent = {"t": np.zeros((4, 2)), "u": np.ones(3)}
    child = {"t": np.ones((4, 2)), "u": parent["u"]}
    delta = state_delta(parent, child)
    with pytest.raises(ValueError, match="wrong parent"):
        apply_state_delta({"t": np.zeros((4, 2))}, delta)  # no "u"
    with pytest.raises(ValueError, match="not a state delta"):
        apply_state_delta(parent, {"t": np.ones((4, 2))})


# ---------------------------------------------------------------- registry
def test_put_get_full_version_bit_identical(tmp_path, dart):
    reg = ModelRegistry(tmp_path / "reg")
    digest = reg.put(dart.artifact, name="serving")
    assert reg.resolve("serving") == digest
    assert reg.put(dart.artifact, name="serving") == digest  # deterministic
    m = reg.manifest("serving")
    assert m["kind"] == "full" and m["parent"] is None
    assert m["artifact_version"] == 1
    out = reg.get("serving")
    assert out.version == dart.artifact.version
    assert_states_identical(out.state(), dart.artifact.state())
    # Prefix resolution: a unique 12-hex prefix finds the version.
    assert reg.resolve(digest[:12]) == digest
    with pytest.raises(RegistryError, match="neither a known ref"):
        reg.resolve("no-such-ref")


def test_lineage_chain_bit_identical_and_small(tmp_path, dart):
    """10-deep delta chain: every intermediate exact, >= 5x storage win."""
    depth = 10
    chain = make_chain(dart.artifact, depth)
    reg = ModelRegistry(tmp_path / "reg")
    digests = [reg.put(chain[0], name="serving")]
    for art in chain[1:]:
        digests.append(reg.put(art, parent=digests[-1], name="serving"))
    history = reg.log("serving")
    assert [m["digest"] for m in history] == digests[::-1]
    assert history[-1]["kind"] == "full"
    assert all(m["kind"] == "delta" for m in history[:-1])
    for art, digest in zip(chain, digests):  # every intermediate, not just head
        assert_states_identical(reg.state(digest), art.state())
        assert reg.get(digest).version == art.version
    full_bytes = history[-1]["payload_bytes"]
    chain_bytes = sum(m["payload_bytes"] for m in history)
    assert depth * full_bytes >= 5 * chain_bytes, (
        f"delta chain stores {chain_bytes:,}B vs {depth}x full "
        f"{depth * full_bytes:,}B — less than the required 5x win"
    )
    stats = reg.stats()
    assert stats["versions"] == depth
    assert stats["payload_bytes"]["delta"] < stats["payload_bytes"]["full"]


def test_chain_survives_cache_eviction_via_remote(tmp_path, dart):
    """After evicting every local object, get() re-pulls and stays exact."""
    remote = FilesystemRemote(tmp_path / "remote")
    reg = ModelRegistry(tmp_path / "reg", remote=remote)
    chain = make_chain(dart.artifact, 6)
    digests = [reg.put(chain[0], name="serving")]
    for art in chain[1:]:
        digests.append(reg.put(art, parent=digests[-1], name="serving"))
    reg.push("serving")
    removed = reg.evict_local()
    assert removed > 0 and reg.store.digests() == []
    assert reg.pulled_blobs == 0
    out = reg.get("serving")  # ref survived; every object walks to the remote
    assert reg.pulled_blobs >= 2 * len(chain)  # manifests + payloads
    assert_states_identical(out.state(), chain[-1].state())
    for art, digest in zip(chain, digests):
        assert_states_identical(reg.state(digest), art.state())


def test_push_pull_between_registries(tmp_path, dart):
    remote = FilesystemRemote(tmp_path / "remote")
    src = ModelRegistry(tmp_path / "src", remote=remote)
    chain = make_chain(dart.artifact, 4)
    head = src.put(chain[0], name="serving")
    for art in chain[1:]:
        head = src.put(art, parent=head, name="serving")
    report = src.push("serving")
    assert report["ref"] == "serving" and report["pushed"] == 2 * len(chain)
    assert src.push("serving")["pushed"] == 0  # second push is a no-op
    dst = ModelRegistry(tmp_path / "dst", remote=remote)
    pulled = dst.pull("serving")
    assert pulled["head"] == head and pulled["pulled"] == 2 * len(chain)
    assert dst.resolve("serving") == head
    assert_states_identical(dst.state("serving"), chain[-1].state())
    with pytest.raises(RegistryError, match="neither a remote ref"):
        dst.pull("no-such-ref")
    bare = ModelRegistry(tmp_path / "bare")
    with pytest.raises(RegistryError, match="no remote"):
        bare.push("anything")


def test_manifest_rejects_non_manifest_objects(tmp_path, dart):
    reg = ModelRegistry(tmp_path / "reg")
    digest = reg.put(dart.artifact)
    payload = reg.manifest(digest)["payload"]
    with pytest.raises(RegistryError, match="not a version manifest"):
        reg.manifest(payload)


# ------------------------------------------------------------- atomic save
def test_artifact_save_is_atomic(tmp_path, dart, monkeypatch):
    path = tmp_path / "tables.npz"
    dart.artifact.save(path)
    before = path.read_bytes()

    def torn_write(*args, **kwargs):
        raise RuntimeError("disk full mid-save")

    monkeypatch.setattr(np, "savez", torn_write)
    with pytest.raises(RuntimeError, match="disk full"):
        dart.artifact.save(path)
    monkeypatch.undo()
    # The old complete file survives untouched, and no temp junk remains.
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tables.npz"]
    assert_states_identical(ModelArtifact.load(path).state(), dart.artifact.state())


# ------------------------------------------------- adaptation loop publishing
class _SwallowEngine:
    """A stand-in serving engine: accepts any swap, drains nothing."""

    def swap_model(self, target):
        self.target = target
        return []


def test_adaptation_controller_publishes_delta_successors(tmp_path, dart):
    from repro.runtime.adaptation import AdaptationConfig, AdaptationController

    reg = ModelRegistry(tmp_path / "reg")
    ctl = AdaptationController(
        _SwallowEngine(),
        refit=lambda pcs, addrs, seed: dart.predictor,
        config=AdaptationConfig(window=2048, feature_window=512, min_samples=8),
        artifact=dart.artifact,
        registry=reg,
        publish_ref="serving",
    )
    baseline = ctl.head_digest  # published eagerly at construction
    assert baseline is not None and reg.resolve("serving") == baseline
    drained = ctl._adapt("accuracy", detected_seq=0)
    assert drained == [] and ctl.adaptations == 1
    head = ctl.head_digest
    assert head != baseline and reg.resolve("serving") == head
    m = reg.manifest(head)
    assert m["parent"] == baseline and m["artifact_version"] == 2
    assert ctl.events[-1]["digest"] == head
    assert_states_identical(reg.state(head), ctl.artifact.state())


def test_adaptation_registry_requires_artifact():
    from repro.runtime.adaptation import AdaptationController

    with pytest.raises(ValueError, match="baseline artifact"):
        AdaptationController(
            _SwallowEngine(), refit=lambda *a: None, registry=object(),
        )


# --------------------------------------------------------------------- CLI
def test_cli_registry_verbs_end_to_end(tmp_path, dart, capsys):
    from repro.cli import main

    root = str(tmp_path / "reg")
    remote = str(tmp_path / "remote")
    v1 = tmp_path / "v1.npz"
    dart.artifact.save(v1)
    v2 = tmp_path / "v2.npz"
    perturbed_successor(dart.artifact, seed=9).save(v2)

    assert main(["registry", "put", str(v1), "--root", root, "--name", "serving"]) == 0
    out1 = capsys.readouterr().out
    assert "stored as full" in out1 and "ref serving" in out1
    assert main([
        "registry", "put", str(v2), "--root", root,
        "--name", "serving", "--parent", "serving",
    ]) == 0
    assert "stored as delta" in capsys.readouterr().out

    assert main(["registry", "log", "serving", "--root", root]) == 0
    log_out = capsys.readouterr().out
    assert "delta" in log_out and "full" in log_out

    out_npz = tmp_path / "checkout.npz"
    assert main([
        "registry", "checkout", "serving", "--root", root, "-o", str(out_npz),
    ]) == 0
    assert "artifact v2" in capsys.readouterr().out
    assert_states_identical(
        ModelArtifact.load(out_npz).state(), ModelArtifact.load(v2).state()
    )

    assert main(["registry", "push", "serving", "--root", root,
                 "--remote", remote]) == 0
    assert "4 objects uploaded" in capsys.readouterr().out

    root2 = str(tmp_path / "reg2")
    assert main(["registry", "pull", "serving", "--root", root2,
                 "--remote", remote]) == 0
    assert "4 objects fetched" in capsys.readouterr().out
    assert main(["registry", "checkout", "serving", "--root", root2,
                 "-o", str(tmp_path / "c2.npz")]) == 0
    capsys.readouterr()
    assert_states_identical(
        ModelArtifact.load(tmp_path / "c2.npz").state(),
        ModelArtifact.load(v2).state(),
    )
