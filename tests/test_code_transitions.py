"""Exact code transitions: mapped sites give the unfused kernels' bits.

The QKV -> attention and FFN1 -> ReLU -> FFN2 sites of every encoder layer
look their destination codes up in a map built from the source table (see
:mod:`repro.tabularization.transitions`). A map is only worth serving if it
is exact, so every test here compares with ``np.array_equal`` against the
composition of the kernels' own ``query`` calls, which encode every site.
"""

from __future__ import annotations

import copy
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

import repro.tabularization.tabular_model as tabular_model
from repro.data import PreprocessConfig, build_dataset
from repro.models import AttentionPredictor, ModelConfig
from repro.prefetch import DARTPrefetcher
from repro.prefetch.nn_prefetcher import model_prefetch_lists
from repro.quantization import apply_bitwidth
from repro.quantization.pq import ProductQuantizer
from repro.tabularization import TableConfig, tabularize_predictor
from repro.tabularization.serialization import load_tabular_model, save_tabular_model
from repro.tabularization.transitions import (
    BUILD_CHUNK,
    MAX_SOURCE_TUPLES,
    code_dtype,
    mappable,
)
from repro.traces import make_workload

PRE = PreprocessConfig(history_len=8, window=6, delta_range=32)
N_ROWS = 40


@lru_cache(maxsize=1)
def _dataset():
    trace = make_workload("462.libquantum", scale=0.02, seed=3)
    return trace, build_dataset(trace.pcs, trace.addrs, PRE, max_samples=400)


@lru_cache(maxsize=None)
def _model(k: int, c: int, encoder: str = "exact"):
    """Untrained-student tables: the weights do not matter for identity."""
    _, ds = _dataset()
    student = AttentionPredictor(
        ModelConfig(layers=1, dim=16, heads=2, history_len=PRE.history_len,
                    bitmap_size=PRE.bitmap_size),
        ds.x_addr.shape[2], ds.x_pc.shape[2], rng=0,
    )
    model, _ = tabularize_predictor(
        student, ds.x_addr, ds.x_pc, TableConfig.uniform(k, c, encoder=encoder), rng=0
    )
    return model


def fresh_model(k: int, c: int, encoder: str = "exact"):
    """A private copy whose tables and caches no other test touches."""
    return copy.deepcopy(_model(k, c, encoder))


def unfused_proba(model, x_addr, x_pc):
    """The hierarchy as the composition of the kernels' own ``query`` calls."""
    h = model.addr_table.query(x_addr) + model.pc_table.query(x_pc)
    h = model.ln_in.query(model.pos.apply_inference(h))
    for layer in model.layers:
        msa = layer.msa
        b, t, d = h.shape
        heads, dh = msa.heads, msa.head_dim

        def split(m):
            return m.reshape(b, t, heads, dh).transpose(0, 2, 1, 3).reshape(b * heads, t, dh)

        q, k, v = np.split(msa.qkv.query(h), 3, axis=-1)
        ctx = msa.attn.query(split(q), split(k), split(v))
        merged = ctx.reshape(b, heads, t, dh).transpose(0, 2, 1, 3).reshape(b, t, d)
        h1 = layer.ln1.query(h + msa.out.query(merged))
        f = layer.ffn2.query(np.maximum(layer.ffn1.query(h1), 0.0))
        h = layer.ln2.query(h1 + f)
    return model.sigmoid.query(model.head_table.query(h.mean(axis=-2)))


def rows():
    _, ds = _dataset()
    return ds.x_addr[:N_ROWS], ds.x_pc[:N_ROWS]


def assert_serves_unfused(model):
    xa, xp = rows()
    ref = unfused_proba(model, xa, xp)
    assert np.array_equal(model.predict_proba(xa, xp), ref)
    for i in range(len(xa)):
        assert np.array_equal(model.query1(xa[i], xp[i]), ref[i]), f"row {i} diverged"


@pytest.mark.parametrize("encoder", ["exact", "hash"])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("k", [8, 16, 128])
def test_mapped_sites_bitwise_equal_unfused(k, c, encoder):
    model = fresh_model(k, c, encoder)
    assert_serves_unfused(model)
    layer = model.layers[0]
    mapped = k**c <= MAX_SOURCE_TUPLES
    assert (layer.msa.code_transition() is not None) is mapped
    assert (layer.code_transition() is not None) is mapped


def test_map_layout_and_dtype():
    """K=128, C=2: 16,384 tuples; both sites fit 160 KiB of uint8 codes."""
    layer = fresh_model(128, 2).layers[0]
    qk_codes, v_table = layer.msa.code_transition()
    ffn2_codes = layer.code_transition()
    heads, ck = layer.msa.heads, layer.msa.attn.n_subspaces_k
    assert qk_codes.shape == (128**2, 2 * heads * ck)
    assert ffn2_codes.shape == (128**2, layer.ffn2.pq.n_subspaces)
    assert qk_codes.dtype == ffn2_codes.dtype == np.uint8
    assert qk_codes.nbytes + ffn2_codes.nbytes == 160 * 1024
    d = layer.msa.dim
    assert v_table.flags.c_contiguous
    assert np.array_equal(v_table, layer.msa.qkv.table[:, :, 2 * d :])
    assert code_dtype(256) == np.uint8 and code_dtype(257) == np.uint16


def test_fallback_above_the_bound_encodes():
    """K=64, C=3 is 262,144 tuples: both sites encode, nothing is built."""
    model = fresh_model(64, 3)
    layer = model.layers[0]
    assert not mappable(layer.msa.qkv.table) and not mappable(layer.ffn1.table)
    assert_serves_unfused(model)
    assert layer.msa.code_transition() is None
    assert layer.code_transition() is None
    assert not model.fast_path().layers[0].mapped


def test_mapped_sites_skip_their_encodes(monkeypatch):
    """Per query: the pq_q and pq_k rows (H·T each) and the FFN2 rows (T)
    are looked up, not encoded; the one-time build is not counted."""
    model = fresh_model(16, 2)
    xa, xp = rows()
    model.predict_proba(xa[:1], xp[:1])  # build the maps
    encoded = []
    real = ProductQuantizer.encode

    def counting(self, x2d):
        encoded.append(x2d.shape[0])
        return real(self, x2d)

    monkeypatch.setattr(ProductQuantizer, "encode", counting)
    model.predict_proba(xa, xp)
    mapped_rows = sum(encoded)
    layer = model.layers[0]
    monkeypatch.setattr(layer.msa, "code_transition", lambda: None)
    monkeypatch.setattr(layer, "code_transition", lambda: None)
    encoded.clear()
    model.predict_proba(xa, xp)
    t, heads = PRE.history_len, layer.msa.heads
    assert sum(encoded) - mapped_rows == len(xa) * (2 * heads * t + t)


def test_rebuild_invalidates_maps():
    model = fresh_model(16, 2)
    layer = model.layers[0]
    assert_serves_unfused(model)
    qk_before, ffn_before = layer.msa.code_transition(), layer.code_transition()
    rng = np.random.default_rng(0)
    for lin in (layer.msa.qkv, layer.ffn1):
        lin.rebuild(rng.standard_normal((lin.out_dim, lin.in_dim)),
                    rng.standard_normal(lin.out_dim))
    assert layer.msa.code_transition() is not qk_before
    assert layer.code_transition() is not ffn_before
    assert not np.array_equal(layer.code_transition(), ffn_before)
    assert_serves_unfused(model)


def test_fake_quantize_invalidates_maps():
    model = fresh_model(16, 2)
    assert_serves_unfused(model)
    ffn_before = model.layers[0].code_transition()
    apply_bitwidth(model, 4)
    assert model.layers[0].code_transition() is not ffn_before
    assert_serves_unfused(model)


def test_refit_destination_invalidates_maps():
    """A destination quantizer's prototypes are part of the key."""
    model = fresh_model(16, 2)
    layer = model.layers[0]
    assert_serves_unfused(model)
    ffn_before = layer.code_transition()
    pq = layer.ffn2.pq
    pq.prototypes = pq.prototypes[:, ::-1].copy()  # same set, new codes
    assert layer.code_transition() is not ffn_before
    assert_serves_unfused(model)


def test_hot_swap_serves_the_new_models_maps():
    """A B=1 stream swapped onto changed tables answers with the new
    tables' codes from the swap on, never the old model's maps."""
    trace, _ = _dataset()
    trace = trace.slice(0, 400)
    old = fresh_model(16, 2)
    old.predict_proba(*rows())  # build the maps the copy inherits
    new = copy.deepcopy(old)
    rng = np.random.default_rng(1)
    for lin in (new.layers[0].msa.qkv, new.layers[0].ffn1):
        lin.rebuild(rng.standard_normal((lin.out_dim, lin.in_dim)))

    # A threshold near the median probability: the two models' emissions
    # differ on 287 of the 400 accesses (at 0.2 every query saturates).
    def lists(model):
        return model_prefetch_lists(
            trace, lambda xa, xp, batch_size=1024: unfused_proba(model, xa, xp),
            PRE, threshold=0.52, max_degree=3,
        )

    cut = 200
    want = lists(old)[:cut] + lists(new)[cut:]
    stream = DARTPrefetcher(old, PRE, threshold=0.52, max_degree=3).stream(batch_size=1)
    got = [[] for _ in range(len(trace))]
    for i in range(len(trace)):
        if i == cut:
            assert not stream.swap_model(new)  # B=1: nothing pending
        for em in stream.ingest(int(trace.pcs[i]), int(trace.addrs[i])):
            got[em.seq] = list(em.blocks)
    for em in stream.flush():
        got[em.seq] = list(em.blocks)
    assert stream.fast_path_flushes == stream.predict_calls > 0
    assert got == want


def test_nothing_builds_before_the_first_query(tmp_path, monkeypatch):
    path = tmp_path / "tables.npz"
    save_tabular_model(_model(128, 2), path)
    built = []
    real = tabular_model.build_code_map
    monkeypatch.setattr(tabular_model, "build_code_map",
                        lambda *a, **kw: built.append(1) or real(*a, **kw))
    model = load_tabular_model(path)
    model.fast_path()
    stream = DARTPrefetcher(model, PRE, max_degree=2).stream(batch_size=1)
    assert built == []
    trace, _ = _dataset()
    for i in range(PRE.history_len):
        stream.ingest(int(trace.pcs[i]), int(trace.addrs[i]))
    assert len(built) == 2  # one per site, on the first query
    xa, xp = rows()
    model.predict_proba(xa, xp)
    assert len(built) == 2  # the batch path shares the fast path's maps


def test_build_memory_is_chunk_bounded():
    """K=128, C=2 builds in BUILD_CHUNK-tuple steps: the peak stays far
    below one float64 pass over all 16,384 source rows (6 MiB of QKV rows
    at this model's D=16)."""
    layer = fresh_model(128, 2).layers[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        layer.msa.code_transition()
        layer.code_transition()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert BUILD_CHUNK <= 1024
    assert peak < 4 * 1024 * 1024, f"build peak {peak / 2**20:.1f} MiB"
