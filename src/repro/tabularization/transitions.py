"""Exact code transitions: a downstream encode becomes a gather.

A table lookup's output is a function of its code tuple alone: row ``r``
of ``lookup_aggregate(table, codes)`` is ``table[0][a] + table[1][b] + …``
for ``codes[r] = (a, b, …)``. When that output reaches the next quantizer
only through elementwise ops, the next quantizer's codes are a function of
the same tuple. A source table with ``K`` prototypes in ``C`` subspaces has
``K**C`` tuples, so those codes can be precomputed once per tuple and then
looked up instead of searched. This is the exact form of the paper's
proposal to "convert multiple layers into a single table" (Sec. VIII).

An encoder layer has two such sites:

* **QKV → attention.** The Q and K rows of every head are column slices of
  the QKV lookup, so their ``pq_q`` / ``pq_k`` codes are mapped. Only the V
  third of the QKV table is still gathered at query time.
* **FFN1 → ReLU → FFN2.** The FFN2 input is ``relu`` of the FFN1 lookup, so
  its ``ffn2`` codes are mapped. The FFN1 lookup and the ReLU no longer run
  at query time.

**Exactness.** :func:`build_code_map` walks the source code space through
:func:`~repro.quantization.pq.lookup_aggregate`, the query path's own
gather-and-sum in subspace order, so each row has the bits a query would
produce. It applies the site's ReLU with the same ufunc and encodes with the
destination quantizer's own ``encode``. Both encoders give a row the same
codes whatever rows share its call: the exact encoder's GEMM does not depend
on the row count (see :func:`~repro.quantization.kmeans.nearest_into`), and
the hash tree compares values. So a mapped site returns bit for bit what the
encode it replaces would.

**Bounds.** A site maps only when ``K**C <= MAX_SOURCE_TUPLES``, which covers
the paper's (16, 1), (128, 2) and (256, 2) variants. Above it the site
encodes as before. Codes are stored in the narrowest unsigned dtype that
holds ``K - 1``: 160 KiB for both sites of a K=128, C=2 layer.

**Lifetime.** A :class:`CodeMapCache` builds its map on first use, so
loading a model, building its fast-path plan or an engine builds nothing.
It rebuilds when the source table or a destination's prototypes are
rebound, as ``TabularLinear.rebuild``, ``apply_bitwidth`` and refitting do.
The maps are a CPU serving structure, not hardware tables: the analytic
cost model (Eqs. 20-23) does not charge them.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.quantization.pq import lookup_aggregate

__all__ = [
    "MAX_SOURCE_TUPLES",
    "BUILD_CHUNK",
    "CodeMapCache",
    "build_code_map",
    "code_dtype",
    "mappable",
    "tuple_radix",
]

#: Largest source code space (``K**C`` tuples) a site maps.
MAX_SOURCE_TUPLES = 65_536
#: Source tuples per build step. It bounds the float64 rows and encode
#: buffers a build holds at once, in every process that serves the model
#: (each sharded worker builds its own maps).
BUILD_CHUNK = 512
#: Serializes cache misses, so concurrent first queries build a map once.
_BUILD_LOCK = threading.Lock()


def mappable(table: np.ndarray) -> bool:
    """Whether a ``(C, K, D_out)`` source table's code space gets a map."""
    c, k = table.shape[:2]
    return k**c <= MAX_SOURCE_TUPLES


def code_dtype(n_prototypes: int) -> np.dtype:
    """The narrowest unsigned dtype that holds codes ``0 .. K-1``."""
    return np.min_scalar_type(max(int(n_prototypes) - 1, 0))


def tuple_radix(table: np.ndarray) -> np.ndarray:
    """``(C,)`` weights of a code tuple's flat index, subspace 0 most significant.

    For codes into the ``(C, K, D_out)`` ``table``, ``codes @ radix`` gives
    the map row of ``(n, C)`` codes and ``radix @ codes`` that of ``(C, n)``.
    """
    c, k = table.shape[:2]
    return k ** np.arange(c - 1, -1, -1, dtype=np.intp)


def build_code_map(table: np.ndarray, dests, relu: bool = False) -> np.ndarray:
    """Destination codes for every code tuple of a ``(C, K, D_out)`` table.

    ``dests`` lists ``(start, stop, pq)``: columns ``start:stop`` of the
    source output are split into consecutive ``pq.dim``-wide rows (one per
    attention head) and encoded with ``pq``. Row ``i`` of the result holds,
    for tuple ``i`` in :func:`tuple_radix` order, each destination's codes
    in ``dests`` order, then row order, then subspace order. ``relu`` applies
    ``max(x, 0)`` to the source rows first.
    """
    c, k = table.shape[:2]
    n = k**c
    width = sum((stop - start) // pq.dim * pq.n_subspaces for start, stop, pq in dests)
    out = np.empty((n, width), dtype=code_dtype(max(pq.n_prototypes for *_, pq in dests)))
    radix = tuple_radix(table)
    for s in range(0, n, BUILD_CHUNK):
        tuples = np.arange(s, min(s + BUILD_CHUNK, n), dtype=np.intp)
        rows = lookup_aggregate(table, tuples[:, None] // radix % k)
        if relu:
            np.maximum(rows, 0.0, out=rows)
        col = 0
        for start, stop, pq in dests:
            part = rows[:, start:stop].reshape(-1, pq.dim)
            w = part.shape[0] // len(tuples) * pq.n_subspaces
            out[s : s + len(tuples), col : col + w] = pq.encode(part).reshape(len(tuples), w)
            col += w
    return out


class CodeMapCache:
    """One site's derived data, built on first use and keyed on identity.

    ``get(key, build)`` returns the cached value while every array in ``key``
    is the object it was built from, and calls ``build()`` otherwise, the way
    ``ProductQuantizer.exact_operands`` caches its operands. Safe to call from
    several threads: a miss takes a lock and checks again, so concurrent first
    calls build once, and the hit path takes no lock.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry: tuple = ((), None)

    def get(self, key: tuple, build):
        old, value = self._entry
        if len(old) == len(key):
            for a, b in zip(key, old):
                if a is not b:
                    break
            else:  # the serving hot path: every array is the one built from
                return value
        with _BUILD_LOCK:
            old, value = self._entry
            if len(old) != len(key) or any(a is not b for a, b in zip(key, old)):
                value = build()
                self._entry = (key, value)
        return value
