"""Cache replacement policies for the policy-driven set-associative cache.

The paper's LLC uses LRU (Table III). Two policies remain, one per caller
that needs one: the :class:`~repro.sim.hierarchy.HierarchyConfig` levels
(single-core and multi-core) use ``lru``, and the contention world's
:class:`~repro.sim.contention.ContentionConfig` L1s and shared L2 use
``plru``. The sim goldens pin both, and BENCH_contention's gates run on
``plru``.

A :class:`ReplacementPolicy` owns per-*way* metadata for every set and is
driven by four events from :class:`~repro.sim.policy_cache.PolicyCache`:

* ``on_fill(set, way, prefetched)``   — a new line was allocated into ``way``;
* ``on_hit(set, way)``                — a demand access hit ``way``;
* ``victim(set) -> way``              — choose the way to evict (every way is
  valid when this is called; the cache fills invalid ways first);
* ``on_invalidate(set, way)``         — the line in ``way`` was removed
  (back-invalidation); the policy marks the way maximally evictable so
  stale metadata cannot outlive the line.

Implemented policies (both O(ways) per event, allocation-free in steady state):

=============  ==============================================================
``lru``        least-recently-used (timestamp per way)
``plru``       tree-based pseudo-LRU (the common L1 policy; any way count —
               the tree is padded to the next power of two)
=============  ==============================================================

Use :func:`make_policy` to construct one by name.
"""

from __future__ import annotations

import numpy as np


class ReplacementPolicy:
    """Per-set replacement state: subclasses implement the three hooks."""

    def __init__(self, n_sets: int, n_ways: int):
        if n_sets <= 0 or n_ways <= 0:
            raise ValueError("n_sets and n_ways must be positive")
        self.n_sets = int(n_sets)
        self.n_ways = int(n_ways)

    def on_fill(self, set_idx: int, way: int, prefetched: bool = False) -> None:
        raise NotImplementedError

    def on_hit(self, set_idx: int, way: int) -> None:
        raise NotImplementedError

    def victim(self, set_idx: int) -> int:
        """Way to evict; called only when every way in the set is valid."""
        raise NotImplementedError

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """The line in ``way`` was removed; drop any per-way preference.

        Default is a no-op; LRU and PLRU mark the way maximally evictable so
        a stale stamp or tree path cannot steer victims as if the
        invalidated line were still live.
        """

    def reset(self) -> None:  # pragma: no cover - overridden where stateful
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Classic LRU via a per-way last-touch timestamp."""

    def __init__(self, n_sets: int, n_ways: int):
        super().__init__(n_sets, n_ways)
        self._stamp = np.zeros((n_sets, n_ways), dtype=np.int64)
        self._clock = 0

    def _touch(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx, way] = self._clock

    def on_fill(self, set_idx: int, way: int, prefetched: bool = False) -> None:
        self._touch(set_idx, way)

    def on_hit(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def victim(self, set_idx: int) -> int:
        return int(np.argmin(self._stamp[set_idx]))

    def on_invalidate(self, set_idx: int, way: int) -> None:
        self._stamp[set_idx, way] = 0  # older than everything live

    def reset(self) -> None:
        self._stamp.fill(0)
        self._clock = 0


class PLRUPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU.

    A complete binary tree of direction bits per set; an access flips the
    bits along its root-to-leaf path to point *away* from the way, and the
    victim walk follows the bits. Any way count works: the tree spans the
    next power of two and the victim walk is steered left whenever the bits
    point into a subtree made entirely of phantom (non-existent) ways, so a
    12-way L1D gets true tree-PLRU behavior. Power-of-two geometries are
    bit-for-bit identical to the classic unpadded tree.
    """

    def __init__(self, n_sets: int, n_ways: int):
        super().__init__(n_sets, n_ways)
        self._tree_ways = 1 << max(0, n_ways - 1).bit_length()
        self._levels = self._tree_ways.bit_length() - 1
        self._bits = np.zeros((n_sets, max(self._tree_ways - 1, 1)), dtype=np.uint8)

    def _touch(self, set_idx: int, way: int) -> None:
        bits = self._bits[set_idx]
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            bits[node] = 1 - bit  # point away from the accessed side
            node = 2 * node + 1 + bit

    def on_fill(self, set_idx: int, way: int, prefetched: bool = False) -> None:
        self._touch(set_idx, way)

    def on_hit(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def victim(self, set_idx: int) -> int:
        bits = self._bits[set_idx]
        node = 0
        way = 0
        span = self._tree_ways
        for _ in range(self._levels):
            span >>= 1
            b = int(bits[node])
            # A subtree whose leftmost leaf is >= n_ways holds only phantom
            # ways (valid ways are contiguous from 0) — go left instead.
            if ((way << 1) | b) * span >= self.n_ways:
                b = 0
            way = (way << 1) | b
            node = 2 * node + 1 + b
        return way

    def on_invalidate(self, set_idx: int, way: int) -> None:
        bits = self._bits[set_idx]
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            bits[node] = bit  # point *toward* the emptied way
            node = 2 * node + 1 + bit

    def reset(self) -> None:
        self._bits.fill(0)


_POLICIES = {
    "lru": LRUPolicy,
    "plru": PLRUPolicy,
}


def make_policy(name: str, n_sets: int, n_ways: int, **kwargs) -> ReplacementPolicy:
    """Construct a replacement policy by name (see module docstring)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}")
    return cls(n_sets, n_ways, **kwargs)


def policy_names() -> list[str]:
    """Names accepted by :func:`make_policy`."""
    return sorted(_POLICIES)
