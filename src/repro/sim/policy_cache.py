"""Set-associative cache with a named replacement policy and write-back state.

This is the general sibling of :class:`repro.sim.cache.SetAssocCache` (which
hard-codes LRU via dict ordering for the hot simulation loop). The
policy cache is way-indexed so that any :class:`~repro.sim.replacement.
ReplacementPolicy` can own per-way metadata, and it tracks dirty bits so the
hierarchy simulator can charge write-backs to DRAM.

Lines carry the same prefetch metadata as the fast cache (``ready_cycle``,
``prefetched``, ``used``) so the taxonomy metrics are computable at any level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.replacement import ReplacementPolicy, make_policy


@dataclass
class PolicyLine:
    """One cache line's metadata (tag lives in the set's dict)."""

    block: int
    dirty: bool = False
    prefetched: bool = False
    used: bool = False
    ready_cycle: float = 0.0


@dataclass
class EvictedLine:
    """What :meth:`PolicyCache.fill` reports about the victim it displaced."""

    block: int
    dirty: bool
    prefetched: bool
    used: bool


class PolicyCache:
    """Way-indexed set-associative cache with a named replacement policy.

    Parameters
    ----------
    n_sets, n_ways:
        Geometry; ``n_sets`` must be a power of two (index = block & mask).
    policy:
        A policy name for :func:`~repro.sim.replacement.make_policy` or an
        already-constructed :class:`ReplacementPolicy` for the same geometry.
    """

    def __init__(self, n_sets: int, n_ways: int, policy: str | ReplacementPolicy = "lru"):
        if n_sets <= 0 or (n_sets & (n_sets - 1)) != 0:
            raise ValueError(f"n_sets must be a power of two, got {n_sets}")
        if n_ways <= 0:
            raise ValueError("n_ways must be positive")
        self.n_sets = int(n_sets)
        self.n_ways = int(n_ways)
        self._mask = self.n_sets - 1
        if isinstance(policy, str):
            policy = make_policy(policy, self.n_sets, self.n_ways)
        if policy.n_sets != self.n_sets or policy.n_ways != self.n_ways:
            raise ValueError("policy geometry does not match cache geometry")
        self.policy = policy
        # ways[s][w] is the line in way w of set s (None = invalid).
        self._ways: list[list[PolicyLine | None]] = [
            [None] * self.n_ways for _ in range(self.n_sets)
        ]
        # tag -> way index, one dict per set, for O(1) lookup.
        self._index: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        # Demand fills that landed on a still-prefetched, not-yet-used line:
        # the prefetch was *late* (demand paid the miss anyway) but it still
        # belongs in the used/unused taxonomy.
        self.late_fills = 0

    @classmethod
    def from_capacity(
        cls,
        capacity_bytes: int,
        n_ways: int = 16,
        block_bytes: int = 64,
        policy: str | ReplacementPolicy = "lru",
    ) -> "PolicyCache":
        """Build from a capacity spec (e.g. 8 MiB, 16-way, 64 B blocks).

        The set count is floored to a power of two (hardware-indexable), so
        e.g. a "64 KB, 12-way" spec yields 64 sets × 12 ways = 48 KB — the
        same rounding ChampSim applies to its L1D.
        """
        n_sets = capacity_bytes // (n_ways * block_bytes)
        if n_sets <= 0:
            raise ValueError("capacity too small for the given geometry")
        n_sets = 1 << (n_sets.bit_length() - 1)
        return cls(n_sets, n_ways, policy)

    # ---------------------------------------------------------------- lookups
    def set_index(self, block: int) -> int:
        return block & self._mask

    def lookup(self, block: int, write: bool = False) -> PolicyLine | None:
        """Demand access: returns the line (updating policy state) or None."""
        s = self.set_index(block)
        way = self._index[s].get(block)
        if way is None:
            return None
        line = self._ways[s][way]
        self.policy.on_hit(s, way)
        if write:
            line.dirty = True
        return line

    def peek(self, block: int) -> PolicyLine | None:
        """Lookup without touching replacement state."""
        s = self.set_index(block)
        way = self._index[s].get(block)
        return None if way is None else self._ways[s][way]

    # ------------------------------------------------------------------ fills
    def fill(
        self,
        block: int,
        dirty: bool = False,
        prefetched: bool = False,
        ready_cycle: float = 0.0,
    ) -> EvictedLine | None:
        """Allocate ``block``; returns the displaced victim (or None).

        Invalid ways are filled first; once the set is full the policy picks
        the victim. Filling a block already present merges its metadata —
        dirty accumulates, ready_cycle takes the earliest, and the
        prefetched bit is sticky (a demand fill landing on an in-flight
        prefetch counts as a *late* fill, see ``late_fills``).
        """
        s = self.set_index(block)
        idx = self._index[s]
        existing = idx.get(block)
        if existing is not None:
            line = self._ways[s][existing]
            line.dirty = line.dirty or dirty
            # A fill on a resident line never changes how it got here: a
            # demand fill overlapping an in-flight prefetch does NOT erase
            # the prefetched bit (the old `prefetched and line.prefetched`
            # did, vanishing the late prefetch from the taxonomy) — it is
            # counted as a late outcome instead.
            if line.prefetched and not line.used and not prefetched:
                self.late_fills += 1
            line.ready_cycle = min(line.ready_cycle, ready_cycle)
            self.policy.on_fill(s, existing, prefetched)
            return None
        ways = self._ways[s]
        victim: EvictedLine | None = None
        way = next((w for w, line in enumerate(ways) if line is None), None)
        if way is None:
            way = self.policy.victim(s)
            old = ways[way]
            assert old is not None
            del idx[old.block]
            victim = EvictedLine(old.block, old.dirty, old.prefetched, old.used)
        ways[way] = PolicyLine(block, dirty, prefetched, False, ready_cycle)
        idx[block] = way
        self.policy.on_fill(s, way, prefetched)
        return victim

    def invalidate(self, block: int) -> PolicyLine | None:
        """Remove ``block`` (back-invalidation for inclusive hierarchies).

        The replacement policy is told (``on_invalidate``) so stale per-way
        state — a PLRU tree pointing away from the now-empty way, an LRU
        stamp marking it recent — cannot steer future victims as if the
        line were still live. The empty way is refilled first anyway
        (invalid ways beat the policy's victim), so the hook's job is purely
        to keep policy metadata consistent with line validity.
        """
        s = self.set_index(block)
        way = self._index[s].pop(block, None)
        if way is None:
            return None
        line = self._ways[s][way]
        self._ways[s][way] = None
        self.policy.on_invalidate(s, way)
        return line

    # ------------------------------------------------------------------ stats
    def occupancy(self) -> int:
        return sum(len(d) for d in self._index)

    def blocks(self) -> list[int]:
        """All resident block addresses (unordered; for tests/analysis)."""
        out: list[int] = []
        for d in self._index:
            out.extend(d.keys())
        return out

    def reset(self) -> None:
        for s in range(self.n_sets):
            self._ways[s] = [None] * self.n_ways
            self._index[s].clear()
        self.late_fills = 0
        self.policy.reset()
