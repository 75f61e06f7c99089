"""Set-associative cache with LRU replacement and per-line prefetch metadata.

Lines carry a ``ready_cycle`` (fill completion time — a demand hit on an
in-flight line stalls until then), a ``prefetched`` bit and a ``used`` bit
(for the accuracy/coverage taxonomy). Sets are insertion-ordered dicts: Python
dicts preserve order, so LRU is pop-first / re-insert-on-hit — O(1) per op
and allocation-free in steady state.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheLine:
    ready_cycle: float
    prefetched: bool
    used: bool


class SetAssocCache:
    """LRU set-associative cache keyed by block address."""

    def __init__(self, n_sets: int, n_ways: int):
        if n_sets <= 0 or (n_sets & (n_sets - 1)) != 0:
            raise ValueError(f"n_sets must be a power of two, got {n_sets}")
        if n_ways <= 0:
            raise ValueError("n_ways must be positive")
        self.n_sets = int(n_sets)
        self.n_ways = int(n_ways)
        self._sets: list[dict[int, CacheLine]] = [dict() for _ in range(self.n_sets)]
        self._mask = self.n_sets - 1

    # ------------------------------------------------------------------ sizing
    @classmethod
    def from_capacity(cls, capacity_bytes: int, n_ways: int = 16, block_bytes: int = 64) -> "SetAssocCache":
        """Build from a capacity spec (e.g. 8 MiB, 16-way, 64 B blocks)."""
        n_sets = capacity_bytes // (n_ways * block_bytes)
        return cls(n_sets, n_ways)

    # ------------------------------------------------------------------- ops
    def lookup(self, block: int) -> CacheLine | None:
        """Return the line (refreshing LRU) or None; does not allocate."""
        s = self._sets[block & self._mask]
        line = s.get(block)
        if line is not None:
            # Move to MRU position.
            del s[block]
            s[block] = line
        return line

    def peek(self, block: int) -> CacheLine | None:
        """Lookup without LRU refresh (used by stats/tests)."""
        return self._sets[block & self._mask].get(block)

    def insert(self, block: int, ready_cycle: float, prefetched: bool) -> None:
        """Allocate a line, evicting the LRU line when the set is full.

        Re-inserting a resident block (a demand fill over an in-flight
        prefetch) replaces its line at the MRU position.
        """
        s = self._sets[block & self._mask]
        if s.pop(block, None) is None and len(s) >= self.n_ways:
            del s[next(iter(s))]
        s[block] = CacheLine(ready_cycle, prefetched, False)

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def reset(self) -> None:
        for s in self._sets:
            s.clear()
