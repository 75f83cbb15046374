"""The scope buffer (Section IV-A).

A small cache-like structure next to a cache, indexed by scope id, holding
entries for scopes whose lines were recently flushed from that cache.  A
PIM op that *hits* in the scope buffer skips the cache scan entirely; a
miss triggers a set-by-set scan and then inserts the scope.  When a line
from a PIM-enabled scope is *inserted* into the cache, its scope is erased
from the scope buffer (the cache may now hold lines of that scope again).

The hit rate this structure achieves is Fig. 9 of the paper.
"""

from __future__ import annotations

from typing import Dict, List


class ScopeBuffer:
    """Set-associative scope cache with LRU replacement.

    >>> sb = ScopeBuffer(sets=2, ways=1)
    >>> sb.lookup(3)
    False
    >>> sb.insert(3); sb.lookup(3)
    True
    >>> sb.invalidate(3); sb.lookup(3)
    False
    """

    def __init__(self, sets: int, ways: int) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("scope buffer geometry must be positive")
        self.sets = sets
        self.ways = ways
        self._entries: List[Dict[int, int]] = [dict() for _ in range(sets)]
        self._tick = 0
        #: Recorded lookups and their hits (the Fig. 9 hit rate).
        self.lookups = 0
        self.hits = 0

    def _set_of(self, scope: int) -> Dict[int, int]:
        return self._entries[scope % self.sets]

    def lookup(self, scope: int) -> bool:
        """PIM-op lookup: counts toward the hit rate, refreshes LRU."""
        entry_set = self._set_of(scope)
        self.lookups += 1
        if scope in entry_set:
            self.hits += 1
            self._tick += 1
            entry_set[scope] = self._tick
            return True
        return False

    def insert(self, scope: int) -> None:
        """Insert after a completed scan; LRU-evicts silently when full.

        Eviction needs "no additional action" (Section IV-A) -- losing an
        entry only costs a redundant scan later, never correctness.
        """
        entry_set = self._set_of(scope)
        if scope not in entry_set and len(entry_set) >= self.ways:
            lru = min(entry_set, key=entry_set.get)
            del entry_set[lru]
        self._tick += 1
        entry_set[scope] = self._tick

    def invalidate(self, scope: int) -> None:
        """A line of ``scope`` was inserted into the cache: drop the entry."""
        self._set_of(scope).pop(scope, None)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    # -- analytical area model (Section VI: 0.092% / 0.22% overheads) -- #

    def storage_bits(self, scope_tag_bits: int = 32) -> int:
        """SRAM bits: per entry, a scope tag + valid bit + LRU counter."""
        lru_bits = max(1, (self.ways - 1).bit_length())
        return self.sets * self.ways * (scope_tag_bits + 1 + lru_bits)
