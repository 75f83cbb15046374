"""Set-associative cache arrays with MESI line states and LRU replacement.

:class:`CacheArray` is pure bookkeeping -- geometry, lookup, fill, evict --
with no timing; the L1 and LLC components wrap it with queues and
latencies.  Lines carry a *version* tag instead of data bytes (see
DESIGN.md): the stale-read detector compares the version a load observes
with the version the last program-order-preceding PIM op produced.

Lines also carry a ``pim`` flag (the line belongs to a PIM-enabled scope),
which is what feeds the scope bit-vector (Section IV-B: the page-table
marks PIM-enabled pages and the marking travels with each request).
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Optional

from repro.memory.mesi import MesiState

_by_tick = operator.attrgetter("tick")


class CacheLine:
    """One cache line's metadata."""

    __slots__ = ("addr", "state", "version", "scope", "pim", "tick")

    def __init__(self, addr: int, state: MesiState, version: int,
                 scope: Optional[int], pim: bool) -> None:
        self.addr = addr
        self.state = state
        self.version = version
        self.scope = scope
        self.pim = pim
        self.tick = 0

    @property
    def dirty(self) -> bool:
        return self.state is MesiState.MODIFIED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Line {self.addr:#x} {self.state.name} v{self.version}"
                f"{' pim' if self.pim else ''}>")


class CacheArray:
    """Geometry + content of one cache level (no timing).

    Addresses are byte addresses; lines are ``line_bytes`` wide and the
    set index is the classic ``(addr / line_bytes) % num_sets``.
    """

    def __init__(self, num_sets: int, ways: int, line_bytes: int = 64) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("cache geometry must be positive")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        self.num_sets = num_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._line_mask = ~(line_bytes - 1)
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(num_sets)]
        self._tick = 0

    # -- address helpers ---------------------------------------------- #

    def line_addr(self, addr: int) -> int:
        return addr & self._line_mask

    def set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) % self.num_sets

    # -- lookup / update ------------------------------------------------ #

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Find the line holding ``addr`` (bumping LRU unless ``touch=False``)."""
        line = self._sets[(addr >> self._line_shift) % self.num_sets].get(
            addr & self._line_mask
        )
        if line is None or line.state is MesiState.INVALID:
            return None
        if touch:
            self._tick = tick = self._tick + 1
            line.tick = tick
        return line

    def fill(self, addr: int, state: MesiState, version: int,
             scope: Optional[int], pim: bool) -> CacheLine:
        """Install a line (caller must have made room with :meth:`victim`)."""
        line_addr = addr & self._line_mask
        cache_set = self._sets[(addr >> self._line_shift) % self.num_sets]
        if len(cache_set) >= self.ways and line_addr not in cache_set:
            raise RuntimeError(f"set {self.set_index(addr)} full; evict first")
        line = CacheLine(line_addr, state, version, scope, pim)
        self._tick = line.tick = self._tick + 1
        cache_set[line_addr] = line
        return line

    def victim(self, addr: int) -> Optional[CacheLine]:
        """The line to evict to make room for ``addr`` (None if room exists)."""
        cache_set = self._sets[(addr >> self._line_shift) % self.num_sets]
        if len(cache_set) < self.ways:
            return None
        return min(cache_set.values(), key=_by_tick)

    def remove(self, addr: int) -> Optional[CacheLine]:
        """Drop the line holding ``addr`` entirely (invalidation)."""
        line_addr = self.line_addr(addr)
        return self._sets[self.set_index(addr)].pop(line_addr, None)

    # -- scans ------------------------------------------------------------ #

    def lines_in_set(self, index: int) -> Iterable[CacheLine]:
        return list(self._sets[index].values())

    def take_scope_lines(self, index: int, scope: int):
        """Remove and return this set's lines of ``scope``, in one pass.

        Also reports whether any PIM-enabled line *remains* in the set
        (the SBV re-check of Section IV-B), fused into the same walk --
        the per-set scan is the LLC's hottest handler by far.

        Returns ``(removed_lines, set_still_has_pim)``.
        """
        cache_set = self._sets[index]
        matches = None
        has_pim = False
        for line in cache_set.values():
            if line.scope == scope:
                if matches is None:
                    matches = [line]
                else:
                    matches.append(line)
            elif line.pim:
                has_pim = True
        if matches is None:
            return (), has_pim
        for line in matches:
            del cache_set[line.addr]
        return matches, has_pim

    def set_has_pim_line(self, index: int) -> bool:
        """Does this set still hold any line from a PIM-enabled scope?

        Used to clear SBV bits on eviction (Section IV-B: "all remaining
        cache-lines in the same set are checked").
        """
        return any(l.pim for l in self._sets[index].values())

    def scope_lines(self, scope: int) -> List[CacheLine]:
        """All cached lines of one scope (testing/verification aid)."""
        return [l for s in self._sets for l in s.values() if l.scope == scope]
