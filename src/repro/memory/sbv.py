"""The scope bit-vector (SBV, Section IV-B).

One bit per cache set; a bit is high iff its set holds at least one line
from *some* PIM-enabled scope.  A scope scan then visits only the high
sets.  Bits are set on PIM-line insertion; on PIM-line eviction the
remaining lines of the set are re-checked and the bit cleared if none is
PIM (that re-check is the hardware cost the paper accepts for precision).

The mean skipped-set ratio during scans is Fig. 10d / Fig. 12c.
"""

from __future__ import annotations

from typing import List, Set


class ScopeBitVector:
    """Tracks which cache sets may contain PIM-enabled lines.

    Hardware is one bit per set; the model keeps the *high* bits in a
    set of indices instead of a dense bool list, so enumerating the
    sets a scan must visit costs O(marked) rather than O(num_sets) --
    scans are the simulator's single most expensive handler.
    """

    def __init__(self, num_sets: int) -> None:
        if num_sets <= 0:
            raise ValueError("need at least one set")
        self.num_sets = num_sets
        self._marked: Set[int] = set()
        #: Scans recorded and the sets they skipped (Fig. 10d).
        self.scans = 0
        self.skipped_sets = 0

    def mark(self, set_index: int) -> None:
        """A PIM line was inserted into ``set_index``."""
        self._marked.add(set_index)

    def update_on_eviction(self, set_index: int, set_still_has_pim: bool) -> None:
        """A PIM line left ``set_index``; re-check the set's remaining lines."""
        if set_still_has_pim:
            self._marked.add(set_index)
        else:
            self._marked.discard(set_index)

    def is_marked(self, set_index: int) -> bool:
        return set_index in self._marked

    def sets_to_scan(self) -> List[int]:
        """Set indices a scope scan must visit (the high bits), ascending."""
        return sorted(self._marked)

    def record_scan(self, scanned: int) -> None:
        """Account one scan: ``scanned`` sets visited out of ``num_sets``."""
        self.scans += 1
        self.skipped_sets += self.num_sets - scanned

    @property
    def mean_skipped_ratio(self) -> float:
        sets = self.scans * self.num_sets
        return self.skipped_sets / sets if sets else 0.0

    def popcount(self) -> int:
        return len(self._marked)

    # -- analytical area model ------------------------------------------ #

    def storage_bits(self) -> int:
        return self.num_sets
