"""Miss-status holding registers (MSHRs): the non-blocking-cache core.

Both cache levels track outstanding line fills through one
:class:`MshrFile` -- a bounded map of line address to :class:`MshrEntry`.
A primary miss allocates an entry and the cache keeps serving younger
requests (*hit-under-miss*); secondary misses to an in-flight line
*coalesce* onto the existing entry instead of issuing a duplicate fetch;
the refill drains every coalesced waiter at once.  With ``coalescing``
disabled a secondary miss reports "busy" and the requester retries until
the refill lands, and with ``capacity=1`` the file degenerates to the
classic blocking cache -- the ablation baseline of the ``mlp-ablation``
campaign.

The file mirrors the reference non-blocking D-cache design this repo
tracks (synapse32 ``dcache_mshr.v``: basic tracking + request coalescing
+ hit-during-refill) minus its word-offset bookkeeping, which a
line-granular timing model does not need.

Hot-path conventions: the owning cache keeps a direct reference to
:attr:`MshrFile.entries` for the per-access lookup; all counters are
plain ints bumped inline and added to the owner's snapshot only when
the owner opts in (``emit_mshr_stats``) -- the default configuration
emits no new stat keys, which is what keeps default-config result
digests byte-identical across this subsystem's introduction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.messages import Message
from repro.sim.stats import Number, mean_into


class MshrEntry:
    """One outstanding line fill and the requests riding on it."""

    __slots__ = ("line_addr", "exclusive", "waiters")

    def __init__(self, line_addr: int, exclusive: bool) -> None:
        self.line_addr = line_addr
        #: The fill must grant write permission (a store is waiting).
        self.exclusive = exclusive
        #: Requests answered when the refill lands, in arrival order.
        self.waiters: List[Message] = []


class MshrFile:
    """A bounded file of MSHR entries keyed by line address.

    Args:
        capacity: maximum outstanding line fills; 1 models a blocking
            cache (every miss occupies the sole entry until its refill).
        coalescing: merge secondary misses onto the in-flight entry.
            Off, :meth:`coalesce` refuses and the cache back-pressures
            the request until the line's refill completes.
    """

    __slots__ = ("capacity", "coalescing", "entries", "coalesced_misses",
                 "hit_under_miss", "refills", "occupancy_total",
                 "occupancy_samples")

    def __init__(self, capacity: int, coalescing: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"MSHR file needs >= 1 entry, got {capacity}")
        self.capacity = capacity
        self.coalescing = coalescing
        #: line address -> in-flight entry.  Owners alias this dict for
        #: the hot-path lookup; mutate it only through the methods here.
        self.entries: Dict[int, MshrEntry] = {}
        # -- plain-int counters (see module docstring) ----------------- #
        self.coalesced_misses = 0
        #: Hits served while at least one miss was outstanding (the
        #: cache's owner bumps this inline; it lives here so one
        #: snapshot exports the whole MSHR story).
        self.hit_under_miss = 0
        self.refills = 0
        self.occupancy_total = 0
        self.occupancy_samples = 0

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def allocate(self, line_addr: int, exclusive: bool) -> MshrEntry:
        """Install a new entry (primary miss); samples occupancy *after*
        insertion, so the mean reflects entries in flight."""
        entry = MshrEntry(line_addr, exclusive)
        self.entries[line_addr] = entry
        self.occupancy_total += len(self.entries)
        self.occupancy_samples += 1
        return entry

    def coalesce(self, entry: MshrEntry, msg: Message,
                 exclusive: bool) -> bool:
        """Merge a secondary miss onto ``entry``; ``False`` refuses it
        (coalescing disabled) and the caller must back-pressure."""
        if not self.coalescing:
            return False
        entry.waiters.append(msg)
        if exclusive:
            entry.exclusive = True
        self.coalesced_misses += 1
        return True

    def complete(self, line_addr: int) -> Optional[MshrEntry]:
        """Retire the entry for a landed refill (``None`` if raced away)."""
        entry = self.entries.pop(line_addr, None)
        if entry is not None:
            self.refills += 1
        return entry

    def snapshot(self, out: Dict[str, Number]) -> None:
        """Add ``mshr_occupancy`` (mean over allocations),
        ``mshr_refills``, ``coalesced_misses`` and ``hit_under_miss`` to
        the owner's snapshot ``out``.

        Owners call this only for non-default MSHR configurations: a
        snapshot key that exists changes every pinned result digest.
        """
        mean_into(out, "mshr_occupancy", self.occupancy_total,
                  self.occupancy_samples)
        out["mshr_refills"] = self.refills
        out["coalesced_misses"] = self.coalesced_misses
        out["hit_under_miss"] = self.hit_under_miss
