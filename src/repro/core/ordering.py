"""Happens-before graphs and cycle detection.

Section I argues that the software-flush approach permits executions with
*cyclic* ordering: W(A) before W(B) (fenced program order), W(B) before
PIMop (observed), PIMop before W(A) (a stale read of A after observing the
PIM result) -- so W(A) precedes itself.  This module gives that argument
teeth: build the observed happens-before relation as a graph and ask for a
cycle.  The litmus executor (:mod:`repro.core.litmus`) produces the edges
from concrete executions.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple


class HappensBefore:
    """A directed graph of happen-before edges over arbitrary event keys."""

    def __init__(self) -> None:
        # Insertion-ordered successor dicts, not sets: the cycle
        # find_cycle reports must not depend on the string hash seed.
        self._succ: Dict[Hashable, Dict[Hashable, None]] = {}
        self._labels: Dict[Tuple[Hashable, Hashable], str] = {}

    def add(self, before: Hashable, after: Hashable, label: str = "") -> None:
        """Record that ``before`` happens before ``after``."""
        self._succ.setdefault(before, {})[after] = None
        self._succ.setdefault(after, {})
        if label:
            self._labels[(before, after)] = label

    def add_chain(self, events: Iterable[Hashable], label: str = "") -> None:
        events = list(events)
        for a, b in zip(events, events[1:]):
            self.add(a, b, label)

    def edges(self) -> List[Tuple[Hashable, Hashable, str]]:
        return [
            (a, b, self._labels.get((a, b), ""))
            for a, succs in self._succ.items()
            for b in succs
        ]

    def find_cycle(self) -> Optional[List[Hashable]]:
        """A list of events forming a cycle, or ``None`` if the relation
        is a partial order (acyclic).

        An iterative depth-first search: ``path`` is the grey chain and
        ``pending`` one successor iterator per path event, so the visit
        order is a recursive DFS's, and no closure ties the graph into a
        reference cycle that outlives the call.
        """
        succ = self._succ
        finished = set()
        for root in succ:
            if root in finished:
                continue
            path = [root]
            on_path = {root}
            pending = [iter(succ[root])]
            while pending:
                for w in pending[-1]:
                    if w in on_path:
                        return path[path.index(w):] + [w]
                    if w not in finished:
                        path.append(w)
                        on_path.add(w)
                        pending.append(iter(succ[w]))
                        break
                else:
                    pending.pop()
                    v = path.pop()
                    on_path.discard(v)
                    finished.add(v)
        return None

    @property
    def is_consistent(self) -> bool:
        """True iff the happens-before relation is acyclic."""
        return self.find_cycle() is None


def fig1_happens_before(stale_read_of_a: bool) -> HappensBefore:
    """The Fig. 1 ordering argument as a graph.

    Args:
        stale_read_of_a: whether the observing thread read the *old*
            value of A after seeing the PIM op's result on B (the
            outcome the software-flush approach permits).

    With ``stale_read_of_a=True`` the relation contains the paper's
    cycle: ``W(A) -> W(B) -> PIMop -> W(A)``.
    """
    hb = HappensBefore()
    hb.add("W(A)", "W(B)", "program order + MemFence")
    hb.add("W(B)", "PIMop", "r(B)=B0 then r(B)=B1")
    if stale_read_of_a:
        hb.add("PIMop", "W(A)", "r(B)=B1 then r(A)=A0")
    else:
        hb.add("W(A)", "PIMop", "flush atomic with PIM op")
    return hb
