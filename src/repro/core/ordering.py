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
        is a partial order (acyclic)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self._succ}
        stack: List[Hashable] = []

        def dfs(v: Hashable) -> Optional[List[Hashable]]:
            color[v] = GREY
            stack.append(v)
            for w in self._succ[v]:
                if color[w] is GREY:
                    return stack[stack.index(w):] + [w]
                if color[w] is WHITE:
                    cycle = dfs(w)
                    if cycle is not None:
                        return cycle
            stack.pop()
            color[v] = BLACK
            return None

        for v in list(self._succ):
            if color[v] is WHITE:
                cycle = dfs(v)
                if cycle is not None:
                    return cycle
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
