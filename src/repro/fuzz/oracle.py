"""The differential invariant oracle over generated litmus programs.

Three model-theoretic invariants, checked against the abstract machines
of :mod:`repro.core.litmus`:

1. **Strength-lattice monotonicity** (:func:`check_lattice`) -- on the
   bare rendering (identical program text for every model), a stronger
   model's reachable outcome set must be a subset of every weaker
   model's: ``atomic <= store <= scope <= scope-relaxed`` under
   :class:`~repro.core.litmus.ModelExecutor`.

2. **Coherence of the atomic-flush mechanism** (:func:`check_coherence`)
   -- for every outcome the in-order machine reaches under a
   correctness-guaranteeing model, the observed happens-before relation
   (program order + reads-from + from-read edges, built by
   :func:`happens_before` on :class:`~repro.core.ordering.HappensBefore`)
   is acyclic, and every read value is explained by the value encoding
   (init, a unique store, or its post-PIM bump).  The classic
   stale-read-after-PIM observation is exactly a
   ``PIM -> r(new) -> r(old) -> PIM`` cycle, so this subsumes the Fig. 1
   predicate and generalizes it across scopes.  Run against the Naive or
   SW-Flush baseline the same check *finds* cycles -- the known-violating
   control the fuzz harness uses to prove the oracle has teeth.

3. **Simulator/checker agreement** -- the timing simulator's stale-read
   counter is the projection of outcome membership the full stack
   exposes; :mod:`repro.fuzz.harness` runs the synchronized timing
   workload and requires zero stale reads under every
   correctness-guaranteeing model.

A deliberately broken mechanism is available behind ``weaken=
"no-atomic-flush"`` (the proposed models lose their atomic scope flush),
which makes invariant 2 fail and exercises the shrinker end to end.

The checks and the corpus :func:`fingerprints` read their outcome sets
from one :class:`OutcomeSets` per program, which searches each distinct
executor input once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.litmus import LitmusExecutor, ModelExecutor
from repro.core.memops import OpKind
from repro.core.models import ConsistencyModel, properties_of
from repro.core.ordering import HappensBefore
from repro.fuzz.program import VERSION_BUMP, FuzzProgram, Rendering

__all__ = [
    "LATTICE",
    "WEAKEN_CHOICES",
    "OutcomeSets",
    "Violation",
    "check_coherence",
    "check_lattice",
    "check_program",
    "fingerprints",
    "happens_before",
    "outcomes_digest",
]

#: The proposed models, strongest first (Table I's strength lattice).
LATTICE = (
    ConsistencyModel.ATOMIC,
    ConsistencyModel.STORE,
    ConsistencyModel.SCOPE,
    ConsistencyModel.SCOPE_RELAXED,
)

#: Supported deliberate weakenings (test flag; see module docstring).
WEAKEN_CHOICES = ("no-atomic-flush",)

Outcome = Tuple[Tuple[int, int, int], ...]


@dataclass(frozen=True)
class Violation:
    """One invariant violation, self-describing for repro artifacts."""

    invariant: str
    model: str
    detail: str
    outcome: Optional[Outcome] = None
    cycle: Tuple[str, ...] = field(default=())

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "model": self.model,
            "detail": self.detail,
            "outcome": ([list(read) for read in self.outcome]
                        if self.outcome is not None else None),
            "cycle": list(self.cycle),
        }


# ---------------------------------------------------------------------- #
# outcome sets, one search per distinct executor input
# ---------------------------------------------------------------------- #


class OutcomeSets:
    """One program's reachable-outcome sets, searched on first use.

    Keys are what each executor takes as input: for an in-order leg the
    rendered threads, ``flush_atomic`` and ``uncacheable``; for a reorder
    leg the model.  Legs with equal inputs share one search, e.g.
    in-order ``store`` and ``scope`` with ``atomic``.  An instance serves
    one program within one call and is then dropped.
    """

    def __init__(self, program: FuzzProgram) -> None:
        self.program = program
        self._inorder: Dict[tuple, FrozenSet[Outcome]] = {}
        self._reorder: Dict[ConsistencyModel, FrozenSet[Outcome]] = {}

    def inorder(self, model: ConsistencyModel, weaken: Optional[str] = None
                ) -> Tuple[FrozenSet[Outcome], Rendering]:
        """The in-order abstract machine under ``model``'s mechanism."""
        rendering = self.program.rendering(model)
        flush_atomic = (properties_of(model).flushes_at_llc
                        and weaken != "no-atomic-flush")
        uncacheable = model is ConsistencyModel.UNCACHEABLE
        key = (rendering.threads, flush_atomic, uncacheable)
        if key not in self._inorder:
            self._inorder[key] = frozenset(LitmusExecutor(
                rendering.program,
                flush_atomic=flush_atomic,
                prefetch_budget=self.program.prefetch_budget,
                uncacheable=uncacheable,
            ).outcomes())
        return self._inorder[key], rendering

    def reorder(self, model: ConsistencyModel) -> FrozenSet[Outcome]:
        """``model``'s Table-I reordering machine on the bare rendering."""
        if model not in self._reorder:
            self._reorder[model] = frozenset(ModelExecutor(
                self.program.rendering(None).program, model,
                prefetch_budget=self.program.prefetch_budget,
            ).outcomes())
        return self._reorder[model]


# ---------------------------------------------------------------------- #
# invariant 2: happens-before coherence
# ---------------------------------------------------------------------- #


def _node(rendering: Rendering, tid: int, index: int) -> str:
    op = rendering.threads[tid][index]
    prefix = f"T{tid}.{index}"
    if op.address is not None:
        scope, slot = rendering.addr_info[op.address]
        where = f"s{scope}.{slot}"
        if op.kind is OpKind.STORE:
            return f"{prefix}:W({where})"
        if op.kind is OpKind.LOAD:
            return f"{prefix}:r({where})"
        if op.kind is OpKind.FLUSH:
            return f"{prefix}:flush({where})"
    if op.kind is OpKind.PIM_OP:
        return f"{prefix}:PIM(s{op.scope})"
    return f"{prefix}:{op.kind.name.lower()}"


def happens_before(rendering: Rendering, outcome: Outcome
                   ) -> Tuple[HappensBefore, List[Tuple[int, int, int]]]:
    """The observed happens-before relation of one outcome.

    Edges: per-thread program order; ``rf`` from a store (or a scope's
    PIM op) to a read observing its value; ``fr`` from a read observing
    a value to the operation that overwrote it (the store over init, the
    PIM op over everything pre-PIM).  Returns the graph plus any *alien*
    reads -- values the encoding cannot explain, which are value-
    conservation violations in their own right.
    """
    hb = HappensBefore()
    for tid, thread in enumerate(rendering.threads):
        hb.add_chain(
            (_node(rendering, tid, op.index) for op in thread), "po")
    aliens: List[Tuple[int, int, int]] = []
    for tid, index, value in outcome:
        read = _node(rendering, tid, index)
        op = rendering.threads[tid][index]
        scope, _slot = rendering.addr_info[op.address]
        stored = rendering.store_value.get(op.address)
        store_at = rendering.store_site.get(op.address)
        pim_at = rendering.pim_site.get(scope)
        pim = (_node(rendering, *pim_at) if pim_at is not None else None)
        store = (_node(rendering, *store_at) if store_at is not None
                 else None)
        if value >= VERSION_BUMP:
            if pim is None or value - VERSION_BUMP not in (0, stored):
                aliens.append((tid, index, value))
                continue
            hb.add(pim, read, "rf-pim")
        elif value == 0:
            if store is not None:
                hb.add(read, store, "fr")
            if pim is not None:
                hb.add(read, pim, "fr-pim")
        elif value == stored:
            hb.add(store, read, "rf")
            if pim is not None:
                hb.add(read, pim, "fr-pim")
        else:
            aliens.append((tid, index, value))
    return hb, aliens


def check_coherence(program: FuzzProgram, model: ConsistencyModel,
                    weaken: Optional[str] = None,
                    memo: Optional[OutcomeSets] = None) -> List[Violation]:
    """Invariant 2 on one model's in-order mechanism.

    Empty for every correctness-guaranteeing model (unless ``weaken``
    breaks the mechanism); non-empty results against Naive/SW-Flush are
    the *expected* control signal, not failures.  ``memo`` shares
    outcome sets with the program's other checks.
    """
    memo = memo or OutcomeSets(program)
    outcomes, rendering = memo.inorder(model, weaken)
    violations: List[Violation] = []
    for outcome in sorted(outcomes):
        hb, aliens = happens_before(rendering, outcome)
        if aliens:
            violations.append(Violation(
                invariant="value-conservation",
                model=model.value,
                detail=f"unexplained read values {sorted(aliens)}",
                outcome=outcome,
            ))
            continue
        cycle = hb.find_cycle()
        if cycle is not None:
            violations.append(Violation(
                invariant="hb-cycle",
                model=model.value,
                detail="observed happens-before relation is cyclic "
                       "(stale read after PIM)",
                outcome=outcome,
                cycle=tuple(cycle),
            ))
    return violations


# ---------------------------------------------------------------------- #
# invariant 1: strength-lattice monotonicity
# ---------------------------------------------------------------------- #


def check_lattice(program: FuzzProgram,
                  memo: Optional[OutcomeSets] = None) -> List[Violation]:
    """Invariant 1: nested outcome sets along the strength lattice."""
    memo = memo or OutcomeSets(program)
    outcome_sets = {model: memo.reorder(model) for model in LATTICE}
    violations: List[Violation] = []
    for stronger, weaker in zip(LATTICE, LATTICE[1:]):
        extra = outcome_sets[stronger] - outcome_sets[weaker]
        if extra:
            violations.append(Violation(
                invariant="lattice",
                model=f"{stronger.value}<={weaker.value}",
                detail=f"{len(extra)} outcome(s) reachable under "
                       f"{stronger.value} but not under {weaker.value}",
                outcome=min(extra),
            ))
    return violations


def check_program(program: FuzzProgram, weaken: Optional[str] = None,
                  memo: Optional[OutcomeSets] = None) -> List[Violation]:
    """Every *must-hold* abstract invariant on one program.

    Lattice monotonicity, plus happens-before coherence under each
    correctness-guaranteeing model's mechanism (the four proposed models
    share one in-order mechanism; ``atomic`` runs it once for them, and
    ``scope-relaxed`` adds the scope-fence rendering; ``uncacheable``
    runs the bypass mechanism).  Baseline controls are *not* included --
    their cycles are expected and reported separately by the harness.
    """
    memo = memo or OutcomeSets(program)
    violations = list(check_lattice(program, memo))
    for model in (ConsistencyModel.ATOMIC,
                  ConsistencyModel.SCOPE_RELAXED,
                  ConsistencyModel.UNCACHEABLE):
        violations.extend(check_coherence(program, model, weaken, memo))
    return violations


# ---------------------------------------------------------------------- #
# outcome fingerprints (corpus replay)
# ---------------------------------------------------------------------- #


def outcomes_digest(outcomes: Iterable[Outcome]) -> str:
    """A stable digest of a reachable-outcome set."""
    payload = json.dumps(
        sorted([list(read) for read in outcome] for outcome in outcomes))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def fingerprints(program: FuzzProgram,
                 memo: Optional[OutcomeSets] = None) -> Dict[str, str]:
    """Outcome-set digests keyed by executor leg.

    ``inorder:<model>`` covers all seven mechanisms on the in-order
    machine; ``reorder:<model>`` covers the four proposed models under
    Table-I reordering on the bare rendering.  Given the ``memo`` the
    program's checks filled, this digests sets already searched; corpus
    replay searches afresh and diffs -- any semantic drift in the
    executors, the renderings or ``may_reorder`` shows up as a mismatch.
    """
    memo = memo or OutcomeSets(program)
    out: Dict[str, str] = {}
    for model in ConsistencyModel:
        out[f"inorder:{model.value}"] = outcomes_digest(
            memo.inorder(model)[0])
    for model in LATTICE:
        out[f"reorder:{model.value}"] = outcomes_digest(memo.reorder(model))
    return out
