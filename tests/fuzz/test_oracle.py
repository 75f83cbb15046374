"""The invariant oracle: must-hold checks pass, controls violate."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.litmus import ModelExecutor
from repro.core.models import ConsistencyModel
from repro.fuzz.generate import generate_batch
from repro.fuzz.oracle import (LATTICE, OutcomeSets, check_coherence,
                               check_lattice, check_program, fingerprints,
                               outcomes_digest)
from repro.fuzz.program import FuzzOp, build_program

#: The canonical interesting scenario, Fig. 1 shape: one thread caches
#: the line with a pre-PIM load, stores, software-flushes, issues the
#: PIM op, then reads the result back.  The post-PIM load is program-
#: ordered after the PIM, so serving it a stale cached value closes a
#: happens-before cycle.  (A reader on *another* thread with no
#: synchronization may legitimately observe old values -- that is
#: consistency, not a violation.)
FIG1ISH = build_program(
    threads=[
        [FuzzOp("load", 0, 0), FuzzOp("store", 0, 0),
         FuzzOp("flush", 0, 0), FuzzOp("pim", 0), FuzzOp("load", 0, 0)],
    ],
    slots=[1],
)


def test_fixed_seed_batch_has_zero_violations():
    for program in generate_batch(seed=20230101, count=6):
        assert check_program(program) == []


def test_lattice_models_are_ordered_strong_to_weak():
    assert [m.value for m in LATTICE] \
        == ["atomic", "store", "scope", "scope-relaxed"]


def test_controls_violate_on_the_canonical_scenario():
    for control in (ConsistencyModel.NAIVE, ConsistencyModel.SW_FLUSH):
        violations = check_coherence(FIG1ISH, control)
        assert violations, f"{control.value} found no violation"
        assert any(v.invariant == "hb-cycle" for v in violations)


def test_proposed_models_are_clean_on_the_canonical_scenario():
    for model in LATTICE + (ConsistencyModel.UNCACHEABLE,):
        assert check_coherence(FIG1ISH, model) == []


def test_weakened_atomic_flush_is_caught():
    violations = check_coherence(FIG1ISH, ConsistencyModel.ATOMIC,
                                 weaken="no-atomic-flush")
    assert violations
    cycles = [v for v in violations if v.invariant == "hb-cycle"]
    assert cycles and cycles[0].cycle is not None


def test_check_lattice_accepts_generated_programs():
    for program in generate_batch(seed=77, count=3):
        assert check_lattice(program) == []


def test_fingerprints_cover_all_executor_legs_and_are_stable():
    prints = fingerprints(FIG1ISH)
    inorder = {k for k in prints if k.startswith("inorder:")}
    reorder = {k for k in prints if k.startswith("reorder:")}
    # All seven mechanisms in-order, the four proposed under reordering.
    assert len(inorder) == 7 and len(reorder) == 4
    assert prints == fingerprints(FIG1ISH)
    # Naive admits strictly more in-order outcomes than atomic here.
    assert prints["inorder:naive"] != prints["inorder:atomic"]


# ---------------------------------------------------------------------- #
# shared outcome sets and the reorder table
# ---------------------------------------------------------------------- #

#: Default knobs: 2-3 threads, up to 12 ops per program.
EQUIVALENCE_BATCH = (FIG1ISH,) + tuple(generate_batch(seed=20230225,
                                                      count=40))
WEAKEN = (None, "no-atomic-flush")


class PerStateReorder(ModelExecutor):
    """ModelExecutor that asks ``may_reorder`` about every pending pair
    in every state instead of reading the precomputed reorder table."""

    def _successors(self, state):
        for tid, mask in enumerate(state.pcs):
            thread = self.program.threads[tid]
            for j, op in enumerate(thread):
                if mask >> j & 1:
                    continue
                if all(self.props.may_reorder(thread[i], op)
                       for i in range(j) if not (mask >> i & 1)):
                    yield self._step(state, tid, op, mask | 1 << j)
        yield from self._prefetch_successors(state)


@pytest.fixture(scope="module")
def searched():
    """Per program: one OutcomeSets shared by every leg, and each leg
    searched again on its own, unshared."""
    rows = []
    for program in EQUIVALENCE_BATCH:
        shared = OutcomeSets(program)
        prints = fingerprints(program, shared)
        legs = {}
        for model in ConsistencyModel:
            for weaken in WEAKEN:
                fresh = OutcomeSets(program)
                legs[model, weaken] = (
                    check_coherence(program, model, weaken, shared),
                    check_coherence(program, model, weaken, fresh),
                    fresh.inorder(model, weaken)[0])
        bare = program.rendering(None).program
        per_state = {
            model: PerStateReorder(
                bare, model,
                prefetch_budget=program.prefetch_budget).outcomes()
            for model in LATTICE
        }
        rows.append((program, shared, prints, legs, per_state))
    return rows


def test_reorder_table_matches_per_state_may_reorder(searched):
    for program, shared, _prints, _legs, per_state in searched:
        for model in LATTICE:
            assert shared.reorder(model) == per_state[model], \
                (program.digest(), model.value)


def test_shared_coherence_checks_equal_unshared_ones(searched):
    for program, _shared, _prints, legs, _per_state in searched:
        for (model, weaken), (with_shared, alone, _set) in legs.items():
            assert with_shared == alone, \
                (program.digest(), model.value, weaken)


def test_shared_fingerprints_equal_unshared_searches(searched):
    for program, _shared, prints, legs, per_state in searched:
        unshared = {f"inorder:{model.value}":
                    outcomes_digest(legs[model, None][2])
                    for model in ConsistencyModel}
        unshared.update({f"reorder:{model.value}": outcomes_digest(outcomes)
                         for model, outcomes in per_state.items()})
        assert prints == unshared, program.digest()


# ---------------------------------------------------------------------- #
# the cycle witness does not depend on the string hash seed
# ---------------------------------------------------------------------- #

_CYCLES = """
import json
from repro.core.models import ConsistencyModel
from repro.fuzz.generate import generate_batch
from repro.fuzz.oracle import check_coherence
naive = ConsistencyModel.NAIVE
print(json.dumps([[v.cycle for v in check_coherence(p, naive)]
                  for p in generate_batch(seed=20230225, count=8)]))
"""


def test_cycle_witness_is_independent_of_the_hash_seed():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")

    def cycles(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _CYCLES], env=env,
                             check=True, capture_output=True, text=True)
        return json.loads(out.stdout)

    first = cycles("0")
    assert any(first), "the naive control found no cycle to compare"
    assert cycles("1") == first
