"""The invariant oracle: must-hold checks pass, controls violate."""

import cProfile
import json
import os
import pstats
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from litmus_reference import ReferenceExecutor, ReferenceModelExecutor
from repro.core.litmus import LitmusExecutor, ModelExecutor
from repro.core.models import ConsistencyModel, properties_of
from repro.fuzz.generate import GeneratorKnobs, generate_batch
from repro.fuzz.harness import CONTROL_MODELS
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


class PerStateReorder(ReferenceModelExecutor):
    """The dict-based reference reorder machine, asking ``may_reorder``
    about every pending pair in every state instead of reading the
    precomputed reorder table."""

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


def reference_inorder(program, model, weaken, memo=None):
    """``OutcomeSets.inorder``'s leg searched by the dict-based
    reference; ``memo`` shares searches between legs with equal input."""
    rendering = program.rendering(model)
    flush_atomic = (properties_of(model).flushes_at_llc
                    and weaken != "no-atomic-flush")
    uncacheable = model is ConsistencyModel.UNCACHEABLE
    key = (rendering.threads, flush_atomic, uncacheable)
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = ReferenceExecutor(
            rendering.program, flush_atomic, program.prefetch_budget,
            uncacheable).outcomes()
    return memo[key]


@pytest.fixture(scope="module")
def searched():
    """Per program: one OutcomeSets shared by every leg, each leg
    searched again on its own, unshared, and by the reference."""
    rows = []
    for program in EQUIVALENCE_BATCH:
        shared = OutcomeSets(program)
        prints = fingerprints(program, shared)
        legs = {}
        memo = {}
        for model in ConsistencyModel:
            for weaken in WEAKEN:
                fresh = OutcomeSets(program)
                legs[model, weaken] = (
                    check_coherence(program, model, weaken, shared),
                    check_coherence(program, model, weaken, fresh),
                    fresh.inorder(model, weaken)[0],
                    reference_inorder(program, model, weaken, memo))
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
    """Each reorder leg of the dense search equals the reference's."""
    for program, shared, _prints, _legs, per_state in searched:
        for model in LATTICE:
            assert shared.reorder(model) == per_state[model], \
                (program.digest(), model.value)


def test_inorder_legs_equal_the_reference(searched):
    for program, _shared, _prints, legs, _per_state in searched:
        for (model, weaken), (*_checks, dense, reference) in legs.items():
            assert dense == reference, \
                (program.digest(), model.value, weaken)


def test_shared_coherence_checks_equal_unshared_ones(searched):
    for program, _shared, _prints, legs, _per_state in searched:
        for (model, weaken), (with_shared, alone, *_sets) in legs.items():
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


#: The benchmark's 2-thread, 8-op knobs and the defaults.
KNOBS = {"two-threads": GeneratorKnobs(threads=(2, 2), max_ops=8),
         "default": GeneratorKnobs()}


@pytest.mark.parametrize("knobs", sorted(KNOBS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(list(ConsistencyModel)),
       weaken=st.sampled_from(WEAKEN))
def test_dense_search_equals_the_reference_on_generated_programs(
        knobs, seed, model, weaken):
    program, = generate_batch(seed, 1, KNOBS[knobs])
    assert OutcomeSets(program).inorder(model, weaken)[0] \
        == reference_inorder(program, model, weaken)
    bare = program.rendering(None).program
    budget = program.prefetch_budget
    assert ModelExecutor(bare, model, budget).outcomes() \
        == ReferenceModelExecutor(bare, model, budget).outcomes()


#: Python calls into ``repro/core/litmus.py`` per search made by the
#: dict-based search the dense one replaced, over the batch below:
#: 2,535,822 calls in 87 searches under cProfile (Python 3.11.7).
DICT_SEARCH_CALLS = 2_535_822 / 87


def test_a_search_makes_under_a_third_of_the_dict_search_calls(
        monkeypatch):
    """The oracle and the two controls under cProfile, counting
    searches as test_harness does.  Call counts, unlike wall time, do
    not depend on the machine."""
    searches = []
    search = LitmusExecutor.outcomes

    def counted(executor):
        searches.append(executor)
        return search(executor)

    monkeypatch.setattr(LitmusExecutor, "outcomes", counted)
    programs = generate_batch(seed=20230225, count=10)
    profiler = cProfile.Profile()
    profiler.enable()
    for program in programs:
        memo = OutcomeSets(program)
        check_program(program, memo=memo)
        for control in CONTROL_MODELS:
            check_coherence(program, control, memo=memo)
    profiler.disable()
    litmus = os.path.join("repro", "core", "litmus.py")
    calls = sum(ncalls for (path, _line, _name), (_prim, ncalls, *_rest)
                in pstats.Stats(profiler).stats.items()
                if path.endswith(litmus))
    assert searches
    assert calls / len(searches) <= DICT_SEARCH_CALLS / 3, \
        (calls, len(searches))


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
