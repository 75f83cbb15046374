"""The operational litmus executor and the Fig. 1 violation."""

import pytest

from litmus_reference import ReferenceExecutor, ReferenceModelExecutor
from repro.core.litmus import (
    A, A0, A1, B, B0, B1,
    LitmusExecutor,
    LitmusProgram,
    ModelExecutor,
    fig1_program,
    fig1_violation,
    fig1_violation_reachable,
)
from repro.core.memops import MemOp, OpKind
from repro.core.models import ConsistencyModel

OWN_WRITE = LitmusProgram.build([[
    MemOp(OpKind.STORE, 0, 0, address=A, value=7),
    MemOp(OpKind.LOAD, 0, 1, address=A),
]], scope_addresses=[A])

STORE_PIM = [
    MemOp(OpKind.STORE, 0, 0, address=A, value=5),
    MemOp(OpKind.PIM_OP, 0, 1, scope=0),
]


def times_ten(addr, v):
    return v * 10


DIRTY_PIM_LOAD = LitmusProgram.build(
    [STORE_PIM + [MemOp(OpKind.LOAD, 0, 2, address=A)]],
    scope_addresses=[A], pim_function=times_ten)
DIRTY_PIM = LitmusProgram.build([STORE_PIM], scope_addresses=[A],
                                pim_function=times_ten)
DIRTY_PIM_FLUSH_LOAD = LitmusProgram.build(
    [STORE_PIM + [MemOp(OpKind.FLUSH, 0, 2, address=A),
                  MemOp(OpKind.LOAD, 0, 3, address=A)]],
    scope_addresses=[A], pim_function=times_ten)

#: A STORE's value may be ``None``: its load must read the cached
#: ``None``, not refetch memory's 0.
NONE_STORE = LitmusProgram.build([
    [MemOp(OpKind.STORE, 0, 0, address=A, value=None),
     MemOp(OpKind.LOAD, 0, 1, address=A),
     MemOp(OpKind.FLUSH, 0, 2, address=A)],
    [MemOp(OpKind.LOAD, 1, 0, address=A)],
], scope_addresses=[A])


def test_fig1_violation_reachable_under_software_flush():
    """Section I: explicit flushes cannot make the PIM op atomic; a
    prefetch between the flush and the PIM op re-caches stale data."""
    assert fig1_violation_reachable(flush_atomic=False)


def test_fig1_violation_impossible_with_atomic_flush():
    """Section IV: coupling the scope flush to the PIM op closes the
    window; no interleaving reaches the cyclic outcome."""
    assert not fig1_violation_reachable(flush_atomic=True)


def test_fig1_without_prefetcher_is_safe_even_with_sw_flush():
    """The violation requires the nondeterministic re-fetch (Fig. 1,
    step 5): with no prefetcher the flushes happen to suffice -- which
    is exactly why the bug is easy to miss."""
    executor = LitmusExecutor(fig1_program(), flush_atomic=False,
                              prefetch_budget=0)
    assert not executor.reachable(fig1_violation)


def test_pim_result_visible_after_atomic_op():
    """A reader that sees B1 must also see A1 under atomic flush."""
    executor = LitmusExecutor(fig1_program(), flush_atomic=True)

    def b_new_but_a_old(outcome):
        return outcome.get((1, 1)) == B1 and outcome.get((1, 2)) == A0

    assert not executor.reachable(b_new_but_a_old)


def test_all_fig1_outcomes_without_pim_are_coherent():
    """Sanity: before the PIM op, reads see the writes or the initial
    zero, never made-up values."""
    executor = LitmusExecutor(fig1_program(), flush_atomic=True)
    for outcome in executor.outcomes():
        values = {(t, i): v for t, i, v in outcome}
        assert values[(1, 0)] in (0, B0, B1)
        assert values[(1, 2)] in (0, A0, A1)


def test_read_own_write_through_cache():
    executor = LitmusExecutor(OWN_WRITE, flush_atomic=True)
    for outcome in executor.outcomes():
        values = {(t, i): v for t, i, v in outcome}
        assert values[(0, 1)] == 7


def test_dirty_data_survives_pim_flush():
    """An atomic scope flush writes dirty lines back before executing,
    so the PIM op computes on the latest store."""
    executor = LitmusExecutor(DIRTY_PIM_LOAD, flush_atomic=True,
                              prefetch_budget=0)
    outcomes = executor.outcomes()
    assert all(dict(((t, i), v) for t, i, v in o)[(0, 2)] == 50 for o in outcomes)


def test_sw_flush_pim_misses_dirty_cached_data():
    """Without the atomic flush, a PIM op can run on memory while the
    latest store still sits dirty in the cache -- the lost-update flavor
    of the same coherency break."""
    executor = LitmusExecutor(DIRTY_PIM, flush_atomic=False,
                              prefetch_budget=0)
    # PIM computed 0 * 10; the store's 5 never reached memory.
    outcomes = executor.outcomes()
    assert outcomes  # terminal states exist; inspect memory via reads:
    # (no reads in this program; reachability asserted via a follow-up read)
    executor2 = LitmusExecutor(DIRTY_PIM_FLUSH_LOAD, flush_atomic=False,
                               prefetch_budget=0)
    # The flush after the PIM op pushes the stale 5 over the result.
    assert executor2.reachable(lambda o: o[(0, 3)] == 5)


# ---------------------------------------------------------------------- #
# the dense search reaches exactly what the dict-based reference does
# ---------------------------------------------------------------------- #


PROGRAMS = {"fig1": fig1_program(), "own-write": OWN_WRITE,
            "dirty-pim-load": DIRTY_PIM_LOAD, "dirty-pim": DIRTY_PIM,
            "dirty-pim-flush-load": DIRTY_PIM_FLUSH_LOAD,
            "none-store": NONE_STORE}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_mechanism_and_model_equals_the_reference(name):
    """In order under each mechanism and prefetch budget 0-2, and
    reordered under each model.  A PIM op on ``NONE_STORE``'s ``None``
    would raise in its ``pim_function``, so that program has none."""
    program = PROGRAMS[name]
    for budget in (0, 1, 2):
        for flush_atomic in (False, True):
            for uncacheable in (False, True):
                args = (program, flush_atomic, budget, uncacheable)
                assert LitmusExecutor(*args).outcomes() \
                    == ReferenceExecutor(*args).outcomes(), args[1:]
        for model in ConsistencyModel:
            assert ModelExecutor(program, model, budget).outcomes() \
                == ReferenceModelExecutor(program, model, budget).outcomes(), \
                (budget, model.value)
