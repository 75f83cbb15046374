"""Happens-before graphs and the Fig. 1 cycle argument."""

import gc
import weakref

import pytest

from repro.core.ordering import HappensBefore, fig1_happens_before


def test_acyclic_chain_is_consistent():
    hb = HappensBefore()
    hb.add_chain(["a", "b", "c", "d"])
    assert hb.is_consistent
    assert hb.find_cycle() is None


def test_simple_cycle_detected():
    hb = HappensBefore()
    hb.add("a", "b")
    hb.add("b", "a")
    cycle = hb.find_cycle()
    assert cycle is not None
    assert cycle[0] == cycle[-1]


def test_diamond_is_acyclic():
    hb = HappensBefore()
    hb.add("a", "b")
    hb.add("a", "c")
    hb.add("b", "d")
    hb.add("c", "d")
    assert hb.is_consistent


def test_long_cycle_detected():
    hb = HappensBefore()
    hb.add_chain(["a", "b", "c", "d", "e"])
    hb.add("e", "b")
    cycle = hb.find_cycle()
    assert cycle is not None
    members = set(cycle)
    assert {"b", "c", "d", "e"} <= members
    assert "a" not in members


def test_multiple_disjoint_cycles_each_detectable():
    """With two independent cycles, find_cycle returns a real one, and
    the graph stays inconsistent until *both* are gone."""
    hb = HappensBefore()
    hb.add("a", "b")
    hb.add("b", "a")
    hb.add("x", "y")
    hb.add("y", "x")
    cycle = hb.find_cycle()
    assert cycle is not None and cycle[0] == cycle[-1]
    members = set(cycle)
    assert members <= {"a", "b"} or members <= {"x", "y"}

    # Removing one cycle by rebuilding without it still flags the other.
    rest = HappensBefore()
    for src, dst, label in hb.edges():
        if {src, dst} != set(members):
            rest.add(src, dst, label)
    other = rest.find_cycle()
    assert other is not None
    assert set(other).isdisjoint(members)


def test_overlapping_cycles_share_a_node():
    """Two cycles through one shared node: the reported cycle must be a
    genuine closed walk along recorded edges."""
    hb = HappensBefore()
    hb.add_chain(["a", "b", "a"])   # cycle 1: a-b
    hb.add_chain(["a", "c", "a"])   # cycle 2: a-c, sharing a
    cycle = hb.find_cycle()
    assert cycle is not None
    assert cycle[0] == cycle[-1]
    edges = {(src, dst) for src, dst, _ in hb.edges()}
    for src, dst in zip(cycle, cycle[1:]):
        assert (src, dst) in edges


def test_self_loop_is_a_cycle():
    hb = HappensBefore()
    hb.add("n", "n")
    cycle = hb.find_cycle()
    assert cycle is not None
    assert set(cycle) == {"n"}
    assert not hb.is_consistent


def test_edges_carry_labels():
    hb = HappensBefore()
    hb.add("x", "y", "why")
    assert ("x", "y", "why") in hb.edges()


def test_fig1_cycle_exists_iff_stale_read():
    """The paper's Section I argument: a stale read of A closes the
    W(A) -> W(B) -> PIMop -> W(A) cycle."""
    broken = fig1_happens_before(stale_read_of_a=True)
    cycle = broken.find_cycle()
    assert cycle is not None
    assert set(cycle) >= {"W(A)", "W(B)", "PIMop"}
    assert fig1_happens_before(stale_read_of_a=False).is_consistent


@pytest.mark.parametrize("stale", [True, False])
def test_find_cycle_leaves_no_reference_cycle(stale):
    """With the cyclic collector off, a searched graph is freed the
    moment its last reference goes: the search leaves no garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        hb = fig1_happens_before(stale_read_of_a=stale)
        assert (hb.find_cycle() is not None) == stale
        ref = weakref.ref(hb)
        del hb
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
