"""Set-associative cache array bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.cache import CacheArray
from repro.memory.mesi import MesiState


def _array():
    return CacheArray(num_sets=4, ways=2, line_bytes=64)


def test_line_and_set_mapping():
    a = _array()
    assert a.line_addr(0x1234) == 0x1200
    assert a.set_index(0x1200) == (0x1200 >> 6) % 4


def test_fill_and_lookup():
    a = _array()
    a.fill(0x1000, MesiState.SHARED, version=3, scope=1, pim=True)
    line = a.lookup(0x1010)  # same line
    assert line is not None
    assert line.version == 3 and line.scope == 1 and line.pim


def test_lru_victim():
    a = _array()
    a.fill(0x0000, MesiState.SHARED, 0, None, False)   # set 0
    a.fill(0x0100, MesiState.SHARED, 0, None, False)   # set 0 (4 sets * 64B)
    a.lookup(0x0000)  # touch: 0x0000 is now MRU
    victim = a.victim(0x0200)  # set 0 again
    assert victim.addr == 0x0100


def test_fill_requires_room():
    a = _array()
    a.fill(0x0000, MesiState.SHARED, 0, None, False)
    a.fill(0x0100, MesiState.SHARED, 0, None, False)
    with pytest.raises(RuntimeError):
        a.fill(0x0200, MesiState.SHARED, 0, None, False)
    assert a.victim(0x0200) is not None


def test_remove():
    a = _array()
    a.fill(0x1000, MesiState.MODIFIED, 5, None, False)
    removed = a.remove(0x1000)
    assert removed.version == 5
    assert a.lookup(0x1000) is None
    assert a.remove(0x1000) is None


def test_set_has_pim_line():
    a = _array()
    a.fill(0x0000, MesiState.SHARED, 0, 2, True)
    a.fill(0x0100, MesiState.SHARED, 0, None, False)
    idx = a.set_index(0x0000)
    assert a.set_has_pim_line(idx)
    a.remove(0x0000)
    assert not a.set_has_pim_line(idx)


def test_scope_lines():
    a = _array()
    a.fill(0x0000, MesiState.SHARED, 0, 7, True)
    a.fill(0x0040, MesiState.SHARED, 0, 7, True)
    a.fill(0x0080, MesiState.SHARED, 0, 3, True)
    assert len(a.scope_lines(7)) == 2


def test_dirty_flag_follows_state():
    a = _array()
    line = a.fill(0x0000, MesiState.MODIFIED, 0, None, False)
    assert line.dirty
    line.state = MesiState.SHARED
    assert not line.dirty


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(line_ids):
    """Property: fills with eviction keep occupancy within geometry."""
    a = CacheArray(num_sets=4, ways=2, line_bytes=64)
    for lid in line_ids:
        addr = lid * 64
        if a.lookup(addr) is None:
            victim = a.victim(addr)
            if victim is not None:
                a.remove(victim.addr)
            a.fill(addr, MesiState.SHARED, 0, None, False)
    for index in range(4):
        assert len(a.lines_in_set(index)) <= 2
