"""The scope buffer (Section IV-A)."""

from helpers import buffered_scopes

from repro.memory.scope_buffer import ScopeBuffer


def test_miss_then_hit():
    sb = ScopeBuffer(sets=4, ways=2)
    assert not sb.lookup(5)
    sb.insert(5)
    assert sb.lookup(5)
    assert sb.hit_rate == 0.5


def test_line_fill_invalidates_entry():
    """When a line of a scope enters the cache, the scope's 'flushed'
    witness is gone (Section IV-A)."""
    sb = ScopeBuffer(sets=4, ways=2)
    sb.insert(5)
    sb.invalidate(5)
    assert not sb.lookup(5)


def test_invalidate_absent_scope_is_noop():
    sb = ScopeBuffer(sets=4, ways=2)
    sb.invalidate(9)  # no error
    assert buffered_scopes(sb) == set()


def test_lru_eviction_within_set():
    sb = ScopeBuffer(sets=1, ways=2)
    sb.insert(1)
    sb.insert(2)
    sb.lookup(1)  # 1 becomes MRU
    sb.insert(3)  # evicts 2
    assert buffered_scopes(sb) == {1, 3}


def test_set_indexing_by_scope_id():
    sb = ScopeBuffer(sets=2, ways=1)
    sb.insert(0)  # set 0
    sb.insert(1)  # set 1
    assert buffered_scopes(sb) == {0, 1}
    sb.insert(2)  # set 0, evicts scope 0
    assert buffered_scopes(sb) == {1, 2}


def test_storage_bits():
    sb = ScopeBuffer(sets=64, ways=4)
    # 256 entries x (tag + valid + 2-bit LRU)
    assert sb.storage_bits(scope_tag_bits=32) == 256 * (32 + 1 + 2)
