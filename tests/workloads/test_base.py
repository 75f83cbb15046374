"""Workload compilation helpers, cross-validated against the functional DB."""

import pytest

from repro.core.models import ConsistencyModel
from repro.core.scope import ScopeMap
from repro.pim.database import PimDatabase, RecordSchema
from repro.sim.config import SystemConfig
from repro.system.builder import System
from repro.workloads.base import (
    DatabaseLayout,
    PAPER_RECORDS_PER_SCOPE,
    ProgramEmitter,
    partition_scopes,
    scaled_pim_latency,
)

SMAP = ScopeMap(pim_base=1 << 30, scope_bytes=128 << 10, num_scopes=4)
SCHEMA = RecordSchema.ycsb(num_fields=2, field_bytes=4)


def test_layout_matches_functional_database():
    """The address arithmetic used by the timing workloads must agree
    exactly with the functional PIM database's placement."""
    layout = DatabaseLayout(SMAP, SCHEMA, records_per_scope=64)
    db = PimDatabase(list(SMAP.scopes()), SCHEMA, records_per_scope=64)
    for k in range(40):
        db.insert(k, {})
    for row in range(40):
        shard, local = db.shard_of(row)
        assert layout.shard_of(row) == shard.scope.scope_id
        assert layout.local_row(row) == local
        assert layout.record_address(row) == shard.record_address(local)
        assert (layout.record_address(row, "field1")
                == shard.record_address(local, "field1"))
    for sid in range(4):
        assert layout.bitmap_lines(sid) == db.shards[sid].bitmap_line_addresses(0)


def test_layout_field_offsets_cover_every_field():
    layout = DatabaseLayout(SMAP, SCHEMA, records_per_scope=64)
    base = layout.record_address(9)
    for spec in SCHEMA.all_fields():
        assert (layout.record_address(9, spec.name)
                == base + SCHEMA.field_byte_offset(spec.name))
    with pytest.raises(KeyError):
        layout.record_address(9, "no-such-field")


def test_layout_rejects_oversized_records():
    with pytest.raises(ValueError):
        DatabaseLayout(SMAP, SCHEMA, records_per_scope=1 << 20)


def test_record_lines_cover_record():
    layout = DatabaseLayout(SMAP, SCHEMA, records_per_scope=64)
    lines = layout.record_lines(5)
    base = layout.record_address(5)
    assert lines[0] <= base
    assert lines[-1] + 64 >= base + SCHEMA.record_bytes


def test_partition_scopes_even_and_disjoint():
    parts = partition_scopes(10, 4)
    assert sorted(x for p in parts for x in p) == list(range(10))
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_scaled_pim_latency():
    system = System(SystemConfig.scaled_default(num_scopes=4))
    rps = system.config.records_per_scope
    assert scaled_pim_latency(16000, system) == round(
        16000 * rps / PAPER_RECORDS_PER_SCOPE)
    paper = System(SystemConfig.paper_default(num_scopes=4))
    assert scaled_pim_latency(16000, paper) == 16000


def _emitter(model):
    system = System(SystemConfig.scaled_default(model=model, num_scopes=4))
    counts = {}
    layout = DatabaseLayout(system.scope_map, SCHEMA,
                            system.config.records_per_scope)
    return ProgramEmitter(system, "t0", counts), layout


def test_pim_group_sw_flush_inserts_flushes():
    em, layout = _emitter(ConsistencyModel.SW_FLUSH)
    em.pim_group(0, 2, sw_flush_lines=layout.bitmap_lines(0))
    from repro.host.program import ThreadOpKind
    assert em.program.count(ThreadOpKind.FLUSH) == len(layout.bitmap_lines(0))
    assert em.program.count(ThreadOpKind.PIM_OP) == 2


def test_pim_group_scope_relaxed_appends_scope_fence():
    em, _ = _emitter(ConsistencyModel.SCOPE_RELAXED)
    em.pim_group(0, 3)
    from repro.host.program import ThreadOpKind
    assert em.program.count(ThreadOpKind.SCOPE_FENCE) == 1
    assert em.program.ops[-1].kind is ThreadOpKind.SCOPE_FENCE


def test_pim_group_tracks_issue_counts():
    em, layout = _emitter(ConsistencyModel.ATOMIC)
    em.pim_group(0, 3)
    em.pim_group(0, 2)
    em.read_result_bitmap(layout, 0)
    assert em.pim_issue_counts[0] == 5
    load = em.program.ops[-1]
    assert load.expect_version == 5


def test_uncacheable_marks_pim_addresses_only():
    em, layout = _emitter(ConsistencyModel.UNCACHEABLE)
    em.load(em.system.scope_map.scope(0).base)  # PIM address
    em.load(0x1000)  # ordinary DRAM
    assert em.program.ops[0].uncacheable
    assert not em.program.ops[1].uncacheable
