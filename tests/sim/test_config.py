"""Configuration dataclasses: Table II defaults and validation."""

import pytest

from repro.core.models import ConsistencyModel
from repro.sim.config import (
    CacheConfig,
    ScopeBufferConfig,
    SystemConfig,
)


def test_table2_defaults():
    """The paper_default configuration is Table II."""
    cfg = SystemConfig.paper_default()
    assert cfg.cores.num_cores == 6
    assert cfg.cores.freq_ghz == 3.6
    assert cfg.l1.size_bytes == 16 << 10
    assert cfg.l1.ways == 4
    assert cfg.l1.line_bytes == 64
    assert cfg.llc.size_bytes == 2 << 20
    assert cfg.llc.ways == 16
    assert cfg.llc.num_sets == 2048
    assert cfg.l1_scope_buffer.sets == 16 and cfg.l1_scope_buffer.ways == 1
    assert cfg.llc_scope_buffer.sets == 64 and cfg.llc_scope_buffer.ways == 4
    assert cfg.scope_bytes == 2 << 20  # 2 MB huge pages
    assert cfg.records_per_scope == 32 << 10  # 32K records per scope


def test_cache_geometry():
    c = CacheConfig(size_bytes=16 << 10, ways=4, line_bytes=64)
    assert c.num_lines == 256
    assert c.num_sets == 64


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, ways=3, line_bytes=64)


def test_with_model_and_with_pim():
    cfg = SystemConfig.paper_default()
    cfg2 = cfg.with_model(ConsistencyModel.SCOPE)
    assert cfg2.model is ConsistencyModel.SCOPE
    assert cfg2.llc == cfg.llc
    cfg3 = cfg.with_pim(buffer_capacity=None, zero_logic=True)
    assert cfg3.pim.buffer_capacity is None
    assert cfg3.pim.zero_logic


def test_scaled_default_preserves_ratios():
    paper = SystemConfig.paper_default()
    scaled = SystemConfig.scaled_default()
    paper_lines_per_scope = paper.scope_bytes // paper.llc.line_bytes
    scaled_lines_per_scope = scaled.scope_bytes // scaled.llc.line_bytes
    # scope-to-LLC ratio preserved
    assert (paper.scope_bytes / paper.llc.size_bytes
            == scaled.scope_bytes / scaled.llc.size_bytes)
    # records-to-scope-lines ratio preserved
    assert (paper.records_per_scope / paper_lines_per_scope
            == scaled.records_per_scope / scaled_lines_per_scope)


def test_misaligned_pim_base_rejected():
    with pytest.raises(ValueError):
        SystemConfig(pim_base=(1 << 34) + 4096)


def test_scope_buffer_entries():
    sb = ScopeBufferConfig(sets=64, ways=4)
    assert sb.entries == 256


def test_mshr_knobs_default_off_and_roundtrip():
    """mshr_entries=None means the level's legacy file size with no
    stats exported -- the digest-preserving default."""
    from repro.sim.config import config_from_dict, config_to_dict

    cfg = SystemConfig.scaled_default()
    assert cfg.l1.mshr_entries is None and cfg.l1.coalescing
    assert cfg.llc.mshr_entries is None and cfg.llc.coalescing
    assert cfg.memory.dram_burst_len == 1
    tuned = config_from_dict({
        "preset": "scaled",
        "l1": {"mshr_entries": 4, "coalescing": False},
        "llc": {"mshr_entries": 16},
        "memory": {"dram_burst_len": 8},
    })
    clone = config_from_dict(config_to_dict(tuned))
    assert clone.l1.mshr_entries == 4 and not clone.l1.coalescing
    assert clone.llc.mshr_entries == 16 and clone.llc.coalescing
    assert clone.memory.dram_burst_len == 8


def test_mshr_entries_validated():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=4 << 10, ways=4, mshr_entries=0)


def test_dram_burst_len_must_be_power_of_two():
    from repro.sim.config import MemoryConfig

    MemoryConfig(dram_burst_len=4)  # accepted
    for bad in (0, 3, 6):
        with pytest.raises(ValueError):
            MemoryConfig(dram_burst_len=bad)
