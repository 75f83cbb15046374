"""Configuration dataclasses: Table II defaults and validation."""

import pytest
from hypothesis import given, settings, strategies as st

from config_reference import reference_config_from_dict
from repro.core.models import ConsistencyModel
from repro.sim.config import (
    ARRIVAL_KINDS,
    CacheConfig,
    ScopeBufferConfig,
    SystemConfig,
    config_from_dict,
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


# --------------------------------------------------------------------- #
# the preset form, against the sequential-replace reference
# --------------------------------------------------------------------- #


def test_preset_overrides_load_in_any_key_order():
    """A new scope size and a PIM base aligned to it load in either key
    order: only the final config is validated."""
    scope_bytes, pim_base = 3 << 20, 3 << 30
    first = config_from_dict({"preset": "scaled", "scope_bytes": scope_bytes,
                              "pim_base": pim_base})
    second = config_from_dict({"preset": "scaled", "pim_base": pim_base,
                               "scope_bytes": scope_bytes})
    assert first == second
    assert (first.scope_bytes, first.pim_base) == (scope_bytes, pim_base)


_CACHE_FIELDS = {
    "size_bytes": st.sampled_from((4 << 10, 128 << 10, 2 << 20, 1000)),
    "ways": st.sampled_from((1, 4, 16)),
    "line_bytes": st.sampled_from((32, 64, 128)),
    "hit_latency": st.integers(1, 40),
    "mshr_entries": st.one_of(st.none(), st.integers(0, 16)),
    "coalescing": st.booleans(),
}

#: Partial nested sections: each field optional, a few values invalid.
_SECTION_FIELDS = {
    "pim": {
        "buffer_capacity": st.one_of(st.none(), st.integers(1, 256)),
        "op_latency": st.integers(0, 8000),
        "zero_logic": st.booleans(),
        "max_concurrent_scopes": st.one_of(st.none(), st.integers(1, 64)),
    },
    "llc": _CACHE_FIELDS,
    "l1": _CACHE_FIELDS,
    "memory": {
        "dram_latency": st.integers(1, 400),
        "queue_capacity": st.integers(1, 64),
        "dram_burst_len": st.sampled_from((1, 2, 3, 8)),
    },
    "traffic": {
        "arrival": st.sampled_from(ARRIVAL_KINDS),
        "offered_load": st.sampled_from((0.0, 0.5, 2.5)),
        "queue_depth": st.one_of(st.none(), st.integers(0, 32)),
        "seed": st.integers(0, 9),
    },
    "trace": {
        "enabled": st.booleans(),
        "ring_size": st.sampled_from((0, 1024, -1)),
        "flight": st.booleans(),
    },
}

_OVERRIDES = {
    "model": st.sampled_from([m.value for m in ConsistencyModel]),
    "num_scopes": st.integers(1, 64),
    # Both presets put PIM at 1 << 34: 3 and 5 MB scopes need a new base.
    "scope_bytes": st.sampled_from((128 << 10, 2 << 20, 3 << 20, 5 << 20,
                                    100)),
    "pim_base": st.sampled_from((1 << 34, 3 << 30, 15 << 30,
                                 (1 << 34) + 4096)),
    "scope_buffer_enabled": st.booleans(),
    "sbv_enabled": st.booleans(),
    **{name: st.fixed_dictionaries({}, optional=fields)
       for name, fields in _SECTION_FIELDS.items()},
}


@st.composite
def preset_forms(draw):
    """``{"preset": ..., **overrides}`` with the overrides in any order."""
    overrides = draw(st.fixed_dictionaries({}, optional=_OVERRIDES))
    items = draw(st.permutations(list(overrides.items())))
    return {"preset": draw(st.sampled_from(("paper", "scaled"))),
            **dict(items)}


def _outcome(load, form):
    """The config ``load`` builds from ``form``, or the type it raised."""
    try:
        return load(form)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(preset_forms())
def test_preset_forms_load_as_the_reference_does(form):
    """Whatever the sequential-replace reference accepts loads to an
    equal config; what it rejects may load, since only the final config
    is validated, but never depending on the key order."""
    want = _outcome(reference_config_from_dict, form)
    got = _outcome(config_from_dict, form)
    if isinstance(want, SystemConfig):
        assert got == want
    reordered = {"preset": form["preset"],
                 **dict(reversed([(k, v) for k, v in form.items()
                                  if k != "preset"]))}
    assert _outcome(config_from_dict, reordered) == got


@settings(max_examples=100, deadline=None)
@given(preset_forms(), st.sampled_from(["preset", "top"] + sorted(
    _SECTION_FIELDS)))
def test_unknown_presets_and_keys_raise_as_the_reference_does(form, where):
    """An unknown preset, or an unknown key at the top level or in a
    partial section of a form the reference accepts, raises the same
    exception type from both loaders."""
    if not isinstance(_outcome(reference_config_from_dict, form),
                      SystemConfig):
        form = {"preset": form["preset"]}
    if where == "preset":
        form = dict(form, preset="gigantic")
    elif where == "top":
        form = dict(form, bogus=1)
    else:
        form = dict(form, **{where: dict(form.get(where, {}), bogus=1)})
    want = _outcome(reference_config_from_dict, form)
    assert want in (TypeError, ValueError)
    assert _outcome(config_from_dict, form) is want
