"""The mean and ratio statistics, and the key families of snapshots."""

import pytest

from repro.api.backends import execute_experiment
from repro.api.experiment import Experiment
from repro.memory.sbv import ScopeBitVector
from repro.memory.scope_buffer import ScopeBuffer
from repro.sim.stats import mean_into


def test_mean_stat():
    out = {}
    mean_into(out, "lat", 2 + 4 + 9, 3)
    assert out == {"lat": pytest.approx(5.0), "lat_count": 3}


def test_mean_stat_empty_is_zero():
    out = {}
    mean_into(out, "lat", 0, 0)
    assert out == {"lat": 0.0, "lat_count": 0}
    assert isinstance(out["lat"], float)


def test_ratio_stat_record_and_add():
    """The scope buffer records each lookup; the SBV adds each scan's
    skipped sets."""
    sb = ScopeBuffer(sets=4, ways=2)
    sb.insert(1)
    for scope in (1, 2, 1):
        sb.lookup(scope)
    assert sb.hit_rate == pytest.approx(2 / 3)
    sbv = ScopeBitVector(2048)
    sbv.record_scan(148)
    assert sbv.mean_skipped_ratio == pytest.approx(1900 / 2048)


def test_ratio_stat_empty_is_zero():
    assert ScopeBuffer(sets=4, ways=2).hit_rate == 0.0
    assert ScopeBitVector(8).mean_skipped_ratio == 0.0


def test_ratio_stat_keeps_integer_counters():
    """Counters stay ints until the ratio is read, so counts beyond
    float precision (2**53) keep accumulating exactly."""
    sb = ScopeBuffer(sets=1, ways=1)
    big = 2 ** 53
    sb.lookups = sb.hits = big
    sb.insert(0)
    sb.lookup(0)
    assert isinstance(sb.hits, int)
    assert sb.hits == sb.lookups == big + 1  # a float would drop the +1
    assert sb.hit_rate == 1.0


#: Snapshot keys whose value is a float (a mean or a ratio); every
#: other key is an int counter.
_FLOAT_KEYS = {"scan_latency", "hit_rate", "skipped_set_ratio",
               "queue_length_at_arrival", "buffer_len_at_arrival",
               "unique_scopes_at_arrival"}


@pytest.mark.parametrize("model", ["atomic", "scope-relaxed"])
def test_snapshot_keys_and_value_types(model):
    spec = {"workload": "litmus", "params": {"rounds": 2, "threads": 2},
            "config": {"preset": "scaled", "model": model,
                       "num_scopes": 2},
            "max_events": 1_000_000}
    stats = execute_experiment(Experiment.from_dict(spec)).stats
    for group, values in stats.items():
        for key, value in values.items():
            expected = float if key in _FLOAT_KEYS else int
            assert type(value) is expected, (group, key, value)
    # The L1 scope buffer and SBV exist only under scope-relaxed.
    l1 = stats["l1.0"]
    assert ("hit_rate" in l1) == (model == "scope-relaxed")
    assert ("skipped_set_ratio" in l1) == (model == "scope-relaxed")
    # The default configuration opts into no MSHR, burst or traffic keys.
    assert not any(key.startswith(("mshr_", "burst", "req_", "latency_"))
                   or key in ("coalesced_misses", "hit_under_miss")
                   for values in stats.values() for key in values)
    assert "traffic" not in stats
