"""Golden-value tests for :class:`repro.sim.stats.HistogramStat`.

The histogram backs the latency percentiles in EXPERIMENTS.md, so its
arithmetic is pinned here with hand-computed expectations: bucket
boundaries, ceiling-rank percentiles, the max clamp, and exact merging
(the property the Serial-vs-ProcessPool digest parity rests on).
"""

import pytest

from repro.sim.stats import HistogramStat
from repro.traffic.admission import ADMIT, AdmissionQueue


def _hist(values, name="latency"):
    h = HistogramStat(name)
    for v in values:
        h.record(v)
    return h


def test_small_values_are_exact():
    """Values below 8 occupy unit buckets: percentiles are exact."""
    h = _hist(range(8))  # 0..7
    assert h.percentile(50, 100) == 3   # rank ceil(8*0.50)=4 -> 3
    assert h.percentile(99, 100) == 7
    assert h.percentile(1, 100) == 0    # rank 1 -> smallest sample
    assert h.max == 7 and h.min == 0


def test_bucket_bounds_are_hand_computed():
    # 8..15 still exact (first octave has unit-wide sub-buckets).
    for v in range(8, 16):
        assert HistogramStat._upper_bound(HistogramStat._index(v)) == v
    # 16 and 17 share the first two-wide bucket, reported as 17.
    assert HistogramStat._index(16) == HistogramStat._index(17) == 16
    assert HistogramStat._upper_bound(16) == 17
    # 500 lands in [480, 511].
    i = HistogramStat._index(500)
    assert HistogramStat._index(480) == i
    assert HistogramStat._upper_bound(i) == 511


@pytest.mark.parametrize("value", list(range(1, 300)) + [10 ** 6, 10 ** 9])
def test_relative_error_bounded_at_12_5_percent(value):
    bound = HistogramStat._upper_bound(HistogramStat._index(value))
    assert bound >= value
    assert bound <= value + max(1, value >> 3)


def test_percentiles_of_a_known_distribution():
    h = _hist(range(1, 1001))  # 1..1000
    # rank 500 -> sample 500 -> bucket upper bound 511
    assert h.percentile(50, 100) == 511
    # rank 990 -> sample 990 -> bucket [960,1023], clamped to max=1000
    assert h.percentile(99, 100) == 1000
    assert h.percentile(999, 1000) == 1000
    assert h.max == 1000 and h.min == 1
    assert h.mean == pytest.approx(500.5)


def test_percentile_never_exceeds_observed_max():
    """The top bucket's upper bound can overshoot by the bucket width;
    the clamp keeps every reported percentile <= the exact max."""
    h = _hist([1000])
    assert h.percentile(50, 100) == 1000
    assert h.percentile(999, 1000) == 1000


def test_merge_equals_single_histogram():
    """Merging per-core histograms is exact: same snapshot as one
    histogram that saw every sample (in any order)."""
    samples = [(i * 37) % 4001 for i in range(900)]
    whole = _hist(samples)
    a = _hist(samples[0::3])
    b = _hist(samples[1::3])
    c = _hist(samples[2::3])
    a.merge(b)
    a.merge(c)
    left, right = {}, {}
    whole.snapshot(left)
    a.snapshot(right)
    assert left == right


def test_merge_into_empty_histogram():
    target = HistogramStat("latency")
    target.merge(_hist([5, 900]))
    assert target.count == 2
    assert target.min == 5 and target.max == 900


def test_empty_histogram_snapshot():
    h = HistogramStat("latency")
    out = {}
    h.snapshot(out)
    assert out == {"latency_p50": 0, "latency_p99": 0, "latency_p999": 0,
                   "latency_max": 0, "latency_min": 0, "latency_mean": 0.0,
                   "latency_count": 0}


def test_negative_samples_clamp_to_zero():
    h = _hist([-5])
    assert h.min == 0 and h.max == 0


def test_admission_queue_snapshot_integration():
    queue = AdmissionQueue([0, 0, 0], depth=None)
    assert queue.poll(0, 0) == ADMIT
    queue.settle(100)
    out = {}
    queue.snapshot(out)
    assert out["latency_count"] == 1
    assert out["latency_p50"] == 100  # [96,103] bucket, clamped to max
    assert out["req_offered"] == 3
    assert out["queue_depth_max"] == 3


def test_snapshot_order_independent():
    """Byte-stability: recording order must not leak into the snapshot
    (ProcessPool shards complete in nondeterministic order)."""
    samples = [7, 7000, 13, 13, 255, 64]
    left, right = {}, {}
    _hist(samples).snapshot(left)
    _hist(list(reversed(samples))).snapshot(right)
    assert left == right
