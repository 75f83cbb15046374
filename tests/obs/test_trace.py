"""The Tracer: ring bounding, stalls, export shape."""

import pytest

from repro.obs.trace import OBS_SCHEMA, STALL_REASONS, Tracer, stall_totals


def test_ring_bounds_and_counts_drops():
    tracer = Tracer(ring_size=4)
    for i in range(10):
        tracer.record(i, "core0", "READ", i)
    assert tracer.appended == 10
    assert tracer.events_dropped == 6
    assert [r[0] for r in tracer.ring] == [6, 7, 8, 9]  # oldest fell off


def test_ring_size_zero_disables_event_records():
    tracer = Tracer(ring_size=0)
    assert tracer.ring is None
    assert not tracer.recording
    assert tracer.events_dropped == 0
    # stall attribution still works without a ring
    bucket = tracer.stall_bucket("mc")
    bucket["pim_busy"] = bucket.get("pim_busy", 0) + 3
    out = tracer.export()
    assert "events" not in out
    assert out["stalls"] == {"mc": {"pim_busy": 3}}


def test_stall_buckets_are_shared_and_mutable():
    tracer = Tracer(ring_size=0)
    assert tracer.stall_bucket("l1-0") is tracer.stall_bucket("l1-0")
    tracer.stall_bucket("l1-0")["mshr_full"] = 2
    tracer.stall_bucket("l1-1")  # untouched bucket stays out of export
    assert tracer.export()["stalls"] == {"l1-0": {"mshr_full": 2}}


def test_export_schema_and_event_fields():
    tracer = Tracer(ring_size=8)
    tracer.record(5, "llc", "GETS", 42)
    out = tracer.export()
    assert out["schema"] == OBS_SCHEMA
    assert out["events"] == [[5, "llc", "GETS", 42]]
    assert out["events_recorded"] == 1
    assert out["events_dropped"] == 0
    assert "flight" not in out and "flight_triggers" not in out


def test_flight_snapshot_is_first_trigger_only():
    tracer = Tracer(ring_size=8, flight=True)
    tracer.record(1, "core0", "READ", 7)
    tracer.flight_trigger("stale_read", 9, "core0", 7)
    tracer.record(2, "core0", "READ", 8)  # after the snapshot
    tracer.flight_trigger("stale_read", 11, "core0", 8)
    out = tracer.export()
    assert out["flight_triggers"] == 2
    assert out["flight"]["trigger"] == "stale_read"
    assert out["flight"]["cycle"] == 9
    assert out["flight"]["events"] == [[1, "core0", "READ", 7]]


def test_unarmed_tracer_counts_triggers_without_snapshot():
    tracer = Tracer(ring_size=8, flight=False)
    tracer.flight_trigger("stale_read", 1, "core0", 1)
    out = tracer.export()
    assert out["flight_triggers"] == 1
    assert "flight" not in out


def test_stall_totals_sums_across_components():
    obs = {"stalls": {"mc": {"pim_busy": 3}, "l1-0": {"mshr_full": 2},
                      "l1-1": {"mshr_full": 5, "pim_busy": 1}}}
    assert stall_totals(obs) == {"mshr_full": 7, "pim_busy": 4}
    assert stall_totals({}) == {}


def test_stall_taxonomy_is_stable():
    # docs/observability.md documents these names; renaming one is a
    # breaking change for stored obs payloads and the report tables.
    assert STALL_REASONS == ("mshr_full", "admission_wait",
                            "admission_shed", "fence_wait", "pim_busy",
                            "crossbar_contention")


def test_negative_ring_size_rejected_by_config():
    from repro.sim.config import TraceConfig

    with pytest.raises(ValueError):
        TraceConfig(enabled=True, ring_size=-1)
    with pytest.raises(ValueError):
        TraceConfig(enabled=False, flight=True)
