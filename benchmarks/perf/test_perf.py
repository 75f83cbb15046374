"""Tracked event-kernel performance benchmarks.

Runs the *quick* pinned configurations (see ``repro.api.perf``), asserts
run-to-run determinism, and checks the results against the digests
pinned in ``BENCH_kernel.json`` -- the digest comparison is machine
independent, so any change to what the simulator computes fails here
even on hardware with very different throughput.

Absolute events/sec regression gating is machine dependent and
therefore opt-in: set ``REPRO_PERF_STRICT=1`` (the CI workflow does) to
fail when throughput drops more than 30% below the checked-in baseline.
"""

import json
import os

import pytest

from repro.api import perf

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH_PATH = os.path.join(_REPO_ROOT, "BENCH_kernel.json")


#: The scaled-up pinned points (tracked since the timing-wheel PR).
SCALED_CONFIGS = ("ycsb-c-8core", "tpch-q6-sf2")

#: The seed-sized pinned points outside the quick smoke.
SEED_SIZED_CONFIGS = ("tpch-q6", "ycsb-mix")

#: Configs whose seed-baseline entry simulates a different program than
#: the current pin, each with the reason.
BASELINE_EXCEPTIONS = {
    "ycsb-mix": "the seed baseline simulated the pre-fix program: the "
                "LLC flush-race fix (the flush point waits for in-flight "
                "same-scope fills) changed what this scope-relaxed "
                "config simulates",
}


@pytest.fixture(scope="module")
def quick_record():
    """One shared measurement of the quick configs (determinism is
    asserted inside run_config: a divergent repeat raises)."""
    return perf.run_suite(perf.QUICK_CONFIGS, repeats=2)


@pytest.fixture(scope="module")
def scaled_record():
    """One shared measurement of the scaled configs (8 cores / 2x TPC-H
    scale) -- the digest pins results at sizes the quick smoke misses."""
    return perf.run_suite(SCALED_CONFIGS, repeats=2)


@pytest.fixture(scope="module")
def seed_sized_record():
    """One shared measurement of the seed-sized configs the quick smoke
    skips (TPC-H Q6 and the default YCSB mix)."""
    return perf.run_suite(SEED_SIZED_CONFIGS, repeats=2)


@pytest.fixture(scope="module")
def mshr_record():
    """ycsb-c with the MSHR knobs explicitly on: same simulation as the
    pinned ycsb-c, plus MshrFile bookkeeping and mshr_* stats."""
    return perf.run_suite(("ycsb-c-mshr8",), repeats=2)


@pytest.fixture(scope="module")
def openloop_record():
    """ycsb-c driven open-loop near the knee: the admission-queue path
    (ARRIVE markers, arrival catch-up, settle) plus traffic stats."""
    return perf.run_suite(("ycsb-c-openloop",), repeats=2)


@pytest.fixture(scope="module")
def bench_file():
    with open(BENCH_PATH) as fh:
        return json.load(fh)


def test_quick_configs_measure_sane_throughput(quick_record):
    for name, cur in quick_record["configs"].items():
        assert cur["events"] > 1000, name
        assert cur["run_time"] > 0, name
        assert cur["events_per_sec"] > 0, name


def _assert_matches_pins(record, bench_file):
    for name, cur in record["configs"].items():
        base = bench_file["configs"][name]
        assert cur["stats_sha256"] == base["stats_sha256"], (
            f"{name}: simulation results diverged from BENCH_kernel.json"
        )
        assert cur["events"] == base["events"], name
        assert cur["run_time"] == base["run_time"], name


def test_results_match_checked_in_digests(quick_record, bench_file):
    """The simulation results of the pinned configs are pinned too:
    a kernel change that alters any statistic, run time or event count
    shows up as a digest mismatch (machine independent)."""
    _assert_matches_pins(quick_record, bench_file)


def test_scaled_configs_match_checked_in_digests(scaled_record, bench_file):
    """The scaled-up pinned points (8-core YCSB-C, 2x-scale TPC-H Q6)
    are digest-pinned like the seed-sized ones."""
    _assert_matches_pins(scaled_record, bench_file)


def test_seed_sized_configs_match_checked_in_digests(seed_sized_record,
                                                     bench_file):
    """TPC-H Q6 and the default YCSB mix are digest-pinned too."""
    _assert_matches_pins(seed_sized_record, bench_file)


def test_every_pinned_config_is_digest_checked(bench_file):
    """No pin in BENCH_kernel.json goes unchecked by this file."""
    checked = {*perf.QUICK_CONFIGS, *SCALED_CONFIGS, *SEED_SIZED_CONFIGS,
               "ycsb-c-mshr8", "ycsb-c-openloop"}
    assert checked == set(bench_file["configs"]) == set(perf.PERF_CONFIGS)


def test_optimized_kernel_reproduces_baseline_results(bench_file):
    """BENCH_kernel.json records the seed (heap-only) kernel's digests;
    they must equal the current kernel's (byte-identical results),
    except for the named configs whose program changed since."""
    for name, base in bench_file["baseline"]["configs"].items():
        cur = bench_file["configs"][name]
        if name in BASELINE_EXCEPTIONS:
            # The exception holds only while the programs differ.
            assert cur["stats_sha256"] != base["stats_sha256"], name
            continue
        assert cur["stats_sha256"] == base["stats_sha256"], name
        assert cur["events"] == base["events"], name
        assert cur["run_time"] == base["run_time"], name


def test_recorded_speedup_meets_target(bench_file):
    """The trajectory's acceptance bars, as measured interleaved on one
    machine and recorded at optimization time: the PR 2 hot-path
    overhaul's >=2x on YCSB-C vs the seed kernel, extended by the
    timing-wheel PR to >=2.4x cumulative (>=1.25x vs the PR 2 kernel,
    recorded in the description)."""
    assert bench_file["configs"]["ycsb-c"]["speedup_vs_baseline"] >= 2.4
    for name in SCALED_CONFIGS:
        assert bench_file["configs"][name]["speedup_vs_baseline"] >= 2.0, name


def test_mshr_config_matches_checked_in_digest(mshr_record, bench_file):
    """The explicit-MSHR twin is digest-pinned like every other config;
    its *simulated* behavior must equal the silent-default ycsb-c (same
    run time and event count -- the 8/64 entries and coalescing knobs
    reproduce the legacy hierarchy), with only the mshr_* stats added."""
    cur = mshr_record["configs"]["ycsb-c-mshr8"]
    base = bench_file["configs"]["ycsb-c-mshr8"]
    assert cur["stats_sha256"] == base["stats_sha256"], (
        "ycsb-c-mshr8: simulation results diverged from BENCH_kernel.json"
    )
    twin = bench_file["configs"]["ycsb-c"]
    assert cur["events"] == twin["events"]
    assert cur["run_time"] == twin["run_time"]
    assert cur["stats_sha256"] != twin["stats_sha256"]  # mshr_* stats only


def test_mshr_bookkeeping_overhead_is_bounded(quick_record, mshr_record):
    """Hit-path overhead gate: with the MSHR stats on, ycsb-c must keep
    at least 80% of the silent-default throughput.  Both sides are
    measured in this very session (best of the same repeat count), so
    the ratio is machine-independent unlike the absolute ev/s gates."""
    silent = quick_record["configs"]["ycsb-c"]["events_per_sec"]
    explicit = mshr_record["configs"]["ycsb-c-mshr8"]["events_per_sec"]
    assert explicit >= 0.8 * silent, (
        f"MSHR bookkeeping costs more than 20% of the hit path: "
        f"{explicit:,} ev/s vs {silent:,} ev/s silent-default"
    )


def test_openloop_config_matches_checked_in_digest(openloop_record,
                                                   bench_file):
    """The open-loop twin of ycsb-c is digest-pinned like every other
    config.  Unlike the MSHR twin it simulates *different* behavior
    (arrivals pace the requests, so run time and event count differ from
    closed-loop ycsb-c), but the digest pins the whole traffic stats
    group: latency percentiles, queue depths and admission accounting
    cannot drift silently."""
    cur = openloop_record["configs"]["ycsb-c-openloop"]
    base = bench_file["configs"]["ycsb-c-openloop"]
    assert cur["stats_sha256"] == base["stats_sha256"], (
        "ycsb-c-openloop: simulation results diverged from "
        "BENCH_kernel.json"
    )
    assert cur["events"] == base["events"]
    assert cur["run_time"] == base["run_time"]


@pytest.mark.skipif(os.environ.get("REPRO_PERF_STRICT") != "1",
                    reason="machine-dependent; set REPRO_PERF_STRICT=1")
def test_events_per_sec_has_not_regressed(quick_record, bench_file):
    failures = perf.check_against_baseline(quick_record, bench_file,
                                           tolerance=0.30)
    assert not failures, failures
