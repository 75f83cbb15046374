"""Ablation: what do the scope buffer and the SBV actually buy?

Section IV motivates both structures: without them every PIM op must
scan every cache set, blocking the LLC for (num_sets x scan cycles) at a
time. This bench runs the same YCSB point under the atomic model with
(a) both structures, (b) no scope buffer, (c) no SBV, (d) neither, and
reports the mean LLC scan latency and run time.
"""

from harness import once, run_ycsb

from repro.analysis.report import format_table
from repro.core.models import ConsistencyModel

SCOPES = 16

VARIANTS = [
    ("scope buffer + SBV", True, True),
    ("no scope buffer", False, True),
    ("no SBV", True, False),
    ("neither", False, False),
]


def test_ablation_scope_hardware(benchmark):
    def sweep():
        return {
            name: run_ycsb(
                ConsistencyModel.ATOMIC, SCOPES, variant=f"ablation:{name}",
                config={"scope_buffer_enabled": sb, "sbv_enabled": sbv},
            )
            for name, sb, sbv in VARIANTS
        }

    results = once(benchmark, sweep)
    base = results["scope buffer + SBV"]
    rows = [
        [name, r.llc_scan_latency, r.run_time, r.run_time / base.run_time,
         r.stale_reads]
        for name, r in results.items()
    ]
    print()
    print(format_table(
        ["variant", "mean scan latency", "run time", "vs full HW", "stale"],
        rows, title="Ablation: Section IV coherency hardware"))

    full = base.llc_scan_latency
    no_sb = results["no scope buffer"].llc_scan_latency
    no_sbv = results["no SBV"].llc_scan_latency
    neither = results["neither"].llc_scan_latency
    num_sets = base.config.llc.num_sets
    # without the scope buffer, every PIM op pays a scan (no zero-cost hits)
    assert no_sb > full
    # without the SBV, each scan visits every set
    assert no_sbv > full
    assert neither >= num_sets  # full scans of all sets, every miss
    # correctness is unaffected: the structures are a performance feature
    assert all(r.stale_reads == 0 for r in results.values())
    # and the full hardware is the fastest configuration
    assert all(r.run_time >= base.run_time * 0.98 for r in results.values())
