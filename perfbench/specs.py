"""Workload specs of the repository benchmark, generated from a seed.

The benchmark owns its inputs: the grids below mirror the shape of the
registered ``paper-grid`` campaign (six models x YCSB scope sweep, four
TPC-H queries, the YCSB Zipf skew axis) but are built here from plain
data, so a change to the program's campaign definitions cannot change
what the benchmark measures.  At :data:`DEFAULT_SEED` the full-size grid
is exactly ``paper-grid`` (same spec hashes, same campaign digest).

The seed drives the YCSB key stream (``params.seed``) and the fuzz
generator's root seed.  TPC-H points have no seed, so they are the same
specs at every seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, Optional

from repro.api.sweep import Axis, Campaign, Pivot, Sweep
from repro.fuzz.generate import GeneratorKnobs
from repro.system.simulation import result_digest
from repro.workloads.tpch import TpchWorkload
from repro.workloads.ycsb import YcsbParams

#: The workload seed used when none is given (paper-grid's YCSB seed).
DEFAULT_SEED = 7
#: A seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 1009

SIX_MODELS = ("naive", "sw-flush", "atomic", "store", "scope",
              "scope-relaxed")
#: Models that guarantee correctness: a stale read under one is a failure.
CORRECT_MODELS = ("atomic", "store", "scope", "scope-relaxed")

SCOPE_SWEEP = (4, 8, 16, 32, 48)
RECORDS_PER_SCOPE = 2000
TPCH_QUERIES = ("q1", "q6", "q11", "q22")
TPCH_SCALE = 1 / 64
SKEW_THETAS = (0.2, 0.6, 0.99)
MAX_EVENTS = 200_000_000

#: Full size: the paper grid.  Cheap: the same shape, replayed warm.
#: Cheap YCSB points only scan (no inserts), so a point's event count
#: barely depends on the seed.
GRID_SIZES = {
    "full": {"ycsb": {"num_ops": 30}, "tpch_runs": 2},
    "cheap": {"ycsb": {"num_ops": 2, "scan_fraction": 1.0,
                       "max_scan_records": 8}, "tpch_runs": 1},
}

#: Fuzz programs: two threads and an 8-op budget.  Three-thread
#: programs cost up to ten times more to check, so a run's work would
#: swing with how many the seed happens to draw.
FUZZ_KNOBS = GeneratorKnobs(threads=(2, 2), max_ops=8)

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")


def _ycsb_base(seed: int, size: Dict[str, object], variant: str = "base",
               **params) -> Dict[str, object]:
    base = {
        "workload": "ycsb",
        "params": asdict(YcsbParams(**dict(
            dict(num_records=0, threads=4, seed=seed, **size), **params))),
        "config": {"preset": "scaled"},
        "max_events": MAX_EVENTS,
    }
    if variant != "base":
        base["variant"] = variant
    return base


def grid_campaign(seed: int, size: str = "full") -> Campaign:
    """The paper-grid shape at ``size``, with the YCSB key seed ``seed``."""
    knobs = GRID_SIZES[size]
    ycsb = Sweep(
        name="ycsb",
        base=_ycsb_base(seed, knobs["ycsb"]),
        axes=(
            Axis("model", SIX_MODELS),
            Axis("scopes", SCOPE_SWEEP),
            Axis("records", tuple(RECORDS_PER_SCOPE * n for n in SCOPE_SWEEP),
                 path="params.num_records", hidden=True),
        ),
        zip_groups=(("scopes", "records"),),
    )
    tpch = Sweep(
        name="tpch",
        base={
            "workload": "tpch",
            "params": {"query": "", "scale": TPCH_SCALE,
                       "runs": knobs["tpch_runs"]},
            "config": {"preset": "scaled"},
            "max_events": MAX_EVENTS,
        },
        axes=(
            Axis("model", SIX_MODELS),
            Axis("query", TPCH_QUERIES, path="params.query"),
            Axis("scopes", tuple(TpchWorkload(q, scale=TPCH_SCALE)
                                 .scaled_scopes() for q in TPCH_QUERIES),
                 hidden=True),
        ),
        zip_groups=(("query", "scopes"),),
    )
    skew = Sweep(
        name="ycsb-skew",
        base=dict(_ycsb_base(seed, knobs["ycsb"], variant="skew",
                             num_records=8 * RECORDS_PER_SCOPE),
                  config={"preset": "scaled", "num_scopes": 8}),
        axes=(Axis("model", SIX_MODELS),
              Axis("theta", SKEW_THETAS, path="params.zipf_theta")),
    )
    return Campaign(
        name="paper-grid" if size == "full" else f"paper-grid-{size}",
        title=f"Benchmark grid ({size}, seed {seed})",
        sweeps=(ycsb, tpch, skew),
        pivots=(
            Pivot(title="YCSB run time vs scope count", sweep="ycsb",
                  x="scopes", split_by="model"),
            Pivot(title="YCSB run time normalized to Naive", sweep="ycsb",
                  x="scopes", split_by="model", normalize_to="naive"),
            Pivot(title="LLC scope-buffer hit rate", sweep="ycsb",
                  x="scopes", split_by="model", value="llc.hit_rate"),
            Pivot(title="Stale PIM-result reads", sweep="ycsb",
                  x="scopes", split_by="model", value="stale_reads"),
            Pivot(title="TPC-H run time normalized to Naive", sweep="tpch",
                  x="query", split_by="model", normalize_to="naive"),
            Pivot(title="YCSB run time vs Zipf skew", sweep="ycsb-skew",
                  x="theta", split_by="model"),
        ),
    )


def fuzz_op_seed(seed: int, index: int) -> int:
    """The ``fuzz_run`` seed of fuzz op ``index`` under root seed ``seed``."""
    return seed * 100_000 + index


def point_digest(result) -> str:
    """The digest ``tests/api/test_default_digests.py`` pins results by."""
    return result_digest({
        "run_time": result.run_time,
        "events": result.events,
        "stale_reads": result.stale_reads,
        "stats": result.stats,
    })


def load_goldens(path: Optional[str] = None) -> Dict[str, Dict[str, str]]:
    """The golden digests captured by ``capture_goldens.py``.

    Sections: ``points`` (spec hash -> point digest), ``cold_campaign``,
    ``warm_campaign`` and ``warm_report`` (seed -> digest) and ``fuzz``
    (op seed -> fuzz report digest).
    """
    with open(path or GOLDENS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)
