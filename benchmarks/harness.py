"""Shared infrastructure for the per-figure benchmarks.

Every benchmark regenerates one of the paper's tables or figures at a
scaled-down workload size (see EXPERIMENTS.md for the scaling rationale)
and prints the same rows/series the paper plots.  Simulation points are
declared as :class:`repro.api.Experiment` specs and executed through one
session-wide :class:`repro.api.Runner`, whose spec-hash cache deduplicates
the points several figures share (Figs. 7, 9 and 10 all come from the
YCSB scope-count sweep).  Set ``REPRO_BENCH_JOBS=N`` to fan sweeps over
N worker processes.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Dict, List, Mapping, Optional

from repro.api import Axis, Experiment, Runner, Sweep, backend_for
from repro.api import sweep as campaign_defs
from repro.core.models import ConsistencyModel
from repro.sim.config import SystemConfig
from repro.system.simulation import SimulationResult
from repro.workloads.ycsb import YcsbParams

#: Model order used in every figure (the campaign registry's order).
ALL_MODELS = [ConsistencyModel(name) for name in campaign_defs.SIX_MODELS]

PROPOSED_MODELS = [m for m in ALL_MODELS if m.is_proposed]

#: YCSB sweep: scaled scope counts standing in for the paper's 4..977.
#: Shared with the paper-grid campaign so figure points and campaign
#: points hash identically (see benchmarks/test_campaign_parity.py).
SCOPE_SWEEP = list(campaign_defs.SCOPE_SWEEP)

#: Records per scope in the scaled configuration.
RECORDS_PER_SWEEP_SCOPE = campaign_defs.RECORDS_PER_SCOPE

#: Operations per YCSB run (the paper uses 1000; scaled for wall-clock).
YCSB_OPS = campaign_defs.YCSB_OPS

#: Event budget per simulation point.
MAX_EVENTS = campaign_defs.MAX_EVENTS


#: One Runner per pytest session: its spec-hash cache replaces the old
#: hand-rolled ``(model, workload, variant) -> result`` memo dict.
runner = Runner(backend=backend_for(
    int(os.environ.get("REPRO_BENCH_JOBS", "1") or 1)))


def ycsb_params(num_scopes: int, threads: int = 4) -> YcsbParams:
    return YcsbParams(
        num_records=num_scopes * RECORDS_PER_SWEEP_SCOPE,
        num_ops=YCSB_OPS,
        threads=threads,
        seed=7,
    )


def _config(threads: int,
            overrides: Optional[Mapping[str, object]]) -> Dict[str, object]:
    """The scaled preset plus hardware overrides, in config-dict form.

    ``overrides`` holds top-level config keys (``{"pim": {"zero_logic":
    True}}``); a nested dict overrides only the fields it names.  Eight
    threads run on a doubled-core host.
    """
    config: Dict[str, object] = {"preset": "scaled"}
    if threads != 4:
        config["cores"] = {"num_cores": 2 * threads}
    config.update(overrides or {})
    return config


def ycsb_experiment(
    model: ConsistencyModel,
    num_scopes: int,
    variant: str = "base",
    config: Optional[Mapping[str, object]] = None,
    threads: int = 4,
) -> Experiment:
    """The declarative spec of one YCSB sweep point; ``config`` holds
    hardware overrides on top of the scaled preset."""
    return Experiment.from_dict({
        "workload": "ycsb",
        "params": asdict(ycsb_params(num_scopes, threads)),
        "config": dict(_config(threads, config), model=model.value,
                       num_scopes=num_scopes),
        "variant": variant,
        "max_events": MAX_EVENTS,
    })


def tpch_experiment(model: ConsistencyModel, query: str,
                    scale: float = 1 / 64, runs: int = 2) -> Experiment:
    """The declarative spec of one TPC-H query simulation."""
    from repro.workloads.tpch import TpchWorkload
    workload = TpchWorkload(query, scale=scale, runs=runs)
    cfg = SystemConfig.scaled_default(
        model=model, num_scopes=workload.scaled_scopes())
    return Experiment(
        workload="tpch",
        config=cfg,
        params={"query": query, "scale": scale, "runs": runs},
        max_events=MAX_EVENTS,
    )


def run_ycsb(
    model: ConsistencyModel,
    num_scopes: int,
    variant: str = "base",
    config: Optional[Mapping[str, object]] = None,
    threads: int = 4,
) -> SimulationResult:
    """One YCSB simulation point (cached by spec hash)."""
    return runner.run(ycsb_experiment(model, num_scopes, variant,
                                      config, threads))


def run_tpch(model: ConsistencyModel, query: str,
             scale: float = 1 / 64, runs: int = 2) -> SimulationResult:
    """One TPC-H query simulation (cached by spec hash)."""
    return runner.run(tpch_experiment(model, query, scale, runs))


def ycsb_sweep(models: List[ConsistencyModel], variant: str = "base",
               config: Optional[Mapping[str, object]] = None,
               threads: int = 4,
               scopes: Optional[List[int]] = None) -> Dict[str, List[SimulationResult]]:
    """The model x scope-count grid, declared as a Sweep.

    The grid expands declaratively (scope count zipped to its derived
    record count, models crossed over them) and dispatches as one Runner
    batch; ``config`` carries the Fig. 11/12 hardware overrides into the
    sweep base as plain data.  The expanded specs are identical to
    :func:`ycsb_experiment`'s, so single figure points and whole sweeps
    share the spec-hash cache.
    """
    scopes = scopes or SCOPE_SWEEP
    sweep = Sweep(
        name=f"ycsb-{variant}",
        base={
            "workload": "ycsb",
            "params": asdict(ycsb_params(0, threads)),
            "config": _config(threads, config),
            "variant": variant,
            "max_events": MAX_EVENTS,
        },
        axes=(
            Axis("model", tuple(m.value for m in models)),
            Axis("scopes", tuple(scopes)),
            Axis("records",
                 tuple(RECORDS_PER_SWEEP_SCOPE * n for n in scopes),
                 path="params.num_records", hidden=True),
        ),
        zip_groups=(("scopes", "records"),),
    )
    results = runner.run_all(sweep.experiments())
    per_point = iter(results)
    return {
        model.value: [next(per_point) for _ in scopes]
        for model in models
    }


def normalized(results: Dict[str, List[SimulationResult]],
               baseline: str = "naive") -> Dict[str, List[float]]:
    """Run times normalized to the baseline series (the paper's y-axis)."""
    base = [r.run_time for r in results[baseline]]
    return {
        name: [r.run_time / b for r, b in zip(series, base)]
        for name, series in results.items()
    }


def once(benchmark, fn):
    """Run a whole-figure regeneration exactly once under pytest-benchmark.

    Simulations are deterministic and expensive; statistical repetition
    adds nothing.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
