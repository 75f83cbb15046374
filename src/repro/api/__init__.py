"""The canonical front door for running simulations.

One run is an :class:`Experiment` -- a frozen spec of system config,
workload name, workload params and variant tag.  A :class:`Runner`
executes specs through a pluggable backend (:class:`SerialBackend` or
:class:`ProcessPoolBackend`) and caches results by spec hash.  Every
batch settles point by point: :meth:`Runner.run_settled` reports each
failure as data, and :meth:`Runner.run_all` raises a ``RuntimeError``
naming the first failed point once the rest have finished::

    from repro.api import Experiment, ProcessPoolBackend, Runner

    exps = [
        Experiment.from_dict({
            "workload": "ycsb",
            "params": {"num_records": 8000, "num_ops": 30},
            "config": {"preset": "scaled", "model": model, "num_scopes": 4},
        })
        for model in ("naive", "atomic", "scope")
    ]
    results = Runner(backend=ProcessPoolBackend(jobs=4)).run_all(exps)
    print(results[1].llc.hit_rate, results[1].pim.ops_executed)

Workloads are resolved by name through the registry
(:func:`register_workload`); results come back as
:class:`~repro.system.simulation.SimulationResult` with typed
:class:`StatsView` access.

Whole evaluation grids are declared as :class:`Sweep`/:class:`Campaign`
specs (:mod:`repro.api.sweep`) and executed with :func:`run_campaign`:
spec-hash deduplication, process-pool sharding, per-point failure
isolation, and figure-grade aggregation into ``EXPERIMENTS.md``.

Results outlive the process through the persistent
:class:`ResultStore` (:mod:`repro.api.store`): an on-disk,
content-addressed cache keyed by spec hash plus a code/format
fingerprint, shared by concurrent shards and sessions --
``Runner(store=...)`` consults it before dispatching and writes every
fresh success back.  It is the only way one run resumes another's.
"""

from repro.api.backends import (
    ExecutionBackend,
    ExperimentFailure,
    ProcessPoolBackend,
    SerialBackend,
    backend_for,
    execute_experiment,
)
from repro.api.experiment import (
    Experiment,
    config_from_dict,
    config_to_dict,
    freeze_params,
)
from repro.api.registry import (
    REGISTRY,
    UnknownWorkloadError,
    WorkloadRegistry,
    register_workload,
)
from repro.api.results import (
    RESULT_SCHEMA,
    SimulationResult,
    StatsView,
    headline,
    result_digest,
)
from repro.api.runner import Runner
from repro.api.store import ResultStore, code_fingerprint
from repro.api.sweep import (
    Axis,
    Campaign,
    CampaignResult,
    CAMPAIGNS,
    Pivot,
    Sweep,
    get_campaign,
    run_campaign,
)

__all__ = [
    "Axis",
    "CAMPAIGNS",
    "Campaign",
    "CampaignResult",
    "Experiment",
    "ExecutionBackend",
    "ExperimentFailure",
    "Pivot",
    "ProcessPoolBackend",
    "REGISTRY",
    "RESULT_SCHEMA",
    "ResultStore",
    "Runner",
    "SerialBackend",
    "SimulationResult",
    "StatsView",
    "Sweep",
    "UnknownWorkloadError",
    "WorkloadRegistry",
    "backend_for",
    "code_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "execute_experiment",
    "freeze_params",
    "get_campaign",
    "headline",
    "register_workload",
    "result_digest",
    "run_campaign",
]
