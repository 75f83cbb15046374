"""Pluggable execution backends for experiment sweeps.

A backend turns a list of :class:`~repro.api.experiment.Experiment`
specs into a list of :class:`~repro.system.simulation.SimulationResult`,
**in order**.  Two implementations ship:

* :class:`SerialBackend` -- run in-process, one after another;
* :class:`ProcessPoolBackend` -- fan the sweep across worker processes
  with :mod:`multiprocessing`.  Simulations are deterministic and share
  nothing, so results are identical to the serial backend's -- only the
  wall clock changes (roughly divided by the core count).

Backends execute *specs*, not workload objects: the worker rebuilds the
workload from the registry inside the child process, so only plain data
crosses the process boundary.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.api.experiment import Experiment
from repro.sim.config import TraceConfig
from repro.system.simulation import SimulationResult, run_workload

#: Progress callback for settled batches: called with the number of
#: points that just finished.
ProgressFn = Callable[[int], None]


def execute_experiment(experiment: Experiment,
                       trace: Optional[TraceConfig] = None) -> SimulationResult:
    """Run one experiment spec to completion (the single-run engine).

    ``trace`` is an *execution-side* observability overlay: the spec --
    and therefore its hash, the store key and every pinned digest -- is
    untouched; only the built system gets the tracing config.  Tracing
    never perturbs simulation state, so the result differs from an
    untraced run only by the extra ``obs`` payload.
    """
    config = experiment.config
    if trace is not None:
        config = dataclasses.replace(config, trace=trace)
    workload = experiment.build_workload()
    return run_workload(
        config, workload, max_events=experiment.max_events
    )


@dataclass
class ExperimentFailure:
    """One failed point of a settled batch.

    Plain data (a traceback string or a timeout message), so it crosses
    the process-pool boundary exactly like a result does.  Failures
    never enter a cache, so a resumed campaign re-runs exactly them.
    """

    error: str


#: What one point of a settled batch yields.
Settled = Union[SimulationResult, ExperimentFailure]


def execute_experiment_settled(experiment: Experiment,
                               trace: Optional[TraceConfig] = None) -> Settled:
    """Run one spec, converting any failure into :class:`ExperimentFailure`.

    This is the per-point isolation primitive of campaign execution: a
    workload that cannot even be built (bad parameters) or a simulation
    that dies mid-run reports as data instead of aborting the batch.
    """
    try:
        return execute_experiment(experiment, trace=trace)
    except Exception:  # noqa: BLE001 - the point is to report, not crash
        return ExperimentFailure(traceback.format_exc())


def execute_experiment_settled_store(
        store, experiment: Experiment,
        trace: Optional[TraceConfig] = None) -> Settled:
    """Settled execution with write-through to a persistent store.

    The *executing worker* persists its own success, so a campaign
    killed mid-batch keeps every point that finished -- the next run
    resumes from the store instead of starting over.  Store I/O failure
    never fails the point: the result still returns and the Runner-side
    caches serve it for this session.  The store pickles as plain data
    (a root path and a fingerprint string), so the same function drives
    the serial path and the process pool.
    """
    outcome = execute_experiment_settled(experiment, trace=trace)
    if not isinstance(outcome, ExperimentFailure):
        try:
            store.put(experiment.spec_hash(), outcome, experiment)
        except OSError:
            pass
    return outcome


def _settled_fn(store, trace: Optional[TraceConfig] = None):
    """The per-point settled executor, write-through when a store rides.

    Both the store and the trace overlay are bound with
    :func:`functools.partial` over plain data (the store pickles as a
    root path + fingerprint, :class:`TraceConfig` is a frozen
    dataclass), so the same callable drives the serial path and the
    process pool.
    """
    if store is None:
        if trace is None:
            return execute_experiment_settled
        return functools.partial(execute_experiment_settled, trace=trace)
    return functools.partial(execute_experiment_settled_store, store,
                             trace=trace)


class ExecutionBackend(abc.ABC):
    """How a Runner turns experiment specs into results."""

    name = "abstract"

    @abc.abstractmethod
    def run_all(self, experiments: Sequence[Experiment]) -> List[SimulationResult]:
        """Execute every experiment; results align with the input order."""

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        """Like :meth:`run_all`, but failures isolate to their point.

        ``store`` (a :class:`~repro.api.store.ResultStore`) turns on
        per-point write-through: each success is persisted by the worker
        that computed it, as it finishes.  ``trace`` overlays an
        observability config on execution without touching the specs (see
        :func:`execute_experiment`).  ``progress`` is called with the
        number of points that just settled, as they settle.
        """
        fn = _settled_fn(store, trace)
        if progress is None:
            return [fn(e) for e in experiments]
        settled: List[Settled] = []
        for experiment in experiments:
            settled.append(fn(experiment))
            progress(1)
        return settled

    def run(self, experiment: Experiment) -> SimulationResult:
        return self.run_all([experiment])[0]


class SerialBackend(ExecutionBackend):
    """Run experiments one by one in the calling process."""

    name = "serial"

    def run_all(self, experiments: Sequence[Experiment]) -> List[SimulationResult]:
        return [execute_experiment(e) for e in experiments]


def backend_for(jobs: int,
                timeout_s: Optional[float] = None) -> ExecutionBackend:
    """The natural backend for a worker count: a pool above one job.

    A per-point ``timeout_s`` forces the pool even at one job -- a
    timeout is only enforceable on work running in a child process the
    parent can abandon.
    """
    if jobs > 1 or timeout_s is not None:
        return ProcessPoolBackend(jobs=jobs, timeout_s=timeout_s)
    return SerialBackend()


class ProcessPoolBackend(ExecutionBackend):
    """Fan experiments across a :mod:`multiprocessing` worker pool.

    Args:
        jobs: worker count; defaults to the machine's CPU count.
        chunksize: experiments handed to a worker at a time.  1 balances
            best when run times differ wildly across a sweep (strict
            models at high scope counts run much longer than Naive at
            low ones).
        timeout_s: per-point wall-clock budget for *settled* batches.  A
            point that exceeds it settles as an
            :class:`ExperimentFailure` instead of wedging the whole
            batch; the hung child is killed when the pool closes.  The
            budget is measured from when the batch starts waiting on
            that point, so it bounds wait-per-point, not total wall.
    """

    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None, chunksize: int = 1,
                 timeout_s: Optional[float] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.chunksize = chunksize
        self.timeout_s = timeout_s

    def run_all(self, experiments: Sequence[Experiment]) -> List[SimulationResult]:
        return self._map(execute_experiment, experiments)

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        fn = _settled_fn(store, trace)
        if self.timeout_s is None and progress is None:
            return self._map(fn, experiments)
        experiments = list(experiments)
        if not experiments:
            return []
        workers = max(1, min(self.jobs, len(experiments)))
        ctx = self._context()
        # Exiting the `with` terminates the pool, killing any child
        # still stuck on a timed-out point.  Progress reporting rides
        # the same per-point apply_async path as the timeout: points
        # are collected (and reported) in input order as they finish.
        with ctx.Pool(processes=workers) as pool:
            pending = [pool.apply_async(fn, (e,)) for e in experiments]
            settled: List[Settled] = []
            for experiment, result in zip(experiments, pending):
                try:
                    settled.append(result.get(self.timeout_s))
                except multiprocessing.TimeoutError:
                    settled.append(ExperimentFailure(
                        f"point {experiment.spec_hash()} exceeded the "
                        f"{self.timeout_s}s per-point timeout (hung "
                        f"simulation or starved worker); killed with the "
                        f"pool"))
                if progress is not None:
                    progress(1)
            return settled

    def _map(self, fn, experiments: Sequence[Experiment]) -> List:
        experiments = list(experiments)
        workers = min(self.jobs, len(experiments))
        if workers <= 1:
            return [fn(e) for e in experiments]
        ctx = self._context()
        with ctx.Pool(processes=workers) as pool:
            return pool.map(fn, experiments, chunksize=self.chunksize)

    @staticmethod
    def _context():
        # Prefer fork: workers inherit the imported simulator for free and
        # no __main__ re-import is needed (spawn breaks under pytest).
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
