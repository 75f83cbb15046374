"""Pluggable execution backends for experiment sweeps.

A backend turns a list of :class:`~repro.api.experiment.Experiment`
specs into a list of settled outcomes -- a
:class:`~repro.system.simulation.SimulationResult` or an
:class:`ExperimentFailure` per point -- **in order**.  Two
implementations ship:

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


def settle(experiment: Experiment, store=None,
           trace: Optional[TraceConfig] = None) -> Settled:
    """Run one spec; a failure settles as :class:`ExperimentFailure`.

    This is the per-point isolation primitive of every batch: a workload
    that cannot even be built (bad parameters) or a simulation that dies
    mid-run reports as data instead of aborting the batch.

    With a ``store`` (a :class:`~repro.api.store.ResultStore`), the
    *executing worker* persists its own success, so a campaign killed
    mid-batch keeps every point that finished.  Store I/O failure never
    fails the point: the result still returns and the Runner's memory
    cache serves it for this session.  The store pickles as plain data
    (a root path and a fingerprint string), so the same function drives
    the serial path and the process pool.
    """
    try:
        result = execute_experiment(experiment, trace=trace)
    except Exception:  # noqa: BLE001 - the point is to report, not crash
        return ExperimentFailure(traceback.format_exc())
    if store is not None:
        try:
            store.put(experiment.spec_hash(), result, experiment)
        except OSError:
            pass
    return result


class ExecutionBackend(abc.ABC):
    """How a Runner turns experiment specs into settled outcomes."""

    name = "abstract"

    @abc.abstractmethod
    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        """Execute every experiment; outcomes align with the input order.

        Each point settles through :func:`settle`: failures isolate to
        their point, and ``store`` turns on per-point write-through.
        ``trace`` overlays an observability config on execution without
        touching the specs (see :func:`execute_experiment`).
        ``progress`` is called with the number of points that just
        settled, as they settle.
        """


class SerialBackend(ExecutionBackend):
    """Run experiments one by one in the calling process."""

    name = "serial"

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        settled: List[Settled] = []
        for experiment in experiments:
            settled.append(settle(experiment, store, trace))
            if progress is not None:
                progress(1)
        return settled


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
        jobs: worker count; defaults to the machine's CPU count.  Points
            are handed out one at a time, which balances best when run
            times differ wildly across a sweep (strict models at high
            scope counts run much longer than Naive at low ones).
        timeout_s: per-point wall-clock budget.  A point that exceeds it
            settles as an :class:`ExperimentFailure` instead of wedging
            the whole batch; the hung child is killed when the pool
            closes.  The budget is measured from when the batch starts
            waiting on that point, so it bounds wait-per-point, not
            total wall.
    """

    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.timeout_s = timeout_s

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        experiments = list(experiments)
        workers = min(self.jobs, len(experiments))
        if workers == 0 or (workers == 1 and self.timeout_s is None):
            # Nothing to fan out, and no timeout that needs a child
            # process to abandon: run in-process.
            return SerialBackend().run_all_settled(
                experiments, store, trace, progress)
        fn = functools.partial(settle, store=store, trace=trace)
        # Exiting the `with` terminates the pool, killing any child
        # still stuck on a timed-out point.  Points are collected (and
        # reported) in input order as they finish.
        with self._context().Pool(processes=workers) as pool:
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

    @staticmethod
    def _context():
        # Prefer fork: workers inherit the imported simulator for free and
        # no __main__ re-import is needed (spawn breaks under pytest).
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
