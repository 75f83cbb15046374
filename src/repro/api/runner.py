"""The Runner: tiered-cache, backend-pluggable experiment execution.

``Runner(backend=ProcessPoolBackend()).run_all(experiments)`` is the
canonical way to run a sweep.  The Runner keys completed results on each
experiment's :meth:`~repro.api.experiment.Experiment.spec_hash` and
serves them through a two-tier cache:

* a **memory dict** in front -- repeated points inside one sweep run
  once, repeated sweeps across a session hit the cache;
* an optional **persistent store** behind it
  (:class:`~repro.api.store.ResultStore`) -- results survive the
  process, so sessions, CI jobs and concurrent shards pointing at the
  same directory share one cache.

Either way the backend only ever sees the remaining misses, in input
order, as exactly one dispatch per batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.api.backends import (
    ExecutionBackend,
    ExperimentFailure,
    SerialBackend,
)
from repro.api.experiment import Experiment
from repro.api.store import ResultStore
from repro.system.simulation import SimulationResult

#: One point of a settled batch: ``(result, None)`` or ``(None, error)``.
Outcome = Tuple[Optional[SimulationResult], Optional[str]]


class Runner:
    """Execute experiment specs through a backend, caching by spec hash.

    Args:
        backend: execution strategy; defaults to :class:`SerialBackend`.
        cache: keep completed results in memory keyed by spec hash.
            Disable for memory-constrained bulk sweeps whose results are
            consumed immediately (the persistent store, if any, still
            serves and collects results).
        store: persistent result store behind the memory cache -- a
            :class:`~repro.api.store.ResultStore` or a directory path.
            Batch execution consults it for every memory miss before
            dispatching, and writes every fresh success back.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None,
                 cache: bool = True,
                 store: Union[ResultStore, str, None] = None) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self._cache: Optional[Dict[str, SimulationResult]] = {} if cache else None
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        #: Specs handed to the backend since construction (cache misses
        #: that actually simulated); the warm-store CI gate asserts this
        #: stays 0 on a fully cached campaign.
        self.dispatch_count = 0
        #: Misses served by the persistent store since construction.
        self.store_hits = 0
        #: Failed settled points later found completed in the store (a
        #: timed-out pool child or another process wrote them after our
        #: batch gave up on them).
        self.reconciled = 0

    # ------------------------------------------------------------------ #

    def run(self, experiment: Experiment) -> SimulationResult:
        """Run (or fetch from cache) a single experiment."""
        return self.run_all([experiment])[0]

    def run_all(self, experiments: Iterable[Experiment]) -> List[SimulationResult]:
        """Run a sweep; results align with the input order.

        Cache hits (memory first, then the store) are served without
        touching the backend; duplicate specs within the sweep execute
        once.  A batch mixing cached and uncached points still makes
        exactly one backend dispatch, of the misses only, so resumed
        campaigns keep their sharding.
        """
        hashes, memo, missing = self._partition(experiments)
        if missing:
            self.dispatch_count += len(missing)
            results = self.backend.run_all(list(missing.values()))
            memo.update(zip(missing.keys(), results))
            if self.store is not None:
                for h, result in zip(missing.keys(), results):
                    try:
                        self.store.put(h, result, missing[h])
                    except OSError:
                        # Store I/O never fails the batch: the results
                        # are already computed and the memory tier
                        # serves them for this session.
                        pass
        return [memo[h] for h in hashes]

    def run_settled(self, experiments: Iterable[Experiment],
                    trace=None, progress=None) -> List[Outcome]:
        """Run a sweep with per-point failure isolation.

        Same batch path as :meth:`run_all` -- one dispatch of the cache
        misses -- but a point that fails reports ``(None, traceback)``
        instead of aborting the batch.  Only successes enter the caches,
        so a resumed campaign retries exactly its failures.  With a
        store attached, successes are written through by the executing
        worker itself, so a campaign killed mid-batch keeps every point
        that finished.

        ``trace`` (a :class:`~repro.sim.config.TraceConfig`) overlays
        observability on execution without changing spec hashes -- cache
        and store keys are identical traced or not.  ``progress`` is
        called with point counts as they settle; cache and store hits
        are reported upfront, and duplicate specs count as many points
        as they serve.
        """
        hashes, memo, missing = self._partition(experiments)
        backend_progress = None
        if progress is not None:
            # Per-unique-spec dup weights, consumed in dispatch order so
            # a spec appearing N times in the batch advances N points.
            weights = {h: 0 for h in missing}
            cached = 0
            for h in hashes:
                if h in weights:
                    weights[h] += 1
                else:
                    cached += 1
            if cached:
                progress(cached)
            queue = [weights[h] for h in missing]
            it = iter(queue)

            def backend_progress(n: int) -> None:
                progress(sum(next(it, 1) for _ in range(n)))

        failed: Dict[str, str] = {}
        if missing:
            self.dispatch_count += len(missing)
            outcomes = self.backend.run_all_settled(
                list(missing.values()), store=self.store, trace=trace,
                progress=backend_progress)
            for h, outcome in zip(missing.keys(), outcomes):
                if isinstance(outcome, ExperimentFailure):
                    failed[h] = outcome.error
                else:
                    memo[h] = outcome
            if failed and self.store is not None:
                # Reconcile against the store before reporting failure.
                # A pool child that hit --timeout-s may have finished its
                # write-through before the pool was torn down, and
                # another process sharing the store may have written the
                # point meanwhile.  A spec that fails to simulate never
                # reaches the store, so this rescues only such points.
                rescued = self.store.get_many(list(failed))
                for h, result in rescued.items():
                    memo[h] = result
                    del failed[h]
                self.reconciled += len(rescued)
        return [(memo.get(h), failed.get(h)) for h in hashes]

    def _partition(self, experiments: Iterable[Experiment]):
        """Hash the batch and split it into (hashes, memo, misses).

        ``memo`` is the live memory cache (or a throwaway dict with
        caching off: the batch still dedupes, but nothing persists
        across calls); ``misses`` maps spec hash -> experiment for the
        points the backend must actually run, in input order, each
        unique spec once.  Memory misses consult the persistent store
        before landing in ``misses``.
        """
        experiments = list(experiments)
        hashes = [e.spec_hash() for e in experiments]
        memo = self._cache if self._cache is not None else {}
        missing: Dict[str, Experiment] = {}
        for h, e in zip(hashes, experiments):
            if h not in memo:
                missing.setdefault(h, e)
        if missing and self.store is not None:
            hydrated = self.store.get_many(missing.keys())
            if hydrated:
                self.store_hits += len(hydrated)
                memo.update(hydrated)
                for h in hydrated:
                    del missing[h]
        return hashes, memo, missing

    # ------------------------------------------------------------------ #

    @property
    def cache_size(self) -> int:
        return len(self._cache) if self._cache is not None else 0

    def preload(self, results: Mapping[str, SimulationResult]) -> int:
        """Seed the memory cache with spec-hash-keyed results (campaign
        resume).  Returns how many entries were installed.

        Raises with caching disabled: a silently dropped preload would
        make campaign resume re-simulate everything it was handed.
        """
        if self._cache is None:
            if self.store is not None:
                where = (f"store at {self.store.root!r} (fingerprint "
                         f"{self.store.fingerprint}) still serves misses, but")
            else:
                where = "no store is attached, so"
            raise RuntimeError(
                "Runner.preload() needs the memory cache: this Runner was "
                f"built with cache=False, so {where} the preloaded results "
                "would be dropped and every point would silently re-simulate")
        self._cache.update(results)
        return len(results)

    def cached(self, experiment: Experiment) -> Optional[SimulationResult]:
        """The memory-cached result for a spec, or ``None``."""
        if self._cache is None:
            return None
        return self._cache.get(experiment.spec_hash())

    def clear_cache(self) -> None:
        """Drop the memory tier (the persistent store is untouched)."""
        if self._cache is not None:
            self._cache.clear()
