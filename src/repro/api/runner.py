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
  same directory share one cache.  The store is the only way a run
  resumes another's work.

Either way the backend only ever sees the remaining misses, in input
order, as exactly one settled dispatch per batch.
:meth:`Runner.run_settled` reports each point's failure as data;
:meth:`Runner.run_all` is the same batch plus a :class:`RuntimeError`
once every success is stored.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

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
        store: persistent result store behind the memory cache -- a
            :class:`~repro.api.store.ResultStore` or a directory path.
            Batch execution consults it for every memory miss before
            dispatching, and the executing worker writes every fresh
            success back.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None,
                 store: Union[ResultStore, str, None] = None) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self._cache: Dict[str, SimulationResult] = {}
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

        The batch path of :meth:`run_settled`.  If any point fails, a
        :class:`RuntimeError` naming the first failed point's spec hash
        is raised -- only after the whole batch settled, so every
        success is already cached and stored.
        """
        hashes, failed = self._settle(experiments)
        if failed:
            spec_hash, error = next(iter(failed.items()))
            raise RuntimeError(
                f"{len(failed)} of {len(set(hashes))} points failed; "
                f"first: {spec_hash}\n{error}")
        return [self._cache[h] for h in hashes]

    def run_settled(self, experiments: Iterable[Experiment],
                    trace=None, progress=None) -> List[Outcome]:
        """Run a sweep with per-point failure isolation.

        Cache hits (memory first, then the store) are served without
        touching the backend; duplicate specs within the sweep execute
        once.  A batch mixing cached and uncached points makes exactly
        one backend dispatch, of the misses only, so resumed campaigns
        keep their sharding.  A point that fails reports ``(None,
        traceback)`` instead of aborting the batch.  Only successes
        enter the caches, so a resumed campaign retries exactly its
        failures.  With a store attached, successes are written through
        by the executing worker itself, so a campaign killed mid-batch
        keeps every point that finished.

        ``trace`` (a :class:`~repro.sim.config.TraceConfig`) overlays
        observability on execution without changing spec hashes -- cache
        and store keys are identical traced or not.  An enabled trace is
        served only results that carry ``obs``: a cached or stored
        result without it counts as a miss, simulates traced, and its
        traced result replaces it in both tiers.  Untraced batches are
        served traced results.  ``progress`` is called with point
        counts as they settle; cache and store hits are reported
        upfront, and duplicate specs count as many points as they
        serve.
        """
        hashes, failed = self._settle(experiments, trace, progress)
        cache = self._cache
        return [(None, failed[h]) if h in failed else (cache[h], None)
                for h in hashes]

    def _settle(self, experiments: Iterable[Experiment], trace=None,
                progress=None) -> Tuple[List[str], Dict[str, str]]:
        """The one batch path: ``(spec hashes, spec hash -> error)``.

        Every success lands in the memory cache (and, through the
        backend's write-through, in the store); the returned dict holds
        the failures, in input order.  :meth:`run_all` and
        :meth:`run_settled` both call this rather than each other, so a
        wrapper around either sees one call per batch.
        """
        experiments = list(experiments)
        hashes = [e.spec_hash() for e in experiments]
        cache = self._cache
        traced = trace is not None and trace.enabled
        missing: Dict[str, Experiment] = {}
        for h, e in zip(hashes, experiments):
            hit = cache.get(h)
            if hit is None or (traced and hit.obs is None):
                missing.setdefault(h, e)
        if missing and self.store is not None:
            hydrated = self._store_hits(missing, traced)
            if hydrated:
                self.store_hits += len(hydrated)
                cache.update(hydrated)
                for h in hydrated:
                    del missing[h]

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
            it = iter([weights[h] for h in missing])

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
                    cache[h] = outcome
            if failed and self.store is not None:
                # Reconcile against the store before reporting failure.
                # A pool child that hit --timeout-s may have finished its
                # write-through before the pool was torn down, and
                # another process sharing the store may have written the
                # point meanwhile.  A spec that fails to simulate never
                # reaches the store, so this rescues only such points.
                rescued = self._store_hits(
                    {h: missing[h] for h in failed}, traced)
                for h, result in rescued.items():
                    cache[h] = result
                    del failed[h]
                self.reconciled += len(rescued)
        return hashes, failed

    def _store_hits(self, requests: Dict[str, Experiment],
                    traced: bool) -> Dict[str, SimulationResult]:
        """The store's results for ``requests`` (spec hash -> the
        experiment asking); a traced batch takes only those with
        ``obs``."""
        hits = self.store.get_many(requests)
        if traced:
            hits = {h: r for h, r in hits.items() if r.obs is not None}
        return hits
