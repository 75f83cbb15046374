"""The fuzz campaign driver: generate, check, shrink, accumulate.

:func:`fuzz_run` is the engine behind ``repro-bench fuzz run`` and the
CI fuzz gates: a fixed-seed batch of generated programs goes through the
abstract invariant oracle (:mod:`repro.fuzz.oracle`), the synchronized
timing workload (``litmus-fuzz``) across the six models, the
delta-debugging shrinker on any violation, and -- for survivors -- the
store-backed corpus (:mod:`repro.fuzz.corpus`).

Determinism is load-bearing: the run report contains no timestamps, no
host state and no store-dependent counts, every collection is sorted,
and the timing experiments are deterministic simulations -- so the same
seed produces byte-identical reports on the Serial and ProcessPool
backends, on any machine.  CI asserts exactly that.

:func:`replay_corpus` is the regression direction: search every corpus
entry's abstract outcome sets afresh, re-simulate its timing stale
counts, and diff both against what was recorded when the entry was
admitted.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.backends import backend_for
from repro.api.experiment import Experiment
from repro.api.runner import Runner
from repro.core.models import ConsistencyModel
from repro.fuzz import oracle
from repro.fuzz.corpus import (FLIGHT_SCHEMA, REPRO_SCHEMA, FuzzCorpus,
                               corpus_entry, replay_entry)
from repro.fuzz.generate import GeneratorKnobs, generate_batch
from repro.fuzz.program import FuzzProgram
from repro.fuzz.shrink import shrink

__all__ = ["REPORT_SCHEMA", "SIX_MODELS", "flight_dump", "fuzz_run",
           "replay_corpus", "timing_experiment"]

#: Schema tag of a fuzz run report.
REPORT_SCHEMA = "repro-fuzz-report/1"

#: Event-ring capacity for flight-recorder captures.
FLIGHT_RING = 4096

#: The evaluation's six models, figure order (timing leg sweep).
SIX_MODELS = ("naive", "sw-flush", "atomic", "store", "scope",
              "scope-relaxed")

#: Known-violating in-order controls (cycles expected, reported as
#: liveness statistics rather than failures).
CONTROL_MODELS = (ConsistencyModel.NAIVE, ConsistencyModel.SW_FLUSH)

#: Event budget per timing point (smoke-sized simulations).
MAX_EVENTS = 50_000_000


def timing_experiment(program: FuzzProgram, model: str,
                      rounds: int = 2) -> Experiment:
    """The timing-leg experiment spec for one program x model point."""
    return Experiment.from_dict({
        "workload": "litmus-fuzz",
        "params": {"spec": program.to_dict(), "rounds": rounds},
        "config": {"preset": "scaled", "model": model,
                   "num_scopes": max(2, len(program.slots))},
        "variant": "fuzz",
        "max_events": MAX_EVENTS,
    })


def flight_dump(program: FuzzProgram, model: str, rounds: int = 2,
                ring: int = FLIGHT_RING,
                seed: Optional[int] = None,
                invariant: str = "timing-stale") -> Dict[str, object]:
    """Re-run one program x model point with the flight recorder armed.

    The trace rides as an execution overlay
    (:class:`~repro.sim.config.TraceConfig`), so the experiment spec --
    and any cached result keyed on it -- is exactly the untraced one.
    The returned dump is self-describing and deterministic: replaying
    it (calling this again on the embedded program) reproduces the
    byte-identical snapshot, which ``tests/fuzz`` asserts.
    """
    from repro.api.backends import execute_experiment
    from repro.sim.config import TraceConfig

    trace = TraceConfig(enabled=True, ring_size=ring, flight=True)
    result = execute_experiment(
        timing_experiment(program, model, rounds), trace=trace)
    obs = result.obs or {}
    return {
        "schema": FLIGHT_SCHEMA,
        "digest": program.digest(),
        "invariant": invariant,
        "model": model,
        "seed": seed,
        "rounds": rounds,
        "ring": ring,
        "program": program.to_dict(),
        "stale_reads": result.stale_reads,
        "flight_triggers": obs.get("flight_triggers", 0),
        "flight": obs.get("flight"),
    }


def _shrink_predicate(invariant: str, model: str, weaken: Optional[str],
                      rounds: int, runner: Runner
                      ) -> Callable[[FuzzProgram], bool]:
    """A re-check of one violated invariant, for the shrinker."""
    if invariant == "lattice":
        return lambda q: bool(oracle.check_lattice(q))
    if invariant == "timing-stale":
        def timing_fails(q: FuzzProgram) -> bool:
            result = runner.run_all(
                [timing_experiment(q, model, rounds)])[0]
            return result.stale_reads > 0
        return timing_fails
    cm = ConsistencyModel(model)
    return lambda q: bool(oracle.check_coherence(q, cm, weaken))


def _recheck(shrunk: FuzzProgram, violation: oracle.Violation,
             weaken: Optional[str]) -> oracle.Violation:
    """The same violation kind re-derived on the shrunk program.

    The shrinker only guarantees the *predicate* still fails; the
    recorded outcome and cycle must describe the shrunk program, not the
    original, or the artifact isn't self-describing.  Timing-stale has
    no abstract witness to re-derive, so it passes through.
    """
    if violation.invariant == "lattice":
        fresh = oracle.check_lattice(shrunk)
    elif violation.invariant in ("value-conservation", "hb-cycle"):
        fresh = oracle.check_coherence(
            shrunk, ConsistencyModel(violation.model), weaken)
    else:
        return violation
    for candidate in fresh:
        if candidate.invariant == violation.invariant:
            return candidate
    return fresh[0] if fresh else violation


def _repro(program: FuzzProgram, shrunk: FuzzProgram, checks: int,
           violation: oracle.Violation, seed: int,
           weaken: Optional[str]) -> Dict[str, object]:
    """The self-describing minimal-repro artifact for one violation."""
    violation = _recheck(shrunk, violation, weaken)
    return {
        "schema": REPRO_SCHEMA,
        "digest": shrunk.digest(),
        "original_digest": program.digest(),
        "seed": seed,
        "weaken": weaken,
        "invariant": violation.invariant,
        "model": violation.model,
        "violation": violation.to_dict(),
        "program": shrunk.to_dict(),
        "op_count": shrunk.op_count,
        "shrink_checks": checks,
    }


def fuzz_run(seed: int, programs: int = 200,
             knobs: Optional[GeneratorKnobs] = None,
             max_ops: Optional[int] = None,
             jobs: int = 1,
             store=None,
             corpus_root: Optional[str] = None,
             timing: bool = True,
             rounds: int = 2,
             weaken: Optional[str] = None,
             flight: bool = False) -> Dict[str, object]:
    """One differential fuzz campaign; returns the deterministic report.

    Args:
        seed: root generator seed.
        programs: batch size (distinct scenarios, best effort).
        knobs: generator bounds (default :class:`GeneratorKnobs`).
        max_ops: tighter per-program op budget, if given.
        jobs: worker processes for the timing leg (>1: ProcessPool).
        store: optional :class:`~repro.api.store.ResultStore`; timing
            points hydrate from / persist into it.
        corpus_root: directory whose ``fuzz/`` subtree receives corpus
            entries and minimal repros (typically the store root).
        timing: run the simulator/checker-agreement leg.
        rounds: timing-workload repetitions per scenario.
        weaken: deliberate mechanism break (``"no-atomic-flush"``) --
            the oracle self-test; violations are expected and shrunk.
        flight: flight-recorder mode (``fuzz run --trace``): every
            shrunk ``timing-stale`` violation is re-run with the event
            ring armed and the snapshot leading up to the firing
            invariant lands under ``<corpus_root>/fuzz/flight/``.  The
            report itself is unchanged unless a dump was written.

    The report's ``violations`` list is empty exactly when every
    invariant held; the CLI turns non-empty into a nonzero exit.
    """
    if weaken is not None and weaken not in oracle.WEAKEN_CHOICES:
        raise ValueError(
            f"unknown weaken mode {weaken!r}; "
            f"choices: {', '.join(oracle.WEAKEN_CHOICES)}")
    knobs = (knobs or GeneratorKnobs()).bounded(max_ops)
    batch = generate_batch(seed, programs, knobs)
    fuzz_store = FuzzCorpus(corpus_root) if corpus_root else None
    shrink_runner = Runner(backend=backend_for(1), store=store)

    repro_docs: List[Dict[str, object]] = []
    flight_dumps: List[str] = []
    controls = {model.value: 0 for model in CONTROL_MODELS}
    clean: List[FuzzProgram] = []
    # One outcome-set memo per program: the checks, the controls and
    # the corpus fingerprints share its searches.
    memos: Dict[str, oracle.OutcomeSets] = {}

    def record(program: FuzzProgram,
               violations: List[oracle.Violation],
               rounds_for_shrink: int) -> None:
        seen: set = set()
        for violation in violations:
            key = (violation.invariant, violation.model)
            if key in seen:
                continue  # one repro per (invariant, model) per program
            seen.add(key)
            predicate = _shrink_predicate(
                violation.invariant, violation.model, weaken,
                rounds_for_shrink, shrink_runner)
            shrunk, checks = shrink(program, predicate)
            repro_docs.append(_repro(
                program, shrunk, checks, violation, seed, weaken))
            if (flight and fuzz_store is not None
                    and violation.invariant == "timing-stale"):
                # The invariant fired on the timing simulator: capture
                # the moments leading up to it on the *shrunk* program,
                # next to its minimal repro.
                dump = flight_dump(shrunk, violation.model,
                                   rounds_for_shrink, seed=seed)
                fuzz_store.write_flight(dump)
                flight_dumps.append(
                    f"{dump['digest']}-{dump['model']}")

    for program in batch:
        memo = memos[program.digest()] = oracle.OutcomeSets(program)
        violations = oracle.check_program(program, weaken, memo)
        for model in CONTROL_MODELS:
            if oracle.check_coherence(program, model, memo=memo):
                controls[model.value] += 1
        if violations:
            record(program, violations, rounds)
        else:
            clean.append(program)

    # Timing leg: every clean program x the six models, one batch.
    timing_totals: Optional[Dict[str, int]] = None
    per_program_timing: Dict[str, Dict[str, int]] = {}
    if timing and clean:
        experiments = [
            timing_experiment(program, model, rounds)
            for program in clean for model in SIX_MODELS
        ]
        runner = Runner(backend=backend_for(jobs), store=store)
        results = runner.run_all(experiments)
        timing_totals = {model: 0 for model in SIX_MODELS}
        still_clean: List[FuzzProgram] = []
        cursor = 0
        for program in clean:
            stale_by_model: Dict[str, int] = {}
            timing_violations: List[oracle.Violation] = []
            for model in SIX_MODELS:
                stale = results[cursor].stale_reads
                cursor += 1
                stale_by_model[model] = stale
                timing_totals[model] += stale
                if stale and ConsistencyModel(model) not in CONTROL_MODELS:
                    timing_violations.append(oracle.Violation(
                        invariant="timing-stale",
                        model=model,
                        detail=f"{stale} stale PIM-result reads on the "
                               f"timing simulator under a correctness-"
                               f"guaranteeing model",
                    ))
            if timing_violations:
                record(program, timing_violations, rounds)
            else:
                per_program_timing[program.digest()] = stale_by_model
                still_clean.append(program)
        clean = still_clean

    corpus_added = 0
    if fuzz_store is not None:
        # A weakened run's survivors passed a deliberately broken
        # mechanism check; only unweakened survivors may enter the
        # regression corpus.  Repros always persist.
        for program in clean if weaken is None else ():
            fuzz_store.add(corpus_entry(
                program,
                timing=per_program_timing.get(program.digest()),
                seed=seed, memo=memos[program.digest()]))
            corpus_added += 1
        for doc in repro_docs:
            fuzz_store.write_repro(doc)

    repro_docs.sort(key=lambda d: (d["original_digest"], d["invariant"],
                                   d["model"]))
    report: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "weaken": weaken,
        "knobs": asdict(knobs),
        "programs": len(batch),
        "distinct_programs": len({p.digest() for p in batch}),
        "program_digests": sorted(p.digest() for p in batch),
        "ops_total": sum(p.op_count for p in batch),
        "controls_cyclic": controls,
        "timing": ({"rounds": rounds, "models": list(SIX_MODELS),
                    "stale_reads": timing_totals}
                   if timing else None),
        "clean_programs": len(clean),
        "corpus_added": corpus_added,
        "violations": repro_docs,
    }
    if flight_dumps:
        report["flight_dumps"] = sorted(flight_dumps)
    report["digest"] = _report_digest(report)
    return report


def _report_digest(report: Dict[str, object]) -> str:
    import hashlib

    payload = {k: v for k, v in report.items() if k != "digest"}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def replay_corpus(corpus_root: str, jobs: int = 1, store=None,
                  timing: bool = True) -> Dict[str, object]:
    """Re-check every corpus entry; returns the replay report.

    Abstract outcome fingerprints are recomputed and diffed; entries
    recorded with timing counts are re-simulated (their ``rounds`` is
    pinned by the recorded counts' provenance: the default harness
    rounds) and diffed too.  Any mismatch means the semantics of an
    executor, a rendering or the timing stack moved -- which is either a
    regression or an intentional change that should re-admit the corpus
    with ``fuzz run``.
    """
    fuzz_store = FuzzCorpus(corpus_root)
    entries = list(fuzz_store.entries())
    mismatches: Dict[str, List[str]] = {}
    replayable: List[Tuple[Dict[str, object], FuzzProgram]] = []
    for entry in entries:
        digest = str(entry.get("digest", "?"))
        problems = replay_entry(entry)
        if problems:
            mismatches[digest] = problems
            continue
        if timing and entry.get("timing_stale_reads") is not None:
            replayable.append((entry, FuzzProgram.from_dict(entry["program"])))
    if replayable:
        runner = Runner(backend=backend_for(jobs), store=store)
        experiments = [
            timing_experiment(program, model)
            for _entry, program in replayable for model in SIX_MODELS
        ]
        results = runner.run_all(experiments)
        cursor = 0
        for entry, _program in replayable:
            recorded = entry["timing_stale_reads"]
            for model in SIX_MODELS:
                stale = results[cursor].stale_reads
                cursor += 1
                if recorded.get(model) != stale:
                    mismatches.setdefault(
                        str(entry["digest"]), []).append(
                        f"timing:{model}: recorded "
                        f"{recorded.get(model)} stale reads, now {stale}")
    return {
        "schema": "repro-fuzz-replay/1",
        "entries": len(entries),
        "mismatches": {k: mismatches[k] for k in sorted(mismatches)},
    }
