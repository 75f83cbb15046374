"""Store-backed fuzz corpus and minimal-repro artifacts.

Both live under ``<store-root>/fuzz/`` -- next to (not inside) the
result store's two-hex-digit entry shards, which
:meth:`~repro.api.store.ResultStore.paths` deliberately ignores, the
same arrangement the work queue uses for ``queue/``:

* ``fuzz/corpus/<digest>.json`` -- one entry per surviving program: the
  full program description plus the outcome-set fingerprints of every
  executor leg (:func:`repro.fuzz.oracle.fingerprints`, digests of the
  outcome sets the program's checks searched) and, when the timing leg
  ran, the per-model stale-read counts.  ``repro-bench fuzz replay``
  recomputes both from scratch and diffs: the corpus is a regression
  suite that ratchets the semantics of the model checkers *and* the
  timing stack.
* ``fuzz/repros/<digest>.json`` -- self-describing minimal repros the
  shrinker produced from invariant violations: the shrunk program, the
  violation (outcome, happens-before cycle), shrink provenance and the
  root seed.  CI uploads these on failure.
* ``fuzz/flight/<digest>-<model>.json`` -- flight-recorder dumps
  (``fuzz run --trace``): the shrunk violating program re-run with the
  event ring armed, snapshotting the last trace records leading up to
  the moment the invariant fired.  Deterministic, so a dump replays to
  the byte-identical snapshot.

Writes go through :func:`repro.api.store.atomic_write_json`, so corpus
growth is safe under concurrent fuzz runs sharing a store.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional

from repro.api.store import atomic_write_json, read_json
from repro.fuzz import oracle
from repro.fuzz.program import FuzzProgram

__all__ = ["CORPUS_SCHEMA", "FLIGHT_SCHEMA", "REPRO_SCHEMA", "FuzzCorpus",
           "corpus_entry", "replay_entry"]

#: Schema tags of the artifact kinds.
CORPUS_SCHEMA = "repro-fuzz-corpus/1"
REPRO_SCHEMA = "repro-fuzz-repro/1"
FLIGHT_SCHEMA = "repro-fuzz-flight/1"

#: Directory under a store root holding fuzz state.
FUZZ_DIR = "fuzz"


def corpus_entry(program: FuzzProgram,
                 timing: Optional[Dict[str, int]] = None,
                 seed: Optional[int] = None,
                 memo: Optional[oracle.OutcomeSets] = None
                 ) -> Dict[str, object]:
    """The corpus document for one surviving program; ``memo`` holds
    the outcome sets its checks searched."""
    return {
        "schema": CORPUS_SCHEMA,
        "digest": program.digest(),
        "seed": program.seed if seed is None else seed,
        "program": program.to_dict(),
        "fingerprints": oracle.fingerprints(program, memo),
        "timing_stale_reads": timing,
    }


def replay_entry(entry: Dict[str, object]) -> List[str]:
    """Search one corpus entry's outcome sets afresh and diff their
    fingerprints against the recorded ones.

    Returns human-readable mismatch lines (empty means the entry still
    reproduces).  Timing counts are replayed by the harness, which owns
    a Runner; this function needs only the abstract machines.
    """
    if entry.get("schema") != CORPUS_SCHEMA:
        return [f"not a corpus entry (schema {entry.get('schema')!r})"]
    try:
        program = FuzzProgram.from_dict(entry["program"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unparseable program: {exc}"]
    mismatches: List[str] = []
    if program.digest() != entry.get("digest"):
        mismatches.append(
            f"digest drift: entry says {entry.get('digest')}, "
            f"program hashes to {program.digest()}")
    recorded = entry.get("fingerprints") or {}
    current = oracle.fingerprints(program)
    for leg in sorted(set(recorded) | set(current)):
        was, now = recorded.get(leg), current.get(leg)
        if was != now:
            mismatches.append(
                f"{leg}: recorded outcome digest {was}, now {now}")
    return mismatches


class FuzzCorpus:
    """The on-disk corpus + repro trees under one store root."""

    def __init__(self, store_root: str) -> None:
        self.root = os.path.join(os.fspath(store_root), FUZZ_DIR)
        self.corpus_dir = os.path.join(self.root, "corpus")
        self.repro_dir = os.path.join(self.root, "repros")
        self.flight_dir = os.path.join(self.root, "flight")

    # -- corpus ---------------------------------------------------------- #

    def add(self, entry: Dict[str, object]) -> str:
        """Persist one corpus entry; returns its path (idempotent)."""
        path = os.path.join(self.corpus_dir, f"{entry['digest']}.json")
        atomic_write_json(path, entry)
        return path

    def entries(self) -> Iterator[Dict[str, object]]:
        """Every readable corpus entry, in digest order."""
        if not os.path.isdir(self.corpus_dir):
            return
        for filename in sorted(os.listdir(self.corpus_dir)):
            if not filename.endswith(".json"):
                continue
            entry = read_json(os.path.join(self.corpus_dir, filename))
            if entry is not None:
                yield entry

    def __len__(self) -> int:
        if not os.path.isdir(self.corpus_dir):
            return 0
        return sum(1 for f in os.listdir(self.corpus_dir)
                   if f.endswith(".json"))

    # -- repros ---------------------------------------------------------- #

    def write_repro(self, repro: Dict[str, object]) -> str:
        """Persist one minimal-repro artifact; returns its path."""
        name = f"{repro['digest']}-{repro['invariant']}.json"
        path = os.path.join(self.repro_dir, name)
        atomic_write_json(path, repro)
        return path

    def repros(self) -> Iterator[Dict[str, object]]:
        if not os.path.isdir(self.repro_dir):
            return
        for filename in sorted(os.listdir(self.repro_dir)):
            if not filename.endswith(".json"):
                continue
            repro = read_json(os.path.join(self.repro_dir, filename))
            if repro is not None:
                yield repro

    # -- flight dumps ----------------------------------------------------- #

    def write_flight(self, dump: Dict[str, object]) -> str:
        """Persist one flight-recorder dump; returns its path."""
        name = f"{dump['digest']}-{dump['model']}.json"
        path = os.path.join(self.flight_dir, name)
        atomic_write_json(path, dump)
        return path

    def flights(self) -> Iterator[Dict[str, object]]:
        if not os.path.isdir(self.flight_dir):
            return
        for filename in sorted(os.listdir(self.flight_dir)):
            if not filename.endswith(".json"):
                continue
            dump = read_json(os.path.join(self.flight_dir, filename))
            if dump is not None:
                yield dump
