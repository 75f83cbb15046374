"""Persistent result store: an on-disk, content-addressed cache of
:class:`~repro.system.simulation.SimulationResult` snapshots.

The Runner's in-memory spec-hash cache dies with the process; this store
is the tier behind it, shared by every session, CI job and worker
process that points at the same directory.  A warm store turns the
paper-grid campaign from minutes of simulation into milliseconds of
lookup (``repro-bench sweep run paper-grid --store DIR`` twice: the
second run makes zero backend dispatches).

Key schema
----------

One entry caches one experiment's result.  The entry key is::

    key = sha256("<spec_hash>:<fingerprint>")[:40]

where

* ``spec_hash`` is :meth:`repro.api.experiment.Experiment.spec_hash` --
  a digest of the *full* declarative spec (system config, workload name,
  workload params, variant, event budget), so two experiments collide
  only if they describe the same simulation;
* ``fingerprint`` is :func:`code_fingerprint` -- a digest of the result
  format version (:data:`~repro.system.simulation.RESULT_SCHEMA`) and of
  every Python source file of the simulation engine (``repro.core``,
  ``repro.host``, ``repro.memory``, ``repro.pim``, ``repro.sim``,
  ``repro.system``, ``repro.workloads``).  Any change to the kernels
  changes the fingerprint, so results computed by an older simulator are
  never served -- they simply stop being addressable and become garbage
  for ``prune``.

File layout
-----------

Entries shard on the first two hex digits of the key::

    <root>/<key[:2]>/<key>.json

Each file is a standalone JSON document (no pickle anywhere)::

    {
      "schema":        "repro-store-entry/1",
      "spec_hash":     "...",              # the experiment's spec hash
      "fingerprint":   "...",              # code/format fingerprint
      "experiment":    {...} | null,       # spec dict, for inspection/export
      "result":        {...},              # SimulationResult.to_dict()
      "result_sha256": "..."               # digest of "result", verified on read
    }

Concurrency
-----------

Writes are atomic: the entry is written to a unique temporary file in
the same shard directory and ``os.replace``d into place, so concurrent
writers (process-pool shards, parallel CI jobs) can share one store
without locks -- the worst case is two processes computing the same
deterministic result and one rename winning.  Reads are lock-free; a
torn, corrupt or foreign file reads as a miss (and is reported by
:meth:`ResultStore.verify`).

Set the ``REPRO_STORE`` environment variable to give every CLI
invocation a default store directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.system.simulation import (
    RESULT_SCHEMA,
    SimulationResult,
    result_digest,
)

__all__ = [
    "STORE_SCHEMA",
    "QUARANTINE_DIR",
    "ResultStore",
    "StoreEntry",
    "atomic_write_json",
    "code_fingerprint",
    "read_json",
]

logger = logging.getLogger("repro.store")

#: Schema tag of one store entry file.
STORE_SCHEMA = "repro-store-entry/1"

#: Environment variable naming the default store directory for the CLI.
STORE_ENV = "REPRO_STORE"

#: Directory (under the store root) corrupt entries self-heal into.
QUARANTINE_DIR = "quarantine"

#: Subpackages whose sources define what a simulation computes.  The API
#: layer (specs, sweeps, CLI) and analysis/report formatting are
#: deliberately excluded: they decide *which* experiments run and how
#: results print, never what a run computes.
_ENGINE_PACKAGES = ("core", "host", "memory", "obs", "pim", "sim",
                    "system", "workloads")

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the result format plus the simulation engine's sources.

    Computed once per process (the sources cannot change under a running
    interpreter in any way that matters to already-imported kernels).
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        hasher = hashlib.sha256(RESULT_SCHEMA.encode("utf-8"))
        for package in _ENGINE_PACKAGES:
            base = os.path.join(package_root, package)
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__")
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    rel = os.path.relpath(path, package_root)
                    with open(path, "rb") as handle:
                        file_digest = hashlib.sha256(handle.read())
                    hasher.update(rel.encode("utf-8"))
                    hasher.update(file_digest.digest())
        _fingerprint_cache = hasher.hexdigest()[:16]
    return _fingerprint_cache


# ---------------------------------------------------------------------- #
# lock-free filesystem primitives
#
# The store and the fuzz corpus (repro.fuzz.corpus) publish JSON
# documents by atomic rename and read them tolerantly, so any defect
# reads as absence.  A campaign killed mid-write leaves at worst a stray
# temporary file, never a torn entry at a published path.  No locks, no
# fsync ordering assumptions beyond same-directory rename atomicity.
# ---------------------------------------------------------------------- #


def read_json(path: str) -> Optional[dict]:
    """The JSON object at ``path``, or ``None`` on any defect.

    Missing, torn, unparseable and non-object files all read as absent;
    writers using :func:`atomic_write_json` guarantee a reader never
    sees a half-written document at a published path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def atomic_write_json(path: str, data: dict) -> str:
    """Publish a JSON document atomically (tmp file + ``os.replace``).

    Concurrent writers race benignly: the last rename wins whole, so a
    reader sees one complete document or the other, never a mixture.
    Returns ``path``.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


class StoreEntry(NamedTuple):
    """Metadata of one on-disk entry (``stats``/``prune``/``verify``)."""

    path: str
    key: str
    spec_hash: str
    fingerprint: str
    size_bytes: int
    mtime: float


class ResultStore:
    """A content-addressed, multiprocess-safe result cache on disk.

    Args:
        root: store directory; created on first write.
        fingerprint: code/format fingerprint of the entries this store
            serves and writes.  Defaults to :func:`code_fingerprint`;
            tests override it to simulate a kernel change.
    """

    def __init__(self, root: str, fingerprint: Optional[str] = None) -> None:
        self.root = os.fspath(root)
        self.fingerprint = (fingerprint if fingerprint is not None
                            else code_fingerprint())

    @classmethod
    def from_env(cls) -> Optional["ResultStore"]:
        """The store named by ``$REPRO_STORE``, or ``None``."""
        root = os.environ.get(STORE_ENV)
        return cls(root) if root else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore(root={self.root!r}, "
                f"fingerprint={self.fingerprint!r})")

    # -- addressing ------------------------------------------------------ #

    def key(self, spec_hash: str) -> str:
        """The content address of one spec under this fingerprint."""
        material = f"{spec_hash}:{self.fingerprint}".encode("utf-8")
        return hashlib.sha256(material).hexdigest()[:40]

    def path(self, spec_hash: str) -> str:
        key = self.key(spec_hash)
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- reads ----------------------------------------------------------- #

    def get(self, spec_hash: str) -> Optional[SimulationResult]:
        """The stored result for a spec, or ``None``.

        A missing, torn, corrupt, digest-mismatched or wrong-fingerprint
        entry all read as a plain miss: the caller re-simulates and the
        write-back repairs the store.
        """
        data = self._load(self.path(spec_hash))
        if data is None or data.get("spec_hash") != spec_hash:
            return None
        try:
            return SimulationResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def get_many(self, spec_hashes: Iterable[str]) -> Dict[str, SimulationResult]:
        """Spec hash -> result for every hit among ``spec_hashes``."""
        out: Dict[str, SimulationResult] = {}
        for spec_hash in spec_hashes:
            result = self.get(spec_hash)
            if result is not None:
                out[spec_hash] = result
        return out

    def __contains__(self, spec_hash: str) -> bool:
        return self.get(spec_hash) is not None

    def _load(self, path: str) -> Optional[dict]:
        """One verified entry payload, or ``None`` on any defect.

        A well-formed entry whose result payload fails its recorded
        sha256 is *corrupt* (bit rot, a crashed writer that somehow
        published, a hand edit): the read self-heals by
        moving the file to ``<root>/quarantine/`` so the next write-back
        repairs the address, and returns a miss.
        """
        data = read_json(path)
        if data is None or data.get("schema") != STORE_SCHEMA:
            return None
        payload = data.get("result")
        if not isinstance(payload, dict) \
                or data.get("result_sha256") != result_digest(payload):
            self._quarantine(path, data)
            return None
        if data.get("fingerprint") != self.fingerprint:
            return None
        return data

    def _quarantine(self, path: str, data: dict) -> None:
        """Move one corrupt entry out of the addressable tree."""
        target = os.path.join(self.root, QUARANTINE_DIR,
                              os.path.basename(path))
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(path, target)
        except OSError:
            return
        logger.warning(
            "store: quarantined corrupt entry %s (spec %s, fingerprint %s)",
            os.path.basename(path), data.get("spec_hash", "?"),
            data.get("fingerprint", "?"))

    # -- writes ---------------------------------------------------------- #

    def put(self, spec_hash: str, result: SimulationResult,
            experiment=None) -> str:
        """Persist one result; returns the entry path.

        Atomic (tmp file + ``os.replace``) and idempotent: simulations
        are deterministic, so concurrent writers racing on one key
        produce byte-equivalent entries and any rename order is correct.
        """
        payload = result.to_dict()
        entry = {
            "schema": STORE_SCHEMA,
            "spec_hash": spec_hash,
            "fingerprint": self.fingerprint,
            "experiment": (experiment.to_dict()
                           if experiment is not None else None),
            "result": payload,
            "result_sha256": result_digest(payload),
        }
        return atomic_write_json(self.path(spec_hash), entry)

    def put_many(self, results: Dict[str, SimulationResult],
                 experiments: Optional[Dict[str, object]] = None) -> int:
        for spec_hash, result in results.items():
            experiment = (experiments or {}).get(spec_hash)
            self.put(spec_hash, result, experiment)
        return len(results)

    # -- maintenance ----------------------------------------------------- #

    def paths(self) -> Iterator[str]:
        """Every entry file path on disk (cheap: no parsing).

        Only the two-hex-digit shard directories are entry shards; the
        ``quarantine/`` tree and any other directory under the same root
        (such as the fuzz corpus under ``fuzz/``) are not addressable
        entries.
        """
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for filename in sorted(os.listdir(shard_dir)):
                if filename.endswith(".json") \
                        and not filename.startswith(".tmp-"):
                    yield os.path.join(shard_dir, filename)

    def entries(self) -> Iterator[StoreEntry]:
        """Every entry file on disk, any fingerprint, defects included."""
        for path in self.paths():
            try:
                stat = os.stat(path)
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, ValueError):
                data, stat = {}, None
            if not isinstance(data, dict):
                data = {}
            yield StoreEntry(
                path=path,
                key=os.path.basename(path)[:-len(".json")],
                spec_hash=str(data.get("spec_hash", "")),
                fingerprint=str(data.get("fingerprint", "")),
                size_bytes=stat.st_size if stat else 0,
                mtime=stat.st_mtime if stat else 0.0,
            )

    def stats(self) -> Dict[str, object]:
        """Aggregate inventory (``repro-bench store stats``)."""
        total = current = size = 0
        by_fingerprint: Dict[str, int] = {}
        for entry in self.entries():
            total += 1
            size += entry.size_bytes
            by_fingerprint[entry.fingerprint] = \
                by_fingerprint.get(entry.fingerprint, 0) + 1
            if entry.fingerprint == self.fingerprint:
                current += 1
        quarantine = os.path.join(self.root, QUARANTINE_DIR)
        quarantined = (len([f for f in os.listdir(quarantine)
                            if f.endswith(".json")])
                       if os.path.isdir(quarantine) else 0)
        return {
            "root": self.root,
            "fingerprint": self.fingerprint,
            "entries": total,
            "current_entries": current,
            "stale_entries": total - current,
            "quarantined": quarantined,
            "size_bytes": size,
            "by_fingerprint": dict(sorted(by_fingerprint.items())),
        }

    def verify(self) -> List[Tuple[str, str]]:
        """``(path, problem)`` for every defective entry of any age.

        Checks JSON well-formedness, the schema tag, the result-payload
        digest, and that the file sits at the address its content hashes
        to under its *recorded* fingerprint (stale-but-intact entries of
        older kernels verify clean; they are ``prune``'s business).
        """
        problems: List[Tuple[str, str]] = []
        for path in self.paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, ValueError) as exc:
                problems.append((path, f"unreadable: {exc}"))
                continue
            if not isinstance(data, dict) \
                    or data.get("schema") != STORE_SCHEMA:
                problems.append((path, "not a store entry"))
                continue
            payload = data.get("result")
            if not isinstance(payload, dict) \
                    or data.get("result_sha256") != result_digest(payload):
                problems.append((path, "result digest mismatch"))
                continue
            recorded = ResultStore(self.root,
                                   fingerprint=str(data.get("fingerprint")))
            expected = recorded.key(str(data.get("spec_hash")))
            if os.path.basename(path) != f"{expected}.json":
                problems.append((path, "entry at wrong address"))
        return problems

    def quarantined(self) -> List[str]:
        """Filenames sitting in ``<root>/quarantine/``, sorted.

        Reads self-heal corrupt entries by moving them here (so the
        address repairs on the next write-back), which is deliberately
        quiet at read time; ``repro-bench store verify`` surfaces the
        backlog loudly and exits nonzero until an operator inspects and
        clears the directory.
        """
        quarantine = os.path.join(self.root, QUARANTINE_DIR)
        if not os.path.isdir(quarantine):
            return []
        return sorted(f for f in os.listdir(quarantine)
                      if f.endswith(".json"))

    def prune_candidates(self, max_age_days: Optional[float] = None,
                         stale: bool = False,
                         now: Optional[float] = None,
                         fingerprint: Optional[str] = None) -> List[StoreEntry]:
        """The entries :meth:`prune` would remove, without removing them.

        ``max_age_days`` selects entries whose file mtime is older;
        ``stale`` selects every entry whose fingerprint is not this
        store's (results no older kernel can ever serve again);
        ``fingerprint`` selects every entry recorded under that exact
        fingerprint (the targeted form ``sweep run --resume`` suggests
        when an artifact's engine no longer matches).  With no selector
        set, nothing is selected.
        """
        if max_age_days is None and not stale and fingerprint is None:
            return []
        now = time.time() if now is None else now
        candidates: List[StoreEntry] = []
        for entry in self.entries():
            if stale and entry.fingerprint != self.fingerprint:
                candidates.append(entry)
            elif fingerprint is not None \
                    and entry.fingerprint == fingerprint:
                candidates.append(entry)
            elif max_age_days is not None \
                    and now - entry.mtime > max_age_days * 86400.0:
                candidates.append(entry)
        return candidates

    def prune(self, max_age_days: Optional[float] = None,
              stale: bool = False, now: Optional[float] = None,
              fingerprint: Optional[str] = None) -> int:
        """Garbage-collect entries; returns how many files were removed.

        Selector semantics are :meth:`prune_candidates`'s.
        """
        removed = 0
        for entry in self.prune_candidates(max_age_days, stale, now,
                                           fingerprint):
            try:
                os.unlink(entry.path)
                removed += 1
            except OSError:
                pass
        return removed
