"""Declarative parameter sweeps and evaluation campaigns.

The paper's evaluation is not single runs but *grids*: every figure
sweeps the six consistency models across workloads, scope counts and
access skews.  This module turns those grids into data:

* an :class:`Axis` names one swept dimension and the experiment field it
  drives (``model``, ``scopes``, ``params.zipf_theta``, ...);
* a :class:`Sweep` combines a base experiment template with axes --
  grid products by default, :attr:`~Sweep.zip_groups` for axes that
  advance together (e.g. scope count and the record count derived from
  it) -- plus optional point filters, and expands into frozen
  :class:`~repro.api.experiment.Experiment` specs with stable per-point
  names;
* a :class:`Campaign` is a named set of sweeps with :class:`Pivot`
  declarations describing the series/tables its figures plot;
* :func:`run_campaign` executes a campaign through a
  :class:`~repro.api.runner.Runner` on any backend -- identical points
  dedupe via the spec-hash cache, batches shard across process-pool
  workers, and one failed point reports instead of aborting the run;
* a :class:`CampaignResult` aggregates the outcomes: headline tables,
  pivoted series, a machine-independent result digest, and a JSON round
  trip that later runs resume from (``--resume``).

Campaigns used by CI and the checked-in ``EXPERIMENTS.md`` are
registered in :data:`CAMPAIGNS`; ``repro-bench sweep`` is the CLI.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.experiment import Experiment
from repro.api.runner import Runner
from repro.api.backends import backend_for
from repro.system.simulation import SimulationResult

#: Schema tag of the campaign-result JSON artifact.
SCHEMA = "repro-campaign-result/1"

#: Axis shorthands: name -> dotted path into the experiment dict.  An
#: axis whose name is none of these and carries no explicit path drives
#: the workload parameter of the same name (``params.<name>``).
WELL_KNOWN_PATHS = {
    "workload": "workload",
    "variant": "variant",
    "max_events": "max_events",
    "model": "config.model",
    "scopes": "config.num_scopes",
    "cores": "config.cores.num_cores",
    "arrival": "config.traffic.arrival",
    "load": "config.traffic.offered_load",
    "queue_depth": "config.traffic.queue_depth",
}


def _token(value) -> str:
    """The stable display form of one axis value (point names, series)."""
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _spec_value(value):
    """The dict-form (JSON-safe) encoding of one axis value."""
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _set_path(data: Dict, path: str, value) -> None:
    """Set a dotted path inside a nested dict, creating empty levels."""
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def _check_keys(kind: str, data: Mapping[str, object],
                known: Tuple[str, ...]) -> None:
    """Reject unknown keys so a typo in a campaign file fails loudly
    instead of silently changing the expansion."""
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {kind} keys: {sorted(unknown)}; expected a subset "
            f"of {sorted(known)}")


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a name, its values, and the field it drives.

    ``path`` resolution: explicit beats :data:`WELL_KNOWN_PATHS` beats
    ``params.<name>``.  ``hidden`` axes (derived values zipped to a
    visible axis, like the record count derived from the scope count)
    stay out of point names.
    """

    name: str
    values: Tuple
    path: str = ""
    hidden: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis needs a name")
        object.__setattr__(self, "values", tuple(self.values))

    def resolved_path(self) -> str:
        if self.path:
            return self.path
        return WELL_KNOWN_PATHS.get(self.name, f"params.{self.name}")

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "values": list(self.values),
                "path": self.path, "hidden": self.hidden}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Axis":
        _check_keys("axis", data, ("name", "values", "path", "hidden"))
        return cls(name=data["name"], values=tuple(data["values"]),
                   path=data.get("path", ""),
                   hidden=bool(data.get("hidden", False)))


class SweepPoint(NamedTuple):
    """One expanded point: stable name, axis coordinates, frozen spec."""

    name: str
    sweep: str
    coords: Dict[str, object]
    experiment: Experiment


class Sweep:
    """A base experiment template crossed with named axes.

    Args:
        name: prefix of every point name (``ycsb/model=atomic,scopes=8``).
        base: experiment template in the
            :meth:`~repro.api.experiment.Experiment.from_dict` dict form;
            axes write into a deep copy of it.
        axes: the swept dimensions, grid-crossed in declaration order.
        zip_groups: tuples of axis names that advance together instead of
            crossing (all axes of a group need equally many values).
        filters: predicates over the ``{axis name: value}`` coordinate
            dict; a point every filter accepts survives expansion.
        transform: in-process hook ``(experiment, coords) -> experiment``
            applied after expansion, for overrides (such as the benchmark
            harness's config functions) that plain data cannot express.
            Sweeps carrying filters or a transform are not serializable.
    """

    def __init__(
        self,
        name: str,
        base: Mapping[str, object],
        axes: Sequence[Axis] = (),
        zip_groups: Sequence[Sequence[str]] = (),
        filters: Sequence[Callable[[Dict[str, object]], bool]] = (),
        transform: Optional[Callable[[Experiment, Dict[str, object]], Experiment]] = None,
    ) -> None:
        self.name = name
        self.base = dict(base)
        self.axes = tuple(axes)
        self.zip_groups = tuple(tuple(g) for g in zip_groups)
        self.filters = tuple(filters)
        self.transform = transform
        self._validate()

    def _validate(self) -> None:
        by_name: Dict[str, Axis] = {}
        for axis in self.axes:
            if axis.name in by_name:
                raise ValueError(f"duplicate axis {axis.name!r}")
            by_name[axis.name] = axis
        seen: Dict[str, Tuple[str, ...]] = {}
        for group in self.zip_groups:
            if len(group) < 2:
                raise ValueError("a zip group needs at least two axes")
            lengths = set()
            for axis_name in group:
                if axis_name not in by_name:
                    raise ValueError(
                        f"zip group names unknown axis {axis_name!r}")
                if axis_name in seen:
                    raise ValueError(
                        f"axis {axis_name!r} is in more than one zip group")
                seen[axis_name] = group
                lengths.add(len(by_name[axis_name].values))
            if len(lengths) > 1:
                raise ValueError(
                    f"zipped axes {group} have mismatched lengths "
                    f"{sorted(lengths)}")
            if all(by_name[n].hidden for n in group):
                raise ValueError(
                    f"zip group {group} is entirely hidden; point names "
                    f"would collide")
        self._group_of = seen
        # A hidden axis outside a zip group expands distinct experiments
        # under identical point names; only derived-value axes riding a
        # visible zip partner may hide.
        for axis in self.axes:
            if axis.hidden and len(axis.values) > 1 \
                    and axis.name not in seen:
                raise ValueError(
                    f"hidden axis {axis.name!r} must be zipped to a "
                    f"visible axis; point names would collide")

    # ------------------------------------------------------------------ #

    def points(self) -> List[SweepPoint]:
        """Expand into named points, grid x zip, filters applied."""
        by_name = {a.name: a for a in self.axes}
        dims: List[List[Tuple[Tuple[Axis, object], ...]]] = []
        emitted_groups = set()
        for axis in self.axes:
            group = self._group_of.get(axis.name)
            if group is None:
                dims.append([((axis, v),) for v in axis.values])
            elif group not in emitted_groups:
                emitted_groups.add(group)
                grouped = [by_name[n] for n in group]
                dims.append([
                    tuple((a, a.values[i]) for a in grouped)
                    for i in range(len(grouped[0].values))
                ])
        out: List[SweepPoint] = []
        for combo in itertools.product(*dims):
            assignments = [pair for cell in combo for pair in cell]
            coords = {axis.name: value for axis, value in assignments}
            if not all(accept(coords) for accept in self.filters):
                continue
            data = copy.deepcopy(self.base)
            for axis, value in assignments:
                _set_path(data, axis.resolved_path(), _spec_value(value))
            experiment = Experiment.from_dict(data)
            if self.transform is not None:
                experiment = self.transform(experiment, dict(coords))
            label = ",".join(
                f"{axis.name}={_token(value)}"
                for axis, value in assignments if not axis.hidden
            )
            out.append(SweepPoint(
                name=f"{self.name}/{label}" if label else self.name,
                sweep=self.name,
                coords=coords,
                experiment=experiment,
            ))
        return out

    def experiments(self) -> List[Experiment]:
        """The expanded specs alone, in point order."""
        return [p.experiment for p in self.points()]

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        if self.filters or self.transform is not None:
            raise ValueError(
                f"sweep {self.name!r} carries filters/transform and is "
                f"not serializable")
        return {
            "name": self.name,
            "base": copy.deepcopy(self.base),
            "axes": [a.to_dict() for a in self.axes],
            "zip": [list(g) for g in self.zip_groups],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Sweep":
        _check_keys("sweep", data, ("name", "base", "axes", "zip"))
        return cls(
            name=data["name"],
            base=data.get("base", {}),
            axes=tuple(Axis.from_dict(a) for a in data.get("axes", ())),
            zip_groups=tuple(tuple(g) for g in data.get("zip", ())),
        )


@dataclass(frozen=True)
class Pivot:
    """One figure's shape: a value pivoted over an x axis, split into
    one series per value of another axis.

    ``normalize_to`` names the split value used as the per-x baseline
    (the paper's "normalized to Naive" y-axes).  ``sweep`` restricts the
    pivot to one sweep's points when several sweeps share axis names.
    """

    title: str
    x: str
    split_by: str
    value: str = "run_time"
    normalize_to: Optional[str] = None
    sweep: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"title": self.title, "x": self.x, "split_by": self.split_by,
                "value": self.value, "normalize_to": self.normalize_to,
                "sweep": self.sweep}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Pivot":
        _check_keys("pivot", data, ("title", "x", "split_by", "value",
                                    "normalize_to", "sweep"))
        return cls(title=data["title"], x=data["x"],
                   split_by=data["split_by"],
                   value=data.get("value", "run_time"),
                   normalize_to=data.get("normalize_to"),
                   sweep=data.get("sweep", ""))


@dataclass(frozen=True)
class Slo:
    """A headline "max x meeting a target" declaration.

    The open-loop campaigns' flagship table: for each ``split_by`` value
    (a consistency model), the largest ``x`` (offered load) whose
    ``metric`` (a pivot-style value spec like ``traffic.latency_p99``)
    stays at or under ``threshold``.  ``sweep`` restricts the scan to
    one sweep's points, like a pivot.
    """

    title: str
    metric: str = "traffic.latency_p99"
    threshold: float = 0.0
    x: str = "load"
    split_by: str = "model"
    sweep: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"title": self.title, "metric": self.metric,
                "threshold": self.threshold, "x": self.x,
                "split_by": self.split_by, "sweep": self.sweep}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Slo":
        _check_keys("slo", data, ("title", "metric", "threshold", "x",
                                  "split_by", "sweep"))
        return cls(title=data["title"], metric=data.get(
                       "metric", "traffic.latency_p99"),
                   threshold=data.get("threshold", 0.0),
                   x=data.get("x", "load"),
                   split_by=data.get("split_by", "model"),
                   sweep=data.get("sweep", ""))


class Campaign:
    """A named set of sweeps plus the pivots its report renders."""

    def __init__(self, name: str, sweeps: Sequence[Sweep],
                 title: str = "", description: str = "",
                 pivots: Sequence[Pivot] = (),
                 slo: Optional[Slo] = None) -> None:
        self.name = name
        self.sweeps = tuple(sweeps)
        self.title = title or name
        self.description = description
        self.pivots = tuple(pivots)
        self.slo = slo

    def points(self) -> List[SweepPoint]:
        """Every sweep's points, in declaration order; names are unique."""
        out: List[SweepPoint] = []
        names = set()
        for sweep in self.sweeps:
            for point in sweep.points():
                if point.name in names:
                    raise ValueError(
                        f"campaign {self.name!r} has duplicate point name "
                        f"{point.name!r}")
                names.add(point.name)
                out.append(point)
        return out

    def experiments(self) -> List[Experiment]:
        return [p.experiment for p in self.points()]

    def to_dict(self) -> Dict[str, object]:
        out = {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "sweeps": [s.to_dict() for s in self.sweeps],
            "pivots": [p.to_dict() for p in self.pivots],
        }
        if self.slo is not None:
            out["slo"] = self.slo.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Campaign":
        _check_keys("campaign", data, ("name", "title", "description",
                                       "sweeps", "pivots", "slo"))
        slo = data.get("slo")
        return cls(
            name=data["name"],
            sweeps=tuple(Sweep.from_dict(s) for s in data.get("sweeps", ())),
            title=data.get("title", ""),
            description=data.get("description", ""),
            pivots=tuple(Pivot.from_dict(p) for p in data.get("pivots", ())),
            slo=None if slo is None else Slo.from_dict(slo),
        )


# ---------------------------------------------------------------------- #
# execution and aggregation
# ---------------------------------------------------------------------- #


@dataclass
class PointResult:
    """One campaign point's outcome: a result or an error, never both."""

    name: str
    sweep: str
    coords: Dict[str, object]
    experiment: Experiment
    result: Optional[SimulationResult] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def _result_value(result: SimulationResult, key: str):
    """Resolve a pivot value spec against one result.

    ``run_time`` / ``stale_reads`` / ``events`` read the result itself;
    a dotted ``group.stat`` key (``llc.hit_rate``, ``pim.ops_executed``)
    reads the typed stat views.
    """
    if "." in key:
        group, stat = key.split(".", 1)
        return getattr(result.group(group), stat)
    return getattr(result, key)


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """A JSON round-trippable snapshot of one simulation result.

    Thin alias of :meth:`SimulationResult.to_dict` -- the versioned
    serialization the persistent store shares.
    """
    return result.to_dict()


def result_from_dict(data: Mapping[str, object]) -> SimulationResult:
    return SimulationResult.from_dict(data)


class CampaignResult:
    """Aggregated campaign outcomes: tables, pivoted series, digest."""

    def __init__(self, campaign: Campaign,
                 points: Sequence[PointResult]) -> None:
        self.campaign = campaign
        self.points = list(points)

    @property
    def ok_points(self) -> List[PointResult]:
        return [p for p in self.points if p.ok]

    @property
    def failed_points(self) -> List[PointResult]:
        return [p for p in self.points if not p.ok]

    def results(self) -> List[SimulationResult]:
        """Every point's result, in point order; raises on any failure.

        The strict accessor for callers (examples, scripts) that want
        the old fail-fast behaviour back instead of inspecting
        per-point errors.
        """
        failed = self.failed_points
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{len(failed)} of {len(self.points)} campaign points "
                f"failed; first: {first.name}\n{first.error}")
        return [p.result for p in self.points]

    # -- identity -------------------------------------------------------- #

    def digest(self) -> str:
        """A machine-independent digest of every point's full outcome.

        Equal digests between two runs (Serial vs ProcessPool, today vs
        a cached resume) prove they computed identical statistics on
        identical specs -- CI's backend-equivalence gate compares these.
        """
        payload = [
            {
                "name": p.name,
                "spec": p.experiment.spec_hash(),
                "result": None if p.result is None else {
                    "run_time": p.result.run_time,
                    "stale_reads": p.result.stale_reads,
                    "events": p.result.events,
                    "stats": p.result.stats,
                },
                "failed": p.error is not None,
            }
            for p in self.points
        ]
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- figure-grade aggregation ---------------------------------------- #

    def series(self, pivot: Pivot):
        """Pivot into ``(xs, {series name: [values]})`` for one figure.

        Points missing from the grid (failed or filtered) yield ``None``
        holes; with ``normalize_to`` set, every series divides by the
        baseline series point-for-point.
        """
        points = [
            p for p in self.ok_points
            if (not pivot.sweep or p.sweep == pivot.sweep)
            and pivot.x in p.coords and pivot.split_by in p.coords
        ]
        xs: List[object] = []
        for p in points:
            if p.coords[pivot.x] not in xs:
                xs.append(p.coords[pivot.x])
        cells: Dict[Tuple[str, object], object] = {}
        order: List[str] = []
        for p in points:
            split = _token(p.coords[pivot.split_by])
            if split not in order:
                order.append(split)
            cells[(split, p.coords[pivot.x])] = _result_value(
                p.result, pivot.value)
        series = {
            split: [cells.get((split, x)) for x in xs]
            for split in order
        }
        if pivot.normalize_to is not None:
            base = series.get(pivot.normalize_to)
            if base is None:
                raise ValueError(
                    f"pivot {pivot.title!r} normalizes to missing series "
                    f"{pivot.normalize_to!r}")
            series = {
                split: [
                    v / b if v is not None and b else None
                    for v, b in zip(values, base)
                ]
                for split, values in series.items()
            }
        return [_token(x) for x in xs], series

    def slo_table(self, slo: Slo):
        """``(headers, rows)`` of the "max x meeting the SLO" headline.

        One row per ``split_by`` value, scanning that series' points in
        ascending ``x`` order: the largest x whose metric stays at or
        under the threshold, with the metric's value there -- plus the
        metric at the series' highest x, showing how far past the knee
        the sweep pushed.  A series that never meets the SLO reports
        ``-``.
        """
        points = [
            p for p in self.ok_points
            if (not slo.sweep or p.sweep == slo.sweep)
            and slo.x in p.coords and slo.split_by in p.coords
        ]
        order: List[str] = []
        by_split: Dict[str, List] = {}
        for p in points:
            split = _token(p.coords[slo.split_by])
            if split not in order:
                order.append(split)
                by_split[split] = []
            by_split[split].append(
                (p.coords[slo.x], _result_value(p.result, slo.metric)))
        headers = [slo.split_by, f"max {slo.x}",
                   f"{slo.metric} there", f"{slo.metric} at peak {slo.x}"]
        rows = []
        for split in order:
            series = sorted(by_split[split], key=lambda xv: xv[0])
            best = None
            for x, value in series:
                if value <= slo.threshold:
                    best = (x, value)
            peak_x, peak_value = series[-1]
            rows.append([
                split,
                "-" if best is None else _token(best[0]),
                "-" if best is None else best[1],
                peak_value,
            ])
        return headers, rows

    def table(self):
        """``(headers, rows)`` of the headline stats, one row per point."""
        from repro.api.results import headline

        headers = ["point", "run_time", "stale_reads", "sb_hit_rate",
                   "scan_latency", "pim_ops", "events"]
        rows = []
        for p in self.points:
            if p.result is None:
                rows.append([p.name, "FAILED", "-", "-", "-", "-", "-"])
                continue
            h = headline(p.result)
            rows.append([
                p.name, h["run_time"], h["stale_reads"],
                f"{h['scope_buffer_hit_rate']:.3f}",
                f"{h['llc_scan_latency']:.1f}",
                h["pim_ops_executed"], h["events"],
            ])
        return headers, rows

    # -- JSON artifact / resume ------------------------------------------ #

    def to_json_dict(self) -> Dict[str, object]:
        from repro.api.store import code_fingerprint

        return {
            "schema": SCHEMA,
            "campaign": self.campaign.name,
            "digest": self.digest(),
            "fingerprint": code_fingerprint(),
            "points": [
                {
                    "name": p.name,
                    "sweep": p.sweep,
                    "spec_hash": p.experiment.spec_hash(),
                    "coords": {k: _spec_value(v)
                               for k, v in p.coords.items()},
                    "experiment": p.experiment.to_dict(),
                    "result": None if p.result is None
                    else result_to_dict(p.result),
                    "error": p.error,
                }
                for p in self.points
            ],
        }


def load_results(data: Mapping[str, object]) -> Dict[str, SimulationResult]:
    """Spec-hash -> result mapping from a campaign JSON artifact.

    Failed points carry no result and are skipped, so resuming retries
    exactly them.  An artifact recorded under a different engine
    fingerprint is refused outright: preloading it would silently serve
    an older simulator's numbers as if the current one computed them.
    (Artifacts predating the fingerprint field load unchecked.)
    """
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"not a campaign result artifact (schema {data.get('schema')!r},"
            f" expected {SCHEMA!r})")
    recorded = data.get("fingerprint")
    if recorded is not None:
        from repro.api.store import code_fingerprint

        current = code_fingerprint()
        if recorded != current:
            raise ValueError(
                f"artifact was computed by engine fingerprint {recorded} "
                f"but the current engine is {current}: the simulator "
                f"changed since this artifact was written, so its results "
                f"cannot seed a resume.  Re-run the campaign (a --store "
                f"hydrates everything still valid), and garbage-collect "
                f"the old results with `repro-bench store prune "
                f"--fingerprint {recorded}`")
    out: Dict[str, SimulationResult] = {}
    for point in data.get("points", ()):
        if point.get("result") is not None:
            out[point["spec_hash"]] = result_from_dict(point["result"])
    return out


def run_campaign(
    campaign: Campaign,
    runner: Optional[Runner] = None,
    jobs: Optional[int] = None,
    resume: Optional[Mapping[str, SimulationResult]] = None,
    store=None,
    trace=None,
    progress=None,
) -> CampaignResult:
    """Execute a campaign and aggregate its outcomes.

    Identical points dedupe through the Runner's spec-hash cache; the
    batch shards across the backend's workers (``jobs`` > 1 selects the
    process pool); ``resume`` pre-seeds the cache from an earlier run's
    artifact so only the misses dispatch; one failed point reports in
    its :class:`PointResult` while the rest of the campaign completes.

    ``store`` (a :class:`~repro.api.store.ResultStore` or directory
    path) makes the run resumable across sessions: previously computed
    points hydrate from disk before any dispatch, fresh points persist
    as they finish.  It generalizes the ``resume`` artifact path -- no
    artifact file to thread through, any campaign sharing specs shares
    the cache.  Pass it here or build the Runner yourself, not both.

    ``trace`` (a :class:`~repro.sim.config.TraceConfig`) overlays
    observability on execution: results gain an ``obs`` payload (stall
    attribution) while the specs, their hashes and the campaign digest
    stay untouched -- :meth:`CampaignResult.digest` hashes only the
    simulation outcome.  ``progress`` is called with
    point counts as they settle (``sweep run``'s progress line).
    """
    if runner is None:
        runner = Runner(backend=backend_for(jobs if jobs else 1),
                        store=store)
    elif store is not None:
        raise ValueError(
            "pass the store to the Runner (Runner(store=...)) when "
            "supplying a runner; run_campaign(store=...) only applies to "
            "the runner it builds itself")
    if resume:
        runner.preload(resume)
    points = campaign.points()
    outcomes = runner.run_settled([p.experiment for p in points],
                                  trace=trace, progress=progress)
    return CampaignResult(campaign, [
        PointResult(name=p.name, sweep=p.sweep, coords=p.coords,
                    experiment=p.experiment, result=result, error=error)
        for p, (result, error) in zip(points, outcomes)
    ])


# ---------------------------------------------------------------------- #
# the registered campaigns (CI, EXPERIMENTS.md, the weekly full sweep)
# ---------------------------------------------------------------------- #
#
# These constants are the single source of truth for the scaled
# evaluation grids; benchmarks/harness.py imports them, which is what
# keeps the figure benchmarks' specs hash-identical to the campaign's
# (benchmarks/test_campaign_parity.py gates the equality).

#: The figure order of the six evaluated consistency models.
SIX_MODELS = ("naive", "sw-flush", "atomic", "store", "scope",
              "scope-relaxed")

#: Scaled stand-ins for the paper's 4..977 scope counts (EXPERIMENTS.md).
SCOPE_SWEEP = (4, 8, 16, 32, 48)

#: Records per scope in the scaled YCSB sweeps.
RECORDS_PER_SCOPE = 2000

#: Operations per YCSB run (the paper uses 1000; scaled for wall-clock).
YCSB_OPS = 30

#: Event budget per simulation point.
MAX_EVENTS = 200_000_000


def _ycsb_base(variant: str = "base", **params) -> Dict[str, object]:
    from dataclasses import asdict

    from repro.workloads.ycsb import YcsbParams

    defaults = dict(num_records=0, num_ops=YCSB_OPS, threads=4, seed=7)
    defaults.update(params)
    base = {
        "workload": "ycsb",
        "params": asdict(YcsbParams(**defaults)),
        "config": {"preset": "scaled"},
        "max_events": MAX_EVENTS,
    }
    if variant != "base":
        base["variant"] = variant
    return base


def _smoke_campaign() -> Campaign:
    models = ("naive", "atomic")
    ycsb = Sweep(
        name="ycsb",
        base={
            "workload": "ycsb",
            "params": {"num_records": 8000, "num_ops": 10, "threads": 4,
                       "seed": 11},
            "config": {"preset": "scaled", "num_scopes": 4},
            "variant": "smoke",
            "max_events": 50_000_000,
        },
        axes=(Axis("model", models),),
    )
    litmus = Sweep(
        name="litmus",
        base={
            "workload": "litmus",
            "params": {"rounds": 3, "threads": 2},
            "config": {"preset": "scaled", "num_scopes": 2},
            "variant": "smoke",
            "max_events": 50_000_000,
        },
        axes=(Axis("model", models),),
    )
    return Campaign(
        name="smoke",
        title="CI smoke campaign",
        description=(
            "Two models x two workloads at smoke size.  CI runs this "
            "campaign on the Serial and ProcessPool backends and fails "
            "if the result digests differ."
        ),
        sweeps=(ycsb, litmus),
    )


def _paper_grid_campaign() -> Campaign:
    from repro.workloads.tpch import TpchWorkload

    ycsb = Sweep(
        name="ycsb",
        base=_ycsb_base(),
        axes=(
            Axis("model", SIX_MODELS),
            Axis("scopes", SCOPE_SWEEP),
            Axis("records",
                 tuple(RECORDS_PER_SCOPE * n for n in SCOPE_SWEEP),
                 path="params.num_records", hidden=True),
        ),
        zip_groups=(("scopes", "records"),),
    )
    queries = ("q1", "q6", "q11", "q22")
    scale = 1 / 64
    tpch = Sweep(
        name="tpch",
        base={
            "workload": "tpch",
            "params": {"query": "", "scale": scale, "runs": 2},
            "config": {"preset": "scaled"},
            "max_events": MAX_EVENTS,
        },
        axes=(
            Axis("model", SIX_MODELS),
            Axis("query", queries, path="params.query"),
            Axis("scopes",
                 tuple(TpchWorkload(q, scale=scale).scaled_scopes()
                       for q in queries),
                 hidden=True),
        ),
        zip_groups=(("query", "scopes"),),
    )
    skew = Sweep(
        name="ycsb-skew",
        base=dict(_ycsb_base(variant="skew",
                             num_records=8 * RECORDS_PER_SCOPE),
                  config={"preset": "scaled", "num_scopes": 8}),
        axes=(
            Axis("model", SIX_MODELS),
            Axis("theta", (0.2, 0.6, 0.99), path="params.zipf_theta"),
        ),
    )
    return Campaign(
        name="paper-grid",
        title="Scaled evaluation grid (Figs. 7-10 flavour)",
        description=(
            "The six consistency models swept over the scaled YCSB "
            "scope-count grid, four representative TPC-H queries "
            "(Table IV at 1/64 scale), and the YCSB Zipf access-skew "
            "axis.  Workload sizes are the benchmark harness's scaled "
            "configuration: capacities shrink together so set counts, "
            "lines-per-scope and the PIM buffer back-pressure keep the "
            "paper's proportions while event counts stay tractable.  "
            "Every point is cacheable in the persistent result store: "
            "`repro-bench sweep run paper-grid --store DIR` resumes "
            "this grid across sessions (a warm store makes zero "
            "backend dispatches and reproduces this report "
            "byte-for-byte); the `geometry-ablation` campaign extends "
            "the same workflow to the Figs. 11-13 LLC-size and PIM-"
            "geometry axes."
        ),
        sweeps=(ycsb, tpch, skew),
        pivots=(
            Pivot(title="YCSB run time [cycles] vs scope count (Fig. 7a)",
                  sweep="ycsb", x="scopes", split_by="model"),
            Pivot(title="YCSB run time normalized to Naive (Fig. 7b)",
                  sweep="ycsb", x="scopes", split_by="model",
                  normalize_to="naive"),
            Pivot(title="LLC scope-buffer hit rate (Fig. 9)",
                  sweep="ycsb", x="scopes", split_by="model",
                  value="llc.hit_rate"),
            Pivot(title="Stale PIM-result reads (correctness)",
                  sweep="ycsb", x="scopes", split_by="model",
                  value="stale_reads"),
            Pivot(title="TPC-H run time normalized to Naive (Fig. 8)",
                  sweep="tpch", x="query", split_by="model",
                  normalize_to="naive"),
            Pivot(title="YCSB run time vs Zipf skew theta",
                  sweep="ycsb-skew", x="theta", split_by="model"),
        ),
    )


def _ycsb_grid_campaign() -> Campaign:
    grid = _paper_grid_campaign()
    return Campaign(
        name="ycsb-grid",
        title="YCSB model x scope-count grid",
        description="The YCSB sweep of the paper grid, on its own.",
        sweeps=(grid.sweeps[0],),
        pivots=tuple(p for p in grid.pivots if p.sweep == "ycsb"),
    )


#: Scope count the geometry ablations hold fixed (high enough that the
#: Figs. 11-12 effects -- scan cost, SBV skipping, buffer back-pressure
#: -- are actually visible).
GEOMETRY_SCOPES = 32


def _geometry_ablation_campaign() -> Campaign:
    """LLC-size and PIM crossbar/scope-geometry ablations (Figs. 11-13).

    Every sweep fixes the YCSB point at :data:`GEOMETRY_SCOPES` scopes
    and varies one hardware dimension across the six models: the LLC
    capacity (Fig. 12), the PIM op-buffer depth and zero-logic switch
    (Fig. 11), the crossbar's concurrent-scope limit, and the worker
    thread count with its derived core count (Fig. 13).
    """
    base = dict(
        _ycsb_base(variant="geometry",
                   num_records=RECORDS_PER_SCOPE * GEOMETRY_SCOPES),
        config={"preset": "scaled", "num_scopes": GEOMETRY_SCOPES},
    )
    llc = Sweep(
        name="llc-size",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("llc_bytes", (128 << 10, 512 << 10),
                 path="config.llc.size_bytes"),
        ),
    )
    pim_buffer = Sweep(
        name="pim-buffer",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("buffer", (8, 16, None),
                 path="config.pim.buffer_capacity"),
        ),
    )
    pim_logic = Sweep(
        name="pim-logic",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("zero_logic", (False, True),
                 path="config.pim.zero_logic"),
        ),
    )
    crossbar = Sweep(
        name="crossbar",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("concurrency", (None, 2),
                 path="config.pim.max_concurrent_scopes"),
        ),
    )
    threads = Sweep(
        name="threads",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("threads", (4, 8), path="params.threads"),
            Axis("cores", (8, 16), path="config.cores.num_cores",
                 hidden=True),
        ),
        zip_groups=(("threads", "cores"),),
    )
    return Campaign(
        name="geometry-ablation",
        title="LLC size and PIM geometry ablations (Figs. 11-13 flavour)",
        description=(
            f"The six consistency models at a fixed {GEOMETRY_SCOPES}-"
            "scope YCSB point, ablating one hardware dimension per "
            "sweep: LLC capacity (Fig. 12), PIM op-buffer depth and "
            "zero-logic execution (Fig. 11), the crossbar's concurrent-"
            "scope limit, and the worker thread count on a doubled-core "
            "host (Fig. 13).  This is also the persistent store's cross-"
            "session resume demo: run it twice with `--store DIR` (or "
            "`REPRO_STORE` set) and the second session hydrates every "
            "point from disk -- zero backend dispatches, byte-identical "
            "digest."
        ),
        sweeps=(llc, pim_buffer, pim_logic, crossbar, threads),
        pivots=(
            Pivot(title="YCSB run time vs LLC capacity (Fig. 12a)",
                  sweep="llc-size", x="llc_bytes", split_by="model"),
            Pivot(title="Mean LLC scan latency vs LLC capacity (Fig. 12b)",
                  sweep="llc-size", x="llc_bytes", split_by="model",
                  value="llc.scan_latency"),
            Pivot(title="Run time vs PIM op-buffer depth (Fig. 11a)",
                  sweep="pim-buffer", x="buffer", split_by="model"),
            Pivot(title="Zero PIM logic, normalized to Naive (Fig. 11b)",
                  sweep="pim-logic", x="zero_logic", split_by="model",
                  normalize_to="naive"),
            Pivot(title="Run time vs concurrent crossbar scopes",
                  sweep="crossbar", x="concurrency", split_by="model"),
            Pivot(title="Run time vs worker threads (Fig. 13)",
                  sweep="threads", x="threads", split_by="model"),
        ),
    )


def _mlp_ablation_campaign() -> Campaign:
    """Memory-level-parallelism ablations: MSHRs and DRAM bursts.

    Holds the YCSB point at :data:`GEOMETRY_SCOPES` scopes (like the
    geometry ablations) and sweeps the memory hierarchy's concurrency
    knobs across the six models: the MSHR file size with coalescing
    on/off (``mshr=1, coalescing=off`` is the fully blocking-cache
    baseline; the LLC file scales along as a hidden zipped axis), and
    the memory controller's DRAM burst-fusion window.
    """
    base = dict(
        _ycsb_base(variant="mlp",
                   num_records=RECORDS_PER_SCOPE * GEOMETRY_SCOPES),
        config={"preset": "scaled", "num_scopes": GEOMETRY_SCOPES},
    )
    mshr = Sweep(
        name="mshr",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("mshr", (1, 4, 8), path="config.l1.mshr_entries"),
            Axis("llc_mshr", (8, 32, 64), path="config.llc.mshr_entries",
                 hidden=True),
            Axis("coalescing", (True, False), path="config.l1.coalescing"),
        ),
        zip_groups=(("mshr", "llc_mshr"),),
    )
    burst = Sweep(
        name="burst",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("burst", (1, 4, 8), path="config.memory.dram_burst_len"),
        ),
    )
    return Campaign(
        name="mlp-ablation",
        title="Memory-level parallelism ablations (MSHRs, DRAM bursts)",
        description=(
            f"The six consistency models at a fixed {GEOMETRY_SCOPES}-"
            "scope YCSB point, ablating the memory hierarchy's "
            "concurrency: the L1 MSHR file size (the LLC file scales "
            "along, 8/32/64 entries) with same-line miss coalescing on "
            "or off -- `mshr=1, coalescing=off` is the fully blocking "
            "cache -- and the memory controller's DRAM burst-fusion "
            "window.  Non-default points export the `mshr_*`, "
            "`hit_under_miss` and burst statistics; the default-config "
            "digest gate is unaffected because these sweeps always set "
            "the knobs explicitly.  The burst axis is a measured null "
            "at the paper's operating points: every access these "
            "workloads generate addresses PIM-scope-resident data, "
            "which the Section V-A ordering rules exclude from fusion, "
            "so the plain-DRAM burst path never engages (flat run "
            "times, zero burst occupancy below).  The mechanism itself "
            "is exercised at the unit level in "
            "tests/memory/test_memory_controller.py."
        ),
        sweeps=(mshr, burst),
        pivots=(
            # Duplicate pivot cells resolve to the last point in sweep
            # order, so with `coalescing` as the fastest axis these two
            # figures show the coalescing=off slice, and the coalescing
            # figure shows the largest MSHR file.
            Pivot(title="YCSB run time vs L1 MSHR entries (no coalescing)",
                  sweep="mshr", x="mshr", split_by="model"),
            Pivot(title="LLC hit-under-miss events vs L1 MSHR entries "
                        "(no coalescing)",
                  sweep="mshr", x="mshr", split_by="model",
                  value="llc.hit_under_miss"),
            Pivot(title="Run time vs coalescing (8-entry MSHR file)",
                  sweep="mshr", x="coalescing", split_by="model"),
            Pivot(title="Run time vs DRAM burst length (null at paper "
                        "points)",
                  sweep="burst", x="burst", split_by="model"),
            Pivot(title="Mean DRAM burst occupancy vs burst length "
                        "(null at paper points)",
                  sweep="burst", x="burst", split_by="model",
                  value="mc.burst_length"),
        ),
    )


#: Offered loads (requests per 1000 cycles per core) of the registered
#: ``offered-load`` campaign.  Calibrated around the scaled 8-scope YCSB
#: point's closed-loop service rate (~0.3 requests/kcycle): the low end
#: is an idle system, the top is ~3x saturation.
OFFERED_LOADS = (0.1, 0.2, 0.3, 0.45, 0.7, 1.0)

#: The p99 arrival-to-settle SLO (host cycles) of the headline
#: "max load meeting the SLO" table -- roughly 3x the unloaded p50 of
#: the correctness-guaranteeing models at this operating point.
P99_SLO_CYCLES = 10_000

#: Mid-grid load the arrival-process comparison sweep holds fixed.
COMPARE_LOAD = 0.3

#: Overload the queue-depth shedding sweep holds fixed (~3x capacity).
SHED_LOAD = 1.0


def _offered_load_campaign() -> Campaign:
    """Open-loop latency study: saturation knees and SLO headroom."""
    base = dict(
        _ycsb_base(variant="openloop", num_records=RECORDS_PER_SCOPE * 8),
        config={"preset": "scaled", "num_scopes": 8,
                "traffic": {"arrival": "poisson", "offered_load": 0.1,
                            "queue_depth": 16}},
    )
    load = Sweep(
        name="load",
        base=base,
        axes=(
            Axis("model", SIX_MODELS),
            Axis("load", OFFERED_LOADS),
        ),
    )
    arrival = Sweep(
        name="arrival",
        base=dict(base, config={
            "preset": "scaled", "num_scopes": 8,
            "traffic": {"arrival": "poisson", "offered_load": COMPARE_LOAD,
                        "queue_depth": 16}}),
        axes=(
            Axis("model", SIX_MODELS),
            Axis("arrival", ("poisson", "burst", "ramp")),
        ),
    )
    shed = Sweep(
        name="shed",
        base=dict(base, config={
            "preset": "scaled", "num_scopes": 8,
            "traffic": {"arrival": "poisson", "offered_load": SHED_LOAD,
                        "queue_depth": 16}}),
        axes=(
            Axis("model", SIX_MODELS),
            Axis("queue_depth", (4, 8, 16)),
        ),
    )
    return Campaign(
        name="offered-load",
        title="Open-loop offered-load sweep: latency knees per model",
        description=(
            "The six consistency models under open-loop traffic at the "
            "8-scope scaled YCSB point: seeded Poisson arrivals at "
            f"{OFFERED_LOADS} requests/kcycle feed a bounded (16-deep) "
            "admission queue per core, and every request's latency is "
            "tracked from arrival (not issue) to settle, into mergeable "
            "fixed-bucket histograms (p50/p99/p999 below).  Three "
            "sweeps: the load axis locates each model's saturation "
            "knee and the headline 'max load meeting the "
            f"p99 <= {P99_SLO_CYCLES}-cycle SLO' table; the arrival "
            f"axis compares Poisson, 2-state-MMPP burst and diurnal-"
            f"ramp processes at a fixed {COMPARE_LOAD} requests/kcycle; "
            f"the queue-depth axis overloads the system "
            f"({SHED_LOAD} requests/kcycle, ~3x capacity) and shows the "
            "bounded queue shedding load (req_dropped) to cap the tail. "
            "Naive's low latency is bought with stale reads (it skips "
            "all correctness work -- see the paper-grid stale-read "
            "pivot); among the correctness-guaranteeing models the "
            "knee, not the unloaded mean, is what separates them.  "
            "Arrival schedules are precomputed pure functions of "
            "(process, load, seed), so this report is byte-identical "
            "across Serial and ProcessPool backends and resumes from "
            "the store like every other campaign."
        ),
        sweeps=(load, arrival, shed),
        pivots=(
            Pivot(title="p99 arrival-to-settle latency [cycles] vs "
                        "offered load",
                  sweep="load", x="load", split_by="model",
                  value="traffic.latency_p99"),
            Pivot(title="p50 arrival-to-settle latency [cycles] vs "
                        "offered load",
                  sweep="load", x="load", split_by="model",
                  value="traffic.latency_p50"),
            Pivot(title="p999 arrival-to-settle latency [cycles] vs "
                        "offered load",
                  sweep="load", x="load", split_by="model",
                  value="traffic.latency_p999"),
            Pivot(title="Completion run time [cycles] vs offered load",
                  sweep="load", x="load", split_by="model"),
            Pivot(title="p99 latency [cycles] by arrival process "
                        f"(load {COMPARE_LOAD})",
                  sweep="arrival", x="arrival", split_by="model",
                  value="traffic.latency_p99"),
            Pivot(title="Requests shed vs admission-queue depth "
                        f"(overload, load {SHED_LOAD})",
                  sweep="shed", x="queue_depth", split_by="model",
                  value="traffic.req_dropped"),
            Pivot(title="p99 latency [cycles] vs admission-queue depth "
                        f"(overload, load {SHED_LOAD})",
                  sweep="shed", x="queue_depth", split_by="model",
                  value="traffic.latency_p99"),
        ),
        slo=Slo(
            title=f"Max offered load meeting a p99 <= {P99_SLO_CYCLES}-"
                  "cycle SLO",
            metric="traffic.latency_p99",
            threshold=P99_SLO_CYCLES,
            x="load",
            split_by="model",
            sweep="load",
        ),
    )


#: Root seed of the registered ``litmus-fuzz`` campaign: the generated
#: scenarios are a pure function of this, so the campaign's point set --
#: and therefore its result digests -- are stable across sessions.
FUZZ_CAMPAIGN_SEED = 2023

#: Scenario count of the registered ``litmus-fuzz`` campaign.
FUZZ_CAMPAIGN_PROGRAMS = 4


def _litmus_fuzz_campaign() -> Campaign:
    from repro.fuzz.generate import generate_batch

    batch = generate_batch(seed=FUZZ_CAMPAIGN_SEED,
                           count=FUZZ_CAMPAIGN_PROGRAMS)
    fuzz = Sweep(
        name="fuzz",
        base={
            "workload": "litmus-fuzz",
            "params": {"spec": {}, "rounds": 2},
            "config": {"preset": "scaled", "num_scopes": 2},
            "max_events": 50_000_000,
        },
        axes=(
            Axis("model", SIX_MODELS),
            Axis("scenario", tuple(p.digest()[:8] for p in batch),
                 path="variant"),
            Axis("spec", tuple(p.to_dict() for p in batch),
                 path="params.spec", hidden=True),
        ),
        zip_groups=(("scenario", "spec"),),
    )
    return Campaign(
        name="litmus-fuzz",
        title="Generated litmus scenarios across the six models",
        description=(
            f"{FUZZ_CAMPAIGN_PROGRAMS} generated litmus scenarios "
            f"(fixed seed {FUZZ_CAMPAIGN_SEED}, named by program "
            "digest) swept across the six consistency models on the "
            "timing simulator.  The stale-read pivot is the simulator "
            "half of the differential fuzzing invariant: every "
            "correctness-guaranteeing model must show zero stale "
            "PIM-result reads on every scenario, while the Naive and "
            "SW-Flush baselines are the known-violating controls.  "
            "This campaign is the pinned, report-friendly slice of the "
            "wider loop: `repro-bench fuzz run --store DIR` checks "
            "fresh batches against the abstract model checkers "
            "(strength-lattice monotonicity, happens-before "
            "acyclicity), shrinks any violation to a minimal JSON "
            "repro under DIR/fuzz/repros/, and banks surviving "
            "scenarios with their outcome fingerprints in the "
            "DIR/fuzz/corpus/ regression corpus, which `repro-bench "
            "fuzz replay --store DIR` re-checks -- CI runs the replay "
            "plus a fixed-seed fuzz gate on every push and a long "
            "corpus-growing leg in the weekly full sweep."
        ),
        sweeps=(fuzz,),
        pivots=(
            Pivot(title="Stale PIM-result reads by model (zero expected "
                        "on correct models)",
                  sweep="fuzz", x="scenario", split_by="model",
                  value="stale_reads"),
            Pivot(title="Scenario run time by model",
                  sweep="fuzz", x="scenario", split_by="model"),
        ),
    )


#: Registered campaigns: name -> zero-argument factory.
CAMPAIGNS: Dict[str, Callable[[], Campaign]] = {
    "smoke": _smoke_campaign,
    "ycsb-grid": _ycsb_grid_campaign,
    "paper-grid": _paper_grid_campaign,
    "geometry-ablation": _geometry_ablation_campaign,
    "mlp-ablation": _mlp_ablation_campaign,
    "offered-load": _offered_load_campaign,
    "litmus-fuzz": _litmus_fuzz_campaign,
}


def campaign_names() -> List[str]:
    return sorted(CAMPAIGNS)


def get_campaign(name: str) -> Campaign:
    try:
        factory = CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r}; registered: "
            f"{', '.join(campaign_names())}"
        ) from None
    return factory()
