"""Statistics helpers for reproducing the paper's figures.

The paper reports sampled means (e.g. Fig. 10a: mean PIM-module buffer
length *on PIM op arrival*), ratios (Fig. 9 scope-buffer hit rate,
Fig. 10d SBV skipped-set ratio) and plain counters.  Components count
in plain int attributes, bumped inline on the hot path, and turn them
into one flat dict in their ``snapshot()``; :func:`mean_into` writes a
sampled mean there as ``name`` plus ``name_count``.

The open-loop traffic layer adds :class:`HistogramStat`: a fixed-bucket
HDR-style histogram for figure-grade latency percentiles (p50/p99/p999)
and queue-depth extremes.  Buckets are pure-integer counts and
percentile lookups use integer rank arithmetic, so snapshots are
byte-stable across backends and histograms merge exactly across cores
(bucket-count addition) -- the properties the Serial-vs-ProcessPool
digest gates rely on.

:class:`StatsView` is the read side: attribute access over one
component's snapshot.
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]


def mean_into(out: Dict[str, Number], name: str, total: Number,
              count: int) -> None:
    """Write a sampled mean as ``name`` plus ``name_count``.

    The mean reads ``0.0`` when nothing was sampled.

    >>> out = {}
    >>> mean_into(out, "scan_latency", 76, 2)
    >>> out
    {'scan_latency': 38.0, 'scan_latency_count': 2}
    """
    out[name] = total / count if count else 0.0
    out[name + "_count"] = count


class HistogramStat:
    """Fixed-bucket log-linear histogram (HDR-style) of integer samples.

    Values below 8 get exact unit buckets; above that, each power-of-two
    range splits into 8 sub-buckets, bounding relative error at 12.5%
    while keeping the bucket index a couple of shifts.  Everything the
    snapshot exports is derived from integer bucket counts:

    * percentiles resolve to a bucket's inclusive *upper bound* via
      integer ceiling-rank arithmetic (no interpolation, no floats), so
      two runs that record the same samples -- in any order, split
      across any number of cores -- produce byte-identical snapshots;
    * :meth:`merge` is plain bucket-count addition, which makes per-core
      histograms exactly mergeable into one distribution.

    Used for open-loop request latency (arrival to settle) and admission
    queue depths; see ``repro.traffic``.
    """

    #: Sub-buckets per power-of-two range (3 bits of mantissa kept).
    SUBBUCKETS = 8

    __slots__ = ("name", "count", "total", "max", "min", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: int = 0
        self.max: int = 0
        self.min: int = -1  # -1 = no samples yet
        self._buckets: Dict[int, int] = {}

    @staticmethod
    def _index(value: int) -> int:
        """Bucket index: identity below 8, then ``8*exp + sub``."""
        if value < 8:
            return value
        e = value.bit_length() - 3
        return (e << 3) | ((value >> (e - 1)) & 7)

    @staticmethod
    def _upper_bound(index: int) -> int:
        """Largest value mapping to ``index`` (the reported quantile)."""
        if index < 8:
            return index
        e = index >> 3
        return (((index & 7) + 9) << (e - 1)) - 1

    def record(self, value: int) -> None:
        v = int(value)
        if v < 0:
            v = 0
        self.count += 1
        self.total += v
        if v > self.max:
            self.max = v
        if self.min < 0 or v < self.min:
            self.min = v
        i = self._index(v)
        buckets = self._buckets
        buckets[i] = buckets.get(i, 0) + 1

    def merge(self, other: "HistogramStat") -> None:
        """Fold ``other`` in (exact: bucket counts just add)."""
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        if other.min >= 0 and (self.min < 0 or other.min < self.min):
            self.min = other.min
        buckets = self._buckets
        for i, n in other._buckets.items():
            buckets[i] = buckets.get(i, 0) + n

    def percentile(self, numerator: int, denominator: int) -> int:
        """The ``numerator/denominator`` quantile (e.g. ``99, 100``).

        Integer ceiling-rank: the value at rank
        ``ceil(count * numerator / denominator)``, reported as its
        bucket's upper bound.  Deterministic for any sample order.
        """
        if not self.count:
            return 0
        target = -(-self.count * numerator // denominator)
        if target < 1:
            target = 1
        seen = 0
        for i in sorted(self._buckets):
            seen += self._buckets[i]
            if seen >= target:
                # Clamp to the exact observed max so a tail percentile
                # never reports above it (the top bucket's upper bound
                # can overshoot by the 12.5% bucket width).
                bound = self._upper_bound(i)
                return bound if bound < self.max else self.max
        return self.max  # pragma: no cover - unreachable

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self, out: Dict[str, Number]) -> None:
        """Flatten into ``out`` under ``{name}_*`` keys.

        The sparse nonzero buckets ride along (``{name}_bucket_{i}``) so
        a flattened snapshot still merges exactly and round-trips through
        the result store without losing the distribution.
        """
        name = self.name
        out[name + "_p50"] = self.percentile(50, 100)
        out[name + "_p99"] = self.percentile(99, 100)
        out[name + "_p999"] = self.percentile(999, 1000)
        out[name + "_max"] = self.max
        out[name + "_min"] = self.min if self.min >= 0 else 0
        out[name + "_mean"] = self.mean
        out[name + "_count"] = self.count
        for i in sorted(self._buckets):
            out[f"{name}_bucket_{i}"] = self._buckets[i]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"HistogramStat({self.name}: n={self.count} "
                f"p50={self.percentile(50, 100)} "
                f"p99={self.percentile(99, 100)} max={self.max})")


class StatsView:
    """Read-only attribute namespace over one component's stats snapshot.

    ``view.hit_rate`` is ``snapshot["hit_rate"]``; a statistic the run
    never recorded reads as ``0.0`` (a component that never sampled a
    stat and a component whose stat is zero are indistinguishable in
    every figure, so the fallback keeps sweep code branch-free).

    >>> v = StatsView("llc", {"hit_rate": 0.75})
    >>> v.hit_rate
    0.75
    >>> v.scan_latency
    0.0
    """

    __slots__ = ("_name", "_data")

    def __init__(self, name: str, data: Union[Dict[str, Number], None] = None) -> None:
        self._name = name
        self._data = data if data is not None else {}

    def __getattr__(self, key: str) -> Number:
        if key.startswith("_"):
            raise AttributeError(key)
        return self._data.get(key, 0.0)

    def get(self, key: str, default: Number = 0.0) -> Number:
        return self._data.get(key, default)

    def as_dict(self) -> Dict[str, Number]:
        return dict(self._data)

    def keys(self):
        return self._data.keys()

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __bool__(self) -> bool:
        return bool(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsView({self._name}: {len(self._data)} stats)"
