"""Configuration dataclasses, with Table II of the paper as the defaults.

Two construction helpers are provided:

* :meth:`SystemConfig.paper_default` -- the exact Table II configuration
  (6 cores, 16 KB L1, 2 MB LLC, 2 MB scopes with 32 K records).
* :meth:`SystemConfig.scaled_default` -- a proportionally scaled-down
  configuration used by the benchmark harness so sweeps complete in
  reasonable wall-clock time under a pure-Python simulator.  Scaling
  preserves the ratios the paper's effects depend on (see DESIGN.md).

All latencies are in host clock cycles (3.6 GHz in Table II).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from repro.core.models import ConsistencyModel


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    ways: int = 4
    hit_latency: int = 2
    #: Cycles to check one set during a scope scan (Section IV).
    scan_cycles_per_set: int = 1
    #: Outstanding line fills (MSHR file capacity).  ``None`` keeps the
    #: level's legacy default (8 for the L1, 64 for the LLC) *and*
    #: suppresses the MSHR stat keys, which is what keeps default-config
    #: result digests byte-identical; an explicit count (1 = blocking
    #: cache) also turns the ``mshr_*`` statistics on.
    mshr_entries: Optional[int] = None
    #: Merge secondary misses onto the in-flight MSHR entry.  Off, a
    #: second miss to an in-flight line back-pressures until the refill
    #: lands (the blocking-cache ablation pairs this with
    #: ``mshr_entries=1``).
    coalescing: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError("cache size must be a multiple of line_bytes * ways")
        if self.mshr_entries is not None and self.mshr_entries < 1:
            raise ValueError("mshr_entries must be >= 1 (or None for the "
                             "level default)")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class ScopeBufferConfig:
    """Scope buffer geometry (a small scope-indexed cache, Section IV-A)."""

    sets: int = 64
    ways: int = 4

    @property
    def entries(self) -> int:
        return self.sets * self.ways


@dataclass(frozen=True)
class CoreConfig:
    """Host core parameters."""

    num_cores: int = 6
    freq_ghz: float = 3.6
    #: Maximum outstanding loads (memory-level parallelism window).
    max_outstanding_loads: int = 8
    #: Entry point to the memory subsystem (write buffer) depth.
    entry_point_depth: int = 16
    #: Cycles of non-memory work modelled between memory operations.
    compute_cycles_per_op: int = 4


@dataclass(frozen=True)
class NetworkConfig:
    """The shared reorder network between the L1s and the LLC."""

    latency: int = 12
    #: Inverse bandwidth: cycles per message on the shared request path.
    service_interval: int = 1
    queue_capacity: int = 16


@dataclass(frozen=True)
class MemoryConfig:
    """Memory controller and DRAM timing."""

    dram_latency: int = 200
    #: Inverse bandwidth of the DRAM service stage (bank-level parallelism
    #: folded into one rate).
    dram_service_interval: int = 8
    queue_capacity: int = 32
    #: Maximum lines fused into one DRAM burst (power of two).  1 keeps
    #: the one-access-per-service-interval behaviour bit-for-bit; above 1
    #: the controller sweeps its queue for accesses in the same aligned
    #: ``dram_burst_len``-line window and services them as one burst
    #: occupying a single service interval (and emits burst statistics).
    dram_burst_len: int = 1

    def __post_init__(self) -> None:
        if self.dram_burst_len < 1 or \
                self.dram_burst_len & (self.dram_burst_len - 1):
            raise ValueError("dram_burst_len must be a power of two >= 1")


@dataclass(frozen=True)
class PimModuleConfig:
    """The bulk-bitwise PIM module (PIMDB-style [25])."""

    #: Op buffer depth; ``None`` reproduces the Fig. 11a unbounded buffer.
    buffer_capacity: Optional[int] = 128
    #: Execution cycles of one PIM op on one scope.  Bulk-bitwise ops are
    #: long (microseconds in [25]); 4000 host cycles ~ 1.1 us at 3.6 GHz.
    op_latency: int = 4000
    #: Fig. 11b "zero logic" experiment: PIM ops execute in zero time.
    zero_logic: bool = False
    #: Maximum scopes executing concurrently (the module can operate many
    #: crossbar groups in parallel; ops to the same scope serialize).
    max_concurrent_scopes: Optional[int] = None


#: Arrival processes the open-loop traffic layer understands.
ARRIVAL_KINDS = ("closed", "poisson", "burst", "ramp")


@dataclass(frozen=True)
class TrafficConfig:
    """Open-loop arrival process ahead of the cores (``repro.traffic``).

    The default ``arrival="closed"`` is the legacy closed loop (each
    core issues its next op when the previous settles) and emits no new
    stat keys, which keeps default-config result digests byte-identical
    (gated by ``tests/api/test_default_digests.py``).  Any open kind
    precomputes a seeded arrival-time array per core, feeds a bounded
    admission queue, and tracks per-request latency from *arrival* (not
    issue) to settle.
    """

    #: ``closed`` | ``poisson`` | ``burst`` (2-state MMPP) | ``ramp``
    #: (diurnal linear rate ramp).
    arrival: str = "closed"
    #: Mean offered load, in requests per 1000 cycles per core.
    offered_load: float = 0.0
    #: Admission queue depth per core; arrivals beyond it are shed
    #: (counted as ``req_dropped``).  ``None`` = unbounded.
    queue_depth: Optional[int] = None
    #: ``burst``: high/low phase rates are ``offered_load * burstiness``
    #: and ``offered_load / burstiness``.
    burstiness: float = 4.0
    #: ``burst``: mean arrivals per phase before switching (geometric).
    burst_dwell: int = 16
    #: ``ramp``: rate climbs linearly from ``offered_load / ramp_peak``
    #: to ``offered_load * ramp_peak`` across the request stream.
    ramp_peak: float = 2.0
    #: Arrival-stream RNG seed; same seed => same arrival array.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"arrival must be one of {ARRIVAL_KINDS}, "
                             f"got {self.arrival!r}")
        if self.arrival != "closed" and self.offered_load <= 0:
            raise ValueError("open-loop traffic requires offered_load > 0")
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1 (or None for "
                             "unbounded)")
        if self.burstiness <= 1.0:
            raise ValueError("burstiness must be > 1")
        if self.burst_dwell < 1:
            raise ValueError("burst_dwell must be >= 1")
        if self.ramp_peak < 1.0:
            raise ValueError("ramp_peak must be >= 1")

    @property
    def open(self) -> bool:
        return self.arrival != "closed"


@dataclass(frozen=True)
class TraceConfig:
    """Opt-in observability knobs (``repro.obs``).

    The default (``enabled=False``) is the zero-cost path: no tracer is
    built, every hook site guards on a ``None`` attribute, and
    :func:`config_to_dict` omits the section entirely so default spec
    hashes (and every pinned campaign digest) are unchanged.  Tracing on
    or off, simulated results are byte-identical -- observation never
    perturbs the simulation (gated by ``tests/obs/test_neutrality.py``).
    """

    #: Build a tracer: event ring (if ``ring_size > 0``) and stall
    #: attribution.
    enabled: bool = False
    #: Event ring capacity (records kept; oldest dropped when full).
    #: 0 disables event records -- stall attribution still runs, which
    #: is what campaign-level tracing uses to keep store entries small.
    ring_size: int = 65536
    #: Flight recorder: snapshot the ring the first time an invariant
    #: fires mid-run (today: a stale read observed by a core).
    flight: bool = False

    def __post_init__(self) -> None:
        if self.ring_size < 0:
            raise ValueError("ring_size must be >= 0")
        if self.flight and not self.enabled:
            raise ValueError("flight recording requires enabled=True")


@dataclass(frozen=True)
class SystemConfig:
    """Complete system description handed to the builder."""

    model: ConsistencyModel = ConsistencyModel.ATOMIC
    cores: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 << 10, ways=4, hit_latency=2))
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=2 << 20, ways=16, hit_latency=20)
    )
    l1_scope_buffer: ScopeBufferConfig = field(
        default_factory=lambda: ScopeBufferConfig(sets=16, ways=1)
    )
    llc_scope_buffer: ScopeBufferConfig = field(
        default_factory=lambda: ScopeBufferConfig(sets=64, ways=4)
    )
    network: NetworkConfig = field(default_factory=NetworkConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    pim: PimModuleConfig = field(default_factory=PimModuleConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    #: Scope size: 2 MB huge pages (Table II).
    scope_bytes: int = 2 << 20
    #: Start of PIM memory in the physical address space.
    pim_base: int = 1 << 34
    num_scopes: int = 16
    #: Maximum database records per scope (Table II: 32 K).
    records_per_scope: int = 32 << 10
    #: Ablation switches for the Section IV coherency hardware: with the
    #: scope buffer off every PIM op scans; with the SBV off every scan
    #: visits every set.
    scope_buffer_enabled: bool = True
    sbv_enabled: bool = True

    @classmethod
    def paper_default(cls, model: ConsistencyModel = ConsistencyModel.ATOMIC, num_scopes: int = 16) -> "SystemConfig":
        """The Table II configuration."""
        return cls(model=model, num_scopes=num_scopes)

    @classmethod
    def scaled_default(
        cls, model: ConsistencyModel = ConsistencyModel.ATOMIC, num_scopes: int = 8
    ) -> "SystemConfig":
        """Proportionally scaled configuration for fast Python sweeps.

        Caches, scope size, record counts and queue depths shrink together
        (by 16x for capacities, 8x for the PIM buffer and MC queue) so
        that set counts, lines-per-scope, result-read volumes and the
        ops-in-flight-to-buffer-capacity ratio keep the paper's
        proportions while event counts stay tractable.  The buffer ratio
        matters most: the paper's central effect (strict models
        self-throttling once the PIM module back-pressures, Section VII)
        only appears when a scan's PIM ops can actually fill the buffer.
        """
        return cls(
            model=model,
            l1=CacheConfig(size_bytes=4 << 10, ways=4, hit_latency=2),
            llc=CacheConfig(size_bytes=128 << 10, ways=16, hit_latency=20),
            llc_scope_buffer=ScopeBufferConfig(sets=16, ways=4),
            l1_scope_buffer=ScopeBufferConfig(sets=8, ways=1),
            memory=MemoryConfig(queue_capacity=16),
            pim=PimModuleConfig(buffer_capacity=16),
            scope_bytes=128 << 10,
            num_scopes=num_scopes,
            records_per_scope=2 << 10,
        )

    def with_model(self, model: ConsistencyModel) -> "SystemConfig":
        """A copy of this configuration under another consistency model."""
        return replace(self, model=model)

    def with_pim(self, **kwargs) -> "SystemConfig":
        """A copy with PIM-module fields overridden (Fig. 11 experiments)."""
        return replace(self, pim=replace(self.pim, **kwargs))

    def with_traffic(self, **kwargs) -> "SystemConfig":
        """A copy with traffic fields overridden (open-loop experiments)."""
        return replace(self, traffic=replace(self.traffic, **kwargs))

    def with_trace(self, **kwargs) -> "SystemConfig":
        """A copy with trace fields overridden (observability runs)."""
        return replace(self, trace=replace(self.trace, **kwargs))

    def __post_init__(self) -> None:
        if self.pim_base % self.scope_bytes:
            raise ValueError("pim_base must be scope-aligned")
        if self.scope_bytes % self.llc.line_bytes:
            raise ValueError("scope size must be line-aligned")


# --------------------------------------------------------------------- #
# dict round trip (shared by experiment specs, campaign artifacts and
# the persistent result store)
# --------------------------------------------------------------------- #

_NESTED_CONFIG = {
    "cores": CoreConfig,
    "l1": CacheConfig,
    "llc": CacheConfig,
    "l1_scope_buffer": ScopeBufferConfig,
    "llc_scope_buffer": ScopeBufferConfig,
    "network": NetworkConfig,
    "memory": MemoryConfig,
    "pim": PimModuleConfig,
    "traffic": TrafficConfig,
    "trace": TraceConfig,
}

#: Each config class's field names, in declaration order.
_FIELD_NAMES = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (SystemConfig, *_NESTED_CONFIG.values())
}

_DEFAULT_TRACE = TraceConfig()


def _fields_dict(obj) -> Dict[str, object]:
    return {name: getattr(obj, name) for name in _FIELD_NAMES[type(obj)]}


#: Each preset's field values, from its zero-argument factory.
_PRESET_FIELDS = {
    "paper": _fields_dict(SystemConfig.paper_default()),
    "scaled": _fields_dict(SystemConfig.scaled_default()),
}


def config_to_dict(config: SystemConfig) -> Dict[str, object]:
    """A JSON-safe dict that :func:`config_from_dict` restores exactly.

    A default ``trace`` section is omitted: observability knobs at their
    defaults must not perturb spec hashes, so every experiment hashed
    before the trace layer existed keeps its hash (and its store entry).
    A *non-default* trace section serializes -- a traced experiment spec
    is deliberately a distinct point.  Every leaf is an immutable
    scalar, so the sections are read field by field, not deep-copied.
    """
    data = _fields_dict(config)
    for key in _NESTED_CONFIG:
        data[key] = _fields_dict(data[key])
    data["model"] = config.model.value
    if config.trace == _DEFAULT_TRACE:
        del data["trace"]
    return data


def config_from_dict(data) -> SystemConfig:
    """Build a :class:`SystemConfig` from a dict (or pass one through).

    Two shapes are accepted:

    * the full :func:`config_to_dict` form (every field present, nested
      sections as complete dicts);
    * a preset form, ``{"preset": "scaled"|"paper", ...overrides}``,
      where nested sections may be *partial* dicts applied on top of the
      preset (e.g. ``{"preset": "scaled", "pim": {"zero_logic": True}}``).

    A preset form's overrides apply together: each partial section is
    merged into the preset's section, and the :class:`SystemConfig` is
    built once, so only the final config is validated and the order of
    the keys does not matter (a new ``scope_bytes`` and a ``pim_base``
    aligned to it load in either order).
    """
    if isinstance(data, SystemConfig):
        return data
    data = dict(data)
    preset = data.pop("preset", None)
    model = data.pop("model", None)
    if isinstance(model, str):
        model = ConsistencyModel(model)

    if preset is not None:
        try:
            values = dict(_PRESET_FIELDS[preset])
        except KeyError:
            raise ValueError(
                f"unknown config preset {preset!r}; "
                f"expected one of {sorted(_PRESET_FIELDS)}"
            ) from None
        for key, value in data.items():
            if key in _NESTED_CONFIG and isinstance(value, Mapping):
                value = replace(values[key], **value)
            values[key] = value
        if model is not None:
            values["model"] = model
        return SystemConfig(**values)

    for key, cls in _NESTED_CONFIG.items():
        if key in data and isinstance(data[key], Mapping):
            data[key] = cls(**data[key])
    if model is not None:
        data["model"] = model
    return SystemConfig(**data)
