"""Shared machinery for compiling database workloads into thread programs.

Three pieces live here:

* :class:`Workload` -- the ABC every runnable workload implements
  (``name`` / ``params`` / ``compile(system)``); the experiment API
  (:mod:`repro.api`) instantiates registered subclasses by name.
* :class:`DatabaseLayout` -- the byte-address layout of a multi-scope
  database (mirroring :class:`repro.pim.database.PimDatabase`'s placement:
  round-robin records, result bitmaps at the top of each scope) without
  materializing crossbars, so compiling large timing workloads is pure
  arithmetic.
* :class:`ProgramEmitter` -- a per-thread program builder that knows the
  active consistency model: it inserts the SW-Flush baseline's clflushes,
  the scope-relaxed model's scope-fences, the uncacheable baseline's
  bypass flags, and the stale-read expectations on result reads.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, Iterable, List, Optional, Sequence

from repro.core.models import ConsistencyModel
from repro.core.scope import ScopeMap
from repro.host.program import ThreadOp, ThreadProgram
from repro.pim.database import RecordSchema
from repro.system.builder import System


class Workload(abc.ABC):
    """A runnable workload: a named, parameterized program generator.

    Subclasses declare a class-level ``name`` (the registry key used by
    :func:`repro.api.register_workload` and ``Experiment.workload``),
    expose their defining parameters as a plain dict, and compile to one
    :class:`~repro.host.program.ThreadProgram` per worker thread.  The
    contract: ``cls.from_params(**workload.params)`` rebuilds an
    equivalent workload, which is what lets experiment specs stay pure
    data across cache keys and process boundaries.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    @property
    @abc.abstractmethod
    def params(self) -> Dict[str, object]:
        """The constructor parameters, as a plain JSON-safe dict."""

    @abc.abstractmethod
    def compile(self, system: System) -> List[ThreadProgram]:
        """Emit one program per thread for ``system``'s model and layout."""

    @classmethod
    def from_params(cls, **params) -> "Workload":
        """Rebuild a workload from its :attr:`params` dict."""
        return cls(**params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


class DatabaseLayout:
    """Address arithmetic for a relation spread over PIM scopes."""

    def __init__(self, scope_map: ScopeMap, schema: RecordSchema,
                 records_per_scope: int, line_bytes: int = 64) -> None:
        self.scope_map = scope_map
        self.schema = schema
        self.records_per_scope = records_per_scope
        self.line_bytes = line_bytes
        self.num_scopes = scope_map.num_scopes
        stride = schema.record_stride()
        if stride * records_per_scope > scope_map.scope_bytes:
            raise ValueError("records do not fit in a scope")
        # Compiled once: record_address runs for every record a program
        # touches, so it does no schema or scope-map work of its own.
        self._stride = stride
        self._scope_bases = [scope.base for scope in scope_map.scopes()]
        self._field_offsets = {spec.name: schema.field_byte_offset(spec.name)
                               for spec in schema.all_fields()}

    @property
    def capacity(self) -> int:
        return self.num_scopes * self.records_per_scope

    def shard_of(self, global_row: int) -> int:
        """Scope id holding ``global_row`` (round-robin placement)."""
        return global_row % self.num_scopes

    def local_row(self, global_row: int) -> int:
        return global_row // self.num_scopes

    def record_address(self, global_row: int, field: Optional[str] = None) -> int:
        num_scopes = self.num_scopes
        addr = (self._scope_bases[global_row % num_scopes]
                + global_row // num_scopes * self._stride)
        if field is not None:
            addr += self._field_offsets[field]  # KeyError: no such field
        return addr

    def record_lines(self, global_row: int) -> List[int]:
        """Line addresses a record's bytes cover (insert stores)."""
        base = self.record_address(global_row)
        end = base + self.schema.record_bytes
        first = base & ~(self.line_bytes - 1)
        return list(range(first, end, self.line_bytes))

    def bitmap_lines(self, scope_id: int, slot: int = 0) -> List[int]:
        """Cache lines of a result-bitmap slot (what the host reads)."""
        scope = self.scope_map.scope(scope_id)
        bitmap_bytes = (self.records_per_scope + 7) // 8
        region_bytes = _round_up(bitmap_bytes, self.line_bytes)
        base = scope.limit - (slot + 1) * region_bytes
        if base < scope.base:
            raise ValueError("scope too small for result bitmaps")
        return list(range(base, base + region_bytes, self.line_bytes))

    def register_result_lines(self, system: System, slot: int = 0) -> None:
        """Tell the system which lines PIM ops rewrite, per scope."""
        for sid in range(self.num_scopes):
            system.register_pim_result_lines(sid, self.bitmap_lines(sid, slot))


def _round_up(value: int, quantum: int) -> int:
    return (value + quantum - 1) // quantum * quantum


#: Table II: records per 2 MB scope at paper scale.
PAPER_RECORDS_PER_SCOPE = 32 << 10


def scaled_pim_latency(microcode_latency: int, system: System) -> int:
    """Scale a microcode-derived PIM op latency to the system's miniature.

    Benchmark configurations shrink scopes (and with them result-bitmap
    sizes and read volumes) by some factor relative to Table II; the PIM
    execution time must shrink by the same factor or the execution/read
    ratio -- which every effect in Figs. 7-13 depends on -- would be
    distorted.  At paper scale the factor is 1 and the real compiled
    latency is used unchanged.
    """
    scale = system.config.records_per_scope / PAPER_RECORDS_PER_SCOPE
    return max(1, round(microcode_latency * scale))


def partition_scopes(num_scopes: int, threads: int) -> List[List[int]]:
    """Divide scopes evenly among threads (Section VI-B step 1)."""
    return [list(range(t, num_scopes, threads)) for t in range(threads)]


class ProgramEmitter:
    """Builds one thread's program under the active consistency model."""

    def __init__(self, system: System, name: str,
                 pim_issue_counts: Dict[int, int]) -> None:
        self.system = system
        self.model = system.config.model
        self.program = ThreadProgram(name)
        self.uncacheable = self.model is ConsistencyModel.UNCACHEABLE
        #: Shared, compile-time count of PIM ops issued per scope -- the
        #: version a subsequent correct result read must observe.
        self.pim_issue_counts = pim_issue_counts
        # Open-loop request bracketing state (begin_request/end_request).
        self._request_start: int = -1
        self._request_count: int = 0

    # -- open-loop request boundaries ------------------------------------ #

    @property
    def open_loop(self) -> bool:
        """True when the system's traffic config is an open arrival."""
        return self.system.config.traffic.open

    def begin_request(self) -> None:
        """Mark the start of one open-loop request.

        Emits an ARRIVE marker carrying the request index; the core
        sleeps on it until the request's precomputed arrival cycle and
        lets the admission queue admit or shed it.
        """
        if self._request_start >= 0:
            raise RuntimeError("begin_request inside an open request")
        self._request_start = len(self.program.ops)
        self.program.append(ThreadOp.arrive(self._request_count))

    def end_request(self) -> None:
        """Close the current request: patch the marker's body length.

        The body length lets a core skip a shed request in O(1) without
        walking its ops.
        """
        start = self._request_start
        if start < 0:
            raise RuntimeError("end_request without begin_request")
        marker = self.program.ops[start]
        marker.cycles = len(self.program.ops) - start - 1
        self._request_start = -1
        self._request_count += 1

    # -- plain operations ------------------------------------------------ #

    def load(self, addr: int, expect_version: int = 0) -> None:
        scope = self.system.scope_map.scope_id_of(addr)
        self.program.append(ThreadOp.load(
            addr, scope=scope, expect_version=expect_version,
            uncacheable=self.uncacheable and scope is not None,
        ))

    def store(self, addr: int) -> None:
        scope = self.system.scope_map.scope_id_of(addr)
        self.program.append(ThreadOp.store(
            addr, scope=scope,
            uncacheable=self.uncacheable and scope is not None,
        ))

    def compute(self, cycles: int) -> None:
        if cycles > 0:
            self.program.append(ThreadOp.compute(cycles))

    def barrier(self) -> None:
        self.program.append(ThreadOp.barrier())

    def mem_fence(self) -> None:
        self.program.append(ThreadOp.mem_fence())

    def pim_fence(self) -> None:
        self.program.append(ThreadOp.pim_fence())

    # -- PIM computation phases ------------------------------------------ #

    def pim_group(self, scope_id: int, num_ops: int,
                  sw_flush_lines: Iterable[int] = ()) -> None:
        """Issue ``num_ops`` PIM ops to one scope.

        Under SW-Flush, the software's explicit clflushes of the lines it
        knows the PIM computation touches come first (Section VI-C);
        under scope-relaxed, a scope-fence follows the group so the
        thread's later result reads are ordered (Section V-E).
        """
        scope = self.system.scope_map.scope(scope_id)
        if self.model is ConsistencyModel.SW_FLUSH:
            for line in sw_flush_lines:
                self.program.append(ThreadOp.flush(
                    line, scope=self.system.scope_map.scope_id_of(line)))
        for _ in range(num_ops):
            self.program.append(ThreadOp.pim_op(scope_id, addr=scope.base))
        self.pim_issue_counts[scope_id] = (
            self.pim_issue_counts.get(scope_id, 0) + num_ops
        )
        if self.model is ConsistencyModel.SCOPE_RELAXED:
            self.program.append(ThreadOp.scope_fence(scope_id, addr=scope.base))

    def read_result_bitmap(self, layout: DatabaseLayout, scope_id: int,
                           slot: int = 0) -> None:
        """Read a scope's result bitmap, expecting the current PIM version."""
        expect = self.pim_issue_counts.get(scope_id, 0)
        for line in layout.bitmap_lines(scope_id, slot):
            self.load(line, expect_version=expect)

    def read_record_field(self, layout: DatabaseLayout, global_row: int,
                          field: str) -> None:
        self.load(layout.record_address(global_row, field))

    def insert_record(self, layout: DatabaseLayout, global_row: int) -> List[int]:
        """Stores covering a new record; returns the lines touched."""
        lines = layout.record_lines(global_row)
        for line in lines:
            self.store(line)
        return lines
