"""The four proposed consistency models and the comparison baselines.

This module encodes Table I of the paper: for each model, which reorderings
of a PIM op with other memory operations are allowed, which additional fences
are required, and where scope-buffer/SBV hardware is needed.

The reordering predicate :meth:`ModelProperties.may_reorder` is the
single source of truth -- the litmus checker enumerates executions against
it, and the test suite validates the timing simulator's operational rules
against it.  Those rules are read straight off each model's
:class:`ModelProperties` row: the core (:mod:`repro.host.core`) and the
entry point (:mod:`repro.host.entry_point`) take the row, and the system
builder places the scope buffers by it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.memops import MemOp, OpKind


class ConsistencyModel(enum.Enum):
    """Consistency models for bulk-bitwise PIM, plus evaluation baselines.

    The first four are the paper's proposals (Section III); the last three
    are the comparison baselines (Section VI-C and Fig. 3).  Baselines do
    not guarantee correct execution (except ``UNCACHEABLE``, which is
    correct but slow).
    """

    ATOMIC = "atomic"
    STORE = "store"
    SCOPE = "scope"
    SCOPE_RELAXED = "scope-relaxed"
    # --- baselines ---
    NAIVE = "naive"
    SW_FLUSH = "sw-flush"
    UNCACHEABLE = "uncacheable"

    @property
    def is_proposed(self) -> bool:
        """True for the paper's four proposed models."""
        return self in _PROPOSED

    @property
    def is_baseline(self) -> bool:
        return not self.is_proposed


_PROPOSED = frozenset(
    {
        ConsistencyModel.ATOMIC,
        ConsistencyModel.STORE,
        ConsistencyModel.SCOPE,
        ConsistencyModel.SCOPE_RELAXED,
    }
)


@dataclass(frozen=True)
class ModelProperties:
    """Static properties of a consistency model (Table I).

    Attributes:
        model: the model described.
        guarantees_correctness: whether PIM-op/flush atomicity is preserved
            so host ordering rules still hold.
        blocks_commit: whether the core withholds commit of the PIM op
            until the memory controller's ACK arrives (atomic model only;
            under every other model the entry point counts the ACK).
        entry_point_holds: which subsequent operations the memory-subsystem
            entry point withholds while a PIM op is in flight:
            ``"all"``, ``"stores"`` (TSO store semantics: later loads to
            other addresses may bypass), ``"same-scope"``, or ``"none"``.
            The same class names what a PIM op waits for at the core
            (everything; all memory operations; its own scope; nothing)
            and whether a MemFence waits for PIM ACKs (``"all"`` and
            ``"stores"`` only).
        scope_fence_available: whether the model defines the scope-fence
            (scope-relaxed only).
        pim_fence_required: whether ordering between PIM ops of different
            scopes needs the dedicated fence of [21].
        scope_buffer_all_caches: scope buffer + SBV in every cache level
            (scope-relaxed) or only at the LLC.
        flushes_at_llc: whether PIM ops flush their scope from the LLC on
            the way to memory (all proposed models; not the baselines).
    """

    model: ConsistencyModel
    guarantees_correctness: bool
    blocks_commit: bool
    entry_point_holds: str
    scope_fence_available: bool
    pim_fence_required: bool
    scope_buffer_all_caches: bool
    flushes_at_llc: bool

    def may_reorder(self, first: MemOp, second: MemOp) -> bool:
        """May ``second`` become visible before ``first`` (program order)?

        This is the Table-I reordering matrix restricted to pairs where at
        least one operation is a PIM op.  Pairs not involving a PIM op
        follow the host's native model and are outside this predicate's
        scope (it returns the host-conservative answer ``False`` for a
        fence, ``True`` otherwise, mirroring X86-TSO only where needed by
        the litmus tests).
        """
        if first.thread != second.thread:
            raise ValueError("reordering is defined on a single thread's program order")
        pim_first = first.kind is OpKind.PIM_OP
        pim_second = second.kind is OpKind.PIM_OP
        if not (pim_first or pim_second):
            return _host_may_reorder(first, second)

        # A memory fence orders everything in every proposed model; in the
        # scope-relaxed model PIM ops are ordered only by dedicated fences.
        other = second if pim_first else first
        if other.kind is OpKind.MEM_FENCE:
            return self.model is ConsistencyModel.SCOPE_RELAXED
        if other.kind is OpKind.PIM_FENCE:
            return False
        if other.kind is OpKind.SCOPE_FENCE:
            if not self.scope_fence_available:
                return False  # treated as a full fence by stricter models
            pim = first if pim_first else second
            return not pim.same_scope(other)

        if self.model is ConsistencyModel.ATOMIC:
            return False
        if self.model is ConsistencyModel.STORE:
            if pim_first and pim_second:
                return False  # stores do not reorder with stores under TSO
            if first.same_scope(second):
                return False
            # TSO: a later load may bypass an earlier store; a later store
            # may not bypass an earlier load or store.
            return pim_first and second.kind is OpKind.LOAD
        if self.model is ConsistencyModel.SCOPE:
            return not first.same_scope(second)
        if self.model is ConsistencyModel.SCOPE_RELAXED:
            return True
        # Baselines enforce nothing beyond what the hardware happens to do.
        return True

    def table_row(self) -> dict:
        """The model's row of Table I, as printable fields."""
        reorder = {
            ConsistencyModel.ATOMIC: "None",
            ConsistencyModel.STORE: "Same as store operations",
            ConsistencyModel.SCOPE: "All operations to other scopes",
            ConsistencyModel.SCOPE_RELAXED: "All operations except fences",
        }.get(self.model, "Unconstrained (no correctness guarantee)")
        fences = {
            ConsistencyModel.ATOMIC: "No",
            ConsistencyModel.STORE: "No",
            ConsistencyModel.SCOPE: "Ordering between scopes",
            ConsistencyModel.SCOPE_RELAXED: (
                "(1) Ordering within scope and (2) between scopes"
            ),
        }.get(self.model, "-")
        return {
            "Model": self.model.value,
            "PIM Op Allowed Reordering": reorder,
            "Additional Fence Required": fences,
            "Scope Buffer & SBV": (
                "All caches" if self.scope_buffer_all_caches else "Only LLC"
            ),
        }


def _host_may_reorder(first: MemOp, second: MemOp) -> bool:
    """X86-TSO-like native rules for non-PIM pairs (used by litmus tests)."""
    if first.kind.is_fence or second.kind.is_fence:
        return False
    if first.same_address(second):
        return False
    # TSO: only store -> later-load reordering is allowed.
    return first.kind is OpKind.STORE and second.kind is OpKind.LOAD


MODEL_PROPERTIES = {
    ConsistencyModel.ATOMIC: ModelProperties(
        model=ConsistencyModel.ATOMIC,
        guarantees_correctness=True,
        blocks_commit=True,
        entry_point_holds="all",
        scope_fence_available=False,
        pim_fence_required=False,
        scope_buffer_all_caches=False,
        flushes_at_llc=True,
    ),
    ConsistencyModel.STORE: ModelProperties(
        model=ConsistencyModel.STORE,
        guarantees_correctness=True,
        blocks_commit=False,
        entry_point_holds="stores",
        scope_fence_available=False,
        pim_fence_required=False,
        scope_buffer_all_caches=False,
        flushes_at_llc=True,
    ),
    ConsistencyModel.SCOPE: ModelProperties(
        model=ConsistencyModel.SCOPE,
        guarantees_correctness=True,
        blocks_commit=False,
        entry_point_holds="same-scope",
        scope_fence_available=False,
        pim_fence_required=True,
        scope_buffer_all_caches=False,
        flushes_at_llc=True,
    ),
    ConsistencyModel.SCOPE_RELAXED: ModelProperties(
        model=ConsistencyModel.SCOPE_RELAXED,
        guarantees_correctness=True,
        blocks_commit=False,
        entry_point_holds="none",
        scope_fence_available=True,
        pim_fence_required=True,
        scope_buffer_all_caches=True,
        flushes_at_llc=True,
    ),
    ConsistencyModel.NAIVE: ModelProperties(
        model=ConsistencyModel.NAIVE,
        guarantees_correctness=False,
        blocks_commit=False,
        entry_point_holds="none",
        scope_fence_available=False,
        pim_fence_required=False,
        scope_buffer_all_caches=False,
        flushes_at_llc=False,
    ),
    ConsistencyModel.SW_FLUSH: ModelProperties(
        model=ConsistencyModel.SW_FLUSH,
        guarantees_correctness=False,
        blocks_commit=False,
        entry_point_holds="none",
        scope_fence_available=False,
        pim_fence_required=False,
        scope_buffer_all_caches=False,
        flushes_at_llc=False,
    ),
    ConsistencyModel.UNCACHEABLE: ModelProperties(
        model=ConsistencyModel.UNCACHEABLE,
        # Uncacheable PIM regions never have stale cached copies, so the
        # execution is correct -- just slow (Fig. 3).
        guarantees_correctness=True,
        blocks_commit=False,
        entry_point_holds="none",
        scope_fence_available=False,
        pim_fence_required=False,
        scope_buffer_all_caches=False,
        flushes_at_llc=False,
    ),
}


def properties_of(model: ConsistencyModel) -> ModelProperties:
    """Look up the static properties of ``model``."""
    return MODEL_PROPERTIES[model]
