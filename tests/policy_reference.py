"""The entry point's forwarding rule as one plain predicate, kept as a
reference for the serve loop.

:meth:`repro.host.entry_point.EntryPoint._serve` decides what to forward
in one incremental queue walk with a head fast path.  :func:`may_forward`
states the same rule for one message at a time, straight from the
model's :class:`~repro.core.models.ModelProperties` row; tests drive it
over the queue prefix by prefix and assert that the serve loop picks
the same message.
"""

from typing import Dict, Set

from repro.core.models import ConsistencyModel, ModelProperties
from repro.sim.messages import Message, MessageType


def may_forward(
    props: ModelProperties,
    msg: Message,
    pending_pim_scopes: Dict[int, int],
    fenced_scopes: Set[int],
    earlier_same_line_write: bool,
    earlier_same_scope_order: str = "",
) -> bool:
    """May the entry point forward ``msg`` right now?

    Args:
        props: the consistency model's row.
        msg: the queued message under consideration.
        pending_pim_scopes: scope -> count of forwarded-but-unACKed
            PIM ops (empty for models without holds).
        fenced_scopes: scopes with a forwarded, un-ACKed scope-fence.
        earlier_same_line_write: an older store/flush to the same
            line sits in the entry point queue (store-to-load order).
        earlier_same_scope_order: ``"pim"``/``"fence"`` when an
            older, still-queued PIM op or scope-fence to the same
            scope sits ahead in the entry point.
    """
    mtype = msg.mtype
    if mtype is MessageType.LOAD and earlier_same_line_write:
        return False
    if earlier_same_scope_order == "fence":
        # A queued scope-fence orders same-scope accesses under every
        # model -- ordering is its entire purpose.
        return False
    if (earlier_same_scope_order == "pim"
            and props.model is not ConsistencyModel.SCOPE_RELAXED):
        # Only the scope-relaxed model lets same-scope accesses reorder
        # around a (queued) PIM op; everyone else, including the
        # baselines, keeps write-buffer order here -- the baselines'
        # brokenness lives in the missing flush atomicity, not in
        # out-of-order write buffers.
        return False
    if mtype is not MessageType.PIM_OP and msg.scope in fenced_scopes:
        # Scope-fence ordering: same-scope ops wait for its ACK.  PIM ops
        # are ordered behind the fence by the request path itself (they
        # follow it through every cache level), so they need not wait.
        return False

    holds = props.entry_point_holds
    if holds == "none":
        return True
    if holds == "all":
        # Atomic: the core already serializes around PIM ops; the entry
        # point never holds anything extra.
        return True
    if holds == "stores":
        # TSO store semantics: PIM ops order like stores, so stores,
        # flushes, scope fences and further PIM ops wait behind a pending
        # PIM op; loads to *other* scopes may bypass it.
        if not pending_pim_scopes:
            return True
        if mtype is MessageType.LOAD:
            return msg.scope not in pending_pim_scopes
        return False
    if holds == "same-scope":
        return msg.scope not in pending_pim_scopes
    raise ValueError(f"unknown hold class {holds!r}")
