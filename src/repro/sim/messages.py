"""Memory-system messages exchanged by timing-model components.

A single :class:`Message` class (with ``__slots__`` -- these are the hottest
allocations in the simulator) covers requests travelling core -> memory and
responses travelling back.  ``reply_to`` carries the object that receives
the response (the issuing core's load/store unit or entry point), so the
response path needs no address-based routing tables.
"""

from __future__ import annotations

import enum
from typing import Any, Optional


class MessageType(enum.Enum):
    """Request and response message kinds."""

    LOAD = enum.auto()
    STORE = enum.auto()
    #: Explicit cache-line flush (clflush), used by the SW-Flush baseline.
    FLUSH = enum.auto()
    PIM_OP = enum.auto()
    #: Scope-fence of the scope-relaxed model; scans/flushes every cache
    #: level on its path and terminates at the LLC.
    SCOPE_FENCE = enum.auto()
    #: Dirty-line writeback (L1 -> LLC, or LLC -> memory controller).
    WRITEBACK = enum.auto()
    # --- responses ---
    LOAD_RESP = enum.auto()
    STORE_ACK = enum.auto()
    FLUSH_ACK = enum.auto()
    #: Memory controller acknowledging that a PIM op has been ordered.
    PIM_ACK = enum.auto()
    SCOPE_FENCE_ACK = enum.auto()


class Message:
    """One request or response in flight through the memory system.

    Attributes:
        mtype: message kind.
        addr: line-aligned byte address (loads/stores/flushes/writebacks);
            for PIM ops and scope fences, the scope's base address.
        scope: scope id for PIM-enabled addresses, else ``None``.
        core: id of the originating core (responses keep the requester's).
        reply_to: object offered the response (must have ``receive_response``).
        exclusive: request needs write permission (store miss / upgrade).
        uncacheable: bypass the caches (uncacheable baseline).
        direct: PIM op that skips LLC scan/flush (naive & SW-flush
            baselines forward PIM ops untouched).
        version: version tag of the data returned by a load response, used
            by the stale-read detector.
        op_id: the message's id in a trace; 0 until a run's tracer
            first records the message and numbers it (untraced runs
            leave it 0).
        req: for responses, the request message being answered.
    """

    __slots__ = (
        "mtype",
        "addr",
        "scope",
        "core",
        "reply_to",
        "exclusive",
        "uncacheable",
        "direct",
        "version",
        "op_id",
        "req",
    )

    def __init__(
        self,
        mtype: MessageType,
        addr: int = 0,
        scope: Optional[int] = None,
        core: int = 0,
        reply_to: Any = None,
        exclusive: bool = False,
        uncacheable: bool = False,
        direct: bool = False,
        version: int = 0,
    ) -> None:
        self.mtype = mtype
        self.addr = addr
        self.scope = scope
        self.core = core
        self.reply_to = reply_to
        self.exclusive = exclusive
        self.uncacheable = uncacheable
        self.direct = direct
        self.version = version
        self.op_id = 0
        self.req: Optional[Message] = None

    def make_response(self, mtype: MessageType, version: int = 0) -> "Message":
        """Build the response message answering this request.

        The response is a new object: a consumer may keep it (tracers,
        assertions, the stale-read callback) after delivery.  The
        arguments are positional: this is the simulator's hottest
        allocation, and binding ``version`` by keyword made it about 40%
        slower under CPython 3.11.
        """
        resp = Message(mtype, self.addr, self.scope, self.core,
                       self.reply_to, False, False, False, version)
        resp.req = self
        return resp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.mtype.name} id={self.op_id} core={self.core} "
            f"addr={self.addr:#x} scope={self.scope}>"
        )
