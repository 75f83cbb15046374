"""Pipeline components with bounded, back-pressured input queues.

Every stage of the simulated memory system (caches, network links, memory
controller, PIM module) is a :class:`QueuedComponent`: a bounded FIFO input
queue served at a fixed rate.  Back-pressure is explicit -- when a queue is
full the producer's :meth:`~QueuedComponent.offer` fails, the producer
stalls, and it is woken with :meth:`unblock` once space frees up.  This is
the mechanism behind the paper's central observation: when the PIM module's
buffer fills, back-pressure propagates up to the host cores (Section VII).

``handle`` protocol (subclasses implement :meth:`QueuedComponent.handle`):

* return ``True``  -- message consumed; the queue advances.
* return ``False`` -- blocked on a downstream queue; the component stalls
  until some downstream calls :meth:`unblock`.
* return ``int n > 0`` -- busy for ``n`` cycles (e.g. an LLC scan), after
  which ``handle`` is invoked again for the same message.

Hot-path notes: service kick-offs and wake-ups ride the kernel's
immediate-dispatch ring (:meth:`Simulator.call_at_now`), never the heap;
the per-message service and delivery events go through
:meth:`Simulator.schedule`, which picks the wheel or heap tier from the
delay; parked senders are kept in an insertion-ordered dict so the
full-queue path is O(1) instead of a list-membership scan.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from repro.sim.kernel import Simulator
from repro.sim.messages import Message


class Component:
    """Base class: anything that lives in a simulation and has a name.

    The component hierarchy declares ``__slots__``: the hot loops load
    these attributes once per event, and slot descriptors keep that a
    fixed-offset read.  Subclasses that declare their own attributes
    (caches, cores, the MC) simply omit ``__slots__`` and get a dict for
    the extras while the base attributes stay slotted.
    """

    __slots__ = ("sim", "name", "_trace")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        # Observability hook: a Tracer when this run records an event
        # ring, else None.  The builder attaches it; every hot path
        # guards on ``is not None`` so tracing off costs one slot read.
        self._trace = None

    def unblock(self) -> None:
        """Called by a downstream component when its queue has space."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class QueuedComponent(Component):
    """A component with a bounded input queue served at a fixed rate.

    Args:
        capacity: queue depth; ``None`` means unbounded (used for the
            Fig. 11a unbounded-PIM-buffer experiment).
        service_interval: cycles between serving consecutive messages
            (the stage's inverse bandwidth).
    """

    __slots__ = ("capacity", "service_interval", "_queue",
                 "_waiting_senders", "_serving", "_stalled",
                 "_notify_dequeue", "_serve_bound")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: Optional[int] = None,
        service_interval: int = 1,
    ) -> None:
        super().__init__(sim, name)
        self.capacity = capacity
        self.service_interval = service_interval
        self._queue: deque = deque()
        # Insertion-ordered dedup of parked senders: dict membership is
        # O(1) where the old list scan was O(n), and iteration preserves
        # first-parked-first-woken order.
        self._waiting_senders: dict = {}
        self._serving = False
        self._stalled = False
        # Skip the on_dequeue hook call entirely for the (common)
        # subclasses that don't override it.
        self._notify_dequeue = (
            type(self).on_dequeue is not QueuedComponent.on_dequeue
        )
        # The service callback is pushed once per message; binding it
        # here (virtual dispatch included) skips the per-push method
        # object creation.
        self._serve_bound = self._serve

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #

    def offer(self, msg: Message, sender: Optional[Component] = None) -> bool:
        """Try to enqueue ``msg``; on failure the sender is parked.

        Returns ``True`` if accepted.  When ``False`` is returned the
        sender (if given) will get an :meth:`unblock` call once space
        frees; it must then retry the offer.
        """
        queue = self._queue
        capacity = self.capacity
        if capacity is not None and len(queue) >= capacity:
            if sender is not None:
                self._waiting_senders[sender] = None
            return False
        queue.append(msg)
        if not self._serving and not self._stalled:
            self._serving = True
            self.sim.call_at_now(self._serve_bound)
        return True

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #

    def handle(self, msg: Message) -> Union[bool, int]:
        """Process the head-of-queue message (see module docstring)."""
        raise NotImplementedError

    def unblock(self) -> None:
        """A downstream queue freed space: resume serving."""
        if self._stalled:
            self._stalled = False
            if not self._serving:
                self._serving = True
                self.sim.call_at_now(self._serve_bound)

    def _serve(self) -> None:
        queue = self._queue
        trace = self._trace
        # Loop inline over ready work: a zero-interval stage (and the
        # first message after an idle gap) is served without bouncing
        # through the scheduler again.
        while True:
            if not queue:
                self._serving = False
                return
            msg = queue[0]
            result = self.handle(msg)
            if result is True:
                if trace is not None:
                    trace.record(self.sim.now, self.name, msg.mtype.name, msg)
                queue.popleft()
                if self._notify_dequeue:
                    self.on_dequeue()
                if self._waiting_senders:
                    self._wake_senders()
                if not queue:
                    self._serving = False
                    return
                if self.service_interval:
                    self.sim.schedule(self.service_interval, self._serve_bound)
                    return
            elif result is False:
                self._serving = False
                self._stalled = True
                return
            else:
                self.sim.schedule(result, self._serve_bound)
                return

    def on_dequeue(self) -> None:
        """Hook: called after the head message is consumed."""

    def _wake_senders(self) -> None:
        waiters = self._waiting_senders
        self._waiting_senders = {}
        for waiter in waiters:
            waiter.unblock()


class Link(QueuedComponent):
    """A latency + bandwidth pipe between two components.

    Messages are accepted into a bounded input queue, serviced one per
    ``service_interval`` cycles (the link bandwidth), spend ``latency``
    cycles in flight, and are then offered downstream.  If the downstream
    queue is full, delivery stalls in arrival order and back-pressure
    propagates to the input queue.

    A link without a downstream is the response network: it hands each
    message to its ``reply_to``.  Response consumers (cores, entry
    points) always accept; they model their own capacity internally
    (e.g. MLP limits are enforced at issue time, not at delivery).
    """

    __slots__ = ("downstream", "latency", "pipe_capacity", "_in_flight",
                 "_delivering", "_try_deliver_bound")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        downstream: Optional[Component],
        latency: int = 1,
        service_interval: int = 1,
        capacity: Optional[int] = 8,
        pipe_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name, capacity=capacity, service_interval=service_interval)
        self.downstream = downstream
        self.latency = latency
        self.pipe_capacity = pipe_capacity or max(2, latency)
        self._in_flight: deque = deque()
        self._delivering = False
        self._try_deliver_bound = self._try_deliver

    def _serve(self) -> None:
        # Fuses QueuedComponent._serve with what Link.handle would do
        # (links carry every message in the system, so the service stage
        # skips the generic handle() dispatch): accept the head message
        # into the in-flight pipe unless the pipe is at capacity, in
        # which case stall until a delivery completes.  This override is
        # the Link's only service path -- there is deliberately no
        # separate handle() to keep the logic in one place.
        sim = self.sim
        queue = self._queue
        in_flight = self._in_flight
        pipe_capacity = self.pipe_capacity
        latency = self.latency
        while True:
            if not queue:
                self._serving = False
                return
            if len(in_flight) >= pipe_capacity:
                self._serving = False
                self._stalled = True
                return
            in_flight.append((sim.now + latency, queue.popleft()))
            if not self._delivering:
                self._delivering = True
                sim.schedule(latency, self._try_deliver_bound)
            if self._waiting_senders:
                self._wake_senders()
            if not queue:
                self._serving = False
                return
            if self.service_interval:
                sim.schedule(self.service_interval, self._serve_bound)
                return

    def _try_deliver(self) -> None:
        in_flight = self._in_flight
        sim = self.sim
        now = sim.now
        trace = self._trace
        if self.downstream is None:
            # The response network: deliver to each message's reply_to.
            while in_flight:
                arrival, msg = in_flight[0]
                if arrival > now:
                    sim.schedule(arrival - now, self._try_deliver_bound)
                    return
                in_flight.popleft()
                if trace is not None:
                    trace.record(now, self.name, msg.mtype.name, msg)
                msg.reply_to.receive_response(msg)
                if self._stalled:
                    QueuedComponent.unblock(self)
            self._delivering = False
            return
        downstream_offer = self.downstream.offer
        while in_flight:
            head = in_flight[0]
            arrival = head[0]
            if arrival > now:
                sim.schedule(arrival - now, self._try_deliver_bound)
                return
            if not downstream_offer(head[1], self):
                # Downstream full: it will call our unblock() when space
                # frees; resume delivering then.
                self._delivering = False
                return
            in_flight.popleft()
            if trace is not None:
                msg = head[1]
                trace.record(now, self.name, msg.mtype.name, msg)
            # Delivering freed pipe space; resume the service stage if it
            # was blocked on pipe capacity.
            if self._stalled:
                QueuedComponent.unblock(self)
        self._delivering = False

    def unblock(self) -> None:
        # Called both by downstream (delivery may resume) and treated as a
        # wake-up for the service stage.
        if self._in_flight and not self._delivering:
            self._delivering = True
            self.sim.call_at_now(self._try_deliver_bound)
        QueuedComponent.unblock(self)
