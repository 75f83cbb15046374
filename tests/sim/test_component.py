"""Back-pressure and link behaviour of the pipeline building blocks."""

from repro.sim.component import Component, Link, QueuedComponent, ResponseDispatcher
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType


def _msg():
    return Message(MessageType.LOAD, addr=0x1000)


class Sink(QueuedComponent):
    """Consumes everything, records arrival times."""

    def __init__(self, sim, capacity=None, service_interval=1):
        super().__init__(sim, "sink", capacity=capacity,
                         service_interval=service_interval)
        self.received = []

    def handle(self, msg):
        self.received.append((self.sim.now, msg))
        return True


class StuckSink(QueuedComponent):
    """Blocks until released (downstream congestion stand-in)."""

    def __init__(self, sim, capacity=2):
        super().__init__(sim, "stuck", capacity=capacity)
        self.release = False
        self.received = []

    def handle(self, msg):
        if not self.release:
            return False
        self.received.append(msg)
        return True


class Producer(Component):
    def __init__(self, sim, target):
        super().__init__(sim, "producer")
        self.target = target
        self.sent = 0
        self.blocked = 0

    def push(self, msg):
        if self.target.offer(msg, self):
            self.sent += 1
        else:
            self.blocked += 1

    def unblock(self):
        self.unblocked = True


def test_queue_serves_at_service_interval():
    sim = Simulator()
    sink = Sink(sim, service_interval=3)
    for _ in range(3):
        assert sink.offer(_msg())
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == [0, 3, 6]


def test_capacity_rejects_and_wakes_sender():
    sim = Simulator()
    sink = StuckSink(sim, capacity=2)
    producer = Producer(sim, sink)
    producer.push(_msg())
    producer.push(_msg())
    producer.push(_msg())  # rejected: queue full
    assert producer.blocked == 1
    sim.run()
    assert sink.occupancy == 2
    sink.release = True
    sink.unblock()
    sim.run()
    assert len(sink.received) == 2
    assert getattr(producer, "unblocked", False)


def test_handle_retry_after_cycles():
    sim = Simulator()

    class SlowSink(QueuedComponent):
        def __init__(self, sim):
            super().__init__(sim, "slow")
            self.attempts = 0
            self.done_at = None

        def handle(self, msg):
            self.attempts += 1
            if self.attempts < 3:
                return 10  # busy; retry later
            self.done_at = self.sim.now
            return True

    sink = SlowSink(sim)
    sink.offer(_msg())
    sim.run()
    assert sink.attempts == 3
    assert sink.done_at == 20


def test_link_adds_latency_and_preserves_fifo():
    sim = Simulator()
    sink = Sink(sim)
    link = Link(sim, "link", sink, latency=7, service_interval=2)
    msgs = [_msg() for _ in range(3)]
    for m in msgs:
        assert link.offer(m)
    sim.run()
    arrived = [m for _, m in sink.received]
    assert arrived == msgs
    # first serviced at t=0, +7 latency; following spaced by bandwidth
    assert [t for t, _ in sink.received] == [7, 9, 11]


def test_service_interval_beyond_the_wheel_serves_exactly():
    """Intervals of WHEEL_SLOTS or more are scheduled on the heap."""
    sim = Simulator()
    sink = Sink(sim, service_interval=300)
    for _ in range(3):
        assert sink.offer(_msg())
    sim.run()
    assert [t for t, _ in sink.received] == [0, 300, 600]


def test_link_latency_beyond_the_wheel_delivers_exactly():
    """Latencies of WHEEL_SLOTS or more are scheduled on the heap, on
    both delivery paths: into a queue and into a response dispatcher."""
    sim = Simulator()
    sink = Sink(sim)
    link = Link(sim, "link", sink, latency=300, service_interval=2)
    arrivals = []

    class Receiver:
        def receive_response(self, msg):
            arrivals.append(sim.now)

    receiver = Receiver()
    resp_link = Link(sim, "resp", ResponseDispatcher(sim, "d"),
                     latency=300, service_interval=2)
    for _ in range(3):
        assert link.offer(_msg())
        assert resp_link.offer(Message(MessageType.LOAD_RESP,
                                       reply_to=receiver))
    sim.run()
    assert [t for t, _ in sink.received] == [300, 302, 304]
    assert arrivals == [300, 302, 304]


def test_link_backpressure_propagates():
    sim = Simulator()
    sink = StuckSink(sim, capacity=1)
    link = Link(sim, "link", sink, latency=1, capacity=2, pipe_capacity=2)

    sent = []

    class RetryingProducer(Component):
        """Offers one message per cycle, retrying on back-pressure."""

        def __init__(self):
            super().__init__(sim, "p")
            self.remaining = 10

        def tick(self):
            if self.remaining and link.offer(_msg(), self):
                self.remaining -= 1
                sent.append(sim.now)
            if self.remaining:
                sim.schedule(1, self.tick)

        def unblock(self):
            sim.schedule(0, self.tick)

    producer = RetryingProducer()
    sim.schedule(0, producer.tick)
    sim.run(until=200)
    # With the sink stuck, the pipeline holds: 1 in the sink queue,
    # 2 in flight, 2 in the link queue -- the producer is blocked.
    assert producer.remaining == 10 - 5
    sink.release = True
    sink.unblock()
    sim.run()
    assert producer.remaining == 0
    assert len(sink.received) == 10


def test_response_dispatcher_routes_by_reply_to():
    sim = Simulator()

    class Receiver:
        def __init__(self):
            self.got = []

        def receive_response(self, msg):
            self.got.append(msg)

    receiver = Receiver()
    dispatcher = ResponseDispatcher(sim, "d")
    msg = Message(MessageType.LOAD_RESP, reply_to=receiver)
    dispatcher.offer(msg)
    assert receiver.got == [msg]


def test_waiting_senders_are_deduplicated():
    """A sender that retries offer() while the queue is full must be
    parked once: a single wake per unblock, in first-parked order."""
    sim = Simulator()
    sink = StuckSink(sim, capacity=1)
    sink.offer(_msg())
    wakes = []

    class CountingProducer(Component):
        def __init__(self, name):
            super().__init__(sim, name)

        def unblock(self):
            wakes.append(self.name)

    first = CountingProducer("first")
    second = CountingProducer("second")
    for _ in range(3):  # repeated rejected offers: parked exactly once
        assert not sink.offer(_msg(), first)
    assert not sink.offer(_msg(), second)
    assert len(sink._waiting_senders) == 2
    sink.release = True
    sink.unblock()
    sim.run()
    assert wakes[:2] == ["first", "second"]  # wake order = park order
