"""Tests for links: serialization, propagation, accounting, rate-capped queues."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Host
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue, PacketQueue


class Recorder(Host):
    """A host that records packet arrival times."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def receive(self, packet, from_link):
        self.arrivals.append((self.sim.now, packet))


def build_link(sim, capacity_bps=1e6, delay_s=0.01, queue=None):
    src = Recorder(sim, "src")
    dst = Recorder(sim, "dst")
    link = Link(sim, src, dst, capacity_bps, delay_s, queue=queue)
    return src, dst, link


def test_single_packet_delivery_time():
    sim = Simulator()
    _, dst, link = build_link(sim, capacity_bps=1e6, delay_s=0.01)
    link.send(Packet(src="src", dst="dst", size_bytes=1250))  # 10 ms serialization
    sim.run()
    assert len(dst.arrivals) == 1
    assert dst.arrivals[0][0] == pytest.approx(0.02, abs=1e-9)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    _, dst, link = build_link(sim, capacity_bps=1e6, delay_s=0.0)
    for _ in range(3):
        link.send(Packet(src="src", dst="dst", size_bytes=1250))
    sim.run()
    times = [t for t, _ in dst.arrivals]
    assert times == pytest.approx([0.01, 0.02, 0.03])


def test_throughput_limited_by_capacity():
    sim = Simulator()
    _, dst, link = build_link(sim, capacity_bps=1e6, delay_s=0.0,
                              queue=DropTailQueue(capacity_bytes=10**7))
    count = 100
    for _ in range(count):
        link.send(Packet(src="src", dst="dst", size_bytes=1250))
    sim.run()
    # 100 packets * 10 ms each = 1 second of transmission.
    assert sim.now == pytest.approx(1.0)
    assert link.bytes_delivered == count * 1250


def test_queue_overflow_drops_and_counts():
    sim = Simulator()
    queue = DropTailQueue(capacity_bytes=3 * 1500)
    _, dst, link = build_link(sim, capacity_bps=1e5, delay_s=0.0, queue=queue)
    for _ in range(10):
        link.send(Packet(src="src", dst="dst", size_bytes=1500))
    sim.run()
    assert link.drop_rate > 0
    assert len(dst.arrivals) < 10
    assert link.packets_offered == 10


def test_utilization_accounting():
    sim = Simulator()
    _, _, link = build_link(sim, capacity_bps=1e6, delay_s=0.0)
    link.send(Packet(src="src", dst="dst", size_bytes=12500))  # 0.1 s of a 1 Mbps link
    sim.run(until=1.0)
    assert link.utilization(since=0.0, now=1.0) == pytest.approx(0.1, rel=0.01)


def test_invalid_parameters_rejected():
    sim = Simulator()
    src, dst = Recorder(sim, "a"), Recorder(sim, "b")
    with pytest.raises(ValueError):
        Link(sim, src, dst, capacity_bps=0)
    with pytest.raises(ValueError):
        Link(sim, src, dst, capacity_bps=1e6, delay_s=-1)


class PacedQueue(PacketQueue):
    """A queue that withholds packets until a fixed ready time (cap modelling)."""

    def __init__(self, ready_at, sim):
        super().__init__()
        self.ready_at = ready_at
        self.sim = sim
        self._items = []

    def enqueue(self, packet):
        self._items.append(packet)
        self.stats.record_enqueue(packet)
        return True

    def dequeue(self):
        if self.sim.now < self.ready_at or not self._items:
            return None
        packet = self._items.pop(0)
        self.stats.record_dequeue(packet)
        return packet

    def time_until_ready(self):
        return max(self.ready_at - self.sim.now, 0.0) or None

    def __len__(self):
        return len(self._items)

    @property
    def byte_length(self):
        return sum(p.size_bytes for p in self._items)


def test_link_polls_rate_capped_queue_via_time_until_ready():
    sim = Simulator()
    src = Recorder(sim, "src")
    dst = Recorder(sim, "dst")
    queue = PacedQueue(ready_at=1.0, sim=sim)
    link = Link(sim, src, dst, capacity_bps=1e6, delay_s=0.0, queue=queue)
    link.send(Packet(src="src", dst="dst", size_bytes=1250))
    sim.run(until=5.0)
    # Without the poke mechanism the packet would be stuck forever.
    assert len(dst.arrivals) == 1
    assert dst.arrivals[0][0] >= 1.0


def test_default_queue_sized_to_200ms():
    sim = Simulator()
    _, _, link = build_link(sim, capacity_bps=8e6)
    # 0.2 s * 8 Mbps / 8 = 200 KB (the paper's Qlim).
    assert link.queue.capacity_bytes == pytest.approx(200_000)


def test_link_name_defaults_to_endpoints():
    sim = Simulator()
    _, _, link = build_link(sim)
    assert link.name == "src->dst"


class Forwarder(Recorder):
    """A middle node that records each arrival and forwards it on ``out``."""

    out = None

    def receive(self, packet, from_link):
        super().receive(packet, from_link)
        self.out.send(packet)


def test_arrival_tied_with_transmission_end_finds_the_freed_slot():
    """The tie-order contract a pre-scheduled delivery would break.

    ``up`` dequeues ``x`` at t=0, before ``down`` dequeues ``p1`` at t=0.25,
    but ends ``x``'s transmission at 0.5, after it.  So ``x`` reaches the
    middle node at 0.5 + 0.75 = 1.25, the same instant ``p1`` ends its 1 s
    transmission on ``down`` (all times binary-exact).  The end was
    scheduled first, so it runs first: ``p2`` leaves the one-packet queue
    and ``x`` takes its place instead of being dropped.
    """
    sim = Simulator()
    src, mid, dst = Recorder(sim, "src"), Forwarder(sim, "mid"), Recorder(sim, "dst")
    up = Link(sim, src, mid, capacity_bps=16_000, delay_s=0.75)
    down = Link(sim, mid, dst, capacity_bps=8_000, delay_s=0.125,
                queue=DropTailQueue(capacity_bytes=1000))
    mid.out = down
    ends = []
    down.transmit_tap = lambda packet, link: ends.append((sim.now, packet.flow_id))
    x, p1, p2 = (Packet(src="src", dst="dst", size_bytes=1000, flow_id=f)
                 for f in ("x", "p1", "p2"))
    up.send(x)
    sim.schedule(0.25, down.send, p1)
    sim.schedule(0.25, down.send, p2)
    sim.run(until=10.0)
    assert mid.arrivals[0][0] == ends[0][0] == 1.25
    assert ends[0][1] == "p1"
    assert down.queue.stats.dropped == 0
    assert [p.flow_id for _, p in dst.arrivals] == ["p1", "p2", "x"]
