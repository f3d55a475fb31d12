"""Point-to-point links with bandwidth, propagation delay, and a queue.

A :class:`Link` is unidirectional: it carries packets from ``src_node`` to
``dst_node``.  The :class:`repro.simulator.topology.Topology` helper creates
one link per direction so that duplex links behave as two independent
resources (as in ns-2).

Transmission model: when a packet reaches the head of the output queue, the
link is busy for ``size_bytes * 8 / capacity_bps`` seconds (serialization),
then the packet is delivered to ``dst_node.receive`` after ``delay_s``
seconds of propagation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue, PacketQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.simulator.node import Node


class Link:
    """A unidirectional link.

    Args:
        sim: the simulation engine.
        src_node: upstream node (owns the output queue).
        dst_node: downstream node (receives delivered packets).
        capacity_bps: link capacity in bits per second.
        delay_s: one-way propagation delay in seconds.
        queue: output queue; defaults to a DropTail queue sized to
            0.2 s × capacity (the paper's ``Qlim``, Fig. 3).
        name: optional human-readable identifier; defaults to
            ``"src->dst"``.  This is also the link identifier (``L``) that
            NetFence embeds in its congestion policing feedback.
    """

    def __init__(
        self,
        sim: Simulator,
        src_node: "Node",
        dst_node: "Node",
        capacity_bps: float,
        delay_s: float = 0.01,
        queue: Optional[PacketQueue] = None,
        name: Optional[str] = None,
    ) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        if delay_s < 0:
            raise ValueError("delay_s cannot be negative")
        self.sim = sim
        self.src_node = src_node
        self.dst_node = dst_node
        self.capacity_bps = capacity_bps
        self.delay_s = delay_s
        if queue is None:
            qlim_bytes = max(int(0.2 * capacity_bps / 8), 2 * 1500)
            queue = DropTailQueue(capacity_bytes=qlim_bytes)
        self.queue = queue
        self.name = name or f"{src_node.name}->{dst_node.name}"
        self._busy = False
        self._poke_pending = False
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.bytes_offered = 0
        self.packets_offered = 0
        #: Optional per-packet trace hooks, called as ``tap(packet, link)``
        #: when a packet finishes serialization / is delivered downstream.
        #: ``None`` (the default) keeps the transmit path hook-free — the
        #: fast path is a single attribute test per packet.
        self.transmit_tap: Optional[Callable[[Packet, "Link"], None]] = None
        self.deliver_tap: Optional[Callable[[Packet, "Link"], None]] = None
        #: Cached once: whether the queue is rate-capped (exposes
        #: ``time_until_ready``), so the drain path skips the ``getattr``.
        self._time_until_ready = getattr(queue, "time_until_ready", None)
        #: Bound-method caches: one attribute load instead of two on the
        #: per-packet paths (the queue object is fixed for the link's
        #: lifetime; nothing in-tree ever swaps ``link.queue``).
        self._schedule_fast = sim.schedule_fast
        self._enqueue = queue.enqueue
        self._dequeue = queue.dequeue

    # -- transmission -------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Offer a packet to the link (called by the upstream node)."""
        self.bytes_offered += packet.size_bytes
        self.packets_offered += 1
        accepted = self._enqueue(packet)
        if accepted and not self._busy:
            self._start_next_transmission()

    def _start_next_transmission(self) -> None:
        packet = self._dequeue()
        if packet is None:
            self._busy = False
            self._schedule_poke_if_needed()
            return
        self._busy = True
        # Time to clock the packet onto the wire, computed inline (this runs
        # once per packet-hop); scheduled on the no-handle fast path —
        # transmission-end events are never cancelled.
        tx_time = packet.size_bytes * 8.0 / self.capacity_bps
        self._schedule_fast(tx_time, self._finish_transmission, (packet,))

    def _schedule_poke_if_needed(self) -> None:
        # Rate-capped queues (e.g. NetFence's 5 % request channel) can hold
        # packets while refusing to release one right now.  Ask the queue when
        # to try again so the link does not stall forever.
        time_until_ready = self._time_until_ready
        if time_until_ready is None or self._poke_pending or len(self.queue) == 0:
            return
        wait = time_until_ready()
        if wait is None:
            return
        self._poke_pending = True
        self.sim.schedule_fast(max(wait, 1e-6), self._poke)

    def _poke(self) -> None:
        self._poke_pending = False
        if not self._busy:
            self._start_next_transmission()

    def _finish_transmission(self, packet: Packet) -> None:
        """End a transmission; scheduled at dequeue, it runs before tied arrivals.

        So an arrival at this instant whose upstream transmission ended later
        finds the slot freed and is accepted.  Pre-scheduling each delivery at
        dequeue would drop that arrival, which is why this event stays.
        """
        self.bytes_delivered += packet.size_bytes
        self.packets_delivered += 1
        if self.transmit_tap is not None:
            self.transmit_tap(packet, self)
        # Delivery events are never cancelled either; with no deliver tap
        # attached, skip the _deliver wrapper frame and hand the packet
        # straight to the downstream node's receive.
        if self.deliver_tap is None:
            self._schedule_fast(self.delay_s, self.dst_node.receive, (packet, self))
        else:
            self._schedule_fast(self.delay_s, self._deliver, (packet,))
        self._start_next_transmission()

    def _deliver(self, packet: Packet) -> None:
        if self.deliver_tap is not None:
            self.deliver_tap(packet, self)
        self.dst_node.receive(packet, self)

    # -- accounting ----------------------------------------------------------
    def utilization(self, since: float = 0.0, now: Optional[float] = None) -> float:
        """Average utilization of the link between ``since`` and ``now``."""
        now = self.sim.now if now is None else now
        elapsed = max(now - since, 1e-12)
        return min(1.0, (self.bytes_delivered * 8.0) / (self.capacity_bps * elapsed))

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets the output queue dropped."""
        return self.queue.stats.drop_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.capacity_bps / 1e6:.1f} Mbps, {self.delay_s * 1e3:.0f} ms)"
