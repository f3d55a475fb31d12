"""Nodes: hosts and routers.

* :class:`Host` — an end system.  Transport agents (TCP/UDP endpoints)
  register with the host by flow id and get packets dispatched to them.
* :class:`Router` — forwards packets using a static routing table.  The
  NetFence and baseline routers subclass it and override the policing hooks
  (:meth:`Router.admit_from_host` and :meth:`Router.before_enqueue`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Protocol

from repro.simulator.link import Link
from repro.simulator.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.clock import Clock


class PacketAgent(Protocol):
    """Anything that can receive packets addressed to a host."""

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Node:
    """Base class for all network nodes.

    ``clock`` is anything satisfying :class:`repro.runtime.clock.Clock`:
    the discrete-event :class:`~repro.simulator.engine.Simulator` inside
    swept scenarios, or a :class:`~repro.runtime.clock.WallClock` when a
    router subclass polices real datagrams (``runner serve``).
    """

    def __init__(self, clock: "Clock", name: str) -> None:
        self.clock = clock
        self.name = name
        #: Outgoing links keyed by the neighbour node's name.
        self.links: Dict[str, Link] = {}

    @property
    def sim(self) -> "Clock":
        """Backward-compat alias for :attr:`clock`."""
        return self.clock

    def attach_link(self, link: Link) -> None:
        """Register an outgoing link (called by the topology builder)."""
        self.links[link.dst_node.name] = link

    def receive(self, packet: Packet, from_link: Optional[Link]) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """An end system.

    A host belongs to an AS (``as_name``) and reaches the network through a
    single access link.  Transport agents register per flow id; packets whose
    flow id has no agent go to the ``default_agent`` if one is set, otherwise
    they are counted as orphans and discarded.
    """

    def __init__(self, clock: "Clock", name: str, as_name: Optional[str] = None) -> None:
        super().__init__(clock, name)
        self.as_name = as_name
        self._access_link: Optional[Link] = None
        self.agents: Dict[str, PacketAgent] = {}
        self.default_agent: Optional[PacketAgent] = None
        self.orphan_packets = 0
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        #: Shim layers between transport and the network (e.g. the NetFence
        #: end-host module, §6.2).  Outbound filters run on every packet the
        #: host sends; inbound filters run on every packet it receives, before
        #: the packet is dispatched to a transport agent.  A filter returning
        #: ``False`` swallows the packet.
        self.outbound_filters: list[Callable[[Packet], Optional[bool]]] = []
        self.inbound_filters: list[Callable[[Packet], Optional[bool]]] = []

    # -- agents --------------------------------------------------------------
    def add_agent(self, flow_id: str, agent: PacketAgent) -> None:
        self.agents[flow_id] = agent

    def remove_agent(self, flow_id: str) -> None:
        self.agents.pop(flow_id, None)

    # -- I/O -----------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        super().attach_link(link)
        self._access_link = None  # re-validate on next use

    @property
    def access_link(self) -> Link:
        """The host's single uplink to its access router (cached; hosts send
        every packet through it, so the single-uplink check runs once per
        topology change instead of once per packet)."""
        link = self._access_link
        if link is None:
            if len(self.links) != 1:
                raise RuntimeError(
                    f"host {self.name} must have exactly one uplink, has {len(self.links)}"
                )
            link = next(iter(self.links.values()))
            self._access_link = link
        return link

    def send(self, packet: Packet) -> None:
        """Send a packet into the network through the access link."""
        if packet.src_as is None:
            packet.src_as = self.as_name
        packet.created_at = self.clock.now
        for outbound_filter in self.outbound_filters:
            if outbound_filter(packet) is False:
                return
        self.packets_sent += 1
        # Direct slot read with property fallback: one per packet sent.
        link = self._access_link
        if link is None:
            link = self.access_link
        link.send(packet)

    def receive(self, packet: Packet, from_link: Optional[Link]) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        for inbound_filter in self.inbound_filters:
            if inbound_filter(packet) is False:
                return
        agent = self.agents.get(packet.flow_id, self.default_agent)
        if agent is None:
            self.orphan_packets += 1
            return
        agent.on_packet(packet)


class Router(Node):
    """A packet-forwarding router with a static routing table.

    Subclasses implement policing by overriding:

    * :meth:`admit_from_host` — called for packets arriving from a locally
      attached host (i.e. this router is the packet's *access router*).
      Return ``False`` to drop, ``True`` to forward now, or ``None`` when the
      router has taken ownership of the packet (e.g. cached it inside a rate
      limiter for later release).
    * :meth:`before_enqueue` — called just before a packet is placed on an
      output link (both transit and locally originated traffic).  This is
      where NetFence's bottleneck routers stamp congestion policing feedback.
    """

    def __init__(self, clock: "Clock", name: str, as_name: Optional[str] = None) -> None:
        super().__init__(clock, name)
        self.as_name = as_name
        #: destination host name -> outgoing link
        self.routes: Dict[str, Link] = {}
        #: names of hosts directly attached to this router
        self.local_hosts: set[str] = set()
        self.packets_forwarded = 0
        self.packets_dropped = 0
        #: optional tap called for every packet this router forwards
        self.forward_tap: Optional[Callable[[Packet, Link], None]] = None

    # -- routing --------------------------------------------------------------
    def add_route(self, dst_host: str, link: Link) -> None:
        self.routes[dst_host] = link

    def register_local_host(self, host_name: str) -> None:
        self.local_hosts.add(host_name)

    def route_for(self, packet: Packet) -> Optional[Link]:
        return self.routes.get(packet.dst)

    # -- hooks ----------------------------------------------------------------
    def admit_from_host(self, packet: Packet, from_link: Optional[Link]) -> Optional[bool]:
        """Access-router policing hook.  Default: admit everything."""
        return True

    def before_enqueue(self, packet: Packet, out_link: Link) -> bool:
        """Per-output-link hook.  Default: pass everything through."""
        return True

    def on_transit(self, packet: Packet, from_link: Optional[Link]) -> bool:
        """Hook for transit packets (not from a local host).  Default: admit."""
        return True

    # -- forwarding -------------------------------------------------------------
    def receive(self, packet: Packet, from_link: Optional[Link]) -> None:
        # Did the packet enter the network here?  Tested inline because this
        # dispatch runs for every packet arriving at every router; the set
        # test comes first since transit routers have no local hosts.
        if packet.src in self.local_hosts and (
            from_link is None or isinstance(from_link.src_node, Host)
        ):
            verdict = self.admit_from_host(packet, from_link)
            if verdict is None:
                return  # the policing layer owns the packet now
            if not verdict:
                self.packets_dropped += 1
                return
        else:
            if not self.on_transit(packet, from_link):
                self.packets_dropped += 1
                return
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """Push the packet toward its destination (post-policing)."""
        # Inlined route_for(): one dict lookup per forwarded packet.
        out_link = self.routes.get(packet.dst)
        if out_link is None:
            self.packets_dropped += 1
            return
        if not self.before_enqueue(packet, out_link):
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        if self.forward_tap is not None:
            self.forward_tap(packet, out_link)
        out_link.send(packet)
