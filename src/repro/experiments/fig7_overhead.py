"""Fig. 7 — per-packet processing overhead micro-benchmark.

The paper benchmarks its Linux/Click prototype on Deterlab and reports
nanoseconds per packet for request/regular packets at access and bottleneck
routers, with and without an attack, for NetFence and TVA+.  A Python
reimplementation cannot reproduce the absolute numbers; what this experiment
preserves is the *structure* of the table:

* which operations are free (bottleneck routers do nothing per packet when no
  attack is present),
* which operations cost more (access routers must validate and re-stamp
  feedback on every regular packet; attack time adds rate-limiter work),
* and that NetFence's per-packet cost is on par with TVA+'s.

Each row of the returned table measures one (packet type, router type,
attack state, system) combination by pushing synthetic packets through the
same code path the simulations use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

from repro.experiments.sweep import ScenarioSpec, register_point

from repro.baselines.tva import Capability, TvaRouter, tva_queue_factory
from repro.core.access import NetFenceAccessRouter
from repro.core.bottleneck import NetFenceRouter, netfence_queue_factory
from repro.core.domain import NetFenceDomain
from repro.core.endhost import NetFenceEndHost
from repro.core.header import NetFenceHeader
from repro.core.params import NetFenceParams
from repro.crypto.mac import compute_mac
from repro.simulator.packet import Packet, PacketType, REQUEST_PACKET_SIZE
from repro.simulator.topology import Topology


@dataclass
class OverheadRow:
    """One row of the Fig. 7 table."""

    system: str          # "netfence" | "tva+"
    packet_type: str     # "request" | "regular"
    router_type: str     # "access" | "bottleneck"
    attack: bool
    ns_per_packet: float

    def as_tuple(self) -> tuple:
        return (self.system, self.packet_type, self.router_type, self.attack,
                round(self.ns_per_packet, 1))


class _NetFenceOverheadRig:
    """A two-router NetFence deployment driven directly (no event loop)."""

    def __init__(self, attack: bool) -> None:
        self.params = NetFenceParams()
        self.domain = NetFenceDomain(params=self.params, master=b"fig7")
        self.topo = Topology()
        sim = self.topo.clock
        self.topo.add_host("src", as_name="AS-src")
        self.topo.add_host("dst", as_name="AS-dst")
        self.access = self.topo.add_router(
            "Ra", as_name="AS-src", router_cls=NetFenceAccessRouter, domain=self.domain
        )
        self.bottleneck = self.topo.add_router(
            "Rb", as_name="AS-core", router_cls=NetFenceRouter, domain=self.domain,
            force_mon=attack,
        )
        queue_factory = netfence_queue_factory(sim, self.params)
        self.topo.add_duplex_link("src", "Ra", 1e9, 0.001)
        self.topo.add_duplex_link("Ra", "Rb", 1e9, 0.001, queue_factory=queue_factory)
        self.topo.add_duplex_link("Rb", "dst", 1e9, 0.001, queue_factory=queue_factory)
        self.topo.finalize()
        self.attack = attack
        self.out_link = self.topo.link_between("Rb", "dst")
        self.bneck_link = self.topo.link_between("Ra", "Rb")
        if attack:
            self.bottleneck.mark_overloaded(self.out_link.name)
        self.src_link = self.topo.link_between("src", "Ra")
        self.endhost = NetFenceEndHost(sim, self.topo.host("src"), params=self.params)

    # -- packet factories ---------------------------------------------------------
    def request_packet(self) -> Packet:
        packet = Packet(src="src", dst="dst", size_bytes=REQUEST_PACKET_SIZE,
                        ptype=PacketType.REQUEST, flow_id="bench", src_as="AS-src")
        packet.set_header("netfence", NetFenceHeader(priority=1))
        packet.priority = 1
        return packet

    def regular_packet(self) -> Packet:
        packet = Packet(src="src", dst="dst", size_bytes=1500,
                        ptype=PacketType.REGULAR, flow_id="bench", src_as="AS-src")
        now = self.topo.clock.now
        if self.attack:
            feedback = self.access.stamper.stamp_incr("src", "dst", self.out_link.name, now)
        else:
            feedback = self.access.stamper.stamp_nop("src", "dst", now)
        packet.set_header("netfence", NetFenceHeader(feedback=feedback))
        return packet

    # -- per-packet operations under test ----------------------------------------------
    def access_op(self, packet: Packet) -> None:
        self.access.admit_from_host(packet, self.src_link)

    def bottleneck_op(self, packet: Packet) -> None:
        self.bottleneck.before_enqueue(packet, self.out_link)


class _TvaOverheadRig:
    """The equivalent rig for the TVA+ baseline."""

    def __init__(self, attack: bool) -> None:
        self.topo = Topology()
        sim = self.topo.clock
        self.topo.add_host("src", as_name="AS-src")
        self.topo.add_host("dst", as_name="AS-dst")
        self.access = self.topo.add_router("Ra", as_name="AS-src", router_cls=TvaRouter)
        self.core = self.topo.add_router("Rb", as_name="AS-core", router_cls=TvaRouter)
        self.topo.add_duplex_link("src", "Ra", 1e9, 0.001)
        self.topo.add_duplex_link("Ra", "Rb", 1e9, 0.001,
                                  queue_factory=tva_queue_factory(sim))
        self.topo.add_duplex_link("Rb", "dst", 1e9, 0.001)
        self.topo.finalize()
        self.attack = attack
        self.src_link = self.topo.link_between("src", "Ra")
        self.out_link = self.topo.link_between("Rb", "dst")
        secret = b"tva-bench"
        self.capability = Capability(
            sender="src", receiver="dst", token=compute_mac(secret, "src", "dst")
        )

    def request_packet(self) -> Packet:
        return Packet(src="src", dst="dst", size_bytes=REQUEST_PACKET_SIZE,
                      ptype=PacketType.REQUEST, flow_id="bench", src_as="AS-src")

    def regular_packet(self) -> Packet:
        packet = Packet(src="src", dst="dst", size_bytes=1500,
                        ptype=PacketType.REGULAR, flow_id="bench", src_as="AS-src")
        packet.set_header("tva", self.capability)
        return packet

    def access_op(self, packet: Packet) -> None:
        self.access.admit_from_host(packet, self.src_link)
        # TVA+ access routers also validate the capability MAC per packet.
        cap = packet.get_header("tva")
        if cap is not None:
            compute_mac(b"tva-bench", cap.sender, cap.receiver)

    def bottleneck_op(self, packet: Packet) -> None:
        self.core.on_transit(packet, None)
        self.core.before_enqueue(packet, self.out_link)


def _time_operation(make_packet: Callable[[], Packet],
                    operation: Callable[[Packet], None],
                    iterations: int) -> float:
    """Average wall-clock nanoseconds per operation."""
    packets = [make_packet() for _ in range(iterations)]
    # Fig. 7 *measures* real per-operation wall time (header/MAC processing
    # cost, §6.2) — the one experiment where wall-clock reads are the point.
    start = time.perf_counter()  # nf: disable=NF002
    for packet in packets:
        operation(packet)
    elapsed = time.perf_counter() - start  # nf: disable=NF002
    return elapsed / iterations * 1e9


@register_point("fig7")
def run_point(attack: bool, iterations: int = 2000, seed: int = 1) -> List[OverheadRow]:
    """Measure every (system, packet, router) combination for one attack state.

    The micro-benchmark is deterministic apart from wall-clock noise; ``seed``
    is accepted for sweep-engine uniformity but unused.  Because the rows are
    wall-clock *measurements*, run them serially (``--jobs 1``) and uncached
    when the absolute ns/pkt numbers matter: concurrent simulation workers
    inflate them and a cache replays numbers from a different machine/load.
    """
    rows: List[OverheadRow] = []
    nf = _NetFenceOverheadRig(attack)
    rows.append(OverheadRow("netfence", "request", "bottleneck", attack,
                            _time_operation(nf.request_packet, nf.bottleneck_op, iterations)))
    rows.append(OverheadRow("netfence", "request", "access", attack,
                            _time_operation(nf.request_packet, nf.access_op, iterations)))
    rows.append(OverheadRow("netfence", "regular", "bottleneck", attack,
                            _time_operation(nf.regular_packet, nf.bottleneck_op, iterations)))
    rows.append(OverheadRow("netfence", "regular", "access", attack,
                            _time_operation(nf.regular_packet, nf.access_op, iterations)))
    tva = _TvaOverheadRig(attack)
    rows.append(OverheadRow("tva+", "request", "bottleneck", attack,
                            _time_operation(tva.request_packet, tva.bottleneck_op, iterations)))
    rows.append(OverheadRow("tva+", "regular", "access", attack,
                            _time_operation(tva.regular_packet, tva.access_op, iterations)))
    return rows


def grid(iterations: int = 2000, seed: int = 1) -> List[ScenarioSpec]:
    """The Fig. 7 grid: one spec per attack state."""
    return [ScenarioSpec.make("fig7", seed=seed, attack=attack, iterations=iterations)
            for attack in (False, True)]


def format_table(rows: List[OverheadRow]) -> str:
    lines = ["Fig. 7 — router processing overhead (ns/pkt, Python reimplementation)"]
    lines.append(f"{'system':10s} {'packet':8s} {'router':11s} {'attack':7s} {'ns/pkt':>10s}")
    for row in rows:
        lines.append(
            f"{row.system:10s} {row.packet_type:8s} {row.router_type:11s} "
            f"{'yes' if row.attack else 'no':7s} {row.ns_per_packet:10.1f}"
        )
    return "\n".join(lines)
