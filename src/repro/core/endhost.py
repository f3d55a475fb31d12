"""The NetFence end-host module (the shim between transport and IP, §6.2).

Senders and receivers do not implement any trusted functionality — the shim
only moves feedback around:

* On the **send** path it attaches a NetFence header: the freshest valid
  feedback it holds for the destination (presenting ``L↑`` even when newer
  ``L↓`` exists, as §4.3.4 recommends for legitimate senders), plus the
  *return* feedback for the reverse direction.  When it has no fresh
  feedback it marks the packet as a request packet and picks a priority
  level from how long it has been waiting (§4.2, the LazySusan-style
  waiting-time priority).
* On the **receive** path it records the forward feedback carried by the
  packet (to be returned later) and absorbs any returned feedback destined
  for this host's own flows.
* The **capability** use of §3.3 is a return policy: a victim that has
  identified unwanted senders simply refuses to return feedback to them, so
  they can never send valid regular packets.
* One-way transports (UDP) have no reverse traffic to piggyback on, so the
  shim can emit dedicated low-rate feedback packets (§3.1 step 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.feedback import Feedback
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.core.params import NetFenceParams
from repro.runtime.clock import Clock
from repro.simulator.engine import PeriodicTimer
from repro.simulator.node import Host
from repro.simulator.packet import Packet, PacketType

#: Size of a dedicated feedback packet (40 B transport/IP + 28 B NetFence).
FEEDBACK_PACKET_SIZE = 68


class ReturnPolicy:
    """Decides whether feedback is returned to a given peer (§3.3).

    The default returns feedback to everyone.  A DoS victim that can identify
    attack traffic blocks the attackers' addresses, which withholds their
    capability tokens and confines them to the request channel.
    """

    def __init__(self, blocked: Optional[Set[str]] = None) -> None:
        self.blocked: Set[str] = set(blocked or ())

    def allows(self, peer: str) -> bool:
        return peer not in self.blocked

    def block(self, peer: str) -> None:
        self.blocked.add(peer)


@dataclass
class _PeerFeedbackState:
    """Feedback bookkeeping for one remote peer (or one peer+flow)."""

    peer_name: str = ""
    # Feedback this host may present to its access router (learned from the
    # peer's return headers / feedback packets).
    latest_nop: Optional[Feedback] = None
    latest_incr: Optional[Feedback] = None
    latest_decr: Optional[Feedback] = None
    # Forward feedback observed in packets *from* the peer, awaiting return.
    to_return: Optional[Feedback] = None
    returned_dirty: bool = False
    # Request-channel bookkeeping.
    last_request_time: Optional[float] = None


class NetFenceEndHost:
    """Attach NetFence send/receive behaviour to a :class:`Host`.

    Args:
        clock: the driving clock — a Simulator in swept scenarios, a
            WallClock when the shim fronts a real socket (runner loadgen).
        host: the host to instrument.
        params: NetFence parameters.
        return_policy: which peers get their feedback returned.
        send_feedback_packets: emit dedicated feedback packets for peers that
            we receive from but never send to (one-way UDP flows).
        presentation_strategy: "honest" (default; also the attacker's optimal
            strategy), "hide_decr", or "stale" — used by the strategic-attack
            experiments and the security tests.
        auto_priority: pick request priority from waiting time.  Attack
            sources that flood requests at a fixed level disable this.
        per_flow_feedback: track feedback per (peer, flow) instead of per
            peer, modelling implementations that keep the NetFence feedback
            loop inside each connection's state.  The repeated-file-transfer
            experiment (Fig. 8) uses this so every new transfer bootstraps
            through the request channel, as in the paper.
    """

    def __init__(
        self,
        clock: Clock,
        host: Host,
        params: Optional[NetFenceParams] = None,
        return_policy: Optional[ReturnPolicy] = None,
        send_feedback_packets: bool = False,
        feedback_packet_interval: float = 0.2,
        presentation_strategy: str = "honest",
        auto_priority: bool = True,
        per_flow_feedback: bool = False,
    ) -> None:
        self.clock = clock
        self.host = host
        self.params = params or NetFenceParams()
        self.return_policy = return_policy or ReturnPolicy()
        self.presentation_strategy = presentation_strategy
        self.auto_priority = auto_priority
        self.per_flow_feedback = per_flow_feedback
        self.peers: Dict[str, _PeerFeedbackState] = {}
        self.stats_requests_sent = 0
        self.stats_regular_sent = 0
        self.stats_feedback_packets_sent = 0

        host.outbound_filters.append(self._outbound)
        host.inbound_filters.append(self._inbound)

        self._feedback_timer: Optional[PeriodicTimer] = None
        if send_feedback_packets:
            self._feedback_timer = PeriodicTimer(
                clock, feedback_packet_interval, self._emit_feedback_packets
            )
            self._feedback_timer.start()

    # -- per-peer state -----------------------------------------------------------
    def _state_key(self, peer_name: str, flow_id: str = "") -> str:
        if self.per_flow_feedback and flow_id:
            return f"{peer_name}#{flow_id}"
        return peer_name

    def _peer(self, name: str, flow_id: str = "") -> _PeerFeedbackState:
        key = self._state_key(name, flow_id)
        state = self.peers.get(key)
        if state is None:
            state = _PeerFeedbackState(peer_name=name)
            self.peers[key] = state
        return state

    # -- outbound path ------------------------------------------------------------
    def _outbound(self, packet: Packet) -> Optional[bool]:
        if packet.ptype is PacketType.LEGACY:
            return True
        # _peer()/_state_key() inlined for the common per-peer mode: this
        # filter runs on every packet the host sends.
        dst = packet.dst
        key = (f"{dst}#{packet.flow_id}"
               if self.per_flow_feedback and packet.flow_id else dst)
        peer = self.peers.get(key)
        if peer is None:
            peer = _PeerFeedbackState(peer_name=dst)
            self.peers[key] = peer
        header = NetFenceHeader()
        presented = self._select_presented(peer)
        now = self.clock.now
        if presented is not None:
            packet.ptype = PacketType.REGULAR
            # Feedback values are immutable by contract (routers replace,
            # never mutate), so the header can alias the stored instance.
            header.feedback = presented
            self.stats_regular_sent += 1
        else:
            # No valid feedback for this destination: the packet travels on
            # the request channel (§3.1 step 1 / §4.4 — packets without valid
            # feedback are treated as request packets), with a priority level
            # derived from how long the sender has been waiting (§4.2).
            packet.ptype = PacketType.REQUEST
            if self.auto_priority:
                packet.priority = self._request_priority(peer, now)
            header.priority = packet.priority
            peer.last_request_time = now
            self.stats_requests_sent += 1
        if peer.to_return is not None and self.return_policy.allows(packet.dst):
            header.returned = peer.to_return
            peer.returned_dirty = False
        packet.headers[HEADER_KEY] = header
        return True

    def _select_presented(self, peer: _PeerFeedbackState) -> Optional[Feedback]:
        # Runs once per outbound packet; freshness checks are inlined (no
        # per-call closure, no ``is_fresh`` method calls on the hot path).
        now = self.clock.now
        w = self.params.feedback_expiration
        strategy = self.presentation_strategy
        incr = peer.latest_incr
        incr_fresh = incr is not None and abs(now - incr.ts) <= w
        if strategy == "hide_decr":
            if incr_fresh:
                return incr
            nop = peer.latest_nop
            return nop if nop is not None and abs(now - nop.ts) <= w else None
        if strategy == "stale":
            # Present the newest incr feedback even if it has expired — the
            # access router must reject it (security test).
            if incr is not None:
                return incr
            nop = peer.latest_nop
            if nop is not None and abs(now - nop.ts) <= w:
                return nop
            decr = peer.latest_decr
            return decr if decr is not None and abs(now - decr.ts) <= w else None
        # "honest": present unexpired L↑ even when newer L↓ exists (§4.3.4 —
        # the aggressive-but-admissible strategy every sender should mimic);
        # otherwise present the most recently received unexpired feedback, so
        # that a sender that has just learnt of a mon-state bottleneck starts
        # using its rate limiter right away instead of riding an older nop.
        if incr_fresh:
            return incr
        nop = peer.latest_nop
        if nop is not None and abs(now - nop.ts) > w:
            nop = None
        decr = peer.latest_decr
        if decr is not None and abs(now - decr.ts) > w:
            decr = None
        if nop is None:
            return decr
        if decr is None:
            return nop
        return decr if decr.ts > nop.ts else nop

    def _request_priority(self, peer: _PeerFeedbackState, now: float) -> int:
        if peer.last_request_time is None:
            return 0
        elapsed_ms = (now - peer.last_request_time) * 1000.0
        if elapsed_ms < 1.0:
            return 0
        level = int(math.floor(math.log2(elapsed_ms))) + 1
        return min(level, self.params.max_priority_level)

    # -- inbound path -----------------------------------------------------------
    def _inbound(self, packet: Packet) -> Optional[bool]:
        header: Optional[NetFenceHeader] = packet.headers.get(HEADER_KEY)
        if header is None:
            return True
        peer = self._peer(packet.src, packet.flow_id)
        if header.feedback is not None:
            peer.to_return = header.feedback
            peer.returned_dirty = True
        if header.returned is not None:
            self._absorb_returned(peer, header.returned)
        if packet.protocol in ("netfence-fb", "netfence-req"):
            # Dedicated feedback/probe packets carry no payload for the transport.
            return False
        return True

    def _absorb_returned(self, peer: _PeerFeedbackState, feedback: Feedback) -> None:
        if feedback.is_nop:
            if peer.latest_nop is None or feedback.ts >= peer.latest_nop.ts:
                peer.latest_nop = feedback
        elif feedback.is_incr:
            if peer.latest_incr is None or feedback.ts >= peer.latest_incr.ts:
                peer.latest_incr = feedback
        else:
            if peer.latest_decr is None or feedback.ts >= peer.latest_decr.ts:
                peer.latest_decr = feedback

    # -- dedicated feedback packets (one-way flows) ------------------------------
    def _emit_feedback_packets(self) -> None:
        for state in list(self.peers.values()):
            if state.to_return is None or not state.returned_dirty:
                continue
            peer_name = state.peer_name
            if not self.return_policy.allows(peer_name):
                continue
            packet = Packet(
                src=self.host.name,
                dst=peer_name,
                size_bytes=FEEDBACK_PACKET_SIZE,
                ptype=PacketType.REGULAR,
                flow_id=f"fb:{self.host.name}->{peer_name}",
                protocol="netfence-fb",
            )
            self.stats_feedback_packets_sent += 1
            self.host.send(packet)

    # -- helpers for tests and experiments -----------------------------------------
    def stop(self) -> None:
        if self._feedback_timer is not None:
            self._feedback_timer.stop()
