"""``runner loadgen`` — drive a live policer (``runner serve``) over loopback.

The harness reproduces the paper's core scenario against a *live* policer:
legitimate UDP senders and a set of flooders share one bottleneck, and the
victim withholds feedback from the flooders (the §3.3 capability use of
NetFence feedback).  Every component is the simulator's own: real
:class:`~repro.simulator.node.Host` objects (subclassed to write datagrams
instead of link events), the real
:class:`~repro.core.endhost.NetFenceEndHost` shim, and the real
:class:`~repro.transport.udp.UdpSender` sources — all running over a
:class:`~repro.runtime.clock.WallClock` instead of a Simulator.

Reported metric: the legitimate senders' share of the victim's goodput
after a warmup, plus their share of the bottleneck capacity (the same
``legitimate traffic share`` metric as
:func:`repro.analysis.metrics.traffic_share`).  ``--min-legit-share`` turns
the goodput-share floor into an exit code for CI.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import traffic_share
from repro.core.endhost import NetFenceEndHost, ReturnPolicy
from repro.core.params import NetFenceParams
from repro.obs.log import JsonLinesLogger
from repro.obs.spans import TRACE_KEY, SpanRecorder, active_span_recorder, use_span_recorder
from repro.runtime.clock import WallClock
from repro.runtime.codec import CodecError, decode_packet, encode_hello, encode_packet
from repro.runtime.serve import DEFAULT_CAPACITY_BPS, DEFAULT_HOST, DEFAULT_PORT, SERVE_AS
from repro.simulator.node import Host
from repro.simulator.packet import Packet
from repro.transport.udp import UdpSender, UdpSink

VICTIM = "victim"


class LiveHost(Host):
    """A :class:`Host` whose access link is a UDP socket to the policer."""

    def __init__(self, clock: WallClock, name: str, as_name: str = SERVE_AS) -> None:
        super().__init__(clock, name, as_name=as_name)
        self._transport: Optional[asyncio.DatagramTransport] = None
        self.codec_errors = 0
        self._spans = active_span_recorder()

    def send(self, packet: Packet) -> None:
        if packet.src_as is None:
            packet.src_as = self.as_name
        packet.created_at = self.clock.now
        for outbound_filter in self.outbound_filters:
            if outbound_filter(packet) is False:
                return
        self.packets_sent += 1
        if self._spans is not None:
            # Each send roots its own trace; the context rides the frame so
            # the policer's serve.* events join as children of this span.
            span = self._spans.event(
                "loadgen.send", ts=self.clock.now,
                attrs={"src": self.name, "dst": packet.dst, "uid": packet.uid})
            packet.headers[TRACE_KEY] = span.context
        self.transport.sendto(encode_packet(packet))

    def hello(self) -> None:
        self.transport.sendto(encode_hello(self.name, self.as_name))

    @property
    def transport(self) -> asyncio.DatagramTransport:
        """The connected socket; raises (even under -O) if used too early."""
        if self._transport is None:
            raise RuntimeError(f"host {self.name} has no connected transport")
        return self._transport

    @transport.setter
    def transport(self, transport: asyncio.DatagramTransport) -> None:
        self._transport = transport

    def on_datagram(self, data: bytes) -> None:
        try:
            packet = decode_packet(data)
        except CodecError:
            self.codec_errors += 1
            return
        if self._spans is not None:
            context = packet.headers.get(TRACE_KEY)
            if context is not None:
                self._spans.event("loadgen.recv", parent=context,
                                  ts=self.clock.now,
                                  attrs={"host": self.name})
        self.receive(packet, None)


class _HostEndpoint(asyncio.DatagramProtocol):
    """asyncio glue: one connected UDP socket per host."""

    def __init__(self, host: LiveHost) -> None:
        self.host = host

    def connection_made(self, transport: asyncio.DatagramTransport) -> None:
        # The policer's reply frames are small; asyncio's default 256 KiB read
        # buffer page-faults per datagram in a small heap (as in serve.py).
        transport.max_size = 65536  # type: ignore[attr-defined]
        self.host.transport = transport

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.host.on_datagram(data)


async def _make_host(
    clock: WallClock, name: str, server: Tuple[str, int]
) -> LiveHost:
    host = LiveHost(clock, name)
    loop = asyncio.get_running_loop()
    await loop.create_datagram_endpoint(
        lambda: _HostEndpoint(host), remote_addr=server
    )
    return host


async def run_scenario(
    server: Tuple[str, int],
    legit: int = 2,
    attackers: int = 2,
    legit_rate_bps: float = 150_000.0,
    attack_rate_bps: float = 600_000.0,
    warmup_s: float = 2.5,
    duration_s: float = 4.0,
    capacity_bps: float = DEFAULT_CAPACITY_BPS,
    params: Optional[NetFenceParams] = None,
) -> Dict[str, object]:
    """Run the attack scenario against a live policer; return the metrics."""
    loop = asyncio.get_running_loop()
    clock = WallClock(loop)
    params = params or NetFenceParams()

    legit_names = [f"legit{i}" for i in range(legit)]
    attacker_names = [f"atk{i}" for i in range(attackers)]

    # The victim: a sink that tallies goodput per source, an end-host shim
    # that returns feedback via dedicated feedback packets (UDP flows are
    # one-way) — but never to the attackers it has identified (§3.3).
    victim = await _make_host(clock, VICTIM, server)
    victim_shim = NetFenceEndHost(
        clock,
        victim,
        params=params,
        return_policy=ReturnPolicy(blocked=set(attacker_names)),
        send_feedback_packets=True,
    )
    bytes_by_src: Dict[str, int] = {}
    measuring = False

    def tally(packet: Packet) -> None:
        if measuring:
            bytes_by_src[packet.src] = bytes_by_src.get(packet.src, 0) + packet.size_bytes

    UdpSink(clock, victim, on_receive=tally)

    hosts: List[LiveHost] = [victim]
    shims: List[NetFenceEndHost] = [victim_shim]
    senders: List[UdpSender] = []
    for name in legit_names + attacker_names:
        host = await _make_host(clock, name, server)
        hosts.append(host)
        shims.append(NetFenceEndHost(clock, host, params=params))
        rate = legit_rate_bps if name in legit_names else attack_rate_bps
        senders.append(UdpSender(clock, host, VICTIM, rate))

    # Register every host with the policer before any data flies, so the
    # victim's feedback packets (and our data) are deliverable from the start.
    for _ in range(2):  # UDP: a lost hello must not wedge the run
        for host in hosts:
            host.hello()
        await asyncio.sleep(0.1)

    for sender in senders:
        sender.start()
    await asyncio.sleep(warmup_s)
    measuring = True
    await asyncio.sleep(duration_s)
    measuring = False
    for sender in senders:
        sender.stop()
    for shim in shims:
        shim.stop()
    await asyncio.sleep(0.1)  # let in-flight datagrams land
    for host in hosts:
        if host._transport is not None:
            host._transport.close()

    legit_bytes = sum(bytes_by_src.get(name, 0) for name in legit_names)
    attack_bytes = sum(bytes_by_src.get(name, 0) for name in attacker_names)
    total_bytes = sum(bytes_by_src.values())
    legit_bps = [bytes_by_src.get(name, 0) * 8.0 / duration_s for name in legit_names]
    return {
        "event": "result",
        "server": f"{server[0]}:{server[1]}",
        "legit": legit,
        "attackers": attackers,
        "legit_rate_bps": legit_rate_bps,
        "attack_rate_bps": attack_rate_bps,
        "warmup_s": warmup_s,
        "duration_s": duration_s,
        "legit_goodput_bps": round(sum(legit_bps), 1),
        "attack_goodput_bps": round(attack_bytes * 8.0 / duration_s, 1),
        "legit_share": (legit_bytes / total_bytes) if total_bytes else 0.0,
        "legit_share_of_capacity": traffic_share(legit_bps, capacity_bps),
        "bytes_by_src": dict(sorted(bytes_by_src.items())),
        "victim_rx_packets": victim.packets_received,
        "feedback_packets_sent": victim_shim.stats_feedback_packets_sent,
        "codec_errors": sum(host.codec_errors for host in hosts),
    }


def _emit(result: Dict[str, object],
          log: Optional[JsonLinesLogger] = None) -> None:
    if log is not None:
        record = dict(result)
        event = str(record.pop("event", "result"))
        log.emit(event, **record)
        return
    print(
        f"loadgen: legit share {result['legit_share']:.3f} "
        f"({result['legit_goodput_bps']:.0f} bps legit vs "
        f"{result['attack_goodput_bps']:.0f} bps attack), "
        f"capacity share {result['legit_share_of_capacity']:.3f}, "
        f"{result['feedback_packets_sent']} feedback packets",
        flush=True,
    )


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="runner loadgen",
        description="Drive a live NetFence policer with legitimate + attack traffic.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="policer address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="policer port")
    parser.add_argument("--legit", type=int, default=2, metavar="N")
    parser.add_argument("--attackers", type=int, default=2, metavar="N")
    parser.add_argument("--legit-rate", type=float, default=150_000.0, metavar="BPS")
    parser.add_argument("--attack-rate", type=float, default=600_000.0, metavar="BPS")
    parser.add_argument("--warmup", type=float, default=2.5, metavar="S")
    parser.add_argument("--duration", type=float, default=6.0, metavar="S")
    parser.add_argument("--capacity-bps", type=float, default=DEFAULT_CAPACITY_BPS,
                        help="the policer's capacity (for the capacity-share metric)")
    parser.add_argument("--quick", action="store_true",
                        help="short CI preset (overrides warmup/duration)")
    parser.add_argument("--min-legit-share", type=float, default=None, metavar="X",
                        help="exit 1 if the legit goodput share falls below X")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    parser.add_argument("--spans", action="store_true",
                        help="root a causal trace per sent packet and carry "
                             "its context on the wire (with --json, spans "
                             "are written to the log stream)")
    args = parser.parse_args(argv)
    if args.quick:
        args.warmup = min(args.warmup, 2.0)
        args.duration = min(args.duration, 4.0)

    spans = SpanRecorder(capacity=65536) if args.spans else None
    log = JsonLinesLogger(name="loadgen") if args.json else None

    async def _run() -> Dict[str, object]:
        return await run_scenario(
            (args.host, args.port),
            legit=args.legit,
            attackers=args.attackers,
            legit_rate_bps=args.legit_rate,
            attack_rate_bps=args.attack_rate,
            warmup_s=args.warmup,
            duration_s=args.duration,
            capacity_bps=args.capacity_bps,
        )

    if spans is not None:
        with use_span_recorder(spans):
            result = asyncio.run(_run())
    else:
        result = asyncio.run(_run())

    if spans is not None:
        if log is not None:
            for record in spans.to_dicts():
                log.span_record(record)
        else:
            print(f"loadgen: recorded {spans.finished} spans "
                  f"({len(spans)} buffered)", flush=True)
    _emit(result, log)
    if not result["bytes_by_src"]:
        print("loadgen: no traffic delivered — is the policer running?",
              file=sys.stderr)
        return 2
    if args.min_legit_share is not None and result["legit_share"] < args.min_legit_share:
        print(
            f"loadgen: legit share {result['legit_share']:.3f} "
            f"< floor {args.min_legit_share}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(cli_main())
