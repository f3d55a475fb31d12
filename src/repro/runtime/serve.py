"""``runner serve`` — a live asyncio UDP NetFence policer.

This is the production side of the sim/production seam: the *same*
:class:`~repro.core.access.NetFenceAccessRouter`,
:class:`~repro.core.bottleneck.NetFenceRouter` and
:class:`~repro.core.bottleneck.NetFenceChannelQueue` classes that run inside
swept simulations are composed over a :class:`~repro.runtime.clock.WallClock`
and fed real datagrams:

* every datagram is decoded with :mod:`repro.runtime.codec`;
* ``hello`` frames register a host name at a socket address (the stand-in
  for the access link that binds a host to its access router);
* ``packet`` frames enter :meth:`NetFenceAccessRouter.admit_from_host`
  exactly as simulated packets do — request-channel policing, feedback
  validation, per-(sender, bottleneck) rate limiting and all;
* admitted packets pass the bottleneck router's ``on_transit`` /
  ``before_enqueue`` hooks (L↓ stamping while a monitoring cycle is open),
  sit in the three-channel queue, and drain at the configured link capacity
  before being re-encoded and sent to the destination's registered address.

The epoch secret ``Ka`` rotates on wall-clock time; the rollover eviction in
:class:`~repro.crypto.keys.AccessRouterSecret` keeps a long-running policer's
key cache bounded.  Because :class:`WallClock` anchors ``now`` to the Unix
epoch, two processes on one machine agree on epochs and on per-packet
latency measurements.

The policer asserts its own output: every *regular* packet leaving the
queue must carry feedback that validates against the access router's
secret (the access router re-stamps feedback on every forward, so a nonzero
``unverified_admissions`` counter means policing was bypassed).
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import signal
import sys
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Tuple

from repro.core.access import NetFenceAccessRouter
from repro.core.bottleneck import NetFenceChannelQueue, NetFenceRouter
from repro.core.domain import NetFenceDomain
from repro.core.header import HEADER_KEY
from repro.core.params import NetFenceParams
from repro.crypto.keys import AccessRouterSecret
from repro.obs.export import prometheus_text
from repro.obs.flight import FlightRecorder
from repro.obs.log import JsonLinesLogger, bridge_stdlib
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import TRACE_KEY, SpanRecorder, active_span_recorder, set_span_recorder
from repro.obs.trace import ReasonCode, active_tracer
from repro.runtime.clock import WallClock
from repro.runtime.codec import CodecError, decode_frame, encode_packet
from repro.runtime.httpd import HttpServer, Response, json_response, text_response
from repro.simulator.packet import Packet, PacketType

#: The AS every live host and both live routers belong to.  The loadgen
#: harness imports it so that the pairwise key ``Kai`` used for ``L↓``
#: stamping resolves identically on both sides of the socket.
SERVE_AS = "AS-edge"

#: Name of the single policed output link.
BOTTLENECK_LINK = "live-bneck"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 9633
DEFAULT_CAPACITY_BPS = 1_000_000.0
DEFAULT_SECRET = "netfence-dev"

#: One event-loop timer granule: ``EpollSelector.select`` rounds every
#: positive timeout up to a whole millisecond.  It is the credit the link
#: clock keeps, so a wake-up that is up to a granule late is repaid, not lost.
TIMER_GRANULE_S = 0.001

#: Packets the drain transmits back to back before it hands the loop back.
DRAIN_BURST = 16


def percentiles_ms(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99/max of a latency sample set, in milliseconds."""
    if not samples:
        return {"n": 0}
    data = sorted(samples)
    n = len(data)

    def pick(q: float) -> float:
        idx = min(int(q * (n - 1) + 0.5), n - 1)
        return round(data[idx] * 1000.0, 3)

    return {
        "n": n,
        "p50": pick(0.50),
        "p90": pick(0.90),
        "p99": pick(0.99),
        "max": round(data[-1] * 1000.0, 3),
    }


class _LinkClock:
    """When the wire is next free: the egress link's serialisation clock.

    Each packet advances ``free_at`` by its transmit time (as ``Link`` and
    the rate limiter's ``_last_departure`` do) and the next may leave once
    ``free_at`` has passed.  A clock that fell behind — idle link, late timer
    — keeps one timer granule of credit, so the bytes released in any window
    ``T`` stay within ``capacity·(T + TIMER_GRANULE_S)/8`` plus one packet.

    Pure arithmetic; ``now`` counts from an origin near the caller's start
    (at epoch magnitude a float cannot hold a 1 µs transmit time).
    """

    __slots__ = ("capacity_bps", "free_at")

    def __init__(self, capacity_bps: float) -> None:
        self.capacity_bps = capacity_bps
        self.free_at = float("-inf")

    def reserve(self, now: float, size_bytes: int) -> float:
        """Book one packet leaving at ``now``; seconds until the next may."""
        self.free_at = (max(self.free_at, now - TIMER_GRANULE_S)
                        + size_bytes * 8.0 / self.capacity_bps)
        return max(self.free_at - now, 0.0)


class _WireNeighbor:
    """The far end of the egress link: the UDP socket."""

    name = "wire"


class _EgressLink:
    """The slice of the :class:`~repro.simulator.link.Link` surface that
    :class:`NetFenceRouter` needs: a name to register with the domain, a
    queue to watch, a capacity and a delivered-bytes counter for the
    attack-detection loop.  The drain task transmits and counts the bytes;
    :class:`_LinkClock` says when."""

    def __init__(self, name: str, capacity_bps: float, queue: NetFenceChannelQueue) -> None:
        self.name = name
        self.capacity_bps = capacity_bps
        self.queue = queue
        self.bytes_delivered = 0
        self.dst_node = _WireNeighbor()
        self.src_node: Optional[object] = None


class _LiveAccessRouter(NetFenceAccessRouter):
    """Access router whose :meth:`forward` hands packets to the live egress
    path instead of a routing table.  Rate-limiter releases re-enter through
    here, so cached packets take the same egress path as pass-through ones."""

    def __init__(self, *args: Any, egress: Callable[[Packet], None],
                 **kwargs: Any) -> None:
        self._egress_fn = egress
        super().__init__(*args, **kwargs)

    def forward(self, packet: Packet) -> None:
        self.packets_forwarded += 1
        self._egress_fn(packet)


class LivePolicer(asyncio.DatagramProtocol):
    """A NetFence access + bottleneck router pair over one UDP socket."""

    def __init__(
        self,
        clock: WallClock,
        params: Optional[NetFenceParams] = None,
        master: bytes = DEFAULT_SECRET.encode(),
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        force_mon: bool = False,
        as_fairness: bool = False,
    ) -> None:
        self.clock = clock
        self.params = params or NetFenceParams()
        self.capacity_bps = capacity_bps
        self.domain = NetFenceDomain(params=self.params, master=master)
        self.secret = AccessRouterSecret("live-Ra", master=master)
        # The live policer always runs with metrics on: its own registry is
        # installed around component construction so the access router,
        # bottleneck router, and every queue register their pull-based
        # watches against it (simulated sweeps, by contrast, keep the
        # process-global registry disabled).
        self.registry = MetricsRegistry(enabled=True, clock=clock)
        self._tracer = active_tracer()
        self._spans = active_span_recorder()
        #: Flight recorder + dump path, attached by ``_serve`` (always on in
        #: the CLI; library users may leave it unattached).
        self.flight: Optional[FlightRecorder] = None
        self.flight_path: Optional[str] = None
        self._on_flight: Optional[Callable[[str, str], None]] = None
        with use_registry(self.registry):
            self.access = _LiveAccessRouter(
                clock,
                "live-Ra",
                as_name=SERVE_AS,
                domain=self.domain,
                secret=self.secret,
                egress=self._egress,
            )
            self.bottleneck = NetFenceRouter(
                clock, "live-Rb", as_name=SERVE_AS, domain=self.domain,
                force_mon=force_mon
            )
            self.queue = NetFenceChannelQueue(
                clock, capacity_bps, params=self.params, as_fairness=as_fairness
            )
        self.egress_link = _EgressLink(BOTTLENECK_LINK, capacity_bps, self.queue)
        self.bottleneck.attach_link(self.egress_link)

        #: host name -> socket address, learned from ``hello`` frames.
        self.addrs: Dict[str, Tuple[str, int]] = {}
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.accepting = True
        self._link_clock = _LinkClock(capacity_bps)
        #: The link clock counts from here (see :class:`_LinkClock`).
        self._link_origin = clock.now
        #: What a parked drain task waits on; an enqueue resolves it.
        self._drain_waiter: Optional["asyncio.Future[None]"] = None
        self._drain_task: Optional["asyncio.Task[None]"] = None
        #: Recent per-packet one-way queueing latencies (created_at → egress).
        self.latencies: Deque[float] = collections.deque(maxlen=4096)
        #: Delivered bytes per source host — the live legit-share SLO input.
        self.tx_bytes_by_src: Dict[str, int] = {}
        self.counters: Dict[str, int] = {
            "datagrams_rx": 0,
            "codec_errors": 0,
            "hellos": 0,
            "packets_rx": 0,
            "ingress_dropped": 0,
            "egress_dropped": 0,
            "packets_tx": 0,
            "bytes_tx": 0,
            "undeliverable": 0,
            "unverified_admissions": 0,
        }
        # Bridge the policer's own counters and state into the registry so
        # the /metrics endpoint and JSON snapshots see one coherent set.
        for event in self.counters:
            self.registry.watch(
                "netfence_serve_events_total",
                lambda key=event: self.counters[key],
                help="live policer ingress/egress events by outcome",
                labels={"event": event})
        self.registry.watch("netfence_serve_registered_hosts",
                            lambda: len(self.addrs),
                            help="hosts registered via hello frames")
        self.registry.watch("netfence_serve_key_epoch",
                            lambda: float(self.secret.epoch_of(self.clock.now)),
                            help="current Ka rotation epoch")
        self.registry.watch("netfence_serve_in_mon",
                            lambda: float(self.in_mon),
                            help="1 while the egress link is in the mon state")
        self._latency_hist = self.registry.histogram(
            "netfence_serve_latency_seconds",
            help="per-packet queueing latency (created_at to egress)",
            buckets=(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5))
        # The pacer's account of itself: one observation per timer wake-up
        # or per yield, never per packet.
        self._pace_lag = self.registry.histogram(
            "netfence_serve_pace_lag_seconds",
            help="departure after a pacing timer minus link-clock departure",
            buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.1))
        self._drain_yields = self.registry.counter(
            "netfence_serve_drain_yields_total",
            help="full back-to-back bursts that handed the loop back")
        self._link_ahead = self.registry.watch(
            "netfence_serve_link_ahead_seconds",
            lambda: max(self._link_clock.free_at - self._link_now(), 0.0),
            help="transmit time booked on the egress link beyond now")

    # -- asyncio protocol ---------------------------------------------------------
    def connection_made(self, transport: asyncio.DatagramTransport) -> None:  # pragma: no cover - asyncio glue
        self.transport = transport
        self._drain_task = asyncio.get_running_loop().create_task(self._drain())

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        if not self.accepting:
            return
        self.counters["datagrams_rx"] += 1
        try:
            kind, value = decode_frame(data)
        except CodecError:
            self.counters["codec_errors"] += 1
            return
        if kind == "hello":
            name, _as_name = value
            self.addrs[name] = addr
            self.access.register_local_host(name)
            self.counters["hellos"] += 1
            return
        packet: Packet = value
        # Every datagram on this socket entered the network here: the access
        # router, not the sender, decides the packet's source AS.
        packet.src_as = SERVE_AS
        self.counters["packets_rx"] += 1
        verdict = self.access.admit_from_host(packet, None)
        if verdict is True:
            self._span_event("serve.admit", packet)
            self._egress(packet)
        elif verdict is False:
            self.counters["ingress_dropped"] += 1
            self._span_event("serve.admit", packet, status="drop")
        else:
            # verdict None: a rate limiter cached the packet; its release
            # re-enters through _LiveAccessRouter.forward → _egress.
            self._span_event("serve.admit", packet, status="cached")

    def error_received(self, exc: Exception) -> None:  # pragma: no cover - asyncio glue
        pass

    # -- egress path --------------------------------------------------------------
    def _span_event(self, name: str, packet: Packet, status: str = "ok",
                    attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record one instant span for a packet that carries a trace context.

        Each event is a zero-duration child of the context the packet rode
        in with, so a loadgen-rooted trace gains ``serve.*`` children that
        ``runner trace --spans`` can stitch from the merged logs.  Cost when
        span recording is off: nothing (the call sites guard on
        ``self._spans``); cost for untraced packets: one dict lookup.
        """
        spans = self._spans
        if spans is None:
            return
        context = packet.headers.get(TRACE_KEY)
        if context is None:
            return
        spans.event(name, parent=context, ts=self.clock.now,
                    status=status, attrs=attrs)

    def _egress(self, packet: Packet) -> None:
        bneck = self.bottleneck
        if not bneck.on_transit(packet, None):
            self.counters["egress_dropped"] += 1
            self._span_event("serve.egress", packet, status="drop",
                             attrs={"stage": "transit"})
            return
        if not bneck.before_enqueue(packet, self.egress_link):
            self.counters["egress_dropped"] += 1
            self._span_event("serve.egress", packet, status="drop",
                             attrs={"stage": "enqueue"})
            return
        bneck.packets_forwarded += 1
        if self.queue.enqueue(packet):
            self._wake_drain()
        elif self._spans is not None:
            # The channel queue dropped it (recorded in queue stats, and —
            # for regular packets — fed back into attack detection).
            self._span_event("serve.egress", packet, status="drop",
                             attrs={"stage": "queue"})

    def _link_now(self) -> float:
        return self.clock.now - self._link_origin

    def _wake_drain(self) -> None:
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _drain(self) -> None:
        """Dequeue, re-encode and transmit as the link clock allows."""
        link = self._link_clock
        burst = 0
        while True:
            packet = self.queue.dequeue()
            if packet is None:
                wait = self.queue.time_until_ready()
                if wait is None and not self.accepting:
                    return  # drained
                # Empty, or only budget-capped request traffic remains: park
                # until an enqueue, shutdown or the budget's one timer.
                waiter = asyncio.get_running_loop().create_future()
                self._drain_waiter = waiter
                timer = (None if wait is None
                         else self.clock.schedule(wait, self._wake_drain))
                try:
                    await waiter
                finally:
                    self._drain_waiter = None
                    self.clock.cancel(timer)
                burst = 0
                continue
            self._deliver(packet)
            wait = link.reserve(self._link_now(), packet.size_bytes)
            burst += 1
            if wait > 0.0:
                # The wire is busy for longer than the credit covers; a late
                # wake-up is repaid from the credit by the next reserve.
                await asyncio.sleep(wait)
                self._pace_lag.observe(self._link_now() - link.free_at)
                burst = 0
            elif burst >= DRAIN_BURST:
                # Never ahead of the link (CPU-bound): datagrams and other
                # timers still get their turn.
                self._drain_yields.inc()
                await asyncio.sleep(0)
                burst = 0

    def _deliver(self, packet: Packet) -> None:
        now = self.clock.now
        if packet.ptype is PacketType.REGULAR:
            header = packet.headers.get(HEADER_KEY)
            feedback = header.feedback if header is not None else None
            link_as = (
                self.domain.as_for_link(feedback.link)
                if feedback is not None and feedback.link
                else None
            )
            if feedback is None or not self.access.stamper.validate(
                feedback,
                packet.src,
                packet.dst,
                now,
                self.params.feedback_expiration,
                link_as=link_as,
            ):
                self.counters["unverified_admissions"] += 1
                if self._tracer is not None:
                    self._tracer.emit("serve:deliver",
                                      ReasonCode.UNVERIFIED_FEEDBACK, packet,
                                      ts=now, detail="egress assert failed")
                self._span_event("serve.unverified", packet, status="error")
                self.flight_dump("unverified_admission",
                                 src=packet.src, dst=packet.dst,
                                 uid=packet.uid)
        self.egress_link.bytes_delivered += packet.size_bytes
        latency = now - packet.created_at
        self.latencies.append(latency)
        self._latency_hist.observe(latency)
        addr = self.addrs.get(packet.dst)
        if addr is None:
            self.counters["undeliverable"] += 1
            if self._tracer is not None:
                self._tracer.emit("serve:deliver",
                                  ReasonCode.DROP_UNDELIVERABLE, packet, ts=now)
            self._span_event("serve.deliver", packet, status="drop",
                             attrs={"reason": "undeliverable"})
            return
        self.counters["packets_tx"] += 1
        self.counters["bytes_tx"] += packet.size_bytes
        self.tx_bytes_by_src[packet.src] = (
            self.tx_bytes_by_src.get(packet.src, 0) + packet.size_bytes)
        self._span_event("serve.deliver", packet,
                         attrs={"latency_s": round(latency, 6)})
        if self._tracer is not None:
            self._tracer.emit("serve:deliver", ReasonCode.DELIVERED, packet,
                              ts=now, detail=f"to {addr[0]}:{addr[1]}")
        if self.transport is None:
            # Deliveries only happen after connection_made; a None transport
            # here is a lifecycle bug and must fail loudly even under -O.
            raise RuntimeError("policer transport not connected")
        self.transport.sendto(encode_packet(packet), addr)

    # -- lifecycle ----------------------------------------------------------------
    async def shutdown(self, drain_timeout: float = 2.0) -> None:
        """Stop accepting datagrams, drain the queue, cancel timers."""
        self.accepting = False
        self._wake_drain()
        task = self._drain_task
        if task is not None and not task.cancelled():
            # The backlog leaves at link rate until the timeout, where wait_for
            # cancels the drain, pacing timer included, and awaits its end.
            try:
                await asyncio.wait_for(task, timeout=drain_timeout)
            except asyncio.TimeoutError:
                pass
        self.access._adjust_timer.stop()
        self.bottleneck._detect_timer.stop()
        for limiter in self.access.rate_limiters.values():
            limiter.close()
        if self.transport is not None:
            self.transport.close()

    # -- flight recorder ----------------------------------------------------------
    def attach_flight(self, flight: FlightRecorder, path: str,
                      on_dump: Optional[Callable[[str, str], None]] = None) -> None:
        """Arm the flight recorder: dumps go to ``path`` on first trigger."""
        self.flight = flight
        self.flight_path = path
        self._on_flight = on_dump
        if self._spans is not None:
            self._spans.add_sink(flight.record_span)

    def flight_dump(self, trigger: str, **context: Any) -> Optional[str]:
        """Trigger a forensic dump (no-op if unarmed or already dumped)."""
        if self.flight is None or self.flight_path is None:
            return None
        if self.flight.triggered is not None:
            return None
        context.setdefault("stats", self.stats(event="flight_context"))
        path = self.flight.dump(self.flight_path, trigger, context=context)
        if path is not None and self._on_flight is not None:
            self._on_flight(trigger, path)
        return path

    # -- introspection ------------------------------------------------------------
    @property
    def in_mon(self) -> bool:
        return self.bottleneck.link_state(BOTTLENECK_LINK).in_mon

    def legit_share(self, prefix: str) -> Optional[float]:
        """Fraction of delivered bytes from sources named ``prefix*``.

        ``None`` until anything has been delivered — an idle policer is not
        in breach of its SLO.
        """
        total = sum(self.tx_bytes_by_src.values())
        if total <= 0:
            return None
        legit = sum(v for k, v in self.tx_bytes_by_src.items()
                    if k.startswith(prefix))
        return legit / total

    def metrics_text(self) -> str:
        """Prometheus exposition text for the policer's registry."""
        return prometheus_text(self.registry)

    def stats(self, event: str = "stats") -> Dict[str, object]:
        """One JSON-lines stats event.

        The flat legacy keys (asserted by the CI serve-smoke job and the
        loadgen harness) are preserved; drop reasons and cache sizes ride
        along as new sub-keys sourced from the same state the registry
        watches read.
        """
        state = self.bottleneck.link_state(BOTTLENECK_LINK)
        return {
            "event": event,
            "now": round(self.clock.now, 3),
            "capacity_bps": self.capacity_bps,
            "registered_hosts": len(self.addrs),
            "key_epoch": self.secret.epoch_of(self.clock.now),
            "access": dict(self.access.counters),
            "active_rate_limiters": self.access.active_rate_limiters,
            "in_mon": state.in_mon,
            "decr_stamped": state.decr_stamped,
            "caches": {
                "secret_epochs": self.secret.cache_size,
                "stamper_memo": self.access.stamper.memo_size,
                "registry_instruments": len(self.registry),
            },
            "queue": {
                "depth_pkts": len(self.queue),
                "depth_bytes": self.queue.byte_length,
                "arrivals": self.queue.stats.arrivals,
                "dropped": self.queue.stats.dropped,
                "drop_reasons": self.queue.stats.drop_reasons(),
                "regular_dropped": self.queue.regular_queue.stats.dropped,
            },
            "latency_ms": percentiles_ms(self.latencies),
            "drain": {
                "timer_wakeups": self._pace_lag.count,
                "yields": int(self._drain_yields.collect()),
                "link_ahead_ms": round(self._link_ahead.collect() * 1000.0, 3),
            },
            "tx_bytes_by_src": dict(self.tx_bytes_by_src),
            **self.counters,
        }


async def start_policer(
    host: str = DEFAULT_HOST,
    port: int = 0,
    **policer_kwargs: Any,
) -> LivePolicer:
    """Bind a :class:`LivePolicer` to a UDP socket (port 0 → ephemeral)."""
    loop = asyncio.get_running_loop()
    clock = WallClock(loop)
    transport, protocol = await loop.create_datagram_endpoint(
        lambda: LivePolicer(clock, **policer_kwargs),
        local_addr=(host, port),
    )
    # asyncio reads each datagram into a fresh 256 KiB buffer, and in a small
    # heap every such read page-faults; 64 KiB holds any UDP payload.
    transport.max_size = 65536  # type: ignore[attr-defined]
    return protocol


def metrics_endpoint(policer: LivePolicer) -> HttpServer:
    """The policer's HTTP telemetry surface (Prometheus + JSON)."""

    def handler(path: str, query: Dict[str, str]) -> Optional[Response]:
        if path == "/metrics":
            return text_response(policer.metrics_text(),
                                 content_type="text/plain; version=0.0.4")
        if path == "/stats.json":
            return json_response(policer.stats())
        if path == "/healthz":
            return text_response("ok\n")
        return None

    return HttpServer(handler)


async def _serve(args: argparse.Namespace) -> Dict[str, object]:
    spans: Optional[SpanRecorder] = None
    previous_spans: Optional[SpanRecorder] = None
    if args.spans:
        spans = SpanRecorder(capacity=8192)
        previous_spans = set_span_recorder(spans)
    try:
        policer = await start_policer(
            host=args.host,
            port=args.port,
            params=NetFenceParams(),
            master=args.secret.encode(),
            capacity_bps=args.capacity_bps,
            force_mon=args.force_mon,
            as_fairness=args.as_fairness,
        )
    finally:
        if args.spans:
            set_span_recorder(previous_spans)

    log: Optional[JsonLinesLogger] = None
    if args.json:
        log = JsonLinesLogger(clock=policer.clock, name="serve")
        bridge_stdlib(log)
        if spans is not None:
            # Every finished span doubles as a log record, so the stdout
            # stream is also the span export `runner trace --spans` reads.
            spans.add_sink(log.span_record)
    if spans is not None:
        spans.clock = policer.clock

    # The flight recorder is always on: spans ring via attach_flight, log
    # ring via a sink that skips span records (the span ring already has
    # them), metrics ring via the monitor loop below.
    flight = FlightRecorder()
    policer.attach_flight(
        flight, args.flight_dump,
        on_dump=lambda trigger, path: _emit(
            {"event": "flight_dump", "trigger": trigger, "path": path}, log))
    if log is not None:
        log.add_sink(lambda record: None if record.get("event") == "span"
                     else flight.record_log(record))

    metrics_server: Optional[HttpServer] = None
    metrics_port: Optional[int] = None
    if args.metrics_port is not None:
        metrics_server = metrics_endpoint(policer)
        _mhost, metrics_port = await metrics_server.start(
            args.host, args.metrics_port)
    sockname = policer.transport.get_extra_info("sockname")
    listening: Dict[str, object] = {
        "event": "listening", "host": sockname[0], "port": sockname[1],
        "capacity_bps": args.capacity_bps,
    }
    if metrics_port is not None:
        listening["metrics_port"] = metrics_port
    _emit(listening, log)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-Unix
            pass
    try:
        loop.add_signal_handler(
            signal.SIGUSR1, lambda: policer.flight_dump("sigusr1"))
    except (NotImplementedError, AttributeError):  # pragma: no cover - non-Unix
        pass

    def _loop_exception(loop: asyncio.AbstractEventLoop,
                        context: Dict[str, Any]) -> None:
        error = context.get("exception") or context.get("message")
        policer.flight_dump("unhandled_exception", error=repr(error))
        loop.default_exception_handler(context)

    loop.set_exception_handler(_loop_exception)
    if policer._drain_task is not None:
        def _drain_done(task: "asyncio.Task[None]") -> None:
            if not task.cancelled() and task.exception() is not None:
                policer.flight_dump("unhandled_exception",
                                    error=repr(task.exception()))
        policer._drain_task.add_done_callback(_drain_done)

    async def _stats_loop() -> None:
        while True:
            await asyncio.sleep(args.stats_interval)
            _emit(policer.stats(), log)

    async def _monitor_loop() -> None:
        """Feed the flight recorder's metrics ring and police the SLO."""
        while True:
            await asyncio.sleep(args.monitor_interval)
            flight.record_metrics(policer.stats(event="snapshot"))
            if args.slo_min_share is not None:
                share = policer.legit_share(args.slo_legit_prefix)
                if share is not None and share < args.slo_min_share:
                    policer.flight_dump(
                        "slo_breach",
                        legit_share=round(share, 6),
                        slo_min_share=args.slo_min_share,
                        slo_legit_prefix=args.slo_legit_prefix)

    stats_task = (
        loop.create_task(_stats_loop()) if args.stats_interval > 0 else None
    )
    monitor_task = loop.create_task(_monitor_loop())
    try:
        if args.duration > 0:
            try:
                await asyncio.wait_for(stop.wait(), timeout=args.duration)
            except asyncio.TimeoutError:
                pass
        else:
            await stop.wait()
    finally:
        if stats_task is not None:
            stats_task.cancel()
        monitor_task.cancel()
        if metrics_server is not None:
            await metrics_server.close()
        await policer.shutdown()
        if spans is not None and log is not None:
            _emit({"event": "spans_summary", "started": spans.started,
                   "finished": spans.finished, "buffered": len(spans)}, log)
    return policer.stats(event="final")


def _emit(payload: Dict[str, object],
          log: Optional[JsonLinesLogger] = None) -> None:
    if log is not None:
        record = dict(payload)
        event = str(record.pop("event", "stats"))
        log.emit(event, **record)
        return
    event = payload.get("event")
    if event == "listening":
        print(f"serve: listening on {payload['host']}:{payload['port']} "
              f"(capacity {payload['capacity_bps']:.0f} bps)", flush=True)
        return
    if event == "flight_dump":
        print(f"serve: flight dump ({payload['trigger']}) -> {payload['path']}",
              flush=True)
        return
    latency = payload.get("latency_ms", {})
    print(
        f"serve[{event}] t={payload['now']} rx={payload['packets_rx']} "
        f"tx={payload['packets_tx']} dropped={payload['queue']['dropped']} "
        f"mon={payload['in_mon']} limiters={payload['active_rate_limiters']} "
        f"unverified={payload['unverified_admissions']} "
        f"p50={latency.get('p50', '-')}ms p99={latency.get('p99', '-')}ms",
        flush=True,
    )


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="runner serve",
        description="Run a live NetFence policer on a UDP socket.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"UDP port to bind (default {DEFAULT_PORT}; 0 = ephemeral)")
    parser.add_argument("--capacity-bps", type=float, default=DEFAULT_CAPACITY_BPS,
                        help="egress link capacity in bits/s")
    parser.add_argument("--secret", default=DEFAULT_SECRET,
                        help="master secret for Ka/Kai derivation")
    parser.add_argument("--force-mon", action="store_true",
                        help="start with the bottleneck link in the mon state")
    parser.add_argument("--as-fairness", action="store_true",
                        help="per-source-AS DRR on the regular channel (§4.5)")
    parser.add_argument("--stats-interval", type=float, default=0.0,
                        help="print a stats line every N seconds (0 = off)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="serve /metrics (Prometheus text) and /stats.json "
                             "on this TCP port (0 = ephemeral; default off)")
    parser.add_argument("--duration", type=float, default=0.0,
                        help="stop after N seconds (0 = run until SIGINT/SIGTERM)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON-lines output")
    parser.add_argument("--spans", action="store_true",
                        help="record causal spans for packets carrying a "
                             "trace context (with --json, spans are written "
                             "to the log stream)")
    parser.add_argument("--flight-dump", default="netfence-flight.json",
                        help="path for the flight-recorder forensic dump")
    parser.add_argument("--slo-min-share", type=float, default=None,
                        help="trigger a flight dump when the legit share of "
                             "delivered bytes falls below this fraction")
    parser.add_argument("--slo-legit-prefix", default="legit",
                        help="source-host name prefix counted as legitimate "
                             "for the SLO (default 'legit')")
    parser.add_argument("--monitor-interval", type=float, default=0.25,
                        help="flight-recorder snapshot / SLO check period")
    args = parser.parse_args(argv)

    try:
        final = asyncio.run(_serve(args))
    except OSError as exc:
        print(f"serve: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    _emit(final, JsonLinesLogger(name="serve") if args.json else None)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(cli_main())
