"""Benchmark-owned tracing: wrappers around the layers' public entry points.

Nothing under ``src/`` knows about this module.  A traced run patches class
attributes (before the objects are built), instance attributes (on the one
live policer and its hosts) and a few module-level function names with
wrappers that keep a span stack in memory.  A layer's *self time* is its
spans' duration minus the part covered by child spans, so the layers of one
workload add up to the wall time they ran in, and whatever is left over is
reported as ``trace.unattributed_frac``.

Spans are ``(name, start, end, parent)`` tuples; only the first
``keep_spans`` are kept verbatim (a simulator repeat opens millions), the
per-layer totals always cover every span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Pseudo-layer for the time the live drain task waits on an empty queue.
IDLE = "idle"


class Tracer:
    """Span stack, per-layer totals, and the undo list of installed patches."""

    def __init__(self, keep_spans: int = 20_000) -> None:
        self.keep_spans = keep_spans
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        #: Objects captured at construction, by class name.
        self.instances: Dict[str, list] = defaultdict(list)
        self._undo: List[Callable[[], None]] = []

    # -- accounting -------------------------------------------------------------
    def reset(self) -> None:
        """Zero the totals (after warm-up); open spans keep running."""
        self.self_s.clear()
        self.counts.clear()

    def busy_s(self) -> float:
        """Self time summed over every real layer (``idle`` excluded)."""
        return sum(v for k, v in self.self_s.items() if k != IDLE)

    def mean_us(self, layer: str) -> float:
        """Mean self time per call of a layer counted under its own name."""
        calls = self.counts.get(layer, 0)
        return self.self_s.get(layer, 0.0) / calls * 1e6 if calls else 0.0

    # -- wrappers ---------------------------------------------------------------
    def wrap(self, layer: str, fn: Callable[..., Any],
             count_key: Optional[str] = None,
             false_key: Optional[str] = None) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span of ``layer``.

        ``count_key`` names the call counter (default: the layer);
        ``false_key`` additionally counts calls that returned ``False``
        (queue drops).
        """
        stack, self_s, counts, spans = self.stack, self.self_s, self.counts, self.spans
        keep, clock = self.keep_spans, time.perf_counter
        count_key = count_key or layer

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = -1
            if len(spans) < keep:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                counts[count_key] += 1
                if false_key is not None and result is False:
                    counts[false_key] += 1
                parent = -1
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                if index >= 0:
                    spans[index] = (layer, start, start + elapsed, parent)

        traced.layer = layer  # type: ignore[attr-defined]
        return traced

    def open(self, layer: str) -> None:
        """Open a span that another call site will :meth:`close`.

        Used where a layer's work lies *between* two public calls (the live
        drain: dequeue → sendto is delivery, sendto → dequeue is pacing).
        """
        self.stack.append([0.0, -1, layer, time.perf_counter()])

    def close(self) -> None:
        """Close the innermost span if it is one :meth:`open` made."""
        if self.stack and len(self.stack[-1]) == 4:
            child_s, _index, layer, start = self.stack.pop()
            elapsed = time.perf_counter() - start
            self.self_s[layer] += elapsed - child_s
            if self.stack:
                self.stack[-1][0] += elapsed

    # -- patching ---------------------------------------------------------------
    def patch(self, owner: Any, attr: str, layer: str,
              count_key: Optional[str] = None,
              false_key: Optional[str] = None) -> None:
        """Replace ``owner.attr`` (class, instance or module) with a wrapper."""
        self.replace(owner, attr,
                     self.wrap(layer, getattr(owner, attr), count_key, false_key))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """``setattr`` with undo; inherited attributes are deleted on undo."""
        own = vars(owner)
        if attr in own:
            original = own[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def capture(self, cls: type, after_init: Optional[Callable[[Any], None]] = None) -> None:
        """Record every instance of ``cls`` built from now on."""
        original = cls.__init__
        registry = self.instances[cls.__name__]

        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            registry.append(obj)
            if after_init is not None:
                after_init(obj)

        self.replace(cls, "__init__", init)

    @staticmethod
    def wrapper_cost_s(calls: int = 20_000) -> float:
        """Seconds one wrapped call costs over a bare one, measured now."""
        def bare() -> None:
            pass

        wrapped = Tracer().wrap("calibration", bare)
        start = time.perf_counter()
        for _ in range(calls):
            bare()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.perf_counter() - middle) - (middle - start)) / calls

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        while self.stack and len(self.stack[-1]) == 4:
            self.close()


# ---------------------------------------------------------------------------
# Simulator workloads: class-level patches, installed before execute_spec
# ---------------------------------------------------------------------------

_QUEUE_METHODS = ("enqueue", "dequeue")

#: (module, class, methods, layer).  Method ``m`` of layer ``L`` is counted
#: under ``L.m``.
_SIM_CLASS_PATCHES: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.simulator.engine", "Simulator", ("run",), "simulator.engine"),
    ("repro.simulator.link", "Link", ("send",), "simulator.link"),
    ("repro.simulator.node", "Host", ("send", "receive"), "simulator.node"),
    ("repro.simulator.node", "Router", ("receive", "forward"), "simulator.node"),
    ("repro.simulator.queues", "DropTailQueue", _QUEUE_METHODS, "simulator.queues"),
    ("repro.simulator.queues", "REDQueue", _QUEUE_METHODS, "simulator.queues"),
    ("repro.simulator.queues", "PriorityChannelQueue", _QUEUE_METHODS, "simulator.queues"),
    ("repro.simulator.queues", "LevelPriorityQueue", _QUEUE_METHODS, "simulator.queues"),
    ("repro.simulator.fairqueue", "DRRQueue", _QUEUE_METHODS, "simulator.fairqueue"),
    ("repro.simulator.fairqueue", "HierarchicalFairQueue", _QUEUE_METHODS,
     "simulator.fairqueue"),
    ("repro.core.bottleneck", "NetFenceChannelQueue", _QUEUE_METHODS,
     "core.bottleneck.queue"),
    ("repro.core.bottleneck", "NetFenceRouter", ("on_transit", "before_enqueue"),
     "core.bottleneck"),
    ("repro.core.access", "NetFenceAccessRouter", ("admit_from_host",), "core.access"),
    ("repro.core.access", "LegacyAccessRouter", ("admit_from_host",), "core.access"),
    ("repro.core.ratelimiter", "RegularRateLimiter", ("police",), "core.ratelimiter"),
    ("repro.core.ratelimiter", "RequestRateLimiter", ("admit",), "core.ratelimiter"),
    ("repro.core.feedback", "FeedbackStamper", ("stamp_nop", "stamp_incr"),
     "core.feedback"),
    ("repro.core.feedback", "BottleneckStamper", ("stamp_decr",), "core.feedback"),
    ("repro.transport.tcp", "TcpSender", ("start", "on_packet"), "transport.tcp"),
    ("repro.transport.tcp", "TcpReceiver", ("on_packet",), "transport.tcp"),
    ("repro.transport.udp", "UdpSender", ("start", "on_packet"), "transport.udp"),
    ("repro.transport.udp", "UdpSink", ("on_packet",), "transport.udp"),
)


def _cls(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


def patch_mac(tracer: Tracer) -> None:
    """Span every MAC computation (``compute_mac`` is imported by name)."""
    mac = importlib.import_module("repro.crypto.mac")
    feedback = importlib.import_module("repro.core.feedback")
    traced = tracer.wrap("crypto.mac", mac.compute_mac, "crypto.mac.computes")
    tracer.replace(mac, "compute_mac", traced)
    tracer.replace(feedback, "compute_mac", traced)


def patch_validate(tracer: Tracer, owner: Any) -> None:
    """Span ``FeedbackStamper.validate`` and classify each call.

    A call on fresh feedback that computed no MAC was answered by the
    verification memo; ``core.feedback.memo_hits`` / ``memo_misses`` give
    ``memo_hit_frac`` without reading the stamper's private cache.
    """
    inner = tracer.wrap("core.feedback", getattr(owner, "validate"),
                        "core.feedback.validates")
    counts = tracer.counts
    bound = not isinstance(owner, type)

    def validate(*args: Any, **kwargs: Any) -> bool:
        feedback, now, expiration = (
            (args[0], args[3], args[4]) if bound else (args[1], args[4], args[5]))
        before = counts["crypto.mac.computes"]
        verdict = inner(*args, **kwargs)
        if feedback.mac and feedback.is_fresh(now, expiration):
            if counts["crypto.mac.computes"] == before:
                counts["core.feedback.memo_hits"] += 1
            else:
                counts["core.feedback.memo_misses"] += 1
        return verdict

    tracer.replace(owner, "validate", validate)


def wrap_filters(tracer: Tracer, shim: Any) -> None:
    """Span the end-host shim's filters where the host keeps them."""
    for filters in (shim.host.outbound_filters, shim.host.inbound_filters):
        for i, fn in enumerate(filters):
            if getattr(fn, "__self__", None) is shim:
                filters[i] = tracer.wrap("core.endhost", fn)


def install_sim(tracer: Tracer) -> None:
    """Patch the simulator stack; call before the scenario is built."""
    engine = importlib.import_module("repro.simulator.engine")
    sim_cls, timer_cls = engine.Simulator, engine.PeriodicTimer
    stack, self_s, counts = tracer.stack, tracer.self_s, tracer.counts
    clock = time.perf_counter
    layer_cache: Dict[Any, str] = {}

    def layer_of(callback: Callable[..., Any]) -> str:
        owner = getattr(callback, "__self__", None)
        if type(owner) is timer_cls:
            callback = owner.callback  # the timer's target owns the time
        func = getattr(callback, "__func__", callback)
        layer = layer_cache.get(func)
        if layer is None:
            layer = getattr(func, "layer", None)
            if layer is None:
                module = getattr(func, "__module__", None) or ""
                layer = module[len("repro."):] if module.startswith("repro.") else "other"
            layer_cache[func] = layer
        return layer

    def dispatch(callback: Callable[..., Any], args: tuple) -> None:
        # One span per simulator event, charged to the layer that owns the
        # callback; the engine keeps only its own loop and heap time.
        counts["simulator.engine.events"] += 1
        layer = layer_of(callback)
        frame = [0.0, -1]
        stack.append(frame)
        start = clock()
        try:
            callback(*args)
        finally:
            elapsed = clock() - start
            stack.pop()
            self_s[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    schedule = tracer.wrap("simulator.engine", sim_cls.schedule,
                           "simulator.engine.schedules")
    schedule_fast = tracer.wrap("simulator.engine", sim_cls.schedule_fast,
                                "simulator.engine.schedules")
    schedule_at = tracer.wrap("simulator.engine", sim_cls.schedule_at,
                              "simulator.engine.schedules")
    tracer.replace(sim_cls, "schedule",
                   lambda sim, delay, callback, *args:
                   schedule(sim, delay, dispatch, callback, args))
    tracer.replace(sim_cls, "schedule_fast",
                   lambda sim, delay, callback, args=():
                   schedule_fast(sim, delay, dispatch, (callback, args)))
    tracer.replace(sim_cls, "schedule_at",
                   lambda sim, when, callback, *args:
                   schedule_at(sim, when, dispatch, callback, args))

    for module, name, methods, layer in _SIM_CLASS_PATCHES:
        cls = _cls(module, name)
        for method in methods:
            tracer.patch(cls, method, layer, f"{layer}.{method}",
                         f"{layer}.drops" if method == "enqueue" else None)
    patch_mac(tracer)
    patch_validate(tracer, _cls("repro.core.feedback", "FeedbackStamper"))

    # Exact packet counts through the links' own tap, set where the public
    # topology builder hands the link back.
    topology = _cls("repro.simulator.topology", "Topology")
    add_link = topology.add_link

    def count_transmit(packet: Any, link: Any) -> None:
        counts["simulator.link.transmits"] += 1

    def traced_add_link(self: Any, *args: Any, **kwargs: Any) -> Any:
        link = add_link(self, *args, **kwargs)
        link.transmit_tap = count_transmit
        return link

    tracer.replace(topology, "add_link", traced_add_link)

    tracer.capture(_cls("repro.core.endhost", "NetFenceEndHost"),
                   lambda shim: wrap_filters(tracer, shim))
    tracer.capture(_cls("repro.core.access", "NetFenceAccessRouter"))
    tracer.capture(_cls("repro.core.ratelimiter", "RegularRateLimiter"))
    tracer.capture(_cls("repro.transport.udp", "UdpSender"))


def access_counters(routers: List[Any]) -> Dict[str, int]:
    """Summed policing-decision counters of the captured access routers."""
    total: Dict[str, int] = defaultdict(int)
    for router in routers:
        for key, value in router.counters.items():
            total[key] += value
    return total


# ---------------------------------------------------------------------------
# Live workloads: instance-level patches on the one in-process policer
# ---------------------------------------------------------------------------

class LiveProbe:
    """What the live wrappers sample besides spans."""

    def __init__(self) -> None:
        self.depths: List[int] = []       # queue length seen by each enqueue
        self.waits: List[float] = []      # enqueue → dequeue, per packet
        self.overshoots: List[float] = []  # backlogged inter-departure gap − ideal
        self.enqueued_at: Dict[int, float] = {}
        self.last_departure: Optional[float] = None
        self.backlogged = False

    def reset(self) -> None:
        self.depths.clear()
        self.waits.clear()
        self.overshoots.clear()


def install_live(tracer: Tracer, bed: Any) -> LiveProbe:
    """Wrap the in-process policer of ``bed`` and the hosts around it."""
    policer, queue, access = bed.policer, bed.policer.queue, bed.policer.access
    serve = importlib.import_module("repro.runtime.serve")
    probe = LiveProbe()
    clock = time.perf_counter

    tracer.patch(serve, "decode_frame", "runtime.codec.decode")
    tracer.patch(serve, "encode_packet", "runtime.codec.encode")
    tracer.patch(policer, "datagram_received", "runtime.serve.ingress")
    tracer.patch(access, "admit_from_host", "core.access")
    patch_validate(tracer, access.stamper)
    tracer.patch(access.stamper, "stamp_nop", "core.feedback", "core.feedback.stamps")
    tracer.patch(access.stamper, "stamp_incr", "core.feedback", "core.feedback.stamps")
    tracer.patch(policer.bottleneck.stamper, "stamp_decr", "core.feedback",
                 "core.feedback.stamp_decr")
    patch_mac(tracer)
    tracer.patch(_cls("repro.core.ratelimiter", "RegularRateLimiter"), "police",
                 "core.ratelimiter", "core.ratelimiter.police")
    tracer.patch(_cls("repro.core.ratelimiter", "RequestRateLimiter"), "admit",
                 "core.ratelimiter", "core.ratelimiter.admit")
    tracer.patch(policer.bottleneck, "on_transit", "core.bottleneck",
                 "core.bottleneck.transits")
    tracer.patch(policer.bottleneck, "before_enqueue", "core.bottleneck",
                 "core.bottleneck.stamp_checks")
    tracer.patch(_cls("repro.obs.metrics", "Histogram"), "observe", "obs.metrics")
    for host in bed.hosts.values():
        tracer.patch(host, "send", "runtime.loadgen.send")
        tracer.patch(host, "on_datagram", "runtime.loadgen.recv")
    for shim in bed.shims:
        wrap_filters(tracer, shim)

    # The queue and the wire delimit the two stretches of the drain task that
    # no public call covers: dequeue → sendto is delivery (egress assert,
    # bookkeeping, encode), sendto → next dequeue is pacing (the drain's
    # sleep plus whatever the event loop costs to come back).
    inner_enqueue = tracer.wrap("core.bottleneck.queue.enqueue", queue.enqueue,
                                false_key="core.bottleneck.queue.drops")
    inner_dequeue = tracer.wrap("core.bottleneck.queue.dequeue", queue.dequeue)
    ideal_gap = bed.frame_bytes * 8.0 / policer.capacity_bps

    def enqueue(packet: Any) -> bool:
        accepted = inner_enqueue(packet)
        if accepted:
            probe.enqueued_at[packet.uid] = clock()
        probe.depths.append(len(queue))
        return accepted

    def dequeue() -> Any:
        tracer.close()
        packet = inner_dequeue()
        if packet is None:
            tracer.open(IDLE)
            return None
        entered = probe.enqueued_at.pop(packet.uid, None)
        if entered is not None:
            probe.waits.append(clock() - entered)
        tracer.open("runtime.serve.deliver")
        return packet

    wire_sendto = bed.wire.sendto

    def sendto(data: bytes, addr: Any) -> None:
        tracer.close()
        now = clock()
        if probe.backlogged and probe.last_departure is not None:
            probe.overshoots.append(now - probe.last_departure - ideal_gap)
        probe.last_departure = now
        probe.backlogged = len(queue) > 0
        wire_sendto(data, addr)
        tracer.open("runtime.serve.pace" if probe.backlogged else IDLE)

    tracer.replace(queue, "enqueue", enqueue)
    tracer.replace(queue, "dequeue", dequeue)
    tracer.replace(bed.wire, "sendto", sendto)
    return probe
