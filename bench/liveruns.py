"""The four live workloads, all on :class:`bench.live.Bed`.

Each workload owns one asyncio loop (the harness is one process, one
thread).  ``setup`` builds the bed, ``measure`` spends the time budget on a
warm-up plus timed windows and returns medians over the windows, and
``teardown`` stops everything the workload started.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import corpus as corpus_mod
from bench import scratch, stats, trace
from bench.gen import OpenLoop, Stream, seeded_streams
from bench.live import FRAME_BYTES, Bed, ClosedLoop

VICTIM = "victim"
COLLUDER = "colluder"


def _median(windows: Sequence[Dict[str, float]], key: str) -> float:
    return statistics.median(w[key] for w in windows)


class LiveWorkload:
    """Loop ownership and the bookkeeping every live workload shares."""

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.bed: Optional[Bed] = None
        self.tmpdir: Optional[str] = None

    def prepare(self) -> None:
        """Generate inputs from the seed (not part of set-up time)."""

    def make_bed(self) -> Bed:
        raise NotImplementedError

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.bed = self.make_bed()
        try:
            self.loop.run_until_complete(self.bed.start())
        except BaseException:
            self.teardown()  # a half-started bed may already own a child
            raise

    def measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        try:
            return self.loop.run_until_complete(self._measure(tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()

    async def _measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        raise NotImplementedError

    def teardown(self) -> None:
        try:
            if self.bed is not None and self.loop is not None:
                self.loop.run_until_complete(self.bed.stop())
        finally:
            if self.loop is not None:
                self.loop.close()
            if self.tmpdir is not None:
                scratch.remove(self.tmpdir)

    def peak_rss_mb(self) -> float:
        return self.bed.peak_rss_mb()

    def new_tmpdir(self) -> str:
        self.tmpdir = scratch.make()
        return self.tmpdir

    # -- helpers ----------------------------------------------------------------
    async def timed_window(self, seconds: float) -> Tuple[Dict[str, float], float]:
        """One window of whatever traffic is running: stats and CPU share."""
        bed = self.bed
        bed.begin_phase()
        cpu0 = time.process_time()
        start = bed.loop.time()
        await asyncio.sleep(seconds)
        elapsed = bed.loop.time() - start
        return bed.window(elapsed), time.process_time() - cpu0

    def failures(self, lost: int) -> Tuple[int, List[str]]:
        """The live part of ``failed``: losses and integrity violations."""
        bed = self.bed
        problems = []
        checks = (
            (lost, "legitimate packets lost on an uncongested path"),
            (bed.unverified_admissions(), "unverified admissions at the policer"),
            (bed.codec_errors(), "codec errors on frames the policer emitted"),
            (bed.hostile_strays(), "hostile frames delivered on the regular channel"),
        )
        failed = 0
        for count, what in checks:
            if count:
                failed += count
                problems.append(f"{count} {what}")
        return failed, problems


# ---------------------------------------------------------------------------
# Per-layer numbers of an in-process traced run
# ---------------------------------------------------------------------------

def inproc_layers(tracer: trace.Tracer, probe: trace.LiveProbe, bed: Bed,
                  wall_s: float, baseline: Dict[str, int]) -> Dict[str, float]:
    """Layer metrics from the wrappers around the in-process policer.

    ``baseline`` holds the policer's cumulative counters when the traced
    window began; counts are reported as deltas over the window.
    """
    counts, self_s, mean_us = tracer.counts, tracer.self_s, tracer.mean_us
    policer = bed.policer
    now = policer_counters(bed)
    delta = {key: now[key] - baseline.get(key, 0) for key in now}
    delivered = max(delta["packets_tx"], 1)
    hits = counts.get("core.feedback.memo_hits", 0)
    misses = counts.get("core.feedback.memo_misses", 0)
    transits = max(counts.get("core.bottleneck.transits", 0), 1)
    accounted = sum(self_s.values())
    layers = {
        "runtime.codec.decode_us": mean_us("runtime.codec.decode"),
        "runtime.codec.encode_us": mean_us("runtime.codec.encode"),
        "runtime.codec.errors": delta["codec_errors"],
        "runtime.serve.ingress_us": mean_us("runtime.serve.ingress"),
        "runtime.serve.deliver_us": self_s.get("runtime.serve.deliver", 0.0) / delivered * 1e6,
        "runtime.serve.pace_us": self_s.get("runtime.serve.pace", 0.0) / delivered * 1e6,
        "runtime.serve.pace_overshoot_ms": (
            statistics.median(probe.overshoots) * 1e3 if probe.overshoots else 0.0),
        "runtime.serve.drain_wakeups": (
            counts.get("core.bottleneck.queue.dequeue", 0) / delivered),
        "core.access.admits": counts.get("core.access", 0),
        "core.access.admit_us": mean_us("core.access"),
        "core.ratelimiter.charges": counts.get("core.ratelimiter.police", 0),
        "core.ratelimiter.cached": delta["limiter_cached"],
        "core.ratelimiter.dropped": delta["limiter_dropped"],
        "core.ratelimiter.self_s": self_s.get("core.ratelimiter", 0.0),
        "core.ratelimiter.active": policer.access.active_rate_limiters,
        "core.feedback.validates": counts.get("core.feedback.validates", 0),
        "core.feedback.memo_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "core.feedback.self_s": self_s.get("core.feedback", 0.0),
        "crypto.mac.computes": counts.get("crypto.mac.computes", 0),
        "crypto.mac.self_s": self_s.get("crypto.mac", 0.0),
        "core.bottleneck.transit_us": self_s.get("core.bottleneck", 0.0) / transits * 1e6,
        "core.bottleneck.decr_stamped": counts.get("core.feedback.stamp_decr", 0),
        "core.bottleneck.self_s": self_s.get("core.bottleneck", 0.0),
        "core.bottleneck.queue.enqueue_us": mean_us("core.bottleneck.queue.enqueue"),
        "core.bottleneck.queue.dequeue_us": mean_us("core.bottleneck.queue.dequeue"),
        "core.bottleneck.queue.depth_p99_pkts": (
            stats.percentile(probe.depths, 0.99) if probe.depths else 0.0),
        "core.bottleneck.queue.wait_p50_ms": (
            stats.percentile(probe.waits, 0.50) * 1e3 if probe.waits else 0.0),
        "core.bottleneck.queue.dropped": delta["queue_dropped"],
        "runtime.loadgen.send_us": mean_us("runtime.loadgen.send"),
        "runtime.loadgen.recv_us": mean_us("runtime.loadgen.recv"),
        "core.endhost.self_s": self_s.get("core.endhost", 0.0),
        "obs.metrics.self_us": mean_us("obs.metrics"),
        "trace.unattributed_frac": max(0.0, 1.0 - accounted / wall_s),
    }
    for key in ("request_admitted", "request_dropped", "regular_nop", "regular_invalid",
                "regular_passed", "regular_cached", "regular_dropped"):
        layers[f"core.access.{key}"] = delta[key]
    return layers


def policer_counters(bed: Bed) -> Dict[str, int]:
    """Cumulative counters of the in-process policer, flattened."""
    policer = bed.policer
    limiters = policer.access.rate_limiters.values()
    flat = dict(policer.access.counters)
    flat.update(policer.counters)
    flat["queue_dropped"] = policer.queue.stats.dropped
    flat["limiter_cached"] = sum(l.stats.cached for l in limiters)
    flat["limiter_dropped"] = sum(l.stats.dropped for l in limiters)
    return flat


def child_counters(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """The same flattening for a serve child's ``/stats.json``."""
    flat = dict(snapshot["access"])
    for key in ("codec_errors", "packets_rx", "packets_tx", "unverified_admissions"):
        flat[key] = snapshot[key]
    flat["queue_dropped"] = snapshot["queue"]["dropped"]
    flat["decr_stamped"] = snapshot["decr_stamped"]
    return flat


# ---------------------------------------------------------------------------
# live-inproc-closed
# ---------------------------------------------------------------------------

class InprocClosed(LiveWorkload):
    """32 packets in flight over 4 legit senders, uncongested, no sockets."""

    SENDERS = [f"legit{i}" for i in range(4)]
    IN_FLIGHT = 32

    def make_bed(self) -> Bed:
        return Bed(self.SENDERS, {VICTIM: set()}, capacity_bps=1e9)

    async def _measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        bed, total = self.bed, self.seconds
        streams = [Stream(src, VICTIM, 0.0) for src in self.SENDERS]
        driver = ClosedLoop(bed, streams, self.IN_FLIGHT)
        driver.start()
        await asyncio.sleep(0.1 * total)
        driver.replace_lost()
        driver.lost = 0
        windows = []
        if tracer is None:
            # Nine short windows: a window's p99 swings by a third with
            # whatever else the machine did in that second; their median
            # does not.
            for _ in range(9):
                window, cpu = await self.timed_window(0.1 * total)
                window["cpu_us_per_pkt"] = cpu * 1e6 / max(window["delivered"], 1)
                windows.append(window)
                driver.replace_lost()
        else:
            reference, _ = await self.timed_window(0.25 * total)
            probe = trace.install_live(tracer, bed)
            await asyncio.sleep(0.05 * total)
            tracer.reset()
            probe.reset()
            baseline = policer_counters(bed)
            window, _ = await self.timed_window(0.5 * total)
            layers = inproc_layers(tracer, probe, bed, window["seconds"], baseline)
            layers["trace.overhead_frac"] = reference["pps"] / window["pps"] - 1.0
            windows.append(window)
        driver.stop()
        sent = sum(w["sent"] for w in windows)
        failed, problems = self.failures(driver.lost)
        out: Dict[str, Any] = {
            "attempted": sent, "failed": failed, "problems": problems,
            "detail": {"windows": windows, "in_flight": self.IN_FLIGHT},
        }
        if tracer is None:
            out["e2e"] = {
                "throughput_per_s": _median(windows, "pps"),
                "latency_p50_ms": _median(windows, "p50_ms"),
                "latency_tail_ms": _median(windows, "p99_ms"),
            }
            out["named"] = {
                "delivered_pps": (out["e2e"]["throughput_per_s"], "1/s"),
                "cpu_us_per_pkt": (_median(windows, "cpu_us_per_pkt"), "us")}
        else:
            out["layers"] = layers
        return out


# ---------------------------------------------------------------------------
# live-inproc-hostile
# ---------------------------------------------------------------------------

class InprocHostile(LiveWorkload):
    """The reject path: a seeded hostile corpus as fast as the thread allows."""

    BURST = 512
    DRAIN_TURNS = 32
    TRICKLE_IN_FLIGHT = 4
    #: A trickle, not a second load: each delivery is followed by a pause.
    TRICKLE_THINK_S = 0.01
    HOSTILE_ADDR = ("198.51.100.7", 4000)

    def prepare(self) -> None:
        started = time.perf_counter()
        chunks = int(self.seconds // corpus_mod.CHUNK_SECONDS) + 1
        frames = 2_000 if self.smoke else corpus_mod.CHUNK_FRAMES
        self.corpus = corpus_mod.Corpus(self.seed, chunks, VICTIM, frames)
        self.corpus_build_s = time.perf_counter() - started

    def make_bed(self) -> Bed:
        return Bed(["legit0"], {VICTIM: set()}, capacity_bps=1e9,
                   clock_origin=corpus_mod.CLOCK_ORIGIN)

    async def _flood(self, seconds: float) -> Tuple[int, float]:
        """Feed bursts until ``seconds`` passed; returns (frames, elapsed)."""
        bed, policer, burst = self.bed, self.bed.policer, self.BURST
        clock, origin, addr = policer.clock, corpus_mod.CLOCK_ORIGIN, self.HOSTILE_ADDR
        start = bed.loop.time()
        end = start + seconds
        fed = 0
        while bed.loop.time() < end:
            chunk = self.corpus.chunk_at(clock.now - origin)
            offset = self.position % len(chunk)
            frames = chunk[offset:offset + burst]
            self.feed(frames, addr)
            self.position += len(frames)
            fed += len(frames)
            # The drain task moves one packet per loop iteration (it sleeps
            # the transmit time after each); a socket would interleave it
            # with single datagrams, so give it its turns between bursts.
            await asyncio.sleep(0)
            for _ in range(self.DRAIN_TURNS):
                if not len(policer.queue):
                    break
                await asyncio.sleep(0)
        return fed, bed.loop.time() - start

    def feed(self, frames: List[bytes], addr: Tuple[str, int]) -> None:
        receive = self.bed.policer.datagram_received
        for frame in frames:
            receive(frame, addr)

    async def _measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        bed, total = self.bed, self.seconds
        self.position = 0
        trickle = ClosedLoop(bed, [Stream("legit0", VICTIM, 0.0)], self.TRICKLE_IN_FLIGHT,
                             think_s=self.TRICKLE_THINK_S)
        trickle.start()
        await self._flood(0.1 * total)
        trickle.replace_lost()
        trickle.lost = 0
        windows = []
        fed_total = 0
        if tracer is None:
            for _ in range(3):
                bed.begin_phase()
                cpu0 = time.process_time()
                fed, elapsed = await self._flood(0.3 * total)
                window = bed.window(elapsed)
                window.update(frames=fed, policed_pps=fed / elapsed,
                              cpu_us_per_frame=(time.process_time() - cpu0) * 1e6 / fed,
                              raw_latencies=bed.latencies)
                windows.append(window)
                fed_total += fed
                trickle.replace_lost()
        else:
            fed, elapsed = await self._flood(0.25 * total)
            reference = fed / elapsed
            probe = trace.install_live(tracer, bed)
            tracer.patch(self, "feed", "runtime.loadgen.send", "runtime.loadgen.bursts")
            await self._flood(0.05 * total)
            tracer.reset()
            probe.reset()
            baseline = policer_counters(bed)
            bed.begin_phase()
            fed, elapsed = await self._flood(0.5 * total)
            window = bed.window(elapsed)
            window.update(frames=fed, policed_pps=fed / elapsed)
            layers = inproc_layers(tracer, probe, bed, elapsed, baseline)
            layers["trace.overhead_frac"] = reference / window["policed_pps"] - 1.0
            # One burst is one "send" of the generator: report it per frame.
            layers["runtime.loadgen.send_us"] = (
                tracer.self_s.get("runtime.loadgen.send", 0.0) / fed * 1e6)
            windows.append(window)
            fed_total += fed
        trickle.stop()
        failed, problems = self.failures(trickle.lost)
        out: Dict[str, Any] = {
            "attempted": fed_total + sum(w["sent"] for w in windows),
            "failed": failed, "problems": problems,
            "detail": {
                "windows": windows, "corpus_digest": self.corpus.digest,
                "corpus_classes": self.corpus.classes,
                "corpus_forged_fresh_per_chunk": (
                    self.corpus.forged_fresh // len(self.corpus.chunks)),
                "corpus_build_s": self.corpus_build_s,
                "hello_table": len(bed.policer.addrs),
                "request_limiters": len(bed.policer.access.request_limiters),
            },
        }
        if tracer is None:
            pooled = [s for w in windows for s in w.pop("raw_latencies")]
            out["e2e"] = {
                "throughput_per_s": _median(windows, "policed_pps"),
                "latency_p50_ms": _median(windows, "p50_ms"),
                # ~600 trickle packets per window carry no p99; 1800 do.
                "latency_tail_ms": stats.percentile(pooled, 0.99) * 1e3,
            }
            out["detail"]["trickle_ms"] = {
                f"p{q}": stats.percentile(pooled, q / 100) * 1e3 for q in (50, 90, 95, 99)}
            out["named"] = {
                "policed_pps": (out["e2e"]["throughput_per_s"], "1/s"),
                "cpu_us_per_frame": (_median(windows, "cpu_us_per_frame"), "us")}
        else:
            out["layers"] = layers
        return out


# ---------------------------------------------------------------------------
# Open-loop workloads over loopback, and their in-process twins
# ---------------------------------------------------------------------------

class OpenLoopWorkload(LiveWorkload):
    """Due-time traffic through a serve child (or, traced, its twin)."""

    CAPACITY_BPS = 1e9
    FORCE_MON = False
    FRAME_BYTES = FRAME_BYTES
    TRAIN = 1
    INTERLEAVE = False
    SENDERS: List[str] = []
    SINKS: List[str] = []

    def __init__(self, seed: int, seconds: float, smoke: bool = False,
                 twin: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        self.twin = twin

    def make_bed(self) -> Bed:
        return Bed(self.SENDERS, {name: set() for name in self.SINKS},
                   capacity_bps=self.CAPACITY_BPS, force_mon=self.FORCE_MON,
                   tmpdir=None if self.twin else self.new_tmpdir(),
                   frame_bytes=self.FRAME_BYTES,
                   stop_grace_s=0.2 if self.smoke else 2.0)

    def _send_train(self, stream: Stream, due: float) -> None:
        self.bed.send_train(stream, due, self.TRAIN)

    def streams(self, flows: Sequence[Tuple[str, str, float]]) -> List[Stream]:
        """Seeded-phase streams; rates are packets/s, sent in trains."""
        return seeded_streams(
            self.seed, [(src, dst, pps / self.TRAIN) for src, dst, pps in flows],
            interleave=self.INTERLEAVE)

    async def offer(self, streams: Sequence[Stream], seconds: float,
                    settle: float = 0.0) -> Dict[str, Any]:
        """One open-loop window; over loopback also the child's deltas."""
        bed, child = self.bed, self.bed.child
        generator = OpenLoop(bed.loop, self._send_train)
        bed.begin_phase()
        if child is not None:
            before = child.stats()
            cpu0 = child.cpu_s()
        else:
            cpu0 = time.process_time()
        start = bed.loop.time() + 0.005
        await generator.run(streams, start, start + seconds)
        elapsed = bed.loop.time() - start
        window = bed.window(elapsed)
        window["lag_p99_ms"] = stats.percentile(generator.lags, 0.99) * 1e3
        window["delivered_by_src"] = dict(bed.delivered)
        window["raw_latencies"] = bed.latencies
        if settle:
            # Let the last packets land: what is still missing then is lost,
            # and what is still queued then is a backlog, not a train in flight.
            await asyncio.sleep(settle)
            window["lost"] = bed.lost()
        if child is not None:
            cpu_s = child.cpu_s() - cpu0
            after = child.stats()
            rx = after["packets_rx"] - before["packets_rx"]
            window.update(depth_start=before["queue"]["depth_pkts"],
                          depth_end=after["queue"]["depth_pkts"],
                          child_before=before, child_after=after)
        else:
            cpu_s = time.process_time() - cpu0
            rx = window["sent"]
        window["cpu_us_per_pkt"] = cpu_s * 1e6 / max(rx, 1)
        return window

    async def twin_layers(self, tracer: trace.Tracer, flows: Sequence[tuple],
                          warm_s: float, seconds: float) -> Dict[str, float]:
        """Per-stage numbers from the in-process twin of the same traffic."""
        twin = type(self)(self.seed, seconds, self.smoke, twin=True)
        twin.loop = self.loop
        twin.bed = twin.make_bed()
        await twin.bed.start()
        try:
            streams = twin.streams(flows)
            reference = await twin.offer(streams, warm_s)
            probe = trace.install_live(tracer, twin.bed)
            tracer.reset()
            probe.reset()
            baseline = policer_counters(twin.bed)
            window = await twin.offer(streams, seconds)
            layers = inproc_layers(tracer, probe, twin.bed, window["seconds"], baseline)
            layers["runtime.loadgen.lag_p99_ms"] = window["lag_p99_ms"]
            layers["trace.overhead_frac"] = (
                window["cpu_us_per_pkt"] / reference["cpu_us_per_pkt"] - 1.0)
            # The policer's own work per packet: everything but the
            # generator's side and the time the drain spent asleep.
            harness = ("runtime.loadgen.send", "runtime.loadgen.recv", "core.endhost",
                       "runtime.serve.pace", trace.IDLE)
            layers["twin.busy_us_per_pkt"] = (
                sum(v for k, v in tracer.self_s.items() if k not in harness)
                * 1e6 / max(window["sent"], 1))
            return layers
        finally:
            tracer.uninstall()
            await twin.bed.stop()

    @staticmethod
    def child_deltas(layers: Dict[str, float], window: Dict[str, Any]) -> None:
        """Overwrite the twin's counts with the child's own counter deltas."""
        before = child_counters(window["child_before"])
        after = child_counters(window["child_after"])
        delta = {key: after[key] - before[key] for key in after}
        for key in ("request_admitted", "request_dropped", "regular_nop",
                    "regular_invalid", "regular_passed", "regular_cached",
                    "regular_dropped"):
            layers[f"core.access.{key}"] = delta[key]
        layers["core.access.admits"] = delta["packets_rx"]
        layers["core.ratelimiter.charges"] = (
            delta["regular_passed"] + delta["regular_cached"] + delta["regular_dropped"])
        layers["core.ratelimiter.cached"] = delta["regular_cached"]
        layers["core.ratelimiter.dropped"] = delta["regular_dropped"]
        layers["core.ratelimiter.active"] = window["child_after"]["active_rate_limiters"]
        layers["core.bottleneck.decr_stamped"] = delta["decr_stamped"]
        layers["core.bottleneck.queue.dropped"] = delta["queue_dropped"]
        layers["runtime.codec.errors"] = delta["codec_errors"]
        layers["runtime.serve.cpu_us_per_pkt"] = window["cpu_us_per_pkt"]
        layers["runtime.serve.io_us_per_pkt"] = (
            window["cpu_us_per_pkt"] - layers.pop("twin.busy_us_per_pkt"))


class LoopbackLegit(OpenLoopWorkload):
    """What an operator sees: latency across the policer, and where it ends.

    Two legitimate senders, uncongested 1 Gb/s link, real loopback UDP.
    Packets are 1500 bytes nominal and leave in trains of four: a perfectly
    paced 125-byte stream never has two packets queued (and its 1 µs
    transmit time has always passed before the drain task sleeps), which
    would hide the drain's per-packet pacing cost completely.
    """

    FRAME_BYTES = 1500
    TRAIN = 4
    #: Two trains that overlap are one train of eight: whether the seed's
    #: phases made them overlap decided a whole run's latencies (2.0 or
    #: 2.9 ms median).  The senders alternate instead.
    INTERLEAVE = True
    SENDERS = ["legit0", "legit1"]
    SINKS = [VICTIM]
    BASE_PPS = 500.0
    LADDER_PPS = (750.0, 1500.0, 3000.0, 6000.0, 12000.0)
    #: A ladder step passes if all four hold.
    MAX_P99_MS = 20.0
    MAX_LOSS = 0.01
    MAX_LAG_P99_MS = 5.0

    def flows(self, pps: float) -> List[Tuple[str, str, float]]:
        return [(src, VICTIM, pps / len(self.SENDERS)) for src in self.SENDERS]

    def judge(self, window: Dict[str, Any]) -> str:
        """``ok``, ``generator-limited`` or the first policer-side failure."""
        if window["p99_ms"] > self.MAX_P99_MS:
            return "latency"
        if window["lost"] > self.MAX_LOSS * window["sent"]:
            return "loss"
        if window["depth_end"] > window["depth_start"]:
            return "backlog"
        if window["lag_p99_ms"] > self.MAX_LAG_P99_MS:
            return "generator-limited"
        return "ok"

    async def _measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        total = self.seconds
        base = self.streams(self.flows(self.BASE_PPS))
        await self.offer(base, 0.06 * total, settle=0.02 * total)
        if tracer is not None:
            window = await self.offer(base, 0.3 * total, settle=0.02 * total)
            layers = await self.twin_layers(tracer, self.flows(self.BASE_PPS),
                                            0.15 * total, 0.35 * total)
            self.child_deltas(layers, window)
            failed, problems = self.failures(window["lost"])
            return {"attempted": window["sent"], "failed": failed, "problems": problems,
                    "layers": layers, "detail": {"windows": [_public(window)]}}
        windows = [await self.offer(base, 0.2 * total, settle=0.015 * total)
                   for _ in range(3)]
        ladder, max_ok = [], self.BASE_PPS
        for pps in self.LADDER_PPS:
            # A step holds some 150-1000 trains, so one 30 ms stall of either
            # process owns its p99: a step has failed when it fails twice.
            for _attempt in range(2):
                step = await self.offer(self.streams(self.flows(pps)), 0.075 * total,
                                        settle=0.02 * total)
                step["offered_pps"] = pps
                step["verdict"] = self.judge(step)
                ladder.append(step)
                if step["verdict"] == "ok":
                    break
            if step["verdict"] != "ok":
                break
            max_ok = pps
        lost = sum(w["lost"] for w in windows)
        failed, problems = self.failures(lost)
        # 250 trains per window carry no tail percentile; the three windows
        # pooled carry a p95 (37 samples beyond it; a p99 would have 7).
        pooled = [sample for w in windows for sample in w["raw_latencies"]]
        e2e = {
            "throughput_per_s": max_ok,
            "latency_p50_ms": _median(windows, "p50_ms"),
            "latency_tail_ms": stats.percentile(pooled, 0.95) * 1e3,
        }
        return {
            "attempted": sum(w["sent"] for w in windows), "failed": failed,
            "problems": problems, "e2e": e2e,
            "named": {"max_ok_rate_pps": (max_ok, "1/s"),
                      "serve_cpu_us_per_pkt": (_median(windows, "cpu_us_per_pkt"), "us"),
                      "train_p99_ms": (stats.percentile(pooled, 0.99) * 1e3, "ms"),
                      "generator_lag_p99_ms": (_median(windows, "lag_p99_ms"), "ms")},
            "detail": {"windows": [_public(w) for w in windows],
                       "ladder": [_public(s) for s in ladder]},
        }


class LoopbackCollude(OpenLoopWorkload):
    """The paper's guarantee on the live path: colluding floods, link in mon.

    400 kb/s link (400 packets/s of 125 bytes), two legitimate senders at
    150 packets/s to the victim, two attackers at 800 packets/s to a
    colluding sink that returns feedback honestly.
    """

    CAPACITY_BPS = 400_000.0
    FORCE_MON = True
    SENDERS = ["legit0", "legit1", "atk0", "atk1"]
    SINKS = [VICTIM, COLLUDER]
    LEGIT = ("legit0", "legit1")
    FLOWS = [("legit0", VICTIM, 150.0), ("legit1", VICTIM, 150.0),
             ("atk0", COLLUDER, 800.0), ("atk1", COLLUDER, 800.0)]
    #: Below this the guarantee itself is broken, whatever the speed.
    MIN_LEGIT_SHARE = 0.40

    def fairness(self, window: Dict[str, Any]) -> Dict[str, float]:
        by_src = window["delivered_by_src"]
        legit = sum(by_src.get(src, 0) for src in self.LEGIT)
        total = sum(by_src.values())
        fair_pps = self.CAPACITY_BPS / (8.0 * FRAME_BYTES) / len(self.SENDERS)
        return {
            "legit_pps": legit / window["seconds"],
            "delivered_pps": total / window["seconds"],
            "legit_share": legit / total if total else 0.0,
            "legit_fairshare_frac": legit / len(self.LEGIT) / window["seconds"] / fair_pps,
        }

    async def _measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        total = self.seconds
        streams = self.streams(self.FLOWS)
        self.bed.timed_sources = set(self.LEGIT)
        share = 0.5 if tracer is not None else 1.0
        await self.offer(streams, 0.35 * total * share)
        window = await self.offer(streams, 0.65 * total * share)
        fair = self.fairness(window)
        in_mon = window["child_after"]["in_mon"]
        failed, problems = self.failures(0)
        if not in_mon:
            failed += 1
            problems.append("the policed link left the mon state")
        if fair["legit_share"] < self.MIN_LEGIT_SHARE:
            failed += 1
            problems.append(f"legit share {fair['legit_share']:.3f} is below "
                            f"{self.MIN_LEGIT_SHARE}: the fair-share floor is broken")
        out: Dict[str, Any] = {
            "attempted": window["sent"], "failed": failed, "problems": problems,
            "detail": {"windows": [_public(window)], "fairness": fair},
        }
        if tracer is not None:
            layers = await self.twin_layers(tracer, self.FLOWS, 0.2 * total, 0.3 * total)
            self.child_deltas(layers, window)
            layers.update({f"workload.{key}": value for key, value in fair.items()
                           if key != "legit_pps"})
            out["layers"] = layers
            return out
        out["e2e"] = {
            "throughput_per_s": fair["legit_pps"],
            "latency_p50_ms": window["p50_ms"],
            "latency_tail_ms": window["p99_ms"],
        }
        out["named"] = {
            "legit_goodput_pps": (fair["legit_pps"], "1/s"),
            "delivered_pps": (fair["delivered_pps"], "1/s"),
            "legit_share": (fair["legit_share"], "fraction"),
            "legit_fairshare_frac": (fair["legit_fairshare_frac"], "fraction"),
            "serve_cpu_us_per_pkt": (window["cpu_us_per_pkt"], "us"),
            "generator_lag_p99_ms": (window["lag_p99_ms"], "ms"),
        }
        return out


def _public(window: Dict[str, Any]) -> Dict[str, Any]:
    """A window without the raw child snapshots (for the result file)."""
    return {k: v for k, v in window.items() if not k.startswith(("child_", "raw_"))}
