"""In-process smoke test: live policer + loadgen over loopback.

Starts a :class:`~repro.runtime.serve.LivePolicer` on an ephemeral UDP port
and drives it with the loadgen scenario (legitimate senders plus flooders
the victim refuses to return feedback to).  The invariants mirror the CI
serve-smoke job:

* legitimate senders keep the majority of the victim's goodput — the
  flooders never obtain valid feedback, so they are confined to the
  request channel's 5 % bandwidth cap;
* every regular packet the policer emits carries feedback that validates
  against the access router's secret (``unverified_admissions == 0``);
* the feedback loop actually ran (regular packets were admitted, dedicated
  feedback packets flowed back to the senders).

The drain tests further down wire a policer in-process (direct calls, no
socket, as ``bench/live.py`` does) and assert the *structure* of its pacing
— timers armed, loop turns taken, who gets the loop — never elapsed time.
"""

import asyncio
import gc
import logging
import urllib.request
import warnings

from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.runtime.clock import WallClock
from repro.runtime.codec import decode_frame, encode_hello, encode_packet
from repro.runtime.loadgen import _make_host, run_scenario
from repro.runtime.serve import (
    DRAIN_BURST,
    LivePolicer,
    metrics_endpoint,
    start_policer,
)
from repro.simulator.packet import Packet, PacketType

CAPACITY_BPS = 1_000_000.0


def test_live_policer_under_flood():
    async def scenario():
        policer = await start_policer(port=0, capacity_bps=CAPACITY_BPS)
        port = policer.transport.get_extra_info("sockname")[1]
        try:
            result = await run_scenario(
                ("127.0.0.1", port),
                legit=2,
                attackers=2,
                legit_rate_bps=120_000.0,
                attack_rate_bps=480_000.0,
                warmup_s=2.0,
                duration_s=3.0,
                capacity_bps=CAPACITY_BPS,
            )
        finally:
            await policer.shutdown()
        return policer, result

    policer, result = asyncio.run(scenario())
    stats = policer.stats(event="final")

    # Traffic flowed end to end, and the NetFence bootstrap completed:
    # request -> nop feedback -> regular channel.
    assert result["victim_rx_packets"] > 0
    assert result["feedback_packets_sent"] > 0
    assert stats["access"]["regular_nop"] > 0
    assert result["codec_errors"] == 0
    assert stats["codec_errors"] == 0

    # The victim withholds feedback from the attackers, so their floods ride
    # the capped request channel: legitimate senders keep the goodput.
    assert result["legit_share"] >= 0.6, result

    # Zero unverified admissions: every regular packet the policer forwarded
    # carried freshly re-stamped, verifiable feedback.
    assert stats["unverified_admissions"] == 0, stats


def test_metrics_endpoint_exposes_live_counters():
    """/metrics serves Prometheus text with nonzero ingress counters and a
    zero unverified-admissions counter after a short loopback run."""

    def _fetch(url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.read().decode("utf-8")

    async def scenario():
        policer = await start_policer(port=0, capacity_bps=CAPACITY_BPS)
        udp_port = policer.transport.get_extra_info("sockname")[1]
        server = metrics_endpoint(policer)
        host, http_port = await server.start("127.0.0.1", 0)
        loop = asyncio.get_running_loop()
        base = f"http://{host}:{http_port}"
        try:
            await run_scenario(
                ("127.0.0.1", udp_port),
                legit=1,
                attackers=0,
                legit_rate_bps=120_000.0,
                warmup_s=0.5,
                duration_s=1.0,
                capacity_bps=CAPACITY_BPS,
            )
            text = await loop.run_in_executor(None, _fetch, f"{base}/metrics")
            health = await loop.run_in_executor(None, _fetch, f"{base}/healthz")
        finally:
            await server.close()
            await policer.shutdown()
        return text, health

    text, health = asyncio.run(scenario())
    assert health == "ok\n"
    assert "# TYPE netfence_serve_events_total gauge" in text

    values = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.rpartition(" ")
        values[key] = float(value)
    assert values['netfence_serve_events_total{event="packets_rx"}'] > 0
    assert values['netfence_serve_events_total{event="packets_tx"}'] > 0
    assert values['netfence_serve_events_total{event="unverified_admissions"}'] == 0
    assert values["netfence_serve_registered_hosts"] >= 1
    # The pacer reports itself through the same registry.
    assert "# TYPE netfence_serve_pace_lag_seconds histogram" in text
    assert values["netfence_serve_pace_lag_seconds_count"] > 0  # 1 Mb/s: paced
    assert "netfence_serve_drain_yields_total" in values
    assert values["netfence_serve_link_ahead_seconds"] >= 0.0


def test_policer_shutdown_drains_and_stops_timers():
    async def scenario():
        policer = await start_policer(port=0, capacity_bps=CAPACITY_BPS)
        await policer.shutdown()
        # Shutdown is idempotent and leaves no running drain task.
        assert policer._drain_task is not None
        assert policer._drain_task.done()
        await policer.shutdown()

    asyncio.run(scenario())


def test_policer_socket_reads_into_64k_buffers():
    """Not asyncio's 256 KiB per read, which page-faults in a small heap —
    on the policer's socket and on every loadgen host socket alike."""
    async def scenario():
        policer = await start_policer(port=0, capacity_bps=CAPACITY_BPS)
        port = policer.transport.get_extra_info("sockname")[1]
        try:
            clock = WallClock(asyncio.get_running_loop())
            host = await _make_host(clock, "h0", ("127.0.0.1", port))
            try:
                return policer.transport.max_size, host.transport.max_size
            finally:
                host.transport.close()
        finally:
            await policer.shutdown()

    assert asyncio.run(scenario()) == (65536, 65536)


# ---------------------------------------------------------------------------
# The drain under asyncio: structure, not speed
# ---------------------------------------------------------------------------

SENDER_ADDR = ("127.0.0.1", 40_001)
VICTIM_ADDR = ("127.0.0.1", 40_002)


class _Wire:
    """In-process stand-in for the policer's socket: keeps every frame."""

    def __init__(self):
        self.frames = []
        self.on_send = None

    def sendto(self, data, addr):
        self.frames.append(data)
        if self.on_send is not None:
            self.on_send()

    def close(self):
        pass


def _inproc_policer(capacity_bps):
    """A policer with ``sender`` and ``victim`` registered, and its wire."""
    loop = asyncio.get_running_loop()
    policer = LivePolicer(WallClock(loop), capacity_bps=capacity_bps)
    wire = _Wire()
    policer.connection_made(wire)
    policer.datagram_received(encode_hello("sender"), SENDER_ADDR)
    policer.datagram_received(encode_hello("victim"), VICTIM_ADDR)
    return policer, wire


def _regular_frame(policer, size_bytes):
    now = policer.clock.now
    packet = Packet(src="sender", dst="victim", size_bytes=size_bytes, created_at=now)
    packet.headers[HEADER_KEY] = NetFenceHeader(
        feedback=policer.access.stamper.stamp_nop("sender", "victim", now))
    return encode_packet(packet)


def _request_frame(policer, size_bytes=92):
    packet = Packet(src="sender", dst="victim", size_bytes=size_bytes,
                    ptype=PacketType.REQUEST, created_at=policer.clock.now)
    packet.headers[HEADER_KEY] = NetFenceHeader()
    return encode_packet(packet)


def _watch_drain_timers(policer):
    """Record ``(delay, handle)`` of every timer armed from inside the
    policer's drain task (its pacing and budget waits)."""
    loop = asyncio.get_running_loop()
    armed = []
    call_at = loop.call_at

    def watched(when, callback, *args, **kwargs):
        handle = call_at(when, callback, *args, **kwargs)
        if asyncio.current_task() is policer._drain_task:
            armed.append((when - loop.time(), handle))
        return handle

    loop.call_at = watched  # call_later goes through call_at
    return armed


class _LoopTurns:
    """Counts event-loop iterations with a self-rearming ``call_soon``."""

    def __init__(self):
        self.loop = asyncio.get_running_loop()
        self.count = 0
        self.running = True
        self.loop.call_soon(self._tick)

    def _tick(self):
        if self.running:
            self.count += 1
            self.loop.call_soon(self._tick)


async def _until(condition, timeout=10.0):
    """Yield to the loop until ``condition()``; the timeout is the failure
    guard of a test, not a bound on how fast anything must be."""
    async def spin():
        while not condition():
            await asyncio.sleep(0)
    await asyncio.wait_for(spin(), timeout=timeout)


def _assert_clean_egress(policer, wire, expected):
    assert policer.counters["unverified_admissions"] == 0
    assert policer.counters["codec_errors"] == 0
    assert len(wire.frames) == expected
    for frame in wire.frames:
        kind, packet = decode_frame(frame)
        assert kind == "packet" and packet.dst == "victim"


def test_train_drains_back_to_back_without_timers():
    async def scenario():
        policer, wire = _inproc_policer(1e9)
        armed = _watch_drain_timers(policer)
        frames = [_regular_frame(policer, 1500) for _ in range(64)]
        turns = _LoopTurns()
        for frame in frames:
            policer.datagram_received(frame, SENDER_ADDR)
        await _until(lambda: len(wire.frames) >= 64)
        turns.running = False
        # 64 x 12 us is inside the link clock's one-granule credit: no timer,
        # and the loop is handed back once per burst, not once per packet.
        assert armed == []
        assert turns.count <= 64 // DRAIN_BURST + 3
        drain = policer.stats()["drain"]
        assert drain["timer_wakeups"] == 0
        assert drain["yields"] == 64 // DRAIN_BURST
        _assert_clean_egress(policer, wire, 64)
        await policer.shutdown()

    asyncio.run(scenario())


def test_busy_drain_does_not_starve_the_loop():
    """Every delivery synchronously feeds the next packet in (the closed loop
    of ``live-inproc-closed``), so the queue is never empty and the link
    clock is never ahead: only the burst limit hands the loop back."""
    cap = 50_000

    async def scenario():
        policer, wire = _inproc_policer(1e9)
        frame = _regular_frame(policer, 125)
        fired = asyncio.Event()

        def feed_next():
            if not fired.is_set() and len(wire.frames) < cap:
                policer.datagram_received(frame, SENDER_ADDR)

        wire.on_send = feed_next
        asyncio.get_running_loop().call_later(0.01, fired.set)
        for _ in range(4):
            policer.datagram_received(frame, SENDER_ADDR)
        await asyncio.wait_for(fired.wait(), timeout=30.0)
        sent_when_fired = len(wire.frames)
        await _until(lambda: len(policer.queue) == 0)
        assert 0 < sent_when_fired < cap
        assert policer.stats()["drain"]["yields"] > 0
        _assert_clean_egress(policer, wire, len(wire.frames))
        await policer.shutdown()

    asyncio.run(scenario())


def test_budget_capped_backlog_arms_one_timer_and_stays_wakeable():
    async def scenario():
        # 100 kb/s: the request channel refills at 625 B/s, so the first
        # 92-byte request packet waits ~147 ms for its budget.
        policer, wire = _inproc_policer(100_000.0)
        armed = _watch_drain_timers(policer)
        policer.datagram_received(_request_frame(policer), SENDER_ADDR)
        for _ in range(5):
            await asyncio.sleep(0)
        assert wire.frames == []
        assert len(policer.queue) == 1
        assert len(armed) == 1
        delay, budget_timer = armed[0]
        assert 0.05 < delay <= 92 / 625.0

        # A regular packet does not wait for the request channel's budget.
        policer.datagram_received(_regular_frame(policer, 125), SENDER_ADDR)
        for _ in range(5):
            await asyncio.sleep(0)
        assert len(wire.frames) == 1
        assert decode_frame(wire.frames[0])[1].ptype is PacketType.REGULAR
        assert budget_timer.cancelled()

        await _until(lambda: len(wire.frames) == 2)
        assert decode_frame(wire.frames[1])[1].ptype is PacketType.REQUEST
        # One pacing timer for the regular packet, one budget timer re-armed
        # for the request packet, one pacing timer behind it: no polling.
        assert len(armed) <= 4
        _assert_clean_egress(policer, wire, 2)
        await policer.shutdown(drain_timeout=0.01)

    asyncio.run(scenario())


def test_shutdown_with_backlog_leaves_no_pending_task(caplog):
    """More queued than ``drain_timeout`` lets the link carry: shutdown
    flushes what fits, cancels the rest with its pacing timer, and the loop
    can be closed right after without a pending-task complaint."""

    async def scenario():
        policer, wire = _inproc_policer(400_000.0)  # 2.5 ms per 125 B
        armed = _watch_drain_timers(policer)
        frame = _regular_frame(policer, 125)
        for _ in range(40):  # 100 ms of link time
            policer.datagram_received(frame, SENDER_ADDR)
        await policer.shutdown(drain_timeout=0.02)
        assert policer._drain_task.done()
        assert 0 < len(wire.frames) < 40
        assert len(policer.queue) > 0
        assert armed and all(
            handle.cancelled() or handle.when() <= asyncio.get_running_loop().time()
            for _delay, handle in armed)
        _assert_clean_egress(policer, wire, len(wire.frames))
        await policer.shutdown()  # still idempotent
        return policer

    loop = asyncio.new_event_loop()
    with warnings.catch_warnings(record=True) as caught, \
            caplog.at_level(logging.ERROR, logger="asyncio"):
        warnings.simplefilter("always")
        try:
            policer = loop.run_until_complete(scenario())
        finally:
            loop.close()
        del policer
        gc.collect()
    assert [str(w.message) for w in caught] == []
    assert [r.getMessage() for r in caplog.records] == []
