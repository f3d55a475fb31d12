"""Live-policer test bed: real hosts and shims around one ``LivePolicer``.

The policer is either built in this process and wired by direct calls
(host ``sendto`` → ``datagram_received``, policer ``sendto`` →
``on_datagram``; no sockets, no kernel) or is a ``runner serve`` child
reached over loopback UDP with one socket per host.  Everything else is the
same in both: ``LiveHost`` + ``NetFenceEndHost`` senders, ``UdpSink``
receivers that return feedback in dedicated packets, 125-byte nominal
packets, and latency taken from a harness-side ``uid → due`` map.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import signal
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.endhost import NetFenceEndHost, ReturnPolicy
from repro.core.params import NetFenceParams
from repro.runtime.clock import WallClock
from repro.runtime.loadgen import LiveHost
from repro.runtime.serve import LivePolicer
from repro.simulator.packet import Packet, PacketType
from repro.transport.udp import UdpSink

from bench import stats
from bench.gen import Stream

#: Nominal packet size: 1000 bits, the smallest sensible size, so that
#: per-packet cost is the whole cost (frames carry no payload).
FRAME_BYTES = 125

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# The serve child
# ---------------------------------------------------------------------------

class ServeChild:
    """One ``runner serve`` process: the system under test over loopback."""

    def __init__(self, tmpdir: str, capacity_bps: float, force_mon: bool = False,
                 cpu: Optional[int] = None) -> None:
        self.tmpdir = tmpdir
        self.cpu = cpu
        self.argv = [
            sys.executable, "-m", "repro.experiments.runner", "serve",
            "--port", "0", "--json", "--metrics-port", "0",
            "--capacity-bps", repr(capacity_bps),
            "--flight-dump", os.path.join(tmpdir, "flight.json"),
        ] + (["--force-mon"] if force_mon else [])
        self.proc: Optional[subprocess.Popen] = None
        self.addr: Tuple[str, int] = ("127.0.0.1", 0)
        self.stats_url = ""

    def start(self, timeout: float = 30.0) -> None:
        """Spawn the child and wait for its ``listening`` line."""
        env = dict(os.environ, PYTHONPATH=SRC_ROOT)
        log_path = os.path.join(self.tmpdir, f"serve-{time.monotonic_ns()}.jsonl")
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=self.tmpdir,
                preexec_fn=(None if self.cpu is None
                            else lambda: os.sched_setaffinity(0, {self.cpu})))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(log_path) as fh:
                for line in fh:
                    if '"listening"' in line and line.endswith("\n"):
                        record = json.loads(line)
                        self.addr = (record["host"], record["port"])
                        self.stats_url = (f"http://{record['host']}:"
                                          f"{record['metrics_port']}/stats.json")
                        return
            time.sleep(0.01)
        self.stop()
        with open(log_path) as fh:
            raise RuntimeError(f"serve child did not start: {fh.read()[-2000:]}")

    def stats(self) -> Dict[str, Any]:
        """The child's ``/stats.json`` (blocking; call between windows)."""
        with urllib.request.urlopen(self.stats_url, timeout=5) as response:
            return json.loads(response.read())

    def cpu_s(self) -> float:
        """CPU seconds the child has used, from ``/proc/<pid>``."""
        pid = self.proc.pid
        try:
            total_ns = 0
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                    total_ns += int(fh.read().split()[0])
            return total_ns / 1e9
        except (OSError, ValueError, IndexError):
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, grace_s: float = 2.0) -> None:
        """SIGINT, then SIGKILL after ``grace_s``; always reaps."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        self.proc = None


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

class _ToPolicer:
    """In-process stand-in for a host's connected socket."""

    def __init__(self, policer: LivePolicer, addr: Tuple[str, int]) -> None:
        self.policer = policer
        self.addr = addr

    def sendto(self, data: bytes, addr: Any = None) -> None:
        self.policer.datagram_received(data, self.addr)

    def close(self) -> None:
        pass


class Wire:
    """In-process stand-in for the policer's socket: routes by address."""

    def __init__(self) -> None:
        self.routes: Dict[Tuple[str, int], LiveHost] = {}

    def sendto(self, data: bytes, addr: Tuple[str, int]) -> None:
        host = self.routes.get(addr)
        if host is not None:
            host.on_datagram(data)

    def close(self) -> None:
        pass


class _Corked:
    """A host's transport that can hold a train's frames back.

    Building a packet (shim, MAC-less header, encode) takes the harness
    about as long as the policer takes to police one, so frames sent as
    they are built reach the policer in a rhythm that depends on the race
    between the two.  A train is built first and then written back to
    back, which is what "a train" is meant to model.
    """

    def __init__(self, transport: Any) -> None:
        self.transport = transport
        self.held: Optional[List[bytes]] = None

    def sendto(self, data: bytes, addr: Any = None) -> None:
        if self.held is None:
            self.transport.sendto(data)
        else:
            self.held.append(data)

    def cork(self) -> None:
        self.held = []

    def uncork(self) -> None:
        held, self.held = self.held, None
        for data in held:
            self.transport.sendto(data)

    def close(self) -> None:
        self.transport.close()


class _Endpoint(asyncio.DatagramProtocol):
    """One connected loopback socket per host."""

    def __init__(self, host: LiveHost) -> None:
        self.host = host

    def connection_made(self, transport: Any) -> None:
        self.host.transport = _Corked(transport)

    def datagram_received(self, data: bytes, addr: Any) -> None:
        self.host.on_datagram(data)


class Bed:
    """Hosts, shims, sinks and the policer they talk through."""

    def __init__(self, senders: Iterable[str], sinks: Dict[str, Set[str]],
                 capacity_bps: float, force_mon: bool = False,
                 tmpdir: Optional[str] = None, clock_origin: Optional[float] = None,
                 frame_bytes: int = FRAME_BYTES, stop_grace_s: float = 2.0) -> None:
        """``sinks`` maps each sink host to the sources it refuses feedback to.

        With ``tmpdir`` the policer is a serve child over loopback; without,
        it lives in this process.  ``stop_grace_s`` is how long the child
        gets to drain its queue after SIGINT before it is killed.
        """
        self.sender_names = list(senders)
        self.sink_blocks = sinks
        self.capacity_bps = capacity_bps
        self.force_mon = force_mon
        self.tmpdir = tmpdir
        self.clock_origin = clock_origin
        self.frame_bytes = frame_bytes
        self.stop_grace_s = stop_grace_s
        self.params = NetFenceParams()
        self.child: Optional[ServeChild] = None
        self.policer: Optional[LivePolicer] = None
        self.wire: Optional[Wire] = None
        self.hosts: Dict[str, LiveHost] = {}
        self.shims: List[NetFenceEndHost] = []
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: uid → (due, stream, phase, train) of every packet not yet seen at
        #: a sink; ``train`` is ``None`` or the train's [packets missing].
        self.inflight: Dict[int, Tuple[float, Stream, int, Optional[list]]] = {}
        self.phase = 0
        self.latencies: List[float] = []
        self.sent: Counter = Counter()
        self.delivered: Counter = Counter()
        #: Packets that reached a sink but were never sent by this harness
        #: (hostile frames), by packet type.
        self.strays: Counter = Counter()
        #: uids written off as lost, and how many of them arrived after all.
        self.written_off: Set[int] = set()
        self.late = 0
        self.on_delivery: Optional[Callable[[Stream], None]] = None
        #: Sources whose packets are timed (``None``: every source).
        self.timed_sources: Optional[Set[str]] = None
        self._flows: Dict[Tuple[str, str], str] = {}

    # -- life cycle -------------------------------------------------------------
    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        if self.tmpdir is not None:
            # Generator and policer each get a core of their own when there
            # are two: which core the scheduler would give the child decides
            # how soon it wakes, and with it every latency.
            cpus = sorted(os.sched_getaffinity(0))
            if len(cpus) >= 2:
                os.sched_setaffinity(0, {cpus[0]})
            self.child = ServeChild(self.tmpdir, self.capacity_bps, self.force_mon,
                                    cpu=cpus[1] if len(cpus) >= 2 else None)
            self.child.start()
            clock = WallClock(self.loop)
        else:
            clock = WallClock(self.loop, origin=self.clock_origin)
            self.policer = LivePolicer(clock, params=self.params,
                                       capacity_bps=self.capacity_bps,
                                       force_mon=self.force_mon)
            self.wire = Wire()
            self.policer.connection_made(self.wire)
        for name in self.sender_names:
            self._add_host(clock, name)
        for name, blocked in self.sink_blocks.items():
            host = self._add_host(
                clock, name, return_policy=ReturnPolicy(blocked=set(blocked)),
                send_feedback_packets=True)
            UdpSink(clock, host, on_receive=self._received)
        for index, host in enumerate(self.hosts.values()):
            if self.child is not None:
                await self.loop.create_datagram_endpoint(
                    lambda host=host: _Endpoint(host), remote_addr=self.child.addr)
            else:
                addr = ("127.0.0.1", 40_000 + index)
                host.transport = _Corked(_ToPolicer(self.policer, addr))
                self.wire.routes[addr] = host
        await self._register()

    def _add_host(self, clock: WallClock, name: str, **shim_kwargs: Any) -> LiveHost:
        host = LiveHost(clock, name)
        self.hosts[name] = host
        self.shims.append(NetFenceEndHost(clock, host, params=self.params, **shim_kwargs))
        return host

    async def _register(self) -> None:
        """Hello from every host; over UDP, repeat until the child has them."""
        for _ in range(50):
            for host in self.hosts.values():
                host.hello()
            if self.child is None:
                return
            await asyncio.sleep(0.02)
            if self.child.stats()["registered_hosts"] >= len(self.hosts):
                return
        raise RuntimeError("hosts never registered with the serve child")

    async def stop(self) -> None:
        for shim in self.shims:
            shim.stop()
        try:
            if self.policer is not None:
                await self.policer.shutdown(drain_timeout=0.5)
            for host in self.hosts.values():
                if host._transport is not None:
                    host._transport.close()
        finally:
            if self.child is not None:
                self.child.stop(self.stop_grace_s)

    # -- traffic ----------------------------------------------------------------
    def send(self, stream: Stream, due: float, train: Optional[list] = None) -> None:
        """Send one packet of ``stream`` that was due at loop time ``due``."""
        key = (stream.src, stream.dst)
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = f"udp:{stream.src}->{stream.dst}"
        packet = Packet(src=stream.src, dst=stream.dst, size_bytes=self.frame_bytes,
                        flow_id=flow, protocol="udp")
        self.inflight[packet.uid] = (due, stream, self.phase, train)
        self.sent[stream.src] += 1
        self.hosts[stream.src].send(packet)

    def send_train(self, stream: Stream, due: float, count: int) -> None:
        """``count`` packets of ``stream``, all due at ``due``, back to back.

        A train is timed as a whole: one latency sample, from the due time
        to the delivery of its last packet.  (Per-packet percentiles of a
        train fall on the steps between its first, second ... packet and
        jump from step to step between runs.)
        """
        if count == 1:
            self.send(stream, due)
            return
        transport = self.hosts[stream.src].transport
        train = [count]
        transport.cork()
        try:
            for _ in range(count):
                self.send(stream, due, train)
        finally:
            transport.uncork()

    def _received(self, packet: Packet) -> None:
        entry = self.inflight.pop(packet.uid, None)
        if entry is None:
            if packet.uid in self.written_off:
                self.late += 1  # ours, out of a backlog: late, not hostile
            else:
                self.strays[packet.ptype] += 1
            return
        due, stream, _phase, train = entry
        if train is not None:
            train[0] -= 1
        if (train is None or train[0] == 0) and (
                self.timed_sources is None or stream.src in self.timed_sources):
            self.latencies.append(self.loop.time() - due)
        self.delivered[stream.src] += 1
        if self.on_delivery is not None:
            self.on_delivery(stream)

    def begin_phase(self) -> None:
        """Start a measurement window: counters restart, packets are tagged."""
        self.phase += 1
        self.latencies = []
        self.sent = Counter()
        self.delivered = Counter()

    def lost(self) -> int:
        """Packets of the current phase still undelivered.

        Call after traffic has had time to settle; the entries are written
        off, so that a late arrival is not taken for a delivery of a later
        window.
        """
        missing = [uid for uid, entry in self.inflight.items() if entry[2] == self.phase]
        for uid in missing:
            del self.inflight[uid]
        self.written_off.update(missing)
        return len(missing)

    def window(self, elapsed: float) -> Dict[str, float]:
        """Delivery rate and latency percentiles of the window just ended."""
        delivered = sum(self.delivered.values())
        out = {"seconds": elapsed, "delivered": delivered,
               "sent": sum(self.sent.values()), "pps": delivered / elapsed,
               "samples": len(self.latencies)}
        # A window without a single delivery has no latency: report it as
        # the whole window, which no bound will mistake for a good result.
        sample = self.latencies or [elapsed]
        out["p50_ms"] = stats.percentile(sample, 0.50) * 1e3
        out["p99_ms"] = stats.percentile(sample, 0.99) * 1e3
        return out

    # -- accounting -------------------------------------------------------------
    def unverified_admissions(self) -> int:
        if self.policer is not None:
            return self.policer.counters["unverified_admissions"]
        return self.child.stats()["unverified_admissions"]

    def hostile_strays(self) -> int:
        """Hostile frames that reached a sink on the regular channel."""
        return self.strays[PacketType.REGULAR]

    def codec_errors(self) -> int:
        """Codec errors on frames this harness encoded validly: host side."""
        return sum(host.codec_errors for host in self.hosts.values())

    def peak_rss_mb(self) -> float:
        if self.child is not None:
            return self.child.peak_rss_mb()
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoop:
    """A fixed number of packets in flight: each delivery sends the next."""

    def __init__(self, bed: Bed, streams: List[Stream], in_flight: int,
                 think_s: float = 0.0) -> None:
        """``think_s`` is how long a sender waits after a delivery before
        its next packet (0: immediately, from inside the delivery)."""
        self.bed = bed
        self.streams = streams
        self.in_flight = in_flight
        self.think_s = think_s
        self.lost = 0

    def start(self) -> None:
        self.bed.on_delivery = self._next
        now = self.bed.loop.time()
        for index in range(self.in_flight):
            self.bed.send(self.streams[index % len(self.streams)], now)

    def _next(self, stream: Stream) -> None:
        if self.think_s:
            self.bed.loop.call_later(self.think_s, self._send_now, stream)
        else:
            self._send_now(stream)

    def _send_now(self, stream: Stream) -> None:
        if self.bed.on_delivery is not None:
            self.bed.send(stream, self.bed.loop.time())

    def replace_lost(self, older_than: float = 0.5) -> int:
        """Re-inject packets missing for ``older_than`` s; returns how many."""
        now = self.bed.loop.time()
        stale = [(uid, entry) for uid, entry in self.bed.inflight.items()
                 if now - entry[0] > older_than]
        for uid, (_due, stream, _phase, _train) in stale:
            del self.bed.inflight[uid]
            self.bed.send(stream, now)
        self.lost += len(stale)
        return len(stale)

    def stop(self) -> None:
        self.bed.on_delivery = None
