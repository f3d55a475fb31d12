"""Output queues: DropTail, RED, and multi-band priority scheduling.

All queues implement the small :class:`PacketQueue` interface that
:class:`repro.simulator.link.Link` drains:

* ``enqueue(packet) -> bool`` — accept or drop the packet.
* ``dequeue() -> Packet | None`` — pop the next packet to transmit.
* ``__len__`` — number of queued packets.

The RED implementation follows Floyd & Jacobson [18] with the parameters the
paper uses (Fig. 3): ``minthresh = 0.5·Qlim``, ``maxthresh = 0.75·Qlim``,
EWMA weight ``wq = 0.1``.  NetFence's bottleneck routers use RED both for
congestion control and as the congestion *detection* signal that drives
``L↓`` stamping.

These queues are pure state machines: they never read a clock or schedule
events, so the same instances run unmodified under the discrete-event
:class:`~repro.simulator.engine.Simulator` and inside the live asyncio
policer (:mod:`repro.runtime.serve`), which drains them against a
:class:`~repro.runtime.clock.WallClock`.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import get_registry
from repro.obs.trace import QUEUE_DROP_REASONS, active_tracer
from repro.seeding import derive_seed
from repro.simulator.packet import Packet

#: Fallback discriminator for queues constructed without ``rng``/``seed``;
#: guarantees independent instances never share one random stream.
_anonymous_queue_ids = itertools.count()

#: Metric-label discriminator: queues have no names, so an enabled registry
#: labels each queue's gauges by class + construction index.
_queue_metric_ids = itertools.count()


@dataclass(slots=True)
class QueueStats:
    """Counters shared by all queue implementations.

    Drops are recorded *by reason* — ``tail`` (over byte capacity),
    ``early`` (RED early/forced drop), ``evicted`` (priority eviction), and
    ``other`` (e.g. an unroutable channel).  The pre-existing ``dropped``
    total remains available as a derived sum, so row schemas and detection
    deltas (:meth:`~repro.core.bottleneck.NetFenceRouter._detect`) are
    unchanged.
    """

    enqueued: int = 0
    dequeued: int = 0
    dropped_tail: int = 0
    dropped_early: int = 0
    dropped_evicted: int = 0
    dropped_other: int = 0
    enqueued_bytes: int = 0
    dequeued_bytes: int = 0
    dropped_bytes: int = 0

    @property
    def dropped(self) -> int:
        """Total drops across all reasons (the historical flat counter)."""
        return (self.dropped_tail + self.dropped_early
                + self.dropped_evicted + self.dropped_other)

    @property
    def arrivals(self) -> int:
        return self.enqueued + self.dropped

    @property
    def drop_rate(self) -> float:
        """Fraction of arriving packets that were dropped."""
        total = self.arrivals
        return self.dropped / total if total else 0.0

    def drop_reasons(self) -> Dict[str, int]:
        """Reason -> count, for stats payloads and exporters."""
        return {
            "tail": self.dropped_tail,
            "early": self.dropped_early,
            "evicted": self.dropped_evicted,
            "other": self.dropped_other,
        }

    def record_enqueue(self, packet: Packet) -> None:
        self.enqueued += 1
        self.enqueued_bytes += packet.size_bytes

    def record_dequeue(self, packet: Packet) -> None:
        self.dequeued += 1
        self.dequeued_bytes += packet.size_bytes

    def record_drop(self, packet: Packet, reason: str = "tail") -> None:
        if reason == "tail":
            self.dropped_tail += 1
        elif reason == "early":
            self.dropped_early += 1
        elif reason == "evicted":
            self.dropped_evicted += 1
        else:
            self.dropped_other += 1
        self.dropped_bytes += packet.size_bytes


class PacketQueue:
    """Interface for output queues (see module docstring)."""

    def __init__(self) -> None:
        self.stats = QueueStats()
        self.drop_callback: Optional[Callable[[Packet, str], None]] = None
        # Telemetry is captured at construction: tracing costs one ``is not
        # None`` test on the (cold) drop path, and metric registration only
        # happens under an *enabled* registry, so the default-disabled case
        # adds nothing to enqueue/dequeue.
        self._tracer = active_tracer()
        self._trace_point = f"queue:{type(self).__name__}"
        registry = get_registry()
        if registry.enabled:
            label = {"queue": f"{type(self).__name__}-{next(_queue_metric_ids)}"}
            registry.watch("netfence_queue_depth_pkts", lambda: len(self),
                           help="instantaneous queue depth", labels=label)
            registry.watch("netfence_queue_enqueued_total",
                           lambda: self.stats.enqueued,
                           help="packets accepted", labels=label)
            registry.watch("netfence_queue_dropped_total",
                           lambda: self.stats.dropped,
                           help="packets dropped (all reasons)", labels=label)
            for reason in ("tail", "early", "evicted", "other"):
                registry.watch(
                    "netfence_queue_drop_reason_total",
                    lambda r=reason: self.stats.drop_reasons()[r],
                    help="packets dropped by reason",
                    labels={**label, "reason": reason})

    def enqueue(self, packet: Packet) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def byte_length(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _drop(self, packet: Packet, reason: str = "tail") -> None:
        self.stats.record_drop(packet, reason)
        if self._tracer is not None:
            self._tracer.emit(self._trace_point,
                              QUEUE_DROP_REASONS[reason], packet)
        if self.drop_callback is not None:
            self.drop_callback(packet, reason)


class DropTailQueue(PacketQueue):
    """A FIFO queue that drops arrivals once ``capacity_bytes`` is exceeded."""

    def __init__(self, capacity_bytes: int = 64 * 1500) -> None:
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._queue: deque[Packet] = deque()
        self._bytes = 0

    def enqueue(self, packet: Packet) -> bool:
        size = packet.size_bytes
        if self._bytes + size > self.capacity_bytes:
            self._drop(packet)
            return False
        self._queue.append(packet)
        self._bytes += size
        # Stats inlined: DropTail queues sit on every link, so these two
        # counters are the hottest accounting in the simulator.
        stats = self.stats
        stats.enqueued += 1
        stats.enqueued_bytes += size
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._bytes -= size
        stats = self.stats
        stats.dequeued += 1
        stats.dequeued_bytes += size
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        return self._bytes


class REDQueue(PacketQueue):
    """Random Early Detection queue (Floyd & Jacobson [18]).

    The average queue length is an EWMA of the instantaneous queue length,
    sampled at every arrival.  Between ``minthresh`` and ``maxthresh`` the
    drop probability rises linearly to ``max_p``; above ``maxthresh`` every
    arrival is dropped.  Thresholds and lengths are in bytes.
    """

    def __init__(
        self,
        capacity_bytes: int,
        minthresh_fraction: float = 0.5,
        maxthresh_fraction: float = 0.75,
        wq: float = 0.1,
        max_p: float = 0.1,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0 < minthresh_fraction < maxthresh_fraction <= 1:
            raise ValueError("need 0 < minthresh < maxthresh <= 1")
        self.capacity_bytes = capacity_bytes
        self.minthresh = minthresh_fraction * capacity_bytes
        self.maxthresh = maxthresh_fraction * capacity_bytes
        self.wq = wq
        self.max_p = max_p
        # Every queue needs its own random stream: a shared default seed
        # would make independent queues draw identical, correlated drop
        # decisions.  Callers pass ``rng`` or a per-instance ``seed``
        # (derived from the scenario seed) for reproducibility; the
        # anonymous fallback is decorrelated but construction-order
        # dependent, so experiments must not rely on it.
        if rng is None:
            if seed is None:
                seed = derive_seed(0, "red-queue-anon", next(_anonymous_queue_ids))
            rng = random.Random(derive_seed(seed, "red-queue"))
        self.rng = rng
        self.avg_queue = 0.0
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self._count_since_drop = 0

    def enqueue(self, packet: Packet) -> bool:
        # EWMA update and drop probability in one straight-line pass: RED
        # guards the bottleneck's regular channel, so this runs for every
        # arrival and a helper call per step would sit on the hot path.
        avg = (1 - self.wq) * self.avg_queue + self.wq * self._bytes
        self.avg_queue = avg
        size = packet.size_bytes
        if self._bytes + size > self.capacity_bytes:
            self._drop(packet)
            return False
        if avg >= self.minthresh:
            if avg >= self.maxthresh:
                self._drop(packet, "early")
                return False
            p_drop = self.max_p * (avg - self.minthresh) / (self.maxthresh - self.minthresh)
            if p_drop > 0.0:
                # Uniformize drops the way RED does (count since last drop).
                self._count_since_drop += 1
                effective = min(1.0, p_drop * self._count_since_drop)
                if self.rng.random() < effective:
                    self._count_since_drop = 0
                    self._drop(packet, "early")
                    return False
        self._queue.append(packet)
        self._bytes += size
        stats = self.stats
        stats.enqueued += 1
        stats.enqueued_bytes += size
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._bytes -= size
        stats = self.stats
        stats.dequeued += 1
        stats.dequeued_bytes += size
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_length(self) -> int:
        return self._bytes

    @property
    def congested(self) -> bool:
        """True when the average queue is above ``minthresh``.

        NetFence's bottleneck router uses this as its instantaneous
        congestion signal while a link is in the ``mon`` state (§4.3.4).
        """
        return self.avg_queue >= self.minthresh


class PriorityChannelQueue(PacketQueue):
    """A strict-priority scheduler over named channels.

    Channels are served in the order given; the first non-empty channel wins.
    Each channel has its own inner :class:`PacketQueue` and an optional
    bandwidth cap expressed as a fraction of the link capacity (enforced by
    the owning link through :meth:`channel_allowed`).

    NetFence routers use three channels (Fig. 2): ``request`` (capped at 5 %
    of the link), ``regular``, and ``legacy`` (lowest priority).  Within the
    request channel, higher level-k packets are served first (§4.2).
    """

    def __init__(self, channels: List[str], queues: Dict[str, PacketQueue]) -> None:
        super().__init__()
        if set(channels) != set(queues):
            raise ValueError("channels and queues must name the same channel set")
        self.channel_order = list(channels)
        self.queues = dict(queues)
        self.classifier: Callable[[Packet], str] = self._default_classifier
        for q in self.queues.values():
            # Bubble inner-queue drops up through this queue's stats.
            q.drop_callback = self._inner_drop

    def _inner_drop(self, packet: Packet, reason: str = "tail") -> None:
        self.stats.record_drop(packet, reason)
        if self.drop_callback is not None:
            self.drop_callback(packet, reason)

    @staticmethod
    def _default_classifier(packet: Packet) -> str:
        return packet.ptype.value

    def enqueue(self, packet: Packet) -> bool:
        channel = self.classifier(packet)
        queue = self.queues.get(channel)
        if queue is None:
            self._drop(packet, "other")
            return False
        accepted = queue.enqueue(packet)
        if accepted:
            self.stats.record_enqueue(packet)
        return accepted

    def dequeue(self) -> Optional[Packet]:
        for channel in self.channel_order:
            packet = self.queues[channel].dequeue()
            if packet is not None:
                self.stats.record_dequeue(packet)
                return packet
        return None

    def channel_length(self, channel: str) -> int:
        return len(self.queues[channel])

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues.values())

    @property
    def byte_length(self) -> int:
        return sum(q.byte_length for q in self.queues.values())


class LevelPriorityQueue(PacketQueue):
    """A queue that serves higher ``packet.priority`` levels first.

    Used for NetFence's request channel (§4.2): a level-k request packet is
    forwarded with higher priority than lower-level packets.  Within a level,
    packets are FIFO.  The total byte capacity is shared across levels; when
    full, arrivals with priority no higher than the lowest queued level are
    dropped, otherwise the lowest-priority queued packet is evicted.
    """

    def __init__(self, capacity_bytes: int = 64 * 92, max_level: int = 16) -> None:
        super().__init__()
        self.capacity_bytes = capacity_bytes
        self.max_level = max_level
        self._levels: Dict[int, deque[Packet]] = {}
        self._bytes = 0
        self._count = 0

    def enqueue(self, packet: Packet) -> bool:
        level = min(max(packet.priority, 0), self.max_level)
        if self._bytes + packet.size_bytes > self.capacity_bytes:
            victim_level = self._lowest_nonempty_level()
            if victim_level is None or victim_level >= level:
                self._drop(packet)
                return False
            # Evict a lower-priority packet to make room.
            victim = self._levels[victim_level].pop()
            self._bytes -= victim.size_bytes
            self._count -= 1
            self._drop(victim, "evicted")
            if self._bytes + packet.size_bytes > self.capacity_bytes:
                self._drop(packet)
                return False
        self._levels.setdefault(level, deque()).append(packet)
        self._bytes += packet.size_bytes
        self._count += 1
        self.stats.record_enqueue(packet)
        return True

    def _lowest_nonempty_level(self) -> Optional[int]:
        nonempty = [lvl for lvl, q in self._levels.items() if q]
        return min(nonempty) if nonempty else None

    def dequeue(self) -> Optional[Packet]:
        if not self._count:
            return None
        level = max(lvl for lvl, q in self._levels.items() if q)
        packet = self._levels[level].popleft()
        self._bytes -= packet.size_bytes
        self._count -= 1
        self.stats.record_dequeue(packet)
        return packet

    def __len__(self) -> int:
        return self._count

    @property
    def byte_length(self) -> int:
        return self._bytes
