"""The benchmark's own open-loop generator.

Packets are due at absolute times ``start + phase + k / rate`` on the event
loop's monotonic clock, whatever happened to earlier packets: a stall in the
generator or the policer delays later packets *and is charged to them*,
because latency is measured from the due time (a harness-side ``uid → due``
map; ``Host.send`` overwrites ``created_at`` and ``UdpSender`` re-arms
relative to its previous send, so neither can time an open loop).

``asyncio`` timers fire up to a millisecond late (epoll's resolution), which
would add that much noise to every latency.  The generator therefore sleeps
only until shortly before the next due time and polls the loop from there,
and when it is already late it sends without sleeping at all.  How late each
packet really left is kept in :attr:`OpenLoop.lags` and reported beside
every latency.
"""

from __future__ import annotations

import asyncio
import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

#: Sleep until this long before a due time, then poll.
SPIN_S = 0.0015

#: Back-to-back catch-up sends before the loop gets a turn (so that replies
#: are still received while the generator is behind).
CATCHUP_BURST = 32


@dataclass(frozen=True)
class Stream:
    """One sender's schedule: ``rate`` packets/s from ``src`` to ``dst``."""

    src: str
    dst: str
    rate: float
    phase: float = 0.0


def seeded_streams(seed: int, flows: Sequence[tuple],
                   interleave: bool = False) -> List[Stream]:
    """Streams for ``(src, dst, rate)`` flows with seeded start phases.

    Independent phases let two senders' packets coincide for a whole run or
    never, depending on the seed.  With ``interleave`` (equal-rate flows)
    sender *i* of *n* starts in the first quarter of its own *n*-th of the
    period instead, so that sends never coincide and only the jitter is
    seeded.
    """
    rng = random.Random(seed)
    if interleave:
        return [Stream(src, dst, rate, (index + 0.25 * rng.random()) / len(flows) / rate)
                for index, (src, dst, rate) in enumerate(flows)]
    return [Stream(src, dst, rate, rng.random() / rate) for src, dst, rate in flows]


class OpenLoop:
    """Send on a due-time schedule; never wait for replies."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 send: Callable[[Stream, float], Any]) -> None:
        self.loop = loop
        self.send = send
        #: Seconds each packet left after its due time.
        self.lags: List[float] = []

    async def run(self, streams: Sequence[Stream], start: float, end: float) -> None:
        """Send every packet due in ``[start, end)``."""
        now = self.loop.time
        heap = [(start + s.phase, index, 0) for index, s in enumerate(streams)]
        heapq.heapify(heap)
        burst = 0
        while heap and heap[0][0] < end:
            due, index, k = heap[0]
            wait = due - now()
            if wait > 0.0:
                burst = 0
                await asyncio.sleep(wait - SPIN_S if wait > SPIN_S else 0)
                continue
            stream = streams[index]
            heapq.heapreplace(
                heap, (start + stream.phase + (k + 1) / stream.rate, index, k + 1))
            self.lags.append(-wait)
            self.send(stream, due)
            burst += 1
            if burst >= CATCHUP_BURST:
                burst = 0
                await asyncio.sleep(0)
