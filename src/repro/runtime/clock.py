"""The clock/scheduler seam between simulation and production.

Every time-dependent component in :mod:`repro.core` and
:mod:`repro.transport` takes a *clock* — an object with ``now``,
``schedule``, ``schedule_at``, and ``cancel``.  Two implementations exist:

* :class:`repro.simulator.engine.Simulator` — discrete-event time.  The
  simulator satisfies the protocol natively (no adapter, no indirection), so
  the tuple-heap fast path of the event loop is untouched by this seam.
* :class:`WallClock` — real time over an :mod:`asyncio` event loop.  The
  same router / rate-limiter / end-host code that runs inside a swept
  scenario polices real datagrams when handed a ``WallClock``
  (see :mod:`repro.runtime.serve`).

The protocol is deliberately the *simulator's* interface: the event loop is
one driver among several, not the substrate everything is welded to.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class ClockHandle(Protocol):
    """A cancellable scheduled callback.

    ``Simulator.schedule`` returns an :class:`~repro.simulator.engine.Event`;
    ``WallClock.schedule`` returns an :class:`asyncio.TimerHandle`.  Both
    expose ``cancel()``, which is all the components ever rely on.
    """

    def cancel(self) -> None:  # pragma: no cover - protocol
        ...


@runtime_checkable
class Clock(Protocol):
    """What the defense logic needs from time.

    ``now`` is seconds as a float; its origin is implementation-defined
    (simulation start for the simulator, the Unix epoch for
    :class:`WallClock` so that epoch secrets agree across processes).
    Components must only ever *difference* clock readings or feed them to
    epoch derivation — never assume the origin.
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol
        ...

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ClockHandle:  # pragma: no cover - protocol
        ...

    def schedule_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> ClockHandle:  # pragma: no cover - protocol
        ...

    def cancel(self, handle: Optional[ClockHandle]) -> None:  # pragma: no cover
        ...


class WallClock:
    """Real time over an asyncio event loop, presented as a :class:`Clock`.

    Readings are anchored to the Unix epoch by default (``loop.time()`` is
    an arbitrary-origin monotonic clock, so a constant offset is added).
    Anchoring matters: :class:`~repro.crypto.keys.AccessRouterSecret`
    derives per-epoch keys from the timestamp's rotation epoch, and sharded
    ``runner serve`` processes must land in the same epoch for feedback
    stamped by one process to verify at another.

    Differences from the simulator's scheduler, by design:

    * ``schedule`` clamps negative delays to zero instead of raising — on a
      wall clock a "late" timer is simply due now, whereas in simulation a
      negative delay is a logic bug worth failing on;
    * there is no ``run()``: the asyncio loop drives dispatch, and callbacks
      fire with real-world jitter.  Wall-clock rows are therefore *not*
      byte-reproducible; the determinism contract applies to simulator rows
      only.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        origin: Optional[float] = None,
    ) -> None:
        if loop is None:
            loop = asyncio.get_event_loop()
        self._loop = loop
        anchor = time.time() if origin is None else origin
        self._offset = anchor - loop.time()

    @property
    def now(self) -> float:
        """Seconds since the Unix epoch (monotonic between readings)."""
        return self._loop.time() + self._offset

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of real time."""
        return self._loop.call_later(max(delay, 0.0), callback, *args)

    def schedule_fast(
        self, delay: float, callback: Callable[..., Any], args: tuple = ()
    ) -> None:
        """No-handle variant, mirroring ``Simulator.schedule_fast``."""
        self._loop.call_later(max(delay, 0.0), callback, *args)

    def schedule_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` at absolute time ``when`` (epoch seconds)."""
        return self._loop.call_later(max(when - self.now, 0.0), callback, *args)

    def cancel(self, handle: Optional[ClockHandle]) -> None:
        """Cancel a previously scheduled callback (no-op for ``None``)."""
        if handle is not None:
            handle.cancel()
