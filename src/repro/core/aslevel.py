"""Localizing the damage of compromised ASes (§4.5).

If congestion persists *after* a monitoring cycle has started, the access
routers of some source AS are evidently not policing their senders — i.e.
that AS harbours compromised routers.  The paper offers three containment
options at the congested link, all keyed on the (Passport-authenticated)
source AS of packets:

1. **Per-AS queuing** — separate each source AS's traffic into its own queue
   (at most ~35 K queues).  Implemented by building the regular channel of
   :class:`repro.core.bottleneck.NetFenceChannelQueue` as a per-source-AS DRR
   (``as_fairness=True``).
2. **Per-AS rate limiting** — compute each AS's max-min fair share of the
   link and rate-limit it to that share (:func:`max_min_fair_shares`,
   :class:`PerASRateLimiter`).
3. **Heavy-hitter detection** — detect and throttle only the high-rate
   source ASes, RED-PD style (:class:`HeavyHitterDetector`), on the theory
   that well-behaved ASes keep reducing their traffic in response to ``L↓``
   feedback while compromised ones do not.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Mapping

from repro.simulator.packet import Packet


def max_min_fair_shares(capacity_bps: float, demands_bps: Mapping[str, float]) -> Dict[str, float]:
    """Classic max-min fair allocation of ``capacity_bps`` across demands.

    Returns each key's allocation.  Keys with demand below their fair share
    keep their demand; the leftover is redistributed among the others.
    """
    if capacity_bps < 0:
        raise ValueError("capacity_bps cannot be negative")
    remaining = dict(demands_bps)
    allocation: Dict[str, float] = {}
    capacity_left = capacity_bps
    while remaining and capacity_left > 1e-9:
        share = capacity_left / len(remaining)
        satisfied = {k: d for k, d in remaining.items() if d <= share}
        if not satisfied:
            for key in remaining:
                allocation[key] = share
            return allocation
        for key, demand in satisfied.items():
            allocation[key] = demand
            capacity_left -= demand
            del remaining[key]
    for key in remaining:
        allocation[key] = 0.0
    return allocation


class PerASRateLimiter:
    """Token-bucket rate limiting of each source AS to its max-min fair share.

    The congested router periodically recomputes fair shares from the demand
    it observed in the last interval (as in Pushback [29]) and then admits or
    drops packets against each AS's budget.
    """

    def __init__(self, capacity_bps: float, interval_s: float = 1.0) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        self.capacity_bps = capacity_bps
        self.interval_s = interval_s
        self._demand_bytes: Dict[str, int] = defaultdict(int)
        self._budgets_bits: Dict[str, float] = {}
        self.shares_bps: Dict[str, float] = {}
        self.admitted = 0
        self.dropped = 0

    def observe_demand(self, packet: Packet) -> None:
        """Record a packet's arrival for the next share computation."""
        self._demand_bytes[packet.src_as or packet.src] += packet.size_bytes

    def recompute(self) -> Dict[str, float]:
        """Recompute per-AS fair shares from last interval's demand."""
        demands = {
            as_name: bytes_ * 8 / self.interval_s
            for as_name, bytes_ in self._demand_bytes.items()
        }
        self.shares_bps = max_min_fair_shares(self.capacity_bps, demands)
        self._budgets_bits = {
            as_name: share * self.interval_s for as_name, share in self.shares_bps.items()
        }
        self._demand_bytes.clear()
        return dict(self.shares_bps)

    def admit(self, packet: Packet) -> bool:
        """Admit the packet if its source AS still has budget this interval."""
        self.observe_demand(packet)
        as_name = packet.src_as or packet.src
        budget = self._budgets_bits.get(as_name)
        if budget is None:
            # Unknown AS: admit until the next recompute assigns it a share.
            self.admitted += 1
            return True
        cost = packet.size_bytes * 8
        if budget >= cost:
            self._budgets_bits[as_name] = budget - cost
            self.admitted += 1
            return True
        self.dropped += 1
        return False


class HeavyHitterDetector:
    """RED-PD-style detection of persistently high-rate source ASes.

    Every interval, each AS's sending rate is compared with the per-AS fair
    share of the link (capacity divided by the number of active ASes).  An AS
    whose rate exceeds ``threshold_multiplier ×`` its fair share for
    ``trigger_intervals`` consecutive intervals is flagged as a heavy hitter
    and throttled to the fair share until it behaves for
    ``forgive_intervals`` consecutive intervals.
    """

    def __init__(
        self,
        capacity_bps: float,
        interval_s: float = 1.0,
        threshold_multiplier: float = 2.0,
        trigger_intervals: int = 3,
        forgive_intervals: int = 5,
    ) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        self.capacity_bps = capacity_bps
        self.interval_s = interval_s
        self.threshold_multiplier = threshold_multiplier
        self.trigger_intervals = trigger_intervals
        self.forgive_intervals = forgive_intervals
        self._interval_bytes: Dict[str, int] = defaultdict(int)
        self._offense_streak: Dict[str, int] = defaultdict(int)
        self._clean_streak: Dict[str, int] = defaultdict(int)
        self.throttled: Dict[str, float] = {}  # AS -> allowed rate (bps)
        self._budgets_bits: Dict[str, float] = {}

    def observe(self, packet: Packet) -> None:
        self._interval_bytes[packet.src_as or packet.src] += packet.size_bytes

    def end_interval(self) -> Dict[str, float]:
        """Close the current interval; returns the set of throttled ASes."""
        active = [as_name for as_name, b in self._interval_bytes.items() if b > 0]
        fair_share = self.capacity_bps / max(len(active), 1)
        threshold = self.threshold_multiplier * fair_share
        for as_name in active:
            rate = self._interval_bytes[as_name] * 8 / self.interval_s
            if rate > threshold:
                self._offense_streak[as_name] += 1
                self._clean_streak[as_name] = 0
                if self._offense_streak[as_name] >= self.trigger_intervals:
                    self.throttled[as_name] = fair_share
            else:
                self._clean_streak[as_name] += 1
                self._offense_streak[as_name] = 0
                if (
                    as_name in self.throttled
                    and self._clean_streak[as_name] >= self.forgive_intervals
                ):
                    del self.throttled[as_name]
        self._interval_bytes.clear()
        self._budgets_bits = {
            as_name: rate * self.interval_s for as_name, rate in self.throttled.items()
        }
        return dict(self.throttled)

    def admit(self, packet: Packet) -> bool:
        """Admit or drop a packet against its AS's throttle budget."""
        self.observe(packet)
        as_name = packet.src_as or packet.src
        if as_name not in self.throttled:
            return True
        budget = self._budgets_bits.get(as_name, 0.0)
        cost = packet.size_bytes * 8
        if budget >= cost:
            self._budgets_bits[as_name] = budget - cost
            return True
        return False
