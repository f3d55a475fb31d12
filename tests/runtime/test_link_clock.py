"""The live egress link clock on scripted time: no asyncio, no wall clock.

``_LinkClock`` is the whole pacing policy of ``LivePolicer._drain``; the
``scripted_link`` fixture (``tests/conftest.py``) replays the drain's use of
it.  What is proven here is what the README's "Pacing" paragraph promises:
departures never run more than one timer granule ahead of an ideal link, and
a timer that fires late costs nothing as long as it is less than a granule
late.
"""

import random

import pytest

from repro.runtime.serve import TIMER_GRANULE_S, _LinkClock

GBPS = 1e9
SLOW_BPS = 400_000.0  # the paper's 400 kb/s bottleneck: 2.5 ms per 125 B


def test_train_at_gigabit_needs_no_timer():
    clock = _LinkClock(GBPS)
    assert [clock.reserve(5.0, 1500) for _ in range(4)] == [0.0] * 4


def test_first_packet_after_construction_is_not_an_idle_eternity():
    clock = _LinkClock(SLOW_BPS)
    # One granule of credit, as after any idle period: 2.5 ms - 1 ms.
    assert clock.reserve(123.0, 125) == pytest.approx(0.0025 - TIMER_GRANULE_S)


@pytest.mark.parametrize("capacity_bps,size", [(GBPS, 1500), (GBPS, 125),
                                                (10e6, 1500), (SLOW_BPS, 125)])
def test_idle_hour_earns_one_granule_of_credit(scripted_link, capacity_bps, size):
    link = scripted_link(capacity_bps)
    link.offer(0.0, size)
    burst = 0
    while link.offer(3600.0, size) == 0.0:
        burst += 1
    # Everything released at t = 3600 without a timer: the credit plus the
    # packet that exhausted it.
    released = (burst + 1) * size
    assert released <= capacity_bps * TIMER_GRANULE_S / 8.0 + size
    assert link.releases[-1][0] == 3600.0


def test_saturated_slow_link_with_late_timers_stays_full(scripted_link):
    """Every timer 0.6 ms late (the overshoot measured on the parent's
    per-packet sleep) and the 400 kb/s link still carries its capacity, so
    ``interval_util`` can cross ``utilization_threshold = 0.95``."""
    link = scripted_link(SLOW_BPS, late=0.0006)
    for _ in range(4100):
        link.offer(0.0, 125)
    sent = sum(size for at, size in link.releases if at <= 10.0)
    assert sent >= 0.99 * SLOW_BPS * 10.0 / 8.0
    assert sent <= SLOW_BPS * (10.0 + TIMER_GRANULE_S) / 8.0 + 125
    assert link.timers >= 3999  # 2.5 ms apiece: every packet is paced


def test_timers_later_than_a_granule_lose_only_the_excess(scripted_link):
    link = scripted_link(SLOW_BPS, late=0.0015)
    for _ in range(1000):
        link.offer(0.0, 125)
    gaps = [b[0] - a[0] for a, b in zip(link.releases[1:], link.releases[2:])]
    assert max(gaps) == pytest.approx(0.0025 + 0.0005)


def test_window_conformance_on_bursty_mixed_traffic(scripted_link):
    rng = random.Random(12)
    for capacity_bps in (GBPS, 100e6, 10e6, SLOW_BPS):
        link = scripted_link(capacity_bps, late=0.0006)
        now = 0.0
        for _ in range(40):
            now += rng.choice((0.0, 1e-5, 0.002, 0.5, 30.0))
            for _ in range(rng.randrange(1, 12)):
                link.offer(now, rng.choice((40, 125, 576, 1500)))
        assert link.worst_window_excess_bytes() <= 1e-6, capacity_bps
        first, last = link.releases[0][0], link.releases[-1][0]
        total = sum(size for _, size in link.releases)
        assert total <= capacity_bps * (last - first + TIMER_GRANULE_S) / 8.0 + 1500
