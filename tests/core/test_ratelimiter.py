"""Tests for the request token limiter and the leaky-bucket regular limiter."""

import pytest

from repro.core.feedback import Feedback, FeedbackAction, FeedbackMode
from repro.core.params import NetFenceParams
from repro.core.ratelimiter import CACHED, DROP, PASS, RegularRateLimiter, RequestRateLimiter
from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet, PacketType


def request_packet(priority):
    return Packet(src="s", dst="d", size_bytes=92, ptype=PacketType.REQUEST,
                  priority=priority)


def data_packet(size=1500):
    return Packet(src="s", dst="d", size_bytes=size, ptype=PacketType.REGULAR)


def incr_feedback(ts, link="L"):
    return Feedback(FeedbackMode.MON, link, FeedbackAction.INCR, ts=ts)


def decr_feedback(ts, link="L"):
    return Feedback(FeedbackMode.MON, link, FeedbackAction.DECR, ts=ts)


# ---------------------------------------------------------------------------
# RequestRateLimiter (§4.2, Fig. 15)
# ---------------------------------------------------------------------------

def test_level0_packets_never_rate_limited():
    limiter = RequestRateLimiter(NetFenceParams())
    assert all(limiter.admit(request_packet(0), now=0.0) for _ in range(1000))


def test_level_k_costs_doubling_tokens():
    params = NetFenceParams().with_overrides(request_token_depth=8.0)
    limiter = RequestRateLimiter(params)
    # Depth 8: a level-4 packet (cost 8) drains the bucket entirely.
    assert limiter.admit(request_packet(4), now=0.0)
    assert limiter.available_tokens == pytest.approx(0.0)
    assert not limiter.admit(request_packet(1), now=0.0)


def test_tokens_refill_over_time():
    params = NetFenceParams().with_overrides(request_token_depth=8.0)
    limiter = RequestRateLimiter(params)
    limiter.admit(request_packet(4), now=0.0)
    assert not limiter.admit(request_packet(4), now=0.001)
    # After 8 ms the bucket holds 8 tokens again (rate = 1 per ms).
    assert limiter.admit(request_packet(4), now=0.009)


def test_level1_rate_matches_l1_interval():
    limiter = RequestRateLimiter(NetFenceParams())
    admitted = sum(
        limiter.admit(request_packet(1), now=i * 0.0001) for i in range(5000)
    )
    # 5000 arrivals over 0.5 s at 1 token/ms ≈ 500 admissions + initial burst.
    assert admitted == pytest.approx(500, abs=1.2 * NetFenceParams().request_token_depth)


def test_higher_levels_admit_exponentially_fewer_packets():
    params = NetFenceParams().with_overrides(request_token_depth=1.0)
    low, high = RequestRateLimiter(params), RequestRateLimiter(params)
    low_admitted = sum(low.admit(request_packet(1), now=i * 0.0001) for i in range(20000))
    high_admitted = sum(high.admit(request_packet(3), now=i * 0.0001) for i in range(20000))
    assert low_admitted > 3 * high_admitted


def test_priority_clamped_to_max_level():
    params = NetFenceParams()
    limiter = RequestRateLimiter(params)
    crazy = request_packet(100)
    assert limiter.admit(crazy, now=10.0)  # clamped, affordable from a full bucket


# ---------------------------------------------------------------------------
# RegularRateLimiter (§4.3.3-4.3.4, Figs. 16-17)
# ---------------------------------------------------------------------------

@pytest.fixture
def limiter_rig():
    sim = Simulator()
    released = []
    params = NetFenceParams()
    limiter = RegularRateLimiter(sim, "s", "L", params, release_fn=released.append,
                                 initial_rate_bps=120_000.0)
    return sim, limiter, released


def test_first_packet_passes_immediately(limiter_rig):
    sim, limiter, _ = limiter_rig
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert limiter.police(data_packet()) == PASS


def test_burst_is_cached_and_released_at_rate(limiter_rig):
    sim, limiter, released = limiter_rig
    sim.schedule(1.0, lambda: None)
    sim.run()  # advance clock so the first packet has credit
    verdicts = [limiter.police(data_packet()) for _ in range(4)]
    assert verdicts[0] == PASS
    assert all(v == CACHED for v in verdicts[1:])
    sim.run(until=sim.now + 1.0)
    # At 120 Kbps, 1500-byte packets leave every 0.1 s: all three within 1 s.
    assert len(released) == 3


def test_release_times_respect_rate(limiter_rig):
    sim, limiter, released = limiter_rig
    times = []
    limiter.release_fn = lambda packet: times.append(sim.now)
    sim.schedule(1.0, lambda: None)
    sim.run()
    for _ in range(3):
        limiter.police(data_packet())
    sim.run(until=10.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap == pytest.approx(0.1, abs=0.02) for gap in gaps)


def test_excessive_backlog_dropped(limiter_rig):
    sim, limiter, _ = limiter_rig
    sim.schedule(1.0, lambda: None)
    sim.run()
    verdicts = [limiter.police(data_packet()) for _ in range(100)]
    assert DROP in verdicts
    assert limiter.stats.dropped > 0


def test_leaky_bucket_does_not_accumulate_idle_credit(limiter_rig):
    """Unlike a token bucket, a long idle period must not allow a burst."""
    sim, limiter, _ = limiter_rig
    sim.schedule(100.0, lambda: None)
    sim.run()  # 100 s of idleness
    verdicts = [limiter.police(data_packet()) for _ in range(10)]
    # Only the head packet passes; the rest must wait in the cache.
    assert verdicts.count(PASS) == 1


def _feed_steadily(sim, limiter, interval=0.08, until=2.0):
    """Offer one packet every ``interval`` seconds so the limiter stays busy."""

    def feed():
        limiter.police(data_packet())
        if sim.now + interval < until:
            sim.schedule(interval, feed)

    sim.schedule(0.0, feed)
    sim.run(until=until)


def test_aimd_increase_requires_fresh_incr_and_half_utilization(limiter_rig):
    sim, limiter, _ = limiter_rig
    start_rate = limiter.rate_bps
    # Fresh incr feedback + sustained traffic above rlim/2 for the interval.
    limiter.update_status(incr_feedback(ts=0.1))
    _feed_steadily(sim, limiter)
    assert limiter.adjust() == "increase"
    assert limiter.rate_bps == pytest.approx(start_rate + 12_000)


def test_aimd_holds_when_underutilized(limiter_rig):
    sim, limiter, _ = limiter_rig
    start_rate = limiter.rate_bps
    sim.schedule(0.5, lambda: None)
    sim.run()
    limiter.update_status(incr_feedback(ts=sim.now))
    limiter.police(data_packet(size=200))  # tiny amount of traffic
    sim.run(until=2.0)
    assert limiter.adjust() == "keep"
    assert limiter.rate_bps == pytest.approx(start_rate)


def test_aimd_decreases_without_incr_feedback(limiter_rig):
    sim, limiter, _ = limiter_rig
    start_rate = limiter.rate_bps
    limiter.update_status(decr_feedback(ts=0.1))
    assert limiter.adjust() == "decrease"
    assert limiter.rate_bps == pytest.approx(start_rate * 0.9)


def test_stale_incr_feedback_does_not_count(limiter_rig):
    """Feedback older than the control interval start cannot set hasIncr."""
    sim, limiter, _ = limiter_rig
    sim.schedule(5.0, lambda: None)
    sim.run()
    limiter.adjust()  # start a new interval at t=5
    limiter.update_status(incr_feedback(ts=1.0))  # stale
    assert limiter.adjust() == "decrease"


def test_repeated_decreases_are_multiplicative(limiter_rig):
    sim, limiter, _ = limiter_rig
    start_rate = limiter.rate_bps
    for _ in range(5):
        limiter.adjust()
    assert limiter.rate_bps == pytest.approx(start_rate * 0.9 ** 5)


def test_idle_tracking_for_limiter_teardown(limiter_rig):
    sim, limiter, _ = limiter_rig
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert limiter.idle_for() == pytest.approx(10.0)
    limiter.update_status(decr_feedback(ts=sim.now))
    assert limiter.idle_for() == pytest.approx(0.0)


def test_close_releases_cached_packets(limiter_rig):
    sim, limiter, released = limiter_rig
    sim.schedule(1.0, lambda: None)
    sim.run()
    for _ in range(3):
        limiter.police(data_packet())
    limiter.close()
    assert len(released) == 2  # the cached packets, flushed on close
    assert limiter.queue_length == 0


def test_inference_adjustment_keeps_rate_for_inferred_only_activity(limiter_rig):
    """Appendix B.2 rule 3: only inferred activity -> hold the rate."""
    sim, limiter, _ = limiter_rig
    start = limiter.rate_bps
    limiter.update_inferred_status(decr_feedback(ts=0.1, link="other"))
    assert limiter.adjust_with_inference() == "keep"
    assert limiter.rate_bps == pytest.approx(start)


def test_inference_adjustment_increases_on_inferred_incr(limiter_rig):
    sim, limiter, _ = limiter_rig
    start = limiter.rate_bps
    limiter.update_inferred_status(incr_feedback(ts=0.1, link="other"))
    _feed_steadily(sim, limiter)
    assert limiter.adjust_with_inference() == "increase"
    assert limiter.rate_bps > start


# ---------------------------------------------------------------------------
# Fig. 17 interval boundaries on a scripted clock
# ---------------------------------------------------------------------------

class ScriptedClock:
    """A clock that moves only when the test sets ``now``."""

    def __init__(self, now):
        self.now = now

    def schedule(self, delay, callback, *args):
        raise AssertionError("these tests never cache a packet")


def scripted_limiter(start=10.0):
    clock = ScriptedClock(start)
    limiter = RegularRateLimiter(clock, "s", "L", NetFenceParams(),
                                 release_fn=None, initial_rate_bps=120_000.0)
    return clock, limiter


@pytest.mark.parametrize("update, adjust", [
    ("update_status", "adjust"),
    ("update_status", "adjust_with_inference"),
    ("update_inferred_status", "adjust_with_inference"),
])
def test_incr_in_one_interval_does_not_carry_into_the_next(update, adjust):
    clock, limiter = scripted_limiter()
    clock.now = 10.25
    getattr(limiter, update)(incr_feedback(ts=10.25))
    clock.now = 12.0
    assert getattr(limiter, adjust)() == "keep"  # no traffic: hold, not raise
    clock.now = 14.0
    assert getattr(limiter, adjust)() == "decrease"


@pytest.mark.parametrize("update, flag", [
    ("update_status", "has_incr"),
    ("update_inferred_status", "has_incr_star"),
])
def test_incr_stamped_before_the_interval_start_does_not_count(update, flag):
    clock, limiter = scripted_limiter()
    clock.now = 12.0
    limiter.adjust()  # the interval now starts at 12.0
    clock.now = 12.5
    getattr(limiter, update)(incr_feedback(ts=12.0 - 2.0 ** -20))
    assert not getattr(limiter, flag)
    getattr(limiter, update)(incr_feedback(ts=12.0))
    assert getattr(limiter, flag)


# ---------------------------------------------------------------------------
# Leaky-bucket accounting regressions
# ---------------------------------------------------------------------------

def test_sustained_small_packet_goodput_tracks_rate_limit():
    """Fractional accrued credit must survive the pass path (§4.3.3).

    Bursts of sub-MTU packets offered at exactly ``rate_bps`` have to be
    forwarded at ``rate_bps``.  The pre-fix code reset ``_last_departure`` to
    ``now`` on every pass, discarding the rest of the burst's accrued credit;
    with a constrained cache most of each burst was then dropped and the
    sustained goodput collapsed far below the rate limit.
    """
    sim = Simulator()
    params = NetFenceParams().with_overrides(max_caching_delay=0.02,
                                             min_cache_bytes=300)
    limiter = RegularRateLimiter(sim, "s", "L", params, release_fn=lambda p: None,
                                 initial_rate_bps=120_000.0)
    burst, size, gap = 8, 150, 0.08   # 8 pkts x 1200 bits / 0.08 s = 120 kbps
    cycles = 500

    def offer():
        for _ in range(burst):
            limiter.police(data_packet(size=size))

    for k in range(cycles):
        sim.schedule(1.0 + k * gap, offer)
    sim.run(until=1.0 + cycles * gap)
    goodput_bps = limiter.stats.bytes_forwarded * 8 / (cycles * gap)
    assert goodput_bps == pytest.approx(limiter.rate_bps, rel=0.01)


def test_idle_credit_still_capped_at_one_mtu_of_small_packets():
    """Banked credit never exceeds the configured bucket depth."""
    sim = Simulator()
    params = NetFenceParams()
    limiter = RegularRateLimiter(sim, "s", "L", params, release_fn=lambda p: None,
                                 initial_rate_bps=120_000.0)
    sim.schedule(1000.0, lambda: None)
    sim.run()  # a very long idle period
    verdicts = [limiter.police(data_packet(size=150)) for _ in range(100)]
    # depth 1500 B / 150 B = at most 10 packets can pass from banked credit.
    assert verdicts.count(PASS) == params.leaky_bucket_depth_bytes // 150


def test_close_updates_release_and_forwarding_counters(limiter_rig):
    sim, limiter, released = limiter_rig
    sim.schedule(1.0, lambda: None)
    sim.run()
    for _ in range(3):
        limiter.police(data_packet())
    assert limiter.stats.released == 0
    forwarded_before = limiter.stats.bytes_forwarded
    limiter.close()
    # The two cached packets were flushed through release_fn, so they must be
    # counted exactly like ordinary releases.
    assert len(released) == 2
    assert limiter.stats.released == 2
    assert limiter.stats.bytes_forwarded == forwarded_before + 2 * 1500
