"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.access import NetFenceAccessRouter
from repro.core.bottleneck import NetFenceRouter, netfence_queue_factory
from repro.core.domain import NetFenceDomain
from repro.core.endhost import NetFenceEndHost
from repro.core.params import NetFenceParams
from repro.runtime.serve import TIMER_GRANULE_S, _LinkClock
from repro.simulator.engine import Simulator
from repro.simulator.topology import Topology


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def params() -> NetFenceParams:
    return NetFenceParams()


@pytest.fixture
def domain(params) -> NetFenceDomain:
    return NetFenceDomain(params=params, master=b"test-master")


class SmallNetFenceNetwork:
    """A two-sender / two-receiver NetFence deployment on one bottleneck.

    Layout::

        good, bad --- Ra === Rbl --(bottleneck)-- Rbr === Rd --- victim, colluder
    """

    def __init__(self, params: NetFenceParams, domain: NetFenceDomain,
                 bottleneck_bps: float = 400e3) -> None:
        self.params = params
        self.domain = domain
        self.topo = Topology()
        sim = self.topo.clock
        queue_factory = netfence_queue_factory(sim, params)
        for name, as_name in [("good", "AS-src"), ("bad", "AS-src"),
                              ("victim", "AS-dst"), ("colluder", "AS-dst")]:
            self.topo.add_host(name, as_name=as_name)
        self.access = self.topo.add_router(
            "Ra", as_name="AS-src", router_cls=NetFenceAccessRouter, domain=domain)
        self.left = self.topo.add_router(
            "Rbl", as_name="AS-core", router_cls=NetFenceRouter, domain=domain)
        self.right = self.topo.add_router(
            "Rbr", as_name="AS-core", router_cls=NetFenceRouter, domain=domain)
        self.dst_access = self.topo.add_router(
            "Rd", as_name="AS-dst", router_cls=NetFenceAccessRouter, domain=domain)
        self.topo.add_duplex_link("good", "Ra", 100e6, 0.001)
        self.topo.add_duplex_link("bad", "Ra", 100e6, 0.001)
        self.topo.add_duplex_link("Ra", "Rbl", 100e6, 0.005)
        self.topo.add_duplex_link("Rbl", "Rbr", bottleneck_bps, 0.005,
                                  queue_factory=queue_factory)
        self.topo.add_duplex_link("Rbr", "Rd", 100e6, 0.005)
        self.topo.add_duplex_link("victim", "Rd", 100e6, 0.001)
        self.topo.add_duplex_link("colluder", "Rd", 100e6, 0.001)
        self.topo.finalize()
        self.bottleneck = self.topo.link_between("Rbl", "Rbr")
        self.endhosts = {}
        for host in ("good", "bad"):
            self.endhosts[host] = NetFenceEndHost(sim, self.topo.host(host), params=params)
        for host in ("victim", "colluder"):
            self.endhosts[host] = NetFenceEndHost(
                sim, self.topo.host(host), params=params, send_feedback_packets=True)

    @property
    def clock(self) -> Simulator:
        return self.topo.clock

    @property
    def sim(self) -> Simulator:
        """Backward-compat alias for :attr:`clock`."""
        return self.topo.clock


@pytest.fixture
def small_network(params, domain) -> SmallNetFenceNetwork:
    return SmallNetFenceNetwork(params, domain)


@pytest.fixture
def fast_params() -> NetFenceParams:
    """Parameters with short control intervals for quick closed-loop tests."""
    return NetFenceParams().with_overrides(
        control_interval=0.5,
        detection_interval=0.2,
        feedback_expiration=2.0,
    )


class ScriptedLink:
    """A ``_LinkClock`` driven on scripted time, as ``LivePolicer._drain`` does.

    A FIFO backlog: every packet leaves as soon as it has arrived and the
    wait the previous ``reserve`` asked for is over.  A positive wait is a
    timer, which fires ``late`` seconds after its deadline.
    """

    def __init__(self, capacity_bps: float, late: float = 0.0) -> None:
        self.capacity_bps = capacity_bps
        self.late = late
        self.clock = _LinkClock(capacity_bps)
        self.ready_at = float("-inf")
        self.timers = 0
        #: (departure time, size_bytes) of every packet released.
        self.releases = []

    def offer(self, arrival: float, size_bytes: int) -> float:
        """Release one packet; returns the wait ``reserve`` asked for."""
        now = max(arrival, self.ready_at)
        self.releases.append((now, size_bytes))
        wait = self.clock.reserve(now, size_bytes)
        self.ready_at = now + wait
        if wait > 0.0:
            self.timers += 1
            self.ready_at += self.late
        return wait

    def worst_window_excess_bytes(self) -> float:
        """Largest excess, over every window that starts and ends at a
        departure, of the bytes released in it over the conformance bound
        ``capacity * (T + granule) / 8`` plus the window's last packet."""
        times = [t for t, _ in self.releases]
        sizes = [s for _, s in self.releases]
        worst = float("-inf")
        for i in range(len(times)):
            total = 0
            for j in range(i, len(times)):
                total += sizes[j]
                allowed = (self.capacity_bps * (times[j] - times[i] + TIMER_GRANULE_S)
                           / 8.0 + sizes[j])
                worst = max(worst, total - allowed)
        return worst


@pytest.fixture(scope="session")
def scripted_link():
    """Factory for :class:`ScriptedLink` (session scope: hypothesis-safe)."""
    return ScriptedLink
