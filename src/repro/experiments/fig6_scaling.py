"""fig6_scaling — botnet size × topology size × system on generated AS graphs.

The paper's scaling argument (§4.5, §7) is that congestion policing keeps
all per-packet router state at the edge: a bottleneck router stores only
per-channel (and at worst per-source-AS) state, while each access router
stores rate limiters for *its own* senders — so total policing state is
O(#AS) and a multimillion-node botnet cannot exhaust it.  The dumbbell
and parking-lot layouts cannot probe that claim; this sweep runs the
:mod:`repro.topogen` pipeline instead:

1. generate a seeded AS-level graph (core/transit/stub tiers, valley-free
   routing) of ``num_as`` ASes;
2. place a ``botnet_size`` botnet with a placement model, *aggregating*
   bots so one simulated host stands in for thousands;
3. realize it against ``netfence`` or a baseline and measure the
   legitimate traffic share plus the per-router rate-limiter state.

Expected shape: for ``netfence`` the limiter state grows with ``num_as``
and stays flat across three decades of ``botnet_size`` (the aggregation
keeps simulated-host count per AS bounded, exactly like the real design
bounds per-AS policing state), while the legitimate share stays near the
per-sender fair share.  For ``fq`` the per-sender state lives in the
bottleneck's DRR buckets — state the real system would need per *bot*,
which is the comparison the paper's Table 2 makes.

The grid is the union of two axes through a reference point — topology
sizes at a fixed botnet, and botnet sizes at a fixed topology — so the
two scaling curves come out of one sweep without a full cross product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.scenarios import (
    ASGraphScenarioConfig,
    run_asgraph_scenario,
)
from repro.experiments.sweep import ScenarioSpec, register_point

#: Topology sizes (number of ASes) on the state-scaling axis.
TOPOLOGY_SIZES: Sequence[int] = (16, 32, 64)

#: Botnet sizes (real bots represented, before aggregation).
BOTNET_SIZES: Sequence[int] = (10_000, 100_000, 1_000_000)

#: Placement models crossed with both axes.
PLACEMENTS: Sequence[str] = ("uniform", "stub_concentrated", "clustered")

#: The policed design and the per-sender fair-queuing baseline.
SYSTEMS: Sequence[str] = ("netfence", "fq")


@dataclass
class Fig6ScalingRow:
    """One (system, topology size, botnet size, placement) point."""

    system: str
    num_as: int
    botnet_size: int
    placement: str
    attacker_hosts: int
    represented_bots: int
    legit_share: float
    avg_user_kbps: float
    limiter_state_total: int
    limiter_state_max: int
    state_per_as: float
    bottleneck_queue_state: int
    bottleneck_utilization: float
    graph_fingerprint: str

    def as_tuple(self) -> tuple:
        return (self.system, self.num_as, self.botnet_size, self.placement,
                self.attacker_hosts, round(self.legit_share, 4),
                self.limiter_state_total, self.limiter_state_max)


@register_point("fig6_scaling")
def run_point(
    system: str,
    num_as: int,
    botnet_size: int,
    placement: str,
    sim_time: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
) -> Fig6ScalingRow:
    """Run one point of the botnet-scaling sweep."""
    config = ASGraphScenarioConfig(
        system=system,
        num_as=num_as,
        botnet_size=botnet_size,
        placement_model=placement,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
    )
    result = run_asgraph_scenario(config)
    return Fig6ScalingRow(
        system=system,
        num_as=num_as,
        botnet_size=botnet_size,
        placement=placement,
        attacker_hosts=result.num_attacker_hosts,
        represented_bots=result.represented_bots,
        legit_share=result.legit_share,
        avg_user_kbps=result.avg_user_throughput_bps / 1e3,
        limiter_state_total=result.limiter_state_total,
        limiter_state_max=result.limiter_state_max,
        state_per_as=result.limiter_state_total / num_as,
        bottleneck_queue_state=result.bottleneck_queue_state,
        bottleneck_utilization=result.bottleneck_utilization,
        graph_fingerprint=result.graph_fingerprint,
    )


def grid(
    systems: Sequence[str] = SYSTEMS,
    topology_sizes: Sequence[int] = TOPOLOGY_SIZES,
    botnet_sizes: Sequence[int] = BOTNET_SIZES,
    placements: Sequence[str] = PLACEMENTS,
    size_ref: Optional[int] = None,
    botnet_ref: Optional[int] = None,
    sim_time: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    """Union of the two scaling axes through one reference point.

    Axis 1 sweeps ``topology_sizes`` at ``botnet_ref`` bots; axis 2
    sweeps ``botnet_sizes`` at ``size_ref`` ASes.  The shared reference
    point appears once.  Both axes cross every placement and system.
    """
    size_ref = size_ref if size_ref is not None else topology_sizes[len(topology_sizes) // 2]
    botnet_ref = botnet_ref if botnet_ref is not None else botnet_sizes[0]
    points = []
    for num_as in topology_sizes:
        points.append((num_as, botnet_ref))
    for botnet in botnet_sizes:
        if (size_ref, botnet) not in points:
            points.append((size_ref, botnet))
    return [
        ScenarioSpec.make(
            "fig6_scaling", seed=seed, system=system, num_as=num_as,
            botnet_size=botnet, placement=placement,
            sim_time=sim_time, warmup=warmup,
        )
        for num_as, botnet in points
        for placement in placements
        for system in systems
    ]


def format_table(rows: List[Fig6ScalingRow]) -> str:
    lines = ["fig6_scaling — legit share and policing state vs #AS and botnet size",
             f"{'system':10s}{'placement':20s}{'#AS':>6s}{'bots':>10s}"
             f"{'hosts':>7s}{'legit':>8s}{'limiters':>10s}{'per-AS':>8s}{'bneck-q':>9s}"]
    ordered = sorted(rows, key=lambda r: (r.system, r.placement, r.num_as, r.botnet_size))
    for row in ordered:
        lines.append(
            f"{row.system:10s}{row.placement:20s}{row.num_as:>6d}{row.botnet_size:>10d}"
            f"{row.attacker_hosts:>7d}{row.legit_share:>8.3f}"
            f"{row.limiter_state_total:>10d}{row.state_per_as:>8.2f}"
            f"{row.bottleneck_queue_state:>9d}")
    return "\n".join(lines)
