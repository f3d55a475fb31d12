"""Fig. 10 — colluding attacks across multiple bottlenecks (parking lot).

Three sender groups share two bottleneck links in series: Group A crosses
both L1 and L2, Group B only L2, Group C only L1.  Every group is 75 %
attackers / 25 % long-running TCP users.  The paper reports the average
throughput of Group-A users and Group-A attackers for three capacity pairs:

* (160M, 160M) and (240M, 160M): Group-A senders obtain roughly their
  80 Kbps max-min fair share;
* (160M, 240M) — i.e. ``C_L1 < C_L2``: Group-A senders fall well below their
  fair share and the TCP users fall below the UDP attackers, because a flow's
  single rate limiter keeps switching between the two bottlenecks (§4.3.5).

The same module powers Fig. 13 (Appendix B.1 multi-bottleneck feedback) and
Fig. 14 (Appendix B.2 rate-limiter inference) by selecting a different
policing policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.scenarios import (
    ParkingLotScenarioConfig,
    run_parking_lot_scenario,
)
from repro.experiments.sweep import ScenarioSpec, register_point

#: (paper label, L1 bps, L2 bps) — scaled from the paper's 160/240 Mbps so
#: that a Group-A sender's max-min fair share stays at 80 Kbps.
CAPACITY_CASES: Sequence[tuple] = (
    ("160M-160M", 1.6e6, 1.6e6),
    ("240M-160M", 2.4e6, 1.6e6),
    ("160M-240M", 1.6e6, 2.4e6),
)


@dataclass
class ParkingLotRow:
    """One bar pair of Fig. 10/13/14."""

    policy: str
    case_label: str
    group_a_user_kbps: float
    group_a_attacker_kbps: float
    fair_share_kbps: float

    def as_tuple(self) -> tuple:
        return (self.policy, self.case_label,
                round(self.group_a_user_kbps, 1),
                round(self.group_a_attacker_kbps, 1),
                round(self.fair_share_kbps, 1))


@register_point("fig10")
def run_point(
    policy: str,
    case_label: str,
    l1_bps: float,
    l2_bps: float,
    hosts_per_group: int = 10,
    sim_time: float = 200.0,
    warmup: float = 100.0,
    seed: int = 1,
) -> ParkingLotRow:
    """Run one (policy, capacity case) point of the parking-lot sweep."""
    config = ParkingLotScenarioConfig(
        l1_bps=l1_bps,
        l2_bps=l2_bps,
        hosts_per_group=hosts_per_group,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
        netfence_policy=policy,
        attack_rate_bps=400e3,
    )
    result = run_parking_lot_scenario(config)
    return ParkingLotRow(
        policy=policy,
        case_label=case_label,
        group_a_user_kbps=result.avg_user("A") / 1e3,
        group_a_attacker_kbps=result.avg_attacker("A") / 1e3,
        fair_share_kbps=config.fair_share_bps / 1e3,
    )


def grid(
    policy: str = "single",
    capacity_cases: Sequence[tuple] = CAPACITY_CASES,
    hosts_per_group: int = 10,
    sim_time: float = 200.0,
    warmup: float = 100.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    """The declarative parking-lot grid: one spec per capacity case."""
    return [
        ScenarioSpec.make(
            "fig10", seed=seed, policy=policy, case_label=label, l1_bps=l1, l2_bps=l2,
            hosts_per_group=hosts_per_group, sim_time=sim_time, warmup=warmup,
        )
        for label, l1, l2 in capacity_cases
    ]


def format_table(rows: List[ParkingLotRow], figure: str = "Fig. 10") -> str:
    lines = [f"{figure} — Group-A average throughput (Kbps) in the parking-lot topology"]
    lines.append(f"{'case':12s} {'A user':>10s} {'A attacker':>12s} {'fair share':>12s}")
    for row in rows:
        lines.append(
            f"{row.case_label:12s} {row.group_a_user_kbps:10.1f} "
            f"{row.group_a_attacker_kbps:12.1f} {row.fair_share_kbps:12.1f}"
        )
    return "\n".join(lines)
