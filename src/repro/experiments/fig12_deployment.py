"""Fig. 12 (§5) — incremental deployment and strategic attackers.

The paper argues NetFence is incrementally deployable: an AS that upgrades
protects its own legitimate senders first, because traffic from legacy ASes
reaches NetFence bottlenecks unstamped and is served on the low-priority
legacy channel.  This experiment sweeps the deployment fraction of the
dumbbell's source ASes from 0 (nobody upgraded) to 1 (the classic full
deployment of Figs. 8–11) and reports the **legitimate-traffic share** of
the bottleneck, split into users inside upgraded ASes and users inside
legacy ASes.

The attacker axis crosses the deployment axis with three strategies at
equal average attack volume per sender:

* ``constant`` — the always-on flood of §6.3.1 (full rate, so its average
  volume is higher; it is the damage ceiling, not an equal-volume point);
* ``onoff`` — a naive on-off flood with the strategic schedule's average
  volume but a period incommensurate with the AIMD control interval;
* ``strategic`` — :class:`~repro.transport.udp.StrategicAttacker`: bursts
  aligned with the AIMD adjustment clock plus an off-phase maintenance
  trickle that farms additive increases, so every burst hits with a
  recovered rate limiter.

Expected shape: under ``fq`` the deployment fraction changes nothing (the
baseline has no deployment concept); under ``netfence`` the legitimate
share rises with the deployment fraction, and at fraction 1.0 matches the
full-deployment dumbbell scenarios used everywhere else.  The strategic
attacker costs legitimate users measurably more than the naive on-off
attacker at the same volume — but the damage stays bounded near the
always-on ceiling, which is the robust-AIMD design goal (§4.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.scenarios import (
    DumbbellScenarioConfig,
    run_dumbbell_scenario,
)
from repro.experiments.sweep import ScenarioSpec, register_point

#: Deployment fractions reported on the x-axis.
FRACTIONS: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Attacker strategies crossed with the deployment axis.
STRATEGIES: Sequence[str] = ("constant", "onoff", "strategic")

#: Systems compared: the deployment-aware design and the FQ baseline.
SYSTEMS: Sequence[str] = ("netfence", "fq")


@dataclass
class Fig12Row:
    """One (system, deployment fraction, attacker strategy) point."""

    system: str
    deployment_fraction: float
    attacker_strategy: str
    legit_share: float
    enabled_user_avg_kbps: float
    legacy_user_avg_kbps: float
    avg_attacker_kbps: float
    bottleneck_utilization: float

    def as_tuple(self) -> tuple:
        return (self.system, self.deployment_fraction, self.attacker_strategy,
                round(self.legit_share, 4),
                round(self.enabled_user_avg_kbps, 1),
                round(self.legacy_user_avg_kbps, 1),
                round(self.avg_attacker_kbps, 1))


@register_point("fig12")
def run_point(
    system: str,
    deployment_fraction: float,
    attacker_strategy: str = "constant",
    num_source_as: int = 4,
    hosts_per_as: int = 3,
    bottleneck_bps: float = 1.2e6,
    attack_rate_bps: float = 1.0e6,
    sim_time: float = 150.0,
    warmup: float = 50.0,
    seed: int = 1,
) -> Fig12Row:
    """Run one point of the deployment × attacker-strategy sweep."""
    config = DumbbellScenarioConfig(
        system=system,
        num_source_as=num_source_as,
        hosts_per_as=hosts_per_as,
        bottleneck_bps=bottleneck_bps,
        workload="longrun",
        attack_type="regular",
        attack_rate_bps=attack_rate_bps,
        attack_strategy=attacker_strategy,
        deployment_fraction=deployment_fraction,
        victim_blocks_attackers=False,
        num_colluders=6,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
    )
    result = run_dumbbell_scenario(config)
    return Fig12Row(
        system=system,
        deployment_fraction=deployment_fraction,
        attacker_strategy=attacker_strategy,
        legit_share=result.legit_share,
        enabled_user_avg_kbps=result.avg_throughput_bps(
            result.enabled_user_throughputs) / 1e3,
        legacy_user_avg_kbps=result.avg_throughput_bps(
            result.legacy_user_throughputs) / 1e3,
        avg_attacker_kbps=result.avg_attacker_throughput_bps / 1e3,
        bottleneck_utilization=result.bottleneck_utilization,
    )


def grid(
    systems: Sequence[str] = SYSTEMS,
    fractions: Sequence[float] = FRACTIONS,
    strategies: Sequence[str] = STRATEGIES,
    sim_time: float = 150.0,
    warmup: float = 50.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    """The declarative grid: fraction × strategy × system."""
    return [
        ScenarioSpec.make(
            "fig12", seed=seed, system=system, deployment_fraction=fraction,
            attacker_strategy=strategy, sim_time=sim_time, warmup=warmup,
        )
        for fraction in fractions
        for strategy in strategies
        for system in systems
    ]


def format_table(rows: List[Fig12Row]) -> str:
    lines = ["Fig. 12 — legitimate-traffic share vs. NetFence deployment fraction"]
    fractions = sorted({row.deployment_fraction for row in rows})
    header = f"{'system / attacker':24s}" + "".join(f"{f:>8.2f}" for f in fractions)
    lines.append(header)
    combos = sorted({(row.system, row.attacker_strategy) for row in rows})
    for system, strategy in combos:
        cells = []
        for fraction in fractions:
            match = [r for r in rows
                     if r.system == system and r.attacker_strategy == strategy
                     and r.deployment_fraction == fraction]
            cells.append(f"{match[0].legit_share:8.3f}" if match else f"{'-':>8s}")
        lines.append(f"{system + ' / ' + strategy:24s}" + "".join(cells))
    return "\n".join(lines)
