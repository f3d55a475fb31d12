"""Fig. 9 — colluding attacks (regular-packet floods to colluding receivers).

Malicious sender–receiver pairs flood the bottleneck with *authorized*
regular traffic: colluding receivers return NetFence feedback / grant TVA+
capabilities / never install StopIt filters.  Each source AS has 25 %
legitimate users and 75 % attackers; legitimate users send TCP to the victim
(long-running transfers for Fig. 9a, the web-like workload for Fig. 9b).

Metrics: the throughput ratio between the average legitimate user and the
average attacker, and Jain's fairness index across legitimate users (close
to 1 for every system).  Expected shape (paper):

* NetFence, FQ, StopIt — ratio near 1 (per-sender fairness).
* TVA+ — the lowest ratio: per-destination fair queuing gives the victim
  only ``1/(N_c+1)`` of the link, so each attacker outperforms each user by
  roughly ``G·N_c / B``.
* NetFence's bottleneck utilization stays a bit above 90 % (the 2·Ilim
  stamping hysteresis), while the others run at ~100 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.scenarios import (
    DumbbellScenarioConfig,
    run_dumbbell_scenario,
)
from repro.experiments.sweep import ScenarioSpec, register_point

#: (paper x-axis label, #source ASes, hosts per AS, bottleneck bps) — the
#: per-sender fair share spans the paper's 400 Kbps → 50 Kbps range.
SCALE_STEPS: Sequence[tuple] = (
    ("25K", 5, 2, 4.0e6),
    ("50K", 5, 4, 4.0e6),
    ("100K", 10, 4, 4.0e6),
    ("200K", 10, 8, 4.0e6),
)

SYSTEMS = ("netfence", "fq", "stopit", "tva")
WORKLOADS = ("longrun", "web")


@dataclass
class Fig9Row:
    """One point of Fig. 9: a (workload, system, scale) triple."""

    workload: str
    system: str
    scale_label: str
    num_senders: int
    throughput_ratio: float
    fairness_index: float
    bottleneck_utilization: float

    def as_tuple(self) -> tuple:
        return (self.workload, self.system, self.scale_label,
                round(self.throughput_ratio, 3), round(self.fairness_index, 3),
                round(self.bottleneck_utilization, 3))


def _config_for(system: str, workload: str, num_as: int, hosts_per_as: int,
                bottleneck_bps: float, sim_time: float, warmup: float,
                seed: int) -> DumbbellScenarioConfig:
    return DumbbellScenarioConfig(
        system=system,
        num_source_as=num_as,
        hosts_per_as=hosts_per_as,
        bottleneck_bps=bottleneck_bps,
        workload=workload,
        attack_type="regular",
        attack_rate_bps=1.0e6,
        victim_blocks_attackers=False,
        num_colluders=9,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
    )


@register_point("fig9")
def run_point(
    system: str,
    workload: str,
    scale_label: str,
    num_as: int,
    hosts_per_as: int,
    bottleneck_bps: float,
    sim_time: float = 240.0,
    warmup: float = 120.0,
    seed: int = 1,
) -> Fig9Row:
    """Run one (workload, system, scale) point of the Fig. 9 sweep."""
    config = _config_for(system, workload, num_as, hosts_per_as, bottleneck_bps,
                         sim_time, warmup, seed)
    result = run_dumbbell_scenario(config)
    return Fig9Row(
        workload=workload,
        system=system,
        scale_label=scale_label,
        num_senders=config.num_senders,
        throughput_ratio=result.throughput_ratio,
        fairness_index=result.user_fairness_index,
        bottleneck_utilization=result.bottleneck_utilization,
    )


def grid(
    systems: Sequence[str] = SYSTEMS,
    workloads: Sequence[str] = WORKLOADS,
    scale_steps: Sequence[tuple] = SCALE_STEPS,
    sim_time: float = 240.0,
    warmup: float = 120.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    """The declarative Fig. 9 grid (9a: longrun, 9b: web)."""
    return [
        ScenarioSpec.make(
            "fig9", seed=seed, system=system, workload=workload, scale_label=label,
            num_as=num_as, hosts_per_as=hosts_per_as, bottleneck_bps=bottleneck,
            sim_time=sim_time, warmup=warmup,
        )
        for workload in workloads
        for label, num_as, hosts_per_as, bottleneck in scale_steps
        for system in systems
    ]


def format_table(rows: List[Fig9Row]) -> str:
    lines = ["Fig. 9 — throughput ratio (legitimate user / attacker) under colluding attacks"]
    for workload in sorted({r.workload for r in rows}):
        subset = [r for r in rows if r.workload == workload]
        scales = sorted({r.scale_label for r in subset},
                        key=lambda label: [r.num_senders for r in subset
                                           if r.scale_label == label][0])
        lines.append(f"\n({'a' if workload == 'longrun' else 'b'}) workload = {workload}")
        lines.append(f"{'system':10s}" + "".join(f"{s:>10s}" for s in scales))
        for system in sorted({r.system for r in subset}):
            cells = []
            for scale in scales:
                match = [r for r in subset if r.system == system and r.scale_label == scale]
                cells.append(f"{match[0].throughput_ratio:10.2f}" if match else f"{'-':>10s}")
            lines.append(f"{system:10s}" + "".join(cells))
    return "\n".join(lines)
