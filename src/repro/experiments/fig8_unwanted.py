"""Fig. 8 — unwanted traffic flooding attacks.

Attackers flood the victim directly; the victim can identify the attack
traffic and uses each system's own mechanism to suppress it (feedback
withholding in NetFence, capability denial in TVA+, filters in StopIt,
nothing in FQ).  Legitimate users repeatedly transfer a 20 KB file to the
victim; the metric is the average transfer completion time (and the
completion ratio, which is 100 % for all protected systems).

The paper's most-effective attack is the request-packet flood for NetFence
and TVA+, and a plain regular-packet flood for StopIt (filtered near the
source) and FQ (no defense).

The paper sweeps 25 K–200 K senders over a 10 Gbps bottleneck by shrinking
the bottleneck; we shrink both, keeping the per-sender fair share in the
same 50–400 Kbps range.  ``SCALE_STEPS`` lists the (label, #senders,
bottleneck) points reported, mirroring the paper's x-axis labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.scenarios import (
    DumbbellScenarioConfig,
    DumbbellScenarioResult,
    run_dumbbell_scenario,
)
from repro.experiments.sweep import ScenarioSpec, register_point

#: (paper x-axis label, number of source ASes, hosts per AS, bottleneck bps).
#: The per-sender fair share halves from step to step exactly as in the
#: paper's 25K -> 200K sweep (400 Kbps down to 50 Kbps).
SCALE_STEPS: Sequence[tuple] = (
    ("25K", 5, 2, 4.0e6),
    ("50K", 5, 4, 4.0e6),
    ("100K", 10, 4, 4.0e6),
    ("200K", 10, 8, 4.0e6),
)

SYSTEMS = ("fq", "netfence", "tva", "stopit")


@dataclass
class Fig8Row:
    """One point of Fig. 8: a (system, scale) pair."""

    system: str
    scale_label: str
    num_senders: int
    fair_share_bps: float
    avg_transfer_time_s: float
    completion_ratio: float

    def as_tuple(self) -> tuple:
        return (self.system, self.scale_label, self.num_senders,
                round(self.avg_transfer_time_s, 3), round(self.completion_ratio, 3))


def _config_for(system: str, label: str, num_as: int, hosts_per_as: int,
                bottleneck_bps: float, sim_time: float, seed: int) -> DumbbellScenarioConfig:
    attack_type = "request" if system in ("netfence", "tva") else "regular"
    return DumbbellScenarioConfig(
        system=system,
        num_source_as=num_as,
        hosts_per_as=hosts_per_as,
        legit_per_as=1,
        bottleneck_bps=bottleneck_bps,
        workload="files",
        file_bytes=20_000,
        attack_type=attack_type,
        attack_rate_bps=400e3,
        victim_blocks_attackers=True,
        num_colluders=0,
        sim_time=sim_time,
        warmup=0.0,
        seed=seed,
    )


@register_point("fig8")
def run_point(
    system: str,
    scale_label: str,
    num_as: int,
    hosts_per_as: int,
    bottleneck_bps: float,
    sim_time: float = 60.0,
    seed: int = 1,
) -> Fig8Row:
    """Run one (system, scale) point of the Fig. 8 sweep."""
    config = _config_for(system, scale_label, num_as, hosts_per_as, bottleneck_bps,
                         sim_time, seed)
    result = run_dumbbell_scenario(config)
    return Fig8Row(
        system=system,
        scale_label=scale_label,
        num_senders=config.num_senders,
        fair_share_bps=config.fair_share_bps,
        avg_transfer_time_s=result.average_transfer_time,
        completion_ratio=result.completion_ratio,
    )


def grid(
    systems: Sequence[str] = SYSTEMS,
    scale_steps: Sequence[tuple] = SCALE_STEPS,
    sim_time: float = 60.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    """The declarative Fig. 8 grid: one spec per (scale, system) point."""
    return [
        ScenarioSpec.make(
            "fig8", seed=seed, system=system, scale_label=label, num_as=num_as,
            hosts_per_as=hosts_per_as, bottleneck_bps=bottleneck, sim_time=sim_time,
        )
        for label, num_as, hosts_per_as, bottleneck in scale_steps
        for system in systems
    ]


def format_table(rows: List[Fig8Row]) -> str:
    lines = ["Fig. 8 — average 20 KB transfer time (s) under unwanted-traffic floods"]
    scales = sorted({row.scale_label for row in rows},
                    key=lambda label: [r.num_senders for r in rows if r.scale_label == label][0])
    systems = sorted({row.system for row in rows})
    header = f"{'system':10s}" + "".join(f"{scale:>10s}" for scale in scales)
    lines.append(header)
    for system in systems:
        cells = []
        for scale in scales:
            match = [r for r in rows if r.system == system and r.scale_label == scale]
            cells.append(f"{match[0].avg_transfer_time_s:10.2f}" if match else f"{'-':>10s}")
        lines.append(f"{system:10s}" + "".join(cells))
    completion = min(row.completion_ratio for row in rows) if rows else 0.0
    lines.append(f"minimum completion ratio across all runs: {completion:.2f}")
    return "\n".join(lines)
