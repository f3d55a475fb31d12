"""Fig. 11 — microscopic on-off (shrew-style) attacks.

All legitimate users run long-running TCP; attackers send synchronized
on-off UDP bursts (on-period ``Ton`` at full rate, silent for ``Toff``).
The paper's claim: the *shape* of the attack traffic cannot reduce a
legitimate user's guaranteed share — the average user throughput is at least
the fair share computed as if the attackers were always on, and it grows
toward the full per-user share of the bottleneck as ``Toff`` grows (the
attackers leave capacity idle).

The paper uses 100 K senders with a 100 Kbps always-on fair share and
``Ton ∈ {0.5 s, 4 s}``, ``Toff`` from 1.5 s to 100 s.  We keep the 100 Kbps
always-on fair share with a scaled-down sender count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.scenarios import (
    DumbbellScenarioConfig,
    run_dumbbell_scenario,
)
from repro.experiments.sweep import ScenarioSpec, register_point

TON_VALUES: Sequence[float] = (0.5, 4.0)
TOFF_VALUES: Sequence[float] = (1.5, 10.0, 50.0, 100.0)


@dataclass
class Fig11Row:
    """One point of Fig. 11."""

    ton_s: float
    toff_s: float
    avg_user_throughput_kbps: float
    always_on_fair_share_kbps: float

    def as_tuple(self) -> tuple:
        return (self.ton_s, self.toff_s,
                round(self.avg_user_throughput_kbps, 1),
                round(self.always_on_fair_share_kbps, 1))


@register_point("fig11")
def run_point(
    ton_s: float,
    toff_s: float,
    num_source_as: int = 4,
    hosts_per_as: int = 3,
    bottleneck_bps: float = 1.2e6,
    sim_time: float = 300.0,
    warmup: float = 100.0,
    seed: int = 1,
) -> Fig11Row:
    """Run one (Ton, Toff) point of the on-off attack sweep."""
    fair_share = bottleneck_bps / (num_source_as * hosts_per_as)
    config = DumbbellScenarioConfig(
        system="netfence",
        num_source_as=num_source_as,
        hosts_per_as=hosts_per_as,
        bottleneck_bps=bottleneck_bps,
        workload="longrun",
        attack_type="regular",
        attack_rate_bps=1.0e6,
        attack_on_off=(ton_s, toff_s),
        victim_blocks_attackers=False,
        num_colluders=9,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
    )
    result = run_dumbbell_scenario(config)
    return Fig11Row(
        ton_s=ton_s,
        toff_s=toff_s,
        avg_user_throughput_kbps=result.avg_user_throughput_bps / 1e3,
        always_on_fair_share_kbps=fair_share / 1e3,
    )


def grid(
    ton_values: Sequence[float] = TON_VALUES,
    toff_values: Sequence[float] = TOFF_VALUES,
    num_source_as: int = 4,
    hosts_per_as: int = 3,
    bottleneck_bps: float = 1.2e6,
    sim_time: float = 300.0,
    warmup: float = 100.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    """The declarative Fig. 11 grid: one spec per (Ton, Toff) point."""
    return [
        ScenarioSpec.make(
            "fig11", seed=seed, ton_s=ton, toff_s=toff, num_source_as=num_source_as,
            hosts_per_as=hosts_per_as, bottleneck_bps=bottleneck_bps,
            sim_time=sim_time, warmup=warmup,
        )
        for ton in ton_values
        for toff in toff_values
    ]


def format_table(rows: List[Fig11Row]) -> str:
    lines = ["Fig. 11 — average user throughput (Kbps) under synchronized on-off attacks"]
    toffs = sorted({row.toff_s for row in rows})
    corner = "Ton / Toff"
    lines.append(f"{corner:>12s}" + "".join(f"{toff:>10.1f}" for toff in toffs))
    for ton in sorted({row.ton_s for row in rows}):
        cells = []
        for toff in toffs:
            match = [r for r in rows if r.ton_s == ton and r.toff_s == toff]
            cells.append(f"{match[0].avg_user_throughput_kbps:10.1f}" if match else f"{'-':>10s}")
        lines.append(f"{ton:12.1f}" + "".join(cells))
    if rows:
        lines.append(f"always-on fair share: {rows[0].always_on_fair_share_kbps:.1f} Kbps")
    return "\n".join(lines)
