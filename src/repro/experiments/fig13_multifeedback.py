"""Fig. 13 — Appendix B.1: multi-bottleneck feedback in one packet.

Identical workload and topology to Fig. 10, but each packet carries the
congestion policing feedback of *every* on-path bottleneck (the chained
token of Eqs. 4–5) and the access router polices the packet through all the
corresponding rate limiters.  The paper shows Group-A senders then obtain
roughly their fair share in all three capacity cases, including the
``C_L1 < C_L2`` case that hurts the core design.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.fig10_parkinglot import CAPACITY_CASES, grid as grid_parkinglot
from repro.experiments.sweep import ScenarioSpec


def grid(
    capacity_cases: Sequence[tuple] = CAPACITY_CASES,
    hosts_per_group: int = 10,
    sim_time: float = 200.0,
    warmup: float = 100.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    return grid_parkinglot(
        policy="multi",
        capacity_cases=capacity_cases,
        hosts_per_group=hosts_per_group,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
    )
