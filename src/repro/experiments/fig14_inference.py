"""Fig. 14 — Appendix B.2: inferring on-path rate limiters.

Identical workload and topology to Fig. 10, but the access router keeps a
per-destination cache of previously seen bottleneck links and polices each
packet through all of them, inferring the state of the links whose feedback
the packet does not carry (``hasIncr*`` / ``isActive*``).  The paper shows
this narrows the user/attacker gap of Fig. 10's ``C_L1 < C_L2`` case, but
Group-A senders can still end up below their fair share — the single
feedback in the packet simply cannot carry enough information (the
fundamental limitation discussed at the end of Appendix B.2).
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
        policy="inference",
        capacity_cases=capacity_cases,
        hosts_per_group=hosts_per_group,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
    )
