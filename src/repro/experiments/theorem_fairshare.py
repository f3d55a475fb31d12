"""Theorem (§3.4 / Appendix A) — the guaranteed fair-share lower bound.

NetFence guarantees any legitimate sender with sufficient demand at least
``ν·ρ·C/(G+B)`` of a bottleneck of capacity ``C`` shared by ``G`` legitimate
and ``B`` malicious senders, where ``ρ = (1-δ)³``.

This experiment checks the bound two ways:

1. with the Appendix-A fluid model (:class:`repro.analysis.AimdFluidModel`),
   pitting always-on legitimate senders against several attack strategies
   (always-on, on-off, slow-start);
2. with the packet-level simulator, reusing the Fig. 9a colluding-attack
   scenario and comparing each user's measured throughput against the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.convergence import AimdFluidModel, FluidSender, fair_share_lower_bound
from repro.experiments.scenarios import DumbbellScenarioConfig, run_dumbbell_scenario
from repro.experiments.sweep import ScenarioSpec, register_point


@dataclass
class TheoremRow:
    """One strategy's outcome vs. the theoretical bound."""

    model: str             # "fluid" | "packet"
    attack_strategy: str
    num_legitimate: int
    num_malicious: int
    capacity_bps: float
    bound_bps: float
    min_user_rate_bps: float
    satisfied: bool

    def as_tuple(self) -> tuple:
        return (self.model, self.attack_strategy, self.num_legitimate,
                self.num_malicious, round(self.bound_bps), round(self.min_user_rate_bps),
                self.satisfied)


def _fluid_case(strategy: str, capacity_bps: float, num_legit: int, num_bad: int,
                intervals: int) -> TheoremRow:
    def attacker_demand(strategy: str):
        if strategy == "always-on":
            return None
        if strategy == "on-off":
            return lambda i: capacity_bps if (i // 5) % 2 == 0 else 0.0
        if strategy == "slow-ramp":
            return lambda i: 1_000.0 * i
        raise ValueError(strategy)

    senders: List[FluidSender] = []
    for g in range(num_legit):
        senders.append(FluidSender(name=f"user{g}", is_legitimate=True))
    for b in range(num_bad):
        senders.append(
            FluidSender(name=f"attacker{b}", is_legitimate=False,
                        demand_fn=attacker_demand(strategy))
        )
    model = AimdFluidModel(capacity_bps, senders)
    model.run(intervals)
    # Measure over the second half (steady state), using the user's sending
    # rate which equals min(demand, rate limit) = rate limit for ν = 1.
    bound = fair_share_lower_bound(capacity_bps, num_legit, num_bad, delta=0.1, nu=1.0)
    window = intervals // 2
    min_user = min(model.average_rate(s, last_intervals=window)
                   for s in model.legitimate_senders())
    return TheoremRow(
        model="fluid",
        attack_strategy=strategy,
        num_legitimate=num_legit,
        num_malicious=num_bad,
        capacity_bps=capacity_bps,
        bound_bps=bound,
        min_user_rate_bps=min_user,
        satisfied=min_user >= bound * 0.999,
    )


@register_point("theorem_fluid")
def run_fluid_point(
    strategy: str,
    capacity_bps: float = 10e6,
    num_legitimate: int = 25,
    num_malicious: int = 75,
    intervals: int = 400,
    seed: int = 1,
) -> TheoremRow:
    """One fluid-model check; the model is deterministic so ``seed`` is unused."""
    return _fluid_case(strategy, capacity_bps, num_legitimate, num_malicious, intervals)


def run_fluid(
    capacity_bps: float = 10e6,
    num_legitimate: int = 25,
    num_malicious: int = 75,
    intervals: int = 400,
    strategies: Sequence[str] = ("always-on", "on-off", "slow-ramp"),
) -> List[TheoremRow]:
    """Check the bound in the Appendix-A fluid model for several strategies."""
    return [_fluid_case(strategy, capacity_bps, num_legitimate, num_malicious, intervals)
            for strategy in strategies]


def run_packet(
    bottleneck_bps: float = 1.2e6,
    num_source_as: int = 3,
    hosts_per_as: int = 4,
    sim_time: float = 300.0,
    warmup: float = 150.0,
    seed: int = 1,
) -> TheoremRow:
    """Check the bound in the packet-level simulator (Fig. 9a setup).

    The packet-level check uses the paper's TCP efficiency factor ν: TCP
    senders do not perfectly fill their rate limits, so the bound is scaled
    by a conservative ν = 0.5.
    """
    config = DumbbellScenarioConfig(
        system="netfence",
        num_source_as=num_source_as,
        hosts_per_as=hosts_per_as,
        bottleneck_bps=bottleneck_bps,
        workload="longrun",
        attack_type="regular",
        attack_rate_bps=1.0e6,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
    )
    result = run_dumbbell_scenario(config)
    num_users = len(result.user_throughputs)
    num_attackers = len(result.attacker_throughputs)
    bound = fair_share_lower_bound(bottleneck_bps, num_users, num_attackers,
                                   delta=0.1, nu=0.5)
    min_user = min(result.user_throughputs.values()) if result.user_throughputs else 0.0
    return TheoremRow(
        model="packet",
        attack_strategy="colluding-flood",
        num_legitimate=num_users,
        num_malicious=num_attackers,
        capacity_bps=bottleneck_bps,
        bound_bps=bound,
        min_user_rate_bps=min_user,
        satisfied=min_user >= bound,
    )


#: Registered under a distinct name so the grid can mix fluid and packet points.
run_packet_point = register_point("theorem_packet")(run_packet)


def grid(
    strategies: Sequence[str] = ("always-on", "on-off", "slow-ramp"),
    intervals: int = 400,
    sim_time: float = 300.0,
    warmup: float = 150.0,
    seed: int = 1,
) -> List[ScenarioSpec]:
    """The theorem grid: one fluid spec per strategy plus the packet check."""
    specs = [
        ScenarioSpec.make("theorem_fluid", seed=seed, strategy=strategy,
                          intervals=intervals)
        for strategy in strategies
    ]
    specs.append(ScenarioSpec.make("theorem_packet", seed=seed,
                                   sim_time=sim_time, warmup=warmup))
    return specs


def format_table(rows: List[TheoremRow]) -> str:
    lines = ["Theorem §3.4 — guaranteed fair share ν·ρ·C/(G+B)"]
    lines.append(f"{'model':8s} {'strategy':16s} {'G':>4s} {'B':>4s} "
                 f"{'bound (Kbps)':>14s} {'min user (Kbps)':>16s} {'ok':>4s}")
    for row in rows:
        lines.append(
            f"{row.model:8s} {row.attack_strategy:16s} {row.num_legitimate:4d} "
            f"{row.num_malicious:4d} {row.bound_bps / 1e3:14.1f} "
            f"{row.min_user_rate_bps / 1e3:16.1f} {'yes' if row.satisfied else 'NO':>4s}"
        )
    return "\n".join(lines)
