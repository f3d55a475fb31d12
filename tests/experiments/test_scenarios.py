"""Fast smoke tests of the scenario builders and experiment modules.

These use deliberately tiny topologies and short simulated times so the whole
file runs in well under a minute; the full-scale sweeps live in benchmarks/.
"""

import math

import pytest

from repro.experiments import fig7_overhead, theorem_fairshare
from repro.experiments.scenarios import (
    DumbbellScenarioConfig,
    ParkingLotScenarioConfig,
    run_dumbbell_scenario,
    run_parking_lot_scenario,
)
from repro.experiments.sweep import merge_rows, run_sweep


def tiny_dumbbell(system, **overrides):
    defaults = dict(
        system=system,
        num_source_as=2,
        hosts_per_as=2,
        bottleneck_bps=400e3,
        attack_rate_bps=200e3,
        num_colluders=2,
        sim_time=40.0,
        warmup=20.0,
        seed=1,
    )
    defaults.update(overrides)
    return DumbbellScenarioConfig(**defaults)


def test_invalid_config_values_rejected():
    with pytest.raises(ValueError):
        DumbbellScenarioConfig(system="nonsense")
    with pytest.raises(ValueError):
        DumbbellScenarioConfig(workload="nonsense")
    with pytest.raises(ValueError):
        DumbbellScenarioConfig(attack_type="nonsense")


def test_config_derived_quantities():
    config = DumbbellScenarioConfig(num_source_as=4, hosts_per_as=5,
                                    bottleneck_bps=2e6)
    assert config.num_senders == 20
    assert config.fair_share_bps == pytest.approx(1e5)
    assert config.legit_count_per_as == 1  # 25 % of 5, rounded


def test_netfence_colluding_scenario_produces_sane_metrics():
    result = run_dumbbell_scenario(tiny_dumbbell("netfence"))
    assert result.user_throughputs and result.attacker_throughputs
    assert 0.0 < result.bottleneck_utilization <= 1.0
    assert result.avg_attacker_throughput_bps < 300e3  # policed well below offered
    assert result.avg_user_throughput_bps > 0


def test_fq_colluding_scenario_runs():
    result = run_dumbbell_scenario(tiny_dumbbell("fq"))
    assert result.throughput_ratio > 0.3


def test_stopit_unwanted_scenario_blocks_attackers():
    # Measure after the victim's filters have propagated (install at ~1 s).
    config = tiny_dumbbell("stopit", victim_blocks_attackers=True, num_colluders=0,
                           workload="files", sim_time=30.0, warmup=5.0)
    result = run_dumbbell_scenario(config)
    assert result.avg_attacker_throughput_bps == 0.0
    assert result.completion_ratio > 0.9


def test_tva_unwanted_scenario_request_flood():
    config = tiny_dumbbell("tva", victim_blocks_attackers=True, num_colluders=0,
                           workload="files", attack_type="request",
                           sim_time=30.0, warmup=0.0)
    result = run_dumbbell_scenario(config)
    assert result.completion_ratio > 0.9
    assert not math.isnan(result.average_transfer_time)


def test_netfence_files_workload_records_transfers():
    config = tiny_dumbbell("netfence", workload="files", victim_blocks_attackers=True,
                           attack_type="request", num_colluders=0,
                           sim_time=30.0, warmup=0.0)
    result = run_dumbbell_scenario(config)
    assert sum(log.attempted for log in result.transfer_logs.values()) > 0
    assert result.completion_ratio > 0.9


def test_parking_lot_scenario_runs_all_policies():
    for policy in ("single", "multi", "inference"):
        config = ParkingLotScenarioConfig(
            hosts_per_group=3, l1_bps=400e3, l2_bps=600e3,
            attack_rate_bps=200e3, sim_time=30.0, warmup=15.0,
            netfence_policy=policy,
        )
        result = run_parking_lot_scenario(config)
        assert set(result.group_user_throughputs) == {"A", "B", "C"}
        assert result.avg_attacker("A") >= 0.0


def test_fig7_overhead_rows_cover_all_combinations():
    rows = merge_rows(run_sweep(fig7_overhead.grid(iterations=50), strict=True))
    assert len(rows) == 12
    assert all(row.ns_per_packet > 0 for row in rows)
    table = fig7_overhead.format_table(rows)
    assert "netfence" in table and "tva+" in table


def test_theorem_fluid_bound_satisfied():
    rows = theorem_fairshare.run_fluid(intervals=150, num_legitimate=5, num_malicious=15,
                                       capacity_bps=2e6)
    assert all(row.satisfied for row in rows)
    assert {row.attack_strategy for row in rows} == {"always-on", "on-off", "slow-ramp"}
