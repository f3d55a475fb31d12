"""Fig. 10 — Group-A throughput across two bottlenecks (core design).

Expected shape: Group-A senders obtain roughly the 80 Kbps fair share when
``C_L1 >= C_L2`` but fall well below it (with TCP users below UDP attackers)
when ``C_L1 < C_L2`` — the single-rate-limiter limitation of §4.3.5.
"""

from repro.experiments import fig10_parkinglot


def test_fig10_group_a_throughput(run_grid):
    rows = run_grid(fig10_parkinglot.grid(
        policy="single",
        hosts_per_group=8,
        sim_time=150.0,
        warmup=75.0,
    ))
    print("\n" + fig10_parkinglot.format_table(rows))
    by_case = {row.case_label: row for row in rows}
    fair = rows[0].fair_share_kbps
    # The L1 < L2 case hurts Group A under the core (single-limiter) design.
    hurt = by_case["160M-240M"]
    assert hurt.group_a_user_kbps < 0.8 * fair
    # In the balanced case Group A is at least in the neighbourhood of fair.
    balanced = by_case["160M-160M"]
    assert balanced.group_a_attacker_kbps > 0.5 * fair
    assert balanced.group_a_user_kbps >= hurt.group_a_user_kbps * 0.9
