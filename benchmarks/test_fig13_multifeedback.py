"""Fig. 13 — Appendix B.1 (multi-bottleneck feedback) restores Group-A fairness."""

from repro.experiments import fig10_parkinglot, fig13_multifeedback


def test_fig13_multifeedback_restores_fair_share(run_grid):
    rows = run_grid(fig13_multifeedback.grid(
        hosts_per_group=8,
        sim_time=150.0,
        warmup=75.0,
    ))
    print("\n" + fig10_parkinglot.format_table(rows, figure="Fig. 13 (multi-feedback)"))
    fair = rows[0].fair_share_kbps
    by_case = {row.case_label: row for row in rows}
    # With per-packet feedback from every bottleneck, even the L1 < L2 case
    # keeps Group-A senders near their fair share.
    hurt = by_case["160M-240M"]
    assert hurt.group_a_user_kbps > 0.4 * fair
    assert hurt.group_a_attacker_kbps > 0.6 * fair
