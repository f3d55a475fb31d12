"""Fig. 14 — Appendix B.2 (rate-limiter inference) narrows, but does not
close, the Fig. 10 gap."""

from repro.experiments import fig10_parkinglot, fig14_inference


def test_fig14_inference_improves_hurt_case(run_grid):
    rows = run_grid(fig14_inference.grid(
        hosts_per_group=8,
        sim_time=150.0,
        warmup=75.0,
    ))
    print("\n" + fig10_parkinglot.format_table(rows, figure="Fig. 14 (inference)"))
    by_case = {row.case_label: row for row in rows}
    hurt = by_case["160M-240M"]
    fair = rows[0].fair_share_kbps
    # Inference keeps user and attacker throughput in the same ballpark (the
    # rate limit no longer flip-flops), even if both may sit below fair share.
    assert hurt.group_a_user_kbps > 0.0
    assert hurt.group_a_attacker_kbps > 0.0
    ratio = hurt.group_a_user_kbps / max(hurt.group_a_attacker_kbps, 1e-9)
    assert ratio > 0.3
    assert hurt.group_a_attacker_kbps < 1.5 * fair
