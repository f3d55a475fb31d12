"""Fig. 11 — microscopic on-off attacks cannot depress a user's share.

Expected shape: the average user throughput never falls below the fair share
computed as if the attackers were always on, and it rises as the attackers'
off-period grows.
"""

from repro.experiments import fig11_onoff


def test_fig11_onoff_attack_guarantee(run_grid):
    rows = run_grid(fig11_onoff.grid(
        ton_values=(0.5, 4.0),
        toff_values=(1.5, 10.0),
        num_source_as=4,
        hosts_per_as=3,
        bottleneck_bps=1.2e6,
        sim_time=150.0,
        warmup=60.0,
    ))
    print("\n" + fig11_onoff.format_table(rows))
    fair = rows[0].always_on_fair_share_kbps
    for row in rows:
        # The guarantee of §5.2.1: burst shape cannot push a user below the
        # always-on fair share (allowing the usual TCP efficiency factor).
        assert row.avg_user_throughput_kbps > 0.5 * fair
    # Longer off-periods leave more capacity to the users.
    short_off = [r for r in rows if r.toff_s == 1.5]
    long_off = [r for r in rows if r.toff_s == 10.0]
    avg_short = sum(r.avg_user_throughput_kbps for r in short_off) / len(short_off)
    avg_long = sum(r.avg_user_throughput_kbps for r in long_off) / len(long_off)
    assert avg_long > avg_short
