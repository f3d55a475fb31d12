"""Fig. 8 — 20 KB transfer time under unwanted-traffic floods.

Expected shape: StopIt < TVA+ < NetFence (≈ TVA+ + ~1 s), all flat as the
sender count grows; FQ grows with the sender count; 100 % completion for all
systems.  The benchmark runs a reduced two-point sweep; the full four-point
sweep is available via ``netfence-experiment fig8``.
"""

import pytest

from repro.experiments import fig8_unwanted

#: Reduced sweep for the benchmark run (label, #ASes, hosts/AS, bottleneck bps).
BENCH_STEPS = (
    ("25K", 5, 2, 4.0e6),
    ("50K", 5, 4, 4.0e6),
)

_results = {}


@pytest.mark.parametrize("system", fig8_unwanted.SYSTEMS)
def test_fig8_transfer_time(run_grid, system):
    rows = run_grid(fig8_unwanted.grid(
        systems=(system,),
        scale_steps=BENCH_STEPS,
        sim_time=40.0,
    ))
    _results[system] = rows
    for row in rows:
        print(f"\nFig. 8 [{row.system} @ {row.scale_label}] "
              f"avg transfer {row.avg_transfer_time_s:.2f}s "
              f"completion {row.completion_ratio:.2f}")
        assert row.completion_ratio > 0.9
    # All protected systems finish the 20 KB file in a bounded time.
    if system != "fq":
        assert all(row.avg_transfer_time_s < 10.0 for row in rows)


def test_fig8_shape_summary():
    """Cross-system shape check over whatever the parametrized runs produced."""
    if len(_results) < len(fig8_unwanted.SYSTEMS):
        pytest.skip("needs the per-system benchmarks in the same session")
    mean = {system: sum(r.avg_transfer_time_s for r in rows) / len(rows)
            for system, rows in _results.items()}
    print("\nFig. 8 summary (avg transfer time, s):",
          {k: round(v, 2) for k, v in mean.items()})
    assert mean["stopit"] <= mean["tva"] * 1.5
    assert mean["netfence"] >= mean["tva"]          # the +1 s request back-off
    assert mean["fq"] >= mean["stopit"]             # FQ never removes the attack
