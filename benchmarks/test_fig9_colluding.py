"""Fig. 9 — throughput ratio under colluding attacks.

Expected shape: NetFence / FQ / StopIt near 1; TVA+ far below (per-destination
fair queuing vs. nine colluders); NetFence utilization a bit above 90 % while
the others sit at ~100 %.  Fig. 9a uses long-running TCP, Fig. 9b the
web-like workload.
"""

import pytest

from repro.experiments import fig9_colluding

#: One scale point for the benchmark (the full sweep is in the runner).
BENCH_STEPS = (("100K", 10, 4, 4.0e6),)

_rows = {}


@pytest.mark.parametrize("system", fig9_colluding.SYSTEMS)
def test_fig9a_longrun_ratio(run_grid, system):
    rows = run_grid(fig9_colluding.grid(
        systems=(system,),
        workloads=("longrun",),
        scale_steps=BENCH_STEPS,
        sim_time=150.0,
        warmup=75.0,
    ))
    row = rows[0]
    _rows[("longrun", system)] = row
    print(f"\nFig. 9a [{system}] ratio={row.throughput_ratio:.2f} "
          f"fairness={row.fairness_index:.2f} util={row.bottleneck_utilization:.2f}")
    assert row.fairness_index > 0.8
    if system == "netfence":
        assert row.throughput_ratio > 0.5
        assert row.bottleneck_utilization > 0.85
    if system == "tva":
        assert row.throughput_ratio < 0.6


@pytest.mark.parametrize("system", ("netfence", "tva"))
def test_fig9b_weblike_ratio(run_grid, system):
    rows = run_grid(fig9_colluding.grid(
        systems=(system,),
        workloads=("web",),
        scale_steps=BENCH_STEPS,
        sim_time=150.0,
        warmup=75.0,
    ))
    row = rows[0]
    print(f"\nFig. 9b [{system}] ratio={row.throughput_ratio:.2f} "
          f"fairness={row.fairness_index:.2f}")
    assert row.throughput_ratio > 0.0


def test_fig9_shape_summary():
    needed = [("longrun", s) for s in fig9_colluding.SYSTEMS]
    if not all(key in _rows for key in needed):
        pytest.skip("needs the per-system benchmarks in the same session")
    ratios = {system: _rows[("longrun", system)].throughput_ratio
              for system in fig9_colluding.SYSTEMS}
    print("\nFig. 9a summary (throughput ratio):",
          {k: round(v, 2) for k, v in ratios.items()})
    # TVA+ is the clear loser; the fairness-based systems are all much better.
    assert ratios["tva"] < ratios["netfence"]
    assert ratios["tva"] < ratios["fq"]
    assert ratios["tva"] < ratios["stopit"]
