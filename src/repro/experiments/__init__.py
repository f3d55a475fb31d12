"""Experiment harness: one module per table / figure of the paper's evaluation.

* :mod:`repro.experiments.scenarios` — shared scenario builders (dumbbell and
  parking-lot attack scenarios for NetFence, TVA+, StopIt, and FQ).
* :mod:`repro.experiments.fig7_overhead` — per-packet processing overhead
  micro-benchmark (Fig. 7).
* :mod:`repro.experiments.fig8_unwanted` — unwanted-traffic flooding attacks
  (Fig. 8).
* :mod:`repro.experiments.fig9_colluding` — colluding regular-traffic floods,
  long-running TCP and web-like workloads (Fig. 9).
* :mod:`repro.experiments.fig10_parkinglot` — multiple bottlenecks (Fig. 10).
* :mod:`repro.experiments.fig11_onoff` — microscopic on-off attacks (Fig. 11).
* :mod:`repro.experiments.fig12_deployment` — §5 partial deployment ×
  strategic attackers (deployment-fraction sweep).
* :mod:`repro.experiments.fig13_multifeedback` — Appendix B.1 multi-bottleneck
  feedback (Fig. 13).
* :mod:`repro.experiments.fig14_inference` — Appendix B.2 rate-limiter
  inference (Fig. 14).
* :mod:`repro.experiments.sweep` — the parallel sweep engine: declarative
  ``ScenarioSpec`` grids and multiprocessing execution, with finished points
  kept in the one result cache, the queryable SQLite
  :class:`~repro.store.ResultStore`.
* :mod:`repro.experiments.runner` — CLI entry point and the one way to run a
  figure: ``runner <name>`` runs that experiment's grid (``--jobs``,
  ``--points``, ``--json``, ``--store``) and prints the paper-style table.
"""

from repro.experiments.scenarios import (
    ASGraphScenarioConfig,
    ASGraphScenarioResult,
    DumbbellScenarioConfig,
    DumbbellScenarioResult,
    ParkingLotScenarioConfig,
    ParkingLotScenarioResult,
    run_asgraph_scenario,
    run_dumbbell_scenario,
    run_parking_lot_scenario,
)
from repro.experiments.sweep import (
    ScenarioSpec,
    SweepResult,
    derive_seed,
    merge_rows,
    register_point,
    run_sweep,
)

__all__ = [
    "ASGraphScenarioConfig",
    "ASGraphScenarioResult",
    "DumbbellScenarioConfig",
    "DumbbellScenarioResult",
    "ParkingLotScenarioConfig",
    "ParkingLotScenarioResult",
    "run_asgraph_scenario",
    "run_dumbbell_scenario",
    "run_parking_lot_scenario",
    "ScenarioSpec",
    "SweepResult",
    "derive_seed",
    "merge_rows",
    "register_point",
    "run_sweep",
]
