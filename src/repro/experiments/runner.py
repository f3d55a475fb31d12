"""Command-line entry point: run any paper experiment and print its table.

Usage::

    netfence-experiment list
    netfence-experiment fig7
    netfence-experiment fig8 [--quick] [--jobs N] [--points N] [--json]
    netfence-experiment all [--quick] [--jobs N]

Every experiment is a declarative grid of :class:`ScenarioSpec` points
executed by :mod:`repro.experiments.sweep`:

* ``--quick`` shrinks sweeps (fewer scale points, shorter simulated time) so
  a full pass completes in a few minutes on a laptop; the default settings
  match the values recorded in EXPERIMENTS.md.
* ``--jobs N`` runs grid points across N worker processes.  Row order (and
  the formatted table) is byte-identical to a serial run.
* ``--points N`` keeps only the first N grid points — handy for smoke tests.
* ``--json`` emits result rows as JSON instead of the paper-style table.
* ``--store PATH`` keeps finished points in the SQLite
  :class:`~repro.store.ResultStore`, the one result cache: a re-run serves
  them from it, and ``export``/``status`` query it.

Distributed execution (see :mod:`repro.experiments.distrib`)::

    netfence-experiment submit fig12 --quick --queue QDIR
    netfence-experiment worker --queue QDIR --store results.sqlite   # xN
    netfence-experiment status --queue QDIR --store results.sqlite
    netfence-experiment export fig12 --quick --store results.sqlite
    netfence-experiment compact --store results.sqlite

Hot-path profiling (see :mod:`repro.perf`)::

    netfence-experiment profile fig12 --quick [--point N] [--top N] [--json]

Static analysis (see :mod:`repro.lint`)::

    netfence-experiment lint [--strict] [--json] [--select/--ignore CODES] [paths...]

Telemetry (see :mod:`repro.obs` and :mod:`repro.runtime.dashboard`)::

    netfence-experiment trace fig12 --quick [--point N] [--follow WHO] [--json]
    netfence-experiment dashboard --store results.sqlite [--queue QDIR] [--serve-log LOG]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.analysis.rows import json_safe, rows_to_dicts
from repro.experiments import (
    fig6_scaling,
    fig7_overhead,
    fig8_unwanted,
    fig9_colluding,
    fig10_parkinglot,
    fig11_onoff,
    fig12_deployment,
    fig13_multifeedback,
    fig14_inference,
    theorem_fairshare,
)
from repro.experiments.sweep import ScenarioSpec, merge_rows, run_sweep


@dataclass(frozen=True)
class ExperimentDef:
    """One runnable experiment: a grid builder plus a table formatter."""

    name: str
    build_grid: Callable[[bool], List[ScenarioSpec]]
    format_rows: Callable[[List[Any]], str]


def _fig6_scaling_grid(quick: bool) -> List[ScenarioSpec]:
    if quick:
        return fig6_scaling.grid(
            topology_sizes=(12, 20, 32),
            botnet_sizes=(10_000, 1_000_000),
            placements=("uniform", "stub_concentrated"),
            size_ref=20,
            sim_time=40.0,
            warmup=15.0,
        )
    return fig6_scaling.grid()


def _fig7_grid(quick: bool) -> List[ScenarioSpec]:
    return fig7_overhead.grid(iterations=500 if quick else 2000)


def _fig8_grid(quick: bool) -> List[ScenarioSpec]:
    steps = fig8_unwanted.SCALE_STEPS[:2] if quick else fig8_unwanted.SCALE_STEPS
    return fig8_unwanted.grid(scale_steps=steps, sim_time=40.0 if quick else 60.0)


def _fig9_grid(quick: bool) -> List[ScenarioSpec]:
    steps = fig9_colluding.SCALE_STEPS[:2] if quick else fig9_colluding.SCALE_STEPS
    return fig9_colluding.grid(
        scale_steps=steps,
        sim_time=150.0 if quick else 240.0,
        warmup=75.0 if quick else 120.0,
    )


def _fig10_grid(quick: bool) -> List[ScenarioSpec]:
    return fig10_parkinglot.grid(
        policy="single",
        sim_time=120.0 if quick else 200.0,
        warmup=60.0 if quick else 100.0,
    )


def _fig11_grid(quick: bool) -> List[ScenarioSpec]:
    toffs = fig11_onoff.TOFF_VALUES[:2] if quick else fig11_onoff.TOFF_VALUES
    return fig11_onoff.grid(
        toff_values=toffs,
        sim_time=150.0 if quick else 300.0,
        warmup=60.0 if quick else 100.0,
    )


def _fig12_grid(quick: bool) -> List[ScenarioSpec]:
    return fig12_deployment.grid(
        fractions=(0.0, 0.5, 1.0) if quick else fig12_deployment.FRACTIONS,
        strategies=("constant", "strategic") if quick else fig12_deployment.STRATEGIES,
        sim_time=80.0 if quick else 150.0,
        warmup=30.0 if quick else 50.0,
    )


def _fig13_grid(quick: bool) -> List[ScenarioSpec]:
    return fig13_multifeedback.grid(
        sim_time=120.0 if quick else 200.0,
        warmup=60.0 if quick else 100.0,
    )


def _fig14_grid(quick: bool) -> List[ScenarioSpec]:
    return fig14_inference.grid(
        sim_time=120.0 if quick else 200.0,
        warmup=60.0 if quick else 100.0,
    )


def _theorem_grid(quick: bool) -> List[ScenarioSpec]:
    if quick:
        return theorem_fairshare.grid(intervals=200, sim_time=150.0, warmup=75.0)
    return theorem_fairshare.grid()


EXPERIMENTS: Dict[str, ExperimentDef] = {
    "fig6_scaling": ExperimentDef(
        "fig6_scaling", _fig6_scaling_grid, fig6_scaling.format_table),
    "fig7": ExperimentDef("fig7", _fig7_grid, fig7_overhead.format_table),
    "fig8": ExperimentDef("fig8", _fig8_grid, fig8_unwanted.format_table),
    "fig9": ExperimentDef("fig9", _fig9_grid, fig9_colluding.format_table),
    "fig10": ExperimentDef("fig10", _fig10_grid, fig10_parkinglot.format_table),
    "fig11": ExperimentDef("fig11", _fig11_grid, fig11_onoff.format_table),
    "fig12": ExperimentDef("fig12", _fig12_grid, fig12_deployment.format_table),
    "fig13": ExperimentDef(
        "fig13", _fig13_grid,
        lambda rows: fig10_parkinglot.format_table(
            rows, figure="Fig. 13 (multi-bottleneck feedback)"),
    ),
    "fig14": ExperimentDef(
        "fig14", _fig14_grid,
        lambda rows: fig10_parkinglot.format_table(
            rows, figure="Fig. 14 (rate-limiter inference)"),
    ),
    "theorem": ExperimentDef("theorem", _theorem_grid, theorem_fairshare.format_table),
}

#: Subcommands handled by :mod:`repro.experiments.distrib`.
DISTRIB_COMMANDS = ("submit", "worker", "export", "status", "compact")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in DISTRIB_COMMANDS:
        # Deferred import: the distributed layer pulls in the SQLite store,
        # which plain figure runs do not need.
        from repro.experiments import distrib

        return distrib.cli_main(argv, experiments=EXPERIMENTS)
    if argv and argv[0] == "profile":
        # Deferred import, same reasoning: profiling is not needed by runs.
        from repro import perf

        return perf.cli_main(argv[1:], experiments=EXPERIMENTS)
    if argv and argv[0] == "serve":
        # Deferred import: the live policer pulls in asyncio wiring that
        # simulation sweeps never touch.
        from repro.runtime.serve import cli_main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        from repro.runtime.loadgen import cli_main as loadgen_main

        return loadgen_main(argv[1:])
    if argv and argv[0] == "lint":
        # Deferred import: the linter is a dev/CI tool; figure runs never
        # need the AST machinery.
        from repro.lint import cli_main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "trace":
        # Deferred import: tracing replays one point with the obs layer on.
        from repro.obs.cli import cli_main as trace_main

        return trace_main(argv[1:], experiments=EXPERIMENTS)
    if argv and argv[0] == "dashboard":
        # Deferred import: the dashboard pulls in the asyncio HTTP server.
        from repro.runtime.dashboard import cli_main as dashboard_main

        return dashboard_main(argv[1:])
    if argv and argv[0] == "flightdump":
        # Deferred import: forensic pretty-printing is an operator tool.
        from repro.obs.flight import cli_main as flight_main

        return flight_main(argv[1:])
    if argv and argv[0] == "bench" and argv[1:2] == ["report"]:
        # Only the `bench report` form dispatches here — a registered
        # experiment may itself be called "bench" (the test fixtures use
        # that name), and plain `runner bench` must keep running it.
        # Deferred import: the perf report reads the store lazily anyway.
        from repro.analysis.bench_report import cli_main as bench_main

        return bench_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="netfence-experiment",
        description="Reproduce a NetFence (SIGCOMM 2010) evaluation figure or table.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all", "list"],
                        help="which experiment to run")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps / shorter simulations")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="number of worker processes for sweep points (default 1)")
    parser.add_argument("--points", type=int, default=None, metavar="N",
                        help="run only the first N grid points of each experiment")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit result rows as JSON instead of tables")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="serve finished points from, and commit new ones to, "
                             "the SQLite result store (queryable via the "
                             "export/status subcommands)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.points is not None and args.points < 1:
        parser.error("--points must be >= 1")

    store = None
    if args.store:
        # Deferred import: plain figure runs never load sqlite3.
        from repro.store import ResultStore

        try:
            store = ResultStore(args.store)
        except OSError as exc:
            parser.error(f"cannot open result store {args.store!r}: {exc}")
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    json_payload: List[Dict[str, Any]] = []
    failed_points = 0
    for name in names:
        experiment = EXPERIMENTS[name]
        specs = experiment.build_grid(args.quick)
        if args.points is not None:
            specs = specs[: args.points]
        started = time.time()
        results = run_sweep(specs, jobs=args.jobs, cache=store)
        rows = merge_rows(results)
        elapsed = time.time() - started
        cached_points = sum(1 for r in results if r.cached)
        failures = [r for r in results if r.error is not None]
        failed_points += len(failures)
        for failure in failures:
            print(f"[{name} point {failure.spec.describe()} failed]\n{failure.error}",
                  file=sys.stderr)
        if args.as_json:
            json_payload.append({
                "experiment": name,
                "quick": args.quick,
                "jobs": args.jobs,
                "points": len(specs),
                "cached_points": cached_points,
                "failed_points": len(failures),
                "elapsed_s": round(elapsed, 3),
                "rows": rows_to_dicts(rows),
            })
        else:
            print(experiment.format_rows(rows))
            suffix = f", {cached_points}/{len(specs)} points cached" if store is not None else ""
            if failures:
                suffix += f", {len(failures)} points FAILED"
            print(f"[{name} completed in {elapsed:.1f}s with --jobs {args.jobs}{suffix}]\n")
    if args.as_json:
        json.dump(json_safe(json_payload), sys.stdout, indent=2, sort_keys=True,
                  default=str, allow_nan=False)
        print()
    return 1 if failed_points else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
