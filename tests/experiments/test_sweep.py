"""Tests for the parallel sweep engine and the experiment runner CLI."""

import json
import logging

import pytest

from repro.experiments import fig8_unwanted, fig9_colluding, runner, theorem_fairshare
from repro.experiments.sweep import (
    ScenarioSpec,
    derive_seed,
    execute_spec,
    merge_rows,
    register_point,
    resolve_point,
    run_sweep,
)
from repro.store import ResultStore


@register_point("_test_square")
def _square_point(seed=1, value=0, marker_file=None):
    """A trivial point function; optionally records that it actually ran."""
    if marker_file is not None:
        with open(marker_file, "a") as fh:
            fh.write("x")
    return {"seed": seed, "square": value * value}


@register_point("_test_faulty")
def _faulty_point(seed=1, value=0, marker_file=None):
    """Like ``_test_square`` but raises on negative values."""
    if value < 0:
        raise ValueError(f"cannot square a strictly negative value: {value}")
    return _square_point(seed=seed, value=value, marker_file=marker_file)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def test_spec_params_are_sorted_and_hashable():
    a = ScenarioSpec.make("_test_square", value=3, marker_file=None)
    b = ScenarioSpec.make("_test_square", marker_file=None, value=3)
    assert a == b
    assert hash(a) == hash(b)
    assert a.kwargs == {"value": 3, "marker_file": None}


def test_spec_cache_key_depends_on_params_and_seed():
    base = ScenarioSpec.make("_test_square", value=3)
    assert base.cache_key() == ScenarioSpec.make("_test_square", value=3).cache_key()
    assert base.cache_key() != ScenarioSpec.make("_test_square", value=4).cache_key()
    assert base.cache_key() != ScenarioSpec.make("_test_square", seed=2, value=3).cache_key()


def test_spec_freezes_nested_containers():
    spec = ScenarioSpec.make("_test_square", value=3, extras={"b": [1, 2], "a": 0})
    assert hash(spec) is not None
    assert spec.kwargs["extras"] == (("a", 0), ("b", (1, 2)))


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(1, "fig8", "25K") == derive_seed(1, "fig8", "25K")
    seeds = {derive_seed(1, "fig8", label) for label in ("25K", "50K", "100K", "200K")}
    assert len(seeds) == 4


def test_resolve_point_imports_experiment_modules():
    fn = resolve_point("fig8")
    assert fn is fig8_unwanted.run_point
    with pytest.raises(KeyError):
        resolve_point("no-such-experiment")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def test_run_sweep_serial_preserves_spec_order():
    specs = [ScenarioSpec.make("_test_square", value=v) for v in (3, 1, 2)]
    results = run_sweep(specs, jobs=1)
    assert [r.spec for r in results] == specs
    assert [r.rows[0]["square"] for r in results] == [9, 1, 4]
    assert merge_rows(results) == [{"seed": 1, "square": 9},
                                   {"seed": 1, "square": 1},
                                   {"seed": 1, "square": 4}]


def test_run_sweep_parallel_rows_identical_to_serial():
    specs = [ScenarioSpec.make("_test_square", value=v, seed=v) for v in range(6)]
    serial = merge_rows(run_sweep(specs, jobs=1))
    parallel = merge_rows(run_sweep(specs, jobs=3))
    assert parallel == serial


def test_run_sweep_parallel_matches_serial_on_real_fluid_points():
    """A real experiment grid run through worker processes is byte-identical."""
    specs = [
        ScenarioSpec.make("theorem_fluid", strategy=strategy, intervals=60,
                          num_legitimate=4, num_malicious=8, capacity_bps=2e6)
        for strategy in ("always-on", "on-off", "slow-ramp")
    ]
    serial = merge_rows(run_sweep(specs, jobs=1))
    parallel = merge_rows(run_sweep(specs, jobs=2))
    assert [row.as_tuple() for row in parallel] == [row.as_tuple() for row in serial]
    assert parallel == serial


def test_execute_spec_wraps_single_row_in_list():
    result = execute_spec(ScenarioSpec.make("_test_square", value=5))
    assert result.rows == [{"seed": 1, "square": 25}]
    assert result.elapsed_s >= 0.0
    assert not result.cached
    assert result.error is None
    assert result.worker_id and ":" in result.worker_id


def test_execute_spec_raises_by_default_and_captures_on_request():
    spec = ScenarioSpec.make("_test_faulty", value=-3)
    with pytest.raises(ValueError):
        execute_spec(spec)
    result = execute_spec(spec, capture_errors=True)
    assert result.rows == []
    assert "strictly negative value: -3" in result.error


# ---------------------------------------------------------------------------
# Failure capture (one bad point must not sink the sweep)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 3])
def test_run_sweep_keeps_completed_points_when_one_raises(tmp_path, jobs):
    """Regression: under ``jobs > 1`` the old ``pool.map`` propagated the
    first exception and every completed point's work (and cache entry) was
    lost.  Now the bad point carries the traceback in ``error`` and every
    good point is returned *and stored*."""
    store = ResultStore(str(tmp_path / "s.sqlite"))
    marker = tmp_path / "ran.txt"
    specs = [ScenarioSpec.make("_test_faulty", value=v, marker_file=str(marker))
             for v in (2, -1, 3, 4)]
    results = run_sweep(specs, jobs=jobs, cache=store)
    assert [r.spec for r in results] == specs
    assert [r.error is None for r in results] == [True, False, True, True]
    assert "strictly negative value" in results[1].error
    assert results[1].rows == []
    assert merge_rows(results) == [{"seed": 1, "square": 4},
                                   {"seed": 1, "square": 9},
                                   {"seed": 1, "square": 16}]
    # The three good points were committed incrementally; only the bad one
    # re-runs on the next sweep.
    assert marker.read_text() == "xxx"
    rerun = run_sweep(specs, jobs=jobs, cache=store)
    assert [r.cached for r in rerun] == [True, False, True, True]
    assert marker.read_text() == "xxx"


def test_run_sweep_strict_raises_after_committing_good_points(tmp_path):
    """Library callers that consume merged rows blind pass strict=True:
    a failed point raises instead of silently truncating the merged rows,
    but only *after* every completed point was committed to the store."""
    from repro.experiments.sweep import SweepError

    store = ResultStore(str(tmp_path / "s.sqlite"))
    specs = [ScenarioSpec.make("_test_faulty", value=v) for v in (2, -1, 3)]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(specs, cache=store, strict=True)
    assert "strictly negative value" in str(excinfo.value)
    assert [r.spec for r in excinfo.value.failures] == [specs[1]]
    assert store.get(specs[0]) == [{"seed": 1, "square": 4}]
    assert store.get(specs[2]) == [{"seed": 1, "square": 9}]


def test_run_sweep_captures_unknown_experiment_as_point_error():
    specs = [ScenarioSpec.make("_test_square", value=2),
             ScenarioSpec.make("_no_such_point"),
             ScenarioSpec.make("_test_square", value=3)]
    for jobs in (1, 2):
        results = run_sweep(specs, jobs=jobs)
        assert "_no_such_point" in results[1].error
        assert merge_rows(results) == [{"seed": 1, "square": 4},
                                       {"seed": 1, "square": 9}]


def test_execute_in_worker_warns_when_registering_module_is_missing(caplog):
    """Regression: a spawn-mode worker that cannot import the registering
    module used to swallow the ImportError silently, leaving only a cryptic
    registry miss."""
    from repro.experiments.sweep import _execute_in_worker

    spec = ScenarioSpec.make("_test_square", value=4)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
        index, result = _execute_in_worker((7, spec, "repro.no_such_module"))
    assert index == 7
    assert result.rows == [{"seed": 1, "square": 16}]  # registry scan still works
    assert any("repro.no_such_module" in record.message
               for record in caplog.records)


# ---------------------------------------------------------------------------
# Result store as the sweep's cache
# ---------------------------------------------------------------------------

def test_run_sweep_serves_repeat_runs_from_cache(tmp_path):
    store = ResultStore(str(tmp_path / "s.sqlite"))
    marker = tmp_path / "ran.txt"
    specs = [ScenarioSpec.make("_test_square", value=v, marker_file=str(marker))
             for v in (2, 3)]
    first = run_sweep(specs, cache=store)
    assert marker.read_text() == "xx"
    assert all(not r.cached for r in first)

    second = run_sweep(specs, cache=store)
    assert marker.read_text() == "xx"  # nothing re-ran
    assert all(r.cached for r in second)
    assert merge_rows(second) == merge_rows(first)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_fig8_grid_covers_every_scale_and_system():
    specs = fig8_unwanted.grid()
    assert len(specs) == len(fig8_unwanted.SCALE_STEPS) * len(fig8_unwanted.SYSTEMS)
    assert all(spec.experiment == "fig8" for spec in specs)
    labels = {spec.kwargs["scale_label"] for spec in specs}
    assert labels == {label for label, *_ in fig8_unwanted.SCALE_STEPS}


def test_fig9_grid_covers_both_workloads():
    specs = fig9_colluding.grid(scale_steps=fig9_colluding.SCALE_STEPS[:1])
    assert len(specs) == 2 * len(fig9_colluding.SYSTEMS)
    assert {spec.kwargs["workload"] for spec in specs} == {"longrun", "web"}


def test_theorem_grid_mixes_fluid_and_packet_points():
    specs = theorem_fairshare.grid()
    assert [spec.experiment for spec in specs] == [
        "theorem_fluid", "theorem_fluid", "theorem_fluid", "theorem_packet",
    ]


def test_runner_grids_exist_for_every_experiment():
    for name, experiment in runner.EXPERIMENTS.items():
        quick = experiment.build_grid(True)
        full = experiment.build_grid(False)
        assert quick, name
        assert len(quick) <= len(full)


# ---------------------------------------------------------------------------
# Runner CLI
# ---------------------------------------------------------------------------

def test_runner_list(capsys):
    assert runner.main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(runner.EXPERIMENTS)


def test_runner_rejects_bad_jobs_and_points():
    with pytest.raises(SystemExit):
        runner.main(["fig7", "--jobs", "0"])
    with pytest.raises(SystemExit):
        runner.main(["fig7", "--points", "0"])


def test_runner_json_points_limit(capsys):
    assert runner.main(["fig7", "--quick", "--points", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    entry = payload[0]
    assert entry["experiment"] == "fig7"
    assert entry["points"] == 1
    # One fig7 point measures all six (system, packet, router) combinations.
    assert len(entry["rows"]) == 6
    assert {"system", "packet_type", "router_type", "attack", "ns_per_packet"} \
        <= set(entry["rows"][0])


def test_runner_table_output_mentions_jobs(capsys):
    assert runner.main(["fig7", "--quick", "--points", "1", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 7" in out
    assert "--jobs 2" in out
