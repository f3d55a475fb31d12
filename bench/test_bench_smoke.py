"""Tier-1 guard for the benchmark harness: schema and correctness, never speed.

A broken harness (a renamed entry point, a workload that no longer starts,
a metric missing from the catalogue) fails here; a slow machine cannot.
"""

import json
import os
import shutil
import subprocess
import sys

from bench import catalog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == catalog.benchmark_json()
    names = ([w["name"] for w in committed["workloads"]]
             + [m["name"] for m in committed["end_to_end"]]
             + [m["name"] for m in committed["per_layer"]])
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    assert any(m["name"] == "setup_s" for m in committed["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])


def test_smoke_runs_every_workload_traced_and_untraced():
    done = _run("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("smoke ")]
    assert len(lines) == 2 * len(catalog.WORKLOADS)
    assert all(line.endswith(" ok") for line in lines), done.stdout


def test_contract_mode_prints_one_json_result_line():
    done = _run("--workload", "sim-fq-bypass", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _, _, _ in catalog.END_TO_END}
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-fq-bypass", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, timeout=60, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert not done.stdout.strip()


def _result(path, workload, values):
    runs = [{"workload": workload, "trace": 0,
             "metrics": {name: {"value": value * scale, "unit": unit}
                         for name, unit, _, _ in catalog.END_TO_END}}
            for value, scale in values]
    with open(path, "w") as fh:
        json.dump({"runs": runs}, fh)
    return str(path)


def test_compare_separates_ok_regressed_and_unresolved(tmp_path):
    steady = [(100.0, s) for s in (1.0, 1.01, 0.99, 1.0, 1.02)]
    a = _result(tmp_path / "a.json", "sim-fq-bypass", steady)
    same = _run("--compare", a, a)
    assert same.returncode == 0 and "regressed" not in same.stdout
    # Every metric 40 % higher: worse for the lower-is-better ones only.
    b = _result(tmp_path / "b.json", "sim-fq-bypass", [(140.0, s) for _, s in steady])
    worse = _run("--compare", a, b)
    assert worse.returncode == 1
    verdicts = {line.split()[1]: line.split()[-1] for line in worse.stdout.splitlines()
                if line.startswith("sim-fq-bypass")}
    assert verdicts["latency_p50_ms"] == "regressed"
    assert verdicts["throughput_per_s"] == "ok"
    noisy = _result(tmp_path / "c.json", "sim-fq-bypass",
                    [(100.0, s) for s in (0.6, 1.0, 1.5, 0.8, 1.3)])
    unsure = _run("--compare", a, noisy)
    assert unsure.returncode == 0 and "unresolved" in unsure.stdout
