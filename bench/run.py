#!/usr/bin/env python3
"""The repository benchmark: one command, seven workloads.

Driver contract (one workload per invocation)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the metrics by name with their units and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--workload`` every workload runs (each in a fresh interpreter, so
that set-up time and memory are its own)::

    python3 bench/run.py --seed N [--traced] [--repeat K] [--out FILE]
    python3 bench/run.py --smoke
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --aa [--repeat K]

See bench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench/run.py: no src/repro next to bench/ — nothing to measure")
# The script's own directory must not shadow the standard library (trace.py).
sys.path[:] = [ROOT, os.path.join(ROOT, "src")] + [
    p for p in sys.path if os.path.abspath(p or ".") != os.path.join(ROOT, "bench")]

from bench import catalog, scratch, stats  # noqa: E402

#: Fresh-interpreter set-ups timed per run, besides the run's own.
SETUP_PROBES = 3
SMOKE_SECONDS = 0.4


def make_workload(name: str, seed: int, seconds: float, smoke: bool) -> Any:
    """Import the workload's module (part of set-up) and build it."""
    if name.startswith("sim-"):
        from bench.sim import SimWorkload
        return SimWorkload(name, seed, seconds, smoke)
    if name == "ctl-queue-drain":
        from bench.ctl import CtlQueueDrain
        return CtlQueueDrain(seed, seconds, smoke)
    from bench import liveruns
    cls = {"live-inproc-closed": liveruns.InprocClosed,
           "live-inproc-hostile": liveruns.InprocHostile,
           "live-loopback-legit": liveruns.LoopbackLegit,
           "live-loopback-collude": liveruns.LoopbackCollude}[name]
    return cls(seed, seconds, smoke)


def timed_setup(name: str, seed: int, seconds: float, smoke: bool, since: float) -> tuple:
    """Import, build and set up; returns (workload, seconds since ``since``).

    Input generation from the seed happens in between and is not counted:
    it is the benchmark's work, not the system's.
    """
    workload = make_workload(name, seed, seconds, smoke)
    imported = time.perf_counter()
    workload.prepare()
    prepared = time.perf_counter()
    workload.setup()
    return workload, (imported - since) + (time.perf_counter() - prepared)


def probe_setup(name: str) -> float:
    """One set-up in a fresh interpreter: process entry → ready → torn down."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--probe-setup"]
    done = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False, since: Optional[float] = None) -> Dict[str, Any]:
    """Run one workload in this process; returns the full result record."""
    from bench.trace import Tracer

    since = time.perf_counter() if since is None else since
    workload, own_setup = timed_setup(name, seed, seconds, smoke, since)
    try:
        tracer = Tracer() if traced else None
        outcome = workload.measure(tracer)
        peak_rss = workload.peak_rss_mb()
    finally:
        workload.teardown()
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "attempted": int(outcome["attempted"]), "failed": int(outcome["failed"]),
        "problems": outcome["problems"], "detail": outcome["detail"],
    }
    if traced:
        layers = outcome["layers"]
        unknown = set(layers) - {n for n, _, _ in catalog.PER_LAYER}
        if unknown:
            raise KeyError(f"layer metrics missing from the catalogue: {sorted(unknown)}")
        record["metrics"] = {n: {"value": float(layers.get(n, 0.0)), "unit": unit}
                             for n, unit, _ in catalog.PER_LAYER}
        record["spans"] = [s for s in tracer.spans[:2000] if s is not None]
    else:
        setups = [own_setup]
        if not smoke:
            setups += [probe_setup(name) for _ in range(SETUP_PROBES)]
        e2e = dict(outcome["e2e"], setup_s=statistics.median(setups), peak_rss_mb=peak_rss)
        record["metrics"] = {n: {"value": float(e2e[n]), "unit": unit}
                             for n, unit, _, _ in catalog.END_TO_END}
        named = dict(outcome.get("named", {}),
                     failed_frac=(record["failed"] / max(record["attempted"], 1), "fraction"))
        record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        record["detail"]["setup_samples_s"] = setups
    record["correct"] = record["failed"] == 0 and not record["problems"]
    return record


def print_record(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit; the contract's JSON line last."""
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    for name, metric in record["metrics"].items():
        if record["trace"] and metric["value"] == 0.0:
            continue  # layers this workload does not execute
        print(f"{name:46s} {metric['value']:>16.6g} {metric['unit']}")
    for name, metric in record.get("named", {}).items():
        print(f"  = {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}), flush=True)


# ---------------------------------------------------------------------------
# Every workload: sets of runs, comparison, smoke
# ---------------------------------------------------------------------------

def run_in_child(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One contract-mode run in a fresh interpreter; returns its record."""
    tmp = scratch.make()
    try:
        out = os.path.join(tmp, "record.json")
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(traced)), "--out", out]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=900)
        with open(out) as fh:
            return json.load(fh)["runs"][0]
    finally:
        scratch.remove(tmp)


def run_set(seed: int, seconds: float, traced: bool, repeat: int,
            names: List[str]) -> List[Dict[str, Any]]:
    """``repeat`` untraced runs per workload (seeds ``seed``...), then traced."""
    runs = []
    for name in names:
        for index in range(repeat):
            record = run_in_child(name, seed + index, seconds, False)
            print_record(record)
            runs.append(record)
        if traced:
            record = run_in_child(name, seed, seconds, True)
            print_record(record)
            runs.append(record)
    return runs


def summarize(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """workload → metric → median, quartiles, spread, extremes and n over
    the untraced runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for record in runs:
        if record["trace"]:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return {workload: {name: dict(stats.quartiles(vals), spread=stats.spread(vals),
                                  min=min(vals), max=max(vals))
                       for name, vals in per_metric.items()}
            for workload, per_metric in values.items()}


def print_summary(summary: Dict[str, Dict[str, Dict[str, float]]]) -> None:
    units = {n: unit for n, unit, _, _ in catalog.END_TO_END}
    print("\n== end-to-end medians (quartiles over the runs of each workload) ==")
    for workload, metrics in summary.items():
        print(workload)
        for name, q in metrics.items():
            print(f"  {name:20s} {q['median']:>14.6g} {units[name]:4s} "
                  f"[{q['q1']:.6g} .. {q['q3']:.6g}] n={q['n']}")


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    """Print A against B per workload and metric; returns the exit code."""
    sa, sb = summarize(a["runs"]), summarize(b["runs"])
    regressed = 0
    print(f"{'workload':24s} {'metric':18s} {'A median [q1..q3]':>34s} "
          f"{'B median [q1..q3]':>34s} {'bound':>6s} {'worse':>8s}  verdict")
    for workload in sa:
        if workload not in sb:
            continue
        for name, _unit, better, bound in catalog.END_TO_END:
            qa, qb = sa[workload][name], sb[workload][name]
            sign = 1.0 if better == "lower" else -1.0
            worse = sign * (qb["median"] - qa["median"]) / abs(qa["median"])
            b_all_better = (qb["max"] < qa["min"] if better == "lower"
                            else qb["min"] > qa["max"])
            if max(qa["spread"], qb["spread"]) > bound and not b_all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{workload:24s} {name:18s} "
                  f"{_cell(qa):>34s} {_cell(qb):>34s} {bound:>6.2f} {worse:>+8.3f}  {verdict}")
    return 1 if regressed else 0


def _cell(q: Dict[str, float]) -> str:
    return f"{q['median']:.5g} [{q['q1']:.5g}..{q['q3']:.5g}]"


def smoke() -> int:
    """Every workload at toy size, traced and untraced: schema and
    correctness only, never speed."""
    bad = 0
    for name in catalog.workload_names():
        for traced in (False, True):
            record = run_workload(name, seed=1, seconds=SMOKE_SECONDS, traced=traced,
                                  smoke=True)
            expected = ({n for n, _, _ in catalog.PER_LAYER} if traced
                        else {n for n, _, _, _ in catalog.END_TO_END})
            ok = (record["correct"] and set(record["metrics"]) == expected
                  and record["attempted"] >= 1)
            print(f"smoke {name:24s} trace={int(traced)} "
                  f"attempted={record['attempted']} failed={record['failed']} "
                  f"{'ok' if ok else 'BROKEN: ' + '; '.join(record['problems'])}")
            bad += not ok
    return 1 if bad else 0


def write_out(path: Optional[str], payload: Dict[str, Any]) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, default=repr)
            fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add a traced run of each workload")
    parser.add_argument("--repeat", type=int, default=None,
                        help="all-workloads mode: untraced runs per workload "
                             "(default 1; 5 with --aa)")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--aa", action="store_true",
                        help="two full sets back to back, then compare them")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated harness must still reap its serve child and temp dirs:
    # turn SIGTERM into an exception so every ``finally`` runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return compare(json.load(fa), json.load(fb))
    if args.probe_setup:
        workload, elapsed = timed_setup(args.workload, args.seed, args.seconds,
                                        False, _T0)
        workload.teardown()
        print(repr(elapsed))
        return 0
    if args.smoke:
        return smoke()
    if args.workload:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              since=_T0)
        print_record(record)
        write_out(args.out, {"runs": [record]})
        return 0

    names = catalog.workload_names()
    if args.aa:
        repeat = args.repeat or 5
        first = {"runs": run_set(args.seed, args.seconds, False, repeat, names)}
        second = {"runs": run_set(args.seed, args.seconds, False, repeat, names)}
        write_out(args.out, {"a": first, "b": second})
        return compare(first, second)
    runs = run_set(args.seed, args.seconds, args.traced, args.repeat or 1, names)
    print_summary(summarize(runs))
    write_out(args.out, {"seed": args.seed, "seconds": args.seconds, "runs": runs})
    incorrect = [r for r in runs if not r["correct"]]
    for record in incorrect:
        print(f"INCORRECT {record['workload']} (trace={record['trace']}): "
              + "; ".join(record["problems"]), file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
