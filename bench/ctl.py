"""``ctl-queue-drain``: pure control-plane overhead per sweep point.

N zero-cost ``bench_sleep`` points go through the shared-directory work
queue and one in-process ``QueueWorker`` into a SQLite ``ResultStore``; then
``run_sweep`` re-reads all of them from the store (all cache hits).  What is
timed is lease files, the heartbeat thread's start and join, two SQLite
commits per point, and the directory re-scan of every claim.  N is fixed per
time budget because the drain is super-linear in N on this commit.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Any, Dict, List, Optional

from repro.experiments.distrib import QueueWorker, WorkQueue
from repro.experiments.sweep import ScenarioSpec, run_sweep
from repro.store import ResultStore

from bench import scratch, stats, trace

POINTS_PER_SECOND = 100


class CtlQueueDrain:
    """Submit, drain with one worker, re-read through the cache."""

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        self.seed = seed
        self.points = 30 if smoke else int(POINTS_PER_SECOND * seconds)
        self.specs: List[ScenarioSpec] = []
        self.tmpdir: Optional[str] = None
        self.queue: Optional[WorkQueue] = None
        self.store: Optional[ResultStore] = None

    def prepare(self) -> None:
        # The seed picks the payloads, hence the task keys and the order in
        # which the worker's sorted directory scan meets them.
        base = self.seed * 1_000_000
        self.specs = [ScenarioSpec.make("bench_sleep", seed=1, duration=0.0,
                                        payload=base + index)
                      for index in range(self.points)]

    def setup(self) -> None:
        self.tmpdir = scratch.make()
        self.queue = WorkQueue(os.path.join(self.tmpdir, "queue"))
        self.store = ResultStore(os.path.join(self.tmpdir, "results.sqlite"))

    def teardown(self) -> None:
        if self.tmpdir is not None:
            scratch.remove(self.tmpdir)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- measurement ------------------------------------------------------------
    def measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        queue, store, n = self.queue, self.store, self.points
        if tracer is not None:
            self._install(tracer)
        try:
            started = time.perf_counter()
            enqueued = queue.submit(self.specs)
            submit_s = time.perf_counter() - started

            worker = QueueWorker(queue, store=store, worker_id="bench-worker")
            usage0 = resource.getrusage(resource.RUSAGE_SELF)
            started = time.perf_counter()
            worker_stats = worker.run()
            drain_s = time.perf_counter() - started
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            kernel_s = usage1.ru_stime - usage0.ru_stime
            cpu_s = kernel_s + usage1.ru_utime - usage0.ru_utime
            if tracer is not None:
                tracer.close()
                drain_self = dict(tracer.self_s)

            started = time.perf_counter()
            results = run_sweep(self.specs, cache=store)
            cached_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()

        cycle_ms = self._cycle_times_ms()
        problems = []
        executions = len(store.point_records("bench_sleep"))
        wrong = sum(1 for spec, result in zip(self.specs, results)
                    if not result.cached or not result.rows
                    or result.rows[0].get("payload") != spec.kwargs["payload"])
        if enqueued != n:
            problems.append(f"only {enqueued} of {n} points were enqueued")
        if worker_stats.completed != n or worker_stats.failed:
            problems.append(f"worker completed {worker_stats.completed} of {n} points, "
                            f"{worker_stats.failed} failed")
        if executions != n:
            problems.append(f"{executions} executions stored for {n} points "
                            f"(a point ran twice or not at all)")
        if wrong:
            problems.append(f"{wrong} points missing from the store or wrong on re-read")
        failed = (abs(n - worker_stats.completed) + worker_stats.failed
                  + abs(executions - n) + wrong)
        out: Dict[str, Any] = {
            "attempted": n, "failed": failed, "problems": problems,
            "detail": {"points": n, "drain_s": drain_s, "cached_s": cached_s,
                       "submit_s": submit_s, "cycle_samples": len(cycle_ms)},
        }
        if tracer is None:
            # Kernel CPU is taken out of the gated numbers.  On the sandbox's
            # journal-less ext4 the inode allocator steps over every inode
            # freed nearby in the last minutes, so creating a file costs
            # 30 us in a quiet directory tree and 300 us where earlier runs
            # just deleted their scratch: the same code drains 200 points/s
            # on a first run and 150 on a tenth.  Wall minus kernel CPU
            # (Python time, SQLite, fsync waits) does not move with that.
            quiet = 1.0 - kernel_s / drain_s
            out["e2e"] = {
                "throughput_per_s": n / (drain_s * quiet),
                "latency_p50_ms": stats.percentile(cycle_ms, 0.50) * quiet,
                "latency_tail_ms": stats.percentile(cycle_ms, 0.95) * quiet,
            }
            out["detail"]["cycle_ms"] = {f"p{q}": stats.percentile(cycle_ms, q / 100)
                                         for q in (50, 95, 99)}
            out["named"] = {"points_per_s": (n / drain_s, "1/s"),
                            "kernel_cpu_share": (kernel_s / drain_s, "fraction"),
                            "cycle_p50_ms": (stats.percentile(cycle_ms, 0.50), "ms"),
                            "cpu_us_per_point": (cpu_s * 1e6 / n, "us"),
                            "cached_points_per_s": (n / cached_s, "1/s"),
                            "submit_us": (submit_s / n * 1e6, "us")}
        else:
            counts, mean_us = tracer.counts, tracer.mean_us
            claims = max(counts.get("experiments.distrib.claim", 0), 1)
            gets = tracer.self_s.get("store.result_store.get", 0.0)
            out["layers"] = {
                "experiments.distrib.submit_us": submit_s / n * 1e6,
                "experiments.distrib.claim_ms": mean_us("experiments.distrib.claim") / 1e3,
                "experiments.distrib.claim_scanned_per_claim": self.scanned / claims,
                "experiments.distrib.execute_ms": (
                    drain_self.get("experiments.distrib.execute", 0.0) / n * 1e3),
                "experiments.distrib.complete_ms": (
                    mean_us("experiments.distrib.complete") / 1e3),
                "store.result_store.put_ms": mean_us("store.result_store.put") / 1e3,
                "store.result_store.worker_row_ms": (
                    mean_us("store.result_store.worker_row") / 1e3),
                "store.result_store.get_us": mean_us("store.result_store.get"),
                "experiments.sweep.dispatch_us": (cached_s - gets) / n * 1e6,
                "workload.cached_points_per_s": n / cached_s,
                "trace.unattributed_frac": max(
                    0.0, 1.0 - sum(drain_self.values()) / drain_s),
                # No untraced drain of the same directory exists to compare
                # with (the drain is super-linear in N), so the overhead is
                # the calibrated cost of the wrapped calls that were made.
                "trace.overhead_frac": (sum(counts.values())
                                        * trace.Tracer.wrapper_cost_s() / drain_s),
            }
        return out

    def _cycle_times_ms(self) -> List[float]:
        """Per-point cycle time: gaps between consecutive ``finished_at``."""
        finished = []
        for name in os.listdir(self.queue.done_dir):
            with open(os.path.join(self.queue.done_dir, name)) as fh:
                finished.append(json.load(fh)["finished_at"])
        finished.sort()
        return [(b - a) * 1e3 for a, b in zip(finished, finished[1:])]

    def _install(self, tracer: trace.Tracer) -> None:
        self.scanned = 0  # directory entries listed while inside claim()
        in_claim = False
        queue, store = self.queue, self.store
        inner_claim = tracer.wrap("experiments.distrib.claim", queue.claim)
        inner_put = tracer.wrap("store.result_store.put", store.put_result)
        listdir = os.listdir

        def counting_listdir(path: Any = ".") -> List[str]:
            names = listdir(path)
            if in_claim:
                self.scanned += len(names)
            return names

        def claim(*args: Any, **kwargs: Any) -> Any:
            nonlocal in_claim
            in_claim = True
            try:
                lease = inner_claim(*args, **kwargs)
            finally:
                in_claim = False
            if lease is not None:
                # Claim → put_result is the point's execution: retry-marker
                # read, heartbeat thread start, the point itself, join.
                tracer.open("experiments.distrib.execute")
            return lease

        def put_result(*args: Any, **kwargs: Any) -> Any:
            tracer.close()
            return inner_put(*args, **kwargs)

        tracer.replace(os, "listdir", counting_listdir)
        tracer.replace(queue, "claim", claim)
        tracer.replace(store, "put_result", put_result)
        tracer.patch(queue, "complete", "experiments.distrib.complete")
        tracer.patch(queue, "drained", "experiments.distrib.claim",
                     "experiments.distrib.drained")
        tracer.patch(store, "put_worker_rows", "store.result_store.worker_row")
        tracer.patch(store, "get", "store.result_store.get")
