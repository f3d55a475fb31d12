"""Simulator workloads: ``sim-fig12-mixed`` and ``sim-fq-bypass``.

Both repeat ``execute_spec`` on one fixed-seed grid point and compare every
repeat's rows against golden rows committed under ``bench/data/``.  The
benchmark seed is deliberately unused: the simulator's inputs are the spec,
and the spec keeps ``seed=1`` so the golden rows hold.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

from repro.analysis.rows import json_safe, rows_to_dicts
from repro.experiments import fig8_unwanted, fig12_deployment
from repro.experiments.sweep import ScenarioSpec, execute_spec, resolve_point

from bench import stats, trace

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def fig12_spec(sim_time: float = 80.0, warmup: float = 30.0) -> ScenarioSpec:
    """The ROADMAP headline point (same spec as benchmarks/test_hotpath.py)."""
    return fig12_deployment.grid(fractions=(0.5,), strategies=("constant",),
                                 sim_time=sim_time, warmup=warmup)[0]


def fq_spec(sim_time: float = 40.0) -> ScenarioSpec:
    """The fig8 ``--quick`` point with system='fq', scale_label='50K'."""
    specs = fig8_unwanted.grid(systems=("fq",),
                               scale_steps=fig8_unwanted.SCALE_STEPS[1:2],
                               sim_time=sim_time)
    return specs[0]


class SimWorkload:
    """Repeat one grid point; rows must equal the golden rows every time."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool = False) -> None:
        self.name = name
        self.seconds = seconds
        self.smoke = smoke
        self.spec: Optional[ScenarioSpec] = None
        self.golden: Optional[List[Dict[str, Any]]] = None

    # -- life cycle -------------------------------------------------------------
    def prepare(self) -> None:
        """Nothing to generate: the spec is the input."""

    def setup(self) -> None:
        if self.name == "sim-fig12-mixed":
            self.spec = fig12_spec(6.0, 2.0) if self.smoke else fig12_spec()
            golden = "golden_fig12_mixed.json"
        else:
            self.spec = fq_spec(4.0) if self.smoke else fq_spec()
            golden = "golden_fq_bypass.json"
        resolve_point(self.spec.experiment)
        if not self.smoke:
            # Toy-size smoke specs have no golden rows; they are checked
            # for repeat-to-repeat identity instead.
            with open(os.path.join(DATA_DIR, golden)) as fh:
                self.golden = json.load(fh)["rows"]

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- measurement ------------------------------------------------------------
    def _repeat(self) -> tuple:
        start = time.perf_counter()
        result = execute_spec(self.spec)
        wall = time.perf_counter() - start
        return wall, json_safe(rows_to_dicts(result.rows))

    def measure(self, tracer: Optional[trace.Tracer]) -> Dict[str, Any]:
        sim_time = self.spec.kwargs["sim_time"]
        deadline = time.perf_counter() + self.seconds
        # Warm-up repeat: lazy imports and first-use caches; its rows count
        # for correctness, its wall does not count for speed.
        warm_wall, rows = self._repeat()
        reference = self.golden if self.golden is not None else rows
        mismatches = int(rows != reference)
        attempted = 1

        if tracer is not None:
            untraced_wall, rows = self._repeat()
            mismatches += int(rows != reference)
            attempted += 1
            trace.install_sim(tracer)
            estimate = 4.0 * untraced_wall
        else:
            estimate = warm_wall

        walls: List[float] = []
        cpu_start = time.process_time()
        try:
            while not walls or time.perf_counter() + estimate <= deadline:
                wall, rows = self._repeat()
                walls.append(wall)
                mismatches += int(rows != reference)
                attempted += 1
                estimate = max(walls)
                if self.smoke:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu_s = time.process_time() - cpu_start

        median_wall = statistics.median(walls)
        out: Dict[str, Any] = {
            "attempted": attempted,
            "failed": mismatches,
            "problems": ([f"{mismatches} repeat(s) returned rows that differ "
                          f"from the golden rows"] if mismatches else []),
            "detail": {"repeats": len(walls), "wall_s": walls,
                       "spec": self.spec.describe()},
        }
        if tracer is None:
            out["e2e"] = {
                "throughput_per_s": sim_time / median_wall,
                "latency_p50_ms": median_wall * 1e3,
                # Ten to twenty repeats support no p99; the nearest-rank p90
                # is the slowest repeat of ten and drops two stragglers of
                # twenty.
                "latency_tail_ms": stats.percentile(walls, 0.90) * 1e3,
            }
            out["named"] = {
                "sim_seconds_per_s": (sim_time / median_wall, "1/s"),
                "cpu_us_per_sim_s": (cpu_s * 1e6 / (len(walls) * sim_time), "us")}
        else:
            out["layers"] = self._layers(tracer, len(walls), sum(walls),
                                         median_wall / untraced_wall - 1.0)
        return out

    def _layers(self, tracer: trace.Tracer, repeats: int, traced_wall: float,
                overhead: float) -> Dict[str, float]:
        """Per-repeat layer numbers; counts are exact (fixed seed)."""
        self_s, counts = tracer.self_s, tracer.counts

        def per_repeat(key: str) -> float:
            return counts.get(key, 0) / repeats

        def layer_s(layer: str) -> float:
            return self_s.get(layer, 0.0) / repeats

        events = per_repeat("simulator.engine.events")
        engine_s = layer_s("simulator.engine")
        access = trace.access_counters(tracer.instances["NetFenceAccessRouter"])
        limiters = tracer.instances["RegularRateLimiter"]
        hits = counts.get("core.feedback.memo_hits", 0)
        misses = counts.get("core.feedback.memo_misses", 0)
        layers = {
            "simulator.engine.events": events,
            "simulator.engine.self_s": engine_s,
            "simulator.engine.us_per_event": engine_s / events * 1e6 if events else 0.0,
            "simulator.link.transmits": per_repeat("simulator.link.transmits"),
            "simulator.link.self_s": layer_s("simulator.link"),
            "simulator.node.receives": per_repeat("simulator.node.receive"),
            "simulator.node.self_s": layer_s("simulator.node"),
            "simulator.queues.enqueues": per_repeat("simulator.queues.enqueue"),
            "simulator.queues.drops": per_repeat("simulator.queues.drops"),
            "simulator.queues.self_s": layer_s("simulator.queues"),
            "simulator.fairqueue.ops": (per_repeat("simulator.fairqueue.enqueue")
                                        + per_repeat("simulator.fairqueue.dequeue")),
            "simulator.fairqueue.self_s": layer_s("simulator.fairqueue"),
            "core.access.admits": per_repeat("core.access.admit_from_host"),
            "core.access.self_s": layer_s("core.access"),
            "core.ratelimiter.charges": per_repeat("core.ratelimiter.police"),
            "core.ratelimiter.cached": sum(l.stats.cached for l in limiters) / repeats,
            "core.ratelimiter.dropped": sum(l.stats.dropped for l in limiters) / repeats,
            "core.ratelimiter.self_s": layer_s("core.ratelimiter"),
            "core.ratelimiter.active": len(limiters) / repeats,
            "core.feedback.validates": per_repeat("core.feedback.validates"),
            "core.feedback.memo_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "core.feedback.self_s": layer_s("core.feedback"),
            "crypto.mac.computes": per_repeat("crypto.mac.computes"),
            "crypto.mac.self_s": layer_s("crypto.mac"),
            "core.bottleneck.decr_stamped": per_repeat("core.feedback.stamp_decr"),
            "core.bottleneck.self_s": layer_s("core.bottleneck"),
            "core.bottleneck.queue.dropped": per_repeat("core.bottleneck.queue.drops"),
            "core.endhost.self_s": layer_s("core.endhost"),
            "transport.tcp.segments": per_repeat("transport.tcp.on_packet"),
            "transport.tcp.self_s": layer_s("transport.tcp"),
            "transport.udp.sends": sum(
                s.packets_sent for s in tracer.instances["UdpSender"]) / repeats,
            "transport.udp.self_s": layer_s("transport.udp"),
            "trace.unattributed_frac": max(0.0, 1.0 - tracer.busy_s() / traced_wall),
            "trace.overhead_frac": overhead,
        }
        for key in ("request_admitted", "request_dropped", "regular_nop",
                    "regular_invalid", "regular_passed", "regular_cached",
                    "regular_dropped"):
            layers[f"core.access.{key}"] = access.get(key, 0) / repeats
        return layers
