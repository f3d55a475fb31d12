"""Workloads and metrics: the single source ``BENCHMARK.json`` is built from.

The benchmark contract wants one vocabulary of end-to-end metrics that every
workload reports, so the names are generic and bench/README.md says what
each one counts per workload.  The specific names the design uses
(``sim_seconds_per_s``, ``policed_pps``, ``legit_share`` ...) are printed
beside them and stored in the result file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

RUN_SECONDS = 10

#: (name, why).  Names are stable identifiers.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("sim-fig12-mixed",
     "ROADMAP headline point: half NetFence, half legacy dumbbell, so engine, link, "
     "queues, MAC, feedback, limiter, access and bottleneck all do real work"),
    ("sim-fq-bypass",
     "fig8 quick point under plain fair queuing: zero time in repro.core and "
     "repro.crypto, so only engine, link, node, queue and transport changes may move it"),
    ("live-inproc-closed",
     "closed loop, 32 in flight, in-process policer without sockets: the decode, "
     "admit, stamp, queue, drain and encode ceiling with no kernel I/O and no overload"),
    ("live-inproc-hostile",
     "seeded hostile corpus at full speed through the same layers the other way: "
     "the reject path, memo misses by construction, hello-table growth"),
    ("live-loopback-legit",
     "what an operator sees: latency across a runner-serve child over loopback UDP "
     "at 500 pps, then a rate ladder up to where latency, loss or backlog give way"),
    ("live-loopback-collude",
     "the paper's guarantee live: link in mon, two legit senders against two "
     "colluding floods, per-sender limiters caching and dropping, L-down stamping"),
    ("ctl-queue-drain",
     "control-plane overhead per sweep point: lease files, heartbeat thread, two "
     "SQLite commits and a directory re-scan per claim, then an all-hits re-read"),
)

#: (name, unit, better, bound).  The bound is the share of the parent's
#: median by which the metric may get worse.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better).  Traced run only; a layer a workload does not
#: execute reports 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("simulator.engine.events", "count", "lower"),
    ("simulator.engine.self_s", "s", "lower"),
    ("simulator.engine.us_per_event", "us", "lower"),
    ("simulator.link.transmits", "count", "lower"),
    ("simulator.link.self_s", "s", "lower"),
    ("simulator.node.receives", "count", "lower"),
    ("simulator.node.self_s", "s", "lower"),
    ("simulator.queues.enqueues", "count", "lower"),
    ("simulator.queues.drops", "count", "lower"),
    ("simulator.queues.self_s", "s", "lower"),
    ("simulator.fairqueue.ops", "count", "lower"),
    ("simulator.fairqueue.self_s", "s", "lower"),
    ("core.access.admits", "count", "lower"),
    ("core.access.self_s", "s", "lower"),
    ("core.access.admit_us", "us", "lower"),
    ("core.access.request_admitted", "count", "lower"),
    ("core.access.request_dropped", "count", "lower"),
    ("core.access.regular_nop", "count", "higher"),
    ("core.access.regular_invalid", "count", "lower"),
    ("core.access.regular_passed", "count", "higher"),
    ("core.access.regular_cached", "count", "lower"),
    ("core.access.regular_dropped", "count", "lower"),
    ("core.ratelimiter.charges", "count", "lower"),
    ("core.ratelimiter.cached", "count", "lower"),
    ("core.ratelimiter.dropped", "count", "lower"),
    ("core.ratelimiter.self_s", "s", "lower"),
    ("core.ratelimiter.active", "count", "lower"),
    ("core.feedback.validates", "count", "lower"),
    ("core.feedback.memo_hit_frac", "fraction", "higher"),
    ("core.feedback.self_s", "s", "lower"),
    ("crypto.mac.computes", "count", "lower"),
    ("crypto.mac.self_s", "s", "lower"),
    ("core.bottleneck.transit_us", "us", "lower"),
    ("core.bottleneck.decr_stamped", "count", "lower"),
    ("core.bottleneck.self_s", "s", "lower"),
    ("core.bottleneck.queue.enqueue_us", "us", "lower"),
    ("core.bottleneck.queue.dequeue_us", "us", "lower"),
    ("core.bottleneck.queue.depth_p99_pkts", "count", "lower"),
    ("core.bottleneck.queue.wait_p50_ms", "ms", "lower"),
    ("core.bottleneck.queue.dropped", "count", "lower"),
    ("runtime.codec.decode_us", "us", "lower"),
    ("runtime.codec.encode_us", "us", "lower"),
    ("runtime.codec.errors", "count", "lower"),
    ("runtime.serve.ingress_us", "us", "lower"),
    ("runtime.serve.deliver_us", "us", "lower"),
    ("runtime.serve.pace_us", "us", "lower"),
    ("runtime.serve.pace_overshoot_ms", "ms", "lower"),
    ("runtime.serve.drain_wakeups", "1/pkt", "lower"),
    ("runtime.serve.cpu_us_per_pkt", "us", "lower"),
    ("runtime.serve.io_us_per_pkt", "us", "lower"),
    ("runtime.loadgen.send_us", "us", "lower"),
    ("runtime.loadgen.recv_us", "us", "lower"),
    ("runtime.loadgen.lag_p99_ms", "ms", "lower"),
    ("core.endhost.self_s", "s", "lower"),
    ("obs.metrics.self_us", "us", "lower"),
    ("transport.tcp.segments", "count", "lower"),
    ("transport.tcp.self_s", "s", "lower"),
    ("transport.udp.sends", "count", "lower"),
    ("transport.udp.self_s", "s", "lower"),
    ("experiments.distrib.submit_us", "us", "lower"),
    ("experiments.distrib.claim_ms", "ms", "lower"),
    ("experiments.distrib.claim_scanned_per_claim", "count", "lower"),
    ("experiments.distrib.execute_ms", "ms", "lower"),
    ("experiments.distrib.complete_ms", "ms", "lower"),
    ("store.result_store.put_ms", "ms", "lower"),
    ("store.result_store.worker_row_ms", "ms", "lower"),
    ("store.result_store.get_us", "us", "lower"),
    ("experiments.sweep.dispatch_us", "us", "lower"),
    ("workload.legit_share", "fraction", "higher"),
    ("workload.legit_fairshare_frac", "fraction", "higher"),
    ("workload.delivered_pps", "1/s", "higher"),
    ("workload.cached_points_per_s", "1/s", "higher"),
    ("trace.unattributed_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def benchmark_json() -> Dict[str, Any]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def workload_names() -> List[str]:
    return [name for name, _ in WORKLOADS]
