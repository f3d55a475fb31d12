"""Simulator hot-path microbenchmarks and the fig12 single-point regression gate.

Four microbenches time the simulator's per-packet building blocks in
isolation (event schedule/dispatch, link transmit, DRR enqueue/dequeue, and
the rate-limiter charge), a fifth reports the live policer's per-datagram
layers (wire decode/encode, one MAC, one validation miss) without gating
them, and one end-to-end gate times a fig12 ``--quick``
single point against the committed baseline in
``benchmarks/data/hotpath_baseline.json``:

* ``pre_pr`` — the point's wall time measured on the *pre-optimization*
  code, alongside the machine-speed calibration (a fixed pure-Python spin
  loop, see :func:`repro.perf.calibration_workload`) measured at the same
  moment.  The demonstrated speedup is the ratio of *normalized* wall times
  (wall / calibration), so it transfers across machines; it is history,
  reported as ``speedup_vs_pre_pr`` and not gated.
* ``optimized`` — the same pair measured on the optimized code; the CI
  regression gate fails when the current normalized wall time exceeds it by
  more than 25 %.

The gate also re-checks determinism: the point's swept row values must be
byte-identical to ``benchmarks/data/hotpath_golden_fig12.json``, which was
generated by the pre-optimization code with the same seed — optimizations
must never change results.

All numbers land in the ``hotpath`` section of ``BENCH_sweep.json`` so
``ResultStore.perf_trajectory()`` consumers can track the win over time.
"""

import json
import os
import time

from bench_artifact import emit as _emit
from repro import perf
from repro.core.feedback import Feedback, FeedbackAction, FeedbackMode, FeedbackStamper
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.core.params import NetFenceParams
from repro.core.ratelimiter import PASS, RegularRateLimiter
from repro.crypto.keys import AccessRouterSecret, ASKeyRegistry
from repro.crypto.mac import compute_mac
from repro.experiments import fig12_deployment
from repro.experiments.sweep import execute_spec
from repro.analysis.rows import json_safe, rows_to_dicts
from repro.runtime.codec import decode_frame, encode_packet
from repro.simulator.engine import Simulator
from repro.simulator.fairqueue import DRRQueue, HierarchicalFairQueue
from repro.simulator.link import Link
from repro.simulator.node import Node
from repro.simulator.packet import Packet

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
BASELINE_PATH = os.path.join(DATA_DIR, "hotpath_baseline.json")
GOLDEN_PATH = os.path.join(DATA_DIR, "hotpath_golden_fig12.json")

#: Maximum tolerated normalized-wall regression against the committed
#: ``optimized`` reference before the CI gate fails.  The calibration loop
#: normalizes machine *speed*, not machine *character*: a host whose
#: relative cost of object allocation vs integer arithmetic differs from
#: the baseline host shifts the gate without any code change.  CI runs on
#: heterogeneous machines, so ci.yml loosens it via the environment; on the
#: baseline host the strict default applies.
REGRESSION_TOLERANCE = float(os.environ.get("HOTPATH_REGRESSION_TOLERANCE", "1.25"))

#: Conservative floors (ops/second) for the microbenches — an order of
#: magnitude below observed rates, so slow CI runners never flake while a
#: genuine hot-path catastrophe (e.g. an accidental O(n) scan) still fails.
MIN_DISPATCH_PER_S = 100_000
MIN_TRANSMIT_PER_S = 10_000
MIN_DRR_OPS_PER_S = 50_000
MIN_CHARGE_PER_S = 20_000


def _fig12_point_spec():
    """The fig12 --quick single point the speedup claim is measured on."""
    specs = fig12_deployment.grid(fractions=(0.5,), strategies=("constant",),
                                  sim_time=80.0, warmup=30.0)
    return specs[0]


# ---------------------------------------------------------------------------
# Microbenches
# ---------------------------------------------------------------------------

def test_schedule_dispatch_microbench():
    """Raw event-loop throughput: schedule N events, run them all."""
    sim = Simulator()
    n = 200_000
    fired = 0

    def bump():
        nonlocal fired
        fired += 1

    start = time.perf_counter()
    for i in range(n):
        sim.schedule_at(i * 1e-6, bump)
    sim.run()
    elapsed = time.perf_counter() - start
    rate = n / elapsed
    print(f"\nschedule+dispatch: {n} events in {elapsed:.3f}s -> {rate:,.0f}/s")
    _emit("hotpath", {"microbench": {"schedule_dispatch_events_per_s": round(rate)}})
    assert fired == n
    assert sim.pending_events == 0
    assert rate >= MIN_DISPATCH_PER_S


class _SinkNode(Node):
    """Counts deliveries; stands in for a downstream router/host."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = 0

    def receive(self, packet, from_link):
        self.received += 1


def test_link_transmit_microbench():
    """Serialization + propagation pipeline throughput on one link."""
    sim = Simulator()
    src = _SinkNode(sim, "src")
    dst = _SinkNode(sim, "dst")
    link = Link(sim, src, dst, capacity_bps=10e9, delay_s=1e-4)
    n = 20_000
    packets = [Packet(src="src", dst="dst", size_bytes=1500) for _ in range(n)]
    start = time.perf_counter()
    for packet in packets:
        link.send(packet)
        # Drain as we go so the DropTail queue never fills and every packet
        # exercises the full transmit -> deliver path.
        if link.queue.byte_length > 50 * 1500:
            sim.run(until=sim.now + 0.001)
    sim.run()
    elapsed = time.perf_counter() - start
    rate = dst.received / elapsed
    print(f"\nlink transmit: {dst.received} packets in {elapsed:.3f}s -> {rate:,.0f}/s")
    _emit("hotpath", {"microbench": {"link_transmit_packets_per_s": round(rate)}})
    assert dst.received == n
    assert rate >= MIN_TRANSMIT_PER_S


def test_drr_enqueue_dequeue_microbench():
    """DRR and hierarchical DRR enqueue/dequeue throughput, plus the
    byte-accounting and state-eviction invariants after a full drain."""
    flows, per_flow = 100, 200
    n = flows * per_flow

    drr = DRRQueue(per_flow_capacity_bytes=per_flow * 1500)
    packets = [Packet(src=f"h{i % flows}", dst="d", size_bytes=1500)
               for i in range(n)]
    start = time.perf_counter()
    for packet in packets:
        drr.enqueue(packet)
    while drr.dequeue() is not None:
        pass
    drr_elapsed = time.perf_counter() - start
    drr_rate = 2 * n / drr_elapsed

    hfq = HierarchicalFairQueue(per_flow_capacity_bytes=per_flow * 1500)
    packets = [Packet(src=f"h{i % flows}", dst="d", size_bytes=1500,
                      src_as=f"AS{i % 10}") for i in range(n)]
    start = time.perf_counter()
    for packet in packets:
        hfq.enqueue(packet)
    while hfq.dequeue() is not None:
        pass
    hfq_elapsed = time.perf_counter() - start
    hfq_rate = 2 * n / hfq_elapsed

    print(f"\nDRR: {2 * n} ops in {drr_elapsed:.3f}s -> {drr_rate:,.0f}/s; "
          f"hierarchical: {hfq_rate:,.0f}/s")
    _emit("hotpath", {"microbench": {"drr_ops_per_s": round(drr_rate),
                                     "hfq_ops_per_s": round(hfq_rate)}})
    # Drained queues hold no state: counters at zero and flow tables evicted.
    assert len(drr) == 0 and drr.byte_length == 0 and drr.active_flows == 0
    assert len(hfq) == 0 and hfq.byte_length == 0
    assert hfq.active_level1_buckets == 0
    assert drr_rate >= MIN_DRR_OPS_PER_S


def test_ratelimiter_charge_microbench():
    """Leaky-bucket PASS-path throughput (the per-packet charge)."""
    sim = Simulator()
    params = NetFenceParams()
    released = []
    limiter = RegularRateLimiter(sim, "s", "L", params, released.append,
                                 initial_rate_bps=1e12)
    n = 20_000
    packets = [Packet(src="s", dst="d", size_bytes=1500) for _ in range(n)]
    # Let one bucket's worth of credit accrue so the first packet passes too
    # (a leaky bucket starts empty).
    now = 1e-4
    sim.run(until=now)
    start = time.perf_counter()
    for packet in packets:
        verdict = limiter.police(packet)
        assert verdict == PASS
        now += 1e-5  # advance the clock so credit re-accrues
        sim.run(until=now)
    elapsed = time.perf_counter() - start
    rate = n / elapsed
    print(f"\nrate-limiter charge: {n} packets in {elapsed:.3f}s -> {rate:,.0f}/s")
    _emit("hotpath", {"microbench": {"ratelimiter_charges_per_s": round(rate)}})
    assert limiter.stats.passed == n
    assert not released  # nothing was ever cached
    assert rate >= MIN_CHARGE_PER_S


def _best_us(fn, calls, rounds=5):
    """Best-of-``rounds`` wall time of ``fn()`` per call it makes, in µs."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best / calls * 1e6, 3)


def test_live_ingress_microbench():
    """The live policer's per-datagram layers: decode, encode, MAC, validate.

    Report-only (ROADMAP item 1: no new wall-clock gates in tier-1); the rows
    sit next to the simulator's in ``BENCH_sweep.json#hotpath`` so a change
    to the ingress path shows up per layer.  ``validate_miss_us`` is what a
    forged, fresh ``nop`` costs: freshness, memo miss, one MAC, one compare.
    """
    now = 1_000_000_000.5
    secret = AccessRouterSecret("Ra", master=b"hotpath")
    stamper = FeedbackStamper(secret, ASKeyRegistry(master=b"hotpath"), "AS-edge")
    n = 5_000
    packets = [
        Packet(src=f"host{i % 64:02d}", dst="victim", size_bytes=125,
               flow_id=f"udp:host{i % 64:02d}->victim", created_at=now,
               priority=10, src_as="AS-edge", uid=i + 1,
               headers={HEADER_KEY: NetFenceHeader(
                   stamper.stamp_incr(f"host{i % 64:02d}", "victim", "L", now),
                   priority=10)})
        for i in range(n)
    ]
    frames = [encode_packet(packet) for packet in packets]
    forged = [Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, now,
                       i.to_bytes(4, "big")) for i in range(n)]
    key = secret.current(now)
    verdicts = []
    rows = {
        "codec_decode_us": _best_us(
            lambda: [decode_frame(frame) for frame in frames], n),
        "codec_encode_us": _best_us(
            lambda: [encode_packet(packet) for packet in packets], n),
        "compute_mac_us": _best_us(
            lambda: [compute_mac(key, "host01", "victim", now, "L", "mon", "incr")
                     for _ in range(n)], n),
        "validate_miss_us": _best_us(
            lambda: verdicts.extend(
                stamper.validate(fb, "mallory", "victim", now, 4.0)
                for fb in forged), n),
    }
    print("\nlive ingress: " + ", ".join(f"{k}={v}" for k, v in rows.items()))
    _emit("hotpath", {"microbench": rows})
    assert [decode_frame(frame)[1] for frame in frames] == packets
    assert not any(verdicts) and stamper.memo_size == 0
    assert stamper.validate(packets[0].headers[HEADER_KEY].feedback,
                            "host00", "victim", now, 4.0)


# ---------------------------------------------------------------------------
# End-to-end gate: fig12 --quick single point
# ---------------------------------------------------------------------------

def test_fig12_quick_point_speedup_and_row_identity():
    """The optimized hot path is bit-exact and has not regressed.

    Normalized by the calibration workload so the comparison holds on
    machines of different speeds; gated at 25 % against the committed
    ``optimized`` reference so future regressions fail CI.  The speedup over
    the pre-PR baseline (2.2x when it landed) is reported, not asserted: it
    measured 1.87x inside a loaded tier-1 run and 2.27x alone.
    """
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)["fig12_quick_point"]
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)

    spec = _fig12_point_spec()
    # Each wall sample is paired with an immediately adjacent calibration
    # sample, and the gate uses the best per-pair ratio: interference on a
    # shared machine comes in phases that slow both measurements together,
    # so pairing cancels it, while min-of-pairs (noise is one-sided — a
    # loaded machine only ever looks slower) is the stable estimate of the
    # code's real normalized cost.
    samples, rows = [], None
    for _ in range(3):
        calib = perf.calibration_workload()
        start = time.perf_counter()
        result = execute_spec(spec)
        wall = time.perf_counter() - start
        samples.append((wall / calib, wall, calib))
        rows = result.rows
    normalized, wall_s, calib_s = min(samples)

    pre = baseline["pre_pr"]
    ref = baseline["optimized"]
    pre_normalized = pre["wall_s"] / pre["calib_s"]
    ref_normalized = ref["wall_s"] / ref["calib_s"]
    speedup = pre_normalized / normalized

    row_dicts = json_safe(rows_to_dicts(rows))
    identical = row_dicts == golden["rows"]
    print(f"\nfig12 quick point: {wall_s:.3f}s wall ({normalized:.2f} calibration "
          f"units) vs pre-PR {pre['wall_s']}s ({pre_normalized:.2f}) "
          f"-> {speedup:.2f}x speedup; rows identical: {identical}")
    _emit("hotpath", {"fig12_quick_point": {
        "wall_s": round(wall_s, 3),
        "calib_s": round(calib_s, 4),
        "normalized_wall": round(normalized, 2),
        "pre_pr_wall_s": pre["wall_s"],
        "pre_pr_normalized_wall": round(pre_normalized, 2),
        "speedup_vs_pre_pr": round(speedup, 2),
        "rows_identical_to_pre_pr": identical,
        "spec": spec.describe(),
    }})

    # Same-seed determinism: the optimized path reproduces the pre-PR rows.
    assert identical, f"rows diverged from pre-PR golden:\n{row_dicts}\nvs\n{golden['rows']}"
    # CI regression gate against the committed optimized reference.
    assert normalized <= ref_normalized * REGRESSION_TOLERANCE, (
        f"fig12 quick point regressed: {normalized:.2f} calibration units vs "
        f"committed {ref_normalized:.2f} (tolerance x{REGRESSION_TOLERANCE})"
    )
