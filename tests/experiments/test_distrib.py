"""Tests for the shared-directory work queue, worker loop, and distrib CLI."""

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.experiments import runner
from repro.experiments.distrib import (
    Lease,
    LeaseLost,
    QueueWorker,
    WorkQueue,
)
from repro.experiments.sweep import (
    ScenarioSpec,
    merge_rows,
    register_point,
    run_sweep,
)
from repro.store import ResultStore


def bench_specs(n=4, duration=0.0):
    return [ScenarioSpec.make("bench_sleep", seed=i, duration=duration, payload=i)
            for i in range(n)]


@register_point("flaky_marker")
def _flaky_marker_point(seed=1, marker="", fail_times=1):
    """Fails its first ``fail_times`` executions, then succeeds — the
    retry-budget tests' stand-in for a transiently flaky grid point."""
    import os

    attempts = 0
    if os.path.exists(marker):
        with open(marker) as fh:
            attempts = int(fh.read() or 0)
    with open(marker, "w") as fh:
        fh.write(str(attempts + 1))
    if attempts < fail_times:
        raise RuntimeError(f"transient failure #{attempts + 1}")
    return {"seed": seed, "recovered_after": attempts}


# ---------------------------------------------------------------------------
# Queue basics
# ---------------------------------------------------------------------------

def test_submit_is_idempotent_and_counts_pending(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    specs = bench_specs(3)
    assert queue.submit(specs) == 3
    assert queue.submit(specs) == 0  # already enqueued
    counts = queue.counts()
    assert counts == {"tasks": 3, "pending": 3, "running": 0, "done": 0,
                      "failed": 0}
    assert not queue.drained()


def test_claim_execute_complete_lifecycle(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    (spec,) = bench_specs(1)
    queue.submit([spec])
    lease = queue.claim("w0", ttl=30.0)
    assert lease is not None
    assert lease.spec == spec
    assert queue.counts()["running"] == 1
    assert queue.claim("w1", ttl=30.0) is None  # held elsewhere
    assert queue.complete(lease, elapsed_s=0.1)
    assert queue.counts() == {"tasks": 1, "pending": 0, "running": 0,
                              "done": 1, "failed": 0}
    assert queue.drained()
    assert queue.claim("w1", ttl=30.0) is None  # done tasks are not re-claimed
    assert queue.submit([spec]) == 0  # finished work is not re-enqueued


def test_completed_failure_is_recorded_not_retried(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    (spec,) = bench_specs(1)
    queue.submit([spec])
    lease = queue.claim("w0")
    assert queue.complete(lease, error="Traceback: boom")
    counts = queue.counts()
    assert counts["failed"] == 1 and counts["done"] == 0
    assert queue.drained()  # deterministic failures do not wedge the queue
    assert queue.failures() == [(lease.key, "Traceback: boom")]


# ---------------------------------------------------------------------------
# Lease contention (satellite: exactly one winner, expiry reclaim)
# ---------------------------------------------------------------------------

def test_racing_claims_yield_exactly_one_lease(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    queue.submit(bench_specs(1))
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    leases = [None] * n_threads

    def racer(i):
        barrier.wait()
        leases[i] = queue.claim(f"w{i}", ttl=30.0)

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [lease for lease in leases if lease is not None]
    assert len(winners) == 1


def test_thief_preempted_before_its_steal_rename_leaves_one_winner(tmp_path,
                                                                   monkeypatch):
    """Regression: thief A reads an expired lease and is preempted just
    before it renames the lease away.  Thief B's whole claim runs in that
    gap and writes a fresh lease.  A's rename must not turn B's fresh lease
    into a second winner.  The interleaving is forced, not timed."""
    root = str(tmp_path / "q")
    queue = WorkQueue(root)
    queue.submit(bench_specs(1))
    stale = queue.claim("w0", ttl=-1.0)  # expired as soon as it is written
    thief_a, thief_b = WorkQueue(root), WorkQueue(root)
    real_replace = os.replace
    preempted = {}

    def replace(src, dst):
        if src.endswith(".lease") and not preempted:
            preempted["b"] = None  # B's own rename must not preempt again
            preempted["b"] = thief_b.claim("thief-b", ttl=30.0)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    lease_a = thief_a.claim("thief-a", ttl=30.0)
    monkeypatch.undo()
    lease_b = preempted["b"]
    winners = [lease for lease in (lease_a, lease_b) if lease is not None]
    assert len(winners) == 1
    assert winners[0].worker_id == "thief-b"
    # The original holder's heartbeat must see the theft, not renew through it.
    with pytest.raises(LeaseLost):
        queue.renew(stale, ttl=30.0)
    # The winner's lease renews fine.
    queue.renew(winners[0], ttl=30.0)


def test_corrupt_lease_file_is_stolen_after_grace(tmp_path):
    """Regression: a 0-byte lease (claimer died between the O_EXCL create
    and the JSON write) must become claimable once its mtime + ttl passes,
    not wedge the task forever."""
    queue = WorkQueue(str(tmp_path / "q"))
    queue.submit(bench_specs(1))
    lease = queue.claim("w0", ttl=0.1)
    open(queue._lease_path(lease.key), "w").close()  # truncate to 0 bytes
    assert queue.claim("w1", ttl=0.1) is None  # fresh corrupt lease: grace
    time.sleep(0.15)
    # The grace window is mtime + the *claimer's* ttl (the dead claimer's
    # intended ttl is unreadable from a truncated lease).
    recovered = queue.claim("w1", ttl=0.1)
    assert recovered is not None
    assert recovered.worker_id == "w1"
    queue.renew(recovered, ttl=30.0)  # stolen lease is fully owned


def test_corrupt_done_marker_counts_as_done_everywhere(tmp_path):
    """Regression: claim() skips any existing done marker, so counts() and
    drained() must treat an unparseable marker as done too — otherwise the
    task is unclaimable yet 'pending' forever and workers never exit."""
    queue = WorkQueue(str(tmp_path / "q"))
    (spec,) = bench_specs(1)
    queue.submit([spec])
    open(queue._done_path(WorkQueue.task_key(spec)), "w").close()
    assert queue.claim("w0") is None
    counts = queue.counts()
    assert counts["pending"] == 0
    assert counts["done"] == 1
    assert queue.drained()


def test_renew_extends_expiry_for_live_lease(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    queue.submit(bench_specs(1))
    lease = queue.claim("w0", ttl=0.2)
    first_expiry = lease.expires_at
    queue.renew(lease, ttl=60.0)
    assert lease.expires_at > first_expiry
    time.sleep(0.25)  # original ttl elapsed; renewed lease must still hold
    assert queue.claim("w1", ttl=30.0) is None


# ---------------------------------------------------------------------------
# Snapshot claim: sorted, done markers stat'ed once, re-list when exhausted
# ---------------------------------------------------------------------------

def test_claim_order_within_one_snapshot_is_sorted(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    specs = bench_specs(6)
    queue.submit(specs)
    claimed = []
    for index in range(len(specs)):
        lease = queue.claim("w0", ttl=30.0)
        claimed.append(lease.key)
        if index % 2:
            queue.complete(lease)  # mix done names with live leases
    assert claimed == sorted(WorkQueue.task_key(spec) for spec in specs)
    assert queue.claim("w0", ttl=30.0) is None


def test_key_finished_elsewhere_is_skipped_after_one_done_check(tmp_path,
                                                                monkeypatch):
    root = str(tmp_path / "q")
    specs = bench_specs(6)
    WorkQueue(root).submit(specs)
    other = WorkQueue(root)
    finished = other.claim("other", ttl=30.0)
    other.complete(finished)
    queue = WorkQueue(root)
    done_path = queue._done_path(finished.key)
    calls = {"done_stats": 0, "claim_listings": 0, "claims": 0}
    in_claim = [False]
    real_exists, real_listdir, real_claim = os.path.exists, os.listdir, queue.claim

    def exists(path):
        calls["done_stats"] += path == done_path
        return real_exists(path)

    def listdir(path="."):
        calls["claim_listings"] += in_claim[0] and path == queue.tasks_dir
        return real_listdir(path)

    def claim(*args, **kwargs):
        calls["claims"] += 1
        in_claim[0] = True
        try:
            return real_claim(*args, **kwargs)
        finally:
            in_claim[0] = False

    monkeypatch.setattr(os.path, "exists", exists)
    monkeypatch.setattr(os, "listdir", listdir)
    monkeypatch.setattr(queue, "claim", claim)
    stats = QueueWorker(queue, worker_id="w0").run()
    monkeypatch.undo()
    assert stats.completed == 5
    assert calls["done_stats"] == 1
    # One listing fills the snapshot, one more confirms it is exhausted.
    assert calls["claims"] == 6 and calls["claim_listings"] == 2


def test_task_submitted_mid_drain_runs_before_the_worker_exits(tmp_path,
                                                               monkeypatch):
    root = str(tmp_path / "q")
    queue = WorkQueue(root)
    store = ResultStore(str(tmp_path / "s.sqlite"))
    first = bench_specs(3)
    late = ScenarioSpec.make("bench_sleep", seed=99, duration=0.0, payload=99)
    queue.submit(first)
    real_complete = queue.complete

    def complete_then_submit(lease, **kwargs):
        WorkQueue(root).submit([late])  # a producer elsewhere, mid-drain
        return real_complete(lease, **kwargs)

    monkeypatch.setattr(queue, "complete", complete_then_submit)
    stats = QueueWorker(queue, store=store, worker_id="w0").run()
    assert stats.completed == 4
    _, missing = store.fetch_specs(first + [late])
    assert not missing


def test_in_process_workers_share_200_points_without_duplicates(tmp_path):
    """Four worker threads on two queue objects (each shared by two
    threads, as in one process) and two snapshots (as in two processes)."""
    root = str(tmp_path / "q")
    store = ResultStore(str(tmp_path / "s.sqlite"))
    specs = bench_specs(200)
    WorkQueue(root).submit(specs)
    queues = [WorkQueue(root), WorkQueue(root)]
    workers = [QueueWorker(queues[i % 2], store=store, worker_id=f"t{i}")
               for i in range(4)]
    stats = [None] * len(workers)

    def drain(i):
        stats[i] = workers[i].run()

    threads = [threading.Thread(target=drain, args=(i,))
               for i in range(len(workers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(s.completed for s in stats) == 200
    records = store.point_records()
    assert len(records) == 200
    assert len({record.cache_key for record in records}) == 200
    rows = store.query_worker_rows()
    assert len(rows) == 200
    assert {row["outcome"] for row in rows} == {"completed"}


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------

def test_single_worker_drains_queue_into_store(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    store = ResultStore(str(tmp_path / "s.sqlite"))
    specs = bench_specs(3)
    queue.submit(specs)
    stats = QueueWorker(queue, store=store, worker_id="solo").run()
    assert stats.claimed == 3
    assert stats.completed == 3
    assert stats.failed == 0
    assert queue.drained()
    merged, missing = store.fetch_specs(specs)
    assert not missing
    assert merged == merge_rows(run_sweep(specs))


def test_worker_records_point_failures(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    store = ResultStore(str(tmp_path / "s.sqlite"))
    bad = ScenarioSpec.make("no_such_experiment", seed=1)
    specs = bench_specs(2) + [bad]
    queue.submit(specs)
    stats = QueueWorker(queue, store=store, worker_id="solo").run()
    assert stats.completed == 2
    assert stats.failed == 1
    assert "no_such_experiment" in stats.errors[0]
    assert queue.drained()
    merged, missing = store.fetch_specs(specs)
    assert missing == [bad]  # failures never reach the store
    assert len(merged) == 2


def test_worker_max_points_and_idle_timeout(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    queue.submit(bench_specs(3))
    stats = QueueWorker(queue, worker_id="capped", max_points=1).run()
    assert stats.claimed == 1
    # Remaining tasks pending, someone else holds nothing: idle_timeout lets a
    # worker on an empty-but-undrained queue give up.
    lease = queue.claim("other", ttl=60.0)
    assert lease is not None
    started = time.time()
    stats = QueueWorker(queue, worker_id="bored", idle_timeout=0.3,
                        poll_interval=0.05, max_points=2).run()
    assert stats.claimed == 1  # took the one remaining free task
    assert time.time() - started < 5.0


# ---------------------------------------------------------------------------
# Worker telemetry rows: one per outcome, committed with the point on success
# ---------------------------------------------------------------------------

_WORKER_ROW_KEYS = {
    "worker_id", "experiment", "cache_key", "attempt", "claim_latency_s",
    "heartbeat_renewals", "elapsed_s", "rss_kb", "outcome", "error",
    "_worker_id", "_experiment", "_cache_key", "_created_at",
}


def _outcomes(store):
    rows = store.query_worker_rows()
    assert all(set(row) == _WORKER_ROW_KEYS for row in rows)
    assert all(row["_worker_id"] == row["worker_id"] == "w0" for row in rows)
    return [(row["outcome"], row["attempt"], row["error"]) for row in rows]


def test_worker_rows_for_completed_points(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    store = ResultStore(str(tmp_path / "s.sqlite"))
    specs = bench_specs(2)
    queue.submit(specs)
    QueueWorker(queue, store=store, worker_id="w0").run()
    assert _outcomes(store) == [("completed", 1, False)] * 2
    assert sorted(row["_cache_key"] for row in store.query_worker_rows()) == \
        sorted(WorkQueue.task_key(spec) for spec in specs)


def test_worker_rows_for_failed_and_retried_points(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    store = ResultStore(str(tmp_path / "s.sqlite"))
    queue.submit([ScenarioSpec.make("no_such_experiment", seed=1)])
    QueueWorker(queue, store=store, worker_id="w0", retries=0).run()
    assert _outcomes(store) == [("failed", 1, True)]

    store = ResultStore(str(tmp_path / "s2.sqlite"))
    queue.submit([ScenarioSpec.make("flaky_marker", seed=5,
                                    marker=str(tmp_path / "marker"))])
    QueueWorker(queue, store=store, worker_id="w0", retries=1).run()
    assert _outcomes(store) == [("retried", 1, True), ("completed", 2, False)]


def test_worker_row_for_a_point_another_worker_published_first(tmp_path,
                                                                monkeypatch):
    root = str(tmp_path / "q")
    queue = WorkQueue(root)
    store = ResultStore(str(tmp_path / "s.sqlite"))
    queue.submit(bench_specs(1))
    real_complete = queue.complete

    def complete_after_a_rival(lease, **kwargs):
        rival = Lease(key=lease.key, spec=lease.spec, worker_id="rival",
                      nonce="rival", expires_at=0.0)
        assert WorkQueue(root).complete(rival)
        return real_complete(lease, **kwargs)

    monkeypatch.setattr(queue, "complete", complete_after_a_rival)
    stats = QueueWorker(queue, store=store, worker_id="w0").run()
    assert stats.completed == 0
    assert _outcomes(store) == [("already_done", 1, False)]
    assert len(store.point_records()) == 1  # committed before it lost


_HEARTBEAT_LOST = threading.Event()


@register_point("outlives_its_lease")
def _outlives_its_lease_point(seed=1):
    """Returns once the worker's heartbeat has reported the lease lost —
    the lost-lease test's stand-in for a point that outruns its lease."""
    _HEARTBEAT_LOST.wait(timeout=30.0)
    return {"seed": seed}


def test_worker_rows_for_a_lost_lease_then_its_rerun(tmp_path, monkeypatch):
    queue = WorkQueue(str(tmp_path / "q"))
    store = ResultStore(str(tmp_path / "s.sqlite"))
    queue.submit([ScenarioSpec.make("outlives_its_lease", seed=1)])
    _HEARTBEAT_LOST.clear()
    real_renew = queue.renew

    def renew(lease, ttl=60.0):
        if not _HEARTBEAT_LOST.is_set():
            _HEARTBEAT_LOST.set()
            raise LeaseLost("stolen")
        return real_renew(lease, ttl=ttl)

    monkeypatch.setattr(queue, "renew", renew)
    stats = QueueWorker(queue, store=store, worker_id="w0", lease_ttl=0.03,
                        poll_interval=0.01).run()
    assert stats.lost_leases == 1 and stats.completed == 1
    assert _outcomes(store) == [("lost_lease", 1, False), ("completed", 1, False)]


# ---------------------------------------------------------------------------
# Retry budget (satellite: flaky points are re-queued, attempts recorded)
# ---------------------------------------------------------------------------

def test_failed_attempts_bookkeeping(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    assert queue.failed_attempts("deadbeef") == 0
    assert queue.record_failed_attempt("deadbeef", "Traceback: boom") == 1
    assert queue.record_failed_attempt("deadbeef", "Traceback: boom2") == 2
    assert queue.failed_attempts("deadbeef") == 2


def test_flaky_point_is_retried_and_attempt_recorded_in_store(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    store = ResultStore(str(tmp_path / "s.sqlite"))
    spec = ScenarioSpec.make("flaky_marker", seed=1,
                             marker=str(tmp_path / "marker"), fail_times=1)
    queue.submit([spec])
    stats = QueueWorker(queue, store=store, worker_id="patient",
                        retries=1).run()
    assert stats.retried == 1
    assert stats.completed == 1
    assert stats.failed == 0
    counts = queue.counts()
    assert counts["done"] == 1 and counts["failed"] == 0
    # The store's provenance columns say which attempt finally succeeded.
    (record,) = store.point_records()
    assert record.attempt == 2
    rows, missing = store.fetch_specs([spec])
    assert not missing and rows == [{"seed": 1, "recovered_after": 1}]


def test_retry_budget_exhaustion_is_a_final_failure(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    spec = ScenarioSpec.make("flaky_marker", seed=2,
                             marker=str(tmp_path / "marker"), fail_times=10)
    queue.submit([spec])
    stats = QueueWorker(queue, worker_id="persistent", retries=2).run()
    assert stats.retried == 2
    assert stats.failed == 1
    assert stats.completed == 0
    counts = queue.counts()
    assert counts["failed"] == 1
    assert queue.drained()
    (key, error) = queue.failures()[0]
    assert "transient failure #3" in error


def test_zero_retries_keeps_the_fail_fast_behaviour(tmp_path):
    queue = WorkQueue(str(tmp_path / "q"))
    spec = ScenarioSpec.make("flaky_marker", seed=3,
                             marker=str(tmp_path / "marker"), fail_times=1)
    queue.submit([spec])
    stats = QueueWorker(queue, worker_id="hasty", retries=0).run()
    assert stats.retried == 0
    assert stats.failed == 1
    assert queue.counts()["failed"] == 1


def test_negative_retries_rejected(tmp_path):
    with pytest.raises(ValueError):
        QueueWorker(WorkQueue(str(tmp_path / "q")), retries=-1)


def test_retried_attempts_do_not_consume_the_max_points_budget(tmp_path):
    """Regression: with --max-points 1, a transiently flaky point must be
    retried to completion, not counted twice and abandoned pending."""
    queue = WorkQueue(str(tmp_path / "q"))
    spec = ScenarioSpec.make("flaky_marker", seed=4,
                             marker=str(tmp_path / "marker"), fail_times=1)
    queue.submit([spec])
    stats = QueueWorker(queue, worker_id="budgeted", retries=1,
                        max_points=1).run()
    assert stats.claimed == 2
    assert stats.retried == 1
    assert stats.completed == 1
    assert queue.drained()


def test_release_leaves_a_stolen_lease_untouched(tmp_path):
    """Regression: a holder whose lease expired and was stolen must not
    unlink the thief's live lease when it releases for a retry — that
    would reopen a task the thief is still executing."""
    queue = WorkQueue(str(tmp_path / "q"))
    queue.submit(bench_specs(1))
    stale = queue.claim("w0", ttl=0.05)
    time.sleep(0.1)
    thief = queue.claim("w1", ttl=30.0)
    assert thief is not None
    assert not queue.owns(stale)
    assert queue.owns(thief)
    queue.release(stale)  # no-op: the thief's lease stands
    assert queue.owns(thief)
    assert queue.claim("w2", ttl=30.0) is None  # task not reopened
    queue.release(thief)
    assert queue.claim("w2", ttl=30.0) is not None


# ---------------------------------------------------------------------------
# Acceptance: two worker processes, zero duplicates, export == run_sweep
# ---------------------------------------------------------------------------

def _worker_process(queue_dir, store_path, worker_id):
    queue = WorkQueue(queue_dir)
    store = ResultStore(store_path)
    QueueWorker(queue, store=store, worker_id=worker_id, lease_ttl=30.0).run()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork start method")
def test_two_worker_processes_share_grid_with_zero_duplicate_executions(tmp_path):
    queue_dir = str(tmp_path / "q")
    store_path = str(tmp_path / "s.sqlite")
    specs = bench_specs(6, duration=0.02)
    WorkQueue(queue_dir).submit(specs)
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_worker_process,
                         args=(queue_dir, store_path, f"proc{i}"))
             for i in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    queue = WorkQueue(queue_dir)
    assert queue.drained()
    assert queue.counts()["done"] == 6
    store = ResultStore(store_path)
    # Append-only store: a duplicate execution would appear as a 7th record.
    records = store.point_records()
    assert len(records) == 6
    assert len({record.cache_key for record in records}) == 6
    # The merged grid equals a single-process run_sweep, row for row.
    merged, missing = store.fetch_specs(specs)
    assert not missing
    assert merged == merge_rows(run_sweep(specs))


# ---------------------------------------------------------------------------
# CLI (runner submit / worker / export / status)
# ---------------------------------------------------------------------------

@pytest.fixture
def bench_experiment(monkeypatch):
    """Register a tiny 'bench' experiment grid with the runner."""
    specs = bench_specs(3)
    definition = runner.ExperimentDef(
        "bench", lambda quick: specs, lambda rows: f"bench rows={len(rows)}")
    monkeypatch.setitem(runner.EXPERIMENTS, "bench", definition)
    return specs


def test_cli_submit_worker_status_export_round_trip(tmp_path, capsys,
                                                    bench_experiment):
    queue_dir = str(tmp_path / "q")
    store_path = str(tmp_path / "s.sqlite")

    assert runner.main(["submit", "bench", "--queue", queue_dir]) == 0
    assert "bench: enqueued 3/3 points" in capsys.readouterr().out

    assert runner.main(["worker", "--queue", queue_dir, "--store", store_path,
                        "--worker-id", "cli-w0"]) == 0
    out = capsys.readouterr().out
    assert "cli-w0: 3 completed, 0 failed" in out

    assert runner.main(["status", "--queue", queue_dir, "--store", store_path]) == 0
    out = capsys.readouterr().out
    assert "3 done" in out
    assert "store bench_sleep: 3 points" in out

    assert runner.main(["export", "bench", "--store", store_path,
                        "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["experiment"] == "bench"
    assert payload[0]["missing"] == 0
    assert payload[0]["rows"] == [
        {"seed": i, "duration": 0.0, "payload": i} for i in range(3)]

    # table format goes through the experiment's own formatter
    assert runner.main(["export", "bench", "--store", store_path]) == 0
    assert "bench rows=3" in capsys.readouterr().out

    # csv format emits a header plus one line per row
    assert runner.main(["export", "bench", "--store", store_path,
                        "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed,duration,payload"
    assert len(lines) == 4

    # --where filters rows
    assert runner.main(["export", "bench", "--store", store_path,
                        "--format", "json", "--where", "payload=1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rows"] == [{"seed": 1, "duration": 0.0, "payload": 1}]


def test_cli_export_fails_on_missing_points_unless_allowed(tmp_path, capsys,
                                                           bench_experiment):
    store_path = str(tmp_path / "s.sqlite")
    store = ResultStore(store_path)
    results = run_sweep(bench_experiment[:1], cache=store)
    assert results[0].error is None

    assert runner.main(["export", "bench", "--store", store_path,
                        "--format", "json"]) == 1
    assert "missing 2/3 grid points" in capsys.readouterr().err

    assert runner.main(["export", "bench", "--store", store_path,
                        "--format", "json", "--allow-missing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["missing"] == 2
    assert len(payload[0]["rows"]) == 1


def test_cli_run_with_store_then_export_matches(tmp_path, capsys,
                                                bench_experiment):
    """`runner <exp> --store` fills the same store `runner export` reads,
    and a re-run is served from it."""
    store_path = str(tmp_path / "s.sqlite")
    assert runner.main(["bench", "--store", store_path, "--json"]) == 0
    run_payload = json.loads(capsys.readouterr().out)
    assert runner.main(["export", "bench", "--store", store_path,
                        "--format", "json"]) == 0
    export_payload = json.loads(capsys.readouterr().out)
    assert export_payload[0]["rows"] == run_payload[0]["rows"]
    # A second run is served entirely from the store, with identical rows.
    assert runner.main(["bench", "--store", store_path, "--json"]) == 0
    rerun_payload = json.loads(capsys.readouterr().out)
    assert rerun_payload[0]["cached_points"] == rerun_payload[0]["points"]
    assert rerun_payload[0]["rows"] == run_payload[0]["rows"]


def test_cli_compact_drops_superseded_executions(tmp_path, capsys,
                                                 bench_experiment):
    store_path = str(tmp_path / "s.sqlite")
    store = ResultStore(store_path)
    for result in run_sweep(bench_experiment):
        store.put_result(result)
        store.put_result(result)  # stack a superseded execution per point
    assert runner.main(["compact", "--store", store_path]) == 0
    out = capsys.readouterr().out
    assert "removed 3 superseded execution(s)" in out
    assert len(ResultStore(store_path).point_records()) == 3


def test_cli_worker_retries_flag(tmp_path, capsys, monkeypatch):
    queue_dir = str(tmp_path / "q")
    store_path = str(tmp_path / "s.sqlite")
    spec = ScenarioSpec.make("flaky_marker", seed=9,
                             marker=str(tmp_path / "marker"), fail_times=1)
    WorkQueue(queue_dir).submit([spec])
    assert runner.main(["worker", "--queue", queue_dir, "--store", store_path,
                        "--worker-id", "cli-retry", "--retries", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 completed, 0 failed, 1 retried" in out
    (record,) = ResultStore(store_path).point_records()
    assert record.attempt == 2


def test_cli_status_requires_a_target():
    with pytest.raises(SystemExit):
        runner.main(["status"])
