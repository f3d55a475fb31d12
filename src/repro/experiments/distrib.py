"""Distributed sweep execution: a shared-directory work queue + worker loop.

``run_sweep`` parallelizes one grid inside one process tree.  This module
lets *independent processes on one or many machines* cooperate on the same
grid through two shared artifacts: a queue directory (any filesystem all
workers can reach) and a :class:`~repro.store.ResultStore` database.

The broker needs no server.  Coordination rides entirely on two atomic
filesystem primitives:

* ``open(..., O_CREAT | O_EXCL)`` — creating a lease file succeeds for
  exactly one claimant, however many workers race;
* ``os.replace`` / ``os.rename`` — stealing an *expired* lease renames it
  aside to a private stash first, which likewise succeeds for exactly one
  stealer; the steal is then decided on what the stash holds, so a thief
  that lost a race puts a fresh lease back (``os.link``) instead of
  deleting it.

Queue directory layout::

    tasks/<experiment>-<key>.task   pickled ScenarioSpec (append-only)
    leases/<key>.lease              JSON {worker, nonce, claimed_at, expires_at}
    done/<key>.done                 JSON {worker, elapsed_s, error, attempts, finished_at}
    retries/<key>.retry             JSON {attempts, last_error, recorded_at}

A task is *pending* when it has neither lease nor done marker, *running*
while a live lease exists, and *finished* once a done marker is written
(``error`` non-null once a failure exhausts the worker's ``--retries``
budget; earlier failed attempts are recorded under ``retries/`` and the
task returns to pending).  Workers renew their lease from a heartbeat
thread while a point executes; a worker that dies mid-point leaves a
lease that expires and is reclaimed.

Claim cost is O(1) amortized.  Each :class:`WorkQueue` keeps a sorted
snapshot of task names and claims from its head: a name whose done marker
has been seen is dropped for good (done is terminal), so a drain stats each
marker about once.  ``tasks/`` is re-listed only when the snapshot holds
nothing claimable, which is also how tasks submitted mid-drain are found
before a worker exits.

A finished point commits before it is published: the worker writes the
point's rows and its telemetry row to the store in one transaction, and
only then links the done marker.  A crash between the two re-executes the
point (the store is append-only); it never loses one.

Typical session (the ``netfence-experiment`` CLI fronts all of this)::

    runner submit fig12 --quick --queue Q          # enqueue the grid
    runner worker --queue Q --store S.sqlite &     # on machine A
    runner worker --queue Q --store S.sqlite &     # on machine B
    runner status --queue Q --store S.sqlite
    runner export fig12 --quick --store S.sqlite   # merged rows, grid order
    runner compact --store S.sqlite                # GC superseded executions
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.rows import json_safe, row_to_dict, rows_to_csv, rows_to_dicts
from repro.experiments.sweep import ScenarioSpec, SweepResult, execute_spec
from repro.obs.log import JsonLinesLogger
from repro.obs.spans import SpanRecorder, active_span_recorder, use_span_recorder
from repro.store import ResultStore
from repro.store.result_store import default_worker_id

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-Unix
    _resource = None  # type: ignore[assignment]


def _rss_kb() -> Optional[int]:
    """Peak resident set size of this worker process, in kB (None off-Unix)."""
    if _resource is None:  # pragma: no cover - non-Unix
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


__all__ = [
    "Lease",
    "LeaseLost",
    "QueueWorker",
    "WorkQueue",
    "WorkerStats",
    "cli_main",
]


class LeaseLost(RuntimeError):
    """Raised when renewing a lease another worker has stolen (expiry)."""


@dataclass
class Lease:
    """A claimed task: held while executing, renewed by the heartbeat."""

    key: str
    spec: ScenarioSpec
    worker_id: str
    nonce: str
    expires_at: float


class WorkQueue:
    """File-based work queue over a directory all workers share.

    Every mutation is a single atomic filesystem operation, so any number
    of worker processes — across machines, given a shared filesystem — can
    claim, renew, steal, and complete tasks without a broker server.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.tasks_dir = os.path.join(self.root, "tasks")
        self.leases_dir = os.path.join(self.root, "leases")
        self.done_dir = os.path.join(self.root, "done")
        self.retries_dir = os.path.join(self.root, "retries")
        for path in (self.tasks_dir, self.leases_dir, self.done_dir,
                     self.retries_dir):
            os.makedirs(path, exist_ok=True)
        # Claim state: sorted task names not yet seen done, and the names
        # seen done (kept out of every later re-listing).  The lock makes
        # one queue object safe to share between threads.
        self._snapshot: Deque[str] = deque()
        self._done_names: Set[str] = set()
        self._claim_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @staticmethod
    def task_key(spec: ScenarioSpec) -> str:
        return spec.cache_key()[:24]

    @staticmethod
    def _key_of(task_name: str) -> str:
        return task_name[:-len(".task")].rsplit("-", 1)[-1]

    def _task_path(self, spec: ScenarioSpec) -> str:
        return os.path.join(self.tasks_dir, f"{spec.experiment}-{self.task_key(spec)}.task")

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.leases_dir, f"{key}.lease")

    def _done_path(self, key: str) -> str:
        return os.path.join(self.done_dir, f"{key}.done")

    def _retry_path(self, key: str) -> str:
        return os.path.join(self.retries_dir, f"{key}.retry")

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, specs: Sequence[ScenarioSpec]) -> int:
        """Enqueue specs; already-enqueued or finished points are skipped.

        Returns the number of newly enqueued tasks.  Task files are written
        atomically (temp file + ``os.replace``) so a concurrently scanning
        worker can never load a truncated spec.
        """
        enqueued = 0
        for spec in specs:
            path = self._task_path(spec)
            if os.path.exists(path) or os.path.exists(self._done_path(self.task_key(spec))):
                continue
            tmp = f"{path}.tmp-{uuid.uuid4().hex}"
            with open(tmp, "wb") as fh:
                pickle.dump(spec, fh)
            os.replace(tmp, path)
            enqueued += 1
        return enqueued

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def _read_json(self, path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def _write_lease(self, fd: int, lease: Lease) -> None:
        payload = {"worker": lease.worker_id, "nonce": lease.nonce,
                   "claimed_at": time.time(), "expires_at": lease.expires_at}
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)

    def claim(self, worker_id: str, ttl: float = 60.0) -> Optional[Lease]:
        """Claim one pending task, or ``None`` if nothing is claimable.

        Tasks are tried in sorted name order from this queue's snapshot;
        ``tasks/`` is re-listed only when the snapshot holds nothing
        claimable.  Exactly-once claiming rests on ``O_CREAT | O_EXCL``:
        however many workers race on the same key, one lease-file create
        succeeds.
        """
        with self._claim_lock:
            lease = self._claim_from_snapshot(worker_id, ttl)
            if lease is None:
                done = self._done_names
                self._snapshot = deque(sorted(
                    name for name in os.listdir(self.tasks_dir)
                    if name.endswith(".task") and name not in done))
                lease = self._claim_from_snapshot(worker_id, ttl)
            return lease

    def _claim_from_snapshot(self, worker_id: str, ttl: float) -> Optional[Lease]:
        """Walk the snapshot's head until one task is claimed.

        Names seen done are dropped for good.  Names held elsewhere go back
        in order ahead of the claimed one, which stays at the head, so a
        task released for a retry is the next one tried.
        """
        snapshot, skipped = self._snapshot, []
        lease = None
        while snapshot:
            name = snapshot[0]
            key = self._key_of(name)
            if os.path.exists(self._done_path(key)):
                self._done_names.add(snapshot.popleft())
                continue
            lease = self._try_claim(name, key, worker_id, ttl)
            if lease is not None:
                break
            skipped.append(snapshot.popleft())
        snapshot.extendleft(reversed(skipped))
        return lease

    def _try_claim(self, name: str, key: str, worker_id: str,
                   ttl: float) -> Optional[Lease]:
        lease_path = self._lease_path(key)
        expires_at = self._lease_expiry(lease_path, ttl)
        if expires_at is not None:
            if expires_at > time.time():
                return None  # live lease held elsewhere
            # Expired: take it aside and decide on what was taken, not on
            # what was read — in between, a faster thief may have replaced
            # it with a fresh lease of its own.
            stash = self._take_aside(lease_path)
            if stash is None:
                return None  # another stealer took it first
            taken = self._lease_expiry(stash, ttl)
            if taken is not None and taken > time.time():
                self._put_back(stash, lease_path)
                return None
            _unlink(stash)
        try:
            fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        if os.path.exists(self._done_path(key)):
            # Finished since the done check above: complete() publishes the
            # marker before it drops the lease, so this re-check after the
            # create closes that window.
            os.close(fd)
            _unlink(lease_path)
            return None
        lease = Lease(key=key, spec=self._load_task(name), worker_id=worker_id,
                      nonce=uuid.uuid4().hex, expires_at=time.time() + ttl)
        self._write_lease(fd, lease)
        return lease

    def _lease_expiry(self, path: str, ttl: float) -> Optional[float]:
        """When the lease file at ``path`` expires; ``None`` if there is none.

        An unparseable lease means its claimer died (or hit disk-full)
        between the O_EXCL create and the JSON write.  It is granted a full
        ``ttl`` from the file's mtime and then stolen like any expired
        lease — otherwise the key would wedge forever.
        """
        existing = self._read_json(path)
        if existing is not None:
            return existing.get("expires_at", 0.0)
        try:
            return os.path.getmtime(path) + ttl
        except OSError:
            return None

    @staticmethod
    def _take_aside(lease_path: str) -> Optional[str]:
        """Atomically move a lease to a unique stash; ``None`` if absent.

        Whatever the rename moved is out of every other worker's reach
        while the caller inspects it.
        """
        stash = f"{lease_path}.taken-{uuid.uuid4().hex}"
        try:
            os.replace(lease_path, stash)
        except OSError:
            return None
        return stash

    @staticmethod
    def _put_back(stash: str, lease_path: str) -> None:
        """Restore a taken lease unless a newer one was created meanwhile.

        If one was, the newer lease stands and the restored lease's holder
        sees :class:`LeaseLost` at its next renewal — duplicated work at
        worst, never divergent results.
        """
        try:
            os.link(stash, lease_path)
        except OSError:
            pass
        _unlink(stash)

    def _load_task(self, name: str) -> ScenarioSpec:
        with open(os.path.join(self.tasks_dir, name), "rb") as fh:
            return pickle.load(fh)

    def renew(self, lease: Lease, ttl: float = 60.0) -> None:
        """Extend a held lease; raises :class:`LeaseLost` if it was stolen.

        The nonce check is what detects theft: a stolen-and-reissued lease
        file carries the stealer's nonce.  (Between our read and replace a
        steal could still slip in; the executing stealer will then detect
        the mismatch at *its* next renewal, and the deterministic re-run it
        performs commits identical rows, so the race narrows to duplicated
        work, never divergent results.)
        """
        lease_path = self._lease_path(lease.key)
        current = self._read_json(lease_path)
        if current is None or current.get("nonce") != lease.nonce:
            raise LeaseLost(f"lease on {lease.key} lost to "
                            f"{current.get('worker') if current else 'expiry'}")
        lease.expires_at = time.time() + ttl
        tmp = f"{lease_path}.renew-{uuid.uuid4().hex}"
        with open(tmp, "w") as fh:
            json.dump({"worker": lease.worker_id, "nonce": lease.nonce,
                       "claimed_at": current.get("claimed_at"),
                       "expires_at": lease.expires_at}, fh)
        os.replace(tmp, lease_path)

    def complete(self, lease: Lease, elapsed_s: float = 0.0,
                 error: Optional[str] = None, attempts: int = 1) -> bool:
        """Mark a claimed task finished; returns False if already finished.

        The marker is fully written to a temp file and *then* published with
        ``os.link`` — atomic and first-writer-wins, so a marker can never be
        observed half-written, and even if a lease was stolen mid-execution
        and two workers finish the same point, exactly one completion is
        recorded.
        """
        done_path = self._done_path(lease.key)
        tmp = f"{done_path}.tmp-{uuid.uuid4().hex}"
        with open(tmp, "w") as fh:
            json.dump({"worker": lease.worker_id, "elapsed_s": elapsed_s,
                       "error": error, "attempts": attempts,
                       "finished_at": time.time()}, fh)
        try:
            os.link(tmp, done_path)
            finished = True
        except FileExistsError:
            finished = False
        finally:
            _unlink(tmp)
        _unlink(self._lease_path(lease.key))
        return finished

    def owns(self, lease: Lease) -> bool:
        """Whether the lease file still carries this holder's nonce."""
        current = self._read_json(self._lease_path(lease.key))
        return current is not None and current.get("nonce") == lease.nonce

    def release(self, lease: Lease) -> None:
        """Drop a held lease without finishing it (the task becomes pending).

        A lease that was stolen after expiry is left to the thief —
        unlinking it would reopen a task the thief is still executing.  The
        check is an atomic take, the same one a stealing :meth:`claim`
        makes: the lease file is renamed aside first (so no steal can slip
        between check and unlink), then inspected, and put back if it turns
        out to carry a thief's nonce.
        """
        lease_path = self._lease_path(lease.key)
        stash = self._take_aside(lease_path)
        if stash is None:
            return  # already gone (completed or stolen-and-finished)
        current = self._read_json(stash)
        if current is not None and current.get("nonce") != lease.nonce:
            self._put_back(stash, lease_path)  # a thief's live lease
        else:
            _unlink(stash)

    # ------------------------------------------------------------------
    # Retry budget
    # ------------------------------------------------------------------

    def failed_attempts(self, key: str) -> int:
        """Failed attempts recorded for a task (0 when it never failed)."""
        marker = self._read_json(self._retry_path(key))
        if marker is None:
            return 0
        return int(marker.get("attempts", 0))

    def record_failed_attempt(self, key: str, error: str) -> int:
        """Record one more failed attempt; returns the new count.

        Only the lease holder calls this (the lease makes it exclusive),
        so a plain atomic replace is race-free.  The marker keeps the last
        error so ``status`` can explain retries even after a later attempt
        succeeds.
        """
        attempts = self.failed_attempts(key) + 1
        path = self._retry_path(key)
        tmp = f"{path}.tmp-{uuid.uuid4().hex}"
        with open(tmp, "w") as fh:
            json.dump({"attempts": attempts, "last_error": error,
                       "recorded_at": time.time()}, fh)
        os.replace(tmp, path)
        return attempts

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _task_keys(self) -> set:
        return {self._key_of(name)
                for name in os.listdir(self.tasks_dir) if name.endswith(".task")}

    def _done_keys(self) -> set:
        return {name[:-len(".done")]
                for name in os.listdir(self.done_dir) if name.endswith(".done")}

    def counts(self) -> Dict[str, int]:
        """Queue state: pending / running / done / failed task counts."""
        keys = self._task_keys()
        done = failed = 0
        done_keys = self._done_keys() & keys
        for key in done_keys:
            marker = self._read_json(self._done_path(key))
            # An existing-but-unparseable marker still counts as done — it
            # must agree with claim(), which skips any existing marker.
            if marker is not None and marker.get("error"):
                failed += 1
            else:
                done += 1
        now = time.time()
        running = 0
        for key in keys - done_keys:
            lease = self._read_json(self._lease_path(key))
            if lease is not None and lease.get("expires_at", 0.0) > now:
                running += 1
        return {"tasks": len(keys), "pending": len(keys) - len(done_keys) - running,
                "running": running, "done": done, "failed": failed}

    def drained(self) -> bool:
        """True once every enqueued task has a done marker.

        Two directory listings, no file reads — workers poll this in their
        idle loop, so it must stay cheap even on large shared queues.
        """
        return self._task_keys() <= self._done_keys()

    def failures(self) -> List[Tuple[str, str]]:
        """(key, error) for every task that finished with an error."""
        out = []
        for name in sorted(os.listdir(self.done_dir)):
            if not name.endswith(".done"):
                continue
            marker = self._read_json(os.path.join(self.done_dir, name))
            if marker and marker.get("error"):
                out.append((name[:-len(".done")], marker["error"]))
        return out


@dataclass
class WorkerStats:
    """What one worker did over its lifetime."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    lost_leases: int = 0
    elapsed_s: float = 0.0
    heartbeat_renewals: int = 0
    errors: List[str] = field(default_factory=list)


class QueueWorker:
    """Claim-execute-commit loop over a :class:`WorkQueue` + result store.

    While a point executes, a daemon heartbeat thread renews the lease every
    ``lease_ttl / 3`` seconds; if renewal reports the lease stolen, the
    result is discarded (not committed, not marked done) and the stealer's
    execution stands.  The loop exits when the queue is drained, after
    ``max_points`` terminal points (completions or final failures — retried
    attempts do not count), or after ``idle_timeout`` seconds without
    claimable work.

    ``retries`` is the budget for flaky points: a point that raises is
    re-queued (its failed attempt recorded in the queue's ``retries/``
    markers) up to ``retries`` times before the failure becomes final, and
    the attempt number that finally succeeded is written to the store's
    provenance columns.
    """

    def __init__(
        self,
        queue: WorkQueue,
        store: Optional[ResultStore] = None,
        worker_id: Optional[str] = None,
        lease_ttl: float = 60.0,
        poll_interval: float = 0.2,
        max_points: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        if retries < 0:
            raise ValueError("retries cannot be negative")
        self.queue = queue
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.max_points = max_points
        self.idle_timeout = idle_timeout
        self.retries = retries
        self._spans = active_span_recorder()

    def _execute_leased(self, lease: Lease) -> Tuple[SweepResult, bool, int]:
        """Run the point under heartbeat renewal.

        Returns ``(result, lost, renewals)`` — ``renewals`` being how many
        times the heartbeat extended the lease, a direct read on how close
        the point came to the ``lease_ttl`` steal horizon.
        """
        stop = threading.Event()
        lost = threading.Event()
        renewals = [0]

        def heartbeat() -> None:
            while not stop.wait(self.lease_ttl / 3.0):
                try:
                    self.queue.renew(lease, ttl=self.lease_ttl)
                    renewals[0] += 1
                except LeaseLost:
                    lost.set()
                    return

        thread = threading.Thread(target=heartbeat, daemon=True)
        thread.start()
        try:
            result = execute_spec(lease.spec, capture_errors=True)
        finally:
            stop.set()
            thread.join()
        return result, lost.is_set(), renewals[0]

    def run(self) -> WorkerStats:
        stats = WorkerStats(worker_id=self.worker_id)
        idle_since: Optional[float] = None
        claim_started = time.time()
        while True:
            # max_points bounds *terminal* outcomes (completions and final
            # failures): a retried claim must not consume the budget, or a
            # flaky first point could exhaust it with nothing finished.
            if (self.max_points is not None
                    and stats.completed + stats.failed >= self.max_points):
                break
            lease = self.queue.claim(self.worker_id, ttl=self.lease_ttl)
            if lease is None:
                if self.queue.drained():
                    break
                now = time.time()
                idle_since = idle_since or now
                if self.idle_timeout is not None and now - idle_since >= self.idle_timeout:
                    break
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            stats.claimed += 1
            claim_latency = time.time() - claim_started
            spans = self._spans
            point_span = exec_span = None
            if spans is not None:
                point_span = spans.start(
                    "worker.point", ts=time.time(),
                    attrs={"experiment": lease.spec.experiment,
                           "key": lease.key, "worker": self.worker_id})
                exec_span = spans.start("worker.execute", parent=point_span,
                                        ts=time.time())
            attempt = self.queue.failed_attempts(lease.key) + 1
            result, lost, renewals = self._execute_leased(lease)
            stats.heartbeat_renewals += renewals
            if spans is not None and exec_span is not None:
                spans.finish(exec_span, ts=time.time(),
                             status="error" if result.error else "ok")
            # The operational half of the point's provenance: how long the
            # claim waited, how hard the heartbeat worked, and what the
            # process footprint was when the point finished.
            worker_row = {
                "worker_id": self.worker_id,
                "experiment": lease.spec.experiment,
                "cache_key": lease.key,
                "attempt": attempt,
                "claim_latency_s": round(claim_latency, 6),
                "heartbeat_renewals": renewals,
                "elapsed_s": result.elapsed_s,
                "rss_kb": _rss_kb(),
                "outcome": "completed",
                "error": bool(result.error),
            }
            committed = False
            outcome = "completed"
            if lost:
                stats.lost_leases += 1
                outcome = "lost_lease"
            elif result.error is not None and attempt <= self.retries:
                stats.elapsed_s += result.elapsed_s
                # The heartbeat may not have observed a steal that happened
                # after its last renewal; re-check ownership so a stolen
                # lease is neither charged a failed attempt nor reopened
                # under the thief's feet.
                if not self.queue.owns(lease):
                    stats.lost_leases += 1
                    outcome = "lost_lease"
                else:
                    # Spend one unit of the retry budget: record the failed
                    # attempt and put the task back in the pending state.
                    self.queue.record_failed_attempt(lease.key, result.error)
                    self.queue.release(lease)
                    stats.retried += 1
                    outcome = "retried"
            else:
                commit_span = None
                if spans is not None:
                    commit_span = spans.start("worker.commit",
                                              parent=point_span, ts=time.time())
                if result.error is None and self.store is not None:
                    # The point, its rows and the worker row commit in one
                    # transaction, before complete() publishes the done
                    # marker: a crash in between re-executes the point, it
                    # never loses it.
                    self.store.put_result(result, worker_id=self.worker_id,
                                          attempt=attempt, worker_row=worker_row)
                    committed = True
                if self.queue.complete(lease, elapsed_s=result.elapsed_s,
                                       error=result.error, attempts=attempt):
                    if result.error is None:
                        stats.completed += 1
                    else:
                        stats.failed += 1
                        stats.errors.append(result.error)
                        outcome = "failed"
                else:
                    outcome = "already_done"
                if spans is not None and commit_span is not None:
                    spans.finish(commit_span, ts=time.time())
                stats.elapsed_s += result.elapsed_s
            if spans is not None and point_span is not None:
                spans.finish(
                    point_span, ts=time.time(),
                    status="ok" if outcome in ("completed", "already_done")
                    else outcome)
            if self.store is not None:
                if not committed:
                    worker_row["outcome"] = outcome
                    self.store.put_worker_rows([worker_row])
                elif outcome != "completed":
                    # Another execution published first; the row committed
                    # with this one still says what happened to it.
                    self.store.set_worker_outcome(self.worker_id, lease.key,
                                                  outcome)
            claim_started = time.time()
        return stats


# ---------------------------------------------------------------------------
# CLI (fronted by ``netfence-experiment submit|worker|export|status``)
# ---------------------------------------------------------------------------

def _build_specs(experiments: Dict[str, Any], name: str, quick: bool,
                 points: Optional[int]) -> Dict[str, List[ScenarioSpec]]:
    names = sorted(experiments) if name == "all" else [name]
    grids = {}
    for exp_name in names:
        specs = experiments[exp_name].build_grid(quick)
        if points is not None:
            specs = specs[:points]
        grids[exp_name] = specs
    return grids


def _cmd_submit(args: argparse.Namespace, experiments: Dict[str, Any]) -> int:
    queue = WorkQueue(args.queue)
    grids = _build_specs(experiments, args.experiment, args.quick, args.points)
    for exp_name, specs in grids.items():
        enqueued = queue.submit(specs)
        print(f"{exp_name}: enqueued {enqueued}/{len(specs)} points "
              f"({len(specs) - enqueued} already queued or done)")
    counts = queue.counts()
    print(f"queue {args.queue}: {counts['pending']} pending, "
          f"{counts['done']} done, {counts['failed']} failed")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    queue = WorkQueue(args.queue)
    store = ResultStore(args.store) if args.store else None
    spans = SpanRecorder(capacity=16384) if args.spans else None
    log = JsonLinesLogger(name="worker") if args.json else None

    def _make_and_run() -> WorkerStats:
        worker = QueueWorker(
            queue, store=store, worker_id=args.worker_id,
            lease_ttl=args.lease_ttl, max_points=args.max_points,
            idle_timeout=args.idle_timeout, retries=args.retries,
        )
        return worker.run()

    if spans is not None:
        with use_span_recorder(spans):
            stats = _make_and_run()
    else:
        stats = _make_and_run()

    if log is not None:
        if spans is not None:
            for record in spans.to_dicts():
                log.span_record(record)
        log.emit("worker_stats", worker_id=stats.worker_id,
                 claimed=stats.claimed, completed=stats.completed,
                 failed=stats.failed, retried=stats.retried,
                 lost_leases=stats.lost_leases,
                 heartbeat_renewals=stats.heartbeat_renewals,
                 elapsed_s=round(stats.elapsed_s, 3))
    else:
        print(f"worker {stats.worker_id}: {stats.completed} completed, "
              f"{stats.failed} failed, {stats.retried} retried, "
              f"{stats.lost_leases} leases lost, "
              f"{stats.elapsed_s:.1f}s simulated-point wall time")
    for error in stats.errors:
        print(error.rstrip(), file=sys.stderr)
    return 1 if stats.failed else 0


def _parse_where(clauses: List[str]) -> Dict[str, Any]:
    predicates: Dict[str, Any] = {}
    for clause in clauses:
        if "=" not in clause:
            raise SystemExit(f"--where expects field=value, got {clause!r}")
        key, _, raw = clause.partition("=")
        try:
            predicates[key] = json.loads(raw)
        except json.JSONDecodeError:
            predicates[key] = raw
    return predicates


def _cmd_export(args: argparse.Namespace, experiments: Dict[str, Any]) -> int:
    store = ResultStore(args.store)
    where = _parse_where(args.where or [])
    grids = _build_specs(experiments, args.experiment, args.quick, args.points)
    payload: List[Dict[str, Any]] = []
    rows_by_experiment: Dict[str, List[Any]] = {}
    failures = 0
    for exp_name, specs in grids.items():
        rows, missing = store.fetch_specs(specs)
        if missing and not args.allow_missing:
            print(f"{exp_name}: store {args.store} is missing "
                  f"{len(missing)}/{len(specs)} grid points, e.g. "
                  f"{missing[0].describe()}", file=sys.stderr)
            failures += 1
            continue
        if where:
            rows = [row for row in rows
                    if all(row_to_dict(row).get(k) == v for k, v in where.items())]
        payload.append({"experiment": exp_name, "points": len(specs),
                        "missing": len(missing), "rows": rows_to_dicts(rows)})
        rows_by_experiment[exp_name] = rows
    if failures:
        return 1
    text = _format_export(args, experiments, payload, rows_by_experiment)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _format_export(args: argparse.Namespace, experiments: Dict[str, Any],
                   payload: List[Dict[str, Any]],
                   rows_by_experiment: Dict[str, List[Any]]) -> str:
    if args.format == "json":
        return json.dumps(json_safe(payload), indent=2, sort_keys=True,
                          default=str, allow_nan=False) + "\n"
    merged = [row for entry in payload
              for row in rows_by_experiment[entry["experiment"]]]
    if args.format == "csv":
        return rows_to_csv(merged)
    # table: reuse each experiment's paper-style formatter
    chunks = [experiments[entry["experiment"]].format_rows(
        rows_by_experiment[entry["experiment"]]) for entry in payload]
    return "\n".join(chunks) + ("\n" if chunks else "")


def _cmd_compact(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    stats = store.compact()
    saved = stats["bytes_before"] - stats["bytes_after"]
    print(f"store {args.store}: removed {stats['removed_executions']} superseded "
          f"execution(s) ({stats['removed_rows']} rows), kept "
          f"{stats['kept_points']} latest point(s), "
          f"{stats['bytes_before']} -> {stats['bytes_after']} bytes "
          f"({saved} reclaimed)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    if args.queue:
        counts = WorkQueue(args.queue).counts()
        print(f"queue {args.queue}: {counts['tasks']} tasks — "
              f"{counts['pending']} pending, {counts['running']} running, "
              f"{counts['done']} done, {counts['failed']} failed")
        for key, error in WorkQueue(args.queue).failures():
            print(f"  failed {key}: {error.strip().splitlines()[-1]}")
    if args.store:
        store = ResultStore(args.store)
        summary = store.summary()
        if not summary:
            print(f"store {args.store}: empty")
        for entry in summary:
            print(f"store {entry['experiment']}: {entry['points']} points "
                  f"({entry['executions']} executions), {entry['rows']} rows, "
                  f"{entry['total_elapsed_s']:.1f}s total point wall time, "
                  f"{entry['workers']} worker(s)")
    if not args.queue and not args.store:
        raise SystemExit("status needs --queue and/or --store")
    return 0


def cli_main(argv: List[str], experiments: Dict[str, Any]) -> int:
    """Entry point for the distributed subcommands of ``netfence-experiment``.

    ``experiments`` is the runner's registry (name -> ExperimentDef), passed
    in so this module needs no import of :mod:`repro.experiments.runner`.
    """
    parser = argparse.ArgumentParser(
        prog="netfence-experiment",
        description="Distributed sweep execution over a shared queue + result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    exp_choices = sorted(experiments) + ["all"]

    p_submit = sub.add_parser("submit", help="enqueue an experiment grid")
    p_submit.add_argument("experiment", choices=exp_choices)
    p_submit.add_argument("--quick", action="store_true")
    p_submit.add_argument("--points", type=int, default=None, metavar="N")
    p_submit.add_argument("--queue", required=True, metavar="DIR")

    p_worker = sub.add_parser("worker", help="claim and execute queued points")
    p_worker.add_argument("--queue", required=True, metavar="DIR")
    p_worker.add_argument("--store", required=True, metavar="PATH")
    p_worker.add_argument("--worker-id", default=None)
    p_worker.add_argument("--lease-ttl", type=float, default=60.0, metavar="S")
    p_worker.add_argument("--max-points", type=int, default=None, metavar="N")
    p_worker.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                          help="exit after S seconds with no claimable work "
                               "(default: exit only when the queue drains)")
    p_worker.add_argument("--retries", type=int, default=1, metavar="N",
                          help="re-queue a raising point up to N times before "
                               "its failure becomes final (default 1)")
    p_worker.add_argument("--spans", action="store_true",
                          help="record claim/execute/commit spans per point")
    p_worker.add_argument("--json", action="store_true",
                          help="machine-readable JSON-lines output "
                               "(includes spans with --spans)")

    p_export = sub.add_parser("export", help="export stored rows for a grid")
    p_export.add_argument("experiment", choices=exp_choices)
    p_export.add_argument("--quick", action="store_true")
    p_export.add_argument("--points", type=int, default=None, metavar="N")
    p_export.add_argument("--store", required=True, metavar="PATH")
    p_export.add_argument("--format", choices=("table", "json", "csv"),
                          default="table")
    p_export.add_argument("--where", action="append", metavar="FIELD=VALUE",
                          help="keep only rows whose field equals VALUE "
                               "(JSON literal or bare string; repeatable)")
    p_export.add_argument("--allow-missing", action="store_true",
                          help="export whatever subset the store holds")
    p_export.add_argument("--out", default=None, metavar="FILE")

    p_status = sub.add_parser("status", help="show queue and store state")
    p_status.add_argument("--queue", default=None, metavar="DIR")
    p_status.add_argument("--store", default=None, metavar="PATH")

    p_compact = sub.add_parser(
        "compact", help="drop superseded store executions and VACUUM")
    p_compact.add_argument("--store", required=True, metavar="PATH")

    args = parser.parse_args(argv)
    if args.command == "submit":
        return _cmd_submit(args, experiments)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "export":
        return _cmd_export(args, experiments)
    if args.command == "compact":
        return _cmd_compact(args)
    return _cmd_status(args)
