"""SQLite-backed, append-only store for executed sweep points.

Layout (one database file, shared by any number of workers)::

    points      one record per *execution* of a grid point: the spec identity
                (experiment, params JSON, seed, cache_key), the row-schema
                fingerprint, a pickle of the typed row list, per-point wall
                time, the committing worker id, and a timestamp.
    point_rows  one JSON record per result row, flattened for SQL-side
                filtering and for readers that do not import the row classes.
    worker_rows one telemetry record per point a queue worker handled
                (claim latency, heartbeats, RSS, outcome); a successful
                point's record commits in the same transaction as the point.

The store is **append-only**: re-executing a point inserts a new ``points``
record rather than overwriting the old one, so the database doubles as a
perf trajectory (wall time per point over time, per worker).  Readers that
want "the" result of a point take the newest record for its cache key.

Reads of typed rows are checked for staleness: the row-schema fingerprint
recorded at write time must match the fingerprint recomputed from the
unpickled rows against the currently imported classes, otherwise the record
is treated as missing (``get`` returns ``None``).  Unpickling bypasses
``__init__``, so without the check a row dataclass that gained or lost a
field would be served as a silently stale object.  The flattened JSON rows
remain queryable either way.

Concurrency: every public method opens its own short-lived connection, so
one ``ResultStore`` object may be shared across threads, and any number of
processes (``runner worker`` fleets included) may point at the same file —
SQLite's locking serializes the commits.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.rows import json_safe, row_schema, rows_to_dicts
from repro.experiments.sweep import ScenarioSpec, SweepResult, default_worker_id

__all__ = ["PointRecord", "ResultStore", "default_worker_id"]

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS points (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    cache_key   TEXT    NOT NULL,
    experiment  TEXT    NOT NULL,
    params_json TEXT    NOT NULL,
    seed        INTEGER NOT NULL,
    row_schema  TEXT    NOT NULL,
    rows_blob   BLOB    NOT NULL,
    num_rows    INTEGER NOT NULL,
    elapsed_s   REAL    NOT NULL,
    worker_id   TEXT    NOT NULL,
    created_at  REAL    NOT NULL,
    attempt     INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS idx_points_cache_key  ON points (cache_key, id);
CREATE INDEX IF NOT EXISTS idx_points_experiment ON points (experiment, id);
CREATE TABLE IF NOT EXISTS point_rows (
    point_id  INTEGER NOT NULL REFERENCES points (id),
    row_index INTEGER NOT NULL,
    data      TEXT    NOT NULL,
    PRIMARY KEY (point_id, row_index)
);
CREATE TABLE IF NOT EXISTS metric_rows (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment  TEXT    NOT NULL,
    cache_key   TEXT    NOT NULL,
    name        TEXT    NOT NULL,
    labels_json TEXT    NOT NULL,
    kind        TEXT    NOT NULL,
    value       REAL    NOT NULL,
    data        TEXT    NOT NULL,
    recorded_at REAL,
    created_at  REAL    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_metric_rows_point
    ON metric_rows (experiment, cache_key, id);
CREATE TABLE IF NOT EXISTS worker_rows (
    id                 INTEGER PRIMARY KEY AUTOINCREMENT,
    worker_id          TEXT    NOT NULL,
    experiment         TEXT    NOT NULL,
    cache_key          TEXT    NOT NULL,
    attempt            INTEGER NOT NULL DEFAULT 1,
    claim_latency_s    REAL,
    heartbeat_renewals INTEGER NOT NULL DEFAULT 0,
    elapsed_s          REAL,
    rss_kb             INTEGER,
    data               TEXT    NOT NULL,
    created_at         REAL    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_worker_rows_worker ON worker_rows (worker_id, id);
CREATE INDEX IF NOT EXISTS idx_worker_rows_exp    ON worker_rows (experiment, id);
"""


@dataclass(frozen=True)
class PointRecord:
    """Metadata of one stored execution (no row payload)."""

    point_id: int
    cache_key: str
    experiment: str
    params: Dict[str, Any]
    seed: int
    num_rows: int
    elapsed_s: float
    worker_id: str
    created_at: float
    #: Which execution attempt produced this record (> 1 after queue retries).
    attempt: int = 1


def _params_json(spec: ScenarioSpec) -> str:
    """Spec params as canonical JSON (frozen tuples become lists)."""
    return json.dumps(json_safe(spec.kwargs), sort_keys=True, default=repr)


_INSERT_WORKER_ROWS = (
    "INSERT INTO worker_rows (worker_id, experiment, cache_key,"
    " attempt, claim_latency_s, heartbeat_renewals, elapsed_s,"
    " rss_kb, data, created_at)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


def _worker_payload(rows: Sequence[Dict[str, Any]],
                    default_worker: str) -> List[Tuple[Any, ...]]:
    """``worker_rows`` parameter tuples: typed columns plus the JSON row."""
    created = time.time()
    payload = []
    for row in rows:
        claim = row.get("claim_latency_s")
        elapsed = row.get("elapsed_s")
        rss = row.get("rss_kb")
        payload.append((
            str(row.get("worker_id", default_worker)),
            str(row.get("experiment", "")),
            str(row.get("cache_key", "")),
            int(row.get("attempt", 1)),
            float(claim) if claim is not None else None,
            int(row.get("heartbeat_renewals", 0)),
            float(elapsed) if elapsed is not None else None,
            int(rss) if rss is not None else None,
            json.dumps(json_safe(row), sort_keys=True),
            created,
        ))
    return payload


class ResultStore:
    """Append-only SQLite result store keyed by ``ScenarioSpec.cache_key()``.

    ``run_sweep(cache=store)`` serves finished points through :meth:`get`
    and commits new ones through :meth:`put_result`, which also records
    per-point wall time and the committing worker id.
    """

    #: Bump to segregate databases when the on-disk layout changes.
    VERSION = 1

    def __init__(self, path: str, worker_id: Optional[str] = None) -> None:
        self.path = os.path.abspath(path)
        self.worker_id = worker_id or default_worker_id()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with contextlib.closing(self._connect()) as conn, conn:
            conn.executescript(_SCHEMA_SQL)
            # Databases written before the retry-budget provenance column
            # existed are migrated in place (the default backfills attempt 1).
            columns = {row["name"] for row in conn.execute("PRAGMA table_info(points)")}
            if "attempt" not in columns:
                conn.execute(
                    "ALTER TABLE points ADD COLUMN attempt INTEGER NOT NULL DEFAULT 1")

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        return conn

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put_result(self, result: SweepResult, worker_id: Optional[str] = None,
                   attempt: int = 1,
                   worker_row: Optional[Dict[str, Any]] = None) -> int:
        """Append one executed point; returns the new ``points`` record id.

        ``attempt`` records which execution attempt succeeded — the retry
        budget of :class:`~repro.experiments.distrib.QueueWorker` passes
        values > 1 when a flaky point needed re-queuing.  ``worker_row`` is
        the committing worker's telemetry row for this point (the shape
        :meth:`put_worker_rows` takes); it is written in the same
        transaction, so the point and its telemetry commit together or not
        at all.
        """
        if result.error is not None:
            raise ValueError(
                f"refusing to store a failed point: {result.spec.describe()}")
        worker_id = worker_id or result.worker_id or self.worker_id
        return self._append(
            result.spec,
            result.rows,
            elapsed_s=result.elapsed_s,
            worker_id=worker_id,
            attempt=attempt,
            worker_rows=() if worker_row is None else [worker_row],
        )

    def put(self, spec: ScenarioSpec, rows: List[Any]) -> int:
        """Append one row list for ``spec`` (no timing / worker metadata)."""
        return self._append(spec, rows, elapsed_s=0.0, worker_id=self.worker_id)

    def _append(self, spec: ScenarioSpec, rows: List[Any], elapsed_s: float,
                worker_id: str, attempt: int = 1,
                worker_rows: Sequence[Dict[str, Any]] = ()) -> int:
        blob = pickle.dumps(rows)
        schema = repr(row_schema(rows))
        dict_rows = [json.dumps(json_safe(d), sort_keys=True, default=repr)
                     for d in rows_to_dicts(rows)]
        telemetry = _worker_payload(worker_rows, worker_id)
        with contextlib.closing(self._connect()) as conn, conn:
            cursor = conn.execute(
                "INSERT INTO points (cache_key, experiment, params_json, seed,"
                " row_schema, rows_blob, num_rows, elapsed_s, worker_id, created_at,"
                " attempt)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (spec.cache_key(), spec.experiment, _params_json(spec), spec.seed,
                 schema, blob, len(rows), elapsed_s, worker_id, time.time(), attempt),
            )
            point_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO point_rows (point_id, row_index, data) VALUES (?, ?, ?)",
                [(point_id, index, data) for index, data in enumerate(dict_rows)],
            )
            if telemetry:
                conn.executemany(_INSERT_WORKER_ROWS, telemetry)
        return point_id

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, spec: ScenarioSpec) -> Optional[List[Any]]:
        """Newest stored row list for the spec, or ``None``.

        A record whose row classes have since changed shape (stale schema
        fingerprint) or no longer resolve (unpickling fails) is treated as
        missing.
        """
        with contextlib.closing(self._connect()) as conn, conn:
            record = conn.execute(
                "SELECT row_schema, rows_blob FROM points WHERE cache_key = ?"
                " ORDER BY id DESC LIMIT 1",
                (spec.cache_key(),),
            ).fetchone()
        if record is None:
            return None
        try:
            rows = pickle.loads(record["rows_blob"])
        except Exception:
            return None  # row classes renamed/moved since this was written
        if repr(row_schema(rows)) != record["row_schema"]:
            return None
        return rows

    def point_records(self, experiment: Optional[str] = None,
                      latest_only: bool = False) -> List[PointRecord]:
        """Stored execution metadata, oldest first.

        ``latest_only`` keeps only the newest record per cache key — the
        view a dashboard of current results wants; the default keeps every
        execution — the view a perf trajectory wants.
        """
        query = ("SELECT id, cache_key, experiment, params_json, seed, num_rows,"
                 " elapsed_s, worker_id, created_at, attempt FROM points")
        args: Tuple[Any, ...] = ()
        if experiment is not None:
            query += " WHERE experiment = ?"
            args = (experiment,)
        query += " ORDER BY id"
        with contextlib.closing(self._connect()) as conn, conn:
            records = conn.execute(query, args).fetchall()
        if latest_only:
            newest: Dict[str, sqlite3.Row] = {}
            for record in records:
                newest[record["cache_key"]] = record
            records = sorted(newest.values(), key=lambda r: r["id"])
        return [
            PointRecord(
                point_id=r["id"], cache_key=r["cache_key"],
                experiment=r["experiment"], params=json.loads(r["params_json"]),
                seed=r["seed"], num_rows=r["num_rows"], elapsed_s=r["elapsed_s"],
                worker_id=r["worker_id"], created_at=r["created_at"],
                attempt=r["attempt"],
            )
            for r in records
        ]

    def query_rows(
        self,
        experiment: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
        latest_only: bool = True,
        meta: bool = False,
    ) -> List[Dict[str, Any]]:
        """Flattened result rows as dictionaries.

        ``params`` filters on spec parameters by equality (``{"system":
        "netfence"}``); ``where`` is an arbitrary predicate over the row
        dict.  With ``meta=True`` each row gains underscore-prefixed spec
        and provenance fields (``_experiment``, ``_seed``, ``_params``,
        ``_worker_id``, ``_elapsed_s``, ``_created_at``).  Rows are served
        from the flattened JSON table, so they remain readable even when
        the typed row classes have changed since the write.
        """
        records = self.point_records(experiment=experiment, latest_only=latest_only)
        if params:
            frozen = json.loads(json.dumps(json_safe(params), default=repr))
            records = [r for r in records
                       if all(r.params.get(k) == v for k, v in frozen.items())]
        if not records:
            return []
        ids = [r.point_id for r in records]
        by_id = {r.point_id: r for r in records}
        placeholders = ",".join("?" * len(ids))
        with contextlib.closing(self._connect()) as conn, conn:
            raw = conn.execute(
                f"SELECT point_id, row_index, data FROM point_rows"
                f" WHERE point_id IN ({placeholders})"
                f" ORDER BY point_id, row_index",
                ids,
            ).fetchall()
        out: List[Dict[str, Any]] = []
        for record in raw:
            row = json.loads(record["data"])
            if where is not None and not where(row):
                continue
            if meta:
                point = by_id[record["point_id"]]
                row.update(
                    _experiment=point.experiment, _seed=point.seed,
                    _params=point.params, _worker_id=point.worker_id,
                    _elapsed_s=point.elapsed_s, _created_at=point.created_at,
                    _attempt=point.attempt,
                )
            out.append(row)
        return out

    # ------------------------------------------------------------------
    # Metric rows (repro.obs bridge)
    # ------------------------------------------------------------------

    def put_metric_rows(
        self,
        experiment: str,
        cache_key: str,
        rows: Sequence[Dict[str, Any]],
        now: Optional[float] = None,
    ) -> int:
        """Append per-point metric summaries (see :mod:`repro.obs.export`).

        Each row is the ``metric_rows`` shape — ``{name, labels, kind,
        value, ...}`` — committed next to the experiment point it describes.
        ``now`` is the *telemetry* clock reading (simulated or wall); the
        wall-clock ``created_at`` provenance stamp is recorded separately.
        Returns the number of rows written.
        """
        created = time.time()
        payload = [
            (
                experiment,
                cache_key,
                str(row.get("name", "")),
                json.dumps(row.get("labels", {}), sort_keys=True),
                str(row.get("kind", "")),
                float(row.get("value", 0.0)),
                json.dumps(json_safe(row), sort_keys=True),
                now,
                created,
            )
            for row in rows
        ]
        with contextlib.closing(self._connect()) as conn, conn:
            conn.executemany(
                "INSERT INTO metric_rows (experiment, cache_key, name,"
                " labels_json, kind, value, data, recorded_at, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                payload,
            )
        return len(payload)

    def query_metric_rows(
        self,
        experiment: Optional[str] = None,
        cache_key: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Stored metric rows, oldest first, with provenance fields attached."""
        clauses, args = [], []
        for column, wanted in (("experiment", experiment),
                               ("cache_key", cache_key), ("name", name)):
            if wanted is not None:
                clauses.append(f"{column} = ?")
                args.append(wanted)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with contextlib.closing(self._connect()) as conn, conn:
            records = conn.execute(
                f"SELECT * FROM metric_rows{where} ORDER BY id", args
            ).fetchall()
        out: List[Dict[str, Any]] = []
        for record in records:
            row = json.loads(record["data"])
            row.update(
                _experiment=record["experiment"],
                _cache_key=record["cache_key"],
                _recorded_at=record["recorded_at"],
                _created_at=record["created_at"],
            )
            out.append(row)
        return out

    # ------------------------------------------------------------------
    # Worker fleet telemetry
    # ------------------------------------------------------------------

    def put_worker_rows(
        self,
        rows: Sequence[Dict[str, Any]],
        worker_id: Optional[str] = None,
    ) -> int:
        """Append per-point worker telemetry (claim latency, heartbeats, RSS).

        Each row describes one point execution as seen from the worker's
        side of the queue — the operational half that ``points`` provenance
        does not capture.  Recognized keys become typed columns
        (``experiment``, ``cache_key``, ``attempt``, ``claim_latency_s``,
        ``heartbeat_renewals``, ``elapsed_s``, ``rss_kb``); the full row is
        preserved as JSON for anything else (steals, retries, lease nonce).
        Returns the number of rows written.
        """
        payload = _worker_payload(rows, worker_id or self.worker_id)
        with contextlib.closing(self._connect()) as conn, conn:
            conn.executemany(_INSERT_WORKER_ROWS, payload)
        return len(payload)

    def set_worker_outcome(self, worker_id: str, cache_key: str,
                           outcome: str) -> None:
        """Rewrite the ``outcome`` of a worker's newest row for a point.

        A worker commits its telemetry row with the point it executed,
        before it learns whether its done marker won; when another
        execution finished first, this relabels the row it already wrote.
        """
        with contextlib.closing(self._connect()) as conn, conn:
            record = conn.execute(
                "SELECT id, data FROM worker_rows WHERE worker_id = ?"
                " AND cache_key = ? ORDER BY id DESC LIMIT 1",
                (worker_id, cache_key),
            ).fetchone()
            if record is None:
                return
            row = json.loads(record["data"])
            row["outcome"] = outcome
            conn.execute("UPDATE worker_rows SET data = ? WHERE id = ?",
                         (json.dumps(row, sort_keys=True), record["id"]))

    def query_worker_rows(
        self,
        experiment: Optional[str] = None,
        worker_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Stored worker telemetry rows, oldest first."""
        clauses, args = [], []
        for column, wanted in (("experiment", experiment),
                               ("worker_id", worker_id)):
            if wanted is not None:
                clauses.append(f"{column} = ?")
                args.append(wanted)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with contextlib.closing(self._connect()) as conn, conn:
            records = conn.execute(
                f"SELECT * FROM worker_rows{where} ORDER BY id", args
            ).fetchall()
        out: List[Dict[str, Any]] = []
        for record in records:
            row = json.loads(record["data"])
            row.update(
                _worker_id=record["worker_id"],
                _experiment=record["experiment"],
                _cache_key=record["cache_key"],
                _created_at=record["created_at"],
            )
            out.append(row)
        return out

    def fleet_summary(self) -> List[Dict[str, Any]]:
        """Per-worker aggregates for ``/api/fleet`` on the dashboard."""
        with contextlib.closing(self._connect()) as conn, conn:
            records = conn.execute(
                "SELECT worker_id,"
                " COUNT(*) AS points,"
                " SUM(CASE WHEN attempt > 1 THEN 1 ELSE 0 END) AS retried_points,"
                " AVG(claim_latency_s) AS avg_claim_latency_s,"
                " MAX(claim_latency_s) AS max_claim_latency_s,"
                " SUM(heartbeat_renewals) AS heartbeat_renewals,"
                " SUM(elapsed_s) AS total_elapsed_s,"
                " MAX(rss_kb) AS max_rss_kb,"
                " MAX(created_at) AS last_seen"
                " FROM worker_rows GROUP BY worker_id ORDER BY worker_id"
            ).fetchall()
        return [dict(r) for r in records]

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------

    def experiments(self) -> List[str]:
        with contextlib.closing(self._connect()) as conn, conn:
            records = conn.execute(
                "SELECT DISTINCT experiment FROM points ORDER BY experiment"
            ).fetchall()
        return [r["experiment"] for r in records]

    def summary(self) -> List[Dict[str, Any]]:
        """Per-experiment totals for ``runner status`` and dashboards."""
        with contextlib.closing(self._connect()) as conn, conn:
            records = conn.execute(
                "SELECT experiment,"
                " COUNT(DISTINCT cache_key) AS points,"
                " COUNT(*) AS executions,"
                " SUM(num_rows) AS rows,"
                " SUM(elapsed_s) AS total_elapsed_s,"
                " COUNT(DISTINCT worker_id) AS workers,"
                " MAX(created_at) AS last_written"
                " FROM points GROUP BY experiment ORDER BY experiment"
            ).fetchall()
        return [dict(r) for r in records]

    def perf_trajectory(self, experiment: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every execution's wall time, oldest first — profiling feedstock."""
        return [
            {"experiment": r.experiment, "cache_key": r.cache_key, "seed": r.seed,
             "params": r.params, "elapsed_s": r.elapsed_s, "worker_id": r.worker_id,
             "created_at": r.created_at, "attempt": r.attempt}
            for r in self.point_records(experiment=experiment, latest_only=False)
        ]

    def fetch_specs(self, specs: Sequence[ScenarioSpec]) -> Tuple[List[Any], List[ScenarioSpec]]:
        """Merged typed rows for ``specs`` in spec order, plus missing specs.

        This is the read side of the acceptance contract: after any number
        of workers filled the store, fetching a grid in its declared order
        reproduces the exact merged row list a single-process ``run_sweep``
        of that grid returns.
        """
        merged: List[Any] = []
        missing: List[ScenarioSpec] = []
        for spec in specs:
            rows = self.get(spec)
            if rows is None:
                missing.append(spec)
            else:
                merged.extend(rows)
        return merged, missing

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Garbage-collect superseded executions and shrink the database.

        Keeps only the newest ``points`` record per cache key (the record
        every read path serves), deletes the older executions and their
        flattened rows, then ``VACUUM``\\ s the file.  This trades the perf
        trajectory of the dropped executions for disk space — run it when
        the append-only history has served its purpose.
        """
        bytes_before = os.path.getsize(self.path)
        with contextlib.closing(self._connect()) as conn:
            with conn:
                removed_rows = conn.execute(
                    "DELETE FROM point_rows WHERE point_id NOT IN"
                    " (SELECT MAX(id) FROM points GROUP BY cache_key)"
                ).rowcount
                removed = conn.execute(
                    "DELETE FROM points WHERE id NOT IN"
                    " (SELECT MAX(id) FROM points GROUP BY cache_key)"
                ).rowcount
                (kept,) = conn.execute("SELECT COUNT(*) FROM points").fetchone()
            # VACUUM must run outside the transaction the context opened.
            conn.execute("VACUUM")
        return {
            "removed_executions": removed,
            "removed_rows": removed_rows,
            "kept_points": kept,
            "bytes_before": bytes_before,
            "bytes_after": os.path.getsize(self.path),
        }
