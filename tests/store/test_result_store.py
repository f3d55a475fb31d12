"""Tests for the SQLite-backed, append-only sweep result store."""

import dataclasses as dc
import sqlite3
import time

import pytest

from repro.analysis.aggregate import dashboard_payload, group_reduce, pivot_table
from repro.analysis.rows import row_schema, rows_to_csv
from repro.experiments.sweep import ScenarioSpec, SweepResult, run_sweep
from repro.store import ResultStore


@dc.dataclass
class StoreRow:
    system: str
    scale: int
    goodput: float

    def as_tuple(self):
        return (self.system, self.scale, self.goodput)


def spec_for(seed=1, **params):
    return ScenarioSpec.make("_store_test", seed=seed, **params)


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "results.sqlite"), worker_id="w-test")


# ---------------------------------------------------------------------------
# Round trip + append-only semantics
# ---------------------------------------------------------------------------

def test_get_returns_none_for_unknown_spec(store):
    assert store.get(spec_for(scale=1)) is None


def test_put_get_round_trips_typed_rows(store):
    spec = spec_for(scale=25, system="netfence")
    rows = [StoreRow("netfence", 25, 0.91), StoreRow("netfence", 25, 0.88)]
    store.put(spec, rows)
    fetched = store.get(spec)
    assert fetched == rows
    assert [type(row) for row in fetched] == [StoreRow, StoreRow]


def test_append_only_newest_record_wins(store):
    spec = spec_for(scale=50)
    store.put(spec, [StoreRow("netfence", 50, 0.5)])
    store.put(spec, [StoreRow("netfence", 50, 0.7)])
    assert store.get(spec) == [StoreRow("netfence", 50, 0.7)]
    records = store.point_records()
    assert len(records) == 2  # both executions kept — the perf trajectory
    assert len(store.point_records(latest_only=True)) == 1


def test_put_result_records_timing_and_worker(store):
    spec = spec_for(scale=100)
    result = SweepResult(spec=spec, rows=[StoreRow("fq", 100, 0.3)],
                         elapsed_s=1.25, worker_id="hostA:42")
    store.put_result(result)
    (record,) = store.point_records()
    assert record.experiment == "_store_test"
    assert record.seed == 1
    assert record.params == {"scale": 100}
    assert record.elapsed_s == 1.25
    assert record.worker_id == "hostA:42"
    assert record.num_rows == 1
    assert record.created_at <= time.time()


def test_put_result_refuses_failed_points(store):
    result = SweepResult(spec=spec_for(), rows=[], error="Traceback ...")
    with pytest.raises(ValueError):
        store.put_result(result)


def test_stored_schema_fingerprint_matches_shared_helper(store):
    spec = spec_for(scale=7)
    rows = [StoreRow("netfence", 7, 0.9)]
    store.put(spec, rows)
    with sqlite3.connect(store.path) as conn:
        (stored,) = conn.execute("SELECT row_schema FROM points").fetchone()
    assert stored == repr(row_schema(rows))


# ---------------------------------------------------------------------------
# Query / aggregation API
# ---------------------------------------------------------------------------

@pytest.fixture
def filled(store):
    for system in ("netfence", "fq"):
        for scale in (25, 50):
            spec = spec_for(system=system, scale=scale)
            store.put_result(SweepResult(
                spec=spec, rows=[StoreRow(system, scale, 0.9 if system == "netfence" else 0.4)],
                elapsed_s=0.5, worker_id="w-test"))
    return store


def test_query_rows_filters_by_experiment_and_params(filled):
    rows = filled.query_rows(experiment="_store_test")
    assert len(rows) == 4
    netfence = filled.query_rows(experiment="_store_test",
                                 params={"system": "netfence"})
    assert {row["system"] for row in netfence} == {"netfence"}
    assert filled.query_rows(experiment="nope") == []


def test_query_rows_predicate_and_meta(filled):
    rows = filled.query_rows(where=lambda row: row["scale"] == 50, meta=True)
    assert len(rows) == 2
    for row in rows:
        assert row["scale"] == 50
        assert row["_experiment"] == "_store_test"
        assert row["_worker_id"] == "w-test"
        assert row["_elapsed_s"] == 0.5
        assert row["_params"]["scale"] == 50


def test_summary_and_perf_trajectory(filled):
    (entry,) = filled.summary()
    assert entry["experiment"] == "_store_test"
    assert entry["points"] == 4
    assert entry["executions"] == 4
    assert entry["rows"] == 4
    assert entry["total_elapsed_s"] == pytest.approx(2.0)
    assert entry["workers"] == 1
    trajectory = filled.perf_trajectory()
    assert [p["elapsed_s"] for p in trajectory] == [0.5] * 4
    assert all(p["worker_id"] == "w-test" for p in trajectory)


def test_fetch_specs_preserves_spec_order_and_reports_missing(filled):
    specs = [spec_for(system="fq", scale=50), spec_for(system="netfence", scale=25),
             spec_for(system="netfence", scale=999)]
    merged, missing = filled.fetch_specs(specs)
    assert [row.as_tuple() for row in merged] == [("fq", 50, 0.4), ("netfence", 25, 0.9)]
    assert missing == [specs[2]]


def test_group_reduce_and_pivot_views(filled):
    rows = filled.query_rows(experiment="_store_test")
    reduced = group_reduce(rows, by=["system"], value="goodput", agg="mean")
    by_system = {entry["system"]: entry for entry in reduced}
    assert by_system["netfence"]["mean_goodput"] == pytest.approx(0.9)
    assert by_system["fq"]["n"] == 2
    pivot = pivot_table(rows, index="scale", column="system", value="goodput")
    assert pivot["index_values"] == [25, 50]
    series = {s["name"]: s["values"] for s in pivot["series"]}
    assert series["fq"] == [pytest.approx(0.4), pytest.approx(0.4)]


def test_dashboard_payload_attaches_provenance(filled):
    payload = dashboard_payload(filled, "_store_test", index="scale",
                                column="system", value="goodput",
                                params={"system": "netfence"})
    assert payload["experiment"] == "_store_test"
    assert payload["rows"] == 2
    assert payload["store_path"] == filled.path
    assert [s["name"] for s in payload["series"]] == ["netfence"]


def test_rows_to_csv_header_and_values(filled):
    text = rows_to_csv([StoreRow("netfence", 25, 0.9)])
    assert text.splitlines() == ["system,scale,goodput", "netfence,25,0.9"]


# ---------------------------------------------------------------------------
# Staleness + sweep integration
# ---------------------------------------------------------------------------

def test_get_rejects_rows_stored_under_a_stale_schema(store):
    """A row class that changed shape since the write must be a miss."""
    import repro.store.result_store as store_mod

    @dc.dataclass
    class _Row:
        value: int

    _Row.__qualname__ = "_StoreSchemaRow"
    _Row.__module__ = store_mod.__name__
    store_mod._StoreSchemaRow = _Row
    try:
        spec = spec_for(scale=11)
        store.put(spec, [_Row(value=11)])
        assert store.get(spec) == [_Row(value=11)]

        @dc.dataclass
        class _RowV2:
            value: int
            extra: float = 0.0

        _RowV2.__qualname__ = "_StoreSchemaRow"
        _RowV2.__module__ = store_mod.__name__
        store_mod._StoreSchemaRow = _RowV2

        assert store.get(spec) is None
        # ... but the flattened JSON rows stay queryable regardless.
        assert store.query_rows(experiment="_store_test",
                                params={"scale": 11}) == [{"value": 11}]
    finally:
        del store_mod._StoreSchemaRow


def test_get_returns_none_when_the_row_class_no_longer_resolves(store):
    """A record whose row class was renamed or removed since the write
    cannot be unpickled; it reads as missing instead of raising."""
    import repro.store.result_store as store_mod

    @dc.dataclass
    class _Row:
        value: int

    _Row.__qualname__ = "_StoreVanishedRow"
    _Row.__module__ = store_mod.__name__
    store_mod._StoreVanishedRow = _Row
    spec = spec_for(scale=12)
    try:
        store.put(spec, [_Row(value=12)])
        assert store.get(spec) == [_Row(value=12)]
    finally:
        del store_mod._StoreVanishedRow
    assert store.get(spec) is None
    assert store.query_rows(experiment="_store_test",
                            params={"scale": 12}) == [{"value": 12}]


def test_run_sweep_uses_store_as_cache(tmp_path):
    store = ResultStore(str(tmp_path / "sweep.sqlite"))
    specs = [ScenarioSpec.make("bench_sleep", seed=i, duration=0.0, payload=i)
             for i in range(3)]
    first = run_sweep(specs, cache=store)
    assert all(not r.cached for r in first)
    # run_sweep committed through put_result: wall time and worker recorded.
    records = store.point_records()
    assert len(records) == 3
    assert all(record.elapsed_s >= 0.0 and ":" in record.worker_id
               for record in records)
    second = run_sweep(specs, cache=store)
    assert all(r.cached for r in second)
    assert [r.rows for r in second] == [r.rows for r in first]


# ---------------------------------------------------------------------------
# Attempt provenance (retry budgets) + compaction
# ---------------------------------------------------------------------------

def test_put_result_records_attempt_number(store):
    spec = spec_for(scale=7)
    result = SweepResult(spec=spec, rows=[StoreRow("netfence", 7, 0.9)],
                         elapsed_s=0.5, worker_id="w-flaky")
    store.put_result(result, attempt=3)
    (record,) = store.point_records()
    assert record.attempt == 3
    (row,) = store.query_rows(meta=True)
    assert row["_attempt"] == 3


def test_attempt_defaults_to_one(store):
    store.put(spec_for(scale=8), [StoreRow("netfence", 8, 0.8)])
    (record,) = store.point_records()
    assert record.attempt == 1
    (entry,) = store.perf_trajectory()
    assert entry["attempt"] == 1


def test_pre_attempt_databases_are_migrated_in_place(tmp_path):
    path = str(tmp_path / "old.sqlite")
    store = ResultStore(path, worker_id="w-old")
    store.put(spec_for(scale=9), [StoreRow("netfence", 9, 0.9)])
    with sqlite3.connect(path) as conn:
        conn.execute("ALTER TABLE points DROP COLUMN attempt")
    migrated = ResultStore(path, worker_id="w-new")
    (record,) = migrated.point_records()
    assert record.attempt == 1  # backfilled by the migration default


def test_compact_keeps_only_latest_execution_per_point(store):
    spec_a, spec_b = spec_for(scale=1), spec_for(scale=2)
    store.put(spec_a, [StoreRow("netfence", 1, 0.1)])
    store.put(spec_a, [StoreRow("netfence", 1, 0.2)])
    store.put(spec_a, [StoreRow("netfence", 1, 0.3)])
    store.put(spec_b, [StoreRow("netfence", 2, 0.9)])
    stats = store.compact()
    assert stats["removed_executions"] == 2
    assert stats["kept_points"] == 2
    assert stats["bytes_after"] <= stats["bytes_before"]
    # The read path still serves the newest execution of every point.
    assert store.get(spec_a) == [StoreRow("netfence", 1, 0.3)]
    assert store.get(spec_b) == [StoreRow("netfence", 2, 0.9)]
    assert len(store.point_records()) == 2
    # The flattened rows of dropped executions are gone too.
    assert len(store.query_rows(latest_only=False)) == 2


def test_compact_on_compacted_store_is_a_no_op(store):
    store.put(spec_for(scale=3), [StoreRow("netfence", 3, 0.5)])
    store.compact()
    stats = store.compact()
    assert stats["removed_executions"] == 0
    assert stats["removed_rows"] == 0
    assert stats["kept_points"] == 1


# ---------------------------------------------------------------------------
# Metric rows (telemetry summaries committed next to sweep points)
# ---------------------------------------------------------------------------

def test_put_and_query_metric_rows_round_trip(store):
    rows = [
        {"name": "ingress_total", "labels": {"router": "r1"},
         "kind": "counter", "value": 42.0},
        {"name": "queue_depth", "labels": {}, "kind": "gauge", "value": 7.0},
    ]
    written = store.put_metric_rows("fig12", "cache-abc", rows, now=80.0)
    assert written == 2

    fetched = store.query_metric_rows(experiment="fig12")
    assert [row["name"] for row in fetched] == ["ingress_total", "queue_depth"]
    first = fetched[0]
    assert first["labels"] == {"router": "r1"}
    assert first["value"] == 42.0
    assert first["_experiment"] == "fig12"
    assert first["_cache_key"] == "cache-abc"
    assert first["_recorded_at"] == 80.0  # telemetry clock, not wall clock
    assert first["_created_at"] <= time.time()


def test_query_metric_rows_filters(store):
    store.put_metric_rows("fig12", "ck-1",
                          [{"name": "a", "kind": "counter", "value": 1.0}])
    store.put_metric_rows("fig12", "ck-2",
                          [{"name": "b", "kind": "counter", "value": 2.0}])
    store.put_metric_rows("fig13", "ck-3",
                          [{"name": "a", "kind": "counter", "value": 3.0}])

    assert len(store.query_metric_rows()) == 3
    assert len(store.query_metric_rows(experiment="fig12")) == 2
    (by_key,) = store.query_metric_rows(cache_key="ck-2")
    assert by_key["name"] == "b"
    by_name = store.query_metric_rows(name="a")
    assert [row["value"] for row in by_name] == [1.0, 3.0]
    assert store.query_metric_rows(experiment="nope") == []


def test_metric_rows_survive_compaction(store):
    store.put(spec_for(scale=4), [StoreRow("netfence", 4, 0.8)])
    store.put_metric_rows("_store_test", "ck",
                          [{"name": "m", "kind": "gauge", "value": 1.5}])
    store.compact()
    assert len(store.query_metric_rows()) == 1


# ---------------------------------------------------------------------------
# Worker telemetry rows (the fleet's side of each point execution)
# ---------------------------------------------------------------------------

def _worker_row(**overrides):
    row = {
        "worker_id": "w-1", "experiment": "fig12", "cache_key": "ck-1",
        "attempt": 1, "claim_latency_s": 0.125, "heartbeat_renewals": 2,
        "elapsed_s": 1.25, "rss_kb": 30_000, "outcome": "completed",
    }
    row.update(overrides)
    return row


def test_put_and_query_worker_rows_round_trip(store):
    assert store.put_worker_rows([_worker_row()]) == 1
    (row,) = store.query_worker_rows()
    assert row["_worker_id"] == "w-1"
    assert row["_experiment"] == "fig12"
    assert row["_cache_key"] == "ck-1"
    assert row["claim_latency_s"] == 0.125
    assert row["heartbeat_renewals"] == 2
    assert row["rss_kb"] == 30_000
    assert row["outcome"] == "completed"  # extra keys survive via JSON


def test_query_worker_rows_filters(store):
    store.put_worker_rows([
        _worker_row(worker_id="w-1", cache_key="ck-1"),
        _worker_row(worker_id="w-2", cache_key="ck-2",
                    experiment="fig13"),
    ])
    assert len(store.query_worker_rows()) == 2
    assert [r["_worker_id"] for r in
            store.query_worker_rows(worker_id="w-2")] == ["w-2"]
    assert [r["_experiment"] for r in
            store.query_worker_rows(experiment="fig13")] == ["fig13"]
    assert store.query_worker_rows(experiment="nope") == []


def test_fleet_summary_aggregates_per_worker(store):
    store.put_worker_rows([
        _worker_row(worker_id="w-1", claim_latency_s=0.1,
                    heartbeat_renewals=1, elapsed_s=1.0, rss_kb=10_000),
        _worker_row(worker_id="w-1", cache_key="ck-2", attempt=3,
                    claim_latency_s=0.3, heartbeat_renewals=2,
                    elapsed_s=2.0, rss_kb=20_000),
        _worker_row(worker_id="w-2", cache_key="ck-3"),
    ])
    summary = {w["worker_id"]: w for w in store.fleet_summary()}
    assert set(summary) == {"w-1", "w-2"}
    w1 = summary["w-1"]
    assert w1["points"] == 2
    assert w1["retried_points"] == 1
    assert w1["avg_claim_latency_s"] == pytest.approx(0.2)
    assert w1["max_claim_latency_s"] == pytest.approx(0.3)
    assert w1["heartbeat_renewals"] == 3
    assert w1["total_elapsed_s"] == pytest.approx(3.0)
    assert w1["max_rss_kb"] == 20_000
    assert w1["last_seen"] <= time.time()


def test_worker_rows_default_worker_id_comes_from_store(store):
    row = _worker_row()
    del row["worker_id"]
    store.put_worker_rows([row])
    (fetched,) = store.query_worker_rows()
    assert fetched["_worker_id"] == store.worker_id


def _stored_point(scale):
    return SweepResult(spec=spec_for(scale=scale),
                       rows=[StoreRow("netfence", scale, 0.5)], elapsed_s=0.5)


def test_put_result_commits_the_worker_row_with_the_point(store):
    result = _stored_point(3)
    store.put_result(result, worker_id="w-1",
                     worker_row=_worker_row(cache_key="ck-3"))
    (record,) = store.point_records()
    assert record.worker_id == "w-1"
    (row,) = store.query_worker_rows()
    standalone = ResultStore(store.path + ".b")
    standalone.put_worker_rows([_worker_row(cache_key="ck-3")])
    (expected,) = standalone.query_worker_rows()
    # Same row as put_worker_rows writes, bar the commit time.
    assert {k: v for k, v in row.items() if k != "_created_at"} == \
        {k: v for k, v in expected.items() if k != "_created_at"}


def test_failed_worker_row_insert_rolls_back_the_point(store):
    with sqlite3.connect(store.path) as conn:
        conn.execute("CREATE TRIGGER reject_worker_rows BEFORE INSERT ON"
                     " worker_rows BEGIN SELECT RAISE(ABORT, 'injected'); END")
    result = _stored_point(4)
    with pytest.raises(sqlite3.DatabaseError, match="injected"):
        store.put_result(result, worker_row=_worker_row())
    assert store.point_records() == []
    assert store.get(result.spec) is None
    with sqlite3.connect(store.path) as conn:
        (rows,) = conn.execute("SELECT COUNT(*) FROM point_rows").fetchone()
    assert rows == 0


def test_set_worker_outcome_relabels_the_newest_row_only(store):
    store.put_worker_rows([_worker_row(attempt=1), _worker_row(attempt=2),
                           _worker_row(worker_id="w-2")])
    store.set_worker_outcome("w-1", "ck-1", "already_done")
    assert [(r["_worker_id"], r["attempt"], r["outcome"])
            for r in store.query_worker_rows()] == [
        ("w-1", 1, "completed"), ("w-1", 2, "already_done"),
        ("w-2", 1, "completed")]
