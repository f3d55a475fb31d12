"""Queryable, append-only result store for sweep executions.

:class:`ResultStore` is the one result cache: a single SQLite file that
every worker — local ``run_sweep`` processes and distributed ``runner
worker`` processes alike — commits finished grid points to, that re-runs are
served from, and that analysis and dashboards query afterwards.  A stored
point whose row classes have changed shape since it was written reads as
missing.
"""

from repro.store.result_store import PointRecord, ResultStore

__all__ = ["PointRecord", "ResultStore"]
