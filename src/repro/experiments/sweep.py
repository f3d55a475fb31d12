"""Parallel experiment sweep engine.

Every evaluation figure in the paper is a sweep over scenario scale —
attacker counts, ``Toff`` values, topology sizes, defense systems.  This
module expresses such sweeps declaratively and executes them either serially
or across worker processes:

* :class:`ScenarioSpec` — one grid point: a registered scenario factory name,
  a frozen parameter assignment, and a seed.  Specs are hashable, picklable,
  and carry a stable cache key.
* :func:`register_point` — registers a *point function* under a name.  Point
  functions are plain module-level callables (``fn(seed=..., **params)``)
  that build their own :class:`~repro.simulator.engine.Simulator`, run it,
  and return one row (or a list of rows).  Because every point constructs
  its simulator from scratch inside the worker, no simulator state is ever
  shared between processes.
* :func:`run_sweep` — executes a list of specs with ``jobs`` workers and
  returns one :class:`SweepResult` per spec **in spec order**, so the merged
  rows are byte-identical regardless of parallelism.

Determinism notes: per-point randomness must flow exclusively from the
spec's ``seed`` (use :func:`derive_seed` to fan a base seed out across grid
points).  Worker processes are forked where the platform allows it so hash
randomization — and with it ``set``/``dict`` iteration order — matches the
parent process exactly.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import multiprocessing
import os
import socket
import time
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.obs.spans import active_span_recorder
from repro.seeding import derive_seed

if TYPE_CHECKING:  # the store imports this module; figure runs never need sqlite3
    from repro.store.result_store import ResultStore

logger = logging.getLogger(__name__)

__all__ = [
    "EXPERIMENT_MODULES",
    "ScenarioSpec",
    "SweepError",
    "SweepResult",
    "commit_result",
    "default_worker_id",
    "derive_seed",
    "execute_spec",
    "merge_rows",
    "register_point",
    "resolve_point",
    "run_sweep",
]

#: Modules that register point functions; imported lazily so workers started
#: with the ``spawn`` method (and fresh interpreters generally) can resolve
#: any experiment name without the caller pre-importing its module.
EXPERIMENT_MODULES: Tuple[str, ...] = (
    "repro.experiments.fig6_scaling",
    "repro.experiments.fig7_overhead",
    "repro.experiments.fig8_unwanted",
    "repro.experiments.fig9_colluding",
    "repro.experiments.fig10_parkinglot",
    "repro.experiments.fig11_onoff",
    "repro.experiments.fig12_deployment",
    "repro.experiments.fig13_multifeedback",
    "repro.experiments.fig14_inference",
    "repro.experiments.theorem_fairshare",
)

_POINT_REGISTRY: Dict[str, Callable[..., Any]] = {}


def register_point(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a module-level point function under ``name``.

    The function must accept ``seed`` plus the spec's parameters as keyword
    arguments and return a row dataclass or a list of them.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        existing = _POINT_REGISTRY.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"point function {name!r} is already registered")
        _POINT_REGISTRY[name] = fn
        return fn

    return decorator


def resolve_point(name: str) -> Callable[..., Any]:
    """Look up a registered point function, importing experiment modules
    on demand so fresh worker interpreters can self-populate the registry."""
    if name not in _POINT_REGISTRY:
        for module in EXPERIMENT_MODULES:
            importlib.import_module(module)
    try:
        return _POINT_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_POINT_REGISTRY)) or "<none>"
        raise KeyError(f"no point function registered as {name!r}; known: {known}") from None


def _freeze(value: Any) -> Any:
    """Recursively convert lists/dicts to tuples so specs stay hashable."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One point of an experiment grid.

    ``experiment`` names a registered point function; ``params`` is a sorted
    tuple of ``(name, value)`` pairs (use :meth:`make`); ``seed`` seeds every
    source of randomness inside the point.
    """

    experiment: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 1

    @classmethod
    def make(cls, experiment: str, seed: int = 1, **params: Any) -> "ScenarioSpec":
        return cls(experiment=experiment, seed=seed, params=_freeze(params))

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def cache_key(self) -> str:
        """Stable digest of (experiment, params, seed) for the result cache."""
        payload = json.dumps(
            {"experiment": self.experiment, "params": repr(self.params), "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.experiment}({inner}, seed={self.seed})"


@dataclass
class SweepResult:
    """Outcome of one executed (or cache-served) grid point.

    ``error`` carries the formatted traceback when the point raised and the
    caller asked for capture (the default in :func:`run_sweep`): a sweep
    with one bad point still returns — and caches — every good point.
    ``worker_id`` identifies the process that executed the point
    (``host:pid``), recorded by the result store for provenance.
    """

    spec: ScenarioSpec
    rows: List[Any]
    elapsed_s: float = 0.0
    cached: bool = False
    error: Optional[str] = None
    worker_id: Optional[str] = None


def merge_rows(results: Iterable[SweepResult]) -> List[Any]:
    """Flatten per-point rows in spec order into one result table.

    Failed points (``result.error`` set) contribute no rows; callers that
    must not silently drop points should inspect the results for errors.
    """
    merged: List[Any] = []
    for result in results:
        merged.extend(result.rows)
    return merged


def default_worker_id() -> str:
    """``host:pid`` of the executing process, for result-store provenance."""
    return f"{socket.gethostname()}:{os.getpid()}"


class SweepError(RuntimeError):
    """Raised by ``run_sweep(strict=True)`` when any grid point failed.

    Completed points were already committed to the result store before this
    is raised; ``results`` holds every per-point outcome and ``failures``
    the failed subset.
    """

    def __init__(self, results: List["SweepResult"]) -> None:
        self.results = results
        self.failures = [r for r in results if r.error is not None]
        detail = "\n\n".join(f"{r.spec.describe()}:\n{r.error}"
                             for r in self.failures)
        super().__init__(f"{len(self.failures)} sweep point(s) failed:\n{detail}")


def execute_spec(spec: ScenarioSpec, capture_errors: bool = False) -> SweepResult:
    """Run one grid point in the current process.

    With ``capture_errors`` a raising point (or an unknown experiment name)
    yields a rowless :class:`SweepResult` whose ``error`` holds the
    formatted traceback instead of propagating — the mode :func:`run_sweep`
    and the distributed worker use so one bad point cannot sink a sweep.
    """
    recorder = active_span_recorder()
    span = None
    if recorder is not None:
        span = recorder.start(
            "sweep.point", ts=time.perf_counter(),
            attrs={"experiment": spec.experiment, "seed": spec.seed})
    started = time.perf_counter()
    try:
        fn = resolve_point(spec.experiment)
        out = fn(seed=spec.seed, **spec.kwargs)
    except Exception:
        if recorder is not None and span is not None:
            recorder.finish(span, ts=time.perf_counter(), status="error")
        if not capture_errors:
            raise
        return SweepResult(spec=spec, rows=[], elapsed_s=time.perf_counter() - started,
                           error=traceback.format_exc(), worker_id=default_worker_id())
    elapsed = time.perf_counter() - started
    rows = list(out) if isinstance(out, (list, tuple)) else [out]
    if recorder is not None and span is not None:
        span.set_attr("rows", len(rows))
        recorder.finish(span, ts=time.perf_counter())
    return SweepResult(spec=spec, rows=rows, elapsed_s=elapsed,
                       worker_id=default_worker_id())


def _execute_in_worker(payload: Tuple[int, ScenarioSpec, str]) -> Tuple[int, SweepResult]:
    """Pool entry point: import the point's registering module first.

    Fork workers inherit the parent's registry, but spawn workers (macOS /
    Windows) start with an empty one; importing the module that called
    :func:`register_point` repopulates it even for points registered outside
    :data:`EXPERIMENT_MODULES` (e.g. user extensions or test fixtures).
    Results come back tagged with the spec's index because the pool consumes
    them out of order (``imap_unordered``).
    """
    index, spec, module = payload
    try:
        importlib.import_module(module)
    except ImportError:
        # A spawn-mode worker that cannot re-import the registering module
        # would otherwise fail with a bare "no point function registered"
        # KeyError; name the module so the registry miss is diagnosable.
        logger.warning(
            "could not import %r (registering module of point %r); "
            "falling back to the EXPERIMENT_MODULES scan",
            module, spec.experiment)
    return index, execute_spec(spec, capture_errors=True)


def _pool_context() -> multiprocessing.context.BaseContext:
    # Prefer fork: workers then share the parent's hash seed (identical
    # set/dict iteration order) and its already-populated point registry.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def commit_result(cache: Optional["ResultStore"], result: SweepResult) -> None:
    """Commit one finished point, with its wall time and worker id, to the
    result store (errors are not stored)."""
    if cache is not None and result.error is None:
        cache.put_result(result)


def _registering_module(spec: ScenarioSpec) -> str:
    """Module whose import re-registers the spec's point, for pool workers."""
    try:
        return resolve_point(spec.experiment).__module__
    except KeyError:
        # Unknown experiment: let the worker re-resolve and capture the
        # failure as that point's error instead of sinking the whole sweep.
        return __name__


def run_sweep(
    specs: Sequence[ScenarioSpec],
    jobs: int = 1,
    cache: Optional["ResultStore"] = None,
    strict: bool = False,
) -> List[SweepResult]:
    """Execute every spec and return results in spec order.

    ``jobs <= 1`` runs serially in-process; ``jobs > 1`` fans the uncached
    points out over a :class:`multiprocessing.Pool`.  The returned row order
    — and therefore any formatted table — is identical either way.

    A raising point no longer aborts the sweep mid-flight: its result
    carries the traceback in ``error`` and contributes no rows, while every
    other point completes normally.  Finished points are committed to
    ``cache`` (a :class:`repro.store.ResultStore`) **as they finish** —
    ``imap_unordered`` under the hood — so an interrupted or partially
    failing parallel sweep keeps all completed work.  With ``strict=True`` a :class:`SweepError` is raised at the end
    when any point failed (after the commits), for callers that consume the
    merged rows without inspecting per-point errors.
    """
    results: List[Optional[SweepResult]] = [None] * len(specs)
    pending: List[Tuple[int, ScenarioSpec]] = []
    for index, spec in enumerate(specs):
        rows = cache.get(spec) if cache is not None else None
        if rows is not None:
            results[index] = SweepResult(spec=spec, rows=rows, cached=True)
        else:
            pending.append((index, spec))

    if pending:
        if jobs > 1 and len(pending) > 1:
            ctx = _pool_context()
            workers = min(jobs, len(pending))
            payloads = [(index, spec, _registering_module(spec))
                        for index, spec in pending]
            with ctx.Pool(processes=workers) as pool:
                for index, result in pool.imap_unordered(_execute_in_worker, payloads):
                    results[index] = result
                    commit_result(cache, result)
        else:
            for index, spec in pending:
                result = execute_spec(spec, capture_errors=True)
                results[index] = result
                commit_result(cache, result)

    final = [result for result in results if result is not None]
    if strict and any(result.error is not None for result in final):
        raise SweepError(final)
    return final


# ---------------------------------------------------------------------------
# Synthetic benchmark point
# ---------------------------------------------------------------------------

@register_point("bench_sleep")
def _bench_sleep_point(seed: int = 1, duration: float = 0.1, payload: int = 0) -> dict:
    """A latency-bound synthetic point used by the sweep speedup benchmark.

    Sleeping models a point whose wall-clock cost dominates its CPU cost, so
    the benchmark measures the engine's dispatch overhead and parallel
    scaling even on single-core CI runners.
    """
    time.sleep(duration)
    return {"seed": seed, "duration": duration, "payload": payload}
