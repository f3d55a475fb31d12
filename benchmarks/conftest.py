"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md §4 and EXPERIMENTS.md).  Simulation-backed benchmarks run one
round by design — the interesting output is the reproduced table, which each
benchmark prints so that ``pytest benchmarks/ --benchmark-only`` doubles as
the reproduction log.
"""

import pytest

from repro.experiments.sweep import merge_rows, run_sweep


def run_once(benchmark, fn, *args, **kwargs):
    """Run a (long) experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once


@pytest.fixture
def run_grid(benchmark):
    """Run a figure grid once under timing and return its merged rows; a
    failed point raises ``SweepError`` instead of truncating the table."""
    return lambda specs: run_once(
        benchmark, lambda: merge_rows(run_sweep(specs, strict=True)))
