"""Scratch directories: inside the checkout, removed when the run ends.

Queue directories, SQLite stores, flight dumps and the serve child's output
all go under ``<checkout>/.bench_tmp/<run>/`` (git-ignored), never to the
repository root, ``BENCH_sweep.json`` or the system's temporary directory.
"""

from __future__ import annotations

import os
import shutil
import tempfile

BASE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    ".bench_tmp")


def make() -> str:
    os.makedirs(BASE, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=BASE)


def remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(BASE)  # the last run out removes the parent too
    except OSError:
        pass
