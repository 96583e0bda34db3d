"""Shared helpers for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure of the paper.  The
timed section is the experiment itself; after timing, each benchmark prints
the reproduced data series (run pytest with ``-s`` to see the tables) and
asserts the paper's qualitative claims so a regression in the model breaks the
harness loudly.

When the ``REPRO_BENCH_JSON`` environment variable names a file, benchmarks
additionally append machine-readable summary records there (one JSON object
per line) via the ``json_summary`` fixture; CI uploads those files as build
artifacts so perf trends can be tracked without scraping stdout tables.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Sequence

import pytest


def emit_json_summary(record_name: str, record: Mapping[str, object]) -> None:
    """Append one benchmark record to the ``REPRO_BENCH_JSON`` file.

    No-op when the variable is unset, so local runs leave no files behind.
    Records are JSON lines (append-only): several tests -- or several
    benchmark modules, or parallel CI jobs, pointed at the same file -- can
    contribute to one artifact without coordination.  Each line is written
    with a single ``os.write`` on an ``O_APPEND`` descriptor: POSIX appends
    are atomic per write call, so concurrent writers can interleave *lines*
    but never fragments of a line.  (Write-temp-then-rename cannot do this --
    a rename replaces the file, clobbering whatever other writers appended.)

    Every record carries ``kernel_backend``, the name of the datapath kernel
    implementation, like the records in ``BENCH_baseline.json``.
    """
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    from repro.kernels import active_backend

    payload = {
        "record": record_name,
        "kernel_backend": active_backend().name,
        **record,
    }
    line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


@pytest.fixture
def json_summary():
    """Fixture exposing :func:`emit_json_summary` to benchmark modules."""
    return emit_json_summary


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print a plain-text table (visible with ``pytest -s``)."""
    formatted_rows = [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print()
    print(title)
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in formatted_rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


@pytest.fixture
def table_printer():
    """Fixture exposing :func:`print_table` to benchmark modules."""
    return print_table
