"""Design-space sweep: result-store reuse and worker-count bit-identity.

Runs a 3-voltage x 3-scheme x 1-benchmark DSE grid (the ``repro dse run``
smoke configuration) and gates the two properties the subsystem promises:

* **bit-identity across worker counts** -- the joined result table is exactly
  equal for ``workers=1`` and ``workers=REPRO_BENCH_WORKERS`` (default 2),
  the sweep engine's deterministic per-die seeding contract lifted to the
  full grid;
* **store reuse** -- a second run pointed at the same result store serves
  every grid point from its per-point record and must complete at least 10x
  faster than the cold sweep.

Run with ``pytest -s`` to see the timing table.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.dse import (
    BenchmarkGridSpec,
    DesignSpaceExplorer,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
)
from repro.store import ResultStore

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
REPLAY_SPEEDUP_GATE = 10.0

SPEC = ExperimentSpec(
    geometry=GeometrySpec(rows=1024, word_width=32),
    operating_grid=OperatingGridSpec(vdd_values=(0.64, 0.70, 0.78)),
    scheme_grid=SchemeGridSpec(
        specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
    ),
    budget=McBudgetSpec(
        samples_per_count=4,
        n_count_points=8,
        coverage=0.95,
        master_seed=2015,
        discard_multi_fault_words=False,
    ),
    benchmarks=BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
    quality_yield_target=0.9,
)


@pytest.fixture(scope="module")
def serial_result():
    return DesignSpaceExplorer(SPEC, workers=1).run()


def test_dse_grid_bit_identical_across_worker_counts(
    benchmark, table_printer, json_summary, serial_result
):
    parallel = benchmark.pedantic(
        DesignSpaceExplorer(SPEC, workers=WORKERS).run, rounds=1, iterations=1
    )
    assert parallel.rows == serial_result.rows
    assert len(parallel.rows) == SPEC.grid_size()
    frontier = parallel.pareto()
    assert frontier, "the 3x3 grid must produce a non-empty Pareto frontier"
    json_summary(
        "dse_grid",
        {
            "grid_size": SPEC.grid_size(),
            "workers": WORKERS,
            "frontier_size": len(frontier),
            "bit_identical_across_workers": True,
        },
    )
    table_printer(
        f"DSE grid ({SPEC.grid_size()} cells), workers 1 vs {WORKERS}",
        ["scheme", "VDD [V]", "E total [fJ]", "Q@yield", "on frontier"],
        [
            [
                row["scheme"],
                row["vdd"],
                row["total_read_energy_fj"],
                row["quality_at_yield"],
                "yes" if row in frontier else "-",
            ]
            for row in parallel.rows
        ],
    )


def test_dse_store_replays_fast(tmp_path, table_printer, json_summary):
    directory = str(tmp_path / "grid-store")

    start = time.perf_counter()
    with ResultStore(directory) as store:
        cold = DesignSpaceExplorer(SPEC, store=store).run()
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with ResultStore(directory) as store:
        replay = DesignSpaceExplorer(SPEC, store=store).run()
    replay_seconds = time.perf_counter() - start

    assert replay.rows == cold.rows
    with ResultStore(directory) as store:
        assert len(store.query(kind="quality")) == len(SPEC.operating_points())

    speedup = cold_seconds / replay_seconds
    table_printer(
        "DSE store reuse (one result record per grid point)",
        ["run", "wall clock [s]", "speedup"],
        [
            ["cold sweep", cold_seconds, 1.0],
            ["cached replay", replay_seconds, speedup],
        ],
    )
    json_summary(
        "dse_store_replay",
        {
            "cold_seconds": cold_seconds,
            "replay_seconds": replay_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= REPLAY_SPEEDUP_GATE, (
        f"expected >= {REPLAY_SPEEDUP_GATE}x store replay speedup, "
        f"measured {speedup:.1f}x"
    )
