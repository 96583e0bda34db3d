"""Incremental recomputation: which grid points does a change dirty?

The store keys every result by the engine's full configuration hash, which
covers the spec-side knobs (geometry, operating point, budget, seeds,
scenario, schemes) *and* the code-side contract (engine version, resolved
scenario pipeline, benchmark data bytes).  A grid point is therefore **clean**
exactly when the live record of its freshly computed hash is a finished
``quality`` result, and **dirty** when anything that could change its result
-- a spec edit, a benchmark data change, an engine version bump -- moved the
hash, or when the hash holds only the ``progress`` of an interrupted sweep.
Re-running an explorer against a warm store recomputes only the dirty
points; this module is the standalone pass that lists them without running
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.dse.spec import ExperimentSpec
    from repro.store.store import ResultStore

__all__ = ["GridPointStatus", "dirty_grid_points", "grid_point_statuses"]


@dataclass(frozen=True)
class GridPointStatus:
    """Store status of one (benchmark, operating point) grid cell."""

    benchmark: str
    vdd: float
    p_cell: float
    key: str
    dirty: bool


def grid_point_statuses(
    store: "ResultStore", spec: "ExperimentSpec"
) -> List[GridPointStatus]:
    """Clean/dirty status of every grid point of ``spec`` against ``store``.

    Order matches :meth:`DesignSpaceExplorer.run`: benchmark-major, then
    operating-point-major.  Computing a status builds the benchmark (its data
    bytes enter the hash -- that is what catches data changes), but runs no
    Monte-Carlo work.
    """
    from repro.dse.registry import build_benchmark
    from repro.sim.engine import SweepEngine

    live_kinds = {summary["key"]: summary["kind"] for summary in store.query()}
    statuses: List[GridPointStatus] = []
    points = spec.operating_points()
    for benchmark_name in spec.benchmarks.names:
        benchmark = build_benchmark(
            benchmark_name,
            scale=spec.benchmarks.scale,
            seed=spec.benchmarks.seed,
        )
        for point in points:
            config = spec.experiment_config(point, benchmark_name)
            engine = SweepEngine(config)
            key = engine.config_hash(benchmark)
            statuses.append(
                GridPointStatus(
                    benchmark=benchmark_name,
                    vdd=point.vdd,
                    p_cell=point.p_cell,
                    key=key,
                    dirty=live_kinds.get(key) != "quality",
                )
            )
    return statuses


def dirty_grid_points(
    store: "ResultStore", spec: "ExperimentSpec"
) -> List[GridPointStatus]:
    """Only the grid points a re-run would actually recompute."""
    return [
        status for status in grid_point_statuses(store, spec) if status.dirty
    ]
