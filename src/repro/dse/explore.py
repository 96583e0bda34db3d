"""Cross-layer design-space exploration: sweep, join, and Pareto-extract.

This is the paper's closing argument made executable.  A declarative
:class:`~repro.dse.spec.ExperimentSpec` names a grid of operating points
(supply voltages mapped to ``Pcell`` through the fault model), protection
schemes, and benchmarks; the :class:`DesignSpaceExplorer` evaluates every
grid point through the :class:`~repro.sim.engine.SweepEngine` (inheriting
its sharded parallelism, deterministic per-die seeding, and store-backed
resume), joins the quality distributions with the voltage-scaling energy
model and the hardware overhead model, and produces one tidy result table.
:func:`pareto_frontier` then answers the question none of the single-figure
views can: *which (VDD, scheme, nFM) points are Pareto-optimal in energy
versus quality-at-yield?*
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.base import ProtectionScheme
from repro.dse.evaluate import evaluate_overhead_point
from repro.dse.registry import build_benchmark, build_scheme
from repro.dse.spec import ExperimentSpec
from repro.hardware.overhead import ReadPathOverhead
from repro.sim.engine import (
    AdaptiveBudgetReport,
    QualityDistribution,
    SweepEngine,
    SweepRunStats,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.store.invalidate import GridPointStatus
    from repro.store.store import ResultStore

__all__ = [
    "DSE_COLUMNS",
    "DesignSpaceExplorer",
    "DseResult",
    "build_dse_row",
    "pareto_frontier",
]

# Version 2 adds the per-grid-point adaptive reports (the audit trail of
# adaptive and optimizer runs); version-1 files still load, with no reports.
_RESULT_VERSION = 2

#: Column order of the tidy result table (one row per grid cell).
DSE_COLUMNS = (
    "benchmark",
    "scheme",
    "vdd",
    "p_cell",
    "expected_failures",
    "energy_saving",
    "word_read_energy_fj",
    "scheme_read_energy_fj",
    "total_read_energy_fj",
    "leakage_power_nw",
    "overhead_area_um2",
    "overhead_read_delay_ps",
    "clean_quality",
    "median_quality",
    "quality_at_yield",
    "yield_q90",
    "yield_q99",
    "samples",
)


def pareto_frontier(
    rows: Sequence[Mapping[str, object]],
    *,
    energy_key: str = "total_read_energy_fj",
    quality_key: str = "quality_at_yield",
) -> List[Dict[str, object]]:
    """Non-dominated rows: no other row has lower-or-equal energy *and*
    higher-or-equal quality with at least one strict improvement.

    Rows from different benchmarks are not comparable; callers group first
    (:meth:`DseResult.pareto` does).  The frontier is returned sorted by
    ascending energy.
    """
    frontier: List[Dict[str, object]] = []
    for row in rows:
        dominated = any(
            other[energy_key] <= row[energy_key]
            and other[quality_key] >= row[quality_key]
            and (
                other[energy_key] < row[energy_key]
                or other[quality_key] > row[quality_key]
            )
            for other in rows
        )
        if not dominated:
            frontier.append(dict(row))
    frontier.sort(key=lambda r: (r[energy_key], -r[quality_key]))
    return frontier


def build_dse_row(
    *,
    benchmark_name: str,
    scheme_name: str,
    point,
    dist: QualityDistribution,
    overhead: ReadPathOverhead,
    word_read_energy: float,
    logic_scale: float,
    yield_target: float,
) -> Dict[str, object]:
    """One tidy-table row: the energy/overhead/quality join of one grid cell.

    Shared by the exhaustive explorer and the budgeted optimizer so both
    tables carry exactly the same columns (:data:`DSE_COLUMNS`) computed the
    same way.  The scheme logic's dynamic energy scales with the same CV^2
    law as the array access it accompanies (``logic_scale``).
    """
    scheme_read_energy = overhead.read_power_fj * logic_scale
    return {
        "benchmark": benchmark_name,
        "scheme": scheme_name,
        "vdd": point.vdd,
        "p_cell": point.p_cell,
        "expected_failures": point.expected_failures,
        "energy_saving": point.energy_saving,
        "word_read_energy_fj": word_read_energy,
        "scheme_read_energy_fj": scheme_read_energy,
        "total_read_energy_fj": word_read_energy + scheme_read_energy,
        "leakage_power_nw": point.leakage_power_nw,
        "overhead_area_um2": overhead.area_um2,
        "overhead_read_delay_ps": overhead.read_delay_ps,
        "clean_quality": dist.clean_quality,
        "median_quality": dist.median_quality(),
        "quality_at_yield": dist.quality_at_yield(yield_target),
        "yield_q90": dist.yield_at_quality(0.90),
        "yield_q99": dist.yield_at_quality(0.99),
        "samples": dist.samples,
    }


def _reports_to_payload(
    reports: Mapping[Tuple[str, float, float], AdaptiveBudgetReport],
) -> List[Dict[str, object]]:
    """JSON-safe list form of ``(benchmark, vdd, p_cell) -> report``."""
    return [
        {
            "benchmark": benchmark,
            "vdd": vdd,
            "p_cell": p_cell,
            "report": reports[(benchmark, vdd, p_cell)].to_dict(),
        }
        for benchmark, vdd, p_cell in sorted(reports)
    ]


def _reports_from_payload(
    entries: Optional[Sequence[Mapping[str, object]]],
) -> Dict[Tuple[str, float, float], AdaptiveBudgetReport]:
    """Inverse of :func:`_reports_to_payload` (tuple keys restored)."""
    reports: Dict[Tuple[str, float, float], AdaptiveBudgetReport] = {}
    for entry in entries or ():
        key = (
            str(entry["benchmark"]),
            float(entry["vdd"]),
            float(entry["p_cell"]),
        )
        reports[key] = AdaptiveBudgetReport.from_dict(entry["report"])
    return reports


class DseResult:
    """Tidy result table of one design-space exploration run.

    ``rows`` is a list of plain dicts (columns: :data:`DSE_COLUMNS`), ordered
    benchmark-major then operating-point-major then scheme -- a stable order
    that is bit-identical for any worker count.  ``distributions`` keeps the
    full per-cell :class:`QualityDistribution` objects for callers that need
    more than the tabulated summary statistics, keyed ``[benchmark][(vdd,
    p_cell)][scheme]`` (in-memory runs only; the JSON round-trip persists the
    table, not the distributions).  ``adaptive_reports`` holds the
    per-grid-point :class:`~repro.sim.engine.AdaptiveBudgetReport` audit of
    adaptive-budget runs, keyed ``(benchmark, vdd, p_cell)``; unlike the
    distributions it *does* survive the JSON round-trip, so a pruned or
    adaptive run's audit trail (which budget stopped where, at what CI) is
    not lost by ``save``/``load``.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        rows: List[Dict[str, object]],
        distributions: Optional[
            Dict[str, Dict[Tuple[float, float], Dict[str, QualityDistribution]]]
        ] = None,
        adaptive_reports: Optional[
            Dict[Tuple[str, float, float], AdaptiveBudgetReport]
        ] = None,
    ) -> None:
        self.spec = spec
        self.rows = rows
        self.distributions = distributions if distributions is not None else {}
        self.adaptive_reports = (
            dict(adaptive_reports) if adaptive_reports is not None else {}
        )

    def __len__(self) -> int:
        return len(self.rows)

    def benchmarks(self) -> List[str]:
        """Benchmark names present in the table, in row order."""
        seen: List[str] = []
        for row in self.rows:
            if row["benchmark"] not in seen:
                seen.append(row["benchmark"])
        return seen

    def select(
        self,
        benchmark: Optional[str] = None,
        scheme: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Rows filtered by benchmark and/or scheme name."""
        return [
            row
            for row in self.rows
            if (benchmark is None or row["benchmark"] == benchmark)
            and (scheme is None or row["scheme"] == scheme)
        ]

    def pareto(self, benchmark: Optional[str] = None) -> List[Dict[str, object]]:
        """Energy / quality-at-yield Pareto frontier, per benchmark.

        With ``benchmark=None`` the frontier of every benchmark is computed
        independently and concatenated (rows keep their ``benchmark`` column,
        so the groups stay distinguishable).
        """
        names = [benchmark] if benchmark is not None else self.benchmarks()
        frontier: List[Dict[str, object]] = []
        for name in names:
            frontier.extend(pareto_frontier(self.select(benchmark=name)))
        return frontier

    def energy_at_iso_quality(
        self, quality_target: float, benchmark: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """Per (benchmark, scheme): the cheapest operating point meeting a
        quality-at-yield floor -- the "energy at iso-quality" view.

        Schemes that meet ``quality_target`` at no grid voltage are omitted.
        """
        best: Dict[tuple, Dict[str, object]] = {}
        for row in self.rows:
            if benchmark is not None and row["benchmark"] != benchmark:
                continue
            if row["quality_at_yield"] < quality_target:
                continue
            key = (row["benchmark"], row["scheme"])
            if (
                key not in best
                or row["total_read_energy_fj"] < best[key]["total_read_energy_fj"]
            ):
                best[key] = row
        return [best[key] for key in sorted(best)]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON view (spec + table + adaptive reports; distributions excluded)."""
        data: Dict[str, object] = {
            "version": _RESULT_VERSION,
            "spec": self.spec.to_dict(),
            "rows": self.rows,
        }
        if self.adaptive_reports:
            data["adaptive_reports"] = _reports_to_payload(
                self.adaptive_reports
            )
        return data

    def save(self, path: str) -> None:
        """Write the result table as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "DseResult":
        """Load a result table previously written by :meth:`save`.

        Version-1 files (written before the adaptive-report round-trip)
        still load; they simply carry no reports.
        """
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("version") not in (1, _RESULT_VERSION):
            raise ValueError(
                f"result file {path!r} has unsupported version "
                f"{data.get('version')!r}"
            )
        return cls(
            ExperimentSpec.from_dict(data["spec"]),
            data["rows"],
            adaptive_reports=_reports_from_payload(
                data.get("adaptive_reports")
            ),
        )


class DesignSpaceExplorer:
    """Evaluates an :class:`ExperimentSpec` grid end-to-end.

    Parameters
    ----------
    spec:
        The declarative sweep description.
    workers:
        Process fan-out of each grid point's Monte-Carlo sweep (results are
        bit-identical for any count -- the engine's seeding contract).
    store:
        Optional :class:`~repro.store.ResultStore`.  Grid points whose
        configuration hash is already stored are served from it --
        bit-identical, with zero new die evaluations -- and computed points
        are recorded into it, making the explorer a store-backed view: a
        re-run against a warm store recomputes only the points a spec or
        code change dirtied (see :meth:`dirty_points`), and an interrupted
        point resumes from its progress record.
    executor:
        Optional shard-executor selection forwarded to every grid point's
        sweep: ``None``/``"local"`` (process pool), ``"inline"``, or an
        :class:`~repro.sim.executor.ExecutorSpec` (e.g. a ``tcp``
        coordinator serving remote workers).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        workers: int = 1,
        store: Optional["ResultStore"] = None,
        executor: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._spec = spec
        self._workers = workers
        self._store = store
        self._executor = executor
        self._adaptive_reports: Dict[
            Tuple[str, float, float], AdaptiveBudgetReport
        ] = {}
        self._run_stats: Dict[Tuple[str, float, float], SweepRunStats] = {}

    @property
    def spec(self) -> ExperimentSpec:
        """The sweep description."""
        return self._spec

    @property
    def adaptive_reports(
        self,
    ) -> Dict[Tuple[str, float, float], AdaptiveBudgetReport]:
        """Adaptive-budget outcomes of the last :meth:`run`, keyed by
        ``(benchmark, vdd, p_cell)`` (empty for fixed-budget specs)."""
        return dict(self._adaptive_reports)

    @property
    def run_stats(self) -> Dict[Tuple[str, float, float], SweepRunStats]:
        """Per-grid-point :class:`~repro.sim.engine.SweepRunStats` of the last
        :meth:`run`, keyed by ``(benchmark, vdd, p_cell)``.  With a warm
        store, every entry has ``store_hit=True`` and ``evaluated_dies=0``."""
        return dict(self._run_stats)

    def dirty_points(self) -> List["GridPointStatus"]:
        """Grid points a :meth:`run` would actually recompute against the
        configured store (requires ``store``); everything else is served
        from disk.  A spec edit, benchmark-data change, or engine version
        bump moves the affected points' configuration hashes, which is what
        marks them dirty."""
        if self._store is None:
            raise ValueError("dirty_points requires a store")
        from repro.store.invalidate import dirty_grid_points

        return dirty_grid_points(self._store, self._spec)

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def scheme_overheads(self) -> Dict[str, ReadPathOverhead]:
        """Per-scheme read-path overhead at nominal voltage (the Fig. 6 join).

        ``no-protection`` is the zero-overhead reference; every other scheme
        must be covered by the :class:`OverheadModel` comparison.
        """
        spec = self._spec
        organization = spec.organization
        schemes = self._build_schemes()
        report = evaluate_overhead_point(
            organization, lut_realisation=spec.scheme_grid.lut_realisation
        )
        overheads: Dict[str, ReadPathOverhead] = {}
        for scheme in schemes:
            if scheme.name in report.overheads:
                overheads[scheme.name] = report.overheads[scheme.name]
            elif scheme.name == "no-protection":
                overheads[scheme.name] = ReadPathOverhead(
                    scheme=scheme.name,
                    read_power_fj=0.0,
                    read_delay_ps=0.0,
                    area_um2=0.0,
                )
            else:
                raise ValueError(
                    f"no overhead model covers scheme {scheme.name!r}"
                )
        return overheads

    def _build_schemes(self) -> List[ProtectionScheme]:
        return [
            build_scheme(spec, self._spec.geometry.word_width)
            for spec in self._spec.scheme_grid.specs
        ]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> DseResult:
        """Sweep the full grid and return the joined result table."""
        self._adaptive_reports = {}
        self._run_stats = {}
        spec = self._spec
        organization = spec.organization
        scaling = spec.operating_grid.scaling_model(organization)
        nominal_vdd = spec.operating_grid.nominal_vdd
        points = spec.operating_points()
        overheads = self.scheme_overheads()
        yield_target = spec.quality_yield_target

        rows: List[Dict[str, object]] = []
        distributions: Dict[
            str, Dict[Tuple[float, float], Dict[str, QualityDistribution]]
        ] = {}
        for benchmark_name in spec.benchmarks.names:
            benchmark = build_benchmark(
                benchmark_name,
                scale=spec.benchmarks.scale,
                seed=spec.benchmarks.seed,
            )
            per_point: Dict[
                Tuple[float, float], Dict[str, QualityDistribution]
            ] = {}
            distributions[benchmark_name] = per_point
            for point in points:
                config = spec.experiment_config(point, benchmark_name)
                engine = SweepEngine(config)
                results = engine.run(
                    benchmark,
                    workers=self._workers,
                    store=self._store,
                    executor=self._executor,
                )
                if engine.last_adaptive_report is not None:
                    self._adaptive_reports[
                        (benchmark_name, point.vdd, point.p_cell)
                    ] = engine.last_adaptive_report
                if engine.last_run_stats is not None:
                    self._run_stats[
                        (benchmark_name, point.vdd, point.p_cell)
                    ] = engine.last_run_stats
                per_point[(point.vdd, point.p_cell)] = results
                logic_scale = (point.vdd / nominal_vdd) ** 2
                word_read_energy = scaling.read_energy_fj(point.vdd)
                for scheme_name in (s.name for s in engine.schemes):
                    rows.append(
                        build_dse_row(
                            benchmark_name=benchmark_name,
                            scheme_name=scheme_name,
                            point=point,
                            dist=results[scheme_name],
                            overhead=overheads[scheme_name],
                            word_read_energy=word_read_energy,
                            logic_scale=logic_scale,
                            yield_target=yield_target,
                        )
                    )
        return DseResult(
            spec,
            rows,
            distributions,
            adaptive_reports=self._adaptive_reports,
        )
