"""Grid-point evaluators: one sweep of the design space, any scoring mode.

Every figure of the paper is one *slice* of the design space: Fig. 7 scores a
grid point by retraining a benchmark on corrupted features, Fig. 5 scores it
analytically by local MSE, and Fig. 6 is the operating-point-independent
hardware overhead join.  The functions here are those three evaluations with
one shared surface, so ``figure5_mse_cdf`` / ``figure7_quality`` /
``figure6_overhead``, ``YieldAnalyzer.compare_schemes``, and the
:class:`~repro.dse.explore.DesignSpaceExplorer` all run through the same
:class:`~repro.sim.engine.SweepEngine` machinery (sharded parallelism,
deterministic per-die seeding, store-backed resume).

Two sampling modes are supported everywhere:

* ``"seeded"`` -- the engine's native per-die seed-sequence sampling,
  bit-identical for any worker count and the only mode the DSE grid uses;
* ``"legacy"`` -- fault maps pre-drawn serially from a caller-supplied shared
  generator, reproducing the exact random streams (and golden regression
  curves) of the original serial Fig. 5 / Fig. 7 implementations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ProtectionScheme
from repro.faultmodel.montecarlo import FaultMapSampler
from repro.faultmodel.yieldmodel import MseDistribution
from repro.hardware.overhead import OverheadModel, OverheadReport
from repro.hardware.technology import Technology
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quantize.fixedpoint import FixedPointFormat
from repro.sim.engine import (
    AdaptiveBudgetReport,
    ExperimentConfig,
    QualityDistribution,
    SweepEngine,
    SweepRunStats,
)
from repro.sim.experiment import BenchmarkDefinition

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.store.store import ResultStore

__all__ = [
    "evaluate_mse_point",
    "evaluate_overhead_point",
    "evaluate_quality_point",
    "legacy_fault_maps",
]

_SAMPLING_MODES = ("seeded", "legacy")


def legacy_fault_maps(
    config: ExperimentConfig,
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> Dict[Tuple[int, int], FaultMap]:
    """Pre-draw every die of ``config`` from a shared legacy generator stream.

    Dies are drawn one at a time in the canonical count-major order, each with
    the per-map rejection stream of the original serial implementations --
    exactly the sequence the pinned Fig. 5 and Fig. 7 golden curves were
    produced with.  The result plugs into ``SweepEngine.run(...,
    fault_maps=...)``.

    A non-default ``config.scenario`` routes every draw through the same
    fault-scenario pipeline the seeded engine sampling uses (the shared
    generator then feeds the pipeline serially); the default i.i.d. scenario
    keeps the exact historical stream.
    """
    sampler = FaultMapSampler(
        config.organization,
        rng,
        scenario=None if config.scenario is None else config.build_scenario(),
    )
    max_per_word = 1 if config.discard_multi_fault_words else None
    fault_maps: Dict[Tuple[int, int], FaultMap] = {}
    for count_index, count in enumerate(config.evaluated_counts()):
        if config.scenario is None:
            # The pinned golden curves depend on this exact per-map scalar
            # stream: one draw per die, in count-major order.
            batch = [
                sampler.sample_batch(
                    count,
                    1,
                    max_faults_per_word=max_per_word,
                    vectorized=False,
                    max_attempts=max_attempts,
                )[0]
                for _ in range(config.samples_per_count)
            ]
        else:
            # Scenario pipelines have no legacy stream to preserve, so the
            # whole stratum is drawn as one vectorized batch.
            batch = sampler.sample_batch(
                count,
                config.samples_per_count,
                max_faults_per_word=max_per_word,
                max_attempts=max_attempts,
            )
        for sample_index, fault_map in enumerate(batch):
            fault_maps[(count_index, sample_index)] = fault_map
    return fault_maps


def _resolve_fault_maps(
    config: ExperimentConfig,
    sampling: str,
    rng: Optional[np.random.Generator],
    fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]],
) -> Optional[Mapping[Tuple[int, int], FaultMap]]:
    """The pre-drawn die population of one sweep (``None`` = seeded sampling)."""
    if sampling not in _SAMPLING_MODES:
        raise ValueError(
            f"unknown sampling mode {sampling!r}; expected one of "
            f"{', '.join(_SAMPLING_MODES)}"
        )
    if config.adaptive is not None and (
        sampling == "legacy" or fault_maps is not None
    ):
        raise ValueError(
            "adaptive budgets decide the die count as they run, so the "
            "population cannot be pre-drawn; use sampling='seeded' without "
            "fault_maps, or a fixed budget"
        )
    if fault_maps is not None:
        return fault_maps
    if sampling == "legacy":
        if rng is None:
            raise ValueError("legacy sampling requires a random generator")
        return legacy_fault_maps(config, rng)
    return None


def _record_adaptive_report(
    engine: SweepEngine, report_out: Optional[List["AdaptiveBudgetReport"]]
) -> None:
    """Append the engine's adaptive outcome to ``report_out`` (if any)."""
    if report_out is not None and engine.last_adaptive_report is not None:
        report_out.append(engine.last_adaptive_report)


def _record_run_stats(
    engine: SweepEngine, stats_out: Optional[List[SweepRunStats]]
) -> None:
    """Append the engine's run bookkeeping to ``stats_out`` (if any)."""
    if stats_out is not None and engine.last_run_stats is not None:
        stats_out.append(engine.last_run_stats)


def evaluate_quality_point(
    config: ExperimentConfig,
    benchmark: BenchmarkDefinition,
    *,
    schemes: Optional[Sequence[ProtectionScheme]] = None,
    sampling: str = "seeded",
    rng: Optional[np.random.Generator] = None,
    workers: int = 1,
    fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
    fixed_point: Optional[FixedPointFormat] = None,
    report_out: Optional[List["AdaptiveBudgetReport"]] = None,
    store: Optional["ResultStore"] = None,
    stats_out: Optional[List[SweepRunStats]] = None,
    executor: Optional[object] = None,
) -> Dict[str, QualityDistribution]:
    """Application-quality distributions of one grid point (a Fig. 7 slice).

    ``schemes`` overrides ``config.scheme_specs`` with pre-built instances;
    ``fault_maps`` supplies an explicit pre-drawn die population (overriding
    ``sampling``); ``report_out`` collects the
    :class:`~repro.sim.engine.AdaptiveBudgetReport` of an adaptive-budget
    config; ``store`` serves exact configuration-hash hits, resumes
    interrupted sweeps from their progress records and records computed
    sweeps; ``stats_out`` collects the run's
    :class:`~repro.sim.engine.SweepRunStats`; ``executor`` selects the shard
    executor tier (``None``/``"local"``, ``"inline"``, or an
    :class:`~repro.sim.executor.ExecutorSpec`); everything else is delegated
    to :meth:`SweepEngine.run`.
    """
    engine = SweepEngine(config, schemes=schemes)
    results = engine.run(
        benchmark,
        workers=workers,
        fault_maps=_resolve_fault_maps(config, sampling, rng, fault_maps),
        fixed_point=fixed_point,
        store=store,
        executor=executor,
    )
    _record_adaptive_report(engine, report_out)
    _record_run_stats(engine, stats_out)
    return results


def evaluate_mse_point(
    config: ExperimentConfig,
    *,
    schemes: Optional[Sequence[ProtectionScheme]] = None,
    sampling: str = "seeded",
    rng: Optional[np.random.Generator] = None,
    workers: int = 1,
    fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
    fault_maps_by_count: Optional[Mapping[int, List[FaultMap]]] = None,
    include_fault_free: bool = True,
    report_out: Optional[List["AdaptiveBudgetReport"]] = None,
    store: Optional["ResultStore"] = None,
    stats_out: Optional[List[SweepRunStats]] = None,
    executor: Optional[object] = None,
) -> Dict[str, MseDistribution]:
    """Local-MSE distributions of one grid point (a Fig. 5 slice).

    ``fault_maps_by_count`` accepts the historical ``{failure_count: [maps]}``
    shape of :meth:`YieldAnalyzer.shared_fault_maps`; it is translated onto
    the engine's canonical ``(count_index, sample_index)`` keys.
    ``executor`` selects the shard executor tier as in
    :func:`evaluate_quality_point`.
    """
    if fault_maps_by_count is not None:
        if fault_maps is not None:
            raise ValueError(
                "pass either fault_maps or fault_maps_by_count, not both"
            )
        counts = config.evaluated_counts()
        fault_maps = {
            (count_index, sample_index): fault_map
            for count_index, count in enumerate(counts)
            for sample_index, fault_map in enumerate(fault_maps_by_count[count])
        }
    engine = SweepEngine(config, schemes=schemes)
    results = engine.run_mse(
        workers=workers,
        fault_maps=_resolve_fault_maps(config, sampling, rng, fault_maps),
        include_fault_free=include_fault_free,
        store=store,
        executor=executor,
    )
    _record_adaptive_report(engine, report_out)
    _record_run_stats(engine, stats_out)
    return results


def evaluate_overhead_point(
    organization: MemoryOrganization,
    technology: Optional[Technology] = None,
    n_fm_values: Optional[Sequence[int]] = None,
    lut_realisation: str = "column",
) -> OverheadReport:
    """Hardware read-path overhead of every scheme (the Fig. 6 join input)."""
    model = OverheadModel(organization, technology)
    return model.compare(
        n_fm_values=n_fm_values, lut_realisation=lut_realisation
    )
