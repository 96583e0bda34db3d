"""Data-series generators for every figure of the paper's evaluation.

Each ``figureN_*`` function reproduces the corresponding figure's underlying
data.  None of them plot; they return dictionaries of numpy arrays / result
objects that the benchmarks print as tables and that a notebook could plot
directly.

The Monte-Carlo figures are thin views over the design-space exploration
layer: ``figure5_mse_cdf`` and ``figure7_quality`` each evaluate one grid
point through :mod:`repro.dse.evaluate` (sharing the sweep engine's
parallelism, seeding, and the result store), and ``figure6_overhead`` is the
overhead join input.  The general grid lives behind ``repro-faulty-mem dse``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.base import ProtectionScheme
from repro.core.segments import (
    error_magnitude_profile,
    max_lut_bits,
    unprotected_error_magnitude_profile,
)
from repro.dse.evaluate import (
    evaluate_mse_point,
    evaluate_overhead_point,
    evaluate_quality_point,
)
from repro.faultmodel.pcell import PcellModel, classical_yield
from repro.faultmodel.yieldmodel import MseDistribution
from repro.hardware.overhead import OverheadReport
from repro.hardware.technology import Technology
from repro.memory.organization import MemoryOrganization
from repro.scenarios.base import ScenarioSpec
from repro.sim.engine import AdaptiveBudget, AdaptiveBudgetReport, ExperimentConfig
from repro.sim.experiment import BenchmarkDefinition
from repro.sim.runner import QualityDistribution

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.engine import SweepRunStats
    from repro.store.store import ResultStore

__all__ = [
    "figure2_pcell_vs_vdd",
    "figure4_error_magnitude",
    "figure5_mse_cdf",
    "figure6_overhead",
    "figure7_quality",
    "standard_figure7_schemes",
]


def figure2_pcell_vs_vdd(
    vdd_values: Optional[Sequence[float]] = None,
    model: Optional[PcellModel] = None,
    organization: Optional[MemoryOrganization] = None,
) -> Dict[str, np.ndarray]:
    """Fig. 2: bit-cell failure probability and classical yield versus supply voltage.

    Returns a dict with the VDD sweep, the per-cell failure probability, and
    the zero-failure yield of the given memory (16 kB by default) at each
    voltage -- the quantity whose collapse around 0.73 V motivates the paper.
    """
    model = model if model is not None else PcellModel.calibrated_28nm()
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    if vdd_values is None:
        vdd_values = np.linspace(0.60, 1.00, 41)
    vdd = np.asarray(vdd_values, dtype=np.float64)
    p_cell = model.p_cell_curve(vdd)
    memory_yield = np.array(
        [classical_yield(p, organization.total_cells) for p in p_cell]
    )
    return {"vdd": vdd, "p_cell": p_cell, "classical_yield": memory_yield}


def figure4_error_magnitude(word_width: int = 32) -> Dict[str, np.ndarray]:
    """Fig. 4: worst-case error magnitude per faulty bit position for each nFM.

    Returns a dict mapping ``"no-correction"`` and ``"nfm=k"`` to arrays of
    error magnitudes indexed by the faulty bit position.
    """
    series: Dict[str, np.ndarray] = {
        "no-correction": unprotected_error_magnitude_profile(word_width)
    }
    for n_fm in range(1, max_lut_bits(word_width) + 1):
        series[f"nfm={n_fm}"] = error_magnitude_profile(word_width, n_fm)
    return series


def figure5_mse_cdf(
    organization: Optional[MemoryOrganization] = None,
    p_cell: float = 5e-6,
    samples_per_count: int = 300,
    coverage: float = 0.9999999,
    n_fm_values: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
    workers: int = 1,
    sampling: str = "legacy",
    master_seed: Optional[int] = None,
    scenario: Optional[ScenarioSpec] = None,
    adaptive: Optional[AdaptiveBudget] = None,
    report_out: Optional[List[AdaptiveBudgetReport]] = None,
    store: Optional["ResultStore"] = None,
    stats_out: Optional[List["SweepRunStats"]] = None,
    access_trace: int = 1,
    executor: Optional[object] = None,
) -> Dict[str, MseDistribution]:
    """Fig. 5: CDF of the local MSE for every protection option.

    Evaluates the unprotected memory, the H(22,16) P-ECC baseline, and the
    bit-shuffling scheme for every requested ``nFM`` against the *same*
    Monte-Carlo population of faulty dies, at the paper's operating point
    (16 kB memory, Pcell = 5e-6) -- one MSE grid point of the design space
    (:func:`repro.dse.evaluate.evaluate_mse_point`).

    ``workers`` fans the per-die analysis out over processes; results are
    bit-identical for any count.  ``sampling="legacy"`` (default) draws the
    die population serially from ``rng``, reproducing the historical pinned
    curves; ``"seeded"`` derives one seed-sequence child per die from
    ``master_seed`` so sampling parallelises too.  ``scenario``
    optionally names a fault-scenario pipeline (aged / clustered / repaired
    dies) the population is drawn through; ``None`` is the default i.i.d.
    population, and scenarios with a transient tier are rejected by the
    engine (the analytical MSE evaluation cannot model per-read faults; use
    :func:`figure7_quality`).  ``adaptive`` switches the sweep to the engine's
    confidence-driven budget (requires seeded sampling;
    ``samples_per_count`` then caps the spend instead of fixing it), with
    the outcome report appended to ``report_out`` when given.  ``store``
    makes the figure a store-backed view: an exact configuration-hash hit
    is served from the :class:`~repro.store.ResultStore` bit-identically
    with zero new die evaluations, an interrupted sweep resumes from its
    progress record, and a computed sweep is recorded into it;
    ``stats_out`` collects the run's
    :class:`~repro.sim.engine.SweepRunStats` (which path ran, die counts).
    ``executor`` selects the shard executor tier (``None``/``"local"``,
    ``"inline"``, or an :class:`~repro.sim.executor.ExecutorSpec` for
    distributed TCP sweeps); results are bit-identical across tiers.
    """
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    if n_fm_values is None:
        n_fm_values = range(1, max_lut_bits(organization.word_width) + 1)
    if adaptive is not None and sampling == "legacy":
        raise ValueError(
            "adaptive budgets require sampling='seeded' (the die population "
            "is not known up front)"
        )
    if sampling == "legacy":
        rng = rng if rng is not None else np.random.default_rng(2015)
        master_seed = None
    else:
        master_seed = master_seed if master_seed is not None else 2015
    config = ExperimentConfig(
        rows=organization.rows,
        word_width=organization.word_width,
        p_cell=p_cell,
        coverage=coverage,
        samples_per_count=samples_per_count,
        master_seed=master_seed,
        scheme_specs=("no-protection", "p-ecc")
        + tuple(f"bit-shuffle-nfm{n_fm}" for n_fm in n_fm_values),
        discard_multi_fault_words=False,
        scenario=scenario,
        adaptive=adaptive,
        access_trace=access_trace,
    )
    return evaluate_mse_point(
        config,
        sampling=sampling,
        rng=rng,
        workers=workers,
        report_out=report_out,
        store=store,
        stats_out=stats_out,
        executor=executor,
    )


def figure6_overhead(
    organization: Optional[MemoryOrganization] = None,
    technology: Optional[Technology] = None,
    lut_realisation: str = "column",
) -> OverheadReport:
    """Fig. 6: read power / read delay / area overhead relative to SECDED ECC."""
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    return evaluate_overhead_point(
        organization, technology, lut_realisation=lut_realisation
    )


def standard_figure7_schemes(word_width: int = 32) -> List[ProtectionScheme]:
    """The four schemes plotted in Fig. 7: none, P-ECC, bit-shuffle nFM=1 and nFM=2."""
    return [
        NoProtection(word_width),
        PriorityEccScheme(word_width),
        BitShuffleScheme(word_width, 1),
        BitShuffleScheme(word_width, 2),
    ]


def figure7_quality(
    benchmark: BenchmarkDefinition,
    organization: Optional[MemoryOrganization] = None,
    p_cell: float = 1e-3,
    samples_per_count: int = 10,
    n_count_points: Optional[int] = 12,
    schemes: Optional[Sequence[ProtectionScheme]] = None,
    rng: Optional[np.random.Generator] = None,
    workers: int = 1,
    master_seed: Optional[int] = None,
    scenario: Optional[ScenarioSpec] = None,
    adaptive: Optional[AdaptiveBudget] = None,
    report_out: Optional[List[AdaptiveBudgetReport]] = None,
    store: Optional["ResultStore"] = None,
    stats_out: Optional[List["SweepRunStats"]] = None,
    access_trace: int = 1,
    executor: Optional[object] = None,
) -> Dict[str, QualityDistribution]:
    """Fig. 7: CDF of the application quality metric under memory failures.

    Runs one benchmark (Elasticnet, PCA, or KNN) against the Fig. 7 scheme set
    at the 16 kB / Pcell = 1e-3 operating point.  ``samples_per_count`` and
    ``n_count_points`` control the Monte-Carlo budget (the paper uses 500
    samples for every failure count up to Nmax; the defaults here are sized
    for a laptop run and can be raised to match).

    ``workers`` fans the per-die evaluation out over processes; the result is
    bit-identical for any worker count.  When ``master_seed`` is given the
    sweep runs on the :class:`~repro.sim.engine.SweepEngine` seeded sampling
    path (one seed-sequence child per die) instead of the legacy shared
    generator ``rng``.  Either way the figure is one quality grid point of the
    design space (:func:`repro.dse.evaluate.evaluate_quality_point`).
    ``adaptive`` switches the sweep to the engine's confidence-driven budget
    (requires ``master_seed``; ``samples_per_count`` then caps the spend
    instead of fixing it), with the outcome report appended to
    ``report_out`` when given.  ``store`` / ``stats_out`` behave as in
    :func:`figure5_mse_cdf` (store-backed view with bit-identical hits and
    resumable progress).
    ``access_trace`` sets the read passes replayed per load for scenarios
    with a transient tier (which require ``master_seed`` -- the per-read
    corruption replays from each die's seed-sequence child).  ``executor``
    behaves as in :func:`figure5_mse_cdf`.
    """
    organization = (
        organization if organization is not None else MemoryOrganization.paper_16kb()
    )
    if schemes is None:
        schemes = standard_figure7_schemes(organization.word_width)
    if adaptive is not None and master_seed is None:
        raise ValueError(
            "adaptive budgets require a master_seed (the die population is "
            "not known up front, so legacy shared-generator sampling cannot "
            "supply it)"
        )
    config = ExperimentConfig(
        rows=organization.rows,
        word_width=organization.word_width,
        p_cell=p_cell,
        samples_per_count=samples_per_count,
        n_count_points=n_count_points,
        master_seed=master_seed,
        scheme_specs=tuple(scheme.name for scheme in schemes),
        benchmark=benchmark.name,
        scenario=scenario,
        adaptive=adaptive,
        access_trace=access_trace,
    )
    if master_seed is not None:
        return evaluate_quality_point(
            config,
            benchmark,
            schemes=list(schemes),
            workers=workers,
            report_out=report_out,
            store=store,
            stats_out=stats_out,
            executor=executor,
        )
    rng = rng if rng is not None else np.random.default_rng(52)
    return evaluate_quality_point(
        config,
        benchmark,
        schemes=list(schemes),
        sampling="legacy",
        rng=rng,
        workers=workers,
        report_out=report_out,
        store=store,
        stats_out=stats_out,
        executor=executor,
    )
