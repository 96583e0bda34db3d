"""Stratified Monte-Carlo runner for the application quality study (Fig. 7).

For every failure count ``N = 1..Nmax`` (where ``Nmax`` covers 99 % of all
dies at the operating ``Pcell``) the runner draws random fault maps, stores
each benchmark's training features through the faulty memory behind every
scheme under study, retrains, and records the resulting quality metric.  The
per-count results are weighted by ``Pr(N = n)`` (Eq. 4) -- together with the
fault-free point mass -- to form the quality CDFs plotted in Fig. 7.

This class is the legacy, generator-seeded front end of the sweep: fault maps
are drawn sequentially from the caller's ``np.random.Generator`` (preserving
the exact random stream of the original serial implementation and its golden
regression curves), and evaluation, parallel fan-out, and the result store are
delegated to :class:`repro.sim.engine.SweepEngine`.  Because the evaluation
of a drawn die is deterministic, ``run(..., workers=N)`` returns bit-identical
distributions for every ``N``.  New code that wants parallel *sampling* as
well (per-die seed-sequence children, reproducible for any worker count)
should use :class:`~repro.sim.engine.SweepEngine` with a seeded
:class:`~repro.sim.engine.ExperimentConfig` directly.

This front end is fixed-budget by construction: its die population is
pre-drawn from the shared generator before evaluation starts, which is
exactly what an adaptive (confidence-driven) budget cannot do.  Sweeps that
want :class:`~repro.sim.engine.AdaptiveBudget` early stopping go through the
engine's seeded sampling path (``figure5_mse_cdf`` / ``figure7_quality``
``adaptive=...``, or ``McBudgetSpec(mode="adaptive")`` in a DSE spec).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import ProtectionScheme
from repro.faultmodel.montecarlo import max_failures_for_coverage
from repro.memory.organization import MemoryOrganization
from repro.quantize.fixedpoint import FixedPointFormat
from repro.sim.engine import (
    ExperimentConfig,
    QualityDistribution,
    evaluated_failure_counts,
    reassign_count_probabilities,
)
from repro.sim.experiment import BenchmarkDefinition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports sim)
    from repro.store.store import ResultStore

__all__ = ["QualityDistribution", "QualityExperimentRunner"]


class QualityExperimentRunner:
    """Runs one benchmark against several schemes over a shared set of faulty dies.

    Parameters
    ----------
    organization:
        Memory geometry (the 16 kB / 32-bit configuration in the paper).
    p_cell:
        Bit-cell failure probability of the operating point (1e-3 in Fig. 7).
    rng:
        Seeded random generator for reproducible fault maps.
    coverage:
        Fraction of the die population covered by the failure-count sweep.
    fixed_point:
        Quantisation format for the stored training features.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        p_cell: float,
        rng: Optional[np.random.Generator] = None,
        coverage: float = 0.99,
        fixed_point: Optional[FixedPointFormat] = None,
    ) -> None:
        if not 0.0 < p_cell < 1.0:
            raise ValueError("p_cell must be in (0, 1)")
        self._organization = organization
        self._p_cell = p_cell
        self._rng = rng if rng is not None else np.random.default_rng()
        self._coverage = coverage
        self._fixed_point = fixed_point
        self._max_failures = max_failures_for_coverage(
            organization.total_cells, p_cell, coverage
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """Memory geometry under study."""
        return self._organization

    @property
    def p_cell(self) -> float:
        """Operating-point bit-cell failure probability."""
        return self._p_cell

    @property
    def max_failures(self) -> int:
        """Largest failure count in the sweep (coverage-determined Nmax)."""
        return self._max_failures

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def failure_counts(self, n_points: Optional[int] = None) -> List[int]:
        """Failure counts included in the sweep.

        By default every count ``1..Nmax`` is evaluated.  When ``n_points`` is
        given, a geometric subsample of the counts is used so expensive
        benchmarks stay tractable; interpolation between the evaluated counts
        is unnecessary because the per-count probabilities of the skipped
        counts are re-assigned to the nearest evaluated count.
        """
        return evaluated_failure_counts(self._max_failures, n_points)

    def _count_probabilities(self, evaluated_counts: Sequence[int]) -> Dict[int, float]:
        """Assign each failure count's probability to the nearest evaluated count."""
        return reassign_count_probabilities(
            self._organization.total_cells,
            self._p_cell,
            self._max_failures,
            evaluated_counts,
        )

    def run(
        self,
        benchmark: BenchmarkDefinition,
        schemes: Sequence[ProtectionScheme],
        samples_per_count: int = 20,
        n_count_points: Optional[int] = None,
        discard_multi_fault_words: bool = True,
        workers: int = 1,
        store: Optional["ResultStore"] = None,
    ) -> Dict[str, QualityDistribution]:
        """Run the benchmark for every scheme over a shared population of dies.

        ``discard_multi_fault_words`` reproduces the paper's simplification for
        Fig. 7: fault maps containing a row with more than one faulty cell are
        redrawn, so the SECDED reference is exactly error-free and the
        comparison isolates the single-fault-per-word regime.

        ``workers`` fans the (deterministic) per-die evaluation out over that
        many processes; the fault maps are always drawn serially from this
        runner's generator first, so the returned distributions are
        bit-identical for every worker count.  ``store`` optionally names a
        :class:`~repro.store.ResultStore` that serves the finished sweep and
        records its progress after every completed shard (see
        :meth:`repro.sim.engine.SweepEngine.run`).
        """
        if samples_per_count <= 0:
            raise ValueError("samples_per_count must be positive")
        config = ExperimentConfig(
            rows=self._organization.rows,
            word_width=self._organization.word_width,
            p_cell=self._p_cell,
            coverage=self._coverage,
            samples_per_count=samples_per_count,
            n_count_points=n_count_points,
            master_seed=None,
            scheme_specs=tuple(scheme.name for scheme in schemes),
            discard_multi_fault_words=discard_multi_fault_words,
            benchmark=benchmark.name,
        )
        # The DSE quality evaluator pre-draws every die in the exact
        # count-major order (and from the exact shared-generator stream) of
        # the original serial runner, then delegates to the engine.  Imported
        # here: the DSE layer sits above this module.
        from repro.dse.evaluate import evaluate_quality_point

        return evaluate_quality_point(
            config,
            benchmark,
            schemes=list(schemes),
            sampling="legacy",
            rng=self._rng,
            workers=workers,
            fixed_point=self._fixed_point,
            store=store,
        )
