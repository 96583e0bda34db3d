"""Failure-count statistics (Eq. 4) and Monte-Carlo fault-map sampling.

The paper's Figs. 5 and 7 are produced by a stratified Monte-Carlo procedure:

1. the probability of a die having exactly ``n`` failures follows the binomial
   law of Eq. 4, ``Pr(N = n) = C(M, n) * Pcell**n * (1 - Pcell)**(M - n)``;
2. a maximum failure count ``Nmax`` is chosen so that a target fraction of all
   dies (99 % in Fig. 7) is covered;
3. for each failure count a batch of random fault maps is generated and
   evaluated, and the per-count results are re-weighted by ``Pr(N = n)`` when
   the overall distribution is assembled.

This module implements each of those pieces.  Binomial terms are computed in
the log domain (``lgamma``) so they stay finite for the paper's
``M = 131072`` cells.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

import numpy as np

from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization

if TYPE_CHECKING:  # pragma: no cover - import for type annotations only
    from repro.scenarios.base import FaultScenario

__all__ = [
    "failure_count_pmf",
    "failure_count_pmf_array",
    "failure_count_cdf",
    "expected_failures",
    "max_failures_for_coverage",
    "samples_per_failure_count",
    "FaultMapSampler",
]


def failure_count_pmf(total_cells: int, p_cell: float, n: int) -> float:
    """Eq. 4: probability that a die of ``total_cells`` cells has exactly ``n`` failures."""
    if total_cells < 0:
        raise ValueError("total_cells must be non-negative")
    if not 0.0 <= p_cell <= 1.0:
        raise ValueError("p_cell must be a probability")
    if n < 0 or n > total_cells:
        return 0.0
    if p_cell == 0.0:
        return 1.0 if n == 0 else 0.0
    if p_cell == 1.0:
        return 1.0 if n == total_cells else 0.0
    log_choose = (
        math.lgamma(total_cells + 1)
        - math.lgamma(n + 1)
        - math.lgamma(total_cells - n + 1)
    )
    log_pmf = (
        log_choose + n * math.log(p_cell) + (total_cells - n) * math.log1p(-p_cell)
    )
    return math.exp(log_pmf)


# PMF vectors keyed by (total_cells, p_cell), grown on demand.  Grid sweeps
# and the budgeted optimizer re-derive the failure-count grid of the same
# operating point many times (every rung revisits every surviving point);
# each entry is the list of scalar failure_count_pmf values, so a slice of
# the cached vector is bit-identical to the uncached per-count loop.
_PMF_ARRAY_CACHE: Dict[tuple, List[float]] = {}
_PMF_ARRAY_CACHE_MAX_ENTRIES = 64


def failure_count_pmf_array(
    total_cells: int, p_cell: float, max_n: int
) -> np.ndarray:
    """Vector of :func:`failure_count_pmf` for ``n = 0 .. max_n`` (inclusive).

    Bit-identical to calling the scalar function per count (the sweeps that
    re-weight Monte-Carlo strata rely on exact agreement), but a single call
    replaces an O(``max_n``) loop at every call site.  Vectors are memoized
    per ``(total_cells, p_cell)`` operating point -- revisiting a grid point
    (as every optimizer rung does) reuses the table instead of re-running the
    ``lgamma`` loop.  Callers receive a fresh array, never a cache alias.
    """
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    key = (total_cells, p_cell)
    table = _PMF_ARRAY_CACHE.get(key)
    if table is None:
        if len(_PMF_ARRAY_CACHE) >= _PMF_ARRAY_CACHE_MAX_ENTRIES:
            _PMF_ARRAY_CACHE.pop(next(iter(_PMF_ARRAY_CACHE)))
        table = _PMF_ARRAY_CACHE[key] = []
    top = min(max_n, total_cells)
    while len(table) <= top:
        table.append(failure_count_pmf(total_cells, p_cell, len(table)))
    values = table[: max_n + 1]
    if len(values) < max_n + 1:
        # Counts past total_cells are impossible; the scalar function
        # returns 0.0 for them, and so must the cached vector.
        values = values + [0.0] * (max_n + 1 - len(values))
    return np.array(values, dtype=np.float64)


# Cumulative Pr(N <= n) tables keyed by (total_cells, p_cell).  Sweeps call
# failure_count_cdf / max_failures_for_coverage for every count of a grid;
# without the table each call re-sums the PMF from zero, turning an O(n)
# sweep into O(n^2).  Tables grow on demand with strictly sequential
# accumulation so every entry equals the historical `sum(pmf(0..n))` result
# bit-for-bit.
_CDF_TABLE_CACHE: Dict[tuple, List[float]] = {}
_CDF_TABLE_CACHE_MAX_ENTRIES = 64


def _cumulative_cdf_table(total_cells: int, p_cell: float, n: int) -> List[float]:
    """Return the cached cumulative table extended through index ``n``."""
    key = (total_cells, p_cell)
    table = _CDF_TABLE_CACHE.get(key)
    if table is None:
        if len(_CDF_TABLE_CACHE) >= _CDF_TABLE_CACHE_MAX_ENTRIES:
            _CDF_TABLE_CACHE.pop(next(iter(_CDF_TABLE_CACHE)))
        table = _CDF_TABLE_CACHE[key] = []
    while len(table) <= min(n, total_cells):
        k = len(table)
        previous = table[-1] if table else 0.0
        table.append(previous + failure_count_pmf(total_cells, p_cell, k))
    return table


def failure_count_cdf(total_cells: int, p_cell: float, n: int) -> float:
    """``Pr(N <= n)`` under the binomial failure-count law.

    Cumulative sums are cached per ``(total_cells, p_cell)``, so sweeping
    ``n`` over a grid costs amortised O(1) per call instead of re-summing the
    PMF from zero every time.
    """
    if n < 0:
        return 0.0
    n = min(n, total_cells)
    return float(_cumulative_cdf_table(total_cells, p_cell, n)[n])


def expected_failures(total_cells: int, p_cell: float) -> float:
    """Mean number of failures ``M * Pcell``."""
    if total_cells < 0:
        raise ValueError("total_cells must be non-negative")
    if not 0.0 <= p_cell <= 1.0:
        raise ValueError("p_cell must be a probability")
    return total_cells * p_cell


def max_failures_for_coverage(
    total_cells: int, p_cell: float, coverage: float = 0.99
) -> int:
    """Smallest ``Nmax`` such that ``Pr(N <= Nmax) >= coverage``.

    This is the paper's rule for bounding the per-count sweep: "99 % of the
    memories have no more than Nmax failures".
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must be in (0, 1)")
    n = 0
    while n <= total_cells:
        # Reuses the shared cumulative table, so repeated coverage queries at
        # one operating point do not re-sum the PMF from zero.
        if _cumulative_cdf_table(total_cells, p_cell, n)[n] >= coverage:
            return n
        n += 1
    return total_cells


def samples_per_failure_count(
    total_cells: int,
    p_cell: float,
    total_runs: int,
    max_failures: Optional[int] = None,
) -> Dict[int, int]:
    """Allocate a Monte-Carlo budget across failure counts, as in Fig. 5.

    The paper draws ``Pr(N = n) * Trun`` samples for each failure count ``n``
    from 1 to ``max_failures``.  Counts whose allocation rounds to zero are
    still given one sample so the tail of the distribution is represented.
    """
    if total_runs <= 0:
        raise ValueError("total_runs must be positive")
    if max_failures is None:
        max_failures = max_failures_for_coverage(total_cells, p_cell, 0.999)
    pmf = failure_count_pmf_array(total_cells, p_cell, max_failures)
    return {
        n: max(int(round(float(pmf[n]) * total_runs)), 1)
        for n in range(1, max_failures + 1)
    }


class FaultMapSampler:
    """Stratified random fault-map generator for Monte-Carlo evaluation.

    ``scenario`` optionally routes every draw through a composable
    :class:`~repro.scenarios.base.FaultScenario` pipeline (source ->
    transforms -> repair), which is how non-i.i.d. fault populations (aged,
    clustered, repaired dies) reach the sweeps.  Without a scenario the
    sampler draws directly from :class:`FaultMap` -- bit-identical to the
    default ``iid-pcell`` scenario and to every historical stream.
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        rng: Optional[np.random.Generator] = None,
        fault_kind: FaultKind = FaultKind.BIT_FLIP,
        scenario: Optional["FaultScenario"] = None,
    ) -> None:
        self._organization = organization
        self._rng = rng if rng is not None else np.random.default_rng()
        self._fault_kind = fault_kind
        if scenario is not None and fault_kind is not FaultKind.BIT_FLIP:
            # The scenario's source owns the fault behaviour; a conflicting
            # sampler-level kind would be silently ignored otherwise.
            raise ValueError(
                "fault_kind cannot be combined with a scenario; configure "
                "the kind on the scenario's fault source instead"
            )
        self._scenario = scenario

    @property
    def organization(self) -> MemoryOrganization:
        """Geometry the sampled fault maps target."""
        return self._organization

    @property
    def scenario(self) -> Optional["FaultScenario"]:
        """The fault-scenario pipeline draws run through (``None`` = plain i.i.d.)."""
        return self._scenario

    def sample_with_count(self, fault_count: int) -> FaultMap:
        """One random fault map with exactly ``fault_count`` manufactured faults.

        Without a scenario this draws cells without replacement directly from
        the generator, keeping the exact random stream of the original scalar
        implementation (the legacy Fig. 7 runner's golden regressions depend
        on it).  With a scenario the map runs through the full pipeline (a
        repair stage may leave fewer than ``fault_count`` post-repair faults).
        """
        if self._scenario is not None:
            return self._scenario.sample_die(
                self._organization, fault_count, self._rng
            )
        return FaultMap.random_with_count(
            self._organization, fault_count, self._rng, kind=self._fault_kind
        )

    def sample_batch(
        self,
        fault_count: int,
        batch_size: int,
        max_faults_per_word: Optional[int] = None,
        *,
        vectorized: bool = True,
        max_attempts: int = 1000,
    ) -> List[FaultMap]:
        """A batch of independent fault maps with the same failure count.

        By default the whole batch is drawn by the vectorised rejection
        sampler (:meth:`FaultMap.random_batch_with_count`), including the
        optional rejection of maps with more than ``max_faults_per_word``
        faults in a single word.  Distributionally identical to drawing the
        maps one by one, but the random stream differs from repeated
        :meth:`sample_with_count` calls; pass ``vectorized=False`` to
        reproduce the exact legacy per-map stream (used by callers whose
        seeded results are pinned by regression tests).  Either way an
        infeasible ``max_faults_per_word`` raises :class:`ValueError` and a
        feasible-but-unlucky rejection run gives up with a
        :class:`RuntimeError` after ``max_attempts`` redraws per map.

        With a scenario configured, the whole batch flows through the
        scenario pipeline instead (the scenario's source honours the same
        ``vectorized`` switch, so legacy-stream callers stay reproducible).
        """
        if self._scenario is not None:
            return self._scenario.sample_batch(
                self._organization,
                fault_count,
                batch_size,
                self._rng,
                max_faults_per_word=max_faults_per_word,
                vectorized=vectorized,
                max_rounds=max_attempts,
            )
        return FaultMap.random_batch_with_count(
            self._organization,
            fault_count,
            batch_size,
            self._rng,
            kind=self._fault_kind,
            max_faults_per_word=max_faults_per_word,
            max_rounds=max_attempts,
            vectorized=vectorized,
        )

    def sample_with_pcell(self, p_cell: float) -> FaultMap:
        """One fault map where each cell fails independently with ``p_cell``."""
        return FaultMap.random_with_pcell(
            self._organization, p_cell, self._rng, kind=self._fault_kind
        )

    def iter_stratified(
        self,
        p_cell: float,
        total_runs: int,
        max_failures: Optional[int] = None,
    ) -> Iterator[tuple[int, float, List[FaultMap]]]:
        """Yield ``(failure_count, probability, fault_maps)`` per stratum.

        The probability is ``Pr(N = n)`` from Eq. 4 and should be used to
        weight the stratum's results when assembling distributions.  Each
        stratum's maps are drawn through :meth:`sample_batch`, so a sampler
        constructed with ``scenario=`` runs every stratum through the full
        scenario pipeline (source -> transforms -> repair); the stratum is
        then labelled by the *pre-repair* failure count, and a repair stage
        may leave individual maps with fewer surviving faults.

        .. deprecated::
            This generator predates the sweep engine and duplicates its
            stratified planning; new sweeps should go through
            :class:`~repro.sim.engine.SweepEngine` (whose
            :class:`~repro.sim.engine.ExperimentConfig` owns the failure-count
            grid, the ``Pr(N = n)`` weighting, and -- via a
            :class:`~repro.scenarios.base.ScenarioSpec` -- the sampling
            pipeline).  It is kept as the minimal paper-faithful reference of
            the Fig. 5 budget-allocation rule, and now emits a
            :class:`DeprecationWarning` (once per call, before the first
            stratum is drawn).
        """
        # A plain function that returns an inner generator: the warning must
        # fire exactly once at *call* time (with the caller on the stack),
        # not lazily on the first next().
        warnings.warn(
            "FaultMapSampler.iter_stratified is deprecated; run stratified "
            "sweeps through repro.sim.engine.SweepEngine (ExperimentConfig "
            "owns the failure-count grid, weighting, and scenario pipeline)",
            DeprecationWarning,
            stacklevel=2,
        )
        allocation = samples_per_failure_count(
            self._organization.total_cells, p_cell, total_runs, max_failures
        )

        def _strata() -> Iterator[tuple[int, float, List[FaultMap]]]:
            for n, batch_size in allocation.items():
                probability = failure_count_pmf(
                    self._organization.total_cells, p_cell, n
                )
                yield n, probability, self.sample_batch(n, batch_size)

        return _strata()
