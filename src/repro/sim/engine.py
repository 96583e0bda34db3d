"""Parallel sharded Monte-Carlo sweep engine for the Fig. 5 / Fig. 7 studies.

The paper's application study evaluates thousands of faulty dies: for every
failure count ``n`` of a stratified grid, ``samples_per_count`` random fault
maps are drawn, each die's corrupted training data is pushed through every
protection scheme, and the per-die qualities are re-weighted by ``Pr(N = n)``
(Eq. 4) into the quality CDFs.  Every die is independent of every other die,
which makes the sweep embarrassingly parallel -- *if* the random sampling is
arranged so that results do not depend on how the work is distributed.

This module provides that arrangement:

* :class:`ExperimentConfig` -- a frozen, hashable description of one sweep
  (memory organization, operating point, Monte-Carlo budget, master seed,
  protection schemes by name).
* :class:`SweepEngine` -- one sweep pipeline: it shards the ``(failure_count x
  sample)`` grid into independent work units, evaluates them inline, on a
  process pool, or on remote workers, and folds each scheme's per-die scores
  into a ``Pr(N = n)``-weighted ECDF.
* durability -- with a :class:`~repro.store.ResultStore`, a ``progress``
  record keyed by a hash of the full configuration is appended after every
  shard or adaptive round, so an interrupted sweep resumes without
  re-evaluating finished dies, and the finished sweep's result record
  supersedes it under the same key and is served on later runs.

Only the per-die score differs between the two studies.
:meth:`SweepEngine.run` scores a die by the quality of a benchmark trained on
its corrupted features (Fig. 7); :meth:`SweepEngine.run_mse` scores it by its
local MSE (Eq. 6, Fig. 5).  Plan, seeding, fan-out, progress, store and ECDF
assembly are one code path, and the two are the grid-point evaluators behind
the :mod:`repro.dse` design-space exploration layer.

Deterministic seeding scheme
----------------------------

Reproducibility is guaranteed by deriving one independent random stream per
die from the master seed, never from shared generator state:

1. the master seed defines the root ``np.random.SeedSequence(master_seed)``;
2. die ``i`` (in the canonical enumeration below) uses the root's ``i``-th
   spawned child, which by the ``SeedSequence`` spawning algebra equals
   ``np.random.SeedSequence(master_seed, spawn_key=(i,))`` -- so a worker can
   reconstruct its streams from ``(master_seed, die_index)`` alone;
3. the die's fault map (including the rejection of maps with multi-fault
   words) is drawn from ``np.random.default_rng`` of that child and nothing
   else; the evaluation of a drawn die is fully deterministic.

The canonical die enumeration is count-major: with evaluated failure counts
``c_0 < c_1 < ...`` and ``S = samples_per_count`` samples each, die index
``i = count_index * S + sample_index``.  Because every die's result depends
only on ``(master_seed, i)``, the assembled distributions are bit-identical
for any worker count, shard size, or shard execution order.  Future schemes
and samplers must follow the same rule -- consume randomness only from the
die's own child sequence -- to stay reproducible.

Either sweep also accepts pre-drawn fault maps (``fault_maps=``), which is
how the legacy :class:`~repro.sim.runner.QualityExperimentRunner` API keeps
its historical shared-generator sampling (and its golden regression curves)
while delegating all evaluation, parallelism, and progress recording to this
engine.

Budget modes and the streaming reduction
----------------------------------------

Two Monte-Carlo budgets are supported over the same sharded machinery:

* **Fixed** (the default): every failure count receives exactly
  ``samples_per_count`` dies, shards return exact per-die scores, and the
  merge path (via the exact mergeable buffer of :mod:`repro.stats`) is
  bit-identical to the historical serial implementations -- this is the mode
  the pinned golden curves and the per-die progress records live in.
* **Adaptive** (``config.adaptive = AdaptiveBudget(...)``): the sweep runs in
  rounds.  Workers return O(bins) *streaming summaries* per shard -- one
  :class:`~repro.stats.StreamingMoments` of the yield indicator and one
  :class:`~repro.stats.FixedGridEcdfSketch` of the raw scores per (scheme,
  stratum) -- which the parent folds in canonical shard order into
  :class:`~repro.stats.StratumVarianceTracker` state.  After each round the
  controller computes the confidence half-width of the yield-at-threshold
  estimate and either stops (target met, or the die cap reached) or assigns
  the next round's dies across strata by Neyman allocation (proportional to
  ``Pr(N = n) * observed stratum std``).  Adaptive dies are seeded by
  ``SeedSequence(master_seed, spawn_key=(count_index, sample_index))``, so a
  die's stream is independent of the allocation path that scheduled it; with
  a fixed shard width the whole run is bit-identical for any worker count.
  Adaptive state (round summaries and per-stratum sample counts) is recorded
  under a hash that includes the adaptive parameters, so fixed and adaptive
  progress can never alias.

When several workers are used, the benchmark's feature matrices and the
pre-quantized training codes are placed in :mod:`multiprocessing.shared_memory`
blocks (:class:`~repro.sim.sharedmem.SharedNdarray`) and attached once per
worker process instead of being pickled into each worker, so fanning out a
sweep does not multiply the training set's memory footprint.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.base import ProtectionScheme
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.faultmodel.montecarlo import (
    failure_count_pmf,
    failure_count_pmf_array,
    max_failures_for_coverage,
)
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quality.cdf import WeightedEcdf
from repro.quantize.fixedpoint import FixedPointFormat
from repro.scenarios.base import (
    FaultScenario,
    ScenarioSpec,
    validated_effective_p_cell,
)
from repro.scenarios.catalog import default_scenario
from repro.sim import shardeval as _shardeval
from repro.sim.executor import ExecutorSpec, ShardExecutor, make_executor
from repro.sim.experiment import BenchmarkDefinition
from repro.stats import (
    FixedGridEcdfSketch,
    StratumVarianceTracker,
    WeightedSampleBuffer,
    largest_remainder_allocation,
    normal_critical_value,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports sim)
    from repro.store.store import ResultStore

__all__ = [
    "DEFAULT_SCHEME_SPECS",
    "AdaptiveBudget",
    "AdaptiveBudgetReport",
    "ExperimentConfig",
    "QualityDistribution",
    "SweepEngine",
    "SweepRunStats",
    "build_scheme",
    "evaluated_failure_counts",
    "reassign_count_probabilities",
]

_ENGINE_VERSION = 1
_PROGRESS_VERSION = 1

# The four Fig. 7 schemes, by registry spec.
DEFAULT_SCHEME_SPECS: Tuple[str, ...] = (
    "no-protection",
    "p-ecc",
    "bit-shuffle-nfm1",
    "bit-shuffle-nfm2",
)


# --------------------------------------------------------------------------- #
# Scheme registry
# --------------------------------------------------------------------------- #
def build_scheme(spec: str, word_width: int) -> ProtectionScheme:
    """Instantiate a protection scheme from its registry spec.

    Accepted specs (case-insensitive) and the canonical report names they
    produce for 32-bit words:

    ==============================  ===============================
    spec                            scheme
    ==============================  ===============================
    ``no-protection`` / ``none``    :class:`NoProtection`
    ``secded`` / ``secded-...``     :class:`SecdedScheme` (H(39,32))
    ``p-ecc`` / ``p-ecc-...``       :class:`PriorityEccScheme`
    ``bit-shuffle-nfm<k>``          :class:`BitShuffleScheme`, nFM=k
    ==============================  ===============================

    Report names (``scheme.name``) round-trip: every name produced by the
    registry is itself a valid spec, so configurations can be serialised by
    name alone.
    """
    normalized = spec.strip().lower()
    if normalized in ("none", "no-protection"):
        return NoProtection(word_width)
    for prefix, label, cls in (
        ("secded", "SECDED", SecdedScheme),
        ("p-ecc", "P-ECC", PriorityEccScheme),
    ):
        if normalized == prefix or normalized.startswith(prefix + "-"):
            scheme = cls(word_width)
            # Only the variant this registry can actually build is accepted;
            # a config naming some other code must fail loudly, not run
            # silently with the default.
            if normalized not in (prefix, scheme.name.lower()):
                raise ValueError(
                    f"unknown {label} variant {spec!r}; for {word_width}-bit "
                    f"words this registry builds {scheme.name!r}"
                )
            return scheme
    match = re.fullmatch(r"bit-shuffle-nfm(\d+)", normalized)
    if match:
        return BitShuffleScheme(word_width, int(match.group(1)))
    raise ValueError(
        f"unknown scheme spec {spec!r}; expected one of no-protection, "
        f"secded, p-ecc, or bit-shuffle-nfm<k>"
    )


# --------------------------------------------------------------------------- #
# Failure-count grid helpers (shared with the legacy runner API)
# --------------------------------------------------------------------------- #
def evaluated_failure_counts(
    max_failures: int, n_points: Optional[int] = None
) -> List[int]:
    """The failure counts evaluated by a sweep: all of ``1..max_failures``, or
    a geometric subsample of ``n_points`` of them."""
    counts = list(range(1, max_failures + 1))
    if n_points is None or n_points >= len(counts):
        return counts
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    positions = np.unique(
        np.geomspace(1, max_failures, n_points).round().astype(int)
    )
    return positions.tolist()


def reassign_count_probabilities(
    total_cells: int,
    p_cell: float,
    max_failures: int,
    evaluated_counts: Sequence[int],
) -> Dict[int, float]:
    """Assign each failure count's ``Pr(N = n)`` to the nearest evaluated count.

    Probability mass of skipped counts moves to the closest evaluated count
    (ties to the smaller count), conserving the sweep's total coverage.
    """
    evaluated = np.asarray(sorted(evaluated_counts))
    probabilities = {int(c): 0.0 for c in evaluated}
    pmf = failure_count_pmf_array(total_cells, p_cell, max_failures)
    for n in range(1, max_failures + 1):
        nearest = int(evaluated[np.argmin(np.abs(evaluated - n))])
        probabilities[nearest] += float(pmf[n])
    return probabilities


# --------------------------------------------------------------------------- #
# Adaptive Monte-Carlo budgets
# --------------------------------------------------------------------------- #
# Dies per adaptive work unit.  Deliberately *not* derived from the worker
# count: the Welford merge order follows the shard partition, so a fixed
# width is what makes adaptive results bit-identical for any worker count.
_ADAPTIVE_SHARD_DIES = 32

_DEFAULT_QUALITY_THRESHOLD = 0.9  # normalised quality (clean = 1.0)
_DEFAULT_MSE_THRESHOLD = 1e2  # local-MSE bound of the yield criterion


def _adaptive_sketch_edges(evaluation: str, bins: int) -> np.ndarray:
    """The shared score grid of one adaptive sweep's ECDF sketches.

    Quality scores are normalised around 1.0, so a linear grid over
    ``[0, 2]`` covers them (out-of-range dies land in the exact-extremum
    under/overflow bins).  MSE magnitudes span many decades, so they get a
    log grid; MSE = 0 (fully corrected dies) falls in the underflow bin,
    whose support is the exact observed minimum, i.e. 0.0.
    """
    if evaluation == "mse":
        return FixedGridEcdfSketch.log10(1e-12, 1e18, bins).edges
    return FixedGridEcdfSketch.linear(0.0, 2.0, bins).edges


@dataclass(frozen=True)
class AdaptiveBudget:
    """Confidence-driven Monte-Carlo budget (the ``mode="adaptive"`` sweep).

    The controller estimates the yield at a threshold -- the fraction of
    dies whose normalised quality reaches ``threshold`` (quality sweeps) or
    whose local MSE stays at or below it (MSE sweeps) -- and keeps drawing
    dies until the estimate's two-sided confidence half-width drops to
    ``target_ci``, or ``max_total_samples`` dies have been spent.

    Parameters
    ----------
    target_ci:
        Target half-width of the yield estimate's confidence interval.
    confidence:
        Confidence level of the interval (normal approximation).
    threshold:
        Yield threshold the CI is tracked at; ``None`` selects the mode
        default (normalised quality 0.9, or MSE 1e2).
    initial_samples_per_count:
        Dies drawn for every failure count in the first round (at least 2,
        so every stratum has a defined sample variance).
    round_dies:
        Total dies per subsequent round, split across strata by Neyman
        allocation.
    max_total_samples:
        Hard cap on evaluated dies; ``None`` means the equivalent fixed
        budget (``samples_per_count`` dies for every failure count), so an
        adaptive sweep never costs more than the fixed sweep it replaces.
    sketch_bins:
        Bin count of the fixed-grid ECDF sketches (the O(bins) that bounds
        shard payloads and merged-result memory).
    """

    target_ci: float = 0.02
    confidence: float = 0.95
    threshold: Optional[float] = None
    initial_samples_per_count: int = 8
    round_dies: int = 64
    max_total_samples: Optional[int] = None
    sketch_bins: int = 256

    def __post_init__(self) -> None:
        if not self.target_ci > 0.0:
            raise ValueError("target_ci must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.initial_samples_per_count < 2:
            raise ValueError(
                "initial_samples_per_count must be at least 2 (a stratum "
                "needs two observations for a sample variance)"
            )
        if self.round_dies < 1:
            raise ValueError("round_dies must be positive")
        if self.max_total_samples is not None and self.max_total_samples < 1:
            raise ValueError("max_total_samples must be positive")
        if self.sketch_bins < 8:
            raise ValueError("sketch_bins must be at least 8")

    def resolved_threshold(self, evaluation: str) -> float:
        """The yield threshold for an evaluation mode (mode default if unset)."""
        if self.threshold is not None:
            return float(self.threshold)
        if evaluation == "mse":
            return _DEFAULT_MSE_THRESHOLD
        return _DEFAULT_QUALITY_THRESHOLD

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (keys the configuration hash)."""
        return asdict(self)


@dataclass
class AdaptiveBudgetReport:
    """Outcome of one adaptive-budget sweep (``SweepEngine.last_adaptive_report``).

    ``half_widths`` / ``estimates`` are keyed by scheme name; the sweep stops
    when *every* scheme's half-width reaches the target.  ``stratum_weights``,
    ``stratum_stds`` and ``samples_per_count`` are keyed by failure count and
    feed :meth:`fixed_equivalent_dies`, the analytic answer to "how many dies
    would the uniform fixed budget have needed for the same half-width?".
    """

    evaluation: str
    threshold: float
    target_ci: float
    confidence: float
    reached: bool
    rounds: int
    total_dies: int
    max_total_dies: int
    half_widths: Dict[str, float]
    estimates: Dict[str, float]
    samples_per_count: Dict[int, int]
    stratum_weights: Dict[int, float] = field(default_factory=dict)
    stratum_stds: Dict[str, Dict[int, float]] = field(default_factory=dict)
    max_shard_payload_scalars: int = 0

    @property
    def achieved_half_width(self) -> float:
        """The widest (worst-scheme) confidence half-width at stop time."""
        return max(self.half_widths.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe state (stored with adaptive records in the result store).

        Count-keyed maps get string keys, as JSON objects require.
        """
        data = asdict(self)
        for name in ("samples_per_count", "stratum_weights"):
            data[name] = {str(count): v for count, v in data[name].items()}
        data["stratum_stds"] = {
            scheme: {str(count): std for count, std in stds.items()}
            for scheme, stds in data["stratum_stds"].items()
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AdaptiveBudgetReport":
        """Rebuild a report saved by :meth:`to_dict` (int keys restored)."""
        return cls(
            evaluation=str(data["evaluation"]),
            threshold=float(data["threshold"]),
            target_ci=float(data["target_ci"]),
            confidence=float(data["confidence"]),
            reached=bool(data["reached"]),
            rounds=int(data["rounds"]),
            total_dies=int(data["total_dies"]),
            max_total_dies=int(data["max_total_dies"]),
            half_widths={k: float(v) for k, v in data["half_widths"].items()},
            estimates={k: float(v) for k, v in data["estimates"].items()},
            samples_per_count={
                int(k): int(v) for k, v in data["samples_per_count"].items()
            },
            stratum_weights={
                int(k): float(v) for k, v in data["stratum_weights"].items()
            },
            stratum_stds={
                scheme: {int(k): float(v) for k, v in stds.items()}
                for scheme, stds in data["stratum_stds"].items()
            },
            max_shard_payload_scalars=int(
                data.get("max_shard_payload_scalars", 0)
            ),
        )

    def fixed_equivalent_dies(self, target_ci: Optional[float] = None) -> int:
        """Dies a uniform fixed budget would need to reach ``target_ci``.

        Uses the final per-stratum standard-deviation estimates: a fixed
        budget of ``S`` dies per failure count has estimator variance
        ``sum_n w_n^2 s_n^2 / S``, so the smallest sufficient ``S`` is
        ``ceil(z^2 * sum_n w_n^2 s_n^2 / target_ci^2)`` for the worst
        scheme, and the die bill is ``S * len(strata)``.
        """
        target = self.target_ci if target_ci is None else target_ci
        if target <= 0.0:
            raise ValueError("target_ci must be positive")
        z = normal_critical_value(self.confidence)
        worst = 0.0
        for stds in self.stratum_stds.values():
            worst = max(
                worst,
                sum(
                    (self.stratum_weights[count] * std) ** 2
                    for count, std in stds.items()
                ),
            )
        samples_per_count = max(2, math.ceil(z * z * worst / (target * target)))
        return samples_per_count * len(self.stratum_weights)


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class QualityDistribution:
    """Distribution of a benchmark's quality metric for one scheme (a Fig. 7 curve).

    Attributes
    ----------
    benchmark:
        Benchmark name (``"elasticnet"``, ``"pca"``, ``"knn"``).
    metric_name:
        Name of the quality metric.
    scheme_name:
        Protection scheme the distribution belongs to.
    p_cell:
        Operating-point bit-cell failure probability.
    clean_quality:
        Quality obtained with uncorrupted training data (normalisation point).
    ecdf:
        Weighted empirical CDF of the *normalised* quality (faulty quality
        divided by ``clean_quality``), including the fault-free point mass.
    samples:
        Number of fault maps evaluated.
    """

    benchmark: str
    metric_name: str
    scheme_name: str
    p_cell: float
    clean_quality: float
    ecdf: WeightedEcdf
    samples: int

    def yield_at_quality(self, normalized_target: float) -> float:
        """Fraction of dies whose normalised quality reaches ``normalized_target``."""
        return float(self.ecdf.probability_at_least(normalized_target))

    def quality_at_yield(self, yield_target: float) -> float:
        """Normalised quality guaranteed at a die-yield target.

        The largest quality bound ``q`` such that at most ``1 - yield_target``
        of the die population falls strictly below it -- i.e. the quality an
        application can rely on if it is willing to discard the worst
        ``1 - yield_target`` of dies.
        """
        if not 0.0 < yield_target <= 1.0:
            raise ValueError("yield_target must be in (0, 1]")
        return float(self.ecdf.quantile(1.0 - yield_target))

    def cdf_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(normalised quality, P(Q <= q))`` step points -- the Fig. 7 curve."""
        return self.ecdf.curve()

    def median_quality(self) -> float:
        """Median normalised quality across the die population."""
        return self.ecdf.quantile(0.5)


@dataclass(frozen=True)
class SweepRunStats:
    """Bookkeeping of the most recent sweep, whichever entry point ran it
    (:meth:`SweepEngine.run` and :meth:`SweepEngine.run_mse` share one
    pipeline; only :attr:`evaluation` tells them apart).

    Attributes
    ----------
    evaluation:
        The per-die score: ``"quality"`` (benchmark quality, Fig. 7) or
        ``"mse"`` (local MSE, Fig. 5).  It is also the store record kind.
    store_key:
        Configuration hash used against the result store (``None`` when the
        run had no store configured); for an ``adaptive_cap_resumable``
        probe, the cap-free key of its progress record.
    store_hit:
        ``True`` when the results were served from the store without any
        simulation.
    evaluated_dies:
        Monte-Carlo dies actually evaluated by *this* call -- ``0`` on a
        store hit, and less than :attr:`total_dies` when stored progress
        resumed part of the sweep.
    total_dies:
        Dies the full sweep comprises (fixed grid size, or the adaptive
        controller's final total).
    executor:
        Shard executor that ran the sweep: ``"inline"``, ``"local"``
        (process pool), ``"tcp"`` (distributed coordinator), or ``"store"``
        when the results were served from the result store without any
        execution.
    redispatched_shards:
        Shards re-dispatched after a worker died or a shard deadline
        expired.  Re-dispatch never changes results (die evaluation is a
        pure function of the entry list, folded canonically), so a nonzero
        count documents recovered faults, not divergence.
    """

    evaluation: str
    store_key: Optional[str]
    store_hit: bool
    evaluated_dies: int
    total_dies: int
    executor: str = "inline"
    redispatched_shards: int = 0


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentConfig:
    """Frozen description of one stratified Monte-Carlo quality sweep.

    Parameters
    ----------
    rows / word_width:
        Memory geometry (the paper's 16 kB memory is 4096 x 32).
    p_cell:
        Operating-point bit-cell failure probability.
    coverage:
        Fraction of the die population covered by the failure-count grid.
    samples_per_count:
        Fault maps evaluated per failure count.
    n_count_points:
        Geometric subsample size of the failure-count grid (``None`` = every
        count up to Nmax).
    master_seed:
        Root entropy of the deterministic per-die seeding scheme (see the
        module docstring).  ``None`` is only valid when pre-drawn fault maps
        are supplied to :meth:`SweepEngine.run`.
    scheme_specs:
        Protection schemes by registry spec (see :func:`build_scheme`).
    discard_multi_fault_words:
        Redraw dies containing a word with more than one faulty cell,
        reproducing the paper's Fig. 7 simplification.
    frac_bits:
        Fraction bits of the stored fixed-point format.
    benchmark:
        Optional benchmark label recorded in the configuration hash.
    scenario:
        Optional :class:`~repro.scenarios.base.ScenarioSpec` naming the
        fault-scenario pipeline every die is drawn through.  ``None`` (and
        any spec of the default ``iid-pcell`` scenario, which is normalised
        to ``None``) reproduces the historical i.i.d. sampling bit-for-bit
        and leaves every configuration hash unchanged; a non-default scenario
        keys the hash, so caches of different scenarios never alias.
    adaptive:
        Optional :class:`AdaptiveBudget` switching the sweep from the fixed
        ``samples_per_count`` budget to confidence-driven sampling.  ``None``
        (fixed mode) keeps every historical result and configuration hash
        bit-identical; a budget keys the hash with its full parameter set.
    access_trace:
        Read passes replayed per load when the scenario carries a transient
        tier (see :mod:`repro.scenarios.transient`).  The default single
        pass keeps non-transient hashes unchanged; any other value requires
        a transient scenario and keys the hash.
    """

    rows: int
    word_width: int = 32
    p_cell: float = 1e-3
    coverage: float = 0.99
    samples_per_count: int = 10
    n_count_points: Optional[int] = None
    master_seed: Optional[int] = None
    scheme_specs: Tuple[str, ...] = DEFAULT_SCHEME_SPECS
    discard_multi_fault_words: bool = True
    frac_bits: int = 16
    benchmark: str = ""
    scenario: Optional[ScenarioSpec] = None
    adaptive: Optional[AdaptiveBudget] = None
    access_trace: int = 1

    def __post_init__(self) -> None:
        if self.adaptive is not None and not isinstance(
            self.adaptive, AdaptiveBudget
        ):
            raise ValueError(
                f"adaptive must be an AdaptiveBudget or None, got "
                f"{type(self.adaptive).__name__}"
            )
        if not 0.0 < self.p_cell < 1.0:
            raise ValueError("p_cell must be in (0, 1)")
        if self.samples_per_count <= 0:
            raise ValueError("samples_per_count must be positive")
        if not self.scheme_specs:
            raise ValueError("at least one scheme spec is required")
        if self.scenario is not None:
            if not isinstance(self.scenario, ScenarioSpec):
                raise ValueError(
                    f"scenario must be a ScenarioSpec or None, got "
                    f"{type(self.scenario).__name__}"
                )
            if self.scenario.is_default:
                # Canonical form: the default pipeline is represented as
                # None, so its hashes match the pre-scenario era exactly.
                object.__setattr__(self, "scenario", None)
        if not isinstance(self.access_trace, int) or isinstance(
            self.access_trace, bool
        ):
            raise ValueError(
                f"access_trace must be an integer, got {self.access_trace!r}"
            )
        if self.access_trace < 1:
            raise ValueError(
                f"access_trace must be >= 1, got {self.access_trace}"
            )
        if self.access_trace != 1 and self.build_scenario().transient is None:
            raise ValueError(
                "access_trace > 1 requires a scenario with a transient "
                "tier: static faults do not change between read passes, so "
                "a longer trace would silently run the single-read model"
            )

    @property
    def organization(self) -> MemoryOrganization:
        """Memory geometry under study."""
        return MemoryOrganization(rows=self.rows, word_width=self.word_width)

    def build_scenario(self) -> FaultScenario:
        """The live fault-scenario pipeline of this sweep (default i.i.d.)."""
        if self.scenario is None:
            return default_scenario()
        return self.scenario.build()

    @property
    def effective_p_cell(self) -> float:
        """The cell-failure probability the stratified grid is computed at.

        Scenario sources may shift the base operating point (an aged
        population fails more often than the fresh ``p_cell`` suggests); the
        failure-count grid, its ``Pr(N = n)`` weights, and the fault-free
        point mass all follow that shift.
        """
        if self.scenario is None:
            return self.p_cell
        # Cached on first access (outside the frozen-dataclass field set, so
        # equality and hashing are unaffected): the grid properties below
        # read this repeatedly per sweep, and recomputing it rebuilds the
        # scenario pipeline each time.
        cached = self.__dict__.get("_effective_p_cell")
        if cached is not None:
            return cached
        effective = validated_effective_p_cell(self.build_scenario(), self.p_cell)
        object.__setattr__(self, "_effective_p_cell", effective)
        return effective

    @property
    def max_failures(self) -> int:
        """Largest failure count in the sweep (coverage-determined Nmax)."""
        return max_failures_for_coverage(
            self.rows * self.word_width, self.effective_p_cell, self.coverage
        )

    @property
    def zero_fault_probability(self) -> float:
        """``Pr(N = 0)`` -- the fault-free point mass."""
        return failure_count_pmf(
            self.rows * self.word_width, self.effective_p_cell, 0
        )

    def evaluated_counts(self) -> List[int]:
        """The failure counts this sweep evaluates.

        Cached on first access (same ``__dict__`` technique as
        ``effective_p_cell``): adaptive sweeps and the budgeted optimizer
        read the grid every round/rung, and the coverage search behind it is
        the costly part.  A fresh list is returned so callers can never
        mutate the cache.
        """
        cached = self.__dict__.get("_evaluated_counts")
        if cached is None:
            cached = evaluated_failure_counts(
                self.max_failures, self.n_count_points
            )
            object.__setattr__(self, "_evaluated_counts", cached)
        return list(cached)

    def count_probabilities(self) -> Dict[int, float]:
        """``Pr(N = n)`` mass reassigned onto the evaluated counts (cached
        per config instance, like :meth:`evaluated_counts`)."""
        cached = self.__dict__.get("_count_probabilities")
        if cached is None:
            cached = reassign_count_probabilities(
                self.rows * self.word_width,
                self.effective_p_cell,
                self.max_failures,
                self.evaluated_counts(),
            )
            object.__setattr__(self, "_count_probabilities", cached)
        return dict(cached)

    def build_schemes(self) -> List[ProtectionScheme]:
        """Instantiate the configured protection schemes."""
        return [build_scheme(spec, self.word_width) for spec in self.scheme_specs]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (feeds the configuration hash).

        The ``scenario`` key is present only for non-default scenarios:
        default sweeps keep the exact payload (and therefore the exact
        configuration hashes) of the pre-scenario engine, while every other
        scenario keys the cache so resumes can never replay another
        scenario's dies.  The key holds the *resolved pipeline* description
        (:meth:`FaultScenario.to_dict`), not the spec: two specs naming the
        same pipeline (``years=5`` versus ``5.0``) share a cache, and a
        custom scenario whose registered factory changes under the same name
        changes the hash instead of silently aliasing stale results.
        """
        data: Dict[str, object] = {
            "rows": self.rows,
            "word_width": self.word_width,
            "p_cell": self.p_cell,
            "coverage": self.coverage,
            "samples_per_count": self.samples_per_count,
            "n_count_points": self.n_count_points,
            "master_seed": self.master_seed,
            "scheme_specs": list(self.scheme_specs),
            "discard_multi_fault_words": self.discard_multi_fault_words,
            "frac_bits": self.frac_bits,
            "benchmark": self.benchmark,
        }
        if self.scenario is not None:
            data["scenario"] = self.build_scenario().to_dict()
        if self.adaptive is not None:
            # Adaptive budgets key the cache with their full parameter set:
            # fixed-mode progress must never resume an adaptive sweep
            # (or vice versa), and two different CI targets must not alias.
            data["adaptive"] = self.adaptive.to_dict()
        if self.access_trace != 1:
            # Same only-when-non-default rule as the scenario/adaptive keys:
            # single-pass sweeps keep their historical hashes, and sweeps of
            # different trace lengths never alias one cache entry.
            data["access_trace"] = self.access_trace
        return data

    def max_adaptive_samples(self) -> int:
        """Total die cap of the adaptive budget (the equivalent fixed budget
        when the budget leaves ``max_total_samples`` unset)."""
        if self.adaptive is None:
            raise ValueError("config has no adaptive budget")
        if self.adaptive.max_total_samples is not None:
            return self.adaptive.max_total_samples
        return len(self.evaluated_counts()) * self.samples_per_count


# --------------------------------------------------------------------------- #
# Worker-side evaluation (lives in repro.sim.shardeval; re-exported here)
# --------------------------------------------------------------------------- #
# The evaluation functions are shared by every executor backend -- the
# process pool and the TCP workers import them from repro.sim.shardeval
# directly.  The engine re-exports them under their historical private names
# because tests monkeypatch ``engine._evaluate_shard``/``_summarize_shard``
# to steer the inline path, and ``_inline_run_shard`` dispatches through
# *this module's* globals so those patches keep working.
_DieEntry = _shardeval.DieEntry
_AdaptiveEntry = _shardeval.AdaptiveEntry
_ShardSummary = _shardeval.ShardSummary
_SharedBenchmark = _shardeval._SharedBenchmark
_share_context = _shardeval.share_context
_materialize_context = _shardeval.materialize_context
_evaluate_shard = _shardeval.evaluate_shard
_summarize_shard = _shardeval.summarize_shard


def _inline_run_shard(
    kind: str, entries: List[object], context: Mapping[str, object]
) -> object:
    """In-process shard runner handed to the inline executor."""
    if kind == "evaluate":
        return _evaluate_shard(entries, context)
    if kind == "summarize":
        return _summarize_shard(entries, context)
    raise ValueError(f"unknown shard kind {kind!r}")


# --------------------------------------------------------------------------- #
# Progress records
# --------------------------------------------------------------------------- #
def _checked_progress(
    record: Mapping[str, object], config_hash: str, mode: str
) -> Mapping[str, object]:
    """The payload of the ``progress`` record a sweep resumes from.

    ``mode`` distinguishes fixed per-die state from adaptive round state.
    The key already separates the two (adaptive parameters key the hash),
    so these checks only fire on hand-made or foreign records -- but they
    fire loudly rather than mis-parsing them.
    """
    payload = record["payload"]
    if record["kind"] != "progress":
        raise ValueError(
            f"record {config_hash[:16]} holds {record['kind']!r} results "
            f"where this sweep keeps its progress"
        )
    if payload.get("version") != _PROGRESS_VERSION:
        raise ValueError(
            f"progress record {config_hash[:16]} has unsupported version "
            f"{payload.get('version')!r}"
        )
    if payload.get("config_hash") != config_hash:
        raise ValueError(
            f"progress record {config_hash[:16]} belongs to a different "
            f"experiment configuration (hash {payload.get('config_hash')!r})"
        )
    if payload.get("mode", "fixed") != mode:
        raise ValueError(
            f"progress record {config_hash[:16]} holds "
            f"{payload.get('mode', 'fixed')!r}-budget state, expected {mode!r}"
        )
    return payload


@dataclass
class _Progress:
    """Where one sweep resumes from and records its progress.

    ``store`` is ``None`` for a sweep without a store, which then keeps no
    progress.  ``saved`` is the validated payload of the ``progress`` record
    found under ``key`` when the sweep started (``None`` for a fresh sweep).
    """

    store: Optional["ResultStore"] = None
    key: str = ""
    saved: Optional[Mapping[str, object]] = None
    meta: Mapping[str, object] = field(default_factory=dict)

    def record(self, payload: Mapping[str, object], dies: int) -> None:
        """Append one progress record holding ``dies`` finished dies (no-op
        without a store)."""
        if self.store is not None:
            payload = {
                "version": _PROGRESS_VERSION,
                "config_hash": self.key,
                **payload,
            }
            self.store.put_record(
                self.key,
                "progress",
                payload,
                meta={**self.meta, "total_dies": dies},
            )


# --------------------------------------------------------------------------- #
# Shard dispatch (shared by the fixed and adaptive paths)
# --------------------------------------------------------------------------- #
def _ShardDispatcher(
    context: Dict[str, object],
    workers: int,
    spec: Optional[ExecutorSpec] = None,
) -> ShardExecutor:
    """Build the shard executor of one sweep.

    ``workers == 1`` -- or an explicit ``inline`` spec -- evaluates
    in-process, ``workers > 1`` builds the shared-memory process pool, and a
    ``tcp`` spec builds the coordinator that serves shards to remote
    workers.  The executor is a context manager that releases pools,
    sockets, and shared blocks on every exit path.
    """
    return make_executor(context, workers, spec=spec, runner=_inline_run_shard)


def _summary_payload_scalars(summary: _ShardSummary) -> int:
    """Scalar count of one shard's summary payload (the O(bins) witness)."""
    return sum(5 + sketch.payload_scalars() for _key, _moments, sketch in summary)


def _check_cap_resumable(config: ExperimentConfig, cap_resumable: bool) -> None:
    if cap_resumable and config.adaptive is None:
        raise ValueError(
            "adaptive_cap_resumable requires an adaptive budget (a fixed "
            "budget has no round state to resume across caps)"
        )


def _payload_codec(evaluation: str) -> Tuple[Callable, Callable]:
    """``(to_payload, from_payload)`` of one evaluation's store records.

    Imported on use: the store package imports this module.
    """
    from repro.store import schema

    if evaluation == "mse":
        return schema.mse_results_to_payload, schema.mse_results_from_payload
    return schema.quality_results_to_payload, schema.quality_results_from_payload


@dataclass(frozen=True)
class _SweepMode:
    """What the quality sweep (Fig. 7) and the MSE sweep (Fig. 5) differ in.

    Both draw the same stratified dies weighted by the same ``Pr(N = n)``;
    only the per-die score differs, and with it:

    * ``evaluation`` -- the score workers compute (``context["evaluation"]``),
      which also names the store record kind and its payload codec;
    * ``hash_kwargs`` -- the mode's :meth:`SweepEngine.config_hash` arguments;
    * ``zero_mass`` -- the score of the ``Pr(N = 0)`` point mass, or ``None``
      to leave it out;
    * ``context`` -- builds the mode's worker-context entries (only on a store
      miss: building may train the benchmark);
    * ``distribution`` -- ``(scheme_name, ecdf, samples, context)`` to one
      scheme's result.
    """

    evaluation: str
    hash_kwargs: Mapping[str, object]
    zero_mass: Optional[float]
    context: Callable[[], Dict[str, object]]
    distribution: Callable[[str, WeightedEcdf, int, Mapping[str, object]], object]


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
class SweepEngine:
    """Sharded, optionally multi-process executor for quality and MSE sweeps.

    Parameters
    ----------
    config:
        The sweep description.  ``config.scheme_specs`` defines the schemes
        unless explicit instances are supplied.
    schemes:
        Optional pre-built scheme objects (overrides ``config.scheme_specs``);
        used by the legacy runner API, whose callers pass arbitrary scheme
        instances.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        schemes: Optional[Sequence[ProtectionScheme]] = None,
    ) -> None:
        self._config = config
        self._last_adaptive_report: Optional[AdaptiveBudgetReport] = None
        self._last_run_stats: Optional[SweepRunStats] = None
        self._dies_evaluated = 0
        self._last_executor = "inline"
        self._last_redispatched = 0
        # Built once: the same (picklable) pipeline object ships to every
        # worker, and building validates the scenario spec eagerly.
        self._scenario = config.build_scenario()
        if schemes is None:
            self._schemes = config.build_schemes()
        else:
            self._schemes = list(schemes)
            if not self._schemes:
                raise ValueError("at least one scheme is required")
        for scheme in self._schemes:
            if scheme.word_width != config.word_width:
                raise ValueError(
                    f"scheme {scheme.name!r} word width {scheme.word_width} "
                    f"does not match the memory ({config.word_width})"
                )

    @property
    def config(self) -> ExperimentConfig:
        """The sweep configuration."""
        return self._config

    @property
    def schemes(self) -> List[ProtectionScheme]:
        """The protection schemes under study."""
        return list(self._schemes)

    @property
    def scenario(self) -> FaultScenario:
        """The fault-scenario pipeline every seeded die is drawn through."""
        return self._scenario

    @property
    def last_adaptive_report(self) -> Optional[AdaptiveBudgetReport]:
        """Outcome of the most recent adaptive sweep run on this engine
        (``None`` before any adaptive run)."""
        return self._last_adaptive_report

    @property
    def last_run_stats(self) -> Optional[SweepRunStats]:
        """Evaluation bookkeeping of the most recent :meth:`run`/:meth:`run_mse`
        call (``None`` before any run).  ``evaluated_dies == 0`` with
        ``store_hit=True`` is the store's zero-re-simulation guarantee."""
        return self._last_run_stats

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self) -> List[Tuple[int, int, int, int]]:
        """Canonical die enumeration: ``(die_index, count_index, sample_index,
        failure_count)`` in count-major order (the seeding contract)."""
        counts = self._config.evaluated_counts()
        samples = self._config.samples_per_count
        return [
            (count_index * samples + sample_index, count_index, sample_index, count)
            for count_index, count in enumerate(counts)
            for sample_index in range(samples)
        ]

    def config_hash(
        self,
        benchmark: Optional[BenchmarkDefinition] = None,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
        fixed_point: Optional[FixedPointFormat] = None,
        extra: Optional[Mapping[str, object]] = None,
        adaptive_cap_resumable: bool = False,
    ) -> str:
        """Hash identifying this sweep's results (keys its store records).

        ``fixed_point`` is the *effective* storage format of the run --
        overrides must enter the hash, or a resume could silently replay
        results quantised under a different format.  ``benchmark`` is ``None``
        for evaluations that need no training data (the MSE mode), and
        ``extra`` carries any additional mode parameters that must key the
        cache; hashes of benchmark-quality sweeps are unchanged by both.

        ``adaptive_cap_resumable`` drops the adaptive budget's
        ``max_total_samples`` from the digest and stamps a ``cap_resumable``
        marker in its place: the round-state progress of an adaptive sweep
        is then shared by every die cap, so a partial run resumes under a
        *larger* cap without re-simulating completed rounds.  The marker
        keeps these hashes disjoint from ordinary (cap-exact) adaptive
        hashes -- a cache written one way can never be misread the other.
        Requires an adaptive budget.
        """
        _check_cap_resumable(self._config, adaptive_cap_resumable)
        if fixed_point is None:
            fixed_point = FixedPointFormat(
                total_bits=self._config.word_width,
                frac_bits=self._config.frac_bits,
            )
        config_dict = self._config.to_dict()
        if adaptive_cap_resumable:
            adaptive_dict = dict(config_dict["adaptive"])
            del adaptive_dict["max_total_samples"]
            adaptive_dict["cap_resumable"] = True
            config_dict["adaptive"] = adaptive_dict
        payload: Dict[str, object] = {
            "engine_version": _ENGINE_VERSION,
            "config": config_dict,
            "fixed_point": [fixed_point.total_bits, fixed_point.frac_bits],
            "schemes": [scheme.name for scheme in self._schemes],
            "benchmark": (
                {
                    "name": benchmark.name,
                    "metric": benchmark.metric_name,
                }
                if benchmark is not None
                else None
            ),
        }
        if extra:
            payload["extra"] = dict(extra)
        digest = hashlib.sha256()
        digest.update(json.dumps(payload, sort_keys=True).encode())
        if benchmark is not None:
            for array in (
                benchmark.train_features,
                benchmark.train_targets,
                benchmark.test_features,
                benchmark.test_targets,
            ):
                digest.update(np.ascontiguousarray(array).tobytes())
        if fault_maps is not None:
            for key in sorted(fault_maps):
                digest.update(json.dumps(key).encode())
                digest.update(fault_maps[key].to_json().encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        benchmark: BenchmarkDefinition,
        *,
        workers: int = 1,
        shard_size: Optional[int] = None,
        shard_order: Optional[Sequence[int]] = None,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
        fixed_point: Optional[FixedPointFormat] = None,
        store: Optional["ResultStore"] = None,
        executor: Optional[object] = None,
        adaptive_cap_resumable: bool = False,
    ) -> Dict[str, QualityDistribution]:
        """Run the sweep and return one :class:`QualityDistribution` per scheme.

        Parameters
        ----------
        benchmark:
            The application benchmark whose training features live in the
            faulty memory.
        workers:
            Process count.  ``workers=1`` evaluates inline in this process
            (fully debuggable); higher counts fan shards out over a
            :class:`ProcessPoolExecutor`.  Results are bit-identical for any
            value.
        shard_size:
            Dies per work unit (defaults to a balanced split across workers).
        shard_order:
            Optional permutation of shard indices -- execution order never
            affects the result, and tests use this to prove it.
        fault_maps:
            Pre-drawn dies keyed by ``(count_index, sample_index)``; replaces
            the seeded per-die sampling (legacy-runner bridge).
        fixed_point:
            Override for the stored fixed-point format (defaults to the
            config's ``Q(word_width - frac_bits).frac_bits`` format).
        store:
            Optional :class:`~repro.store.ResultStore`.  An exact
            configuration-hash hit is served from the store -- bit-identical,
            with zero new die evaluations and no benchmark training -- and a
            computed sweep is recorded into it.  While the sweep runs, a
            ``progress`` record under the same key is appended after every
            finished shard (fixed budget) or round (adaptive), and a re-run
            after an interruption resumes from it without re-evaluating
            finished dies.  Each progress record holds all results so far;
            with the default shard sizing (a few shards per worker) that
            stays negligible, but combining ``shard_size=1`` with very large
            sweeps trades store bytes for resume granularity (``store gc``
            drops superseded records).  Results are unchanged either way;
            :attr:`last_run_stats` says which path ran.
        executor:
            Shard execution backend: ``None`` (default -- process pool when
            ``workers > 1``, inline otherwise), a kind string (``"inline"``,
            ``"local"``, ``"tcp"``), or a full
            :class:`~repro.sim.executor.ExecutorSpec`.  The ``tcp`` kind
            starts a coordinator on the spec's ``host:port`` and serves
            shards to workers started with ``python -m repro.sim.worker
            --connect HOST:PORT``.  Results are bit-identical for every
            backend, worker count, and re-dispatch history.
        adaptive_cap_resumable:
            Record progress under the cap-free adaptive hash (see
            :meth:`config_hash`), so a finished run at one die cap seeds a
            later run at a larger cap -- the successive-halving pattern of
            the budgeted optimizer.  Such a run reads and writes only that
            progress record: its result depends on the resume history, so
            it never serves or records a result.  Requires an adaptive
            budget and a ``store``.
        """
        config = self._config
        if fixed_point is None:
            fixed_point = FixedPointFormat(
                total_bits=config.word_width, frac_bits=config.frac_bits
            )

        def context() -> Dict[str, object]:
            clean_quality = benchmark.clean_quality()
            if clean_quality == 0.0:
                raise ValueError(
                    "the benchmark's fault-free quality is zero; cannot normalise"
                )
            features = np.asarray(benchmark.train_features, dtype=np.float64)
            return {
                "fixed_point": fixed_point,
                "raw_features": fixed_point.quantize_array(features),
                "benchmark": benchmark,
                "clean_quality": clean_quality,
            }

        def distribution(scheme_name, ecdf, samples, context):
            return QualityDistribution(
                benchmark=benchmark.name,
                metric_name=benchmark.metric_name,
                scheme_name=scheme_name,
                p_cell=config.p_cell,
                clean_quality=context["clean_quality"],
                ecdf=ecdf,
                samples=samples,
            )

        mode = _SweepMode(
            evaluation="quality",
            hash_kwargs={"benchmark": benchmark, "fixed_point": fixed_point},
            zero_mass=1.0,
            context=context,
            distribution=distribution,
        )
        return self._sweep(
            mode,
            workers=workers,
            shard_size=shard_size,
            shard_order=shard_order,
            fault_maps=fault_maps,
            store=store,
            executor=executor,
            adaptive_cap_resumable=adaptive_cap_resumable,
        )

    def run_mse(
        self,
        *,
        workers: int = 1,
        shard_size: Optional[int] = None,
        shard_order: Optional[Sequence[int]] = None,
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]] = None,
        include_fault_free: bool = True,
        store: Optional["ResultStore"] = None,
        executor: Optional[object] = None,
        adaptive_cap_resumable: bool = False,
    ) -> Dict[str, "MseDistribution"]:
        """Run the sweep scoring each die by its local MSE (the Fig. 5 study).

        Same sharded grid, per-die seeding, parallel fan-out, and progress
        records as :meth:`run`, but each die is evaluated analytically --
        :func:`~repro.quality.mse.mse_of_fault_map` per scheme -- instead of
        retraining a benchmark, and the merged result is one
        :class:`~repro.faultmodel.yieldmodel.MseDistribution` per scheme.
        Scoring a die is one gather from the scheme's
        :meth:`~repro.core.base.ProtectionScheme.residual_energy_table` at
        the die's first faulty column per row, with a scalar fallback for the
        rows holding more than one fault, followed by a sequential sum in the
        rows' first-appearance order; that order keeps every MSE bit-identical
        to the scalar reference.
        ``include_fault_free`` adds the ``Pr(N = 0)`` point mass at MSE = 0
        (pass ``False`` for the paper's Eq. 5 conditional view).
        ``store`` behaves as in :meth:`run` (serve exact hash hits, resume
        from progress, record computed sweeps), and so do ``executor``
        (``None``/``"local"``, ``"inline"``, or an
        :class:`~repro.sim.executor.ExecutorSpec`) and
        ``adaptive_cap_resumable`` (round state shared across adaptive die
        caps).
        """
        from repro.faultmodel.yieldmodel import MseDistribution

        if self._scenario.transient is not None:
            raise ValueError(
                "the analytical MSE evaluation cannot model per-read "
                "transient faults; run transient scenarios through the "
                "quality sweep (SweepEngine.run / fig7) instead"
            )
        config = self._config

        def distribution(scheme_name, ecdf, samples, context):
            return MseDistribution(
                scheme_name=scheme_name,
                p_cell=config.p_cell,
                ecdf=ecdf,
                zero_fault_probability=config.zero_fault_probability,
                max_failures=config.max_failures,
                samples=samples,
            )

        mode = _SweepMode(
            evaluation="mse",
            hash_kwargs={
                "extra": {
                    "evaluation": "mse",
                    "include_fault_free": include_fault_free,
                }
            },
            zero_mass=0.0 if include_fault_free else None,
            context=dict,
            distribution=distribution,
        )
        return self._sweep(
            mode,
            workers=workers,
            shard_size=shard_size,
            shard_order=shard_order,
            fault_maps=fault_maps,
            store=store,
            executor=executor,
            adaptive_cap_resumable=adaptive_cap_resumable,
        )

    def _sweep(
        self,
        mode: _SweepMode,
        *,
        workers: int,
        shard_size: Optional[int],
        shard_order: Optional[Sequence[int]],
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]],
        store: Optional["ResultStore"],
        executor: Optional[object],
        adaptive_cap_resumable: bool,
    ) -> Dict[str, object]:
        """The one sweep body behind :meth:`run` and :meth:`run_mse`.

        Validates every argument, serves a stored result or resumes from
        stored progress, otherwise runs the fixed or adaptive budget over the
        mode's die score, folds each scheme's scores into a
        ``Pr(N = n)``-weighted ECDF, and records the result in the store.
        """
        config = self._config
        self._validate(
            workers=workers,
            shard_size=shard_size,
            shard_order=shard_order,
            fault_maps=fault_maps,
            store=store,
            adaptive_cap_resumable=adaptive_cap_resumable,
        )
        executor_spec = ExecutorSpec.coerce(executor)
        self._last_executor = "inline"
        self._last_redispatched = 0

        progress = _Progress()
        store_key: Optional[str] = None
        if store is not None:
            # For a plain run this is the result key too, so the finished
            # result supersedes the sweep's progress record.
            store_key = self.config_hash(
                fault_maps=fault_maps,
                adaptive_cap_resumable=adaptive_cap_resumable,
                **mode.hash_kwargs,
            )
            progress = _Progress(
                store, store_key, meta=self._record_meta(mode)
            )
            record = store.get_record(store_key)
            # A cap-resumable run's result depends on its resume history, so
            # its key only ever holds progress.
            if record is not None and not adaptive_cap_resumable:
                if record["kind"] == mode.evaluation:
                    return self._serve_stored(mode, record, store_key)
            if record is not None:
                progress.saved = _checked_progress(
                    record,
                    store_key,
                    "fixed" if config.adaptive is None else "adaptive",
                )
        context: Dict[str, object] = {
            "evaluation": mode.evaluation,
            "organization": config.organization,
            "schemes": self._schemes,
            "discard_multi_fault_words": config.discard_multi_fault_words,
            "master_seed": config.master_seed,
            "scenario": self._scenario,
            "transient": self._scenario.transient,
            "access_trace": config.access_trace,
            **mode.context(),
        }
        zero_mass = None
        if mode.zero_mass is not None:
            zero_mass = (mode.zero_mass, config.zero_fault_probability)
        report: Optional[AdaptiveBudgetReport] = None
        if config.adaptive is not None:
            sketches, report = self._run_adaptive(
                context,
                zero_mass=zero_mass,
                workers=workers,
                progress=progress,
                executor=executor_spec,
            )
            total_dies = report.total_dies
            counts = range(len(config.evaluated_counts()))
            strata = [
                [sketches[(si, ci)].finalize() for ci in counts]
                for si in range(len(self._schemes))
            ]
        else:
            die_results = self._execute(
                context,
                workers=workers,
                progress=progress,
                shard_size=shard_size,
                shard_order=shard_order,
                fault_maps=fault_maps,
                executor=executor_spec,
            )
            total_dies = len(die_results)
            # Rows are dies in canonical (count_index, sample_index) order.
            scores = np.array([die_results[die] for die in range(total_dies)])
            width = config.samples_per_count
            unit = np.ones(width)
            strata = [
                [
                    (scores[start:start + width, si], unit)
                    for start in range(0, total_dies, width)
                ]
                for si in range(len(self._schemes))
            ]
        results = {
            scheme.name: mode.distribution(
                scheme.name,
                self._scheme_ecdf(strata[si], zero_mass),
                total_dies,
                context,
            )
            for si, scheme in enumerate(self._schemes)
        }
        self._last_run_stats = SweepRunStats(
            evaluation=mode.evaluation,
            store_key=store_key,
            store_hit=False,
            evaluated_dies=self._dies_evaluated,
            total_dies=total_dies,
            executor=self._last_executor,
            redispatched_shards=self._last_redispatched,
        )
        if store is not None and not adaptive_cap_resumable:
            self._record_results(store, store_key, mode, results, report)
        return results

    def _validate(
        self,
        *,
        workers: int,
        shard_size: Optional[int],
        shard_order: Optional[Sequence[int]],
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]],
        store: Optional["ResultStore"],
        adaptive_cap_resumable: bool,
    ) -> None:
        """Reject bad sweep arguments -- before the store lookup, so whether a
        result is cached never decides whether a call is valid."""
        config = self._config
        if workers < 1:
            raise ValueError("workers must be at least 1")
        _check_cap_resumable(config, adaptive_cap_resumable)
        if adaptive_cap_resumable and store is None:
            raise ValueError(
                "adaptive_cap_resumable requires a store: the cap-free "
                "progress record it resumes from and extends lives there"
            )
        if self._scenario.transient is not None and (
            config.master_seed is None or fault_maps is not None
        ):
            raise ValueError(
                "transient scenarios require seeded per-die sampling "
                "(a master_seed, no pre-drawn fault_maps): per-read "
                "corruption replays from each die's seed-sequence "
                "child, which pre-drawn maps do not carry"
            )
        if config.adaptive is None:
            if shard_size is not None and shard_size < 1:
                raise ValueError("shard_size must be at least 1")
            if fault_maps is None and config.master_seed is None:
                raise ValueError(
                    "a master_seed is required unless pre-drawn fault_maps "
                    "are supplied"
                )
            return
        if fault_maps is not None:
            raise ValueError(
                "adaptive budgets draw each die from its own seed-sequence "
                "child; pre-drawn fault_maps require the fixed budget"
            )
        if shard_size is not None or shard_order is not None:
            raise ValueError(
                "shard_size/shard_order do not apply to adaptive sweeps "
                "(the controller shards each round at a fixed width)"
            )
        if config.master_seed is None:
            raise ValueError("adaptive sweeps require a master_seed")

    def _serve_stored(
        self, mode: _SweepMode, record: Mapping[str, object], store_key: str
    ) -> Dict[str, object]:
        """Decode a stored record -- the zero-evaluation hit path."""
        from repro.store.schema import adaptive_report_from_payload

        payload = record["payload"]
        results = _payload_codec(mode.evaluation)[1](payload)
        report = adaptive_report_from_payload(payload.get("adaptive_report"))
        if report is not None:
            self._last_adaptive_report = report
        meta = record.get("meta", {})
        self._last_run_stats = SweepRunStats(
            evaluation=mode.evaluation,
            store_key=store_key,
            store_hit=True,
            evaluated_dies=0,
            total_dies=int(meta.get("total_dies", 0)),
            executor="store",
        )
        return results

    def _record_results(
        self,
        store: "ResultStore",
        store_key: str,
        mode: _SweepMode,
        results: Mapping[str, object],
        report: Optional[AdaptiveBudgetReport],
    ) -> None:
        """Append a finished sweep's results to the store."""
        stats = self._last_run_stats
        store.put_record(
            store_key,
            mode.evaluation,
            _payload_codec(mode.evaluation)[0](results, report),
            meta={
                **self._record_meta(mode),
                "evaluated_dies": stats.evaluated_dies,
                "total_dies": stats.total_dies,
            },
        )

    def _record_meta(self, mode: _SweepMode) -> Dict[str, object]:
        """The queryable summary columns of this sweep's store records."""
        benchmark = mode.hash_kwargs.get("benchmark")
        return {
            "benchmark": None if benchmark is None else benchmark.name,
            "evaluation": mode.evaluation,
            "schemes": [scheme.name for scheme in self._schemes],
            "p_cell": self._config.p_cell,
        }

    def _note_executor(self, dispatcher: ShardExecutor) -> None:
        """Record which executor tier ran and how many shards it re-dispatched
        (surfaced through :class:`SweepRunStats` after the run)."""
        self._last_executor = dispatcher.kind
        self._last_redispatched += dispatcher.stats.redispatched

    def _execute(
        self,
        context: Dict[str, object],
        *,
        workers: int,
        progress: _Progress,
        shard_size: Optional[int],
        shard_order: Optional[Sequence[int]],
        fault_maps: Optional[Mapping[Tuple[int, int], FaultMap]],
        executor: Optional[ExecutorSpec] = None,
    ) -> Dict[int, List[float]]:
        """Evaluate every pending die of the plan (the fixed-budget core)."""
        entries: List[_DieEntry] = []
        for die_index, count_index, sample_index, count in self.plan():
            explicit = None
            if fault_maps is not None:
                try:
                    explicit = fault_maps[(count_index, sample_index)]
                except KeyError:
                    raise ValueError(
                        f"fault_maps is missing die (count_index="
                        f"{count_index}, sample_index={sample_index})"
                    ) from None
            entries.append((die_index, count_index, sample_index, count, explicit))

        die_results: Dict[int, List[float]] = {}
        if progress.saved is not None:
            die_results.update(
                (int(k), [float(v) for v in vs])
                for k, vs in progress.saved["dies"].items()
            )
        pending = [e for e in entries if e[0] not in die_results]
        self._dies_evaluated = len(pending)

        shards = self._make_shards(pending, workers, shard_size)
        if shard_order is not None:
            order = list(shard_order)
            if sorted(order) != list(range(len(shards))):
                raise ValueError(
                    f"shard_order must be a permutation of 0..{len(shards) - 1}"
                )
            shards = [shards[i] for i in order]

        def _absorb(shard_results: List[Tuple[int, List[float]]]) -> None:
            for die_index, values in shard_results:
                die_results[die_index] = values
            dies = {str(k): list(v) for k, v in sorted(die_results.items())}
            progress.record({"dies": dies}, len(die_results))

        # TCP executors keep their configured fan-out: remote workers decide
        # their own parallelism, and a single-shard sweep still has to bind
        # the rendezvous port the workers dial.
        if executor is not None and executor.kind == "tcp":
            effective_workers = workers
        else:
            effective_workers = (
                1 if len(shards) <= 1 else min(workers, len(shards))
            )
        with _ShardDispatcher(context, effective_workers, executor) as dispatcher:
            dispatcher.evaluate_unordered(shards, _absorb)
            self._note_executor(dispatcher)
        missing = [e[0] for e in entries if e[0] not in die_results]
        if missing:
            raise RuntimeError(
                f"sweep finished with {len(missing)} unevaluated dies "
                f"(first: {missing[:5]}); this indicates a sharding bug"
            )
        return die_results

    # ------------------------------------------------------------------ #
    # Adaptive budget controller
    # ------------------------------------------------------------------ #
    def _run_adaptive(
        self,
        context: Dict[str, object],
        *,
        zero_mass: Optional[Tuple[float, float]],
        workers: int,
        progress: _Progress,
        executor: Optional[ExecutorSpec] = None,
    ) -> Tuple[Dict[Tuple[int, int], FixedGridEcdfSketch], AdaptiveBudgetReport]:
        """Round-based confidence-driven sweep (the adaptive execution core).

        Each round fans a batch of dies out as fixed-width shards whose
        workers return O(bins) streaming summaries; the parent folds them in
        shard order, re-estimates every scheme's yield-at-threshold CI, and
        either stops or Neyman-allocates the next round by the observed
        per-stratum standard deviations.  Round state is recorded as progress
        after every round.  Returns the merged per-(scheme,
        stratum) sketches and the run's report.
        """
        config = self._config
        adaptive = config.adaptive
        evaluation = str(context["evaluation"])
        threshold = adaptive.resolved_threshold(evaluation)
        direction = "ge" if evaluation == "quality" else "le"
        edges = _adaptive_sketch_edges(evaluation, adaptive.sketch_bins)
        counts = config.evaluated_counts()
        probabilities = config.count_probabilities()
        weights = {ci: probabilities[count] for ci, count in enumerate(counts)}
        max_total = config.max_adaptive_samples()
        if max_total < 2 * len(counts):
            raise ValueError(
                f"the adaptive die cap ({max_total}) cannot seed all "
                f"{len(counts)} failure counts with the minimum 2 dies each; "
                f"raise max_total_samples or samples_per_count"
            )
        initial = min(
            adaptive.initial_samples_per_count, max_total // len(counts)
        )
        zero_ok = zero_mass is not None and (
            zero_mass[0] >= threshold if direction == "ge" else zero_mass[0] <= threshold
        )
        baseline = zero_mass[1] if zero_ok else 0.0

        n_schemes = len(self._schemes)
        trackers = [StratumVarianceTracker(weights) for _ in range(n_schemes)]
        sketches = {
            (si, ci): FixedGridEcdfSketch(edges)
            for si in range(n_schemes)
            for ci in range(len(counts))
        }
        samples_done = {ci: 0 for ci in range(len(counts))}
        rounds_done = 0
        max_payload = 0
        self._dies_evaluated = 0

        saved = progress.saved
        if saved is not None:
            rounds_done = int(saved["rounds"])
            samples_done = {
                int(k): int(v)
                for k, v in saved["samples_per_count_index"].items()
            }
            if sum(samples_done.values()) > max_total:
                raise ValueError(
                    f"the stored progress already holds "
                    f"{sum(samples_done.values())} dies, more than this "
                    f"run's die cap of {max_total}; a sweep cannot resume "
                    f"past its cap"
                )
            trackers = [
                StratumVarianceTracker.from_dict(data)
                for data in saved["trackers"]
            ]
            for key, data in saved["sketches"].items():
                scheme_index, count_index = (
                    int(part) for part in key.split(":")
                )
                sketches[(scheme_index, count_index)] = (
                    FixedGridEcdfSketch.from_dict(data)
                )
            max_payload = int(saved.get("max_shard_payload_scalars", 0))

        context = dict(context)
        context["adaptive"] = {
            "threshold": threshold,
            "direction": direction,
            "edges": edges,
        }

        reached = False
        dispatcher: Optional[ShardExecutor] = None
        try:
            while True:
                total_done = sum(samples_done.values())
                if total_done:
                    half_width = max(
                        tracker.half_width(adaptive.confidence)
                        for tracker in trackers
                    )
                    if half_width <= adaptive.target_ci:
                        reached = True
                        break
                    if total_done >= max_total:
                        break
                    budget = min(adaptive.round_dies, max_total - total_done)
                    allocation = largest_remainder_allocation(
                        {
                            ci: sum(
                                weights[ci] * tracker.strata[ci].std()
                                for tracker in trackers
                            )
                            for ci in weights
                        },
                        budget,
                    )
                else:
                    allocation = {ci: initial for ci in weights}
                entries: List[_AdaptiveEntry] = [
                    (ci, samples_done[ci] + j, counts[ci])
                    for ci in sorted(allocation)
                    for j in range(allocation[ci])
                ]
                if not entries:
                    break
                shards = [
                    entries[start:start + _ADAPTIVE_SHARD_DIES]
                    for start in range(0, len(entries), _ADAPTIVE_SHARD_DIES)
                ]
                if dispatcher is None:
                    dispatcher = _ShardDispatcher(context, workers, executor)
                self._dies_evaluated += len(entries)
                # Canonical fold: shard-index order, then sorted cell keys
                # inside each shard -- never completion order.
                for summary in dispatcher.summarize_ordered(shards):
                    max_payload = max(
                        max_payload, _summary_payload_scalars(summary)
                    )
                    for (si, ci), moments, sketch in summary:
                        trackers[si].strata[ci].merge(moments)
                        sketches[(si, ci)].merge(sketch)
                for ci, batch in allocation.items():
                    samples_done[ci] += batch
                rounds_done += 1
                progress.record(
                    {
                        "mode": "adaptive",
                        "rounds": rounds_done,
                        "samples_per_count_index": {
                            str(ci): samples_done[ci]
                            for ci in sorted(samples_done)
                        },
                        "trackers": [
                            tracker.to_dict() for tracker in trackers
                        ],
                        "sketches": {
                            f"{si}:{ci}": sketches[(si, ci)].to_dict()
                            for si, ci in sorted(sketches)
                            if sketches[(si, ci)].count
                        },
                        "max_shard_payload_scalars": max_payload,
                    },
                    sum(samples_done.values()),
                )
        finally:
            if dispatcher is not None:
                self._note_executor(dispatcher)
                dispatcher.close()

        report = AdaptiveBudgetReport(
            evaluation=evaluation,
            threshold=threshold,
            target_ci=adaptive.target_ci,
            confidence=adaptive.confidence,
            reached=reached,
            rounds=rounds_done,
            total_dies=sum(samples_done.values()),
            max_total_dies=max_total,
            half_widths={
                scheme.name: trackers[si].half_width(adaptive.confidence)
                for si, scheme in enumerate(self._schemes)
            },
            estimates={
                scheme.name: trackers[si].estimate(baseline)
                for si, scheme in enumerate(self._schemes)
            },
            samples_per_count={
                counts[ci]: samples_done[ci] for ci in sorted(samples_done)
            },
            stratum_weights={counts[ci]: weights[ci] for ci in sorted(weights)},
            stratum_stds={
                scheme.name: {
                    counts[ci]: trackers[si].strata[ci].std()
                    for ci in sorted(weights)
                }
                for si, scheme in enumerate(self._schemes)
            },
            max_shard_payload_scalars=max_payload,
        )
        self._last_adaptive_report = report
        return sketches, report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make_shards(
        entries: List[_DieEntry], workers: int, shard_size: Optional[int]
    ) -> List[List[_DieEntry]]:
        """Chunk the pending dies into contiguous work units."""
        if not entries:
            return []
        if shard_size is None:
            # A few shards per worker balances load without flooding the
            # queue; inline runs keep several shards so progress records
            # land regularly.
            shard_size = max(1, math.ceil(len(entries) / max(4 * workers, 4)))
        return [
            entries[start:start + shard_size]
            for start in range(0, len(entries), shard_size)
        ]

    def _scheme_ecdf(
        self,
        strata: Sequence[Tuple[np.ndarray, np.ndarray]],
        zero_mass: Optional[Tuple[float, float]],
    ) -> WeightedEcdf:
        """One scheme's ``Pr(N = n)``-weighted CDF, for either budget.

        ``strata`` holds one ``(scores, mass)`` pair per failure count, in
        count order: exact per-die scores with unit mass (fixed budget), or
        merged sketch support and bin masses (adaptive).  The optional
        ``(score, Pr(N = 0))`` point mass comes first, then each stratum
        scaled to its weight -- a canonical order, so the CDF never depends
        on which shard or worker produced a score.
        """
        config = self._config
        probabilities = config.count_probabilities()
        buffer = WeightedSampleBuffer()
        if zero_mass is not None:
            buffer.update_batch([zero_mass[0]], [zero_mass[1]])
        for (scores, mass), count in zip(strata, config.evaluated_counts()):
            if scores.size:
                buffer.update_batch(
                    scores, probabilities[count] * mass / mass.sum()
                )
        return WeightedEcdf(*buffer.finalize())
