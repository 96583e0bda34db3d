"""Composable fault-scenario pipeline: source -> transforms -> repair.

Which faults a die sees is the single input every quality/energy trade-off of
the paper rests on, yet a fault *population* is more than a cell-failure
probability: aging shifts the operating point over a product lifetime,
defects cluster along word/bit lines, and spare rows/columns remove part of
the population before the protection scheme ever sees it.  This module
defines the composable pipeline that expresses all of those as one object:

``FaultScenario = FaultSource -> [FaultTransform ...] -> [RepairStage]``

* a :class:`FaultSource` draws the base fault maps of a failure-count stratum
  (uniform i.i.d. cells by default, optionally with an aged/shifted
  ``Pcell``);
* each :class:`FaultTransform` reshapes the drawn population (e.g. regroups
  the faults into spatially correlated row/column bursts);
* an optional repair stage (see :mod:`repro.scenarios.repair`) removes the
  faults covered by spare rows/columns, modelling conventional redundancy
  applied *before* protection encoding.

Scenarios are consumed by :class:`~repro.faultmodel.montecarlo.FaultMapSampler`
(batch sampling), by the :class:`~repro.sim.engine.SweepEngine` workers
(per-die seeded sampling), and -- by name, through :class:`ScenarioSpec` and
the design registry -- by :class:`~repro.dse.spec.ExperimentSpec` and the
CLI.  The default ``iid-pcell`` scenario reproduces the historical sampling
stream bit-for-bit: same generator calls, same rejection order, same maps.

Randomness contract
-------------------

Every stage consumes randomness only from the generator handed to
:meth:`FaultScenario.sample_batch`.  The sweep engine passes each die's own
seed-sequence child, so scenario sampling inherits the engine's
worker-count/shard-order bit-identity guarantee unchanged.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization

if TYPE_CHECKING:  # pragma: no cover - import cycle: transient imports base
    from repro.scenarios.transient import TransientTier

__all__ = [
    "FaultScenario",
    "FaultSource",
    "FaultTransform",
    "RepairStageLike",
    "ScenarioSpec",
    "validated_effective_p_cell",
]

#: Default per-map redraw budget of the rejection samplers (matches the
#: historical ``FaultMap.random_batch_with_count`` default).
DEFAULT_MAX_ROUNDS = 1000


class FaultSource(abc.ABC):
    """Stage 1: draws the base fault maps of one failure-count stratum."""

    @abc.abstractmethod
    def sample_batch(
        self,
        organization: MemoryOrganization,
        fault_count: int,
        batch_size: int,
        rng: np.random.Generator,
        *,
        max_faults_per_word: Optional[int] = None,
        vectorized: bool = True,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> List[FaultMap]:
        """Draw ``batch_size`` independent maps with exactly ``fault_count`` faults."""

    def effective_p_cell(self, p_cell: float) -> float:
        """The cell-failure probability this source makes a base ``p_cell`` act as.

        The stratified Monte-Carlo grid (``Nmax``, the ``Pr(N = n)`` weights,
        the fault-free point mass) is computed at this probability, so a
        source that models a population shift -- aging, for instance --
        overrides it.  Identity by default.
        """
        return p_cell

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (feeds configuration hashes)."""


class FaultTransform(abc.ABC):
    """Stage 2: reshapes a drawn fault population (fault count preserved)."""

    #: True when the transform discards the input layout entirely and
    #: re-places every cell (reading only each map's fault count and kind).
    #: The pipeline then skips the source's placement work -- and its
    #: rejection sampling -- for the batch.
    replaces_layout: bool = False

    @abc.abstractmethod
    def apply_batch(
        self,
        maps: List[FaultMap],
        rng: np.random.Generator,
        *,
        max_faults_per_word: Optional[int] = None,
        vectorized: bool = True,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> List[FaultMap]:
        """Transform a batch of maps (each output keeps its input's fault count)."""

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (feeds configuration hashes)."""


@dataclass(frozen=True)
class FaultScenario:
    """A fully assembled fault-generation pipeline.

    Attributes
    ----------
    name:
        Catalog name of the scenario (``"iid-pcell"``, ``"aged"``, ...).
    source:
        The base fault-map generator.
    transforms:
        Transforms applied in order to every drawn batch.
    repair:
        Optional spare-row/column repair stage applied last, before the maps
        reach protection encoding (see :class:`repro.scenarios.repair.RepairStage`).
    transient:
        Optional access-sequence tier (per-read soft errors, read-disturb,
        scrubbing; see :mod:`repro.scenarios.transient`).  Unlike the static
        stages it is not consumed during map sampling: the sweep engine
        threads it into every die's :class:`~repro.sim.faulty_storage.FaultyTensorStore`,
        which replays it per load from the die's own seed stream.
    """

    name: str
    source: FaultSource
    transforms: Tuple[FaultTransform, ...] = ()
    repair: Optional["RepairStageLike"] = None
    transient: Optional["TransientTier"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "transforms", tuple(self.transforms))

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_batch(
        self,
        organization: MemoryOrganization,
        fault_count: int,
        batch_size: int,
        rng: np.random.Generator,
        *,
        max_faults_per_word: Optional[int] = None,
        vectorized: bool = True,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> List[FaultMap]:
        """Run the full pipeline for one failure-count stratum.

        ``fault_count`` is the *manufactured* fault count of the stratum; a
        repair stage may return maps with fewer (post-repair) faults, which is
        exactly the population the protection schemes then face.
        """
        if self.transforms and self.transforms[0].replaces_layout:
            # The first transform re-places every cell, so the source's
            # placement (and its rejection loop) would be discarded work;
            # hand it a trivial layout carrying only the count and kind.
            maps = self._placeholder_batch(organization, fault_count, batch_size)
        else:
            maps = self.source.sample_batch(
                organization,
                fault_count,
                batch_size,
                rng,
                max_faults_per_word=max_faults_per_word,
                vectorized=vectorized,
                max_rounds=max_rounds,
            )
        for transform in self.transforms:
            maps = transform.apply_batch(
                maps,
                rng,
                max_faults_per_word=max_faults_per_word,
                vectorized=vectorized,
                max_rounds=max_rounds,
            )
        if self.repair is not None:
            maps = self.repair.apply_batch(maps)
        return maps

    def _placeholder_batch(
        self,
        organization: MemoryOrganization,
        fault_count: int,
        batch_size: int,
    ) -> List[FaultMap]:
        """Deterministic ``fault_count``-fault maps for layout-replacing transforms."""
        if fault_count > organization.total_cells:
            raise ValueError(
                f"cannot place {fault_count} faults in a memory of "
                f"{organization.total_cells} cells"
            )
        kind = getattr(self.source, "fault_kind", FaultKind.BIT_FLIP)
        flat = np.arange(fault_count, dtype=np.int64)
        width = organization.word_width
        template = FaultMap.from_cell_arrays(
            organization, flat // width, flat % width, kind
        )
        # The transform only reads count and kind, so one immutable template
        # serves the whole batch.
        return [template] * batch_size

    def sample_die(
        self,
        organization: MemoryOrganization,
        fault_count: int,
        rng: np.random.Generator,
        *,
        max_faults_per_word: Optional[int] = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> FaultMap:
        """One die of the scenario (the engine's per-die seeded entry point)."""
        return self.sample_batch(
            organization,
            fault_count,
            1,
            rng,
            max_faults_per_word=max_faults_per_word,
            max_rounds=max_rounds,
        )[0]

    def effective_p_cell(self, p_cell: float) -> float:
        """Operating-point shift of the scenario (delegates to the source)."""
        return self.source.effective_p_cell(p_cell)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @property
    def is_default(self) -> bool:
        """Whether this pipeline is behaviourally the plain i.i.d. draw."""
        return (
            not self.transforms
            and self.repair is None
            and self.transient is None
            and self.source.to_dict() == {"kind": "iid-pcell"}
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description of the full pipeline.

        The ``transient`` key appears only when the tier is present, so
        every static scenario's description -- and with it every existing
        configuration hash -- stays byte-identical.
        """
        description: Dict[str, object] = {
            "name": self.name,
            "source": self.source.to_dict(),
            "transforms": [t.to_dict() for t in self.transforms],
            "repair": self.repair.to_dict() if self.repair is not None else None,
        }
        if self.transient is not None:
            description["transient"] = self.transient.to_dict()
        return description


class RepairStageLike(abc.ABC):
    """Structural interface of the optional final pipeline stage."""

    @abc.abstractmethod
    def apply_batch(self, maps: List[FaultMap]) -> List[FaultMap]:
        """Repair every map of a batch (deterministic; consumes no randomness)."""

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (feeds configuration hashes)."""


# --------------------------------------------------------------------------- #
# Declarative scenario naming
# --------------------------------------------------------------------------- #
_DEFAULT_NAMES = ("iid-pcell", "iid", "default")


@dataclass(frozen=True)
class ScenarioSpec:
    """Serialisable, hashable name + parameters of a catalog scenario.

    This is what travels inside :class:`~repro.sim.engine.ExperimentConfig`
    (it must stay hashable for the frozen config) and inside the ``scenario``
    section of an :class:`~repro.dse.spec.ExperimentSpec` JSON file.
    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so equal
    specs hash equally regardless of the order a JSON file listed them in.
    """

    name: str = "iid-pcell"
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        name = str(self.name).strip().lower()
        if not name:
            raise ValueError("scenario name must be a non-empty string")
        object.__setattr__(self, "name", name)
        # Sort by key only: values of equal keys may not be comparable, and
        # duplicate keys are a config error, not a tie to break.
        pairs = tuple(
            sorted(((str(k), v) for k, v in tuple(self.params)), key=lambda kv: kv[0])
        )
        seen = set()
        for key, value in pairs:
            if key in seen:
                raise ValueError(f"duplicate scenario parameter {key!r}")
            seen.add(key)
            if not isinstance(value, (int, float, str, bool)):
                raise ValueError(
                    f"scenario parameter {key!r} must be a scalar "
                    f"(int/float/str/bool), got {type(value).__name__}"
                )
        object.__setattr__(self, "params", pairs)

    @property
    def is_default(self) -> bool:
        """Whether this names the plain i.i.d. scenario with no parameters."""
        return self.name in _DEFAULT_NAMES and not self.params

    def build(self) -> FaultScenario:
        """Resolve the name into a live pipeline.

        Resolution goes through the design registry's ``scenario`` kind, so
        custom scenarios registered with ``REGISTRY.register("scenario",
        name, factory)`` are buildable from any spec that validated against
        the same registry (the built-in catalog is its fallback).  Imported
        lazily because the DSE layer sits above this package; an import
        failure there is a real error and propagates -- silently falling
        back to the catalog would change which names resolve.
        """
        from repro.dse.registry import REGISTRY

        return REGISTRY.build("scenario", self.name, **dict(self.params))

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation: ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Parse a ``scenario`` JSON section, failing loudly on malformed input."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"the scenario section must be a mapping with 'name' and "
                f"optional 'params', got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"name", "params"})
        if unknown:
            raise ValueError(
                f"unknown scenario keys {unknown}; expected 'name' and "
                f"optional 'params'"
            )
        if "name" not in data:
            raise ValueError("the scenario section requires a 'name'")
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(
                f"scenario 'params' must be a mapping, got "
                f"{type(params).__name__}"
            )
        return cls(name=str(data["name"]), params=tuple(params.items()))


def validated_effective_p_cell(scenario: FaultScenario, p_cell: float) -> float:
    """The scenario-shifted operating point, validated to stay a probability.

    The single home of the shift-and-validate rule every failure-count grid
    (the sweep engine's and the yield analyzer's) must agree on.
    """
    effective = scenario.effective_p_cell(p_cell)
    if not 0.0 < effective < 1.0:
        raise ValueError(
            f"scenario {scenario.name!r} maps p_cell={p_cell} to "
            f"{effective}, which is outside (0, 1)"
        )
    return effective
