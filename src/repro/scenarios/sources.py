"""Fault sources: the first stage of every scenario pipeline.

* :class:`IidPcellSource` -- the paper's baseline population: every cell of a
  die fails independently, so a ``fault_count``-stratum draw is uniform over
  all cell subsets of that size.  This source is *bit-identical* to the
  historical direct :meth:`FaultMap.random_batch_with_count` call (same
  generator calls in the same order), which is what keeps the default
  scenario's pinned golden curves intact.
* :class:`AgedPcellSource` -- the same spatially-i.i.d. draw, but the
  operating point the stratified grid is computed at is shifted by a
  BTI-style :class:`~repro.faultmodel.aging.AgingModel`: after ``years`` in
  the field every cell's critical voltage has drifted upwards by the model's
  mean drift, which is equivalent to operating the fresh die at a supply
  lowered by that drift.  The shifted ``Pcell`` widens the failure-count
  grid and reweights the strata, so an aged die population genuinely sees
  more faults.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.faultmodel.aging import AgingModel
from repro.faultmodel.pcell import PcellModel
from repro.memory.faults import FaultKind, FaultMap
from repro.memory.organization import MemoryOrganization
from repro.scenarios.base import DEFAULT_MAX_ROUNDS, FaultSource

__all__ = ["AgedPcellSource", "IidPcellSource"]


class IidPcellSource(FaultSource):
    """Uniform i.i.d. cell failures -- the paper's Monte-Carlo baseline."""

    def __init__(self, fault_kind: FaultKind = FaultKind.BIT_FLIP) -> None:
        self._fault_kind = fault_kind

    @property
    def fault_kind(self) -> FaultKind:
        """Behaviour assigned to the drawn faulty cells."""
        return self._fault_kind

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
        return FaultMap.random_batch_with_count(
            organization,
            fault_count,
            batch_size,
            rng,
            kind=self._fault_kind,
            max_faults_per_word=max_faults_per_word,
            max_rounds=max_rounds,
            vectorized=vectorized,
        )

    def to_dict(self) -> Dict[str, object]:
        base: Dict[str, object] = {"kind": "iid-pcell"}
        # The default fault kind is omitted so the default scenario's
        # description (and every hash derived from it) matches the
        # pre-scenario era exactly.
        if self._fault_kind is not FaultKind.BIT_FLIP:
            base["fault_kind"] = self._fault_kind.value
        return base


class AgedPcellSource(IidPcellSource):
    """I.i.d. cell failures at an aging-shifted operating point.

    Parameters
    ----------
    aging_model:
        The critical-voltage drift law.
    years:
        Time in the field at which the population is evaluated.
    temperature_c:
        Operating temperature (``None`` = the model's reference temperature).
        With a positive activation energy, higher temperatures accelerate the
        drift (Arrhenius law).
    pcell_model:
        ``Pcell(VDD)`` calibration used to translate the drift into a
        probability shift (calibrated 28 nm model by default).
    """

    def __init__(
        self,
        aging_model: Optional[AgingModel] = None,
        years: float = 10.0,
        temperature_c: Optional[float] = None,
        pcell_model: Optional[PcellModel] = None,
        fault_kind: FaultKind = FaultKind.BIT_FLIP,
    ) -> None:
        super().__init__(fault_kind)
        if years < 0:
            raise ValueError("years must be non-negative")
        self._aging_model = aging_model if aging_model is not None else AgingModel()
        self._years = float(years)
        self._temperature_c = None if temperature_c is None else float(temperature_c)
        if self._temperature_c is not None:
            # Validate eagerly: spec loaders and the CLI validate scenarios
            # by *constructing* them, so an impossible temperature must fail
            # here, not mid-sweep at the first drift evaluation.
            self._aging_model.temperature_acceleration(self._temperature_c)
        self._pcell_model = (
            pcell_model if pcell_model is not None else PcellModel.calibrated_28nm()
        )

    @property
    def aging_model(self) -> AgingModel:
        """The drift law of this source."""
        return self._aging_model

    @property
    def years(self) -> float:
        """Field time of the evaluated population."""
        return self._years

    def effective_p_cell(self, p_cell: float) -> float:
        """Aged ``Pcell``: the base operating point with the mean drift applied.

        A drift ``d`` of every cell's critical voltage is equivalent to
        operating the fresh population at ``VDD - d``, so the base ``p_cell``
        is mapped to a voltage through the calibration's inverse, lowered by
        the drift, and mapped back.  At ``years = 0`` (or zero drift) the
        base probability is returned exactly -- the time-zero identity.
        """
        drift = self._aging_model.mean_drift(
            self._years, temperature_c=self._temperature_c
        )
        if drift == 0.0:
            return p_cell
        vdd = self._pcell_model.vdd_for_p_cell(p_cell)
        # Clamp: a drift larger than the whole supply means the population is
        # essentially all-faulty; the Pcell model needs a positive voltage.
        aged_vdd = max(vdd - drift, 1e-6)
        return self._pcell_model.p_cell(aged_vdd)

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        aging = self._aging_model
        data.update(
            {
                "kind": "aged-pcell",
                "years": self._years,
                "temperature_c": self._temperature_c,
                # `variability` is omitted: the source acts only through the
                # mean drift, so the per-cell spread cannot affect results
                # and must not key the configuration hash.
                "aging_model": {
                    "drift_at_reference_v": aging.drift_at_reference_v,
                    "reference_years": aging.reference_years,
                    "time_exponent": aging.time_exponent,
                    "activation_energy_ev": aging.activation_energy_ev,
                    "reference_temperature_c": aging.reference_temperature_c,
                },
                "pcell_model": {
                    "v_crit_mean": self._pcell_model.v_crit_mean,
                    "v_crit_sigma": self._pcell_model.v_crit_sigma,
                },
            }
        )
        return data
