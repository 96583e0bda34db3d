"""Local mean-square-error metric of Eq. 6.

The paper uses the MSE computed over the error magnitudes of all words in the
memory as a cheap, test-time proxy for the application-level output quality::

    MSE = (1 / R) * sum_i (2 ** b_i) ** 2,   0 <= b_i < W

where ``b_i`` is the (logical) bit position corrupted by the i-th failure and
``R`` the number of rows.  With a protection scheme in place the positions
``b_i`` are the *residual* positions after mitigation, which is exactly what
:meth:`repro.core.base.ProtectionScheme.residual_error_positions` reports.

:func:`mse_of_fault_map` scores a die without calling that method per row.
Every scheme derives a row's residual error from the row's faulty-column set
alone, so a row holding one fault at column ``c`` contributes entry ``c`` of
the scheme's :meth:`~repro.core.base.ProtectionScheme.residual_energy_table`.
A die's per-row energies are one gather from that table at the first-fault
column of each faulty row (:meth:`repro.memory.faults.FaultMap.row_grouping`);
only rows holding more than one fault fall back to the scalar
``word_error_energy(residual_error_positions(row, columns))``.

The energies are then summed *sequentially*, left to right, in the rows'
first-appearance order in the fault map -- the order in which the scalar
reference :func:`mse_from_error_positions` accumulates them.  ``np.cumsum``
keeps that order; ``np.sum`` (pairwise) and, on Python 3.12+, the builtin
``sum`` (compensated) do not, and would change the last bits of the result
that the exact Fig. 5 goldens pin.  The scalar functions stay public as the
reference the table-driven path is tested against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.base import ProtectionScheme
from repro.memory.faults import FaultMap

__all__ = ["word_error_energy", "mse_from_error_positions", "mse_of_fault_map"]


def word_error_energy(bit_positions: Sequence[int]) -> float:
    """Sum of squared error magnitudes ``(2**b)**2`` for one word's error positions."""
    return float(sum((1 << b) ** 2 for b in bit_positions))


def mse_from_error_positions(
    error_positions: Iterable[Sequence[int]], rows: int
) -> float:
    """Eq. 6: MSE over the memory given per-word residual error positions.

    Parameters
    ----------
    error_positions:
        One sequence of residual (logical) bit positions per affected word.
        Fault-free words contribute nothing and may be omitted.
    rows:
        Total number of rows ``R`` of the memory (the normalisation constant).
    """
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    total = 0.0
    for positions in error_positions:
        total += word_error_energy(positions)
    return total / rows


def mse_of_fault_map(fault_map: FaultMap, scheme: ProtectionScheme) -> float:
    """MSE of one die operated behind ``scheme`` (Eq. 6 with mitigation applied).

    For every faulty row the scheme reports which logical bits remain
    vulnerable; the worst case (every residual bit actually wrong) defines the
    contribution of that row.  This matches the paper's analytical evaluation,
    which charges each failure its full error magnitude.

    The result equals :func:`mse_from_error_positions` over
    ``scheme.residual_error_positions(row, columns)`` for every faulty row,
    bit for bit; see the module docstring for how it is computed.
    """
    if fault_map.organization.word_width != scheme.word_width:
        raise ValueError(
            "fault map word width does not match the protection scheme"
        )
    grouping = fault_map.row_grouping()
    if not grouping.first_columns.size:
        return 0.0
    energies = scheme.residual_energy_table()[grouping.first_columns]
    for index, row, columns in grouping.multi_fault_rows:
        energies[index] = word_error_energy(
            scheme.residual_error_positions(row, columns)
        )
    return float(np.cumsum(energies)[-1]) / fault_map.organization.rows
