"""Tests for the local MSE metric (Eq. 6)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import statharness
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quality.mse import (
    mse_from_error_positions,
    mse_of_fault_map,
    word_error_energy,
)
from repro.scenarios import build_scenario

#: One instance of every scheme family the Fig. 5 sweep scores.
ALL_SCHEMES = [
    pytest.param(NoProtection(32), id="no-protection"),
    pytest.param(SecdedScheme(32), id="secded"),
    pytest.param(PriorityEccScheme(32), id="p-ecc"),
    pytest.param(PriorityEccScheme(32, protected_bits=8), id="p-ecc-8"),
] + [
    pytest.param(
        BitShuffleScheme(32, n_fm, multi_fault_policy=policy),
        id=f"shuffle-nfm{n_fm}-{policy}",
    )
    for n_fm in range(1, 6)
    for policy in ("most-significant", "minimax")
]


def scalar_mse(fault_map, scheme):
    """The scalar reference: one ``residual_error_positions`` call per row."""
    return mse_from_error_positions(
        [
            scheme.residual_error_positions(row, columns)
            for row, columns in fault_map.faulty_columns_by_row().items()
        ],
        fault_map.organization.rows,
    )


class TestWordErrorEnergy:
    def test_empty(self):
        assert word_error_energy([]) == 0.0

    def test_single_bit(self):
        assert word_error_energy([3]) == (2 ** 3) ** 2

    def test_multiple_bits_add(self):
        assert word_error_energy([0, 31]) == pytest.approx(1 + (2 ** 31) ** 2)


class TestMseFromPositions:
    def test_equation_six_single_fault(self):
        # MSE = (1/R) * (2**b)**2.
        assert mse_from_error_positions([[5]], rows=16) == (2 ** 5) ** 2 / 16

    def test_multiple_words_accumulate(self):
        value = mse_from_error_positions([[0], [1]], rows=4)
        assert value == (1 + 4) / 4

    def test_fault_free_memory_is_zero(self):
        assert mse_from_error_positions([], rows=128) == 0.0

    def test_rejects_non_positive_rows(self):
        with pytest.raises(ValueError):
            mse_from_error_positions([[1]], rows=0)

    @given(st.lists(st.integers(min_value=0, max_value=31), max_size=8))
    def test_non_negative(self, positions):
        assert mse_from_error_positions([positions], rows=64) >= 0.0


class TestMseOfFaultMap:
    def test_unprotected_single_msb_fault(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        mse = mse_of_fault_map(fault_map, NoProtection(32))
        assert mse == pytest.approx((2 ** 31) ** 2 / paper_org.rows)

    def test_secded_single_fault_gives_zero(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        assert mse_of_fault_map(fault_map, SecdedScheme(32)) == 0.0

    def test_bit_shuffle_bounds_mse(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        for n_fm, segment in [(1, 16), (2, 8), (3, 4), (4, 2), (5, 1)]:
            mse = mse_of_fault_map(fault_map, BitShuffleScheme(32, n_fm))
            assert mse <= (2 ** (segment - 1)) ** 2 / paper_org.rows

    def test_scheme_ordering_for_msb_fault(self, paper_org):
        """For an MSB fault: no-protection >> P-ECC-corrected == shuffle-corrected."""
        fault_map = FaultMap.from_cells(paper_org, [(0, 31)])
        unprotected = mse_of_fault_map(fault_map, NoProtection(32))
        pecc = mse_of_fault_map(fault_map, PriorityEccScheme(32))
        shuffled = mse_of_fault_map(fault_map, BitShuffleScheme(32, 1))
        assert pecc == 0.0
        assert shuffled < unprotected

    def test_pecc_lsb_fault_equals_unprotected(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 12)])
        assert mse_of_fault_map(fault_map, PriorityEccScheme(32)) == mse_of_fault_map(
            fault_map, NoProtection(32)
        )

    def test_bit_shuffle_lower_than_pecc_for_lsb_half_fault(self, paper_org):
        # Fault at bit 15: P-ECC leaves it (error 2**15); nFM=2 shuffling
        # bounds it to 2**7.
        fault_map = FaultMap.from_cells(paper_org, [(0, 15)])
        assert mse_of_fault_map(fault_map, BitShuffleScheme(32, 2)) < mse_of_fault_map(
            fault_map, PriorityEccScheme(32)
        )

    def test_word_width_mismatch_rejected(self, paper_org):
        fault_map = FaultMap.from_cells(paper_org, [(0, 0)])
        with pytest.raises(ValueError):
            mse_of_fault_map(fault_map, NoProtection(16))

    def test_increasing_nfm_never_increases_mse(self, paper_org, rng):
        fault_map = FaultMap.random_with_count(paper_org, 20, rng)
        if fault_map.max_faults_per_row() > 1:  # pragma: no cover - extremely unlikely
            pytest.skip("multi-fault row drawn")
        values = [
            mse_of_fault_map(fault_map, BitShuffleScheme(32, n_fm))
            for n_fm in range(1, 6)
        ]
        assert values == sorted(values, reverse=True)


class TestTableDrivenEvaluator:
    """``mse_of_fault_map`` equals the scalar reference bit for bit."""

    ORG = MemoryOrganization(rows=16, word_width=32)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 31)),
            unique=True,
            max_size=24,
        ),
        data=st.data(),
    )
    @example(cells=[], data=None)
    @example(cells=[(0, 31), (5, 0), (9, 17)], data=None)
    @example(cells=[(3, 31), (3, 2), (7, 30), (3, 15), (7, 1)], data=None)
    def test_equals_scalar_reference(self, scheme, cells, data):
        orders = [cells]
        if data is not None:
            orders.append(data.draw(st.permutations(cells), label="order"))
        for order in orders:
            fault_map = FaultMap.from_cells(self.ORG, order)
            assert mse_of_fault_map(fault_map, scheme) == scalar_mse(
                fault_map, scheme
            )

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_energy_table_is_the_single_fault_energy(self, scheme):
        table = scheme.residual_energy_table()
        assert table.dtype == np.float64 and table.shape == (32,)
        assert table.tolist() == [
            word_error_energy(scheme.residual_error_positions(0, [column]))
            for column in range(32)
        ]
        assert scheme.residual_energy_table() is table
        assert not table.flags.writeable

    def test_sum_is_sequential_in_map_order(self, paper_org):
        """Pinned case where pairwise and compensated sums give other bits.

        One unprotected MSB fault (energy 2**62) followed by 2000 LSB faults
        (energy 1 each): left to right, every 1 is lost to rounding, while a
        pairwise or exact sum keeps their 2000 as 2048.  The MSB fault sits in
        the last row but comes first in the map, so summing in sorted row
        order gives the other bits too.
        """
        cells = [(4000, 31)] + [(row, 0) for row in range(2000)]
        fault_map = FaultMap.from_cells(paper_org, cells)
        energies = np.array([4.0 ** 31] + [1.0] * 2000)
        sequential = 2.0 ** 62 / paper_org.rows
        assert float(np.sum(energies)) / paper_org.rows != sequential
        assert math.fsum(energies) / paper_org.rows != sequential
        assert mse_of_fault_map(fault_map, NoProtection(32)) == sequential
        assert scalar_mse(fault_map, NoProtection(32)) == sequential


class TestExactMseLaw:
    """Seeded one-fault-per-word dies against the enumerated Eq. 6 law."""

    SCHEMES = [
        pytest.param(NoProtection(32), id="no-protection"),
        pytest.param(PriorityEccScheme(32), id="p-ecc"),
        pytest.param(BitShuffleScheme(32, 1), id="shuffle-nfm1"),
        pytest.param(BitShuffleScheme(32, 3), id="shuffle-nfm3"),
    ]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fault_count", [1, 2, 3])
    def test_sampled_mse_follows_exact_law(self, scheme, fault_count, paper_org):
        (seed,) = statharness.gof_seeds(1, start=900 + fault_count)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        maps = build_scenario("iid-pcell").sample_batch(
            paper_org, fault_count, 3000, rng, max_faults_per_word=1
        )
        samples = [mse_of_fault_map(fault_map, scheme) for fault_map in maps]
        statharness.assert_exact_mse_law(
            samples,
            scheme.residual_energy_table(),
            fault_count,
            paper_org.rows,
            label=f"{scheme.name} N={fault_count}",
        )

    def test_law_of_one_fault_is_the_energy_table(self):
        table = NoProtection(32).residual_energy_table()
        support, probabilities = statharness.exact_mse_law(table, 1, rows=4)
        assert support.tolist() == sorted(table / 4)
        assert probabilities.tolist() == [1 / 32] * 32

    def test_law_rejects_oversized_enumeration(self):
        with pytest.raises(ValueError, match="too many"):
            statharness.exact_mse_law(np.ones(32), 4, rows=4)

    def test_sample_outside_support_fails(self):
        table = NoProtection(32).residual_energy_table()
        with pytest.raises(AssertionError, match="outside the exact support"):
            statharness.assert_exact_mse_law([3.0 / 4], table, 1, rows=4)
