"""Tests for fault maps and fault-site semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.faults import FaultKind, FaultMap, FaultSite
from repro.memory.organization import MemoryOrganization


class TestFaultSite:
    def test_defaults_to_bit_flip(self):
        site = FaultSite(1, 2)
        assert site.kind is FaultKind.BIT_FLIP

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            FaultSite(-1, 0)
        with pytest.raises(ValueError):
            FaultSite(0, -1)


class TestFaultMapConstruction:
    def test_empty_map(self, small_org):
        fault_map = FaultMap.empty(small_org)
        assert fault_map.fault_count == 0
        assert fault_map.faulty_rows() == []
        assert not list(fault_map)

    def test_from_cells(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 1), (5, 31)])
        assert fault_map.fault_count == 2
        assert (0, 1) in fault_map
        assert (5, 31) in fault_map
        assert (0, 2) not in fault_map

    def test_duplicate_cells_rejected(self, small_org):
        with pytest.raises(ValueError):
            FaultMap.from_cells(small_org, [(0, 1), (0, 1)])

    def test_out_of_range_row_rejected(self, small_org):
        with pytest.raises(IndexError):
            FaultMap.from_cells(small_org, [(small_org.rows, 0)])

    def test_out_of_range_column_rejected(self, small_org):
        with pytest.raises(IndexError):
            FaultMap.from_cells(small_org, [(0, small_org.word_width)])


class TestFaultMapQueries:
    def test_faults_in_row_sorted(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (2, 3), (4, 0)])
        columns = [f.column for f in fault_map.faults_in_row(2)]
        assert columns == [3, 7]

    def test_faulty_columns_by_row(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (2, 3), (4, 0)])
        assert fault_map.faulty_columns_by_row() == {2: [3, 7], 4: [0]}

    def test_max_faults_per_row(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (2, 3), (4, 0)])
        assert fault_map.max_faults_per_row() == 2
        assert FaultMap.empty(small_org).max_faults_per_row() == 0

    def test_bit_positions(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(2, 7), (4, 0), (9, 31)])
        assert fault_map.bit_positions().tolist() == [0, 7, 31]

    def test_fault_at(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(1, 1)])
        assert fault_map.fault_at(1, 1) is not None
        assert fault_map.fault_at(1, 2) is None

    def test_iteration_is_sorted(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(5, 0), (1, 3), (1, 1)])
        coords = [(f.row, f.column) for f in fault_map]
        assert coords == [(1, 1), (1, 3), (5, 0)]

    def test_row_grouping_keeps_first_appearance_order(self, small_org):
        fault_map = FaultMap.from_cells(
            small_org, [(9, 4), (2, 7), (9, 1), (4, 0), (2, 3), (9, 30)]
        )
        grouping = fault_map.row_grouping()
        assert grouping.first_columns.dtype == np.int64
        assert grouping.first_columns.tolist() == [4, 7, 0]
        assert sorted(grouping.multi_fault_rows) == [
            (0, 9, (1, 4, 30)),
            (1, 2, (3, 7)),
        ]
        assert list(fault_map.faulty_columns_by_row()) == [9, 2, 4]
        assert fault_map.row_grouping() is grouping

    def test_row_grouping_of_empty_map(self, small_org):
        grouping = FaultMap.empty(small_org).row_grouping()
        assert grouping.first_columns.size == 0
        assert grouping.multi_fault_rows == ()

    def test_row_grouping_sees_cells_installed_by_from_cell_arrays(self, small_org):
        fault_map = FaultMap.from_cell_arrays(
            small_org, np.array([6, 3, 6]), np.array([2, 5, 9])
        )
        grouping = fault_map.row_grouping()
        assert grouping.first_columns.tolist() == [2, 5]
        assert grouping.multi_fault_rows == ((0, 6, (2, 9)),)


class TestCorruption:
    def test_bit_flip(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)], kind=FaultKind.BIT_FLIP)
        assert fault_map.corrupt_word(0, 0) == 1 << 4
        assert fault_map.corrupt_word(0, 1 << 4) == 0

    def test_stuck_at_one(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)], kind=FaultKind.STUCK_AT_ONE)
        assert fault_map.corrupt_word(0, 0) == 1 << 4
        assert fault_map.corrupt_word(0, 1 << 4) == 1 << 4

    def test_stuck_at_zero(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)], kind=FaultKind.STUCK_AT_ZERO)
        assert fault_map.corrupt_word(0, 1 << 4) == 0
        assert fault_map.corrupt_word(0, 0) == 0

    def test_healthy_row_untouched(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 4)])
        assert fault_map.corrupt_word(1, 0xDEADBEEF) == 0xDEADBEEF

    def test_multiple_faults_in_row(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 0), (0, 31)])
        assert fault_map.corrupt_word(0, 0) == (1 << 31) | 1

    def test_rejects_oversized_pattern(self, small_org):
        fault_map = FaultMap.empty(small_org)
        with pytest.raises(ValueError):
            fault_map.corrupt_word(0, 1 << 32)

    def test_flip_masks(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 0), (3, 5)])
        masks = fault_map.flip_masks()
        assert masks[0] == 1
        assert masks[3] == 1 << 5
        assert masks[1] == 0

    def test_flip_masks_rejects_stuck_faults(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(0, 0)], kind=FaultKind.STUCK_AT_ONE)
        with pytest.raises(ValueError):
            fault_map.flip_masks()


class TestRandomGeneration:
    def test_exact_count(self, small_org, rng):
        fault_map = FaultMap.random_with_count(small_org, 10, rng)
        assert fault_map.fault_count == 10

    def test_zero_count(self, small_org, rng):
        assert FaultMap.random_with_count(small_org, 0, rng).fault_count == 0

    def test_count_exceeding_cells_rejected(self, tiny_org, rng):
        with pytest.raises(ValueError):
            FaultMap.random_with_count(tiny_org, tiny_org.total_cells + 1, rng)

    def test_negative_count_rejected(self, small_org, rng):
        with pytest.raises(ValueError):
            FaultMap.random_with_count(small_org, -1, rng)

    def test_all_cells_faulty(self, tiny_org, rng):
        fault_map = FaultMap.random_with_count(tiny_org, tiny_org.total_cells, rng)
        assert fault_map.fault_count == tiny_org.total_cells

    def test_pcell_binomial_mean(self, rng):
        org = MemoryOrganization(rows=256, word_width=32)
        counts = [
            FaultMap.random_with_pcell(org, 0.01, rng).fault_count for _ in range(50)
        ]
        mean = np.mean(counts)
        expected = org.total_cells * 0.01
        assert abs(mean - expected) < 0.3 * expected

    def test_pcell_out_of_range(self, small_org, rng):
        with pytest.raises(ValueError):
            FaultMap.random_with_pcell(small_org, 1.5, rng)

    def test_reproducible_with_seed(self, small_org):
        a = FaultMap.random_with_count(small_org, 5, np.random.default_rng(1))
        b = FaultMap.random_with_count(small_org, 5, np.random.default_rng(1))
        assert [(f.row, f.column) for f in a] == [(f.row, f.column) for f in b]


class TestSerialization:
    def test_roundtrip_dict(self, small_org):
        fault_map = FaultMap.from_cells(small_org, [(1, 2), (3, 4)])
        restored = FaultMap.from_dict(fault_map.to_dict())
        assert [(f.row, f.column) for f in restored] == [(1, 2), (3, 4)]
        assert restored.organization == small_org

    def test_roundtrip_json(self, small_org):
        fault_map = FaultMap.from_cells(
            small_org, [(0, 0)], kind=FaultKind.STUCK_AT_ONE
        )
        restored = FaultMap.from_json(fault_map.to_json())
        assert restored.fault_at(0, 0).kind is FaultKind.STUCK_AT_ONE

    @given(st.integers(min_value=0, max_value=30))
    def test_roundtrip_preserves_count(self, count):
        org = MemoryOrganization(rows=16, word_width=16)
        rng = np.random.default_rng(count)
        fault_map = FaultMap.random_with_count(org, count, rng)
        assert FaultMap.from_json(fault_map.to_json()).fault_count == count
