"""Oracle suite for the NumPy datapath kernels.

Every kernel of :mod:`repro.kernels` is checked against an independent
reference rather than against itself: the scalar SECDED code over Python
ints, the scalar rotate and 2's-complement helpers of :mod:`repro.memory.words`,
the per-word :meth:`FaultMap.corrupt_word`, and a brute-force per-map reading
of the rejection sampler's validity rule.  Boundary patterns (all-zeros,
all-ones, sign bits) are always part of the inputs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.hamming import secded_code_for_data_bits
from repro.kernels import active_backend
from repro.memory.faults import FaultKind, FaultMap, FaultSite
from repro.memory.organization import MemoryOrganization
from repro.memory.words import (
    from_twos_complement,
    rotate_left,
    rotate_right,
    to_twos_complement,
)

KERNELS = active_backend()


def test_active_backend_is_the_numpy_kernels():
    assert KERNELS.name == "numpy"
    assert active_backend() is KERNELS


def _u64(values) -> np.ndarray:
    return np.array([int(v) for v in values], dtype=np.uint64)


# --------------------------------------------------------------------- #
# SECDED kernels against the scalar code (Python ints)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("data_bits", [4, 8, 16, 32, 57])
class TestSecdedKernels:
    def _data(self, data_bits: int, rng) -> np.ndarray:
        top = (1 << data_bits) - 1
        fixed = [0, 1, top, 1 << (data_bits - 1)]
        random = rng.integers(0, 1 << min(data_bits, 63), size=120)
        return _u64(fixed + [int(v) & top for v in random])

    def test_encode_matches_scalar_code(self, data_bits):
        code = secded_code_for_data_bits(data_bits)
        data = self._data(data_bits, np.random.default_rng(data_bits))
        got = KERNELS.secded_encode(data, code.kernel_spec)
        assert got.tolist() == [code.encode(int(d)) for d in data]

    def test_syndrome_and_decode_match_scalar_code(self, data_bits):
        code = secded_code_for_data_bits(data_bits)
        spec = code.kernel_spec
        n = spec.codeword_bits
        rng = np.random.default_rng(7 * data_bits)
        data = self._data(data_bits, rng)
        clean = _u64(code.encode(int(d)) for d in data)
        # 0, 1 and 2 flips per word: clean, corrected and detected-double.
        first = rng.integers(0, n, size=clean.size)
        second = (first + rng.integers(1, n, size=clean.size)) % n
        single = clean ^ (np.uint64(1) << first.astype(np.uint64))
        double = single ^ (np.uint64(1) << second.astype(np.uint64))
        for codewords in (clean, single, double):
            syndromes, overall = KERNELS.secded_syndrome(codewords, spec)
            want = [code.syndrome(int(c)) for c in codewords]
            assert list(zip(syndromes.tolist(), overall.tolist())) == want
            decoded = KERNELS.secded_decode(codewords, spec)
            assert decoded.tolist() == [code.decode(int(c)).data for c in codewords]
        assert KERNELS.secded_decode(single, spec).tolist() == data.tolist()

    def test_triple_errors_match_scalar_code(self, data_bits):
        """Three flips can push the "corrected" word outside the code; the
        kernel must then raise exactly when the scalar decoder does."""
        code = secded_code_for_data_bits(data_bits)
        spec = code.kernel_spec
        n = spec.codeword_bits
        rng = np.random.default_rng(3 * data_bits)
        data = self._data(data_bits, rng)
        bits = np.argsort(rng.random((data.size, n)), axis=1)[:, :3]
        flips = _u64(sum(1 << int(b) for b in row) for row in bits)
        corrupted = _u64(code.encode(int(d)) for d in data) ^ flips
        overflows = 0
        for codeword in corrupted:
            try:
                want = code.decode(int(codeword)).data
            except ValueError as exc:
                assert str(exc).endswith(f"does not fit in {n} bits")
                overflows += 1
                with pytest.raises(
                    ValueError, match=f"^codeword does not fit in {n} bits$"
                ):
                    KERNELS.secded_decode(_u64([codeword]), spec)
            else:
                assert KERNELS.secded_decode(_u64([codeword]), spec)[0] == want
        # A syndrome can point past the codeword only when 2**r - 1 >= n.
        hamming_bits = spec.parity_bits
        assert (overflows > 0) == ((1 << hamming_bits) - 1 >= n)


# --------------------------------------------------------------------- #
# FM-LUT, corruption-mask, codec and sampler kernels
# --------------------------------------------------------------------- #
class TestDatapathKernels:
    @given(
        width_exp=st.integers(min_value=2, max_value=5),
        n_fm=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fmlut_matches_scalar_rotation(self, width_exp, n_fm, seed):
        width = 1 << width_exp
        rng = np.random.default_rng(seed)
        n_rows = 9
        entries = rng.integers(0, 1 << n_fm, size=n_rows).astype(np.int64)
        segments = 1 << n_fm
        rotations = ((segments - entries) * (width // segments)) % width
        rows = rng.integers(0, n_rows, size=64).astype(np.int64)
        data = rng.integers(0, 1 << width, size=64).astype(np.uint64)
        data[:2] = (0, (1 << width) - 1)
        stored = KERNELS.fmlut_encode(data, rows, entries, rotations, width)
        assert stored.tolist() == [
            rotate_right(int(d), int(rotations[r]), width)
            | (int(entries[r]) << width)
            for d, r in zip(data, rows)
        ]
        back = KERNELS.fmlut_decode(stored, rows, rotations, width)
        assert np.array_equal(back, data)
        assert back.tolist() == [
            rotate_left(int(s) & ((1 << width) - 1), int(rotations[r]), width)
            for s, r in zip(stored, rows)
        ]

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_corruption_masks_match_corrupt_word(self, seed):
        rng = np.random.default_rng(seed)
        organization = MemoryOrganization(rows=16, word_width=32)
        kinds = list(FaultKind)
        cells = {
            (int(r), int(c))
            for r, c in zip(rng.integers(0, 16, size=24), rng.integers(0, 32, size=24))
        }
        fault_map = FaultMap(
            organization,
            [
                FaultSite(row, column, kinds[int(rng.integers(0, len(kinds)))])
                for row, column in sorted(cells)
            ],
        )
        rows = rng.integers(0, 16, size=128).astype(np.int64)
        patterns = rng.integers(0, 1 << 32, size=128).astype(np.uint64)
        patterns[:2] = (0, (1 << 32) - 1)
        got = KERNELS.apply_corruption_masks(
            patterns, rows, *fault_map.corruption_masks()
        )
        assert got.tolist() == [
            fault_map.corrupt_word(int(r), int(p)) for r, p in zip(rows, patterns)
        ]

    @pytest.mark.parametrize("width", [2, 8, 16, 32, 63])
    def test_twos_complement_roundtrip(self, width):
        rng = np.random.default_rng(width)
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        values = np.concatenate(
            [
                np.array([lo, hi, 0, -1, 1], dtype=np.int64),
                rng.integers(lo, hi + 1, size=100).astype(np.int64),
            ]
        )
        patterns = KERNELS.to_twos_complement(values, width)
        assert patterns.tolist() == [to_twos_complement(int(v), width) for v in values]
        back = KERNELS.from_twos_complement(patterns, width)
        assert back.tolist() == [from_twos_complement(int(p), width) for p in patterns]
        assert np.array_equal(back, values)

    @pytest.mark.parametrize("width", [8, 32])
    def test_twos_complement_errors(self, width):
        for value in (1 << (width - 1), -(1 << (width - 1)) - 1):
            with pytest.raises(
                ValueError, match=f"values out of range for {width}-bit 2's complement"
            ):
                KERNELS.to_twos_complement(np.array([0, value], dtype=np.int64), width)
        oversized = np.array([0, 1 << width], dtype=np.uint64)
        with pytest.raises(ValueError, match=f"pattern exceeds {width}-bit range"):
            KERNELS.from_twos_complement(oversized, width)

    @given(
        fault_count=st.integers(min_value=1, max_value=6),
        max_fpw=st.sampled_from([None, 1, 2, 3]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_invalid_map_mask_matches_brute_force(self, fault_count, max_fpw, seed):
        rng = np.random.default_rng(seed)
        width = 8
        draws = rng.integers(0, 40, size=(50, fault_count)).astype(np.int64)
        if fault_count >= 2:
            draws[0, 1] = draws[0, 0]  # guaranteed duplicate cell
            draws[1] = np.arange(fault_count)  # packed into the first word(s)

        def invalid(cells) -> bool:
            cells = [int(c) for c in cells]
            if len(set(cells)) < len(cells):
                return True
            per_word = Counter(c // width for c in cells)
            return max_fpw is not None and max(per_word.values()) > max_fpw

        got = KERNELS.invalid_map_mask(draws, width, max_fpw)
        assert got.tolist() == [invalid(row) for row in draws]
