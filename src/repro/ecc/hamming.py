"""Extended Hamming (SECDED) codes.

A SECDED code for ``k`` data bits uses ``r`` Hamming parity bits (the smallest
``r`` with ``2**r >= k + r + 1``) plus one overall parity bit, for a codeword
of ``n = k + r + 1`` bits.  The paper's baselines are instances of this
construction:

* ``H(39,32)`` -- full-word SECDED on 32-bit data (r = 6),
* ``H(22,16)`` -- SECDED on 16-bit data (r = 5), applied by P-ECC to the MSB
  half of each word,
* ``H(13,8)``  -- SECDED on bytes (r = 4), provided for completeness.

Codeword bit layout (LSB first):

* bit 0 is the overall (extended) parity bit,
* bits 1..k+r follow the classic Hamming numbering: parity bits sit at
  power-of-two positions (1, 2, 4, ...), data bits fill the remaining
  positions in increasing order (data bit 0 = the LSB of the data word).

Decoding corrects any single bit error (data, Hamming parity, or overall
parity) and flags double bit errors as detected-but-uncorrectable.

Besides the scalar :meth:`SecdedCode.encode` / :meth:`SecdedCode.decode` used
by the hardware-faithful word-at-a-time model, the code exposes a batch view
(:meth:`SecdedCode.encode_array`, :meth:`SecdedCode.syndrome_array`,
:meth:`SecdedCode.decode_data_array`) that evaluates the parity-check matrix
over whole ``uint64`` arrays at once: each parity/syndrome bit is the
XOR-popcount of the codeword AND-ed with a precomputed column mask.  The batch
view is bit-exact with the scalar one and is what the Monte-Carlo simulation
datapath uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.kernels.numpy_backend import SecdedKernelSpec
from repro.memory.words import bit_mask, popcount


def _active_backend():
    from repro.kernels import active_backend

    return active_backend()

__all__ = ["DecodeStatus", "DecodeResult", "SecdedCode", "secded_code_for_data_bits"]


class DecodeStatus(str, Enum):
    """Outcome classification of a SECDED decode."""

    NO_ERROR = "no_error"
    CORRECTED_SINGLE = "corrected_single"
    DETECTED_DOUBLE = "detected_double"


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one codeword.

    Attributes
    ----------
    data:
        The decoded data word.  For a detected double error the data is
        extracted from the received codeword without correction (best effort),
        mirroring what the memory read path would deliver.
    status:
        Whether the word was clean, corrected, or had an uncorrectable error.
    corrected_bit:
        Codeword bit index that was corrected (``None`` unless
        ``status == CORRECTED_SINGLE``).
    """

    data: int
    status: DecodeStatus
    corrected_bit: int | None = None


def _parity_bit_count(data_bits: int) -> int:
    """Smallest r with 2**r >= data_bits + r + 1."""
    r = 0
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


class SecdedCode:
    """A single-error-correcting, double-error-detecting extended Hamming code."""

    def __init__(self, data_bits: int) -> None:
        if data_bits <= 0:
            raise ValueError(f"data_bits must be positive, got {data_bits}")
        self._k = data_bits
        self._r = _parity_bit_count(data_bits)
        self._n = data_bits + self._r + 1
        # Hamming positions 1..k+r: power-of-two positions hold parity bits.
        inner_length = data_bits + self._r
        self._parity_positions: List[int] = [
            1 << i for i in range(self._r)
        ]
        parity_set = set(self._parity_positions)
        self._data_positions: List[int] = [
            pos for pos in range(1, inner_length + 1) if pos not in parity_set
        ]
        assert len(self._data_positions) == data_bits
        # Column masks of the parity-check matrix for the batch datapath:
        # check bit j is the parity of (codeword & _check_masks[j]).
        self._check_masks: np.ndarray = np.array(
            [
                sum(
                    1 << pos
                    for pos in range(1, inner_length + 1)
                    if pos & ppos
                )
                for ppos in self._parity_positions
            ],
            dtype=np.uint64,
        )
        # Construction-time kernel descriptor: the batch methods hand this to
        # the datapath kernels, so no per-call setup remains.
        self._kernel_spec = SecdedKernelSpec(
            data_bits=self._k,
            parity_bits=self._r,
            codeword_bits=self._n,
            data_positions=np.array(self._data_positions, dtype=np.int64),
            parity_positions=np.array(self._parity_positions, dtype=np.int64),
            check_masks=self._check_masks,
        )

    # ------------------------------------------------------------------ #
    # Code parameters
    # ------------------------------------------------------------------ #
    @property
    def data_bits(self) -> int:
        """Number of data bits ``k``."""
        return self._k

    @property
    def parity_bits(self) -> int:
        """Number of check bits ``c = r + 1`` (Hamming parity + overall parity)."""
        return self._r + 1

    @property
    def codeword_bits(self) -> int:
        """Codeword length ``n = k + r + 1``."""
        return self._n

    @property
    def name(self) -> str:
        """Conventional name, e.g. ``"H(39,32)"``."""
        return f"H({self.codeword_bits},{self.data_bits})"

    @property
    def overhead_bits(self) -> int:
        """Extra storage bits per word required by the code."""
        return self.parity_bits

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def encode(self, data: int) -> int:
        """Encode ``data`` (k bits) into an n-bit codeword."""
        if data < 0 or data >> self._k:
            raise ValueError(f"data {data:#x} does not fit in {self._k} bits")
        # Place data bits at their Hamming positions (shifted by +0 into the
        # codeword because bit 0 is reserved for the overall parity).
        inner = 0
        for i, pos in enumerate(self._data_positions):
            if (data >> i) & 1:
                inner |= 1 << pos
        # Compute each Hamming parity bit: parity over inner positions whose
        # index has the corresponding bit set.
        for j, ppos in enumerate(self._parity_positions):
            parity = 0
            for pos in range(1, self._k + self._r + 1):
                if pos & ppos and (inner >> pos) & 1:
                    parity ^= 1
            if parity:
                inner |= 1 << ppos
        # Overall parity over every bit of the inner codeword.
        overall = popcount(inner) & 1
        return inner | overall

    def extract_data(self, codeword: int) -> int:
        """Pull the data bits out of a codeword without any checking."""
        self._check_codeword(codeword)
        data = 0
        for i, pos in enumerate(self._data_positions):
            if (codeword >> pos) & 1:
                data |= 1 << i
        return data

    def syndrome(self, codeword: int) -> Tuple[int, int]:
        """Return ``(hamming_syndrome, overall_parity_error)`` for a codeword."""
        self._check_codeword(codeword)
        syndrome = 0
        for j, ppos in enumerate(self._parity_positions):
            parity = 0
            for pos in range(1, self._k + self._r + 1):
                if pos & ppos and (codeword >> pos) & 1:
                    parity ^= 1
            if parity:
                syndrome |= ppos
        overall_error = popcount(codeword) & 1
        return syndrome, overall_error

    def decode(self, codeword: int) -> DecodeResult:
        """Decode a (possibly corrupted) codeword.

        Single-bit errors anywhere in the codeword are corrected; double-bit
        errors are detected and reported with the uncorrected data.
        """
        syndrome, overall_error = self.syndrome(codeword)
        if syndrome == 0 and overall_error == 0:
            return DecodeResult(self.extract_data(codeword), DecodeStatus.NO_ERROR)
        if overall_error == 1:
            # Odd number of errors -> assume single error; the syndrome points
            # at the flipped Hamming position (0 means the overall parity bit).
            flipped = syndrome if syndrome != 0 else 0
            corrected = codeword ^ (1 << flipped)
            return DecodeResult(
                self.extract_data(corrected),
                DecodeStatus.CORRECTED_SINGLE,
                corrected_bit=flipped,
            )
        # Even number of errors with a non-zero syndrome -> uncorrectable.
        return DecodeResult(
            self.extract_data(codeword), DecodeStatus.DETECTED_DOUBLE
        )

    # ------------------------------------------------------------------ #
    # Batch encoding / decoding (vectorised parity-check matrix)
    # ------------------------------------------------------------------ #
    @property
    def kernel_spec(self) -> SecdedKernelSpec:
        """Construction-time kernel descriptor of this code's layout."""
        return self._kernel_spec

    def encode_array(self, data: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode` over a ``uint64`` array of data words."""
        data = np.asarray(data, dtype=np.uint64)
        if data.size and np.any(data > np.uint64(bit_mask(self._k))):
            raise ValueError(f"data does not fit in {self._k} bits")
        return _active_backend().secded_encode(data, self._kernel_spec)

    def extract_data_array(self, codewords: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`extract_data` (no checking beyond the width)."""
        codewords = self._check_codeword_array(codewords)
        data = np.zeros_like(codewords)
        for i, pos in enumerate(self._data_positions):
            data |= ((codewords >> np.uint64(pos)) & np.uint64(1)) << np.uint64(i)
        return data

    def syndrome_array(self, codewords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`syndrome`: ``(hamming_syndromes, overall_parity_errors)``."""
        codewords = self._check_codeword_array(codewords)
        return _active_backend().secded_syndrome(codewords, self._kernel_spec)

    def decode_data_array(self, codewords: np.ndarray) -> np.ndarray:
        """Vectorised single-error correction: the ``data`` field of :meth:`decode`.

        Bit-exact with the scalar decoder, including its failure mode: a
        syndrome that points outside the codeword (only possible with three or
        more errors) raises :class:`ValueError` just as the scalar path does.
        """
        codewords = self._check_codeword_array(codewords)
        return _active_backend().secded_decode(codewords, self._kernel_spec)

    def _check_codeword_array(self, codewords: np.ndarray) -> np.ndarray:
        codewords = np.asarray(codewords, dtype=np.uint64)
        if codewords.size and np.any(codewords > np.uint64(bit_mask(self._n))):
            raise ValueError(f"codeword does not fit in {self._n} bits")
        return codewords

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_codeword(self, codeword: int) -> None:
        if codeword < 0 or codeword >> self._n:
            raise ValueError(
                f"codeword {codeword:#x} does not fit in {self._n} bits"
            )

    def data_position_of(self, data_bit: int) -> int:
        """Codeword bit index where data bit ``data_bit`` is stored."""
        if not 0 <= data_bit < self._k:
            raise ValueError(f"data bit {data_bit} out of range")
        return self._data_positions[data_bit]

    def is_parity_position(self, codeword_bit: int) -> bool:
        """Whether ``codeword_bit`` holds a check bit (Hamming or overall parity)."""
        if not 0 <= codeword_bit < self._n:
            raise ValueError(f"codeword bit {codeword_bit} out of range")
        return codeword_bit == 0 or codeword_bit in self._parity_positions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SecdedCode({self.name})"


@lru_cache(maxsize=None)
def secded_code_for_data_bits(data_bits: int) -> SecdedCode:
    """Cached factory for :class:`SecdedCode` instances."""
    return SecdedCode(data_bits)
