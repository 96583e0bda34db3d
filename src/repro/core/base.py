"""Abstract interface shared by every memory-protection scheme."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ProtectionScheme"]


class ProtectionScheme(ABC):
    """A write-path / read-path transformation protecting words in a faulty memory.

    A scheme may add extra storage columns per row (ECC parity bits, FM-LUT
    entries).  The bit-accurate flow is::

        scheme.program(fault_columns_by_row)      # from BIST, once per die
        stored = scheme.encode_word(row, data)    # on every write
        ...faults corrupt ``stored``...
        data'  = scheme.decode_word(row, observed)  # on every read

    Simulation sweeps push whole memory pages through that flow at once via
    the *batch* view, :meth:`encode_words` / :meth:`decode_words`, which
    operate on parallel ``uint64`` arrays of row indices and word patterns.
    The base class provides a generic (bit-exact but slow) fallback that loops
    over the scalar methods; concrete schemes override it with true NumPy
    vectorisation.  Both views must agree bit-for-bit — the batch methods are
    an implementation of the scalar contract, never a different code.

    The analytical flow used by the Monte-Carlo yield model asks a single
    question per row: *given faults at these physical data-bit positions, which
    logical data bits can still be wrong after mitigation?*  That is
    :meth:`residual_error_positions`.
    """

    def __init__(self, word_width: int) -> None:
        if word_width <= 0:
            raise ValueError(f"word_width must be positive, got {word_width}")
        self._word_width = word_width
        self._energy_table: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Static properties
    # ------------------------------------------------------------------ #
    @property
    def word_width(self) -> int:
        """Width of the logical data word the scheme protects."""
        return self._word_width

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable scheme name used in reports and figures."""

    @property
    @abstractmethod
    def extra_columns(self) -> int:
        """Extra storage bits required per row (parity bits, FM-LUT bits)."""

    @property
    def storage_width(self) -> int:
        """Total stored bits per row: data plus any scheme overhead."""
        return self._word_width + self.extra_columns

    @property
    def has_die_state(self) -> bool:
        """Whether :meth:`program` mutates per-die state inside the scheme.

        Stateless schemes (plain ECC, no protection) can safely be shared
        between simulation containers; stateful ones (an FM-LUT programmed per
        die) must be copied per container.  The default is conservative: any
        scheme that overrides :meth:`program` is assumed stateful unless it
        overrides this property too.
        """
        return type(self).program is not ProtectionScheme.program

    # ------------------------------------------------------------------ #
    # Die-specific programming
    # ------------------------------------------------------------------ #
    def program(self, fault_columns_by_row: Mapping[int, Sequence[int]]) -> None:
        """Configure the scheme for a specific die from BIST fault locations.

        ``fault_columns_by_row`` maps row index to the faulty data-bit
        positions found by BIST.  Schemes that do not need die-specific state
        (plain ECC, no protection) ignore the call.
        """

    # ------------------------------------------------------------------ #
    # Operational (bit-accurate) view
    # ------------------------------------------------------------------ #
    @abstractmethod
    def encode_word(self, row: int, data: int) -> int:
        """Transform ``data`` (``word_width`` bits) into the stored pattern
        (``storage_width`` bits) for ``row``."""

    @abstractmethod
    def decode_word(self, row: int, stored: int) -> int:
        """Recover the logical data word from the (possibly corrupted) stored
        pattern read from ``row``."""

    # ------------------------------------------------------------------ #
    # Operational (batch) view
    # ------------------------------------------------------------------ #
    def encode_words(self, rows: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Batch :meth:`encode_word`: encode ``data[i]`` for ``rows[i]``.

        ``rows`` and ``data`` are parallel one-dimensional arrays; the result
        is a ``uint64`` array of stored patterns.  The generic implementation
        loops over the scalar method and is overridden with vectorised code by
        every concrete scheme.
        """
        rows, data = self._check_batch(rows, data, self._word_width, "data")
        out = np.empty(rows.size, dtype=np.uint64)
        for i in range(rows.size):
            out[i] = self.encode_word(int(rows[i]), int(data[i]))
        return out

    def decode_words(self, rows: np.ndarray, stored: np.ndarray) -> np.ndarray:
        """Batch :meth:`decode_word`: decode ``stored[i]`` read from ``rows[i]``.

        Returns a ``uint64`` array of recovered logical data words.
        """
        rows, stored = self._check_batch(
            rows, stored, self.storage_width, "stored pattern"
        )
        out = np.empty(rows.size, dtype=np.uint64)
        for i in range(rows.size):
            out[i] = self.decode_word(int(rows[i]), int(stored[i]))
        return out

    def _check_batch(
        self, rows: np.ndarray, patterns: np.ndarray, width: int, what: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate and normalise a (rows, patterns) batch to int64/uint64.

        Patterns are ``uint64``, so ``width`` may not exceed 64; individual
        schemes can be stricter (the rotation and 2's-complement helpers in
        :mod:`repro.memory.words` top out at 63-bit data words and raise
        their own errors).
        """
        if width > 64:
            raise ValueError(
                f"batch datapath supports storage widths up to 64 bits, "
                f"got {width}"
            )
        rows = np.asarray(rows, dtype=np.int64)
        patterns = np.asarray(patterns, dtype=np.uint64)
        if rows.ndim != 1 or patterns.ndim != 1:
            raise ValueError("batch rows and patterns must be one-dimensional")
        if rows.shape != patterns.shape:
            raise ValueError(
                f"batch rows and patterns must have equal length, got "
                f"{rows.size} and {patterns.size}"
            )
        if width < 64 and patterns.size and np.any(
            patterns > np.uint64((1 << width) - 1)
        ):
            raise ValueError(f"{what} does not fit in {width} bits")
        return rows, patterns

    # ------------------------------------------------------------------ #
    # Analytical view
    # ------------------------------------------------------------------ #
    @abstractmethod
    def residual_error_positions(
        self, row: int, fault_columns: Sequence[int]
    ) -> List[int]:
        """Logical data-bit positions that can still be corrupted after mitigation.

        ``fault_columns`` are the physical positions (0 = LSB cell) of faulty
        cells in the row's *data* columns, matching the paper's fault-injection
        setup where the M = R x W data cells are the fault population.  The
        returned list may be empty (all faults neutralised), and its entries
        are the positions whose weight ``2**b`` enters the local MSE (Eq. 6).
        """

    def residual_energy_table(self) -> np.ndarray:
        """Eq. 6 error energy of a lone fault at each data column.

        Entry ``c`` is ``word_error_energy(residual_error_positions(0, [c]))``
        as a read-only ``float64`` array of ``word_width`` entries.  Every
        scheme derives a row's residual error from the row's faulty-column set
        alone, so under one fault per word a die's local MSE is a gather from
        this table.  The table is built on first use and cached: a scheme's
        configuration is fixed at construction, so it never goes stale.
        """
        if self._energy_table is None:
            from repro.quality.mse import word_error_energy

            table = np.array(
                [
                    word_error_energy(self.residual_error_positions(0, [column]))
                    for column in range(self._word_width)
                ],
                dtype=np.float64,
            )
            table.setflags(write=False)
            self._energy_table = table
        return self._energy_table

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def worst_case_error_magnitude(self, fault_column: int) -> int:
        """Worst-case output error magnitude caused by one fault at ``fault_column``.

        Default implementation: the largest weight among residual positions for
        a single fault, assuming 2's-complement data (weight ``2**b``).
        """
        positions = self.residual_error_positions(0, [fault_column])
        if not positions:
            return 0
        return max(1 << b for b in positions)

    def _check_data(self, data: int) -> None:
        if data < 0 or data >> self._word_width:
            raise ValueError(
                f"data {data:#x} does not fit in {self._word_width} bits"
            )

    def _check_fault_columns(self, fault_columns: Sequence[int]) -> None:
        for column in fault_columns:
            if not 0 <= column < self._word_width:
                raise ValueError(
                    f"fault column {column} out of range [0, {self._word_width})"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(word_width={self._word_width})"
