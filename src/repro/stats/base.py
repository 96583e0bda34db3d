"""The mergeable streaming-summary protocol.

A :class:`StreamingSummary` absorbs observations in batches, merges with
other summaries of the same shape, and finalises into whatever statistic it
models.  The algebra every implementation must satisfy (and that
``tests/test_stats.py`` property-checks):

* ``update_batch`` over any partition of the observations is equivalent to
  one-shot construction (up to floating-point rounding);
* ``merge`` is associative and commutative up to floating-point rounding,
  and exact for the integer state (counts, bin tallies);
* ``merge`` with an empty summary is the identity;
* ``to_dict`` / ``from_dict`` round-trip the state exactly (JSON-safe), so
  summaries can live in progress records.

Bit-level reproducibility across worker counts is achieved by *canonical
fold order*, not by pretending float addition associates: the sweep engine
always folds shard summaries in shard-index order.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

__all__ = ["StreamingSummary", "as_float_array"]


def as_float_array(values: Any) -> np.ndarray:
    """Flatten ``values`` to a 1-D float64 array (the common ingest step)."""
    return np.asarray(values, dtype=np.float64).ravel()


@runtime_checkable
class StreamingSummary(Protocol):
    """Protocol shared by every mergeable summary in :mod:`repro.stats`."""

    def update_batch(self, values: Any) -> None:
        """Absorb a batch of observations."""

    def merge(self, other: "StreamingSummary") -> None:
        """Fold ``other``'s state into this summary (in place)."""

    def finalize(self) -> Any:
        """The summarised statistic(s); does not mutate the summary."""

    def to_dict(self) -> Mapping[str, Any]:
        """JSON-serialisable state (for progress records)."""
