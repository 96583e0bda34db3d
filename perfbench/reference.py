"""Stored reference outputs and the comparison every job's output goes through.

Quality scores are compared at the tolerance of the repository's Fig. 7
golden, ``rtol=1e-10, atol=1e-10``: the Fig. 7 ECDF values and cumulative
weights, the clean quality they are normalised by, and the quality columns of
the optimizer's frontier rows and prune events.  They come out of BLAS calls
whose last bits may differ between CPUs.  Everything else -- MSE samples and
weights, die counts, which rows the optimizer prunes and keeps, energies,
yields -- must match exactly.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional

RTOL = 1e-10
ATOL = 1e-10
#: Keys whose float leaves are quality scores, compared under the tolerance.
TOLERANT_KEYS = frozenset(
    {
        "quality_values",
        "quality_cdf",
        "clean_quality",
        "median_quality",
        "quality_at_yield",
        "quality_lo",
        "quality_hi",
        "by_quality_lo",
    }
)
MAX_REPORTED = 5

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


def path_for(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load(workload: str) -> Dict[str, Dict[str, object]]:
    """``{input slot: {job name: output}}`` of ``workload``."""
    with open(path_for(workload), "r", encoding="utf-8") as handle:
        return json.load(handle)["slots"]


def save(workload: str, slots: Dict[str, Dict[str, object]]) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path_for(workload), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "slots": slots}, handle, sort_keys=True)
        handle.write("\n")


def normalise(output: object) -> object:
    """The output as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(output))


def _floats_match(expected: float, actual: float, tolerant: bool) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    if tolerant:
        return abs(actual - expected) <= ATOL + RTOL * abs(expected)
    return actual == expected


def compare(
    expected: object,
    actual: object,
    path: str = "",
    tolerant: bool = False,
    found: Optional[List[str]] = None,
) -> List[str]:
    """Mismatches between two normalised outputs (empty when they agree)."""
    found = [] if found is None else found
    if len(found) >= MAX_REPORTED:
        return found
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            found.append(f"{path}: keys {sorted(expected)} != {sorted(actual)}")
            return found
        for key in sorted(expected):
            compare(
                expected[key],
                actual[key],
                f"{path}/{key}",
                tolerant or key in TOLERANT_KEYS,
                found,
            )
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            found.append(f"{path}: length {len(expected)} != {len(actual)}")
            return found
        for index, (left, right) in enumerate(zip(expected, actual)):
            compare(left, right, f"{path}[{index}]", tolerant, found)
    elif (
        isinstance(expected, float)
        and isinstance(actual, (int, float))
        and not isinstance(actual, bool)
    ):
        if not _floats_match(expected, float(actual), tolerant):
            found.append(f"{path}: expected {expected!r}, got {actual!r}")
    elif type(expected) is not type(actual) or expected != actual:
        found.append(f"{path}: expected {expected!r}, got {actual!r}")
    return found
