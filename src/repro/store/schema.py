"""Schema of the persistent result store: versioning, records, payload codecs.

A store record is one immutable JSON document::

    {
        "schema_version": 1,
        "key":  "<sha256 config hash>",
        "kind": "quality" | "mse" | "dse-rung" | "progress",
        "seq":  <monotone per-store ordinal>,
        "meta": {...summary columns, queryable without decoding the payload},
        "payload": {...the full result, exact to the bit},
    }

``key`` is the sweep engine's configuration hash -- the same digest that keys
the sweep's progress records -- so a record identifies *exactly one*
reproducible computation: geometry, operating point, budget, seeds,
scenario, schemes, fixed-point format, and (for quality sweeps) the
benchmark's raw data bytes all enter the digest.  Two runs with the same key
are bit-identical by the engine's determinism contract, which is what makes
serving a stored record in place of a re-simulation sound.

Payload codecs round-trip results exactly: float values survive JSON via
``repr`` shortest-round-trip encoding, and :class:`~repro.quality.cdf.
WeightedEcdf` state is rebuilt without renormalisation, so a distribution
read back from the store is bit-identical to the one the sweep produced.

``SCHEMA_VERSION`` guards both layers: a store created by a different schema
refuses to open, and an individual record with an unknown version refuses to
decode -- loudly, never by silently reinterpreting old bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports store)
    from repro.faultmodel.yieldmodel import MseDistribution
    from repro.sim.engine import AdaptiveBudgetReport, QualityDistribution

__all__ = [
    "SCHEMA_VERSION",
    "STORE_FORMAT",
    "StoreError",
    "StoreSchemaError",
    "make_record",
    "validate_record",
    "quality_results_to_payload",
    "quality_results_from_payload",
    "mse_results_to_payload",
    "mse_results_from_payload",
    "adaptive_report_from_payload",
]

#: Version of the record and store layout described above.
SCHEMA_VERSION = 1

#: Format marker written to ``store.json`` (refuses foreign directories).
STORE_FORMAT = "repro-result-store"

#: Record kinds a store holds.  ``quality`` / ``mse`` hold one finished sweep
#: per record (decoded by the codecs below).  ``progress`` holds an
#: *unfinished* sweep's state, appended by the engine after every shard
#: (fixed budget: ``version``, ``config_hash`` and the per-die ``dies``
#: scores) or adaptive round (``mode: "adaptive"`` plus the round state) so
#: an interrupted sweep resumes without re-evaluating finished dies.  For a
#: plain sweep it shares the result's key, so the finished result supersedes
#: it and ``gc`` drops it; a progress record is never a result.
#: ``dse-rung`` holds one *partial* adaptive sweep of the budgeted optimizer
#: -- the per-scheme distributions at a rung's die cap plus the engine's
#: round-state progress payload, keyed by the cap-free (resumable)
#: configuration hash suffixed with the rung index and cap, so a killed
#: optimizer run resumes mid-rung bit-identically.
RECORD_KINDS = ("quality", "mse", "dse-rung", "progress")


class StoreError(RuntimeError):
    """Any result-store failure that is not a schema mismatch."""


class StoreSchemaError(StoreError):
    """The store (or one of its records) was written by a different schema."""


def make_record(
    key: str,
    kind: str,
    seq: int,
    payload: Mapping[str, Any],
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-stamped record document."""
    if kind not in RECORD_KINDS:
        raise StoreError(
            f"unknown record kind {kind!r}; expected one of "
            f"{', '.join(RECORD_KINDS)}"
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "key": str(key),
        "kind": kind,
        "seq": int(seq),
        "meta": dict(meta) if meta is not None else {},
        "payload": dict(payload),
    }


def validate_record(record: Mapping[str, Any], source: str) -> None:
    """Refuse records from another schema or with missing identity fields."""
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StoreSchemaError(
            f"record in {source} has schema version {version!r}; this build "
            f"reads version {SCHEMA_VERSION} -- run the matching release or "
            f"re-export the store"
        )
    for field in ("key", "kind", "seq"):
        if field not in record:
            raise StoreSchemaError(
                f"record in {source} is missing the {field!r} field"
            )


# --------------------------------------------------------------------------- #
# Payload codecs (exact round-trip)
# --------------------------------------------------------------------------- #
def _report_payload(report: Optional["AdaptiveBudgetReport"]):
    return None if report is None else report.to_dict()


def adaptive_report_from_payload(
    data: Optional[Mapping[str, Any]],
) -> Optional["AdaptiveBudgetReport"]:
    """Rebuild the adaptive-budget report stored with a record (if any)."""
    if data is None:
        return None
    from repro.sim.engine import AdaptiveBudgetReport

    return AdaptiveBudgetReport.from_dict(data)


def quality_results_to_payload(
    results: Mapping[str, "QualityDistribution"],
    report: Optional["AdaptiveBudgetReport"] = None,
) -> Dict[str, Any]:
    """Encode one quality sweep's per-scheme distributions."""
    return {
        "schemes": [
            {
                "scheme": dist.scheme_name,
                "benchmark": dist.benchmark,
                "metric_name": dist.metric_name,
                "p_cell": dist.p_cell,
                "clean_quality": dist.clean_quality,
                "samples": dist.samples,
                "ecdf": dist.ecdf.to_dict(),
            }
            for dist in results.values()
        ],
        "adaptive_report": _report_payload(report),
    }


def quality_results_from_payload(
    payload: Mapping[str, Any],
) -> Dict[str, "QualityDistribution"]:
    """Decode a quality payload back into per-scheme distributions."""
    from repro.quality.cdf import WeightedEcdf
    from repro.sim.engine import QualityDistribution

    results: Dict[str, QualityDistribution] = {}
    for entry in payload["schemes"]:
        results[entry["scheme"]] = QualityDistribution(
            benchmark=entry["benchmark"],
            metric_name=entry["metric_name"],
            scheme_name=entry["scheme"],
            p_cell=float(entry["p_cell"]),
            clean_quality=float(entry["clean_quality"]),
            ecdf=WeightedEcdf.from_dict(entry["ecdf"]),
            samples=int(entry["samples"]),
        )
    return results


def mse_results_to_payload(
    results: Mapping[str, "MseDistribution"],
    report: Optional["AdaptiveBudgetReport"] = None,
) -> Dict[str, Any]:
    """Encode one MSE sweep's per-scheme distributions."""
    return {
        "schemes": [
            {
                "scheme": dist.scheme_name,
                "p_cell": dist.p_cell,
                "zero_fault_probability": dist.zero_fault_probability,
                "max_failures": dist.max_failures,
                "samples": dist.samples,
                "ecdf": dist.ecdf.to_dict(),
            }
            for dist in results.values()
        ],
        "adaptive_report": _report_payload(report),
    }


def mse_results_from_payload(
    payload: Mapping[str, Any],
) -> Dict[str, "MseDistribution"]:
    """Decode an MSE payload back into per-scheme distributions."""
    from repro.faultmodel.yieldmodel import MseDistribution
    from repro.quality.cdf import WeightedEcdf

    results: Dict[str, MseDistribution] = {}
    for entry in payload["schemes"]:
        results[entry["scheme"]] = MseDistribution(
            scheme_name=entry["scheme"],
            p_cell=float(entry["p_cell"]),
            ecdf=WeightedEcdf.from_dict(entry["ecdf"]),
            zero_fault_probability=float(entry["zero_fault_probability"]),
            max_failures=int(entry["max_failures"]),
            samples=int(entry["samples"]),
        )
    return results
