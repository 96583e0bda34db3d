"""Pinned configuration hashes of the sweep engine.

A configuration hash is the address of every stored result and of the
progress records an interrupted sweep resumes from: if the hash of an
unchanged sweep drifts, every record written before the drift is silently
orphaned.  Each case below runs one small sweep shape against a fresh result
store, reads back the keys the engine actually used -- the result key from
:class:`SweepRunStats` (pinned as ``store``) and the key of its ``progress``
records (pinned as ``checkpoint``) -- and compares them with the literals
pinned in ``tests/golden/config_hashes.json``.  The ``config_hash`` calls the
DSE layer makes directly must land on the same keys.

The benchmark and the pre-drawn fault maps are built from literal arrays, so
the pins depend on no dataset generator or random stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.dse import (
    BenchmarkGridSpec,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    OptimizerSpec,
    ParetoOptimizer,
    SchemeGridSpec,
)
from repro.memory.faults import FaultMap
from repro.quantize.fixedpoint import FixedPointFormat
from repro.scenarios.base import ScenarioSpec
from repro.sim.engine import AdaptiveBudget, ExperimentConfig, SweepEngine
from repro.sim.experiment import BenchmarkDefinition
from repro.store import ResultStore

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "config_hashes.json"
)

_BASE = ExperimentConfig(
    rows=64,
    word_width=32,
    p_cell=1e-3,
    coverage=0.9,
    samples_per_count=2,
    n_count_points=2,
    master_seed=2015,
    scheme_specs=("no-protection", "bit-shuffle-nfm2"),
    benchmark="pinned",
)
_ADAPTIVE = AdaptiveBudget(
    target_ci=1e-6, initial_samples_per_count=2, round_dies=4,
    max_total_samples=8,
)
_AGED = ScenarioSpec("aged", (("years", 5.0),))
_TRANSIENT = ScenarioSpec(
    "transient", (("ser", 1e-3), ("disturb", 5e-4), ("scrub_interval", 2))
)


def _score(train_features, train_targets, test_features, test_targets):
    return 1.0 + float(np.mean(np.abs(train_features))) / 1e3


def _benchmark() -> BenchmarkDefinition:
    return BenchmarkDefinition(
        name="pinned",
        metric_name="score",
        train_features=np.arange(24, dtype=np.float64).reshape(6, 4) / 8.0,
        train_targets=np.arange(6, dtype=np.float64),
        test_features=np.arange(8, dtype=np.float64).reshape(2, 4) / 4.0,
        test_targets=np.array([0.5, -0.5]),
        evaluate=_score,
    )


def _fault_maps(config: ExperimentConfig):
    """One literal fault map per die: ``count`` faults in distinct rows."""
    organization = config.organization
    return {
        (count_index, sample_index): FaultMap.from_cells(
            organization,
            [
                ((7 * k + sample_index) % config.rows, (5 * k + count_index) % 32)
                for k in range(count)
            ],
        )
        for _, count_index, sample_index, count in SweepEngine(config).plan()
    }


# name -> (evaluation, config overrides, run keyword arguments)
_RUN_CASES = {
    "quality-fixed": ("quality", {}, {}),
    "quality-adaptive": ("quality", {"adaptive": _ADAPTIVE}, {}),
    "quality-adaptive-cap-resumable": (
        "quality", {"adaptive": _ADAPTIVE}, {"adaptive_cap_resumable": True}
    ),
    "quality-fixed-point-override": (
        "quality", {}, {"fixed_point": FixedPointFormat(total_bits=32, frac_bits=12)}
    ),
    "quality-aged-scenario": ("quality", {"scenario": _AGED}, {}),
    "quality-transient-trace32": (
        "quality", {"scenario": _TRANSIENT, "access_trace": 32}, {}
    ),
    "quality-secded-coverage": (
        "quality",
        {"scheme_specs": ("secded", "p-ecc"), "coverage": 0.99, "n_count_points": None},
        {},
    ),
    "quality-fault-maps": ("quality", {"master_seed": None}, {"fault_maps": True}),
    "mse-fixed": ("mse", {}, {}),
    "mse-fixed-conditional": ("mse", {}, {"include_fault_free": False}),
    "mse-adaptive": ("mse", {"adaptive": _ADAPTIVE}, {}),
    "mse-adaptive-conditional": (
        "mse", {"adaptive": _ADAPTIVE}, {"include_fault_free": False}
    ),
    "mse-adaptive-cap-resumable": (
        "mse", {"adaptive": _ADAPTIVE}, {"adaptive_cap_resumable": True}
    ),
    "mse-aged-scenario": ("mse", {"scenario": _AGED}, {}),
    "mse-discard-off": ("mse", {"discard_multi_fault_words": False}, {}),
    "mse-fault-maps": ("mse", {"master_seed": None}, {"fault_maps": True}),
}


def _run_keys(name: str, tmp_path) -> dict:
    evaluation, overrides, kwargs = _RUN_CASES[name]
    config = replace(_BASE, **overrides)
    kwargs = dict(kwargs)
    if kwargs.get("fault_maps"):
        kwargs["fault_maps"] = _fault_maps(config)
    engine = SweepEngine(config)
    with ResultStore(str(tmp_path / "store")) as store:
        if evaluation == "quality":
            engine.run(_benchmark(), store=store, **kwargs)
        else:
            engine.run_mse(store=store, **kwargs)
        (progress_key,) = {
            record["key"]
            for record in store.iter_all_records()
            if record["kind"] == "progress"
        }
        result_keys = [summary["key"] for summary in store.query(kind=evaluation)]
    stats = engine.last_run_stats
    assert stats.store_hit is False
    if kwargs.get("adaptive_cap_resumable"):
        # A cap-resumable probe's result depends on its resume history, so
        # it keeps only its progress record and never records a result.
        assert result_keys == []
        assert stats.store_key == progress_key
        return {"checkpoint": progress_key}
    assert result_keys == [stats.store_key]
    return {"store": stats.store_key, "checkpoint": progress_key}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert set(golden) == set(_RUN_CASES) | {"no-benchmark", "dse-rung"}


@pytest.mark.parametrize("name", sorted(_RUN_CASES))
def test_run_keys_match_pins(name, golden, tmp_path):
    assert _run_keys(name, tmp_path) == golden[name]


# The smallest optimizer run that records a rung: one benchmark, one
# operating point, one scheme, one rung.
_RUNG_SPEC = ExperimentSpec(
    geometry=GeometrySpec(rows=64),
    operating_grid=OperatingGridSpec(vdd_values=(0.6,)),
    scheme_grid=SchemeGridSpec(specs=("no-protection",)),
    budget=McBudgetSpec(samples_per_count=2, n_count_points=2, coverage=0.9),
    benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.1, seed=17),
    optimizer=OptimizerSpec(rungs=1, round_dies=2, initial_samples_per_count=2),
)


def test_dse_rung_keys_match_pins(golden, tmp_path):
    with ResultStore(str(tmp_path / "store")) as store:
        ParetoOptimizer(
            _RUNG_SPEC, store=store, checkpoint_dir=str(tmp_path / "progress")
        ).run()
        keys = sorted(summary["key"] for summary in store.query(kind="dse-rung"))
    assert keys == golden["dse-rung"]


def test_direct_hashes_match_run_keys(golden):
    """The DSE layer addresses store records and resumable progress by
    calling ``config_hash`` itself; those calls must land on the run's keys."""
    benchmark = _benchmark()
    assert SweepEngine(_BASE).config_hash() == golden["no-benchmark"]
    assert SweepEngine(_BASE).config_hash(benchmark) == golden["quality-fixed"]["store"]
    adaptive = SweepEngine(replace(_BASE, adaptive=_ADAPTIVE))
    assert (
        adaptive.config_hash(benchmark, adaptive_cap_resumable=True)
        == golden["quality-adaptive-cap-resumable"]["checkpoint"]
    )


def test_pins_never_alias(golden):
    """Different sweeps never share a key.  A plain run keys its progress and
    its result record identically; an ``adaptive_cap_resumable`` probe keeps
    only progress, under the cap-free hash, which no other sweep shares."""
    keys = [golden["no-benchmark"]]
    for name, (_, _, kwargs) in _RUN_CASES.items():
        entry = golden[name]
        if kwargs.get("adaptive_cap_resumable"):
            assert set(entry) == {"checkpoint"}, name
        else:
            assert entry["checkpoint"] == entry["store"], name
        keys.append(entry["checkpoint"])
    assert len(set(keys)) == len(keys)
