"""Tests for the budgeted Pareto optimizer (``repro.dse.optimize``).

Covers the determinism contract (bit-identical frontier, rows, and prune
log across worker counts and executor tiers), exact frontier recovery
against the exhaustive sweep at zero slack, multi-rung successive-halving
progression, warm store replay, kill-and-resume mid-run from the store,
serialisation round-trips (OptimizerSpec, OptimizeResult, DseResult
adaptive reports), and the memoized failure-count PMF the rung probes
lean on.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.dse import (
    BenchmarkGridSpec,
    DesignSpaceExplorer,
    DseResult,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    OptimizeResult,
    OptimizerSpec,
    ParetoOptimizer,
    PruneEvent,
    SchemeGridSpec,
)
from repro.faultmodel.montecarlo import (
    failure_count_pmf,
    failure_count_pmf_array,
)
from repro.store.store import ResultStore


def _smoke_spec(**overrides):
    """A fast three-cell grid whose quality actually varies across dies."""
    fields = dict(
        geometry=GeometrySpec(rows=128),
        operating_grid=OperatingGridSpec(vdd_values=(0.55, 0.60, 0.65)),
        scheme_grid=SchemeGridSpec(
            specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
        ),
        budget=McBudgetSpec(
            samples_per_count=8,
            n_count_points=3,
            coverage=0.9,
            master_seed=7,
            discard_multi_fault_words=False,
        ),
        benchmarks=BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
        quality_yield_target=0.9,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


_FAST_OPT = OptimizerSpec(
    rungs=3, eta=2.0, target_ci=0.02, round_dies=2, initial_samples_per_count=2
)

# A quality threshold inside the per-die spread of the 0.65 V cell: the
# adaptive probe cannot reach its CI target at the rung-0 cap, so the cell
# climbs the full rung ladder (see test_multirung_progression).
_MULTIRUNG_OPT = dataclasses.replace(_FAST_OPT, threshold=0.999)


def _result_fingerprint(result):
    """The scientific outputs that must be bit-identical across reruns.

    Cell statuses are excluded: their ``evaluated_dies``/``store_hits``
    bookkeeping legitimately differs between a cold run and a store replay
    of the same experiment.
    """
    return (
        result.rows,
        [event.to_dict() for event in result.prune_log],
        result.frontier_keys(),
        result.total_dies,
    )


def _reference_spec():
    """The examples/design_space.py grid (optimizer acceptance reference)."""
    return ExperimentSpec(
        geometry=GeometrySpec(rows=1024, word_width=32),
        operating_grid=OperatingGridSpec(vdd_values=(0.64, 0.70, 0.78)),
        scheme_grid=SchemeGridSpec(
            specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
        ),
        budget=McBudgetSpec(
            samples_per_count=4,
            n_count_points=8,
            coverage=0.95,
            master_seed=2015,
            discard_multi_fault_words=False,
        ),
        benchmarks=BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
        quality_yield_target=0.9,
    )


def test_frontier_matches_exhaustive_exact_at_zero_slack():
    spec = _reference_spec()
    exhaustive = DesignSpaceExplorer(spec, workers=2).run()
    result = ParetoOptimizer(spec, workers=2).run()
    exact_keys = sorted(
        (row["benchmark"], row["scheme"], row["vdd"])
        for row in exhaustive.pareto()
    )
    # At matched budget and zero slack, the optimizer recovers the exact
    # exhaustive frontier -- same members, nothing pruned that belongs.
    assert result.frontier_keys() == exact_keys
    # And it spends strictly fewer dies than the exhaustive grid.
    assert result.total_dies < result.exhaustive_dies
    assert result.savings_ratio() > 1.0


def test_bit_identical_across_worker_counts_and_executors():
    spec = _smoke_spec()
    reference = ParetoOptimizer(spec, optimizer=_FAST_OPT, workers=1).run()
    for workers in (2, 4):
        parallel = ParetoOptimizer(
            spec, optimizer=_FAST_OPT, workers=workers
        ).run()
        assert _result_fingerprint(parallel) == _result_fingerprint(reference)
        assert parallel.cell_statuses == reference.cell_statuses
    inline = ParetoOptimizer(
        spec, optimizer=_FAST_OPT, workers=2, executor="inline"
    ).run()
    assert _result_fingerprint(inline) == _result_fingerprint(reference)
    assert inline.cell_statuses == reference.cell_statuses


def test_multirung_progression():
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    result = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT).run()
    by_vdd = {status["vdd"]: status for status in result.cell_statuses}
    # The 0.65 V cell never reaches the CI target: it must climb every rung
    # and exhaust with the full geometric die schedule spent.
    assert by_vdd[0.65]["status"] == "exhausted"
    assert by_vdd[0.65]["last_rung"] == _MULTIRUNG_OPT.rungs - 1
    assert by_vdd[0.65]["dies"] > by_vdd[0.60]["dies"]
    # Multi-rung runs obey the same determinism contract as single-rung ones.
    again = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT, workers=2).run()
    assert _result_fingerprint(again) == _result_fingerprint(result)


def test_warm_store_replay_is_free_and_bit_identical(tmp_path):
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    store = ResultStore(str(tmp_path / "store"))
    try:
        cold = ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, store=store
        ).run()
        assert cold.evaluated_dies > 0
        assert cold.store_hits == 0
        rungs = store.query(kind="dse-rung")
        assert rungs, "cold run recorded no dse-rung records"
        warm = ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, store=store
        ).run()
    finally:
        store.close()
    # Every rung replays from the store: no dies are re-evaluated, and the
    # result is bit-identical to the cold run.
    assert warm.evaluated_dies == 0
    assert warm.store_hits == len(rungs)
    assert _result_fingerprint(warm) == _result_fingerprint(cold)
    # Rung records carry the audit meta CI greps for.
    for record in rungs:
        assert record["meta"]["evaluation"] == "dse-rung"
        assert "evaluated_dies" in record["meta"]


class _CrashingStore:
    """Store proxy that dies after ``budget`` writes (simulated crash)."""

    def __init__(self, store, budget):
        self._store = store
        self.writes_left = budget

    def put_record(self, key, kind, payload, meta=None):
        if self.writes_left <= 0:
            raise RuntimeError("simulated crash mid-run")
        self.writes_left -= 1
        return self._store.put_record(key, kind, payload, meta)

    def __getattr__(self, name):
        return getattr(self._store, name)


def test_kill_and_resume_from_store(tmp_path):
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    reference = ParetoOptimizer(spec, optimizer=_MULTIRUNG_OPT).run()
    total_rungs = sum(
        status["last_rung"] + 1 for status in reference.cell_statuses
    )
    assert total_rungs >= 3, "spec no longer exercises a multi-rung resume"

    for crash_after in (1, total_rungs - 1):
        store = ResultStore(str(tmp_path / f"store-{crash_after}"))
        try:
            crashing = _CrashingStore(store, crash_after)
            with pytest.raises(RuntimeError, match="simulated crash"):
                ParetoOptimizer(
                    spec, optimizer=_MULTIRUNG_OPT, store=crashing
                ).run()
            # Relaunch against the surviving store (fresh progress store):
            # completed rungs replay, the rest recompute, and the outcome is
            # bit-identical to the uninterrupted reference run.
            resumed = ParetoOptimizer(
                spec, optimizer=_MULTIRUNG_OPT, store=store
            ).run()
        finally:
            store.close()
        assert resumed.store_hits == crash_after
        assert resumed.evaluated_dies < reference.evaluated_dies
        assert _result_fingerprint(resumed) == _result_fingerprint(reference)


def test_progress_lives_in_its_own_store_and_a_warm_pass_writes_nothing(
    tmp_path,
):
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.60, 0.65)))
    cold_progress = tmp_path / "progress-cold"
    warm_progress = tmp_path / "progress-warm"
    with ResultStore(str(tmp_path / "store")) as store:
        cold = ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, store=store,
            checkpoint_dir=str(cold_progress),
        ).run()
        # The user's store holds exactly the rung records; round state went
        # to the progress store, one live record per cell.
        assert {s["kind"] for s in store.query()} == {"dse-rung"}
        warm = ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, store=store,
            checkpoint_dir=str(warm_progress),
        ).run()
    with ResultStore(str(cold_progress), create=False) as progress:
        summaries = progress.query()
    assert {s["kind"] for s in summaries} == {"progress"}
    assert len(summaries) == len(cold.cell_statuses)
    assert warm.evaluated_dies == 0
    assert not warm_progress.exists()
    assert _result_fingerprint(warm) == _result_fingerprint(cold)


def test_kept_progress_past_the_rung0_cap_is_rejected(tmp_path):
    # Re-running on a kept progress store without the rung records would
    # resume rung 0 from a later rung's state; that must fail loudly rather
    # than silently report the later state as the rung-0 result.
    spec = _smoke_spec(operating_grid=OperatingGridSpec(vdd_values=(0.65,)))
    progress = str(tmp_path / "progress")
    first = ParetoOptimizer(
        spec, optimizer=_MULTIRUNG_OPT, checkpoint_dir=progress
    ).run()
    assert first.cell_statuses[0]["last_rung"] >= 1
    with pytest.raises(ValueError, match="die cap"):
        ParetoOptimizer(
            spec, optimizer=_MULTIRUNG_OPT, checkpoint_dir=progress
        ).run()


def test_optimizer_spec_json_round_trip():
    opt = OptimizerSpec(
        rungs=4,
        eta=3.0,
        rung0_dies=8,
        frontier_slack=0.01,
        target_ci=0.01,
        threshold=0.995,
        round_dies=4,
    )
    spec = _smoke_spec(optimizer=opt)
    rebuilt = ExperimentSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    )
    assert rebuilt == spec
    assert rebuilt.optimizer == opt
    # A spec without the optimizer section round-trips to None.
    bare = _smoke_spec()
    assert "optimizer" not in bare.to_dict()
    assert ExperimentSpec.from_dict(bare.to_dict()).optimizer is None


def test_optimizer_spec_validation():
    with pytest.raises(ValueError, match="rungs"):
        OptimizerSpec(rungs=0)
    with pytest.raises(ValueError, match="eta"):
        OptimizerSpec(eta=1.0)
    with pytest.raises(ValueError, match="rung0_dies"):
        OptimizerSpec(rung0_dies=1)
    with pytest.raises(ValueError, match="frontier_slack"):
        OptimizerSpec(frontier_slack=-0.1)
    # Adaptive knobs are validated by the engine's own budget constructor.
    with pytest.raises(ValueError):
        OptimizerSpec(target_ci=0.0)
    # The optimizer layer requires a fixed exhaustive-equivalent budget.
    with pytest.raises(ValueError, match="fixed"):
        _smoke_spec(
            budget=McBudgetSpec(
                mode="adaptive",
                samples_per_count=8,
                n_count_points=3,
                coverage=0.9,
                master_seed=7,
            ),
            optimizer=OptimizerSpec(),
        )


def test_optimize_result_save_load_round_trip(tmp_path):
    spec = _smoke_spec()
    result = ParetoOptimizer(spec, optimizer=_FAST_OPT).run()
    path = str(tmp_path / "optimize.json")
    result.save(path)
    loaded = OptimizeResult.load(path)
    assert loaded.spec == spec
    assert _result_fingerprint(loaded) == _result_fingerprint(result)
    assert loaded.cell_statuses == result.cell_statuses
    assert loaded.surrogate_order == result.surrogate_order
    assert loaded.evaluated_dies == result.evaluated_dies
    assert loaded.exhaustive_dies == result.exhaustive_dies
    assert loaded.store_hits == result.store_hits
    # Adaptive probe reports survive the round trip, values and all.
    assert set(loaded.adaptive_reports) == set(result.adaptive_reports)
    for key, report in result.adaptive_reports.items():
        assert loaded.adaptive_reports[key] == report
    # The surviving rows feed existing DseResult consumers unchanged.
    as_dse = loaded.as_dse_result()
    assert sorted(
        (row["benchmark"], row["scheme"], row["vdd"]) for row in as_dse.rows
    ) == loaded.frontier_keys()


def test_optimize_result_rejects_unknown_version(tmp_path):
    spec = _smoke_spec()
    result = ParetoOptimizer(spec, optimizer=_FAST_OPT).run()
    path = str(tmp_path / "optimize.json")
    result.save(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["version"] = 99
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    with pytest.raises(ValueError, match="version"):
        OptimizeResult.load(path)


def test_prune_event_round_trip():
    event = PruneEvent(
        rung=1,
        benchmark="elasticnet",
        scheme="p-ecc-H(22,16)",
        vdd=0.7,
        p_cell=1e-4,
        energy=12.5,
        quality_hi=0.91,
        by_scheme="bit-shuffle-nfm2",
        by_vdd=0.7,
        by_quality_lo=0.97,
        slack=0.01,
    )
    assert PruneEvent.from_dict(event.to_dict()) == event


def test_dse_result_adaptive_reports_round_trip(tmp_path):
    spec = _smoke_spec()
    result = ParetoOptimizer(spec, optimizer=_FAST_OPT).run().as_dse_result()
    assert result.adaptive_reports
    path = str(tmp_path / "dse.json")
    result.save(path)
    loaded = DseResult.load(path)
    assert loaded.rows == result.rows
    assert set(loaded.adaptive_reports) == set(result.adaptive_reports)
    for key, report in result.adaptive_reports.items():
        assert loaded.adaptive_reports[key] == report
    # Version-1 files (pre-adaptive-reports) still load, reports empty.
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["version"] = 1
    del data["adaptive_reports"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    legacy = DseResult.load(path)
    assert legacy.rows == result.rows
    assert legacy.adaptive_reports == {}


def test_failure_count_pmf_array_matches_scalar_and_is_safe():
    total_cells, p_cell = 4096, 3.7e-4
    vector = failure_count_pmf_array(total_cells, p_cell, 12)
    expected = np.array(
        [failure_count_pmf(total_cells, p_cell, n) for n in range(13)]
    )
    assert vector.shape == (13,)
    np.testing.assert_array_equal(vector, expected)
    # Memoized re-reads are bit-identical, and mutating a returned array
    # cannot corrupt the cache (callers get a fresh array each time).
    vector[:] = -1.0
    again = failure_count_pmf_array(total_cells, p_cell, 12)
    np.testing.assert_array_equal(again, expected)
    # Extending a cached table keeps the shared prefix bit-identical and
    # zero-fills impossible counts past total_cells.
    longer = failure_count_pmf_array(8, 0.5, 12)
    scalar = np.array([failure_count_pmf(8, 0.5, n) for n in range(13)])
    np.testing.assert_array_equal(longer, scalar)
    assert np.all(longer[9:] == 0.0)
