"""Tests for the adaptive confidence-driven Monte-Carlo budget.

Covers the controller's contract end to end: bit-identical results for any
worker count, early stopping with fewer dies than the fixed budget, hard die
caps, adaptive-state progress records keyed by the adaptive parameters,
O(bins) shard payloads, the spec/CLI surface, and the shared-memory context
fan-out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.evaluate import evaluate_mse_point, evaluate_quality_point
from repro.dse.spec import (
    BenchmarkGridSpec,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
)
from repro.sim import engine as engine_module
from repro.sim.engine import (
    AdaptiveBudget,
    ExperimentConfig,
    SweepEngine,
)
from repro.sim.experiment import knn_benchmark
from repro.sim.sharedmem import SharedNdarray
from repro.store import ResultStore

from test_engine import _Killed, _kill_after_progress, _progress_payloads

SCHEMES = ("no-protection", "bit-shuffle-nfm2")


def _config(adaptive=None, **overrides) -> ExperimentConfig:
    kwargs = dict(
        rows=128,
        word_width=32,
        p_cell=4e-3,
        coverage=0.9,
        samples_per_count=40,
        n_count_points=3,
        master_seed=2026,
        scheme_specs=SCHEMES,
        adaptive=adaptive,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _curves(results):
    snapshot = {}
    for name in sorted(results):
        x, y = results[name].cdf_series()
        snapshot[name] = (results[name].samples, x.tolist(), y.tolist())
    return snapshot


@pytest.fixture(scope="module")
def smoke_benchmark():
    return knn_benchmark(n_samples=120, seed=3)


class TestAdaptiveBudgetValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveBudget(target_ci=0.0)
        with pytest.raises(ValueError):
            AdaptiveBudget(confidence=1.0)
        with pytest.raises(ValueError):
            AdaptiveBudget(initial_samples_per_count=1)
        with pytest.raises(ValueError):
            AdaptiveBudget(round_dies=0)
        with pytest.raises(ValueError):
            AdaptiveBudget(max_total_samples=0)
        with pytest.raises(ValueError):
            AdaptiveBudget(sketch_bins=4)

    def test_config_rejects_non_budget(self):
        with pytest.raises(ValueError, match="AdaptiveBudget"):
            _config(adaptive="adaptive")

    def test_threshold_defaults_per_evaluation(self):
        budget = AdaptiveBudget()
        assert budget.resolved_threshold("quality") == pytest.approx(0.9)
        assert budget.resolved_threshold("mse") == pytest.approx(1e2)
        assert AdaptiveBudget(threshold=0.75).resolved_threshold(
            "quality"
        ) == pytest.approx(0.75)

    def test_default_cap_is_the_equivalent_fixed_budget(self):
        config = _config(adaptive=AdaptiveBudget())
        counts = config.evaluated_counts()
        assert config.max_adaptive_samples() == len(counts) * 40
        capped = _config(adaptive=AdaptiveBudget(max_total_samples=17))
        assert capped.max_adaptive_samples() == 17

    def test_fixed_mode_arguments_rejected(self, smoke_benchmark):
        config = _config(adaptive=AdaptiveBudget())
        engine = SweepEngine(config)
        with pytest.raises(ValueError, match="fault_maps"):
            engine.run(smoke_benchmark, fault_maps={})
        with pytest.raises(ValueError, match="shard"):
            engine.run_mse(shard_size=4)
        with pytest.raises(ValueError, match="shard"):
            engine.run_mse(shard_order=[0])

    def test_master_seed_required(self):
        config = _config(adaptive=AdaptiveBudget(), master_seed=None)
        with pytest.raises(ValueError, match="master_seed"):
            SweepEngine(config).run_mse()

    def test_cap_must_seed_every_stratum(self):
        config = _config(adaptive=AdaptiveBudget(max_total_samples=3))
        with pytest.raises(ValueError, match="cannot seed"):
            SweepEngine(config).run_mse()

    def test_legacy_sampling_rejected(self):
        config = _config(adaptive=AdaptiveBudget())
        with pytest.raises(ValueError, match="adaptive"):
            evaluate_mse_point(
                config, sampling="legacy", rng=np.random.default_rng(0)
            )


class TestAdaptiveDeterminism:
    @pytest.fixture(scope="class")
    def adaptive_config(self):
        return _config(adaptive=AdaptiveBudget(target_ci=0.04, round_dies=24))

    @pytest.fixture(scope="class")
    def reference(self, adaptive_config):
        engine = SweepEngine(adaptive_config)
        return engine.run_mse(), engine.last_adaptive_report

    @pytest.mark.parametrize("workers", [2, 4])
    def test_mse_bit_identical_for_any_worker_count(
        self, adaptive_config, reference, workers
    ):
        engine = SweepEngine(adaptive_config)
        results = engine.run_mse(workers=workers)
        assert _curves(results) == _curves(reference[0])
        assert engine.last_adaptive_report == reference[1]

    def test_quality_bit_identical_for_worker_counts(self, smoke_benchmark):
        config = _config(
            adaptive=AdaptiveBudget(target_ci=0.05), samples_per_count=20
        )
        serial_engine = SweepEngine(config)
        serial = serial_engine.run(smoke_benchmark, workers=1)
        parallel_engine = SweepEngine(config)
        parallel = parallel_engine.run(smoke_benchmark, workers=2)
        assert _curves(serial) == _curves(parallel)
        assert (
            serial_engine.last_adaptive_report
            == parallel_engine.last_adaptive_report
        )

    def test_report_is_fully_populated(self, adaptive_config, reference):
        report = reference[1]
        assert report.evaluation == "mse"
        assert report.threshold == pytest.approx(1e2)
        assert report.rounds >= 1
        assert report.total_dies == sum(report.samples_per_count.values())
        assert set(report.half_widths) == set(SCHEMES)
        assert set(report.estimates) == set(SCHEMES)
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in report.estimates.values())
        counts = _config().evaluated_counts()
        assert sorted(report.samples_per_count) == counts
        assert sorted(report.stratum_weights) == counts
        assert report.max_shard_payload_scalars > 0


class TestAdaptiveStopping:
    def test_stops_before_the_fixed_budget_when_variance_allows(self):
        config = _config(adaptive=AdaptiveBudget(target_ci=0.04))
        engine = SweepEngine(config)
        results = engine.run_mse()
        report = engine.last_adaptive_report
        fixed_budget = config.max_adaptive_samples()
        assert report.reached
        assert report.achieved_half_width <= 0.04
        assert report.total_dies < fixed_budget
        for dist in results.values():
            assert dist.samples == report.total_dies

    def test_unreachable_target_runs_to_the_cap(self):
        config = _config(
            samples_per_count=4,
            adaptive=AdaptiveBudget(target_ci=1e-9, round_dies=8),
        )
        engine = SweepEngine(config)
        engine.run_mse()
        report = engine.last_adaptive_report
        assert not report.reached
        assert report.total_dies == config.max_adaptive_samples()

    def test_neyman_rounds_skip_settled_strata(self):
        # With a generous-but-unmet target after round one, later rounds must
        # go where the variance is; strata whose indicator never moved keep
        # their initial allocation.
        config = _config(
            adaptive=AdaptiveBudget(
                target_ci=0.02, initial_samples_per_count=6, round_dies=30
            )
        )
        engine = SweepEngine(config)
        engine.run_mse()
        report = engine.last_adaptive_report
        if report.rounds > 1:
            spent = report.samples_per_count
            stds = {
                count: max(
                    report.stratum_stds[name][count]
                    for name in report.stratum_stds
                )
                for count in spent
            }
            settled = [c for c, s in stds.items() if s == 0.0]
            active = [c for c, s in stds.items() if s > 0.0]
            if settled and active:
                assert max(spent[c] for c in settled) <= min(
                    spent[c] for c in active
                )

    def test_estimate_consistent_with_fixed_sweep(self):
        # The adaptive yield estimate must land near the exhaustive fixed
        # estimate of the same population (they share the weighting math).
        fixed = SweepEngine(_config(samples_per_count=60)).run_mse()
        config = _config(adaptive=AdaptiveBudget(target_ci=0.03))
        engine = SweepEngine(config)
        engine.run_mse()
        report = engine.last_adaptive_report
        for name, dist in fixed.items():
            fixed_yield = dist.yield_at_mse(report.threshold)
            # The ecdf renormalises over the covered mass; the tracker
            # estimate is absolute.  Compare with a tolerance spanning both
            # CIs plus the coverage gap.
            assert report.estimates[name] == pytest.approx(
                fixed_yield, abs=0.12
            )

    def test_payload_is_o_bins_not_o_dies(self):
        small = _config(
            samples_per_count=4,
            adaptive=AdaptiveBudget(target_ci=1e-9, round_dies=16),
        )
        big = _config(
            samples_per_count=24,
            adaptive=AdaptiveBudget(target_ci=1e-9, round_dies=96),
        )
        engine_small, engine_big = SweepEngine(small), SweepEngine(big)
        engine_small.run_mse()
        engine_big.run_mse()
        small_payload = engine_small.last_adaptive_report
        big_payload = engine_big.last_adaptive_report
        assert big_payload.total_dies >= 6 * small_payload.total_dies
        # A shard's payload is bounded by schemes x strata x O(bins), never
        # by the dies it evaluated.
        bins = AdaptiveBudget().sketch_bins
        n_counts = len(small.evaluated_counts())
        bound = len(SCHEMES) * n_counts * (2 * (bins + 1) + 16)
        assert small_payload.max_shard_payload_scalars <= bound
        assert big_payload.max_shard_payload_scalars <= bound


class TestAdaptiveCheckpoint:
    def test_hash_differs_from_fixed_and_between_targets(self, smoke_benchmark):
        fixed = SweepEngine(_config()).config_hash(smoke_benchmark)
        tight = SweepEngine(
            _config(adaptive=AdaptiveBudget(target_ci=0.01))
        ).config_hash(smoke_benchmark)
        loose = SweepEngine(
            _config(adaptive=AdaptiveBudget(target_ci=0.05))
        ).config_hash(smoke_benchmark)
        assert len({fixed, tight, loose}) == 3

    def test_round_trip_replays_without_evaluation(self, tmp_path, monkeypatch):
        config = _config(adaptive=AdaptiveBudget(target_ci=0.04))
        engine = SweepEngine(config)
        with ResultStore(str(tmp_path / "store")) as store:
            first = engine.run_mse(store=store)
            first_report = engine.last_adaptive_report

            data = _progress_payloads(store)[-1]
            assert data["mode"] == "adaptive"
            assert data["rounds"] == first_report.rounds

            def _must_not_run(entries, context):
                raise AssertionError("complete adaptive sweep must not re-run")

            monkeypatch.setattr(engine_module, "_summarize_shard", _must_not_run)
            replay_engine = SweepEngine(config)
            replay = replay_engine.run_mse(store=store)
        assert _curves(replay) == _curves(first)
        assert replay_engine.last_adaptive_report == first_report

    def test_interrupted_round_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        config = _config(
            adaptive=AdaptiveBudget(target_ci=0.02, round_dies=24)
        )
        engine = SweepEngine(config)
        uninterrupted = engine.run_mse()
        reference_report = engine.last_adaptive_report
        assert reference_report.rounds >= 2  # the kill must land mid-sweep

        real_summarize = engine_module._summarize_shard
        seen = {"shards": 0}

        def _dies_mid_second_round(entries, context):
            if seen["shards"] >= 4:
                raise RuntimeError("simulated kill mid-round")
            seen["shards"] += 1
            return real_summarize(entries, context)

        monkeypatch.setattr(
            engine_module, "_summarize_shard", _dies_mid_second_round
        )
        with ResultStore(str(tmp_path / "store")) as store:
            with pytest.raises(RuntimeError, match="simulated kill"):
                SweepEngine(config).run_mse(store=store)
            monkeypatch.setattr(engine_module, "_summarize_shard", real_summarize)

            partial = _progress_payloads(store)[-1]
            assert 0 < partial["rounds"] < reference_report.rounds

            resumed_engine = SweepEngine(config)
            resumed = resumed_engine.run_mse(store=store)
        assert _curves(resumed) == _curves(uninterrupted)
        assert resumed_engine.last_adaptive_report == reference_report

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_after_every_round_resumes_bit_identically(
        self, tmp_path, monkeypatch, workers
    ):
        config = _config(
            adaptive=AdaptiveBudget(target_ci=0.02, round_dies=24)
        )
        engine = SweepEngine(config)
        uninterrupted = engine.run_mse()
        reference_report = engine.last_adaptive_report
        assert reference_report.rounds >= 2
        for k in range(1, reference_report.rounds + 1):
            root = str(tmp_path / f"store-{k}")
            with monkeypatch.context() as patch, ResultStore(root) as store:
                _kill_after_progress(store, patch, k)
                with pytest.raises(_Killed):
                    SweepEngine(config).run_mse(store=store, workers=workers)
            with ResultStore(root) as store:
                resumed_engine = SweepEngine(config)
                resumed = resumed_engine.run_mse(store=store, workers=workers)
            assert _curves(resumed) == _curves(uninterrupted), k
            assert resumed_engine.last_adaptive_report == reference_report, k
            evaluated = resumed_engine.last_run_stats.evaluated_dies
            assert evaluated < reference_report.total_dies, k
            if k == reference_report.rounds:
                assert evaluated == 0

    def test_fixed_checkpoint_file_is_rejected(self, tmp_path):
        config = _config(adaptive=AdaptiveBudget(target_ci=0.04))
        engine = SweepEngine(config)
        config_hash = engine.config_hash(
            None, None, extra={"evaluation": "mse", "include_fault_free": True}
        )
        with ResultStore(str(tmp_path / "store")) as store:
            store.put_record(
                config_hash,
                "progress",
                {"version": 1, "config_hash": config_hash, "dies": {}},
            )
            with pytest.raises(ValueError, match="fixed"):
                engine.run_mse(store=store)


class TestCapResumableProbes:
    """``adaptive_cap_resumable`` runs: the successive-halving probes of the
    budgeted optimizer, which continue one round state across die caps."""

    @staticmethod
    def _probe(cap):
        return _config(
            adaptive=AdaptiveBudget(
                target_ci=1e-6,
                threshold=1e9,  # a split yield, so no round stops early
                initial_samples_per_count=2,
                round_dies=16,
                max_total_samples=cap,
            )
        )

    def test_requires_a_store(self):
        with pytest.raises(ValueError, match="requires a store"):
            SweepEngine(self._probe(12)).run_mse(adaptive_cap_resumable=True)

    def test_resumed_probe_never_aliases_a_plain_run(self, tmp_path):
        # A probe resumed from a smaller cap has a different history than a
        # fresh run at its cap; the store must never serve one for the other.
        fresh_engine = SweepEngine(self._probe(60))
        fresh = fresh_engine.run_mse()
        fresh_report = fresh_engine.last_adaptive_report
        with ResultStore(str(tmp_path / "store")) as store:
            SweepEngine(self._probe(10)).run_mse(
                store=store, adaptive_cap_resumable=True
            )
            probe = SweepEngine(self._probe(60))
            probe.run_mse(store=store, adaptive_cap_resumable=True)
            assert probe.last_adaptive_report.total_dies == 60
            assert store.query(kind="mse") == []

            plain = SweepEngine(self._probe(60))
            served = plain.run_mse(store=store)
            assert plain.last_run_stats.store_hit is False
        assert _curves(served) == _curves(fresh)
        assert plain.last_adaptive_report == fresh_report

    def test_resume_past_the_cap_is_rejected(self, tmp_path):
        with ResultStore(str(tmp_path / "store")) as store:
            SweepEngine(self._probe(60)).run_mse(
                store=store, adaptive_cap_resumable=True
            )
            with pytest.raises(ValueError, match=r"60 dies.*die cap of 20"):
                SweepEngine(self._probe(20)).run_mse(
                    store=store, adaptive_cap_resumable=True
                )


class TestAdaptiveSpec:
    def _spec(self, budget: McBudgetSpec) -> ExperimentSpec:
        return ExperimentSpec(
            geometry=GeometrySpec(rows=128),
            operating_grid=OperatingGridSpec(p_cell_values=(1e-3,)),
            scheme_grid=SchemeGridSpec(specs=SCHEMES),
            budget=budget,
            benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2),
        )

    def test_adaptive_budget_round_trips_through_json(self):
        spec = self._spec(
            McBudgetSpec(
                samples_per_count=30,
                n_count_points=3,
                mode="adaptive",
                target_ci=0.05,
                max_samples=90,
            )
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        budget = restored.budget.adaptive_budget()
        assert budget is not None
        assert budget.target_ci == pytest.approx(0.05)
        assert budget.max_total_samples == 90

    def test_fixed_spec_has_no_adaptive_budget(self):
        spec = self._spec(McBudgetSpec(samples_per_count=5))
        assert spec.budget.adaptive_budget() is None
        point = spec.operating_points()[0]
        assert spec.experiment_config(point, "knn").adaptive is None

    def test_experiment_config_carries_the_budget(self):
        spec = self._spec(
            McBudgetSpec(
                samples_per_count=30,
                n_count_points=3,
                mode="adaptive",
                target_ci=0.05,
            )
        )
        point = spec.operating_points()[0]
        config = spec.experiment_config(point, "knn")
        assert config.adaptive == spec.budget.adaptive_budget()

    def test_bad_modes_fail_loudly(self):
        with pytest.raises(ValueError, match="mode"):
            McBudgetSpec(mode="bayesian")
        with pytest.raises(ValueError, match="target_ci"):
            McBudgetSpec(mode="fixed", target_ci=0.05)
        with pytest.raises(ValueError, match="target_ci"):
            McBudgetSpec(mode="adaptive", target_ci=-1.0)

    def test_adaptive_defaults_apply_when_target_unset(self):
        budget = McBudgetSpec(mode="adaptive").adaptive_budget()
        assert budget.target_ci == pytest.approx(0.02)


class TestSharedMemoryContext:
    def test_shared_ndarray_round_trip(self):
        source = np.arange(24, dtype=np.int64).reshape(4, 6)
        handle = SharedNdarray.create(source)
        try:
            view = handle.asarray()
            assert np.array_equal(view, source)
            assert not view.flags.writeable
        finally:
            handle.unlink()

    def test_share_and_materialize_context(self, smoke_benchmark):
        raw = np.arange(12, dtype=np.int64).reshape(3, 4)
        context = {
            "raw_features": raw,
            "benchmark": smoke_benchmark,
            "clean_quality": 1.0,
        }
        shared, blocks = engine_module._share_context(context)
        try:
            assert isinstance(shared["raw_features"], SharedNdarray)
            assert isinstance(
                shared["benchmark"], engine_module._SharedBenchmark
            )
            materialized = engine_module._materialize_context(shared)
            assert np.array_equal(materialized["raw_features"], raw)
            bench = materialized["benchmark"]
            assert bench.name == smoke_benchmark.name
            assert np.array_equal(
                bench.train_features, smoke_benchmark.train_features
            )
            assert bench.evaluate is smoke_benchmark.evaluate
        finally:
            for block in blocks:
                block.unlink()

    def test_mse_context_needs_no_shared_blocks(self):
        shared, blocks = engine_module._share_context(
            {"evaluation": "mse", "master_seed": 1}
        )
        assert blocks == []
        assert shared == {"evaluation": "mse", "master_seed": 1}


class TestAdaptiveEvaluators:
    def test_quality_evaluator_reports(self, smoke_benchmark):
        config = _config(
            samples_per_count=20, adaptive=AdaptiveBudget(target_ci=0.05)
        )
        reports = []
        results = evaluate_quality_point(
            config, smoke_benchmark, report_out=reports
        )
        assert len(reports) == 1
        assert reports[0].evaluation == "quality"
        assert set(results) == set(SCHEMES)

    def test_fixed_evaluator_leaves_reports_empty(self, smoke_benchmark):
        reports = []
        evaluate_quality_point(
            _config(samples_per_count=2), smoke_benchmark, report_out=reports
        )
        assert reports == []
