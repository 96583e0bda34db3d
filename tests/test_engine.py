"""Tests for the parallel sharded Monte-Carlo sweep engine.

The engine's contract is *bit-identical reproducibility*: for a fixed master
seed the assembled quality distributions must not depend on the worker count,
the shard size, the shard execution order, or whether the sweep was
interrupted and resumed from its progress records.  These tests enforce each
clause, plus the golden equivalence of the legacy runner front end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.faultmodel.montecarlo import failure_count_pmf
from repro.memory.organization import MemoryOrganization
from repro.sim import engine as engine_module
from repro.sim.engine import (
    DEFAULT_SCHEME_SPECS,
    ExperimentConfig,
    SweepEngine,
    build_scheme,
    evaluated_failure_counts,
    reassign_count_probabilities,
)
from repro.sim.experiment import knn_benchmark, pca_benchmark
from repro.sim.runner import QualityExperimentRunner
from repro.store import ResultStore

from test_runner import GOLDEN_CLEAN_QUALITY, GOLDEN_CURVES, GOLDEN_SAMPLES


@pytest.fixture(scope="module")
def smoke_benchmark():
    return knn_benchmark(n_samples=120, seed=3)


@pytest.fixture(scope="module")
def smoke_config():
    return ExperimentConfig(
        rows=128,
        word_width=32,
        p_cell=4e-3,
        coverage=0.9,
        samples_per_count=2,
        n_count_points=3,
        master_seed=2026,
        scheme_specs=("no-protection", "bit-shuffle-nfm2"),
        benchmark="knn",
    )


def _curves(results):
    """Comparable snapshot of a result set (exact floats, stable order)."""
    snapshot = {}
    for name in sorted(results):
        dist = results[name]
        x, y = dist.cdf_series()
        snapshot[name] = (
            dist.clean_quality,
            dist.samples,
            x.tolist(),
            y.tolist(),
        )
    return snapshot


@pytest.fixture(scope="module")
def reference_results(smoke_config, smoke_benchmark):
    """The serial (workers=1) result every other run must reproduce exactly."""
    return SweepEngine(smoke_config).run(smoke_benchmark)


# --------------------------------------------------------------------------- #
# Scheme registry
# --------------------------------------------------------------------------- #
class TestBuildScheme:
    @pytest.mark.parametrize("spec", DEFAULT_SCHEME_SPECS + ("secded",))
    def test_registry_names_round_trip(self, spec):
        scheme = build_scheme(spec, 32)
        assert build_scheme(scheme.name, 32).name == scheme.name

    def test_known_types(self):
        assert isinstance(build_scheme("no-protection", 32), NoProtection)
        assert isinstance(build_scheme("none", 32), NoProtection)
        assert isinstance(build_scheme("secded", 32), SecdedScheme)
        assert isinstance(build_scheme("p-ecc", 32), PriorityEccScheme)
        shuffle = build_scheme("bit-shuffle-nfm3", 32)
        assert isinstance(shuffle, BitShuffleScheme)
        assert shuffle.name == "bit-shuffle-nfm3"

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("hamming-weight", 32)

    @pytest.mark.parametrize(
        "spec", ["secded-h(72,64)", "p-ecc-strong", "p-ecc-h(22,17)"]
    )
    def test_unknown_variant_rejected_not_silently_defaulted(self, spec):
        with pytest.raises(ValueError, match="variant"):
            build_scheme(spec, 32)

    def test_word_width_mismatch_rejected(self, smoke_config):
        with pytest.raises(ValueError):
            SweepEngine(smoke_config, schemes=[NoProtection(16)])


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
class TestExperimentConfig:
    def test_rejects_bad_pcell(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rows=64, p_cell=0.0)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rows=64, samples_per_count=0)

    def test_rejects_empty_schemes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rows=64, scheme_specs=())

    def test_counts_match_legacy_runner(self, smoke_config):
        runner = QualityExperimentRunner(
            smoke_config.organization,
            smoke_config.p_cell,
            rng=np.random.default_rng(0),
            coverage=smoke_config.coverage,
        )
        assert smoke_config.max_failures == runner.max_failures
        assert smoke_config.evaluated_counts() == runner.failure_counts(
            smoke_config.n_count_points
        )

    def test_count_probabilities_match_direct_reassignment(self, smoke_config):
        counts = smoke_config.evaluated_counts()
        probabilities = smoke_config.count_probabilities()
        cells = smoke_config.rows * smoke_config.word_width
        expected = {c: 0.0 for c in counts}
        for n in range(1, smoke_config.max_failures + 1):
            nearest = min(counts, key=lambda c: (abs(c - n), c))
            expected[nearest] += failure_count_pmf(cells, smoke_config.p_cell, n)
        for count in counts:
            assert probabilities[count] == expected[count]

    def test_plan_is_count_major(self, smoke_config):
        plan = SweepEngine(smoke_config).plan()
        counts = smoke_config.evaluated_counts()
        samples = smoke_config.samples_per_count
        assert [die_index for die_index, *_ in plan] == list(range(len(plan)))
        assert len(plan) == len(counts) * samples
        for die_index, count_index, sample_index, count in plan:
            assert die_index == count_index * samples + sample_index
            assert count == counts[count_index]

    def test_seeded_run_requires_master_seed(self, smoke_config, smoke_benchmark):
        config = ExperimentConfig(
            rows=smoke_config.rows,
            p_cell=smoke_config.p_cell,
            samples_per_count=1,
            master_seed=None,
        )
        with pytest.raises(ValueError):
            SweepEngine(config).run(smoke_benchmark)


# --------------------------------------------------------------------------- #
# Seed determinism: the tentpole contract
# --------------------------------------------------------------------------- #
class TestSeedDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_for_any_worker_count(
        self, smoke_config, smoke_benchmark, reference_results, workers
    ):
        results = SweepEngine(smoke_config).run(smoke_benchmark, workers=workers)
        assert _curves(results) == _curves(reference_results)

    def test_bit_identical_for_any_shard_size(
        self, smoke_config, smoke_benchmark, reference_results
    ):
        results = SweepEngine(smoke_config).run(
            smoke_benchmark, workers=2, shard_size=1
        )
        assert _curves(results) == _curves(reference_results)

    def test_bit_identical_for_shuffled_shard_order(
        self, smoke_config, smoke_benchmark, reference_results
    ):
        n_dies = len(SweepEngine(smoke_config).plan())
        order = np.random.default_rng(9).permutation(n_dies).tolist()
        results = SweepEngine(smoke_config).run(
            smoke_benchmark, shard_size=1, shard_order=order
        )
        assert _curves(results) == _curves(reference_results)

    def test_different_master_seed_changes_results(
        self, smoke_config, smoke_benchmark, reference_results
    ):
        other = ExperimentConfig(
            rows=smoke_config.rows,
            word_width=smoke_config.word_width,
            p_cell=smoke_config.p_cell,
            coverage=smoke_config.coverage,
            samples_per_count=smoke_config.samples_per_count,
            n_count_points=smoke_config.n_count_points,
            master_seed=smoke_config.master_seed + 1,
            scheme_specs=smoke_config.scheme_specs,
        )
        results = SweepEngine(other).run(smoke_benchmark)
        assert _curves(results) != _curves(reference_results)

    def test_die_maps_reconstructable_from_spawn_key(self, smoke_config):
        # The documented seeding contract: die i's stream is
        # SeedSequence(master_seed, spawn_key=(i,)), which must agree with the
        # root's i-th spawned child.
        root = np.random.SeedSequence(smoke_config.master_seed)
        children = root.spawn(3)
        for i, child in enumerate(children):
            direct = np.random.SeedSequence(
                smoke_config.master_seed, spawn_key=(i,)
            )
            assert np.random.default_rng(child).integers(2**63) == \
                np.random.default_rng(direct).integers(2**63)

    def test_invalid_shard_order_rejected(self, smoke_config, smoke_benchmark):
        with pytest.raises(ValueError):
            SweepEngine(smoke_config).run(
                smoke_benchmark, shard_size=1, shard_order=[0, 0, 1]
            )

    def test_rejects_non_positive_workers(self, smoke_config, smoke_benchmark):
        with pytest.raises(ValueError):
            SweepEngine(smoke_config).run(smoke_benchmark, workers=0)


# --------------------------------------------------------------------------- #
# Golden equivalence with the legacy serial runner
# --------------------------------------------------------------------------- #
class TestLegacyGoldenEquivalence:
    """The Fig. 7 smoke config of test_runner's golden regression, executed
    through the engine's parallel path, must reproduce the seed
    implementation's curves bit-for-bit."""

    @pytest.fixture(scope="class")
    def golden_setup(self):
        bench = pca_benchmark(n_samples=80, n_noise=20, seed=21)
        org = MemoryOrganization(rows=64, word_width=32)
        schemes = [
            NoProtection(32),
            SecdedScheme(32),
            PriorityEccScheme(32),
            BitShuffleScheme(32, 2),
        ]
        return bench, org, schemes

    def _run(self, golden_setup, workers):
        bench, org, schemes = golden_setup
        runner = QualityExperimentRunner(
            org, p_cell=8e-3, rng=np.random.default_rng(2024), coverage=0.9
        )
        return runner.run(
            bench, schemes, samples_per_count=3, n_count_points=3, workers=workers
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_runner_reproduces_golden_curves(self, golden_setup, workers):
        results = self._run(golden_setup, workers)
        assert set(results) == set(GOLDEN_CURVES)
        for name, golden in GOLDEN_CURVES.items():
            dist = results[name]
            assert dist.samples == GOLDEN_SAMPLES
            assert dist.clean_quality == pytest.approx(
                GOLDEN_CLEAN_QUALITY, rel=1e-12, abs=0
            )
            x, y = dist.cdf_series()
            np.testing.assert_allclose(x, golden["x"], rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(y, golden["y"], rtol=1e-10, atol=1e-10)

    def test_parallel_equals_serial_exactly(self, golden_setup):
        serial = self._run(golden_setup, 1)
        parallel = self._run(golden_setup, 2)
        assert _curves(serial) == _curves(parallel)


# --------------------------------------------------------------------------- #
# Progress records / resume
# --------------------------------------------------------------------------- #
def _progress_payloads(store):
    """Payloads of every progress record in ``store``, oldest first."""
    records = [r for r in store.iter_all_records() if r["kind"] == "progress"]
    return [r["payload"] for r in sorted(records, key=lambda r: r["seq"])]


class _Killed(RuntimeError):
    """Stands in for the process dying right after a durable write."""


def _kill_after_progress(store, monkeypatch, k):
    """Make ``store`` raise right after its ``k``-th progress record lands."""
    real_put = store.put_record
    puts = {"progress": 0}

    def put_record(key, kind, payload, meta=None):
        record = real_put(key, kind, payload, meta)
        if kind == "progress":
            puts["progress"] += 1
            if puts["progress"] == k:
                raise _Killed(f"simulated kill after progress record {k}")
        return record

    monkeypatch.setattr(store, "put_record", put_record)


class TestCheckpoint:
    def test_round_trip_replays_without_evaluation(
        self, smoke_config, smoke_benchmark, reference_results, tmp_path, monkeypatch
    ):
        with ResultStore(str(tmp_path / "store")) as store:
            first = SweepEngine(smoke_config).run(smoke_benchmark, store=store)
            assert _curves(first) == _curves(reference_results)
            data = _progress_payloads(store)[-1]
            assert len(data["dies"]) == len(SweepEngine(smoke_config).plan())
            # The result supersedes the progress record under the same key:
            # one live record, and gc drops the superseded progress.
            assert [s["kind"] for s in store.query()] == ["quality"]
            assert store.gc()["kept"] == 1
            assert _progress_payloads(store) == []

            def _must_not_run(entries, context):
                raise AssertionError("complete sweep must not re-evaluate dies")

            monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
            replay = SweepEngine(smoke_config).run(smoke_benchmark, store=store)
        assert _curves(replay) == _curves(reference_results)

    def test_interrupted_sweep_resumes_bit_identically(
        self, smoke_config, smoke_benchmark, reference_results, tmp_path, monkeypatch
    ):
        real_evaluate = engine_module._evaluate_shard
        completed = {"count": 0}

        def _dies_after_two_shards(entries, context):
            if completed["count"] >= 2:
                raise RuntimeError("simulated kill after shard 2")
            completed["count"] += 1
            return real_evaluate(entries, context)

        monkeypatch.setattr(
            engine_module, "_evaluate_shard", _dies_after_two_shards
        )
        with ResultStore(str(tmp_path / "store")) as store:
            with pytest.raises(RuntimeError, match="simulated kill"):
                SweepEngine(smoke_config).run(
                    smoke_benchmark, store=store, shard_size=1
                )
            monkeypatch.setattr(engine_module, "_evaluate_shard", real_evaluate)

            partial = _progress_payloads(store)[-1]
            total_dies = len(SweepEngine(smoke_config).plan())
            assert 0 < len(partial["dies"]) < total_dies
            # A half-finished sweep is progress, never a result.
            assert store.query(kind="quality") == []

            engine = SweepEngine(smoke_config)
            resumed = engine.run(smoke_benchmark, store=store, shard_size=1)
            assert _curves(resumed) == _curves(reference_results)
            assert engine.last_run_stats.evaluated_dies == (
                total_dies - len(partial["dies"])
            )
            final = _progress_payloads(store)[-1]
        assert len(final["dies"]) == total_dies

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_after_every_shard_resumes_bit_identically(
        self, smoke_config, smoke_benchmark, reference_results, tmp_path,
        monkeypatch, workers,
    ):
        # One die per shard, so a kill after shard k leaves exactly k dies;
        # k == total is a kill between the last progress record and the
        # result record, which must resume without evaluating anything.
        total_dies = len(SweepEngine(smoke_config).plan())
        for k in range(1, total_dies + 1):
            root = str(tmp_path / f"store-{k}")
            with monkeypatch.context() as patch, ResultStore(root) as store:
                _kill_after_progress(store, patch, k)
                with pytest.raises(_Killed):
                    SweepEngine(smoke_config).run(
                        smoke_benchmark, store=store, workers=workers,
                        shard_size=1,
                    )
            with ResultStore(root) as store:
                engine = SweepEngine(smoke_config)
                resumed = engine.run(
                    smoke_benchmark, store=store, workers=workers, shard_size=1
                )
            assert _curves(resumed) == _curves(reference_results), k
            assert engine.last_run_stats.evaluated_dies == total_dies - k

    def test_mismatched_config_hash_rejected(
        self, smoke_config, smoke_benchmark, tmp_path
    ):
        other = ExperimentConfig(
            rows=smoke_config.rows,
            word_width=smoke_config.word_width,
            p_cell=smoke_config.p_cell,
            coverage=smoke_config.coverage,
            samples_per_count=smoke_config.samples_per_count,
            n_count_points=smoke_config.n_count_points,
            master_seed=smoke_config.master_seed + 1,
            scheme_specs=smoke_config.scheme_specs,
        )
        with ResultStore(str(tmp_path / "store")) as store:
            # Progress of one configuration filed under another's key.
            store.put_record(
                SweepEngine(other).config_hash(smoke_benchmark),
                "progress",
                {
                    "version": 1,
                    "config_hash": SweepEngine(smoke_config).config_hash(
                        smoke_benchmark
                    ),
                    "dies": {},
                },
            )
            with pytest.raises(ValueError, match="different experiment"):
                SweepEngine(other).run(smoke_benchmark, store=store)

    def test_unsupported_checkpoint_version_rejected(
        self, smoke_config, smoke_benchmark, tmp_path
    ):
        key = SweepEngine(smoke_config).config_hash(smoke_benchmark)
        with ResultStore(str(tmp_path / "store")) as store:
            store.put_record(
                key, "progress", {"version": 999, "config_hash": key, "dies": {}}
            )
            with pytest.raises(ValueError, match="version"):
                SweepEngine(smoke_config).run(smoke_benchmark, store=store)

    def test_foreign_record_under_the_key_is_rejected(
        self, smoke_config, smoke_benchmark, tmp_path
    ):
        key = SweepEngine(smoke_config).config_hash(smoke_benchmark)
        with ResultStore(str(tmp_path / "store")) as store:
            store.put_record(key, "mse", {"schemes": []})
            with pytest.raises(ValueError, match="'mse' results"):
                SweepEngine(smoke_config).run(smoke_benchmark, store=store)

    def test_fixed_point_override_enters_checkpoint_hash(
        self, smoke_benchmark, tmp_path
    ):
        # Regression: the effective quantisation format must key the store --
        # a resume under a different format would silently replay wrong
        # curves otherwise.
        from repro.quantize.fixedpoint import FixedPointFormat

        org = MemoryOrganization(rows=128, word_width=32)

        def run(frac_bits, store):
            runner = QualityExperimentRunner(
                org,
                p_cell=4e-3,
                rng=np.random.default_rng(11),
                coverage=0.9,
                fixed_point=FixedPointFormat(total_bits=32, frac_bits=frac_bits),
            )
            return runner.run(
                smoke_benchmark,
                [NoProtection(32)],
                samples_per_count=2,
                n_count_points=2,
                store=store,
            )

        with ResultStore(str(tmp_path / "store")) as store:
            coarse = run(4, store)
            fine = run(24, store)
            assert len(store.query(kind="quality")) == 2
        assert _curves(coarse) != _curves(fine)

    def test_legacy_runner_checkpoint_round_trip(
        self, smoke_benchmark, tmp_path, monkeypatch
    ):
        org = MemoryOrganization(rows=128, word_width=32)

        def run(store):
            runner = QualityExperimentRunner(
                org, p_cell=4e-3, rng=np.random.default_rng(11), coverage=0.9
            )
            return runner.run(
                smoke_benchmark,
                [NoProtection(32)],
                samples_per_count=2,
                n_count_points=2,
                store=store,
            )

        with ResultStore(str(tmp_path / "store")) as store:
            first = run(store)

            def _must_not_run(entries, context):
                raise AssertionError("complete sweep must not re-evaluate dies")

            monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
            # The runner re-draws the same dies from the same generator seed,
            # so the configuration hash matches and the stored results replay.
            assert _curves(run(store)) == _curves(first)


# --------------------------------------------------------------------------- #
# Grid helpers
# --------------------------------------------------------------------------- #
class TestGridHelpers:
    def test_full_grid(self):
        assert evaluated_failure_counts(4) == [1, 2, 3, 4]

    def test_subsample_bounds(self):
        counts = evaluated_failure_counts(100, 5)
        assert counts[0] >= 1
        assert counts[-1] <= 100
        assert len(counts) <= 5

    def test_subsample_rejects_non_positive(self):
        with pytest.raises(ValueError):
            evaluated_failure_counts(10, 0)

    def test_reassignment_conserves_mass(self):
        cells, p_cell, max_failures = 2048, 5e-3, 20
        probabilities = reassign_count_probabilities(
            cells, p_cell, max_failures, [1, 5, 20]
        )
        total = sum(
            failure_count_pmf(cells, p_cell, n)
            for n in range(1, max_failures + 1)
        )
        assert sum(probabilities.values()) == pytest.approx(total, abs=1e-15)
