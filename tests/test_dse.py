"""Tests for the cross-layer design-space exploration subsystem.

Covers the unified registry, the layered serialisable spec, the thin-view
contract of the figure functions (golden equivalence with the pre-DSE
implementations, bit-for-bit), and the explorer's determinism, store
reuse, and Pareto extraction.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.analysis.figures import figure5_mse_cdf, figure7_quality
from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.dse import (
    BenchmarkGridSpec,
    DesignRegistry,
    DesignSpaceExplorer,
    DseResult,
    ExperimentSpec,
    GeometrySpec,
    McBudgetSpec,
    OperatingGridSpec,
    SchemeGridSpec,
    build_benchmark,
    build_pcell_model,
    build_scheme,
    pareto_frontier,
)
from repro.faultmodel.pcell import PcellModel
from repro.faultmodel.yieldmodel import YieldAnalyzer
from repro.memory.organization import MemoryOrganization
from repro.sim import engine as engine_module
from repro.sim.experiment import knn_benchmark, standard_benchmarks
from repro.sim.runner import QualityExperimentRunner
from repro.store import ResultStore

GOLDEN_FIG5_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "fig5_mse_cdf.json"
)

# The configuration the pre-refactor golden snapshot was captured with.
FIG5_GOLDEN_CONFIG = dict(
    p_cell=2e-4, samples_per_count=4, coverage=0.995, n_fm_values=[1, 3]
)


def _fig5_golden(workers=1, **overrides):
    return figure5_mse_cdf(
        organization=MemoryOrganization(rows=256, word_width=32),
        rng=np.random.default_rng(77),
        workers=workers,
        **{**FIG5_GOLDEN_CONFIG, **overrides},
    )


# --------------------------------------------------------------------------- #
# Unified registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builds_every_kind(self):
        assert isinstance(build_scheme("bit-shuffle-nfm2", 32), BitShuffleScheme)
        assert build_benchmark("knn", scale=0.2).name == "knn"
        assert isinstance(build_pcell_model("calibrated-28nm"), PcellModel)

    def test_scheme_specs_cover_engine_grammar(self):
        assert isinstance(build_scheme("none", 32), NoProtection)
        assert isinstance(build_scheme("p-ecc-H(22,16)", 32), PriorityEccScheme)
        with pytest.raises(ValueError):
            build_scheme("hamming-weight", 32)

    def test_benchmark_matches_standard_set(self):
        registry_bench = build_benchmark("pca", scale=0.25, seed=5)
        standard = standard_benchmarks(scale=0.25, seed=5)["pca"]
        assert registry_bench.name == standard.name
        np.testing.assert_array_equal(
            registry_bench.train_features, standard.train_features
        )

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="benchmark"):
            build_benchmark("svm")

    def test_parameterised_pcell_model(self):
        model = build_pcell_model("gaussian", v_crit_mean=0.4, v_crit_sigma=0.1)
        assert model.v_crit_mean == 0.4
        default = build_pcell_model("default")
        assert default == PcellModel.calibrated_28nm()

    def test_unknown_kind_and_duplicate_registration_rejected(self):
        registry = DesignRegistry()
        with pytest.raises(ValueError, match="kind"):
            registry.build("dataset", "iris")
        registry.register("pcell-model", "custom", PcellModel.calibrated_28nm)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("pcell-model", "custom", PcellModel.calibrated_28nm)

    def test_custom_entry_builds(self):
        registry = DesignRegistry()
        registry.register(
            "scheme", "mirror", lambda word_width: NoProtection(word_width)
        )
        assert isinstance(registry.build("scheme", "MIRROR", word_width=16),
                          NoProtection)
        assert registry.names("scheme") == ["mirror"]

    def test_fallback_resolvers_are_tried_in_order(self):
        """A resolver that raises ValueError means "not mine"; later
        resolvers must still get a chance at the spec."""
        registry = DesignRegistry()

        def _rejects_everything(spec, word_width):
            raise ValueError(f"not a family spec: {spec}")

        def _mirror_family(spec, word_width):
            if spec.startswith("mirror-"):
                return NoProtection(word_width)
            raise ValueError(f"not a mirror spec: {spec}")

        registry.register_fallback("scheme", _rejects_everything)
        registry.register_fallback("scheme", _mirror_family)
        built = registry.build("scheme", "mirror-x", word_width=16)
        assert isinstance(built, NoProtection)
        with pytest.raises(ValueError, match="unknown scheme"):
            registry.build("scheme", "prism-x", word_width=16)


# --------------------------------------------------------------------------- #
# ExperimentSpec
# --------------------------------------------------------------------------- #
def _smoke_spec(**overrides):
    fields = dict(
        geometry=GeometrySpec(rows=128),
        operating_grid=OperatingGridSpec(vdd_values=(0.65, 0.70, 0.75)),
        scheme_grid=SchemeGridSpec(
            specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")
        ),
        budget=McBudgetSpec(
            samples_per_count=2, n_count_points=3, coverage=0.9, master_seed=7
        ),
        benchmarks=BenchmarkGridSpec(names=("knn",), scale=0.2, seed=17),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = _smoke_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = _smoke_spec()
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.from_file(path) == spec

    def test_pcell_params_round_trip(self):
        spec = _smoke_spec(
            operating_grid=OperatingGridSpec(
                vdd_values=(0.7,),
                pcell_model="gaussian",
                pcell_params=(("v_crit_mean", 0.4), ("v_crit_sigma", 0.1)),
            )
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.operating_grid.model().v_crit_mean == 0.4

    def test_unknown_keys_rejected(self):
        data = _smoke_spec().to_dict()
        data["typo_section"] = {}
        with pytest.raises(ValueError, match="typo_section"):
            ExperimentSpec.from_dict(data)
        data = _smoke_spec().to_dict()
        data["geometry"]["row_count"] = 4
        with pytest.raises(ValueError, match="row_count"):
            ExperimentSpec.from_dict(data)

    def test_missing_required_sections_rejected(self):
        with pytest.raises(ValueError, match="geometry"):
            ExperimentSpec.from_dict({})

    @pytest.mark.parametrize(
        "section, kwargs",
        [
            ("geometry", dict(rows=0)),
            ("geometry", dict(rows=8, frac_bits=40)),
            ("operating_grid", dict()),
            ("operating_grid", dict(vdd_values=(0.0,))),
            ("operating_grid", dict(p_cell_values=(1.5,))),
            ("scheme_grid", dict(specs=())),
            ("scheme_grid", dict(specs=("none",), lut_realisation="dram")),
            ("budget", dict(samples_per_count=0)),
            ("budget", dict(coverage=1.5)),
            ("benchmarks", dict(names=())),
            ("benchmarks", dict(names=("knn",), scale=0.0)),
        ],
    )
    def test_layer_validation(self, section, kwargs):
        cls = {
            "geometry": GeometrySpec,
            "operating_grid": OperatingGridSpec,
            "scheme_grid": SchemeGridSpec,
            "budget": McBudgetSpec,
            "benchmarks": BenchmarkGridSpec,
        }[section]
        with pytest.raises(ValueError):
            cls(**kwargs)

    def test_rejects_bad_yield_target(self):
        with pytest.raises(ValueError):
            _smoke_spec(quality_yield_target=1.0)

    def test_grid_expansion(self):
        spec = _smoke_spec()
        points = spec.operating_points()
        assert [p.vdd for p in points] == [0.65, 0.70, 0.75]
        assert spec.grid_size() == 9
        config = spec.experiment_config(points[0], "knn")
        assert config.rows == 128
        assert config.p_cell == points[0].p_cell
        assert config.master_seed == 7
        assert config.scheme_specs == spec.scheme_grid.specs
        assert config.benchmark == "knn"

    def test_p_cell_grid_entries_keep_exact_probability(self):
        spec = _smoke_spec(
            operating_grid=OperatingGridSpec(p_cell_values=(1e-3, 5e-6))
        )
        points = spec.operating_points()
        assert [p.p_cell for p in points] == [1e-3, 5e-6]
        model = spec.operating_grid.model()
        # The attached voltage inverts the model back to the probability.
        for point in points:
            assert model.p_cell(point.vdd) == pytest.approx(
                point.p_cell, rel=1e-9
            )
            assert point.expected_failures == pytest.approx(
                point.p_cell * spec.organization.total_cells
            )


# --------------------------------------------------------------------------- #
# Golden equivalence: the figures as thin DSE views
# --------------------------------------------------------------------------- #
class TestFigureGoldenEquivalence:
    """The pinned pre-refactor outputs, reproduced bit-for-bit through the
    DSE grid-point evaluators."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_FIG5_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig5_bit_identical_to_pre_refactor_snapshot(self, golden, workers):
        results = _fig5_golden(workers=workers)
        assert set(results) == set(golden)
        for name, dist in results.items():
            x, y = dist.ecdf.curve()
            assert x.tolist() == golden[name]["x"], name
            assert y.tolist() == golden[name]["y"], name
            assert dist.samples == golden[name]["samples"]
            assert dist.max_failures == golden[name]["max_failures"]
            assert (
                dist.zero_fault_probability
                == golden[name]["zero_fault_probability"]
            )

    def test_fig5_compare_schemes_view_matches_analyzer(self):
        """YieldAnalyzer.compare_schemes (now a DSE view) equals the paired
        per-scheme mse_distribution analysis on the same shared dies."""
        org = MemoryOrganization(rows=128, word_width=32)
        schemes = [NoProtection(32), BitShuffleScheme(32, 2)]

        via_compare = YieldAnalyzer(
            org, 5e-4, rng=np.random.default_rng(3), coverage=0.95
        ).compare_schemes(schemes, samples_per_count=3)

        reference_analyzer = YieldAnalyzer(
            org, 5e-4, rng=np.random.default_rng(3), coverage=0.95
        )
        shared = reference_analyzer.shared_fault_maps(samples_per_count=3)
        for scheme in schemes:
            expected = reference_analyzer.mse_distribution(
                scheme, 3, fault_maps_by_count=shared
            )
            actual = via_compare[scheme.name]
            assert actual.samples == expected.samples
            assert actual.max_failures == expected.max_failures
            for got, want in zip(actual.ecdf.curve(), expected.ecdf.curve()):
                np.testing.assert_array_equal(got, want)

    def test_fig7_legacy_view_matches_runner(self):
        """figure7_quality's legacy path (a DSE view) equals the runner."""
        org = MemoryOrganization(rows=128, word_width=32)
        bench = knn_benchmark(n_samples=120, seed=3)
        schemes = [NoProtection(32), BitShuffleScheme(32, 2)]

        via_figure = figure7_quality(
            bench,
            organization=org,
            p_cell=4e-3,
            samples_per_count=2,
            n_count_points=3,
            schemes=schemes,
            rng=np.random.default_rng(11),
        )
        runner = QualityExperimentRunner(
            org, p_cell=4e-3, rng=np.random.default_rng(11)
        )
        via_runner = runner.run(
            bench, schemes, samples_per_count=2, n_count_points=3
        )
        assert set(via_figure) == set(via_runner)
        for name in via_figure:
            for got, want in zip(
                via_figure[name].cdf_series(), via_runner[name].cdf_series()
            ):
                np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------- #
# Seeded + store-backed MSE sweeps
# --------------------------------------------------------------------------- #
class TestSeededMseSweep:
    def test_seeded_bit_identical_for_worker_counts(self):
        serial = _fig5_golden(sampling="seeded", master_seed=5)
        parallel = _fig5_golden(workers=2, sampling="seeded", master_seed=5)
        for name in serial:
            for got, want in zip(
                serial[name].ecdf.curve(), parallel[name].ecdf.curve()
            ):
                np.testing.assert_array_equal(got, want)

    def test_seeded_differs_from_legacy(self):
        legacy = _fig5_golden()
        seeded = _fig5_golden(sampling="seeded", master_seed=2015)
        assert any(
            legacy[name].ecdf.curve()[0].tolist()
            != seeded[name].ecdf.curve()[0].tolist()
            for name in legacy
        )

    def test_unknown_sampling_mode_rejected(self):
        with pytest.raises(ValueError, match="sampling"):
            _fig5_golden(sampling="quasi-random")

    def test_checkpoint_round_trip_replays_without_evaluation(
        self, tmp_path, monkeypatch
    ):
        with ResultStore(str(tmp_path / "store")) as store:
            first = _fig5_golden(store=store)
            assert [s["kind"] for s in store.query()] == ["mse"]

            def _must_not_run(entries, context):
                raise AssertionError("complete sweep must not re-evaluate")

            monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
            replay = _fig5_golden(store=store)
        for name in first:
            for got, want in zip(
                first[name].ecdf.curve(), replay[name].ecdf.curve()
            ):
                np.testing.assert_array_equal(got, want)

    def test_checkpoint_distinguishes_mse_from_quality_mode(self, tmp_path):
        """An MSE sweep's records must not be replayable by a quality sweep of
        the same configuration (the evaluation mode keys the hash)."""
        from repro.dse.evaluate import evaluate_mse_point
        from repro.sim.engine import ExperimentConfig, SweepEngine

        config = ExperimentConfig(
            rows=64,
            p_cell=5e-3,
            coverage=0.9,
            samples_per_count=1,
            n_count_points=2,
            master_seed=3,
            scheme_specs=("no-protection",),
        )
        bench = knn_benchmark(n_samples=60, seed=1)
        with ResultStore(str(tmp_path / "store")) as store:
            evaluate_mse_point(config, store=store)
            engine = SweepEngine(config)
            engine.run(bench, store=store)
            assert engine.last_run_stats.store_hit is False
            assert sorted(s["kind"] for s in store.query()) == ["mse", "quality"]


# --------------------------------------------------------------------------- #
# DesignSpaceExplorer
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_result():
    return DesignSpaceExplorer(_smoke_spec(), workers=1).run()


class TestExplorer:
    def test_row_grid_is_complete(self, smoke_result):
        spec = smoke_result.spec
        assert len(smoke_result.rows) == spec.grid_size()
        schemes = {row["scheme"] for row in smoke_result.rows}
        assert schemes == {
            "no-protection",
            "p-ecc-H(22,16)",
            "bit-shuffle-nfm2",
        }
        voltages = sorted({row["vdd"] for row in smoke_result.rows})
        assert voltages == [0.65, 0.70, 0.75]

    def test_bit_identical_for_worker_counts(self, smoke_result):
        parallel = DesignSpaceExplorer(_smoke_spec(), workers=2).run()
        assert parallel.rows == smoke_result.rows

    def test_energy_join_is_consistent(self, smoke_result):
        for row in smoke_result.rows:
            assert row["total_read_energy_fj"] == pytest.approx(
                row["word_read_energy_fj"] + row["scheme_read_energy_fj"]
            )
            if row["scheme"] == "no-protection":
                assert row["scheme_read_energy_fj"] == 0.0
                assert row["overhead_area_um2"] == 0.0
            else:
                assert row["overhead_area_um2"] > 0.0
        # Dynamic energy rises with voltage; savings fall.
        by_vdd = sorted(
            smoke_result.select(scheme="no-protection"),
            key=lambda r: r["vdd"],
        )
        energies = [r["word_read_energy_fj"] for r in by_vdd]
        assert energies == sorted(energies)
        savings = [r["energy_saving"] for r in by_vdd]
        assert savings == sorted(savings, reverse=True)

    def test_pareto_frontier_non_empty_and_non_dominated(self, smoke_result):
        frontier = smoke_result.pareto()
        assert frontier
        rows = smoke_result.select(benchmark="knn")
        for candidate in frontier:
            assert not any(
                other["total_read_energy_fj"] <= candidate["total_read_energy_fj"]
                and other["quality_at_yield"] >= candidate["quality_at_yield"]
                and (
                    other["total_read_energy_fj"]
                    < candidate["total_read_energy_fj"]
                    or other["quality_at_yield"] > candidate["quality_at_yield"]
                )
                for other in rows
            )

    def test_pareto_frontier_helper_orders_by_energy(self):
        rows = [
            {"total_read_energy_fj": 3.0, "quality_at_yield": 0.9},
            {"total_read_energy_fj": 1.0, "quality_at_yield": 0.5},
            {"total_read_energy_fj": 2.0, "quality_at_yield": 0.7},
            {"total_read_energy_fj": 2.5, "quality_at_yield": 0.6},  # dominated
        ]
        frontier = pareto_frontier(rows)
        assert [r["total_read_energy_fj"] for r in frontier] == [1.0, 2.0, 3.0]

    def test_energy_at_iso_quality_picks_cheapest(self, smoke_result):
        rows = smoke_result.energy_at_iso_quality(0.5)
        assert rows
        for row in rows:
            candidates = [
                r
                for r in smoke_result.select(
                    benchmark=row["benchmark"], scheme=row["scheme"]
                )
                if r["quality_at_yield"] >= 0.5
            ]
            assert row["total_read_energy_fj"] == min(
                r["total_read_energy_fj"] for r in candidates
            )

    def test_result_table_round_trip(self, smoke_result, tmp_path):
        path = str(tmp_path / "table.json")
        smoke_result.save(path)
        restored = DseResult.load(path)
        assert restored.spec == smoke_result.spec
        assert restored.rows == smoke_result.rows

    def test_result_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "rows": []}))
        with pytest.raises(ValueError, match="version"):
            DseResult.load(str(path))

    def test_checkpoint_dir_replays_without_evaluation(
        self, tmp_path, monkeypatch
    ):
        spec = _smoke_spec()
        with ResultStore(str(tmp_path / "grid-store")) as store:
            first = DesignSpaceExplorer(spec, store=store).run()
            cached = store.query(kind="quality")
            assert len(cached) == len(spec.operating_points())

            def _must_not_run(entries, context):
                raise AssertionError("cached grid points must not re-evaluate")

            monkeypatch.setattr(engine_module, "_evaluate_shard", _must_not_run)
            replay = DesignSpaceExplorer(spec, store=store).run()
        assert replay.rows == first.rows

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(_smoke_spec(), workers=0)

    def test_unknown_scheme_fails_loudly(self):
        spec = _smoke_spec(
            scheme_grid=SchemeGridSpec(specs=("bit-shuffle-nfm9",))
        )
        with pytest.raises(ValueError):
            DesignSpaceExplorer(spec).run()

    def test_distributions_are_kept_in_memory(self, smoke_result):
        points = smoke_result.spec.operating_points()
        key = (points[0].vdd, points[0].p_cell)
        assert key[0] == 0.65
        dists = smoke_result.distributions["knn"][key]
        assert set(dists) == {
            "no-protection",
            "p-ecc-H(22,16)",
            "bit-shuffle-nfm2",
        }
        assert dists["no-protection"].quality_at_yield(0.5) >= 0.0
