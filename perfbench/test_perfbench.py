"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys
import textwrap

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #
def test_self_time_of_nested_spans():
    recorded = [
        ("job", 0, 100, -1, "j"),
        ("engine.sweep", 10, 90, 0, "j"),
        ("shardeval.shard", 20, 50, 1, "j"),
        ("quality.mse", 25, 30, 2, "j"),
        ("shardeval.shard", 60, 80, 1, "j"),
    ]
    assert spans.self_times_ns(recorded) == [20, 30, 25, 5, 20]


def test_self_time_counts_overlapping_children_once():
    recorded = [
        ("parent", 0, 100, -1, None),
        ("a", 10, 40, 0, None),
        ("b", 30, 60, 0, None),
        ("c", 50, 55, 0, None),
    ]
    # The children cover [10, 60] once: 50 ns of the parent's 100.
    assert spans.self_times_ns(recorded)[0] == 50


def test_self_time_clips_children_to_the_parent():
    assert spans.covered_ns([(-10, 20), (90, 150)], 0, 100) == 30
    assert spans.covered_ns([], 0, 100) == 0
    assert spans.covered_ns([(5, 5)], 0, 100) == 0


def test_layer_totals_filter_by_job():
    recorded = [
        ("apps.fit_score", 0, 10, -1, "a"),
        ("apps.fit_score", 10, 30, -1, "b"),
    ]
    totals = spans.layer_totals(recorded, spans.self_times_ns(recorded), {"b"})
    assert totals == {"apps.fit_score": (1, 20, 20)}


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 20))  # 19 samples: the median has 9 above it
    assert spans.percentile_with_tail(samples, 50) is None
    samples = list(range(1, 21))  # 20 samples: rank 10, 10 above
    assert spans.percentile_with_tail(samples, 50) == 10


def test_p99_needs_a_thousand_samples():
    assert spans.percentile_with_tail(list(range(999)), 99) is None
    values = list(range(1000, 0, -1))
    assert spans.percentile_with_tail(values, 99) == 990
    assert spans.percentile_with_tail([], 50) is None


# --------------------------------------------------------------------------- #
# Metric names
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name", ["wall_s", "apps.fit_score.ms_p99", "faulty_storage.load.words_per_s", "9a-b"]
)
def test_valid_metric_names(name):
    run.validate_metric_names([name])


@pytest.mark.parametrize(
    "name", ["", "job.a b.s", "store/put", "_hidden", ".dot", "x" * 65, "p99%"]
)
def test_invalid_metric_names(name):
    with pytest.raises(run.BenchmarkError):
        run.validate_metric_names([name])


def test_benchmark_json_names_are_valid():
    end_to_end, per_layer = run.load_metric_specs()
    names = [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert "setup_s" in names


# --------------------------------------------------------------------------- #
# Reference comparison
# --------------------------------------------------------------------------- #
def _mse_output(values):
    import workloads
    from repro.faultmodel.yieldmodel import MseDistribution
    from repro.quality.cdf import WeightedEcdf

    dist = MseDistribution(
        scheme_name="no-protection",
        p_cell=1e-4,
        ecdf=WeightedEcdf(values),
        zero_fault_probability=0.5,
        max_failures=3,
        samples=len(values),
    )
    return reference.normalise(workloads.mse_output({"no-protection": dist}))


def test_one_ulp_change_in_an_mse_sample_is_caught():
    values = np.array([0.0, 1.5, 2.25, 1e6])
    nudged = values.copy()
    nudged[2] = np.nextafter(nudged[2], np.inf)
    expected = _mse_output(values)
    assert reference.compare(expected, _mse_output(values)) == []
    mismatches = reference.compare(expected, _mse_output(nudged))
    assert mismatches and "mse_values_sha256" in mismatches[0]


def test_quality_scores_compare_at_the_golden_tolerance():
    expected = {"elasticnet": {"quality_values": [0.5, 1.0], "samples": 2}}
    close = {"elasticnet": {"quality_values": [0.5 * (1 + 1e-12), 1.0], "samples": 2}}
    far = {"elasticnet": {"quality_values": [0.5 * (1 + 1e-8), 1.0], "samples": 2}}
    assert reference.compare(expected, close) == []
    assert reference.compare(expected, far)


def test_prune_log_energies_are_exact_and_qualities_tolerant():
    expected = {"prune_log": [{"energy": 130.75, "quality_hi": 0.75, "rung": 0}]}
    energy = {"prune_log": [{"energy": float(np.nextafter(130.75, 200.0)),
                             "quality_hi": 0.75, "rung": 0}]}
    quality = {"prune_log": [{"energy": 130.75,
                              "quality_hi": float(np.nextafter(0.75, 1.0)), "rung": 0}]}
    assert reference.compare(expected, energy)
    assert reference.compare(expected, quality) == []


def test_structure_and_type_changes_are_caught():
    assert reference.compare({"a": 1}, {"a": 1, "b": 2})
    assert reference.compare({"a": [1, 2]}, {"a": [1]})
    assert reference.compare({"total_dies": 3}, {"total_dies": 3.0})
    assert reference.compare({"x": float("nan")}, {"x": float("nan")}) == []


# --------------------------------------------------------------------------- #
# Installing wrappers before names are bound
# --------------------------------------------------------------------------- #
def test_wrappers_reach_names_imported_by_other_modules(tmp_path, monkeypatch):
    package = tmp_path / "tracedpkg"
    package.mkdir()
    (package / "__init__.py").write_text("from tracedpkg import user\n")
    (package / "layer.py").write_text(
        textwrap.dedent(
            """
            def work(x):
                return x + 1

            class Store:
                def get(self, key):
                    return key
            """
        )
    )
    (package / "user.py").write_text(
        textwrap.dedent(
            """
            from tracedpkg.layer import work
            BOUND = work

            def call(x):
                return BOUND(x)
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = spans.Tracer()
    targets = [
        ("tracedpkg.layer", "work", "layer.work", None, None),
        ("tracedpkg.layer", "Store.get", "layer.get", None, None),
    ]
    finder = spans.install_on_import(tracer, targets)
    try:
        import tracedpkg

        spans.check_installed(finder, targets)
        tracer.start_job("j")
        assert tracedpkg.user.call(1) == 2
        from tracedpkg.layer import Store

        assert Store().get("k") == "k"
    finally:
        sys.meta_path.remove(finder)
        for name in [n for n in sys.modules if n.startswith("tracedpkg")]:
            del sys.modules[name]
    assert [s[0] for s in tracer.spans] == ["layer.work", "layer.get"]
    assert all(s[4] == "j" for s in tracer.spans)


def test_install_refuses_an_already_imported_module():
    with pytest.raises(RuntimeError):
        spans.install_on_import(spans.Tracer(), [("json", "dumps", "x", None, None)])


def test_repeat_detection_restarts_per_job():
    tracer = spans.Tracer()
    tracer.start_job("a")
    for digest in (b"1", b"2", b"1"):
        tracer.note_digest(digest)
    tracer.start_job("b")
    tracer.note_digest(b"1")
    assert tracer.counters == {("a", "apps.fit_score.repeats"): 1}


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    _end_to_end, per_layer = run.load_metric_specs()
    assert sorted(mapped) == sorted(m["name"] for m in per_layer)
    workloads = set(run.WORKLOADS)
    for layer in layers.values():
        assert set(layer["on"]) | set(layer["bypassed_on"]) <= workloads
