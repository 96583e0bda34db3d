"""The benchmark's workloads: the sweeps users run, built from a seed.

A workload's constructor is its set-up: it probes the kernel backend and
builds what its sweeps need before they start (datasets with their clean fit,
schemes, specs).  Its jobs each run one sweep through the public API with
``workers=1`` and the inline executor, and return the output in a JSON-ready
form for the reference check, the number of dies evaluated and any per-layer
figures the job reads off its own result (store and checkpoint sizes,
optimizer counts).

The seed picks one of a workload's input slots (``seed % slots``): slot ``n``
draws its dies from master seed ``2015 + n``.

A *pass* runs every job of a workload once.  The benchmark runs a cold pass
and then a warm pass: on ``dse-optimize-store`` the warm pass re-runs the
optimizer against the result store the cold pass filled; the fixed-budget
workloads keep no state between runs, so their warm pass recomputes.

Importing this module imports ``repro``; the traced run installs its
wrappers first.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.analysis.figures import (
    figure5_mse_cdf,
    figure7_quality,
    standard_figure7_schemes,
)
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
from repro.kernels import active_backend
from repro.scenarios import ScenarioSpec
from repro.sim.experiment import benchmark_by_name
from repro.store import ResultStore

#: Distinct input sets per fixed-budget workload; ``--seed`` selects one.
INPUT_SLOTS = 16
#: Master seed of input slot 0 (the repository's canonical sweep seed).
BASE_SEED = 2015

FIG7_P_CELL = 1e-3
FIG7_COUNT_POINTS = 8
FIG7_APPS_SAMPLES = 2
FIG7_TRANSIENT_SAMPLES = 8
FIG7_TRANSIENT = ScenarioSpec(
    name="transient",
    params=(("ser", 1e-5), ("disturb", 1e-6), ("scrub_interval", 4)),
)
FIG7_TRANSIENT_TRACE = 32
FIG5_P_CELLS = (5e-6, 1e-4)
FIG5_SAMPLES = 24
DSE_COUNT_POINTS = 4

#: Job output = (JSON-ready result, dies evaluated, layer counts).
JobOutput = Tuple[dict, int, Dict[str, float]]


def master_seed(slot: int) -> int:
    return BASE_SEED + slot


def quality_output(results) -> dict:
    """Fig. 7 distributions as reference data (quality scores under tolerance)."""
    output = {}
    for name, dist in results.items():
        values, cdf = dist.ecdf.curve()
        output[name] = {
            "quality_values": values.tolist(),
            "quality_cdf": cdf.tolist(),
            "clean_quality": dist.clean_quality,
            "samples": dist.samples,
        }
    return output


def exact_digest(values) -> str:
    """SHA-256 of a float64 array's bytes: equal digests mean equal bits."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def mse_output(results) -> dict:
    """Fig. 5 distributions as reference data, compared exactly.

    The MSE samples and weights are kept as digests of their exact bits:
    written out in full they would take megabytes per workload.
    """
    return {
        name: {
            "mse_values_sha256": exact_digest(dist.ecdf.values),
            "weights_sha256": exact_digest(dist.ecdf.weights),
            "samples": dist.samples,
            "max_failures": dist.max_failures,
            "zero_fault_probability": dist.zero_fault_probability,
        }
        for name, dist in results.items()
    }


@dataclass
class Job:
    name: str
    #: Runs the job for a pass ("cold" or "warm").
    run: Callable[[str], JobOutput]


class Workload:
    """A named set of jobs; ``scratch`` is a directory the process owns."""

    name = ""
    #: Distinct input sets; ``--seed`` selects slot ``seed % slots``.
    slots = INPUT_SLOTS

    def __init__(self, slot: int, scratch: str) -> None:
        self.slot = slot
        self.scratch = scratch
        active_backend()

    def jobs(self) -> List[Job]:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Reset state a cold pass must not see."""


class _Fig7Sweeps(Workload):
    """Fig. 7 quality sweeps of ``benchmark_names`` at scale 1.0."""

    benchmark_names: Tuple[str, ...] = ()

    def __init__(self, slot: int, scratch: str) -> None:
        super().__init__(slot, scratch)
        self.benchmarks = {
            name: benchmark_by_name(name, scale=1.0) for name in self.benchmark_names
        }
        for benchmark in self.benchmarks.values():
            benchmark.clean_quality()
        self.schemes = standard_figure7_schemes()

    def _sweep(self, benchmark, **kwargs) -> JobOutput:
        stats: list = []
        results = figure7_quality(
            benchmark,
            p_cell=FIG7_P_CELL,
            n_count_points=FIG7_COUNT_POINTS,
            schemes=self.schemes,
            master_seed=master_seed(self.slot),
            workers=1,
            executor="inline",
            stats_out=stats,
            **kwargs,
        )
        return quality_output(results), stats[0].evaluated_dies, {}


class Fig7Apps(_Fig7Sweeps):
    name = "fig7-apps"
    benchmark_names = ("elasticnet", "knn", "pca")

    def jobs(self) -> List[Job]:
        return [
            Job(name, lambda _pass, b=benchmark: self._sweep(
                b, samples_per_count=FIG7_APPS_SAMPLES))
            for name, benchmark in self.benchmarks.items()
        ]


class Fig7Transient(_Fig7Sweeps):
    name = "fig7-transient"
    benchmark_names = ("pca",)

    def jobs(self) -> List[Job]:
        return [
            Job("pca-transient", lambda _pass: self._sweep(
                self.benchmarks["pca"],
                samples_per_count=FIG7_TRANSIENT_SAMPLES,
                scenario=FIG7_TRANSIENT,
                access_trace=FIG7_TRANSIENT_TRACE,
            ))
        ]


class Fig5Mse(Workload):
    name = "fig5-mse"

    def _sweep(self, p_cell: float) -> JobOutput:
        stats: list = []
        results = figure5_mse_cdf(
            p_cell=p_cell,
            samples_per_count=FIG5_SAMPLES,
            sampling="seeded",
            master_seed=master_seed(self.slot),
            workers=1,
            executor="inline",
            stats_out=stats,
        )
        return mse_output(results), stats[0].evaluated_dies, {}

    def jobs(self) -> List[Job]:
        return [
            Job(f"pcell-{p_cell:g}", lambda _pass, p=p_cell: self._sweep(p))
            for p_cell in FIG5_P_CELLS
        ]


def dse_spec() -> ExperimentSpec:
    return ExperimentSpec(
        geometry=GeometrySpec(rows=4096, word_width=32),
        operating_grid=OperatingGridSpec(vdd_values=(0.62, 0.66, 0.70, 0.74, 0.78)),
        scheme_grid=SchemeGridSpec(
            specs=("no-protection", "p-ecc", "bit-shuffle-nfm1", "bit-shuffle-nfm2")
        ),
        budget=McBudgetSpec(
            samples_per_count=32,
            n_count_points=DSE_COUNT_POINTS,
            coverage=0.95,
            master_seed=BASE_SEED,
            discard_multi_fault_words=False,
        ),
        benchmarks=BenchmarkGridSpec(names=("elasticnet", "knn", "pca"), scale=0.5),
        quality_yield_target=0.9,
        optimizer=OptimizerSpec(frontier_slack=0.01),
    )


def _tree_size(path: str) -> Tuple[int, int]:
    """(files, bytes) under ``path``."""
    files = size = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


class DseOptimizeStore(Workload):
    """Budgeted optimizer, cold into a fresh store, then warm from it.

    The spec is the same at every seed.  The optimizer's die count is an
    outcome of the sampled dies: over master seeds 2015-2024 it ranged from
    304 to 528 dies, and both the die count and the cold time spread by 29%
    of their median between quartiles, wider than the bound a timing is
    gated at.
    """

    name = "dse-optimize-store"
    slots = 1

    def __init__(self, slot: int, scratch: str) -> None:
        super().__init__(slot, scratch)
        self.spec = dse_spec()
        for name in self.spec.benchmarks.names:
            benchmark_by_name(
                name, scale=self.spec.benchmarks.scale, seed=self.spec.benchmarks.seed
            ).clean_quality()
        self.store_dir = os.path.join(scratch, "store")

    def begin_round(self) -> None:
        for name in ("store", "checkpoints-cold", "checkpoints-warm"):
            shutil.rmtree(os.path.join(self.scratch, name), ignore_errors=True)

    def _optimize(self, pass_name: str) -> JobOutput:
        checkpoints = os.path.join(self.scratch, f"checkpoints-{pass_name}")
        store = ResultStore(self.store_dir)
        try:
            result = ParetoOptimizer(
                self.spec,
                workers=1,
                checkpoint_dir=checkpoints,
                store=store,
                executor="inline",
            ).run()
        finally:
            store.close()
        if pass_name == "warm" and result.evaluated_dies:
            raise RuntimeError(
                f"warm pass evaluated {result.evaluated_dies} dies; the store "
                f"should have served every rung"
            )
        output = {
            "frontier": result.frontier(),
            "prune_log": [event.to_dict() for event in result.prune_log],
            "total_dies": result.total_dies,
            "exhaustive_dies": result.exhaustive_dies,
        }
        if pass_name == "cold":
            files, size = _tree_size(checkpoints)
            layers = {
                "checkpoint.files": files,
                "checkpoint.bytes": size,
                "store.put.bytes": _tree_size(self.store_dir)[1],
                "optimize.rungs": 1 + max(s["last_rung"] for s in result.cell_statuses),
                "optimize.pruned_rows": len(result.prune_log),
                "optimize.die_savings": result.savings_ratio(),
            }
        else:
            layers = {"optimize.store_hits": result.store_hits}
        return output, result.evaluated_dies, layers

    def jobs(self) -> List[Job]:
        return [Job("optimize", self._optimize)]


WORKLOADS = {
    cls.name: cls for cls in (Fig7Apps, Fig7Transient, Fig5Mse, DseOptimizeStore)
}
