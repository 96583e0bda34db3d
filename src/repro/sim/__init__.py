"""Application-level fault-injection simulation framework (Fig. 7).

This package reproduces the paper's software simulation flow: the training
dataset of each benchmark is quantised, stored in a functional model of a
faulty 16 kB memory operated behind a protection scheme, read back (with
whatever corruption survives the scheme), the model is trained on the
corrupted data, and the output quality is measured on clean test data.

* :mod:`repro.sim.faulty_storage` -- the functional faulty-memory model that
  round-trips numpy arrays through quantisation, the protection scheme, and
  the fault map.
* :mod:`repro.sim.experiment` -- benchmark definitions binding a dataset, a
  learning algorithm and a quality metric (the rows of Table 1).
* :mod:`repro.sim.engine` -- the parallel sharded Monte-Carlo sweep engine:
  deterministic per-die seeding, pluggable shard executors, and shard-level
  resume from progress records in the result store.
* :mod:`repro.sim.executor` -- the shard executor tiers (inline, local
  process pool, distributed TCP coordinator) and the work-stealing
  scheduler with heartbeat/deadline fault tolerance they share.
* :mod:`repro.sim.shardeval` -- the worker-side shard evaluation shared by
  every executor (the pure function that makes re-dispatch bit-identical).
* :mod:`repro.sim.worker` -- the remote worker entry point
  (``python -m repro.sim.worker --connect HOST:PORT``).
* :mod:`repro.sim.wire` -- the framed socket protocol between coordinator
  and workers.
* :mod:`repro.sim.runner` -- the legacy generator-seeded front end that sweeps
  failure counts and assembles the quality CDFs of Fig. 7 (a thin wrapper
  over the engine).
"""

from repro.sim.engine import (
    ExperimentConfig,
    SweepEngine,
    build_scheme,
)
from repro.sim.executor import ExecutorSpec, make_executor
from repro.sim.experiment import (
    BenchmarkDefinition,
    elasticnet_benchmark,
    knn_benchmark,
    pca_benchmark,
    standard_benchmarks,
)
from repro.sim.faulty_storage import FaultyTensorStore
from repro.sim.runner import QualityDistribution, QualityExperimentRunner

__all__ = [
    "BenchmarkDefinition",
    "ExecutorSpec",
    "ExperimentConfig",
    "FaultyTensorStore",
    "QualityDistribution",
    "QualityExperimentRunner",
    "SweepEngine",
    "build_scheme",
    "elasticnet_benchmark",
    "knn_benchmark",
    "make_executor",
    "pca_benchmark",
    "standard_benchmarks",
]
