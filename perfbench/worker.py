"""One benchmark process: set up a workload, optionally measure it, report.

Run by ``run.py`` in a fresh interpreter for every sample, never by hand::

    python3 perfbench/worker.py --workload fig5-mse --seed 0 --mode measure \\
        --share 10 --scratch DIR --out result.json [--trace-out spans.jsonl]

``--mode setup`` stops after set-up; ``measure`` then runs rounds (a cold and
a warm pass over the workload's jobs) until the next round would overrun
``--share`` seconds, always at least one; ``trace`` does the same with the
layer wrappers of :data:`TARGETS` installed before ``repro`` is imported.
Every job's output is checked against the stored reference.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import reference  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _count_words(tracer, args, kwargs):
    tracer.count("faulty_storage.load.words", args[1].size)


def _note_features(tracer, args, kwargs):
    tracer.note_digest(spans.digest_array(args[1]))


def _count_dies(tracer, args, kwargs):
    tracer.count("shardeval.dies", len(args[0]))


def _count_hit(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("store.get.hits")


#: The public functions of each layer the traced run wraps.
TARGETS = [
    ("repro.sim.engine", "SweepEngine.run", "engine.sweep", None, None),
    ("repro.sim.engine", "SweepEngine.run_mse", "engine.sweep", None, None),
    ("repro.sim.shardeval", "evaluate_shard", "shardeval.shard", _count_dies, None),
    ("repro.sim.shardeval", "summarize_shard", "shardeval.shard", _count_dies, None),
    ("repro.scenarios.base", "FaultScenario.sample_die", "scenarios.sample_die", None, None),
    ("repro.scenarios.transient", "TransientTier.sample_read_effects",
     "scenarios.transient", None, None),
    ("repro.sim.faulty_storage", "FaultyTensorStore.__init__", "faulty_storage.build",
     None, None),
    ("repro.sim.faulty_storage", "FaultyTensorStore.load_quantized", "faulty_storage.load",
     _count_words, None),
    ("repro.sim.experiment", "BenchmarkDefinition.quality_with_corrupted_features",
     "apps.fit_score", _note_features, None),
    ("repro.quality.mse", "mse_of_fault_map", "quality.mse", None, None),
    ("repro.stats.moments", "StreamingMoments.merge", "stats.merge", None, None),
    ("repro.stats.sketch", "FixedGridEcdfSketch.merge", "stats.merge", None, None),
    ("repro.store.store", "ResultStore.__init__", "store.open", None, None),
    ("repro.store.store", "ResultStore.put_record", "store.put", None, None),
    ("repro.store.store", "ResultStore.get_record", "store.get", None, _count_hit),
]


def cpu_seconds() -> float:
    """User + system time of this process and its children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def kernel_cache_state() -> str:
    cache = os.environ.get("REPRO_KERNEL_CACHE", "")
    built = os.path.isdir(cache) and any(n.endswith(".so") for n in os.listdir(cache))
    return "warm" if built else "cold"


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(cache_state: str) -> dict:
    import numpy
    from repro.kernels import active_backend

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": active_backend().name,
        "kernel_cache": cache_state,
        "git_revision": git_revision(),
    }


def run_pass(workload, pass_name, round_index, tracer):
    """Run every job once; returns the timing record and the raw outputs."""
    record = {"jobs": {}, "dies": 0, "layers": {}}
    outputs = {}
    wall = time.perf_counter()
    cpu = cpu_seconds()
    for job in workload.jobs():
        if tracer is not None:
            tracer.start_job(f"r{round_index}.{pass_name}.{job.name}")
            span = tracer.begin("job")
        started = time.perf_counter()
        try:
            output, dies, layers = job.run(pass_name)
            outputs[job.name] = output
            record["dies"] += dies
            record["layers"].update(layers)
        except Exception:
            traceback.print_exc()
            outputs[job.name] = None
        finally:
            if tracer is not None:
                tracer.end(span)
        record["jobs"][job.name] = time.perf_counter() - started
    record["cpu_s"] = cpu_seconds() - cpu
    record["wall_s"] = time.perf_counter() - wall
    return record, outputs


def check(outputs, expected, label, failures):
    for name, output in outputs.items():
        if output is None:
            failures.append(f"{label} {name}: raised")
            continue
        mismatches = reference.compare(expected.get(name), reference.normalise(output))
        if mismatches:
            failures.append(f"{label} {name}: " + "; ".join(mismatches))


def measure(workload, expected, share, tracer):
    rounds, failures = [], []
    attempted = 0
    started = time.perf_counter()
    while True:
        index = len(rounds)
        workload.begin_round()
        round_started = time.perf_counter()
        record = {}
        for pass_name in ("cold", "warm"):
            record[pass_name], outputs = run_pass(workload, pass_name, index, tracer)
            attempted += len(outputs)
            check(outputs, expected, f"round {index} {pass_name}", failures)
        record["round_s"] = time.perf_counter() - round_started
        rounds.append(record)
        elapsed = time.perf_counter() - started
        if elapsed + record["round_s"] > share:
            return rounds, attempted, failures


def _per_round_layers(tracer, rounds):
    """Per-layer figures of each round from the spans and counters."""
    recorded = tracer.spans
    self_ns = spans.self_times_ns(recorded)
    for index, record in enumerate(rounds):
        jobs = {
            f"r{index}.{pass_name}.{name}"
            for pass_name in ("cold", "warm")
            for name in record[pass_name]["jobs"]
        }
        totals = spans.layer_totals(recorded, self_ns, jobs)
        counters = {}
        for (job, name), value in tracer.counters.items():
            if job in jobs:
                counters[name] = counters.get(name, 0) + value

        def calls(name):
            return totals.get(name, (0, 0, 0))[0]

        def self_s(name):
            return totals.get(name, (0, 0, 0))[1] / 1e9

        def ratio(part, whole):
            return part / whole if whole else 0.0

        load_s = totals.get("faulty_storage.load", (0, 0, 0))[2] / 1e9
        layers = {
            "apps.fit_score.calls": calls("apps.fit_score"),
            "apps.fit_score.repeat_ratio": ratio(
                counters.get("apps.fit_score.repeats", 0), calls("apps.fit_score")
            ),
            "faulty_storage.build.calls": calls("faulty_storage.build"),
            "faulty_storage.load.calls": calls("faulty_storage.load"),
            "faulty_storage.load.words_per_s": ratio(
                counters.get("faulty_storage.load.words", 0), load_s
            ),
            "scenarios.sample_die.calls": calls("scenarios.sample_die"),
            "scenarios.transient.calls": calls("scenarios.transient"),
            "quality.mse.calls": calls("quality.mse"),
            "shardeval.shards": calls("shardeval.shard"),
            "shardeval.dies": counters.get("shardeval.dies", 0),
            "stats.merge.calls": calls("stats.merge"),
            "store.put.calls": calls("store.put"),
            "store.get.calls": calls("store.get"),
            "store.get.hit_ratio": ratio(
                counters.get("store.get.hits", 0), calls("store.get")
            ),
        }
        # Each layer's self time in seconds, and as a share of the round: the
        # host's speed drifts between runs, and a share cancels the drift.
        for layer, span in (
            ("apps.fit_score", "apps.fit_score"),
            ("faulty_storage.build", "faulty_storage.build"),
            ("faulty_storage.load", "faulty_storage.load"),
            ("scenarios.sample_die", "scenarios.sample_die"),
            ("scenarios.transient", "scenarios.transient"),
            ("quality.mse", "quality.mse"),
            ("shardeval", "shardeval.shard"),
            ("engine", "engine.sweep"),
            ("stats.merge", "stats.merge"),
            ("store.open", "store.open"),
            ("store.put", "store.put"),
            ("store.get", "store.get"),
            ("job", "job"),
        ):
            layers[f"{layer}.s"] = self_s(span)
            layers[f"{layer}.share"] = 100.0 * self_s(span) / record["round_s"]
        for pass_name in ("cold", "warm"):
            layers.update(record[pass_name]["layers"])
        for name in ("checkpoint.files", "checkpoint.bytes", "store.put.bytes",
                     "optimize.rungs", "optimize.pruned_rows", "optimize.die_savings",
                     "optimize.store_hits"):
            layers.setdefault(name, 0)
        record["trace_layers"] = layers


def _percentiles(tracer):
    """Per-call percentiles, each only where at least 10 calls lie beyond it."""
    durations = {}
    for name, start, end, _parent, _job in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    result = {}
    for layer, unit, scale in (("apps.fit_score", "ms", 1e6), ("quality.mse", "us", 1e3)):
        samples = [ns / scale for ns in durations.get(layer, [])]
        for percent in (50, 99):
            value = spans.percentile_with_tail(samples, percent)
            if value is not None:
                result[f"{layer}.{unit}_p{percent}"] = {"value": value, "count": len(samples)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--share", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        finder = spans.install_on_import(tracer, TARGETS)
    cache_state = kernel_cache_state()
    import workloads

    if tracer is not None:
        spans.check_installed(finder, TARGETS)
    os.makedirs(args.scratch, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    slot = args.seed % cls.slots
    workload = cls(slot, args.scratch)
    result = {
        "setup_s": time.perf_counter() - START,
        "slot": slot,
        "env": environment(cache_state),
    }
    if args.mode != "setup":
        expected = reference.load(args.workload)[str(slot)]
        rounds, attempted, failures = measure(workload, expected, args.share, tracer)
        result.update(rounds=rounds, attempted=attempted, failures=failures)
        if tracer is not None:
            _per_round_layers(tracer, rounds)
            result["percentiles"] = _percentiles(tracer)
            if args.trace_out:
                tracer.write_jsonl(args.trace_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
