"""End-to-end sweep benchmark of the fault-injection stack.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig7-apps --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

Every sample runs in a fresh ``perfbench/worker.py`` process, one at a time
(a closed loop with one client, ``workers=1`` and the inline executor).  A
warm-up process first builds what a checkout lacks (the C kernel library and
bytecode), then:

* ``--trace 0`` times set-up in seven fresh processes and measures in the
  last two of them, each for half of ``--seconds``; it prints the end-to-end
  metrics of ``BENCHMARK.json``;
* ``--trace 1`` measures once untraced and once with the layer wrappers
  installed, each for half of ``--seconds``; it prints the per-layer metrics
  (calls and other counts, and each layer's self time as a share of the
  round) and ``trace.overhead_s`` (traced minus untraced round time), and
  writes the spans as JSONL under ``.perfbench/traces/``.

Each metric is the median over rounds (a round is a cold and a warm pass over
the workload's jobs).  Every job's output is checked against the stored
reference; a mismatch or an exception counts as a failed job and makes the
command exit 1.  The full result, with the environment block, per-job times
and the per-call percentiles, is written under ``.perfbench/results/``.  The
last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("fig7-apps", "fig7-transient", "fig5-mse", "dse-optimize-store")
SETUP_ONLY = 5
MEASURING = 2
DEADLINE_S = 170.0
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def validate_metric_names(names) -> None:
    for name in names:
        if not METRIC_NAME.match(name):
            raise BenchmarkError(f"invalid metric name {name!r}")


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    validate_metric_names(m["name"] for m in end_to_end + per_layer)
    return end_to_end, per_layer


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError(f"no source tree at {os.path.join(ROOT, 'src')}")


class Runner:
    """Spawns workers one at a time within the run's deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            REPRO_KERNEL_CACHE=os.path.join(WORK, "kernels"),
            TMPDIR=os.path.join(WORK, "tmp"),
            # One busy core: BLAS threads would otherwise spin on the second
            # core for these small matrices and add its contention to the timing.
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.count = 0

    def spawn(self, mode: str, share: float = 0.0, trace_out: str = "") -> dict:
        self.count += 1
        scratch = os.path.join(WORK, "tmp", f"{self.workload}-{self.count}")
        out = os.path.join(scratch, "result.json")
        os.makedirs(scratch, exist_ok=True)
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--share", repr(share), "--scratch", scratch, "--out", out,
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        try:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise BenchmarkError("out of time before starting a worker")
            try:
                completed = subprocess.run(
                    command, env=self.env, cwd=ROOT, timeout=remaining,
                    stdout=sys.stderr, stderr=sys.stderr,
                )
            except subprocess.TimeoutExpired as error:
                raise BenchmarkError(f"{mode} worker overran the deadline") from error
            if completed.returncode != 0:
                raise BenchmarkError(f"{mode} worker exited {completed.returncode}")
            with open(out, "r", encoding="utf-8") as handle:
                return json.load(handle)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def end_to_end_metrics(setups, measured) -> dict:
    rounds = [r for worker in measured for r in worker["rounds"]]
    cold = [r["cold"] for r in rounds]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([p["wall_s"] for p in cold]),
        "warm_s": statistics.median([r["warm"]["wall_s"] for r in rounds]),
        "cpu_s": statistics.median([p["cpu_s"] for p in cold]),
        "dies_evaluated": statistics.median_low([p["dies"] for p in cold]),
        "dies_per_s": statistics.median([p["dies"] / p["wall_s"] for p in cold]),
        "peak_rss_mb": statistics.median([w["peak_rss_mb"] for w in measured]),
    }


def per_layer_metrics(untraced, traced) -> dict:
    rounds = traced["rounds"]
    # median_low keeps counts whole: every round of a run does the same work.
    metrics = {
        name: statistics.median_low([r["trace_layers"][name] for r in rounds])
        for name in rounds[0]["trace_layers"]
    }
    metrics["trace.overhead_s"] = statistics.median([r["round_s"] for r in rounds]) - statistics.median(
        [r["round_s"] for r in untraced["rounds"]]
    )
    return metrics


def job_times(measured) -> dict:
    """Median time of each job in each pass."""
    times = {}
    for worker in measured:
        for record in worker["rounds"]:
            for pass_name in ("cold", "warm"):
                for job, seconds in record[pass_name]["jobs"].items():
                    times.setdefault(f"job.{job}.{pass_name}_s", []).append(seconds)
    return {name: statistics.median(values) for name, values in times.items()}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, specs) -> dict:
    runner = Runner(workload, seed)
    warmup = runner.spawn("setup")
    if trace:
        untraced = runner.spawn("measure", seconds / 2)
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_path = os.path.join(WORK, "traces", f"{workload}-seed{seed}.jsonl")
        traced = runner.spawn("trace", seconds / 2, trace_path)
        measured = [untraced, traced]
        metrics = per_layer_metrics(untraced, traced)
        extra = {
            "percentiles": traced["percentiles"],
            "trace_file": trace_path,
            "layer_medians": metrics,
        }
    else:
        setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_ONLY)]
        measured = [runner.spawn("measure", seconds / MEASURING) for _ in range(MEASURING)]
        setups += [worker["setup_s"] for worker in measured]
        metrics = end_to_end_metrics(setups, measured)
        extra = {"setup_samples": setups}
    wanted = [m["name"] for m in specs]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchmarkError(f"{workload}: no value for {', '.join(missing)}")
    attempted = sum(w["attempted"] for w in measured)
    failures = [f for w in measured for f in w["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "slot": warmup["slot"],
        "seconds": seconds,
        "trace": int(trace),
        "env": warmup["env"],
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "failures": failures,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs
        },
        "job_times_s": job_times(measured),
        "pass_s": [
            [[r["cold"]["wall_s"], r["warm"]["wall_s"]] for r in w["rounds"]]
            for w in measured
        ],
        **extra,
    }


def print_table(result) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, input slot {result['slot']}, "
          f"trace {result['trace']})")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':36s} {result['error_rate']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs failed)")
    for name, entry in result.get("percentiles", {}).items():
        print(f"  {name:36s} {entry['value']:>16.6g} (of {entry['count']} calls)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end sweep benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the worker being
    # waited on is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        check_checkout()
        end_to_end, per_layer = load_metric_specs()
        specs = per_layer if args.trace else end_to_end
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), specs)
            for name in names
        ]
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    for result in results:
        path = os.path.join(
            WORK, "results", f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        print_table(result)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (
            results[0]["metrics"]
            if len(results) == 1
            else {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
        ),
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
