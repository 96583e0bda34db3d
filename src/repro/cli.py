"""Command-line interface: regenerate any of the paper's experiments.

Usage (after ``pip install -e .``)::

    repro-faulty-mem fig2                 # Pcell vs VDD and classical yield
    repro-faulty-mem fig4                 # error magnitude per faulty bit position
    repro-faulty-mem fig5 --samples 100   # MSE CDF / quality-aware yield
    repro-faulty-mem fig6                 # read-path overhead comparison
    repro-faulty-mem fig7 --benchmark knn # application quality CDF
    repro-faulty-mem table1               # benchmark inventory
    repro-faulty-mem dse run --spec g.json     # design-space sweep table
    repro-faulty-mem dse pareto --spec g.json  # energy/quality frontier
    repro-faulty-mem dse report --spec g.json  # iso-quality summary
    repro-faulty-mem store query --store results/   # inspect a result store
    repro-faulty-mem store gc --store results/      # compact it
    repro-faulty-mem store export --store results/ --output r.jsonl

Every command prints a plain-text table to stdout; the benchmark harness under
``benchmarks/`` reuses the same analysis functions.  The two Monte-Carlo sweep
commands (``fig5``, ``fig7``) and ``dse run`` share one option set:
``--workers`` (process fan-out, bit-identical results for any count),
``--sampling legacy|seeded`` (shared-generator replay versus per-die seed
children), ``--scenario`` (fault-scenario pipeline: ``iid-pcell`` default,
``aged``, ``clustered``, ``repaired``, ``transient``, with ``name,key=value``
parameters), ``--access-trace`` (read passes replayed per load for
transient-tier scenarios), and
``--adaptive`` / ``--target-ci`` / ``--max-samples`` (confidence-driven
Monte-Carlo budget: stop sampling once the yield estimate's confidence
half-width reaches the target, instead of burning the full fixed budget).
Adaptive runs append one ``adaptive budget:`` summary line after the table;
fixed-budget output is byte-identical to earlier releases.

The sweep commands also share ``--store`` (persistent result store: warm
re-runs are served from disk bit-identically with zero new die evaluations,
and an interrupted sweep resumes from its recorded progress; ``store:`` status
lines go to stderr so stdout never changes), and the ``store`` command group
inspects and maintains such a store.

``--executor tcp --connect HOST:PORT`` turns any sweep command into a
distributed coordinator: it binds the address and serves shards to workers
started (on any trusted host) with ``python -m repro.sim.worker --connect
HOST:PORT``.  Executor status lines go to stderr too, so stdout stays
byte-identical across inline, process-pool, and TCP execution -- see the
README's "Distributed sweeps" section.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from repro.scenarios import SCENARIO_NAMES, ScenarioSpec

from repro.analysis.figures import (
    figure2_pcell_vs_vdd,
    figure4_error_magnitude,
    figure5_mse_cdf,
    figure6_overhead,
    figure7_quality,
)
from repro.analysis.tables import table1_applications
from repro.dse import (
    DesignSpaceExplorer,
    DseResult,
    ExperimentSpec,
    OptimizerSpec,
    ParetoOptimizer,
)
from repro.sim.engine import AdaptiveBudget, AdaptiveBudgetReport
from repro.sim.experiment import standard_benchmarks
from repro.store.schema import RECORD_KINDS

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _scenario_param_value(text: str) -> object:
    """Parse a scenario parameter value: int, then float, then plain string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _parse_scenario(text: str) -> ScenarioSpec:
    """Parse a ``--scenario`` flag: ``name[,key=value,...]``.

    Examples: ``aged``, ``aged,years=5,temperature_c=85``,
    ``clustered,cluster_size=8``.  The name and parameters are validated by
    building the scenario immediately, so typos fail before any sweep runs.
    """
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("scenario name must not be empty")
    name, params = parts[0], []
    if "=" in name:
        raise argparse.ArgumentTypeError(
            f"scenario name {name!r} must not contain '='; parameters follow "
            f"the name after a comma (e.g. 'aged,years=5')"
        )
    for part in parts[1:]:
        key, separator, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not separator:
            raise argparse.ArgumentTypeError(
                f"scenario parameter {part!r} must have the form key=value"
            )
        if not key:
            raise argparse.ArgumentTypeError(
                f"scenario parameter {part!r} is missing a key before '='"
            )
        if "=" in value:
            raise argparse.ArgumentTypeError(
                f"scenario parameter {part!r} has more than one '='; "
                f"values must not contain '='"
            )
        if not value:
            raise argparse.ArgumentTypeError(
                f"scenario parameter {part!r} is missing a value after '='"
            )
        params.append((key, _scenario_param_value(value)))
    try:
        spec = ScenarioSpec(name=name, params=tuple(params))
        spec.build()
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return spec


def _add_sweep_options(
    parser: argparse.ArgumentParser,
    *,
    include_sampling: bool = True,
) -> None:
    """The option set shared by every Monte-Carlo sweep command.

    ``fig5``, ``fig7``, and ``dse run`` all expose the same ``--workers`` /
    ``--sampling`` / ``--store`` surface (``dse`` omits ``--sampling``:
    the design-space grid always uses the engine's seeded per-die sampling,
    whose master seed lives in the spec file).
    """
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="processes for the Monte-Carlo sweep (results are bit-identical "
        "for any count)",
    )
    if include_sampling:
        parser.add_argument(
            "--sampling",
            choices=["legacy", "seeded"],
            default=None,
            help="fault-map sampling: 'legacy' replays the shared-generator "
            "stream of the serial implementation; 'seeded' derives one "
            "seed-sequence child per die from --seed (the parallel engine's "
            "native mode).  Default: legacy, or seeded when --adaptive is "
            "given (adaptive budgets cannot pre-draw the population)",
        )
    parser.add_argument(
        "--scenario",
        type=_parse_scenario,
        default=None,
        metavar="NAME[,KEY=VALUE...]",
        help="fault-scenario pipeline the die population is drawn through: "
        f"one of {', '.join(SCENARIO_NAMES)}, with optional parameters "
        "(e.g. 'aged,years=5' or 'clustered,cluster_size=8'); default: the "
        "i.i.d. iid-pcell scenario (for dse commands this overrides the "
        "spec file's scenario section)",
    )
    parser.add_argument(
        "--access-trace",
        type=_positive_int,
        default=1,
        metavar="PASSES",
        help="read passes replayed per tensor load for scenarios with a "
        "transient tier (e.g. 'transient,disturb=1e-6,scrub_interval=4'): "
        "read-disturb accumulates across passes and scrubbing fires "
        "periodically, while soft errors strike only the final observed "
        "read; default 1, and values above 1 require a transient scenario",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="confidence-driven Monte-Carlo budget: sample in "
        "Neyman-allocated rounds and stop once the yield estimate's "
        "confidence half-width reaches --target-ci, instead of burning the "
        "full fixed budget; never spends more dies than the fixed budget "
        "unless --max-samples raises the cap",
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="HALF_WIDTH",
        help="target confidence half-width of the adaptive stopping rule "
        "(default 0.02; requires --adaptive)",
    )
    parser.add_argument(
        "--max-samples",
        type=_positive_int,
        default=None,
        metavar="DIES",
        help="total die cap of the adaptive budget (default: the "
        "equivalent fixed budget; requires --adaptive)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result store directory (created if missing): "
        "sweeps whose full configuration hash is already stored are served "
        "from it bit-identically with zero new die evaluations, progress is "
        "recorded after every shard or adaptive round so an interrupted "
        "sweep resumes where it stopped, and computed sweeps are recorded "
        "into it; status lines go to stderr, so stdout stays byte-identical "
        "with and without a warm store",
    )
    parser.add_argument(
        "--executor",
        choices=["local", "tcp"],
        default="local",
        help="shard executor tier: 'local' evaluates shards in a process "
        "pool of --workers (in-process when --workers 1); 'tcp' binds the "
        "--connect address and serves shards to remote workers started "
        "with 'python -m repro.sim.worker --connect HOST:PORT'.  Results "
        "are bit-identical across executors and worker counts",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="rendezvous address of the tcp executor (the coordinator "
        "binds it; workers dial it; requires --executor tcp)",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="shared secret for the tcp handshake; workers must pass the "
        "same --token (guards against accidental connections, not "
        "adversaries; requires --executor tcp)",
    )


def _open_store(args: argparse.Namespace):
    """The ResultStore named by ``--store`` (``None`` when not given)."""
    if getattr(args, "store", None) is None:
        return None
    from repro.store import ResultStore

    return ResultStore(args.store)


def _print_store_events(store) -> None:
    """One stderr status line per store interaction of this command.

    stderr, not stdout: the table a warm re-run prints must stay
    byte-identical to the cold run's.
    """
    for event in store.session_events:
        key = event["key"][:16]
        if event["kind"] == "progress":
            # Progress puts land after every shard or round; only a resume
            # is worth a line.
            if event["type"] == "hit":
                print(
                    f"store: resuming {key} from recorded progress",
                    file=sys.stderr,
                )
        elif event["type"] == "put":
            evaluated = event["meta"].get("evaluated_dies", "?")
            print(
                f"store: recorded {key} ({evaluated} dies evaluated)",
                file=sys.stderr,
            )
        elif event["type"] == "hit":
            print(
                f"store: served {key} from cache (0 dies evaluated)",
                file=sys.stderr,
            )


def _resolve_executor(args: argparse.Namespace):
    """The ExecutorSpec requested by ``--executor``/``--connect``.

    Returns ``None`` for the default local tier (the engine's own default),
    so fixed-budget output stays byte-identical to earlier releases.  The
    tcp note goes to stderr: stdout must not depend on the executor.
    """
    executor = getattr(args, "executor", "local")
    connect = getattr(args, "connect", None)
    token = getattr(args, "token", None)
    if executor != "tcp":
        if connect is not None:
            raise SystemExit("--connect requires --executor tcp")
        if token is not None:
            raise SystemExit("--token requires --executor tcp")
        return None
    if connect is None:
        raise SystemExit(
            "--executor tcp needs a rendezvous address: pass --connect "
            "HOST:PORT and start workers with "
            "'python -m repro.sim.worker --connect HOST:PORT'"
        )
    from repro.sim.executor import ExecutorSpec
    from repro.sim.wire import parse_address

    try:
        host, port = parse_address(connect)
    except ValueError as error:
        raise SystemExit(f"--connect: {error}") from error
    print(
        f"executor: tcp coordinator on {host}:{port} "
        f"(waiting for workers)",
        file=sys.stderr,
    )
    return ExecutorSpec(kind="tcp", host=host, port=port, token=token)


def _resolve_adaptive(args: argparse.Namespace) -> Optional[AdaptiveBudget]:
    """The adaptive budget requested by the flags (``None`` = fixed mode)."""
    if not args.adaptive:
        if args.target_ci is not None:
            raise SystemExit("--target-ci requires --adaptive")
        if args.max_samples is not None:
            raise SystemExit("--max-samples requires --adaptive")
        return None
    kwargs = {"max_total_samples": args.max_samples}
    if args.target_ci is not None:
        kwargs["target_ci"] = args.target_ci
    return AdaptiveBudget(**kwargs)


def _resolve_sampling(args: argparse.Namespace) -> str:
    """The effective sampling mode (adaptive runs default to seeded)."""
    if args.sampling is None:
        return "seeded" if args.adaptive else "legacy"
    if args.adaptive and args.sampling == "legacy":
        raise SystemExit(
            "--adaptive requires --sampling seeded: the adaptive controller "
            "decides the die count as it runs, so the population cannot be "
            "pre-drawn from the legacy shared generator"
        )
    return args.sampling


def _scenario_has_transient(args: argparse.Namespace) -> bool:
    """Whether ``--scenario`` names a pipeline with a per-read transient tier."""
    return args.scenario is not None and args.scenario.build().transient is not None


def _check_access_trace(args: argparse.Namespace) -> None:
    """Fail fast when ``--access-trace`` is raised without a transient tier.

    The engine would reject the configuration too, but with a traceback; the
    CLI turns it into the usual one-line exit.
    """
    if args.access_trace != 1 and not _scenario_has_transient(args):
        raise SystemExit(
            "--access-trace requires a scenario with a transient tier "
            "(e.g. --scenario transient,ser=1e-5): static faults do not "
            "change between read passes"
        )


def _print_adaptive_summary(report: AdaptiveBudgetReport) -> None:
    """One deterministic summary line for adaptive runs (after the table)."""
    status = "reached" if report.reached else "NOT reached (die cap hit)"
    print(
        f"adaptive budget: {report.total_dies} dies in {report.rounds} "
        f"rounds (cap {report.max_total_dies}); target CI "
        f"+/-{report.target_ci:g} {status}: achieved "
        f"+/-{report.achieved_half_width:.4g} at "
        f"{report.confidence:.0%} confidence, yield threshold "
        f"{report.threshold:g}"
    )


def _print_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    widths = [len(h) for h in headers]
    formatted_rows: List[List[str]] = []
    for row in rows:
        formatted = [
            f"{value:.4g}" if isinstance(value, float) else str(value) for value in row
        ]
        formatted_rows.append(formatted)
        widths = [max(w, len(cell)) for w, cell in zip(widths, formatted)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for formatted in formatted_rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(formatted, widths)))


def _cmd_fig2(args: argparse.Namespace) -> int:
    data = figure2_pcell_vs_vdd()
    rows = [
        (f"{v:.3f}", p, y)
        for v, p, y in zip(data["vdd"], data["p_cell"], data["classical_yield"])
    ]
    print("Figure 2: 6T bit-cell failure probability under VDD scaling (28 nm model)")
    _print_table(["VDD [V]", "Pcell", "zero-failure yield (16kB)"], rows)
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    series = figure4_error_magnitude(word_width=args.word_width)
    positions = list(range(args.word_width))
    headers = ["bit position"] + list(series.keys())
    rows = []
    for position in positions:
        rows.append(
            [position] + [float(series[name][position]) for name in series]
        )
    print("Figure 4: worst-case error magnitude per faulty bit position")
    _print_table(headers, rows)
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    if _scenario_has_transient(args):
        raise SystemExit(
            f"--scenario {args.scenario.name} is not supported by fig5: the "
            "analytical MSE evaluation cannot model per-read transient "
            "faults; run it through fig7 (the quality sweep) instead"
        )
    _check_access_trace(args)
    sampling = _resolve_sampling(args)
    adaptive = _resolve_adaptive(args)
    executor = _resolve_executor(args)
    reports: List[AdaptiveBudgetReport] = []
    store = _open_store(args)
    try:
        results = figure5_mse_cdf(
            p_cell=args.p_cell,
            samples_per_count=args.samples,
            rng=np.random.default_rng(args.seed),
            workers=args.workers,
            sampling=sampling,
            master_seed=args.seed if sampling == "seeded" else None,
            scenario=args.scenario,
            adaptive=adaptive,
            report_out=reports,
            store=store,
            access_trace=args.access_trace,
            executor=executor,
        )
    finally:
        if store is not None:
            _print_store_events(store)
            store.close()
    scenario_note = (
        f", scenario {args.scenario.name}" if args.scenario is not None else ""
    )
    print(
        f"Figure 5: quality-aware yield for a 16kB memory at "
        f"Pcell={args.p_cell:g}{scenario_note}"
    )
    mse_targets = [1e0, 1e2, 1e4, 1e6, 1e8]
    headers = ["scheme"] + [f"yield@MSE<={t:g}" for t in mse_targets] + [
        "MSE@99.99% yield"
    ]
    rows = []
    for name, dist in results.items():
        rows.append(
            [name]
            + [dist.yield_at_mse(t) for t in mse_targets]
            + [dist.mse_at_yield(0.9999)]
        )
    _print_table(headers, rows)
    for report in reports:
        _print_adaptive_summary(report)
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    report = figure6_overhead(lut_realisation=args.lut)
    relative = report.relative_to_baseline()
    print(
        "Figure 6: read-path overhead relative to "
        f"{report.baseline} (LUT realisation: {args.lut})"
    )
    headers = ["scheme", "read power", "read delay", "area"]
    rows = [
        [name, rel["read_power"], rel["read_delay"], rel["area"]]
        for name, rel in relative.items()
    ]
    _print_table(headers, rows)
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    benchmarks = standard_benchmarks(scale=args.scale, seed=args.seed)
    if args.benchmark not in benchmarks:
        print(f"unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    benchmark = benchmarks[args.benchmark]
    _check_access_trace(args)
    sampling = _resolve_sampling(args)
    if _scenario_has_transient(args) and sampling == "legacy":
        raise SystemExit(
            f"--scenario {args.scenario.name} requires --sampling seeded: "
            "per-read corruption replays from each die's seed-sequence "
            "child, which the legacy shared-generator population does not "
            "carry"
        )
    adaptive = _resolve_adaptive(args)
    executor = _resolve_executor(args)
    reports: List[AdaptiveBudgetReport] = []
    store = _open_store(args)
    try:
        results = figure7_quality(
            benchmark,
            p_cell=args.p_cell,
            samples_per_count=args.samples,
            n_count_points=args.count_points,
            rng=np.random.default_rng(args.seed),
            workers=args.workers,
            master_seed=args.seed if sampling == "seeded" else None,
            scenario=args.scenario,
            adaptive=adaptive,
            report_out=reports,
            store=store,
            access_trace=args.access_trace,
            executor=executor,
        )
    finally:
        if store is not None:
            _print_store_events(store)
            store.close()
    scenario_note = (
        f", scenario {args.scenario.name}" if args.scenario is not None else ""
    )
    print(
        f"Figure 7 ({args.benchmark}): normalised {benchmark.metric_name} "
        f"under memory failures at Pcell={args.p_cell:g}{scenario_note}"
    )
    quality_targets = [0.5, 0.8, 0.9, 0.95, 0.99]
    headers = ["scheme"] + [f"yield@Q>={q}" for q in quality_targets] + ["median Q"]
    rows = []
    for name, dist in results.items():
        rows.append(
            [name]
            + [dist.yield_at_quality(q) for q in quality_targets]
            + [dist.median_quality()]
        )
    _print_table(headers, rows)
    for report in reports:
        _print_adaptive_summary(report)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_applications(scale=args.scale)
    print("Table 1: evaluation applications and datasets")
    _print_table(
        ["class", "algorithm", "dataset", "metric", "train", "test", "clean quality"],
        [
            [
                r["class"],
                r["algorithm"],
                r["dataset"],
                r["metric"],
                r["train_samples"],
                r["test_samples"],
                float(r["clean_quality"]),
            ]
            for r in rows
        ],
    )
    return 0


# --------------------------------------------------------------------------- #
# Design-space exploration commands
# --------------------------------------------------------------------------- #
_DSE_TABLE_COLUMNS = (
    "benchmark",
    "scheme",
    "vdd",
    "p_cell",
    "energy_saving",
    "total_read_energy_fj",
    "leakage_power_nw",
    "overhead_area_um2",
    "quality_at_yield",
    "median_quality",
    "yield_q90",
)

_DSE_TABLE_HEADERS = (
    "benchmark",
    "scheme",
    "VDD [V]",
    "Pcell",
    "E saving",
    "read E [fJ]",
    "leakage [nW]",
    "area ovh [um2]",
    "Q@yield",
    "median Q",
    "yield@Q>=0.9",
)


def _print_dse_rows(rows: Sequence[dict]) -> None:
    _print_table(
        _DSE_TABLE_HEADERS,
        [[row[column] for column in _DSE_TABLE_COLUMNS] for row in rows],
    )


def _dse_result(args: argparse.Namespace) -> DseResult:
    """The result table a dse subcommand operates on (run the spec, or load)."""
    if getattr(args, "table", None) is not None:
        if args.scenario is not None:
            raise SystemExit(
                "--scenario cannot be applied to a previously written "
                "--table; re-run 'dse run --spec ... --scenario ...'"
            )
        if args.adaptive or args.target_ci is not None or args.max_samples is not None:
            raise SystemExit(
                "--adaptive cannot be applied to a previously written "
                "--table; re-run 'dse run --spec ... --adaptive'"
            )
        if args.store is not None:
            raise SystemExit(
                "--store cannot be applied to a previously written --table "
                "(the table bypasses the sweep); re-run "
                "'dse run --spec ... --store ...'"
            )
        if args.access_trace != 1:
            raise SystemExit(
                "--access-trace cannot be applied to a previously written "
                "--table; re-run 'dse run --spec ... --access-trace ...'"
            )
        if (
            args.executor != "local"
            or args.connect is not None
            or args.token is not None
        ):
            raise SystemExit(
                "--executor/--connect cannot be applied to a previously "
                "written --table (the table bypasses the sweep); re-run "
                "'dse run --spec ... --executor tcp --connect ...'"
            )
        return DseResult.load(args.table)
    if args.spec is None:
        raise SystemExit("either --spec or --table is required")
    spec = ExperimentSpec.from_file(args.spec)
    if args.scenario is not None:
        spec = replace(spec, scenario=args.scenario)
    if args.access_trace != 1:
        # replace() re-runs __post_init__, so a spec whose scenario lacks a
        # transient tier fails eagerly here rather than mid-sweep.
        try:
            spec = replace(spec, access_trace=args.access_trace)
        except ValueError as error:
            raise SystemExit(f"--access-trace: {error}") from error
    if args.adaptive or spec.budget.mode == "adaptive":
        # The flags overlay the spec's budget section; values the user did
        # not pass stay as the spec wrote them (a spec's target_ci must not
        # silently reset to the default just because --adaptive was given).
        overrides: dict = {"mode": "adaptive"}
        if args.target_ci is not None:
            overrides["target_ci"] = args.target_ci
        if args.max_samples is not None:
            overrides["max_samples"] = args.max_samples
        spec = replace(spec, budget=replace(spec.budget, **overrides))
    elif args.target_ci is not None or args.max_samples is not None:
        raise SystemExit(
            "--target-ci/--max-samples require --adaptive (or an adaptive "
            "budget section in the spec file)"
        )
    store = _open_store(args)
    try:
        explorer = DesignSpaceExplorer(
            spec,
            workers=args.workers,
            store=store,
            executor=_resolve_executor(args),
        )
        return explorer.run()
    finally:
        if store is not None:
            _print_store_events(store)
            store.close()


def _cmd_dse_run(args: argparse.Namespace) -> int:
    result = _dse_result(args)
    spec = result.spec
    print(
        f"Design-space sweep: {len(spec.operating_points())} operating points x "
        f"{len(spec.scheme_grid.specs)} schemes x "
        f"{len(spec.benchmarks.names)} benchmarks "
        f"(scenario {spec.scenario.name}, "
        f"quality at yield target {spec.quality_yield_target:g})"
    )
    _print_dse_rows(result.rows)
    if args.output is not None:
        result.save(args.output)
        print(f"wrote {len(result.rows)} rows to {args.output}")
    return 0


def _cmd_dse_pareto(args: argparse.Namespace) -> int:
    result = _dse_result(args)
    frontier = result.pareto(benchmark=args.benchmark)
    scope = args.benchmark if args.benchmark is not None else "all benchmarks"
    print(
        f"Pareto frontier (total read energy vs. quality at "
        f"{result.spec.quality_yield_target:g} yield, {scope}): "
        f"{len(frontier)} of {len(result.rows)} points"
    )
    _print_dse_rows(frontier)
    return 0


def _cmd_dse_report(args: argparse.Namespace) -> int:
    result = _dse_result(args)
    spec = result.spec
    print(
        f"Design-space report: {len(result.rows)} grid points, "
        f"benchmarks: {', '.join(result.benchmarks())}"
    )
    print()
    print(
        f"Pareto-optimal operating points (energy vs. quality at "
        f"{spec.quality_yield_target:g} yield):"
    )
    _print_dse_rows(result.pareto())
    for target in (0.90, 0.95, 0.99):
        rows = result.energy_at_iso_quality(target)
        print()
        print(
            f"Cheapest operating point per scheme with quality@yield >= "
            f"{target:g} ({len(rows)} schemes qualify):"
        )
        if rows:
            _print_dse_rows(rows)
    return 0


def _cmd_dse_optimize(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_file(args.spec)
    base = spec.optimizer if spec.optimizer is not None else OptimizerSpec()
    overrides: dict = {}
    if args.rungs is not None:
        overrides["rungs"] = args.rungs
    if args.eta is not None:
        overrides["eta"] = args.eta
    if args.frontier_slack is not None:
        overrides["frontier_slack"] = args.frontier_slack
    if args.rung0_dies is not None:
        overrides["rung0_dies"] = args.rung0_dies
    if args.target_ci is not None:
        overrides["target_ci"] = args.target_ci
    try:
        optimizer = replace(base, **overrides) if overrides else base
    except ValueError as error:
        raise SystemExit(f"invalid optimizer parameters: {error}") from error
    store = _open_store(args)
    try:
        result = ParetoOptimizer(
            spec,
            optimizer=optimizer,
            workers=args.workers,
            store=store,
            executor=_resolve_executor(args),
        ).run()
    finally:
        if store is not None:
            _print_store_events(store)
            store.close()
    print(
        f"Budgeted Pareto optimization: {optimizer.rungs} rungs "
        f"(eta {optimizer.eta:g}, target CI {optimizer.target_ci:g}, "
        f"frontier slack {optimizer.frontier_slack:g})"
    )
    print(
        f"dies: {result.total_dies} "
        f"({result.evaluated_dies} evaluated this run, "
        f"{result.store_hits} rungs served from the store); "
        f"exhaustive sweep: {result.exhaustive_dies} dies "
        f"({result.savings_ratio():.1f}x saving)"
    )
    frontier = result.frontier()
    print(
        f"recovered frontier: {len(frontier)} of {len(result.rows)} grid "
        f"points survive (quality at {spec.quality_yield_target:g} yield)"
    )
    _print_dse_rows(frontier)
    if result.prune_log:
        print()
        print(f"pruned rows ({len(result.prune_log)}):")
        for event in result.prune_log:
            print(
                f"  rung {event.rung}: {event.scheme}@{event.vdd:g}V "
                f"(q <= {event.quality_hi:.4f}) dominated by "
                f"{event.by_scheme}@{event.by_vdd:g}V "
                f"(q >= {event.by_quality_lo:.4f} at <= energy)"
            )
    if args.output is not None:
        result.save(args.output)
        print(f"wrote {len(result.rows)} rows to {args.output}")
    return 0


# --------------------------------------------------------------------------- #
# Result-store maintenance commands
# --------------------------------------------------------------------------- #
def _existing_store(path: str):
    """Open a store that must already exist (maintenance commands never
    create one as a side effect of a typo'd path)."""
    from repro.store import ResultStore, StoreError

    try:
        return ResultStore(path, create=False)
    except StoreError as error:
        raise SystemExit(str(error)) from error


def _cmd_store_query(args: argparse.Namespace) -> int:
    with _existing_store(args.store) as store:
        records = store.query(kind=args.kind, key_prefix=args.key)
        if args.count:
            print(len(records))
            return 0
        print(
            f"Result store {store.root}: {len(records)} live record(s)"
            + (f" of kind {args.kind}" if args.kind else "")
            + (f" with key prefix {args.key}" if args.key else "")
        )
        rows = [
            [
                record["key"][:16],
                record["kind"],
                record["seq"],
                record["meta"].get("benchmark") or "-",
                record["meta"].get("p_cell", "-"),
                record["meta"].get("evaluated_dies", "-"),
                record["meta"].get("total_dies", "-"),
            ]
            for record in records
        ]
        _print_table(
            ["key", "kind", "seq", "benchmark", "p_cell", "evaluated", "dies"],
            rows,
        )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    with _existing_store(args.store) as store:
        summary = store.gc()
    print(
        f"store gc: kept {summary['kept']} record(s), dropped "
        f"{summary['dropped']} superseded, removed "
        f"{summary['segments_removed']} segment(s)"
    )
    return 0


def _cmd_store_export(args: argparse.Namespace) -> int:
    from repro.store import StoreError

    with _existing_store(args.store) as store:
        try:
            count = store.export(args.output, format=args.format)
        except StoreError as error:
            raise SystemExit(str(error)) from error
    print(f"store export: wrote {count} record(s) to {args.output} ({args.format})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-faulty-mem",
        description="Regenerate the experiments of the DAC'15 bit-shuffling paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig2", help="Pcell vs VDD and classical yield").set_defaults(
        func=_cmd_fig2
    )

    p4 = sub.add_parser("fig4", help="error magnitude per faulty bit position")
    p4.add_argument("--word-width", type=int, default=32)
    p4.set_defaults(func=_cmd_fig4)

    p5 = sub.add_parser("fig5", help="MSE CDF / quality-aware yield")
    p5.add_argument("--p-cell", type=float, default=5e-6)
    p5.add_argument("--samples", type=int, default=200)
    p5.add_argument("--seed", type=int, default=2015)
    _add_sweep_options(p5)
    p5.set_defaults(func=_cmd_fig5)

    p6 = sub.add_parser("fig6", help="read-path overhead comparison")
    p6.add_argument("--lut", choices=["column", "register"], default="column")
    p6.set_defaults(func=_cmd_fig6)

    p7 = sub.add_parser("fig7", help="application quality CDF")
    p7.add_argument("--benchmark", choices=["elasticnet", "pca", "knn"], default="knn")
    p7.add_argument("--p-cell", type=float, default=1e-3)
    p7.add_argument("--samples", type=int, default=5)
    p7.add_argument("--count-points", type=int, default=8)
    p7.add_argument("--scale", type=float, default=0.5)
    p7.add_argument("--seed", type=int, default=52)
    _add_sweep_options(p7)
    p7.set_defaults(func=_cmd_fig7)

    pt = sub.add_parser("table1", help="benchmark inventory")
    pt.add_argument("--scale", type=float, default=0.5)
    pt.set_defaults(func=_cmd_table1)

    pd = sub.add_parser(
        "dse",
        help="cross-layer design-space exploration (energy/quality/overhead)",
    )
    dse_sub = pd.add_subparsers(dest="dse_command", required=True)

    def _add_dse_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--spec",
            default=None,
            help="ExperimentSpec JSON file describing the sweep grid",
        )
        parser.add_argument(
            "--table",
            default=None,
            help="result table previously written by 'dse run --output' "
            "(skips re-running the sweep)",
        )
        _add_sweep_options(parser, include_sampling=False)

    pd_run = dse_sub.add_parser(
        "run", help="sweep the grid and print the joined result table"
    )
    _add_dse_options(pd_run)
    pd_run.add_argument(
        "--output",
        default=None,
        help="write the result table as JSON (input for 'dse pareto --table')",
    )
    pd_run.set_defaults(func=_cmd_dse_run)

    pd_pareto = dse_sub.add_parser(
        "pareto", help="energy / quality-at-yield Pareto frontier"
    )
    _add_dse_options(pd_pareto)
    pd_pareto.add_argument(
        "--benchmark",
        default=None,
        help="restrict the frontier to one benchmark (default: every "
        "benchmark, each with its own frontier)",
    )
    pd_pareto.set_defaults(func=_cmd_dse_pareto)

    pd_report = dse_sub.add_parser(
        "report", help="Pareto frontier plus energy-at-iso-quality summary"
    )
    _add_dse_options(pd_report)
    pd_report.set_defaults(func=_cmd_dse_report)

    pd_opt = dse_sub.add_parser(
        "optimize",
        help="budgeted frontier recovery: surrogate-ordered successive "
        "halving with CI-band pruning (same frontier as 'dse pareto' for a "
        "fraction of the dies)",
    )
    pd_opt.add_argument(
        "--spec",
        required=True,
        help="ExperimentSpec JSON file describing the sweep grid (an "
        "'optimizer' section supplies defaults the flags below override)",
    )
    pd_opt.add_argument(
        "--rungs",
        type=_positive_int,
        default=None,
        help="successive-halving rungs (default 3, or the spec's)",
    )
    pd_opt.add_argument(
        "--eta",
        type=float,
        default=None,
        help="die-cap growth factor between rungs (default 2, or the spec's)",
    )
    pd_opt.add_argument(
        "--frontier-slack",
        type=float,
        default=None,
        metavar="QUALITY",
        help="extra quality-band separation required before a row is pruned "
        "(default 0; larger values prune less and guard the frontier harder)",
    )
    pd_opt.add_argument(
        "--rung0-dies",
        type=_positive_int,
        default=None,
        metavar="DIES",
        help="per-cell die cap of rung 0 (default: two dies per failure "
        "count, the adaptive probe's minimum)",
    )
    pd_opt.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="HALF_WIDTH",
        help="confidence half-width at which a cell's probe stops early "
        "(default 0.02, or the spec's optimizer section)",
    )
    pd_opt.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="processes per probe sweep (results are bit-identical for any "
        "count)",
    )
    pd_opt.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result store: finished rungs are recorded as "
        "dse-rung records and replayed on re-runs with zero die "
        "evaluations, so an interrupted run resumes at its last finished "
        "rung; warm rows also seed the rung-0 surrogate ordering",
    )
    pd_opt.add_argument(
        "--executor",
        choices=["local", "tcp"],
        default="local",
        help="shard executor tier of every probe (see 'dse run --executor')",
    )
    pd_opt.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="rendezvous address of the tcp executor (requires --executor tcp)",
    )
    pd_opt.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="shared secret for the tcp handshake (requires --executor tcp)",
    )
    pd_opt.add_argument(
        "--output",
        default=None,
        help="write the full audit table (rows, prune log, adaptive "
        "reports) as JSON",
    )
    pd_opt.set_defaults(func=_cmd_dse_optimize)

    ps = sub.add_parser(
        "store",
        help="inspect and maintain a persistent result store "
        "(see --store on fig5/fig7/dse)",
    )
    store_sub = ps.add_subparsers(dest="store_command", required=True)

    def _add_store_root(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--store",
            required=True,
            metavar="DIR",
            help="result store directory (must already exist)",
        )

    ps_query = store_sub.add_parser(
        "query", help="list the live (latest-per-key) records"
    )
    _add_store_root(ps_query)
    ps_query.add_argument(
        "--kind",
        choices=RECORD_KINDS,
        default=None,
        help="only records of this evaluation kind",
    )
    ps_query.add_argument(
        "--key",
        default=None,
        metavar="PREFIX",
        help="only records whose configuration hash starts with PREFIX",
    )
    ps_query.add_argument(
        "--count",
        action="store_true",
        help="print only the number of matching records",
    )
    ps_query.set_defaults(func=_cmd_store_query)

    ps_gc = store_sub.add_parser(
        "gc", help="compact the store (keep the newest record per key)"
    )
    _add_store_root(ps_gc)
    ps_gc.set_defaults(func=_cmd_store_gc)

    ps_export = store_sub.add_parser(
        "export", help="export the live records to a file"
    )
    _add_store_root(ps_export)
    ps_export.add_argument(
        "--output", required=True, metavar="FILE", help="output file path"
    )
    ps_export.add_argument(
        "--format",
        choices=["jsonl", "csv", "parquet"],
        default="jsonl",
        help="jsonl = full records (lossless); csv/parquet = flat summary "
        "table (parquet requires pyarrow)",
    )
    ps_export.set_defaults(func=_cmd_store_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
