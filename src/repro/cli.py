"""``python -m repro`` — run any experiment from the command line.

Examples::

    python -m repro run e1 --machine kraken --full-scale --format csv
    python -m repro run e2 --replications 30 --format csv
    python -m repro run e3 --backend reference --seed 7
    python -m repro run e6 --format json
    python -m repro run e9 --workload "app=bg,ranks=1152,arrival=burst" --trace traces/
    python -m repro serve --cells 16 --passes 8 --compare-inline
    python -m repro machines
    python -m repro approaches
    python -m repro workloads
    python -m repro bench --filter micro --json out.json
    python -m repro bench --baseline benchmarks/baseline.json --max-regression 25

``run`` builds a :class:`~repro.scenario.ScenarioConfig` from the flags
(environment variables fill whatever the flags leave out), executes the
experiment's runner, optionally applies its shape check, and prints the
resulting table(s) as text, CSV or JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections.abc import Callable, Sequence

from . import experiments
from .analyze.cli import add_analyze_parser, run_analyze
from .bench.cli import add_bench_parser, run_bench
from .engine import backend_names, machine_names, resolve_machine, set_default_backend
from .io_models import approach_names, resolve_approach
from .scenario import FULL_SCALE_RANKS, ScenarioConfig
from .serve.cli import add_serve_parser, run_serve
from .table import Table
from .workloads import arrival_process_names, resolve_arrival_process

__all__ = ["main"]


def _e1(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    table = experiments.run_weak_scaling(
        scales=sc.ladder,
        data_per_rank=sc.data_per_rank,
        compute_time=300.0,
        machine=sc.machine,
        seed=sc.seed,
        n_jobs=sc.jobs,
        replications=sc.replications,
    )
    return {"weak_scaling": table}


def _e2(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    ranks = 2304 if sc.full_scale else 1152
    table = experiments.run_variability(
        ranks=ranks,
        data_per_rank=sc.data_per_rank,
        compute_time=120.0,
        with_interference=True,
        interference=sc.interference,
        machine=sc.machine,
        seed=sc.seed,
        replications=sc.replications,
    )
    return {"variability": table}


def _e3(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    ranks = FULL_SCALE_RANKS if sc.full_scale else 2304
    table = experiments.run_throughput(
        ranks=ranks,
        data_per_rank=sc.data_per_rank,
        compute_time=120.0,
        machine=sc.machine,
        seed=sc.seed,
        replications=sc.replications,
    )
    return {"throughput": table}


def _e4(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    table = experiments.run_spare_time(
        scales=sc.ladder,
        data_per_rank=sc.data_per_rank,
        compute_time=300.0,
        machine=sc.machine,
        seed=sc.seed,
        replications=sc.replications,
    )
    return {"spare_time": table}


def _e5(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    table = experiments.run_compression(output_dir=output_dir, machine=sc.machine, seed=sc.seed)
    return {"compression": table}


def _e6(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    if sc.full_scale:
        machine, ranks = sc.machine, FULL_SCALE_RANKS
    else:
        # The scheduling claim needs writers to outnumber OSTs; reach the
        # over-subscribed regime cheaply by shrinking the file system.
        machine, ranks = sc.machine.with_overrides(ost_count=96), 2304
    table = experiments.run_scheduling(
        ranks=ranks,
        machine=machine,
        data_per_rank=sc.data_per_rank,
        compute_time=120.0,
        seed=sc.seed,
        replications=sc.replications,
    )
    return {"scheduling": table}


def _e7(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    scales = (92, 184, 368, 736) if sc.full_scale else (92, 184, 368)
    return {
        "insitu_scaling": experiments.run_insitu_scaling(
            scales=scales, machine=sc.machine, seed=sc.seed, replications=sc.replications
        ),
        "insitu_backpressure": experiments.run_insitu_backpressure(machine=sc.machine),
    }


def _e8(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    return {"usability": experiments.run_usability(output_dir=output_dir)}


def _e9(sc: ScenarioConfig, output_dir: str) -> dict[str, Table]:
    ranks = 2304 if sc.full_scale else 1152
    table = experiments.run_app_interference(
        ranks=ranks,
        data_per_rank=sc.data_per_rank,
        compute_time=120.0,
        machine=sc.machine,
        seed=sc.seed,
        background=sc.workload,
        n_jobs=sc.jobs,
        trace_dir=sc.trace,
        replications=sc.replications,
    )
    return {"app_interference": table}


_CHECKS: dict[str, Callable[[Table], None]] = {
    "weak_scaling": experiments.check_scaling_shape,
    "variability": experiments.check_variability_shape,
    "throughput": experiments.check_throughput_shape,
    "spare_time": experiments.check_spare_time_shape,
    "compression": experiments.check_compression_shape,
    "scheduling": experiments.check_scheduling_shape,
    "insitu_scaling": experiments.check_insitu_shape,
    "usability": experiments.check_usability_shape,
    "app_interference": experiments.check_app_interference_shape,
}

_EXPERIMENTS: dict[str, Callable[[ScenarioConfig, str], dict[str, Table]]] = {
    "e1": _e1,
    "e2": _e2,
    "e3": _e3,
    "e4": _e4,
    "e5": _e5,
    "e6": _e6,
    "e7": _e7,
    "e8": _e8,
    "e9": _e9,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments against the simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and print its table(s)")
    run.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    run.add_argument("--machine", default=None, help=f"one of: {', '.join(machine_names())}")
    run.add_argument("--full-scale", action="store_true", help="add the 9216-rank points")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--data-per-rank-mb", type=float, default=None)
    run.add_argument("--backend", choices=backend_names(), default=None)
    run.add_argument(
        "--jobs", type=int, default=None, help="process-pool width for the e1 and e9 sweeps"
    )
    run.add_argument(
        "--replications",
        type=int,
        default=None,
        metavar="N",
        help="independently-seeded replications per cell; > 1 adds "
        "mean/std/cv/p95 and bootstrap-CI columns (stochastic experiments)",
    )
    run.add_argument("--format", choices=("text", "csv", "json"), default="text")
    run.add_argument(
        "--output-dir", default=None, help="artifact directory for e5/e8 (default: temp)"
    )
    run.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="background workload for e9 (app=bg,ranks=1152,data_mb=45,arrival=burst,...)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="directory e9 records per-cell request traces into (JSONL)",
    )
    run.add_argument("--check", action="store_true", help="also apply the experiment's shape check")

    sub.add_parser("machines", help="list registered machines")
    sub.add_parser("approaches", help="list registered I/O approaches")
    sub.add_parser("workloads", help="list registered arrival processes + workload spec syntax")
    add_serve_parser(sub)
    add_bench_parser(sub)
    add_analyze_parser(sub)
    return parser


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    env = dict(os.environ)
    if args.machine is not None:
        env["REPRO_MACHINE"] = args.machine
    if args.full_scale:
        env["REPRO_FULL_SCALE"] = "1"
    if args.seed is not None:
        env["REPRO_SEED"] = str(args.seed)
    if args.data_per_rank_mb is not None:
        env["REPRO_DATA_PER_RANK_MB"] = str(args.data_per_rank_mb)
    if args.backend is not None:
        env["REPRO_ENGINE"] = args.backend
    if args.jobs is not None:
        env["REPRO_JOBS"] = str(args.jobs)
    if args.replications is not None:
        env["REPRO_REPLICATIONS"] = str(args.replications)
    if args.workload is not None:
        env["REPRO_WORKLOAD"] = args.workload
    if args.trace is not None:
        env["REPRO_TRACE"] = args.trace
    return ScenarioConfig.from_env(env)


def _render(name: str, table: Table, fmt: str, multiple: bool) -> str:
    if fmt == "csv":
        body = table.to_csv()
    elif fmt == "json":
        body = table.to_json(indent=2) + "\n"
    else:
        body = table.to_text() + "\n"
    if multiple:
        return f"# {name}\n{body}"
    return body


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "machines":
        for name in machine_names():
            machine = resolve_machine(name)
            print(
                f"{name}: {machine.cores_per_node} cores/node, "
                f"{machine.ost_count} OSTs, peak {machine.peak_bandwidth / (1024**3):.1f} GiB/s"
            )
        return 0
    if args.command == "approaches":
        for name in approach_names():
            doc = (type(resolve_approach(name)).__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name}: {summary}" if summary else name)
        return 0
    if args.command == "workloads":
        print("arrival processes:")
        for name in arrival_process_names():
            doc = (type(resolve_arrival_process(name)).__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"  {name}: {summary}" if summary else f"  {name}")
        print()
        print("workload spec (REPRO_WORKLOAD / --workload):")
        print("  app=background,ranks=1152,data_mb=45,arrival=burst,approach=file-per-process")
        return 0
    if args.command == "serve":
        return run_serve(args)
    if args.command == "bench":
        return run_bench(args)
    if args.command == "analyze":
        return run_analyze(args)

    scenario = _scenario_from_args(args)
    if scenario.backend is not None:
        set_default_backend(scenario.backend)

    if args.output_dir is not None:
        tables = _EXPERIMENTS[args.experiment](scenario, args.output_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-") as output_dir:
            tables = _EXPERIMENTS[args.experiment](scenario, output_dir)

    multiple = len(tables) > 1
    for name, table in tables.items():
        sys.stdout.write(_render(name, table, args.format, multiple))
        if args.check and name in _CHECKS:
            _CHECKS[name](table)
    return 0
