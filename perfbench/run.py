"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in,
and the workloads, metric names and units are read from its
``BENCHMARK.json``.  Set-up is measured in ``SETUP_SAMPLES`` fresh interpreters (the last of
which goes on to run the timed loop), and ``setup_s`` is their median.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A results file with the same
numbers, every op time and the run's provenance is written to
``perfbench/results/``.  The exit code is 0 only if every op passed its
output checks.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters that set up the workload per run; the median is setup_s.
SETUP_SAMPLES = 5
#: Everything, set-up samples included, must end within this many seconds.
BUDGET_S = 170.0
#: Longest timed loop that leaves room in BUDGET_S for the set-up samples
#: and the ground-truth recomputation after the loop.
MAX_SECONDS = 120.0
#: The measuring process runs on one CPU's worth of work: no pools, no threads.
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "REPRO_SERVE_WORKERS": "1",
    "REPRO_SOLVE_SHARDS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    return env


def _spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict[str, dict[str, Any]]:
    """One measuring process; returns its events by name."""
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--mode",
        mode,
        "--spawned-at",
        repr(time.time()),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("time budget exhausted before the run finished")
    env = _child_env()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError(f"{mode} process exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    events = {}
    for line in out.splitlines():
        if line.startswith("{"):
            event = json.loads(line)
            events[event.pop("event")] = event
    return events


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(result: dict[str, Any], setup_s: float) -> dict[str, float]:
    op_s = result["op_s"]
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p90_ms": _percentile(op_s, 90) * 1e3,
        "sim_requests_per_s": result["requests_per_op"] * len(op_s) / sum(op_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def spec() -> dict[str, Any]:
    """The checkout's ``BENCHMARK.json``."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {path}: {error}") from None


def units(trace: bool) -> dict[str, str]:
    """Unit of each metric the run reports, in ``BENCHMARK.json`` order."""
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def collect(
    result: dict[str, Any], setups: list[dict[str, float]], trace: bool
) -> dict[str, float]:
    """The run's metrics: per-layer when traced, end-to-end otherwise.

    ``setups`` holds one set-up sample per fresh interpreter; set-up
    figures are their medians.
    """
    if trace:
        metrics = dict(result["per_layer"])
        for part in ("import_s", "inputs_s", "warmup_s"):
            metrics[f"setup.{part}"] = statistics.median(s[part] for s in setups)
    else:
        metrics = _end_to_end(result, statistics.median(s["setup_s"] for s in setups))
    return {name: metrics[name] for name in units(trace)}


def _print_report(
    args: argparse.Namespace,
    result: dict[str, Any],
    metrics: dict[str, float],
    unit: dict[str, str],
) -> None:
    op_s = result["op_s"]
    p90 = _percentile(op_s, 90)
    beyond_p90 = sum(t > p90 for t in op_s)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"ops: {result['attempted']} attempted, {result['failed']} failed "
        f"(failed_op_ratio {result['failed'] / result['attempted']:.4f}), "
        f"{result['verified']} recomputed on the ground-truth path, "
        f"{result['inexact_values']} values equal only within tolerance"
    )
    print(f"op-time samples: {len(op_s)} untraced ops, {beyond_p90} beyond p90")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit[name]}")
    if "spans" in result:
        op_total = result["spans"]["op"]["inclusive_s"]
        print(
            f"  {'span (per traced op)':<24} {'calls':>9} {'incl ms':>10} "
            f"{'self ms':>10} {'self %':>7}"
        )
        for name, row in result["spans"].items():
            share = 100 * row["self_s"] / op_total if op_total else 0.0
            print(
                f"  {name:<24} {row['calls']:>9.1f} {row['inclusive_s'] * 1e3:>10.3f} "
                f"{row['self_s'] * 1e3:>10.3f} {share:>7.2f}"
            )


def run(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    setups = [_spawn(args, "setup", deadline)["ready"] for _ in range(SETUP_SAMPLES - 1)]
    events = _spawn(args, "run", deadline)
    setups.append(events["ready"])
    result = events["result"]
    metrics = collect(result, setups, bool(args.trace))
    unit = units(bool(args.trace))
    _print_report(args, result, metrics, unit)

    correct = result["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            **result.pop("provenance"),
            "git_sha": _git_sha(),
            "platform": platform.platform(),
            "seed": args.seed,
        },
        "setup_samples": setups,
        **result,
    }
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(
            f"--seconds must be in (0, {MAX_SECONDS:g}]: a whole run, set-up and "
            f"checks included, must end within {BUDGET_S:g} s"
        )
    try:
        workloads = [w["name"] for w in spec()["workloads"]]
        if args.workload not in workloads:
            parser.error(f"--workload must be one of {', '.join(workloads)}")
        return run(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
