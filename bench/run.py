"""The radloop benchmark: one command, four workloads, checked outputs.

Usage, from the repository root::

    python3 bench/run.py --workload {prep,loop,score,judge} --seed N \
        --seconds S --trace {0,1}

The run generates the workload's inputs from ``--seed``, times fresh CLI
start-ups (``setup_s``), and runs the workload's chain of CLI stages in a
closed loop in one worker process for ``--seconds`` seconds, checking every
output. With ``--trace 0`` the result line carries the end-to-end metrics
``setup_s``, ``peak_rss_mb`` and ``success_rate``; the timings ``wall_s``
and the per-stage ``*_s`` (medians over the run's iterations) and
``error_rate`` are printed by name above it. With ``--trace 1`` traced
iterations alternate with untraced ones and the result line carries the
per-layer metrics. After the metric lines comes one JSON line of details
(sample counts, tail percentiles, output digests, input counts, machine
facts, a calibration loop time), and last the JSON result line.

Inputs and outputs live under ``.bench_work/`` in the repository root while
the run lasts; the details and spans of the last run per workload and mode
are kept in ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from metrics import END_TO_END, PER_LAYER, TIMINGS, WORKLOADS  # noqa: E402

#: CLI cold starts before and again after the worker; ``setup_s`` is the
#: median of both batches, so it samples the host at two moments.
SETUP_LAUNCHES = 6
#: Seconds the worker may overrun ``--seconds`` before the run is abandoned.
WORKER_GRACE_S = 120


def percentile_beyond(values: Sequence[float], beyond: int = 10) -> dict[str, Any] | None:
    """The highest order statistic with at least ``beyond`` samples above it."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return {"p": math.floor(100 * (n - beyond) / n), "value": ordered[n - beyond - 1]}


def summarize(values: Sequence[float]) -> dict[str, Any]:
    return {"median": statistics.median(values), "n": len(values),
            "tail": percentile_beyond(values)}


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop; shows host speed drift."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def machine_facts() -> dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> list[float]:
    """Wall time of fresh ``python -m radloop.cli --version`` processes."""
    cmd = [sys.executable, "-m", "radloop.cli", "--version"]
    env = _env()
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return times


class StubProcess:
    """The stub judge endpoint, in its own process for the life of the run."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_judge.py")],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise RuntimeError("the stub judge endpoint did not start")
        self.url = f"http://127.0.0.1:{line}/"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Any = None) -> dict[str, Any]:
    """One benchmark run; returns its details, the result object included.

    ``scale`` is a ``workloads.Scale``, by default ``workloads.FULL``."""
    import workloads  # imports radloop, whose presence main() checks first

    scale = scale or workloads.FULL
    rundir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    stub = None
    try:
        if workload == "judge":
            stub = StubProcess()
        t0 = perf_counter()
        plan = workloads.generate(workload, seed, rundir / "data", scale,
                                  stub_url=stub.url if stub else "")
        generate_s = perf_counter() - t0
        plan.update(seconds=seconds, trace=trace, stub_url=stub.url if stub else "")
        plan_path, result_path = rundir / "plan.json", rundir / "result.json"
        plan_path.write_text(json.dumps(plan))
        calibration = calibration_s()
        setup = [] if trace else measure_setup()
        with open(rundir / "worker.log", "w", encoding="utf-8") as log:
            subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
                env=_env(), cwd=ROOT, stdout=log, stderr=log, check=True,
                timeout=seconds + WORKER_GRACE_S,
            )
        worker = json.loads(result_path.read_text())
        setup += [] if trace else measure_setup()
    finally:
        if stub is not None:
            stub.close()
    return _report(workload, seed, seconds, trace, plan, worker, setup, calibration,
                   generate_s, rundir)


def _report(workload: str, seed: int, seconds: float, trace: bool, plan: dict[str, Any],
            worker: dict[str, Any], setup: list[float], calibration: float, generate_s: float,
            rundir: Path) -> dict[str, Any]:
    iterations = worker["iterations"]
    failed = len(worker["failures"])
    attempted = worker["attempted"]
    stats = {name: summarize([it[name] for it in iterations])
             for name in TIMINGS if name in iterations[0]}
    details: dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "iterations": len(iterations), "stats": stats,
        "error_rate": failed / attempted, "failures": worker["failures"][:20],
        "digests": worker["digests"], "inputs": plan["inputs"],
        "generate_s": generate_s, "calibration_s": calibration, "machine": machine_facts(),
    }
    if trace:
        untraced = stats["wall_s"]["median"]
        traced = statistics.median(worker["traced_walls"])
        values = dict(worker["per_layer"], trace_overhead_ratio=traced / untraced - 1)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
        details["traced_iterations"] = len(worker["traced_walls"])
        details["untraced_names"] = worker["untraced_names"]
        details["spans"] = worker["spans"]["count"]
    else:
        details["setup_s"] = summarize(setup)
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": worker["peak_rss_mb"],
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
        details["timings"] = {name: {"value": s["median"], "unit": "s"}
                              for name, s in stats.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details["result"] = result
    keep_dir = WORK / "results"
    keep_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-trace{int(trace)}"
    (keep_dir / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if trace:
        shutil.move(worker["spans"]["path"], keep_dir / f"{stem}-spans.jsonl.gz")
    shutil.rmtree(rundir, ignore_errors=True)
    return details


def print_report(details: dict[str, Any]) -> None:
    rows = dict(details["result"]["metrics"])
    rows.update(details.get("timings", {}))
    if not details["trace"]:
        rows["error_rate"] = {"value": details["error_rate"], "unit": "ratio"}
    for name, m in rows.items():
        n = details["stats"].get(name, {}).get("n")
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    print(json.dumps({k: v for k, v in details.items() if k != "result"}))
    print(json.dumps(details["result"]))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one radloop benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the stub and the worker are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "radloop" / "__init__.py").is_file():
        print(f"error: no radloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print_report(details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
