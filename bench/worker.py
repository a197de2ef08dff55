"""Runs one workload's chain in a closed loop, in this one process.

Usage: ``python3 bench/worker.py PLAN.json RESULT.json``. The plan comes from
``workloads.generate`` plus the run settings ``seconds``, ``trace`` and
``stub_url``. Each iteration runs the stages one after another through
``radloop.cli.dispatch`` and checks their outputs; iterations repeat until
``seconds`` have passed. With ``trace`` set, each untraced iteration is
followed by a traced one, so the trace overhead compares iterations of the
same process.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import resource
import shutil
import sys
import urllib.request
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from radloop import cli  # noqa: E402

from tracing import Instrumentation, Tracer, layer_metrics  # noqa: E402

#: Iterations every run makes at least, so output digests can be compared.
MIN_ITERATIONS = 2


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Stub:
    """Control calls to the stub judge endpoint; never traced or timed."""

    def __init__(self, url: str):
        self.url = url.rstrip("/")

    def reset(self) -> None:
        req = urllib.request.Request(self.url + "/reset", data=b"{}", method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            resp.read()

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())


class Checker:
    """Output checks of one run; each check is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check(self, stage: dict[str, Any], stub_stats: dict[str, int] | None) -> None:
        name, out, spec = stage["name"], stage["out"], stage["check"]
        try:
            digest = _digest(out)
        except OSError as exc:
            self.expect(False, f"{name}: output missing: {exc}")
            return
        first = self.digests.setdefault(name, digest)
        self.expect(first == digest, f"{name}: output bytes differ between iterations")
        try:
            self._content(name, out, spec, stub_stats)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.expect(False, f"{name}: unreadable output: {exc!r}")

    def _content(self, name: str, out: str, spec: dict[str, Any],
                 stub_stats: dict[str, int] | None) -> None:
        kind = spec["kind"]
        if kind == "jsonl_rows":
            with open(out, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh)
            self.expect(rows == spec["rows"], f"{name}: {rows} rows, expected {spec['rows']}")
        elif kind == "plan":
            state = json.loads(Path(out).read_text())["state"]
            total = sum(s["prob"] for s in state["sources"].values())
            self.expect(len(state["sources"]) == spec["sources"] and abs(total - 1) < 1e-9,
                        f"{name}: {len(state['sources'])} sources with total probability {total}")
        elif kind == "simulate":
            stages = len(json.loads(Path(out).read_text())["stages"])
            self.expect(stages == spec["stages"], f"{name}: {stages} stages, expected {spec['stages']}")
        elif kind == "eval":
            doc = json.loads(Path(out).read_text())
            n, failures = doc["counts"]["n"], doc["counts"]["parse_failures"]
            salvaged = sum(r["salvaged"] for r in doc["rows"])
            want = (spec["drift"], 0) if spec["mode"] == "strict" else (0, spec["drift"])
            self.expect(n == spec["n"] and (failures, salvaged) == want,
                        f"{name}: n={n} parse_failures={failures} salvaged={salvaged}, "
                        f"expected n={spec['n']} (parse_failures, salvaged)={want}")
        elif kind == "grid":
            doc = json.loads(Path(out).read_text())
            shape = (doc["width"], doc["height"], len(doc["values"]))
            want = (spec["width"], spec["height"], spec["width"] * spec["height"])
            self.expect(shape == want, f"{name}: grid {shape}, expected {want}")
        elif kind == "judge" and stub_stats is not None:
            with open(out, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh)
            self.expect(rows == spec["rows"], f"{name}: {rows} verdict rows, expected {spec['rows']}")
            want = spec["requests"] + stub_stats["status_503"]
            self.expect(stub_stats["requests"] == want,
                        f"{name}: stub served {stub_stats['requests']} requests, expected {want}")
            if spec["cold"]:
                self.expect(stub_stats["status_503"] > 0, f"{name}: the retry path never ran")
            else:
                self.expect(_digest(out) == _digest(spec["same_as"]),
                            f"{name}: warm verdicts differ from cold verdicts")
        elif kind == "aggregate":
            doc = json.loads(Path(out).read_text())
            errors = verdicts = 0
            with open(spec["verdicts_from"], encoding="utf-8") as fh:
                for line in fh:
                    row = json.loads(line)
                    errors += "error" in row
                    verdicts += "verdict" in row
            self.expect(doc["verdict_failures"] == errors and doc["mean"]["n"] == verdicts,
                        f"{name}: {doc['verdict_failures']} failures over n={doc['mean']['n']}, "
                        f"expected {errors} over {verdicts}")
        else:
            raise ValueError(f"unknown check {kind!r}")


def run_chain(plan: dict[str, Any], checker: Checker, stub: Stub | None,
              tracer: Tracer | None, stub_total: dict[str, int]) -> dict[str, float]:
    """One pass over the stages; returns the seconds spent per metric.

    Stub counters of traced passes are added into ``stub_total``."""
    times: dict[str, float] = {"wall_s": 0.0}
    for stage in plan["stages"]:
        repeat = stage.get("repeat", 1)
        spent = 0.0
        for _ in range(repeat):
            if "clear" in stage:
                shutil.rmtree(stage["clear"], ignore_errors=True)
            # Every check then reads bytes this very call wrote.
            for stale in (stage["out"], stage["out"] + ".manifest.json"):
                Path(stale).unlink(missing_ok=True)
            if stub is not None:
                stub.reset()
            argv = stage["argv"]
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = cli.dispatch(argv)
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        code = cli.dispatch(argv)
            except Exception as exc:  # noqa: BLE001 - a crashing stage is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            spent += perf_counter() - t0
            checker.expect(code == 0, f"{stage['name']}: exit code {code}")
            stats = stub.stats() if stub is not None else None
            if stats is not None and tracer is not None:
                for key in ("requests", "status_503"):
                    stub_total[key] = stub_total.get(key, 0) + stats[key]
                stub_total["max_in_flight"] = max(stub_total.get("max_in_flight", 0),
                                                  stats["max_in_flight"])
            checker.check(stage, stats)
        times["wall_s"] += spent
        if stage["metric"] is not None:
            times[stage["metric"]] = times.get(stage["metric"], 0.0) + spent / repeat
    return times


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    stub = Stub(plan["stub_url"]) if plan.get("stub_url") else None
    checker = Checker()
    tracer = Tracer() if plan["trace"] else None
    untraced: list[dict[str, float]] = []
    traced_walls: list[float] = []
    stub_total: dict[str, int] = {}
    untraced_names: list[str] = []
    start = perf_counter()
    while len(untraced) < MIN_ITERATIONS or perf_counter() - start < plan["seconds"]:
        untraced.append(run_chain(plan, checker, stub, None, stub_total))
        if tracer is not None:
            tracer.run_id = len(traced_walls)
            with Instrumentation(tracer) as instrumentation:
                traced_walls.append(run_chain(plan, checker, stub, tracer, stub_total)["wall_s"])
            untraced_names = instrumentation.missing
    result: dict[str, Any] = {
        "iterations": untraced,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "digests": checker.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer.spans, len(traced_walls), stub_total)
        result["traced_walls"] = traced_walls
        result["untraced_names"] = untraced_names
        spans_path = Path(result_path).with_name("spans.jsonl.gz")
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
        result["spans"] = {"path": str(spans_path), "count": len(tracer.spans)}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
