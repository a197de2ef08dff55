"""Tests of the benchmark itself, not of radloop.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Instrumentation, Span, Tracer, self_times  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def _bench_work(tmp_path_factory):
    """Keeps the runs' inputs and results out of the repository."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "WORK", tmp_path_factory.mktemp("bench_work"))
        yield


def _input_digests(workload: str, seed: int, workdir: Path) -> dict[str, str]:
    workloads.generate(workload, seed, workdir, workloads.TINY, stub_url="http://127.0.0.1:1/")
    out = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        # Paths inside the files name the directory, which differs per call.
        data = path.read_bytes().replace(str(workdir).encode(), b"<dir>")
        out[str(path.relative_to(workdir))] = hashlib.sha256(data).hexdigest()
    return out


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    first = _input_digests(workload, 5, tmp_path / "a")
    again = _input_digests(workload, 5, tmp_path / "b")
    other = _input_digests(workload, 6, tmp_path / "c")
    assert first == again
    changed = [name for name in first if first[name] != other[name]]
    assert changed, "a different seed must change the inputs"


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: covered 1..5
        Span("c", 8.0, 12.0, parent=0),  # runs past the parent: covered 8..10
        Span("a.child", 1.5, 2.5, parent=1),
        Span("other-run", 0.0, 4.0, run_id=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 4.0])


def test_instrumentation_skips_missing_names_and_restores_the_rest(monkeypatch):
    from radloop import cli

    monkeypatch.delattr(cli, "iter_jsonl")
    original = cli.load_records_jsonl
    with Instrumentation(Tracer()) as instrumentation:
        assert cli.load_records_jsonl is not original
    assert instrumentation.missing == ["radloop.cli.iter_jsonl"]
    assert cli.load_records_jsonl is original


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [
        metrics.WORKLOAD_INFO[w]["why"] for w in metrics.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER]


@pytest.fixture(scope="module")
def traced_runs():
    return {w: run.run(w, 3, 0.0, True, scale=workloads.TINY)
            for w in metrics.WORKLOADS}


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_tiny_untraced_run_is_correct(workload):
    details = run.run(workload, 3, 0.0, False, scale=workloads.TINY)
    result = details["result"]
    assert details["error_rate"] == 0, details["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m[0] for m in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(details["timings"]) == {"wall_s", *metrics.WORKLOAD_INFO[workload]["stage_metrics"]}


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload, traced_runs):
    details = traced_runs[workload]
    assert details["error_rate"] == 0, details["failures"]
    assert details["untraced_names"] == []
    values = {k: v["value"] for k, v in details["result"]["metrics"].items()}
    assert set(values) == {m[0] for m in metrics.PER_LAYER}
    info = metrics.WORKLOAD_INFO[workload]
    for layer in info["stresses"]:
        assert values[f"layer.{layer}.self_s"] > 0, layer
    for layer in info["bypasses"]:
        assert values[f"layer.{layer}.self_s"] == 0, layer


def test_a_stage_that_writes_nothing_fails_the_run(tmp_path, monkeypatch):
    plan = workloads.generate("loop", 3, tmp_path / "data", workloads.TINY)
    plan.update(seconds=0.0, trace=False, stub_url="")
    plan_path, result_path = tmp_path / "plan.json", tmp_path / "result.json"
    plan_path.write_text(json.dumps(plan))
    real_dispatch = worker.cli.dispatch
    sample_calls = []

    def dispatch(argv):
        if argv[0] == "sample":
            sample_calls.append(argv)
            if len(sample_calls) > 1:
                return 0  # reports success without writing its output
        return real_dispatch(argv)

    monkeypatch.setattr(worker.cli, "dispatch", dispatch)
    worker.main(str(plan_path), str(result_path))
    result = json.loads(result_path.read_text())
    assert len(sample_calls) == worker.MIN_ITERATIONS
    assert result["failures"] and all(f.startswith("sample:") for f in result["failures"])
    details = run._report("loop", 3, 0.0, False, plan, result, [1.0], 1.0, 1.0, tmp_path / "rundir")
    assert details["result"]["correct"] is False


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
