import argparse
import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import radloop
from radloop import augment, cli, core, errors, evalkit, ingest
from radloop import judge as judge_module
from radloop.augment import AugPolicy, IntensityGrid
from radloop.cli import dispatch
from radloop.core import (
    DataSourceId, Task, TaskFamily, dump_records_jsonl, load_json, load_records_jsonl,
)
from radloop.curriculum import CurriculumState, MetricEntry, SourceMetrics, Strategy
from radloop.errors import RadloopError
from radloop.ingest import make_fixture_dataset
from radloop.taskgen import render_instruction


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def records_path(tmp_path):
    records = make_fixture_dataset(
        5, {"pgsrc:pg": {"a": 6, "b": 6}, "grgsrc:grg": {"report": 6}}
    )
    path = tmp_path / "records.jsonl"
    dump_records_jsonl(path, records)
    return path


class TestUsageErrors:
    def test_no_subcommand(self):
        assert dispatch([]) == 2

    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate", "--out", "x"]) == 2

    def test_missing_required_flag(self):
        assert dispatch(["ingest", "--format", "scene_graph", "--out", "x"]) == 2

    def test_min_prob_is_no_plan_flag(self):
        # The curriculum rule has no floor, so no flag sets one.
        assert dispatch(["plan", "--records", "r", "--min-prob", "0.3", "--out", "x"]) == 2

    def test_detection_is_no_eval_task(self):
        argv = ["eval", "--pred", "p", "--gold", "g", "--task", "detection", "--out", "x"]
        assert dispatch(argv) == 2

    def test_version_flag(self):
        assert dispatch(["--version"]) == 0

    def test_console_script_exits_through_main(self):
        # What the installed wrapper runs, in a fresh interpreter: radloop.main
        # must run before radloop.cli is imported, or runpy warns.
        script = "import sys\nfrom radloop import main\nsys.exit(main())"
        proc = run_fresh(script, "--version")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"radloop {radloop.__version__}\n"

    def test_console_script_is_radloop_main(self):
        # A text match: tomllib is not in the standard library before 3.11.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^\[project\.scripts\]\nradloop = "radloop:main"$', text, re.M)


def test_parser_choices_are_their_sources_in_order():
    # The parser states its choices literally so that parsing imports no
    # subcommand module; the order is the order --help lists them in.
    assert cli._TASKS == tuple(t.value for t in Task)
    assert cli._STRATEGIES == tuple(s.value for s in Strategy)
    assert cli._INGEST_FORMATS == tuple(ingest._FORMATS)
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert list(sub.choices) == list(cli._HANDLERS)


def test_manifest_config_hash_is_pinned(records_path, tmp_path, monkeypatch):
    # The hash covers the parsed flags and the config document. Relative paths
    # keep it independent of where the test runs.
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({"version": 1, "seed": 7}), encoding="utf-8")
    argv = ["gen-tasks", "--records", records_path.name, "--expand-labels",
            "--config", "config.json", "--seed", "7", "--out", "out.jsonl"]
    assert dispatch(argv) == 0
    manifest = read_json("out.jsonl.manifest.json")
    assert manifest["config_hash"] == (
        "822660d24e0b156fc82c9067c77a0ebfbd3460435fb043da35f347e2e6e7cb9a"
    )


@pytest.fixture(scope="module")
def project():
    """The ``[project]`` table of pyproject.toml as setuptools reads it."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        return pyprojecttoml.read_configuration(
            Path(__file__).resolve().parents[1] / "pyproject.toml"
        )["project"]


def test_pyproject_version_is_the_package_version(project):
    assert project["version"] == radloop.__version__


def test_numpy_is_the_only_runtime_dependency(project):
    assert project["dependencies"] == ["numpy>=1.24"]


class TestIngest:
    def test_scene_graph_to_records(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            json.dumps(
                {
                    "image_id": "im1",
                    "location": "left lung",
                    "box": [0.3, 0.5, 0.2, 0.4],
                    "sentence": "Clear.",
                }
            )
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "records.jsonl"
        rc = dispatch(
            ["ingest", "--in", str(raw), "--format", "scene_graph", "--out", str(out)]
        )
        assert rc == 0
        records = load_records_jsonl(out)
        assert len(records) == 3

    def test_manifest_written(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            json.dumps({"image_id": "i", "location": "spine", "sentence": "x"}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "records.jsonl"
        assert dispatch(
            ["ingest", "--in", str(raw), "--format", "scene_graph", "--out", str(out)]
        ) == 0
        manifest = read_json(f"{out}.manifest.json")
        assert manifest["tool"] == "radloop"
        assert manifest["command"] == "ingest"
        assert len(manifest["config_hash"]) == 64
        assert "created_at" in manifest

    def test_bad_input_is_domain_error(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"image_id": "i"}\n', encoding="utf-8")
        out = tmp_path / "out.jsonl"
        rc = dispatch(
            ["ingest", "--in", str(raw), "--format", "scene_graph", "--out", str(out)]
        )
        assert rc == 1
        assert not out.exists()


class TestGenTasks:
    def test_renders_instances(self, records_path, tmp_path):
        out = tmp_path / "tasks.jsonl"
        assert dispatch(["gen-tasks", "--records", str(records_path), "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert len(rows) == 18
        assert all(row["instruction"] and row["response"] for row in rows)

    def test_byte_identical_reruns(self, records_path, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        dispatch(["gen-tasks", "--records", str(records_path), "--out", str(out1)])
        dispatch(["gen-tasks", "--records", str(records_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestAugment:
    def test_requires_seed(self, records_path, tmp_path):
        out = tmp_path / "aug.jsonl"
        rc = dispatch(["augment", "--records", str(records_path), "--out", str(out)])
        assert rc == 1

    def test_deterministic_with_seed(self, records_path, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        args = ["augment", "--records", str(records_path), "--seed", "7"]
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_jsonl(out1)
        assert len(rows) == 18
        assert all(
            row["structured"]["meta"]["pipeline"] in ("train", "eval") for row in rows
        )

    def test_config_seed_accepted(self, records_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "seed": 3}), encoding="utf-8")
        out = tmp_path / "aug.jsonl"
        rc = dispatch(
            ["augment", "--records", str(records_path), "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 0


def write_metrics(tmp_path, pg_iou=0.6, pg_text=0.8):
    metrics = [
        SourceMetrics(
            source=DataSourceId("pgsrc", TaskFamily.PG),
            iou=pg_iou,
            text_score=pg_text,
            per_category={"a": MetricEntry(iou=0.9), "b": MetricEntry(iou=0.7)},
        ),
        SourceMetrics(
            source=DataSourceId("grgsrc", TaskFamily.GRG),
            iou=0.5,
            text_score=0.75,
            per_category={"report": MetricEntry(iou=0.5, text_score=0.75)},
        ),
    ]
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps([m.to_json() for m in metrics]), encoding="utf-8")
    return path


class TestPlan:
    def test_initial_plan_uniform(self, records_path, tmp_path):
        out = tmp_path / "plan.json"
        assert dispatch(["plan", "--records", str(records_path), "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["schema_version"] == 1
        state = CurriculumState.from_json(doc["state"])
        assert list(state.inter_probs().values()) == [0.5, 0.5]
        assert state.stage_index == 0

    def test_plan_with_metrics(self, records_path, tmp_path):
        metrics = write_metrics(tmp_path)
        out = tmp_path / "plan.json"
        rc = dispatch(
            [
                "plan",
                "--records",
                str(records_path),
                "--metrics",
                str(metrics),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        state = CurriculumState.from_json(read_json(out)["state"])
        probs = state.inter_probs()
        # alpha 0.8: pg score 0.64, grg 0.55 -> errors 0.36, 0.45.
        assert probs["pgsrc:pg"] == pytest.approx(0.36 / 0.81, abs=1e-9)
        assert probs["grgsrc:grg"] == pytest.approx(0.45 / 0.81, abs=1e-9)
        assert state.stage_index == 1

    def test_alpha_flag_overrides(self, records_path, tmp_path):
        metrics = write_metrics(tmp_path)
        out = tmp_path / "plan.json"
        rc = dispatch(
            [
                "plan",
                "--records",
                str(records_path),
                "--metrics",
                str(metrics),
                "--alpha",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        probs = CurriculumState.from_json(read_json(out)["state"]).inter_probs()
        # alpha 0.5: pg 0.7, grg 0.625 -> errors 0.3, 0.375.
        assert probs["pgsrc:pg"] == pytest.approx(0.3 / 0.675, abs=1e-9)

    def test_missing_source_metrics_fails(self, records_path, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(
            json.dumps(
                [
                    SourceMetrics(
                        source=DataSourceId("pgsrc", TaskFamily.PG),
                        iou=0.6,
                        per_category={"a": MetricEntry(iou=0.9), "b": MetricEntry(iou=0.7)},
                    ).to_json()
                ]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "plan.json"
        rc = dispatch(
            [
                "plan",
                "--records",
                str(records_path),
                "--metrics",
                str(metrics),
                "--out",
                str(out),
            ]
        )
        assert rc == 1

    def test_repeated_metrics_source_fails(self, records_path, tmp_path, capsys):
        low = read_json(write_metrics(tmp_path, pg_iou=0.1))
        high = read_json(write_metrics(tmp_path, pg_iou=0.9))
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(low + high[:1]), encoding="utf-8")
        argv = ["plan", "--records", str(records_path), "--metrics", str(metrics)]
        assert dispatch(argv + ["--out", str(tmp_path / "plan.json")]) == 1
        assert capsys.readouterr().err == (
            "ERROR radloop: FormatError: line 0: metrics entry 2 repeats source 'pgsrc:pg'\n"
        )
        assert not (tmp_path / "plan.json").exists()

    def test_a_category_entry_with_no_metric_names_the_gap(self, records_path, tmp_path, capsys):
        metrics = read_json(write_metrics(tmp_path))
        metrics[0]["per_category"] = {"a": {"iou": 0.2}, "b": {}}
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics), encoding="utf-8")
        argv = ["plan", "--records", str(records_path), "--metrics", str(path)]
        assert dispatch(argv + ["--out", str(tmp_path / "plan.json")]) == 1
        assert capsys.readouterr().err == (
            "ERROR radloop: MissingMetrics: source 'pgsrc:pg' subtask 'pg' lacks metrics"
            " for category 'b'\n"
        )


def _stage_probs(sources):
    """A plan state's ``sources`` as a stage log's (inter_probs, intra_probs)."""
    inter = {key: s["prob"] for key, s in sources.items()}
    intra = {
        key: {t: dict(zip(st["categories"], st["probs"])) for t, st in s["subtasks"].items()}
        for key, s in sources.items()
    }
    return inter, intra


def test_simulate_stages_replay_through_plan(tmp_path):
    """Stage k's logged metrics, fed to ``plan --metrics``, give exactly the
    probabilities of stage k + 1: the in-process loop and the file loop are one rule."""
    records = tmp_path / "records.jsonl"
    spec = {"pgsrc:pg": {"a": 5, "b": 5, "c": 5}, "agsrc:agrg": {"spine": 3, "left lung": 3},
            "grgsrc:grg": {"report": 4}}
    dump_records_jsonl(records, make_fixture_dataset(3, spec))
    sim = tmp_path / "sim.json"
    argv = ["simulate", "--records", str(records), "--warmup-steps", "40",
            "--reweight-interval", "40", "--total-steps", "160", "--e0", "0.7",
            "--rate", "0.01", "--seed", "5", "--out", str(sim)]
    assert dispatch(argv) == 0
    doc = read_json(sim)
    stages = doc["stages"]
    expected = [(s["inter_probs"], s["intra_probs"]) for s in stages[1:]]
    expected.append(_stage_probs(doc["final_state"]["sources"]))
    assert len(stages) == 4
    for k, stage in enumerate(stages):
        metrics, plan = tmp_path / f"metrics{k}.json", tmp_path / f"plan{k}.json"
        metrics.write_text(json.dumps(list(stage["metrics"].values())), encoding="utf-8")
        argv = ["plan", "--records", str(records), "--metrics", str(metrics), "--out", str(plan)]
        assert dispatch(argv) == 0
        assert _stage_probs(read_json(plan)["state"]["sources"]) == expected[k], k


class TestSample:
    def test_sample_from_plan(self, records_path, tmp_path):
        plan = tmp_path / "plan.json"
        dispatch(["plan", "--records", str(records_path), "--out", str(plan)])
        out1 = tmp_path / "s1.jsonl"
        out2 = tmp_path / "s2.jsonl"
        args = [
            "sample",
            "--records",
            str(records_path),
            "--plan",
            str(plan),
            "--n",
            "50",
            "--seed",
            "11",
        ]
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_jsonl(out1)
        assert len(rows) == 50
        assert all(
            set(row) == {"image_id", "source_id", "task", "category"} for row in rows
        )

    def test_sample_requires_seed(self, records_path, tmp_path):
        plan = tmp_path / "plan.json"
        dispatch(["plan", "--records", str(records_path), "--out", str(plan)])
        rc = dispatch(
            [
                "sample",
                "--records",
                str(records_path),
                "--plan",
                str(plan),
                "--n",
                "5",
                "--out",
                str(tmp_path / "s.jsonl"),
            ]
        )
        assert rc == 1


def _simulate_and_plan(tmp_path, names):
    """``simulate`` and ``plan`` on records of sources ``names``: each source's
    (name, task) per key, as the final state and the plan list them."""
    records = []
    for i, name in enumerate(names):
        for task, cat in ((Task.PG, "a"), (Task.PG, "b"), (Task.AGRG_LOCATE, "spine")):
            box = (core.NormBox(0.5, 0.5, 0.2, 0.2),)
            records.append(core.AnnotationRecord(f"{i}-{cat}", name, task, cat, "x", box))
    path = tmp_path / "records.jsonl"
    dump_records_jsonl(path, records)
    sim, plan = tmp_path / "sim.json", tmp_path / "plan.json"
    argv = ["simulate", "--records", str(path), "--warmup-steps", "4", "--reweight-interval", "4",
            "--total-steps", "12", "--seed", "1", "--out", str(sim)]
    assert dispatch(argv) == 0
    assert dispatch(["plan", "--records", str(path), "--out", str(plan)]) == 0
    return [{key: (s["name"], s["task"]) for key, s in sources.items()}
            for sources in (read_json(sim)["final_state"]["sources"], read_json(plan)["state"]["sources"])]


def test_simulate_accepts_a_source_named_empty(tmp_path):
    # The key ":pg" holds the name "", which a parse of the key back would reject.
    simulated, planned = _simulate_and_plan(tmp_path, [""])
    assert simulated == planned == {":pg": ("", "pg"), ":agrg": ("", "agrg")}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=st.lists(st.text(), min_size=1, max_size=3, unique=True))
@example(names=["", ":", "a:pg", "a"])
def test_simulate_names_every_source_as_plan_does(tmp_path_factory, names):
    simulated, planned = _simulate_and_plan(tmp_path_factory.mktemp("names"), names)
    assert simulated == planned


class TestSimulate:
    def test_closed_loop(self, records_path, tmp_path):
        out = tmp_path / "sim.json"
        rc = dispatch(
            [
                "simulate",
                "--records",
                str(records_path),
                "--warmup-steps",
                "50",
                "--reweight-interval",
                "50",
                "--total-steps",
                "150",
                "--e0",
                "0.7",
                "--rate",
                "0.01",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = read_json(out)
        assert len(doc["stages"]) == 3
        assert doc["final_state"]["stage_index"] == 3
        assert doc["stages"][0]["steps"] == 50


class TestEval:
    def _write_eval_inputs(self, tmp_path):
        records = make_fixture_dataset(2, {"pg": {"Effusion": 5, "Nodule": 5}})
        gold = tmp_path / "gold.jsonl"
        dump_records_jsonl(gold, records)
        pred = tmp_path / "pred.jsonl"
        with open(pred, "w", encoding="utf-8") as fh:
            for rec in records:
                inst = render_instruction(rec)
                fh.write(
                    json.dumps({"image_id": rec.image_id, "output": inst.response}) + "\n"
                )
        return gold, pred

    def test_perfect_predictions(self, tmp_path):
        gold, pred = self._write_eval_inputs(tmp_path)
        out = tmp_path / "report.json"
        rc = dispatch(
            [
                "eval",
                "--pred",
                str(pred),
                "--gold",
                str(gold),
                "--task",
                "pg",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = read_json(out)
        assert doc["counts"] == {"n": 10, "parse_failures": 0}
        assert doc["micro_iou"] == pytest.approx(1.0, abs=1e-9)
        assert doc["macro_iou"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_a_non_ascii_digit_fails_one_row_not_the_file(self, tmp_path, mode):
        gold, pred = self._write_eval_inputs(tmp_path)
        rows = read_jsonl(pred)
        rows[3]["output"] = "mass: [0.50,0.50,0.20,0.2\u00b2]"
        pred.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "report.json"
        argv = ["eval", "--pred", str(pred), "--gold", str(gold), "--task", "pg", "--mode", mode]
        assert dispatch(argv + ["--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["counts"] == {"n": 10, "parse_failures": 1 if mode == "strict" else 0}
        assert [r["salvaged"] for r in doc["rows"]] == [mode == "lenient" and i == 3 for i in range(10)]

    def test_boxes_too_thin_for_a_double_score_zero(self, tmp_path, capsys):
        # Each box's corners round to its centre, so the union has no area:
        # this raised ZeroDivisionError with a traceback.
        gold = tmp_path / "gold.jsonl"
        dump_records_jsonl(gold, [core.AnnotationRecord(
            "im0", "src", Task.PG, "c", "t", (core.NormBox(0.5, 0.5, 1e-19, 1e-19),))])
        pred = tmp_path / "pred.jsonl"
        side = "0.0000000000000000001"
        row = {"image_id": "im0", "output": f"t: [0.5,0.5,{side},{side}]"}
        pred.write_text(json.dumps(row) + "\n", encoding="utf-8")
        out = tmp_path / "report.json"
        argv = ["eval", "--pred", str(pred), "--gold", str(gold), "--task", "pg", "--out", str(out)]
        assert dispatch(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = read_json(out)
        assert doc["counts"] == {"n": 1, "parse_failures": 0}
        assert doc["rows"][0]["iou"] == 0.0

    def test_an_unknown_scorer_is_named_before_any_input_is_read(self, tmp_path, capsys, monkeypatch):
        gold, pred = self._write_eval_inputs(tmp_path)
        missing = tmp_path / "missing.jsonl"
        out = tmp_path / "r.json"

        def run(scorer, paths):
            argv = ["eval", "--pred", str(paths[0]), "--gold", str(paths[1]), "--task", "pg"]
            return dispatch(argv + ["--scorer", scorer, "--out", str(out)])

        for paths in ((pred, gold), (missing, missing)):
            assert run("bogus", paths) == 1
            err = capsys.readouterr().err
            assert err.startswith("ERROR radloop: ConfigError: --scorer must be one of 'lexical'")
            assert err.endswith(", got 'bogus'\n")
        # The rule reads the registry when the command runs.
        monkeypatch.setitem(evalkit._SCORERS, "half", lambda cand, ref: 0.5)
        assert run("half", (pred, gold)) == 0
        assert read_json(out)["scorer"] == "half"

    def test_duplicate_prediction_fails(self, tmp_path):
        gold, pred = self._write_eval_inputs(tmp_path)
        rows = read_jsonl(pred)
        with open(pred, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rows[0]) + "\n")
        rc = dispatch(
            [
                "eval",
                "--pred",
                str(pred),
                "--gold",
                str(gold),
                "--task",
                "pg",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1


VERDICT = {
    "reason": "matches",
    "gt_has_abnormalities": "no",
    "gt_has_devices": "no",
    "gen_has_abnormalities": "no",
    "gen_has_devices": "no",
    "gen_has_correct_abnormalities": "no",
    "gen_has_hallucinated_abnormalities": "no",
    "gen_has_correct_devices": "no",
    "gen_has_hallucinated_devices": "no",
    "nli_status": "entailment",
}


#: Non-ASCII text for the charset cases.
_ACCENTED = "Épanchement pleural à droite"


def _verdict_bytes(encoding="utf-8", **edits):
    return json.dumps({**VERDICT, **edits}, ensure_ascii=False).encode(encoding)


#: Fixed replies of ``judge_server`` by [GEN] text: (status, Content-Type, body).
#: Any other text gets VERDICT with that text as its reason.
_REPLIES = {
    "garble": (200, "application/json", b"no json here"),
    "numeric reason": (200, "application/json", _verdict_bytes(reason=5)),
    "forbidden": (403, "text/plain", b"forbidden"),
    "latin-1": (200, "application/json; charset=iso-8859-1",
                _verdict_bytes("latin-1", reason=_ACCENTED)),
    "utf-8": (200, "application/json", _verdict_bytes(reason=_ACCENTED)),
    "unknown charset": (200, "application/json; charset=x-no-such-codec",
                        _verdict_bytes(reason=_ACCENTED)),
    "bad bytes": (200, "application/json",
                  _verdict_bytes().replace(b"entailment", b"entail\xffment")),
    # Replies the decoding rule rejects: each is one error row, not the run.
    "huge integer": (200, "application/json", _verdict_bytes().replace(b'"matches"', b"9" * 5000)),
    "deep nesting": (200, "application/json",
                     _verdict_bytes().replace(b'"matches"', b"[" * 100_000 + b"]" * 100_000)),
    "lone surrogate": (200, "application/json", _verdict_bytes().replace(b"matches", b"\\ud800")),
}


@pytest.fixture()
def judge_server():
    """A local judge endpoint. Yields its URL, the [GEN] text of each request
    in arrival order, and each raw request body. "flaky" answers 503 the first
    time; "slow" never answers before the client gives up."""
    hits, bodies = [], []
    release = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            gen = json.loads(raw)["prompt"].split("[GEN]:\n", 1)[1].split("\n", 1)[0]
            hits.append(gen)
            bodies.append(raw)
            if gen == "slow":
                release.wait(10)  # set at teardown; the client has timed out by then
                return
            default = (200, "application/json", _verdict_bytes(reason=gen))
            status, content_type, body = _REPLIES.get(gen, default)
            if gen == "flaky" and hits.count(gen) == 1:
                status = 503
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1", hits, bodies
    release.set()
    server.shutdown()
    server.server_close()


class TestJudgeCommands:
    def _write_judge_inputs(self, tmp_path, url, cache_dir=None):
        endpoint = {"url": url, "model": "judge-model", "max_retries": 0, "timeout": 10}
        if cache_dir:
            endpoint["cache_dir"] = str(cache_dir)
        endpoint_path = tmp_path / "endpoint.json"
        endpoint_path.write_text(json.dumps(endpoint), encoding="utf-8")

        gold = tmp_path / "gold.jsonl"
        with open(gold, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"image_id": "im1", "text": "Normal study."}) + "\n")
            fh.write(json.dumps({"image_id": "im2", "text": "Effusion present."}) + "\n")

        pred = tmp_path / "pred.jsonl"
        with open(pred, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"image_id": "im1", "anatomy": "left lung", "text": "Clear."}) + "\n"
            )
            fh.write(
                json.dumps({"image_id": "im2", "anatomy": "right lung", "text": "Effusion."})
                + "\n"
            )
            fh.write(
                json.dumps({"image_id": "im2", "anatomy": "right lung", "text": "garble"})
                + "\n"
            )
        return endpoint_path, gold, pred

    def test_judge_then_aggregate(self, tmp_path, judge_server):
        url, _, _ = judge_server
        endpoint, gold, pred = self._write_judge_inputs(tmp_path, url)
        verdicts = tmp_path / "verdicts.jsonl"
        rc = dispatch(
            [
                "judge",
                "--pred",
                str(pred),
                "--gold",
                str(gold),
                "--endpoint",
                str(endpoint),
                "--out",
                str(verdicts),
            ]
        )
        assert rc == 0
        rows = read_jsonl(verdicts)
        assert len(rows) == 3
        assert sum(1 for r in rows if "verdict" in r) == 2
        assert sum(1 for r in rows if "error" in r) == 1

        table_path = tmp_path / "table.json"
        rc = dispatch(
            ["judge-aggregate", "--in", str(verdicts), "--out", str(table_path)]
        )
        assert rc == 0
        table = read_json(table_path)
        assert table["verdict_failures"] == 1
        assert table["mean"]["anatomy"] == "mean"
        anatomies = [row["anatomy"] for row in table["rows"]]
        assert anatomies == ["left lung", "right lung"]
        assert table["rows"][0]["entailment_rate"] == 100.0

    def test_judge_cache_avoids_refetch(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        cache = tmp_path / "cache"
        endpoint, gold, pred = self._write_judge_inputs(tmp_path, url, cache_dir=cache)
        args = [
            "judge",
            "--pred",
            str(pred),
            "--gold",
            str(gold),
            "--endpoint",
            str(endpoint),
        ]
        assert dispatch(args + ["--out", str(tmp_path / "v1.jsonl")]) == 0
        first = len(hits)
        assert dispatch(args + ["--out", str(tmp_path / "v2.jsonl")]) == 0
        assert len(hits) == first
        assert (tmp_path / "v1.jsonl").read_bytes() == (tmp_path / "v2.jsonl").read_bytes()

    def test_a_numeric_reason_fails_validation(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        endpoint, gold, _ = self._write_judge_inputs(tmp_path, url)
        pred = tmp_path / "numeric.jsonl"
        pred.write_text(
            json.dumps({"image_id": "im1", "anatomy": "lung", "text": "numeric reason"}) + "\n",
            encoding="utf-8",
        )
        verdicts = tmp_path / "verdicts.jsonl"
        argv = ["judge", "--pred", str(pred), "--gold", str(gold), "--endpoint", str(endpoint)]
        assert dispatch(argv + ["--out", str(verdicts)]) == 0
        (row,) = read_jsonl(verdicts)
        assert row["error"] == "field 'reason' holds 5; it must be a string"
        assert hits == ["numeric reason"]

    def _judge_four_preds(self, tmp_path, monkeypatch, last_text):
        """Judge four pred rows through a stub transport that counts its calls."""
        prompts = []

        def transport(url, payload, timeout, headers):
            prompts.append(payload["prompt"])
            return json.dumps(VERDICT)

        monkeypatch.setattr(judge_module, "_default_transport", transport)
        endpoint, gold, _ = self._write_judge_inputs(tmp_path, "http://judge.invalid/v1")
        rows = [
            {"image_id": "im1", "anatomy": "left lung", "text": "Clear."},
            {"image_id": "im2", "anatomy": "right lung", "text": "Effusion."},
            {"image_id": "im1", "anatomy": "spine", "text": "Normal."},
            {"image_id": "im2", "anatomy": "heart", "text": last_text},
        ]
        pred, out = tmp_path / "four.jsonl", tmp_path / "verdicts.jsonl"
        pred.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        argv = ["judge", "--pred", str(pred), "--gold", str(gold), "--endpoint", str(endpoint)]
        return dispatch(argv + ["--out", str(out)]), prompts, rows, out

    def test_valid_preds_give_one_verdict_row_each(self, tmp_path, monkeypatch):
        rc, prompts, rows, out = self._judge_four_preds(tmp_path, monkeypatch, "Enlarged.")
        assert rc == 0
        assert len(prompts) == 4
        expected = [
            {"image_id": r["image_id"], "anatomy": r["anatomy"], "verdict": VERDICT} for r in rows
        ]
        assert out.read_bytes() == "".join(json.dumps(r) + "\n" for r in expected).encode()

    def test_a_malformed_late_pred_row_sends_no_request(self, tmp_path, monkeypatch):
        rc, prompts, _, out = self._judge_four_preds(tmp_path, monkeypatch, 7)
        assert rc == 1
        assert prompts == []
        assert not out.exists()

    def test_judge_unreachable_endpoint(self, tmp_path):
        endpoint, gold, pred = self._write_judge_inputs(
            tmp_path, "http://127.0.0.1:1/v1"
        )
        rc = dispatch(
            [
                "judge",
                "--pred",
                str(pred),
                "--gold",
                str(gold),
                "--endpoint",
                str(endpoint),
                "--out",
                str(tmp_path / "v.jsonl"),
            ]
        )
        assert rc == 1


def _judge_one_row(tmp_path, url, gen, **endpoint):
    """Write inputs that judge one pred row, ``gen``, against ``url``; return
    the judge argv and its output path."""
    endpoint_path, gold, pred = (tmp_path / n for n in ("endpoint.json", "gold.jsonl", "pred.jsonl"))
    endpoint = {"url": url, "model": "judge-model", "max_retries": 0, "timeout": 10, **endpoint}
    endpoint_path.write_text(json.dumps(endpoint), encoding="utf-8")
    gold.write_text(json.dumps({"image_id": "im1", "text": "Normal study."}) + "\n", encoding="utf-8")
    row = {"image_id": "im1", "anatomy": "left lung", "text": gen}
    pred.write_text(json.dumps(row) + "\n", encoding="utf-8")
    out = tmp_path / "verdicts.jsonl"
    argv = ["judge", "--pred", str(pred), "--gold", str(gold), "--endpoint", str(endpoint_path)]
    return argv + ["--out", str(out)], out


class TestJudgeTransport:
    """The default transport against a real local endpoint."""

    def test_a_503_is_retried(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "flaky", max_retries=1, backoff=0)
        assert dispatch(argv) == 0
        (row,) = read_jsonl(out)
        assert row["verdict"] == {**VERDICT, "reason": "flaky"}
        assert hits == ["flaky", "flaky"]

    def test_a_4xx_fails_the_run(self, tmp_path, judge_server, capsys):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "forbidden")
        assert dispatch(argv) == 1
        assert "ERROR radloop: TransportError: HTTP Error 403" in capsys.readouterr().err
        assert not out.exists()
        assert hits == ["forbidden"]

    def test_a_read_timeout(self, tmp_path, judge_server, capsys):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "slow", timeout=0.2, max_retries=1, backoff=0)
        assert dispatch(argv) == 1
        assert "ERROR radloop: RetriesExhausted: gave up after 2 attempts" in capsys.readouterr().err
        assert not out.exists()
        assert hits == ["slow", "slow"]
        config = judge_module.EndpointConfig(url, "judge-model", timeout=0.2, max_retries=0)
        with pytest.raises(errors.JudgeTimeout):
            judge_module.call_judge(judge_module.build_judge_prompt("slow", "gt"), config)

    @pytest.mark.parametrize("gen", ["latin-1", "utf-8", "unknown charset"])
    def test_the_body_decodes_by_its_charset_else_as_utf8(self, gen, tmp_path, judge_server):
        url, _, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, gen)
        assert dispatch(argv) == 0
        (row,) = read_jsonl(out)
        assert row["verdict"]["reason"] == _ACCENTED

    def test_undecodable_bytes_fail_validation_not_transport(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "bad bytes")
        assert dispatch(argv) == 0
        (row,) = read_jsonl(out)
        assert row["error"].startswith("field 'nli_status' holds 'entail\ufffdment'")
        assert '"entail\ufffdment"' in row["raw"]
        assert hits == ["bad bytes"]

    def test_the_request_body_is_the_payload_json(self, tmp_path, judge_server):
        url, _, bodies = judge_server
        argv, _ = _judge_one_row(tmp_path, url, _ACCENTED)
        assert dispatch(argv) == 0
        payload = {"model": "judge-model",
                   "prompt": judge_module.build_judge_prompt(_ACCENTED, "Normal study.")}
        assert bodies == [json.dumps(payload).encode()]

    @pytest.mark.parametrize("scheme", ["file", "data", "ftp"])
    def test_an_endpoint_url_other_than_http_is_rejected(self, scheme, tmp_path, capsys):
        # urllib reads these URLs too: a file: endpoint put the file's bytes in the output.
        secret = tmp_path / "secret.txt"
        secret.write_text("secret bytes", encoding="utf-8")
        url = {"file": secret.as_uri(), "data": "data:text/plain,hello",
               "ftp": "ftp://127.0.0.1:1/verdict"}[scheme]
        argv, out = _judge_one_row(tmp_path, url, "gen")
        out.write_bytes(b"old output\n")
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "ERROR radloop: ConfigError: bad endpoint: url must be an http or https URL" in err
        assert out.read_bytes() == b"old output\n"

    def test_the_url_scheme_is_case_insensitive(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url.replace("http://", "HTTP://"), "upper case")
        assert dispatch(argv) == 0
        assert read_jsonl(out)[0]["verdict"]["reason"] == "upper case"
        assert hits == ["upper case"]

    def test_judge_in_parallel_matches_the_serial_run(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        gens = [f"gen {i % 7}" for i in range(28)]
        outputs = {}
        for parallelism in (1, 4):
            hits.clear()
            argv, out = _judge_one_row(tmp_path, url, "unused", parallelism=parallelism,
                                       cache_dir=str(tmp_path / f"cache-{parallelism}"))
            (tmp_path / "pred.jsonl").write_text(
                "".join(json.dumps({"image_id": "im1", "anatomy": "lung", "text": gen}) + "\n"
                        for gen in gens), encoding="utf-8")
            assert dispatch(argv) == 0
            assert sorted(hits) == sorted(set(gens))
            outputs[parallelism] = out.read_bytes()
        assert outputs[4] == outputs[1]
        assert [json.loads(line)["verdict"]["reason"] for line in outputs[1].splitlines()] == gens


class TestJudgeDecoding:
    """Every reply, live or cached, is decoded by the rule of every JSON input,
    and the endpoint document is too."""

    _REJECTED = ["huge integer", "deep nesting", "lone surrogate"]

    @pytest.mark.parametrize("lenient", [False, True])
    def test_a_reply_the_rule_rejects_is_one_error_row(self, lenient, tmp_path, judge_server):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "Clear.")
        pred = tmp_path / "pred.jsonl"
        gens = ["Clear.", *self._REJECTED]
        pred.write_text("".join(json.dumps({"image_id": "im1", "anatomy": "lung", "text": gen}) + "\n"
                                for gen in gens), encoding="utf-8")
        assert dispatch(argv + ["--lenient"] * lenient) == 0
        rows = read_jsonl(out)
        assert hits == gens
        assert rows[0]["verdict"] == {**VERDICT, "reason": "Clear."}
        for gen, row in zip(self._REJECTED, rows[1:]):
            assert row["error"].startswith("invalid JSON in response: "), row["error"]
            assert row["raw"] == _REPLIES[gen][2].decode("utf-8")
        assert len(rows) == len(gens)

    def test_a_cached_reply_is_decoded_as_a_live_one(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "bad bytes", cache_dir=str(tmp_path / "cache"))
        assert dispatch(argv) == 0
        live = out.read_bytes()
        # The cache holds what the transport decoded; put the endpoint's raw bytes there.
        (entry,) = (tmp_path / "cache").iterdir()
        entry.write_bytes(_REPLIES["bad bytes"][2])
        assert dispatch(argv) == 0
        assert out.read_bytes() == live
        assert hits == ["bad bytes"]

    @pytest.mark.parametrize("field", ["model", "api_key_env", "cache_dir"])
    def test_an_endpoint_escaping_a_lone_surrogate_is_rejected_before_any_request(
        self, field, tmp_path, judge_server, capsys
    ):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "Clear.")
        endpoint = tmp_path / "endpoint.json"
        doc = json.loads(endpoint.read_text(encoding="utf-8"))
        endpoint.write_text(json.dumps({**doc, field: "\ud800"}), encoding="utf-8")
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR radloop: FormatError: line 0: text holds a lone surrogate: ")
        assert "Traceback" not in err
        assert hits == [] and not out.exists()

    def test_the_endpoint_comes_from_the_config_without_endpoint(self, tmp_path, judge_server):
        url, hits, _ = judge_server
        argv, out = _judge_one_row(tmp_path, url, "from config")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": read_json(tmp_path / "endpoint.json")}),
                          encoding="utf-8")
        i = argv.index("--endpoint")
        assert dispatch(argv[:i] + argv[i + 2:] + ["--config", str(config)]) == 0
        assert read_jsonl(out)[0]["verdict"] == {**VERDICT, "reason": "from config"}
        assert hits == ["from config"]

    def test_judge_without_an_endpoint_reads_no_input(self, tmp_path, capsys):
        argv = ["judge", "--pred", str(tmp_path / "none.jsonl"), "--gold", str(tmp_path / "none"),
                "--out", str(tmp_path / "out")]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "ERROR radloop: ConfigError: the judge command needs --endpoint (or a config endpoint)\n")


@pytest.mark.parametrize("edit, names", [
    ({"timeout": 1e300}, ["timeout"]),
    ({"max_retries": 1, "backoff": 1e308}, ["backoff", "max_retries"]),
    ({"max_retries": 1100, "backoff": 0.5}, ["backoff", "max_retries"]),
])
def test_a_wait_past_timeout_max_is_rejected_before_any_input_is_read(edit, names, tmp_path, capsys):
    # These waits overflowed in sleep() or in backoff * 2**attempt, with a traceback.
    endpoint = tmp_path / "endpoint.json"
    endpoint.write_text(json.dumps({"url": "http://127.0.0.1:1/v1", "model": "m", **edit}),
                        encoding="utf-8")
    argv = ["judge", "--pred", str(tmp_path / "none.jsonl"), "--gold", str(tmp_path / "none"),
            "--endpoint", str(endpoint), "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR radloop: ConfigError: bad endpoint: "), err
    assert all(name in err for name in names)


def test_zero_backoff_retries_past_attempt_1024(fuzz_inputs, tmp_path, capsys):
    # backoff * 2**attempt raised OverflowError from attempt 1024 on.
    endpoint = tmp_path / "endpoint.json"
    endpoint.write_text(json.dumps({"url": "http://127.0.0.1:1/v1", "model": "m",
                                    "max_retries": 1100, "backoff": 0.0}), encoding="utf-8")
    argv = ["judge", "--pred", str(fuzz_inputs["JUDGED"]), "--gold", str(fuzz_inputs["REPORTS"]),
            "--endpoint", str(endpoint), "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "ERROR radloop: RetriesExhausted: gave up after 1101 attempts" in err
    assert "Traceback" not in err


class TestPreprocess:
    def test_round_trip(self, tmp_path):
        grid = IntensityGrid(16, 16, 255, [100.0] * 256)
        src = tmp_path / "grid.json"
        src.write_text(json.dumps(grid.to_json()), encoding="utf-8")
        out = tmp_path / "eval.json"
        rc = dispatch(
            [
                "preprocess",
                "--in",
                str(src),
                "--resize-w",
                "32",
                "--resize-h",
                "32",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = read_json(out)
        assert doc["width"] == 32 and doc["height"] == 32
        assert all(v == pytest.approx(100.0, abs=1e-9) for v in doc["values"])

    def test_a_target_too_large_to_hold_is_a_clean_failure(self, tmp_path, monkeypatch, capsys):
        # A 10,000,000-square target passes the flag rules, but its index
        # arrays alone take about 640 MB before numpy fails to allocate the
        # grid, so the test raises the MemoryError in place of the resize.
        def no_memory(grid, width, height):
            raise MemoryError(f"Unable to allocate a {width}x{height} grid")

        monkeypatch.setattr(augment, "resize_bilinear", no_memory)
        src, out = tmp_path / "grid.json", tmp_path / "eval.json"
        src.write_text(json.dumps(IntensityGrid(8, 8, 255, [9] * 64).to_json()), encoding="utf-8")
        out.write_text("old", encoding="utf-8")
        argv = ["preprocess", "--in", str(src), "--resize-w", "10000000", "--resize-h",
                "10000000", "--out", str(out)]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == ("ERROR radloop: MemoryError: Unable to allocate a "
                                           "10000000x10000000 grid\n")
        assert out.read_text(encoding="utf-8") == "old"
        assert not (tmp_path / "eval.json.manifest.json").exists()


class TestConfigHandling:
    def test_unknown_config_key(self, records_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "bogus": True}), encoding="utf-8")
        rc = dispatch(
            [
                "gen-tasks",
                "--records",
                str(records_path),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert rc == 1

    def test_json_log_mode(self, records_path, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        rc = dispatch(
            ["gen-tasks", "--records", str(records_path), "--out", str(out), "--log", "json"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        lines = [json.loads(line) for line in err.splitlines() if line.strip()]
        assert any(line["level"] == "info" and "wrote" in line["message"] for line in lines)


# ---------------------------------------------------------------------------
# Malformed input never escapes as a traceback

_GOOD_RECORD = {
    "image_id": "i", "source_id": "s", "task": "pg", "category": "c", "text": "x",
    "boxes": [[0.5, 0.5, 0.2, 0.2]], "split": "train",
}

#: JSONL bodies that break one rule each: non-object lines, truncated JSON,
#: and wrong-typed findings, boxes, meta and id fields in every row shape
#: the CLI reads (records, raw ingest rows, predictions, judge rows).
_BAD_JSONL = [
    '[1, 2]\n"error"\n5\n',
    '"error"\n',
    '{"image_id": "i", "source_id": "s", "ta\n',
    *(
        json.dumps({**_GOOD_RECORD, **override}) + "\n"
        for override in (
            {"findings": [1]},
            {"findings": "x"},
            {"findings": [{"text": "t", "boxes": "b"}]},
            {"boxes": "x"},
            {"boxes": [[1, 2]]},
            {"boxes": [["a", 0.5, 0.1, 0.1]]},
            {"boxes": [[5.0, 5.0, 0.1, 0.1]]},
            {"meta": [1]},
            {"image_id": [1]},
            {"task": [1]},
        )
    ),
    json.dumps({"image_id": "i", "location": "spine", "box": "x"}) + "\n",
    json.dumps({"image_id": "i", "location": "spine", "box": [5.0, 5.0, 0.1, 0.1]}) + "\n",
    json.dumps({"image_id": "i", "phrase": "p", "boxes": [[1, 2]]}) + "\n",
    json.dumps({"image_id": "i", "findings": [{"label": "x", "boxes": "y"}]}) + "\n",
    json.dumps({"image_id": "i", "output": [1]}) + "\n",
    json.dumps({"image_id": "im1", "anatomy": "a", "text": {"t": 1}}) + "\n",
    json.dumps({"image_id": ["im1"], "anatomy": "a", "text": "t"}) + "\n",
    json.dumps({"image_id": {"k": 1}, "text": "t"}) + "\n",
    json.dumps({"anatomy": "a", "verdict": 1}) + "\n",
    json.dumps({"anatomy": "a", "verdict": {"reason": "r"}}) + "\n",
]

#: Grid documents whose numbers are not JSON integers in range (preprocess).
_BAD_GRIDS = [
    json.dumps({"width": 2, "height": 2, "max_level": 255, "values": [0, 5, value, 7]})
    for value in (1.5, -0.5, "3", True, False, 1e300, 2**70, None, [1], -3, 300)
] + [
    json.dumps({"width": 2, "height": 2, "max_level": 255, **override})
    for override in (
        {"values": [[0, 1], [2, 3]]},
        {"values": {"0": 1}},
        {"values": [0, 1, 2, 3], "width": 2.0},
        {"values": [0, 1, 2, 3], "width": True},
        {"values": [0, 1, 2, 3], "width": -2, "height": -2},
        {"values": [0, 1, 2, 3], "max_level": "255"},
        {"values": [0, 1, 2, 3], "max_level": 0},
    )
] + [
    # Deeper than 16 bits; 2**40 would ask for 512 TiB of lookup tables.
    json.dumps({"width": 8, "height": 8, "max_level": level, "values": [0] * 64})
    for level in (65536, 2**40)
]

#: JSON documents for the config, policy, endpoint, metrics and grid inputs.
_BAD_DOCS = [
    "[1, 2]",
    "5",
    '{"seed": ',
    '{"curriculum": {"bogus": 1}}',
    '{"curriculum": {"alpha": [1]}}',
    '{"curriculum": {"inter_strategy": "bogus"}}',
    '{"curriculum": [1]}',
    '{"policy": 3}',
    '{"policy": {"p_clahe": "x"}}',
    '{"policy": {"crop_scale_range": 1}}',
    '{"endpoint": {"url": "u", "model": "m", "extra": 1}}',
    '{"endpoint": {"url": "u"}}',
    '{"seed": [1]}',
    '{"version": null}',
    '{"bogus": 1}',
    "[{}]",
    '[{"name": "x"}]',
    *_BAD_GRIDS,
]

_FUZZ_CASES = {
    "ingest-scene_graph": ["ingest", "--in", "BAD", "--format", "scene_graph"],
    "ingest-phrase_boxes": ["ingest", "--in", "BAD", "--format", "phrase_boxes"],
    "ingest-grounded_report": ["ingest", "--in", "BAD", "--format", "grounded_report"],
    "ingest-detection": ["ingest", "--in", "BAD", "--format", "detection"],
    "gen-tasks": ["gen-tasks", "--records", "BAD"],
    "augment": ["augment", "--records", "BAD", "--seed", "1"],
    "augment-policy": ["augment", "--records", "RECORDS", "--policy", "DOC", "--seed", "1"],
    "plan": ["plan", "--records", "BAD"],
    "plan-metrics": ["plan", "--records", "RECORDS", "--metrics", "DOC"],
    "sample": ["sample", "--records", "BAD", "--plan", "PLAN", "--n", "3", "--seed", "1"],
    "sample-plan": ["sample", "--records", "RECORDS", "--plan", "DOC", "--n", "3", "--seed", "1"],
    "simulate": ["simulate", "--records", "BAD", "--seed", "1", "--warmup-steps", "10",
                 "--reweight-interval", "10", "--total-steps", "20"],
    "eval-pred": ["eval", "--pred", "BAD", "--gold", "RECORDS", "--task", "pg"],
    "eval-gold": ["eval", "--pred", "PREDS", "--gold", "BAD", "--task", "pg"],
    "judge-pred": ["judge", "--pred", "BAD", "--gold", "REPORTS", "--endpoint", "ENDPOINT"],
    "judge-gold": ["judge", "--pred", "JUDGED", "--gold", "BAD", "--endpoint", "ENDPOINT"],
    "judge-endpoint": ["judge", "--pred", "JUDGED", "--gold", "REPORTS", "--endpoint", "DOC"],
    "judge-aggregate": ["judge-aggregate", "--in", "BAD"],
    "preprocess": ["preprocess", "--in", "DOC"],
    "config": ["gen-tasks", "--records", "RECORDS", "--config", "DOC"],
}


@pytest.fixture()
def fuzz_inputs(records_path, tmp_path):
    paths = {"RECORDS": records_path, "PLAN": tmp_path / "plan.json"}
    assert dispatch(["plan", "--records", str(records_path), "--out", str(paths["PLAN"])]) == 0
    rows = {
        "PREDS": [{"image_id": "i", "output": "x: [0.50,0.50,0.20,0.20]"}],
        "REPORTS": [{"image_id": "im1", "text": "Normal."}],
        "JUDGED": [{"image_id": "im1", "anatomy": "a", "text": "Clear."}],
        "JUDGED_5": [{"image_id": "5", "anatomy": "a", "text": "Clear."}],
    }
    for name, body in rows.items():
        paths[name] = tmp_path / f"{name.lower()}.jsonl"
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in body), encoding="utf-8")
    # Nothing listens on port 1, so a row that gets as far as the endpoint fails fast.
    paths["ENDPOINT"] = tmp_path / "endpoint.json"
    paths["ENDPOINT"].write_text(
        json.dumps({"url": "http://127.0.0.1:1/v1", "model": "m", "max_retries": 0}),
        encoding="utf-8",
    )
    return paths


@pytest.mark.parametrize("case", sorted(_FUZZ_CASES))
def test_malformed_inputs_exit_cleanly(case, fuzz_inputs, tmp_path, capsys):
    argv = _FUZZ_CASES[case]
    bodies = _BAD_JSONL if "BAD" in argv else _BAD_DOCS
    bad = tmp_path / "bad"
    for body in bodies:
        bad.write_text(body, encoding="utf-8")
        paths = {**fuzz_inputs, "BAD": bad, "DOC": bad}
        args = [str(paths.get(a, a)) for a in argv] + ["--out", str(tmp_path / "out")]
        rc = dispatch(args)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (body, err)
        assert "Traceback" not in err, (body, err)


#: Metrics for every source and category of ``records_path``.
_GOOD_METRICS = [
    {"name": "pgsrc", "task": "pg", "iou": 0.5, "text_score": 0.7,
     "per_category": {"a": {"iou": 0.4}, "b": {"iou": 0.6, "text_score": 0.2}}},
    {"name": "grgsrc", "task": "grg", "text_score": 0.8,
     "per_category": {"report": {"text_score": 0.8}}},
]

_SAMPLE_BAD_PLAN = ["sample", "--records", "RECORDS", "--plan", "BAD", "--n", "3", "--seed", "1"]
_EVAL_BAD_PRED = ["eval", "--pred", "BAD", "--gold", "RECORDS", "--task", "pg"]
#: An image id of ``records_path``.
_GOLD_ID = "pgsrc-pg-a-00000"


def _plan_doc(**subtask):
    source = {"name": "pgsrc", "task": "pg", "size": 6, "prob": 1.0, "score": None,
              "error": None, "subtasks": {"pg": subtask}}
    return {"state": {"stage_index": 0, "sources": {"pgsrc:pg": source}}}


def _impossible_plan():
    """A reproduced plan: source probs 7.0 and 0.5, and subtask probs -1 and 2."""
    plan = _plan_doc(categories=["a", "b"], sizes=[6, 6], probs=[-1.0, 2.0])
    plan["state"]["sources"]["pgsrc:pg"]["prob"] = 7.0
    plan["state"]["sources"]["grgsrc:grg"] = {
        "name": "grgsrc", "task": "grg", "size": 3, "prob": 0.5, "score": None, "error": None,
        "subtasks": {"grg": {"categories": ["report"], "sizes": [3], "probs": [1.0]}}}
    return plan


def _plan_source_doc(**source):
    plan = _plan_doc(categories=["a"], sizes=[6], probs=[1.0])
    plan["state"]["sources"]["pgsrc:pg"].update(source)
    return plan


def _miskeyed_plan():
    """A reproduced plan: its keys 'x:pg' and 'y:pg' both name source 'pgsrc:pg'."""
    source = _plan_source_doc(prob=0.5)["state"]["sources"]["pgsrc:pg"]
    return {"state": {"stage_index": 0, "sources": {"x:pg": source, "y:pg": source}}}


@pytest.mark.parametrize(
    "argv,body,error",
    [
        (["judge-aggregate", "--in", "BAD"], '"error"\n', "FormatError"),
        (["judge-aggregate", "--in", "BAD"], "[1]\n", "FormatError"),
        (["judge", "--pred", "BAD", "--gold", "REPORTS", "--endpoint", "ENDPOINT"],
         "[1]\n", "FormatError"),
        (["judge", "--pred", "JUDGED", "--gold", "BAD", "--endpoint", "ENDPOINT"],
         "5\n", "FormatError"),
        (["gen-tasks", "--records", "BAD"],
         json.dumps({**_GOOD_RECORD, "findings": [1]}) + "\n", "FormatError"),
        (["plan", "--records", "RECORDS", "--metrics", "BAD"], "[1, 2]", "FormatError"),
        (["gen-tasks", "--records", "RECORDS", "--config", "BAD"],
         '{"curriculum": {"bogus": 1}}', "ConfigError"),
        (["gen-tasks", "--records", "RECORDS", "--config", "BAD"],
         '{"policy": {"bogus": 1}}', "ConfigError"),
        (["gen-tasks", "--records", "RECORDS", "--config", "BAD"],
         '{"endpoint": {"url": "u", "model": "m", "bogus": 1}}', "ConfigError"),
        (["gen-tasks", "--records", "BAD"],
         json.dumps({**_GOOD_RECORD, "text": "a\ud800b"}) + "\n", "FormatError"),
        (["gen-tasks", "--records", "BAD"],
         json.dumps({**_GOOD_RECORD, "text": "a: [b"}) + "\n", "Unrenderable"),
        *((["preprocess", "--in", "BAD"], doc, "FormatError") for doc in _BAD_GRIDS),
        (_SAMPLE_BAD_PLAN, json.dumps({"state": {"stage_index": 0, "sources": {}}}), "EmptyLeaf"),
        (_SAMPLE_BAD_PLAN, json.dumps(_plan_doc(categories=["a"], sizes=[6], probs=[])),
         "FormatError"),
        *((["plan", "--records", "RECORDS", "--metrics", "BAD"],
           json.dumps([{**_GOOD_METRICS[0], "iou": value}, _GOOD_METRICS[1]]), "FormatError")
          for value in ("abc", [1], True, "0.5")),
        (["plan", "--records", "RECORDS", "--metrics", "BAD"],
         json.dumps([{**_GOOD_METRICS[0], "per_category": {"a": {"iou": False}, "b": {}}},
                     _GOOD_METRICS[1]]),
         "FormatError"),
        *((_SAMPLE_BAD_PLAN, json.dumps(_plan_doc(categories=["a"], sizes=[6], probs=probs)),
           "FormatError")
          for probs in (["0.5"], [True])),
        (_SAMPLE_BAD_PLAN, json.dumps(_plan_doc(categories=["a"], sizes=[6.0], probs=[1.0])),
         "FormatError"),
        (_SAMPLE_BAD_PLAN, json.dumps(_plan_doc(categories=[1], sizes=[6], probs=[1.0])),
         "FormatError"),
        (_SAMPLE_BAD_PLAN, json.dumps(_plan_source_doc(prob=True)), "FormatError"),
        (_SAMPLE_BAD_PLAN, json.dumps(_plan_source_doc(score="0.5")), "FormatError"),
        *((["simulate", "--records", "RECORDS", "--seed", "1", "--config", "BAD"],
           json.dumps({"curriculum": section}), "ConfigError")
          for section in (
              {"warmup_steps": 10, "reweight_interval": 10, "total_steps": 30.5},
              {"warmup_steps": True},
              {"alpha": True},
          )),
        # The curriculum rule has no floor: a min_prob key is unknown, whatever its value.
        *((["simulate", "--records", "RECORDS", "--seed", "1", "--config", "BAD"],
           json.dumps({"curriculum": {"min_prob": value}}), "ConfigError: unknown curriculum keys")
          for value in (2.0, 1.0, -1.0)),
        (["augment", "--records", "RECORDS", "--seed", "1", "--policy", "BAD"],
         '{"p_crop": true, "p_bypass": false}', "ConfigError"),
        *((["gen-tasks", "--records", "RECORDS", "--config", "BAD"], body, "ConfigError")
          for body in ('{"seed": 1.5}', '{"seed": true}', '{"parse_mode": 3}',
                       '{"version": 2}', '{"version": "1"}', '{"policy": false}')),
        *((["judge", "--pred", "JUDGED", "--gold", "REPORTS", "--endpoint", "BAD"],
           json.dumps({"url": "http://127.0.0.1:1/v1", "model": "m", field: True}),
           "ConfigError")
          for field in ("timeout", "max_retries", "backoff", "parallelism")),
        # Impossible probabilities: negative, or a level that does not sum to 1.
        (_SAMPLE_BAD_PLAN, json.dumps(_impossible_plan()), "FormatError"),
        *((_SAMPLE_BAD_PLAN, json.dumps(_plan_source_doc(prob=prob)), "FormatError")
          for prob in (-1.0, 0.5, 1.001)),
        *((_SAMPLE_BAD_PLAN,
           json.dumps(_plan_doc(categories=["a", "b"], sizes=[6, 6], probs=probs)),
           "FormatError")
          for probs in ([-1.0, 2.0], [0.5, 0.6], [0.0, 0.0])),
        # A repeated category: such a plan drew it in place of one the pool holds.
        (_SAMPLE_BAD_PLAN,
         json.dumps(_plan_doc(categories=["a", "a", "b"], sizes=[6, 6, 6], probs=[0.5, 0.25, 0.25])),
         "FormatError: line 0: bad document: ValueError: subtask 'pg' of 'pgsrc:pg'"),
        # Each row kind has one type per field: no coercion, no aliases, no fall-through.
        *((_EVAL_BAD_PRED, json.dumps(row) + "\n", "FormatError: line 1")
          for row in (
              {"image_id": _GOLD_ID, "output": [1]},
              {"id": _GOLD_ID, "text": "a: [0.50,0.50,0.20,0.20]"},
              {"image_id": "", "id": _GOLD_ID, "output": "a: [0.50,0.50,0.20,0.20]"},
          )),
        (["judge", "--pred", "BAD", "--gold", "REPORTS", "--endpoint", "ENDPOINT"],
         json.dumps({"image_id": "im1", "anatomy": "a", "text": 7}) + "\n",
         "FormatError: line 1"),
        (["judge", "--pred", "JUDGED_5", "--gold", "BAD", "--endpoint", "ENDPOINT"],
         json.dumps({"image_id": 5, "text": "Normal."}) + "\n",
         "FormatError: line 1"),
        (["judge", "--pred", "JUDGED", "--gold", "BAD", "--endpoint", "ENDPOINT"],
         json.dumps({"image_id": "im1", "report": "Normal."}) + "\n",
         "FormatError: line 1"),
        (["judge", "--pred", "JUDGED", "--gold", "BAD", "--endpoint", "ENDPOINT"],
         json.dumps({"image_id": "im1", "text": "Normal."}) + "\n"
         + json.dumps({"image_id": "im1", "text": "Effusion."}) + "\n",
         "FormatError: line 2"),
        (["judge-aggregate", "--in", "BAD"],
         json.dumps({"image_id": "im1", "anatomy": ["a"], "verdict": VERDICT}) + "\n",
         "FormatError: line 1"),
        (["judge-aggregate", "--in", "BAD"],
         json.dumps({"image_id": "im1", "anatomy": "a", "error": None}) + "\n",
         "FormatError: line 1"),
        (["judge-aggregate", "--in", "BAD"],
         json.dumps({"image_id": "im1", "anatomy": "a", "verdict": {**VERDICT, "reason": 5}}) + "\n",
         "IllegalValue"),
        (["ingest", "--in", "BAD", "--format", "phrase_boxes"],
         json.dumps({"image_id": "i", "phrase": "p", "boxes": [[0.5, 0.5, 0.2, 0.2]],
                     "category": ["c"]}) + "\n",
         "FormatError: line 1"),
        (["ingest", "--in", "BAD", "--format", "detection"],
         json.dumps({"image_id": "i", "source_id": None,
                     "findings": [{"label": "x", "boxes": [[0.5, 0.5, 0.2, 0.2]]}]}) + "\n",
         "FormatError: line 1"),
        *((["gen-tasks", "--records", "BAD"], json.dumps({**_GOOD_RECORD, "boxes": [box]}) + "\n",
           "FormatError: line 1")
          for box in (["0.5", "0.5", "0.2", "0.2"], [True, 0.5, True, 0.2])),
        # Metrics outside [0, 1]: the error names the source and the category.
        *((["plan", "--records", "RECORDS", "--metrics", "BAD"],
           json.dumps([{**_GOOD_METRICS[0], "iou": value}, _GOOD_METRICS[1]]),
           "FormatError: line 0: bad document: ValueError: source 'pgsrc:pg'")
          for value in (1.5, -0.5)),
        (["plan", "--records", "RECORDS", "--metrics", "BAD"],
         json.dumps([{**_GOOD_METRICS[0], "per_category": {"a": {"text_score": 2}, "b": {}}},
                     _GOOD_METRICS[1]]),
         "FormatError: line 0: bad document: ValueError: source 'pgsrc:pg' category 'a'"),
        # A source whose key is not its name:task drew it under two probabilities.
        (_SAMPLE_BAD_PLAN, json.dumps(_miskeyed_plan()), "FormatError"),
        # A metrics document holds only the keys it defines, and one of the entry maps.
        (["plan", "--records", "RECORDS", "--metrics", "BAD"],
         json.dumps([{**_GOOD_METRICS[0], "per_category": {"a": {"iou": 0.3, "bogus": 1}}},
                     _GOOD_METRICS[1]]), "FormatError"),
        (["plan", "--records", "RECORDS", "--metrics", "BAD"],
         json.dumps([{**_GOOD_METRICS[0], "per_subtask": {"pg": _GOOD_METRICS[0]["per_category"]}},
                     _GOOD_METRICS[1]]), "FormatError"),
        (["plan", "--records", "RECORDS", "--metrics", "BAD"],
         json.dumps([{"name": "pgsrc", "task": "pg", "iou": 0.5, "per_subtask": {"bogus": {"a": {"iou": 0.4}}}},
                     _GOOD_METRICS[1]]), "FormatError: line 0: bad document: ValueError"),
        (["plan", "--records", "RECORDS", "--metrics", "BAD"],
         json.dumps([{"name": "pgsrc", "task": "pg", "iou": 0.5,
                      "per_subtask": {"agrg_locate": {"a": {"iou": 0.4}, "b": {"iou": 0.9}}}},
                     _GOOD_METRICS[1]]),
         "FormatError: line 0: bad document: ValueError: source 'pgsrc:pg' per_subtask has tasks of another "
         "family ['agrg_locate']\n"),
        # The grid's own rules, named as a grid built in Python names them.
        *((["preprocess", "--in", "BAD"],
           json.dumps({"width": 2, "height": 2, "max_level": 255, "values": [0, 1, 2, 3], **override}),
           f"FormatError: line 0: grid {message}\n")
          for override, message in (
              ({"width": 2.0}, "width must be a positive integer, got 2.0"),
              ({"max_level": 65536}, "max_level must be an integer in [1, 65535], got 65536"),
              ({"values": [0, 1, 2]}, "has 3 values, not width * height = 4"),
          )),
        # A plan holds only the keys `plan` writes, and a given schema_version is 1.
        *((_SAMPLE_BAD_PLAN, json.dumps(plan), f"FormatError: line 0: bad document: ValueError: {message}\n")
          for plan, message in (
              (_plan_source_doc(prbo=0.3), "source 'pgsrc:pg' has unknown keys ['prbo']"),
              (_plan_doc(categories=["a"], sizes=[6], probs=[1.0], prob=[0.9, 0.1]),
               "subtask 'pg' of 'pgsrc:pg' has unknown keys ['prob']"),
              ({"state": {**_plan_source_doc()["state"], "extra": 1}}, "the plan state has unknown keys ['extra']"),
              ({**_plan_source_doc(), "foo": 1}, "the plan has unknown keys ['foo']"),
              ({**_plan_source_doc(), "schema_version": 7}, "the plan schema_version must be 1, got 7"),
              ({"state": {"stage_index": 0, "sources": []}}, "the plan sources must be an object, got []"),
              (_plan_source_doc(subtasks=[1]), "source 'pgsrc:pg' subtasks must be an object, got [1]"),
          )),
        # A grid document holds only the grid's four fields.
        (["preprocess", "--in", "BAD"],
         json.dumps({"width": 2, "height": 1, "max_level": 3, "values": [0, 1], "maxlevel": 9000}),
         "FormatError: line 0: grid has unknown keys ['maxlevel']\n"),
    ],
)
def test_malformed_input_names_the_domain_error(
    argv, body, error, fuzz_inputs, judge_server, tmp_path, capsys
):
    bad = tmp_path / "bad"
    bad.write_text(body, encoding="utf-8")
    # A judge row that got past its decoder would reach this endpoint.
    url, hits, _ = judge_server
    endpoint = tmp_path / "stub_endpoint.json"
    endpoint.write_text(json.dumps({"url": url, "model": "m", "max_retries": 0}), encoding="utf-8")
    paths = {**fuzz_inputs, "BAD": bad, "ENDPOINT": endpoint}
    rc = dispatch([str(paths.get(a, a)) for a in argv] + ["--out", str(tmp_path / "out")])
    assert rc == 1
    # A whole message ends in its newline; any other error is a prefix that a colon follows.
    assert f"ERROR radloop: {error}" + ("" if error.endswith("\n") else ":") in capsys.readouterr().err
    assert hits == []


_PG_SOURCE = {"name": "pgsrc", "task": "pg"}


@pytest.mark.parametrize("source, message", [
    ({**_GOOD_METRICS[0], "txt": 0.3}, "source 'pgsrc:pg' has unknown keys ['txt']"),
    ({**_GOOD_METRICS[0], "per_category": {"a": {"iou": 0.3, "bogus": 1}, "b": {"iou": 0.6}}},
     "source 'pgsrc:pg' category 'a' has unknown keys ['bogus']"),
    ({**_GOOD_METRICS[0], "per_subtask": {"pg": _GOOD_METRICS[0]["per_category"]}},
     "source 'pgsrc:pg' gives both per_category and per_subtask"),
    ({**_GOOD_METRICS[0], "per_category": [1]}, "source 'pgsrc:pg' per_category must be an object, got [1]"),
    ({**_GOOD_METRICS[0], "per_category": {"a": 5, "b": {}}},
     "source 'pgsrc:pg' category 'a' must be an object, got 5"),
    ({**_PG_SOURCE, "per_subtask": []}, "source 'pgsrc:pg' per_subtask must be an object, got []"),
    ({**_PG_SOURCE, "per_subtask": {"pg": [1]}}, "source 'pgsrc:pg' subtask 'pg' must be an object, got [1]"),
    ({**_PG_SOURCE, "per_subtask": {"pg": {"a": {"iou": 0.1, "text": 0.5}}}},
     "source 'pgsrc:pg' subtask 'pg' category 'a' has unknown keys ['text']"),
    ({**_PG_SOURCE, "iou": 0.5, "per_subtask": {"bogus": {"a": {"iou": 0.4}}}},
     "source 'pgsrc:pg' per_subtask has unknown tasks ['bogus']"),
    ({**_PG_SOURCE, "iou": 0.5, "per_subtask": {"agrg_locate": {"a": {"iou": 0.4}, "b": {"iou": 0.9}}}},
     "source 'pgsrc:pg' per_subtask has tasks of another family ['agrg_locate']"),
])
def test_a_metrics_document_holds_only_the_keys_it_defines(source, message, records_path, tmp_path, capsys):
    # An ignored key would drop a misspelt metric from the score without a word, and an
    # ignored per_category would leave its categories without metrics.
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps([source, _GOOD_METRICS[1]]), encoding="utf-8")
    argv = ["plan", "--records", str(records_path), "--metrics", str(metrics), "--out", str(tmp_path / "p")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"ERROR radloop: FormatError: line 0: bad document: ValueError: {message}\n"


@pytest.mark.parametrize("argv", [
    ["gen-tasks", "--records", "BAD"],
    ["plan", "--records", "BAD"],
    ["eval", "--pred", "PREDS", "--gold", "BAD", "--task", "pg"],
])
def test_a_detection_record_is_an_unknown_task(argv, tmp_path, capsys):
    bad, preds = tmp_path / "bad.jsonl", tmp_path / "preds.jsonl"
    bad.write_text(json.dumps({**_GOOD_RECORD, "task": "detection"}) + "\n", encoding="utf-8")
    preds.write_text("", encoding="utf-8")
    paths = {"BAD": bad, "PREDS": preds}
    rc = dispatch([str(paths.get(a, a)) for a in argv] + ["--out", str(tmp_path / "out")])
    assert rc == 1
    assert "ERROR radloop: FormatError: line 1: unknown task 'detection'\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [[], ["--metrics", "METRICS"], ["--metrics", "METRICS", "--alpha", "0.5", "--inter", "natural"]]
)
def test_plans_the_plan_command_writes_are_sampled(flags, records_path, tmp_path):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(_GOOD_METRICS), encoding="utf-8")
    plan, out = tmp_path / "plan.json", tmp_path / "draws.jsonl"
    flags = [str(metrics) if f == "METRICS" else f for f in flags]
    assert dispatch(["plan", "--records", str(records_path), *flags, "--out", str(plan)]) == 0
    CurriculumState.from_json(read_json(plan)["state"])
    assert dispatch(["sample", "--records", str(records_path), "--plan", str(plan),
                     "--n", "20", "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 20


def test_sample_n_counts_from_zero(fuzz_inputs, tmp_path, capsys):
    out = tmp_path / "draws.jsonl"
    argv = ["sample", "--records", str(fuzz_inputs["RECORDS"]), "--plan", str(fuzz_inputs["PLAN"]),
            "--seed", "1", "--out", str(out)]
    assert dispatch([*argv, "--n", "-3"]) == 1
    assert capsys.readouterr().err == "ERROR radloop: ConfigError: --n must be >= 0, got -3\n"
    assert not out.exists()
    assert dispatch([*argv, "--n", "0"]) == 0
    assert out.read_bytes() == b""


def test_undecodable_bytes_name_their_line(records_path, tmp_path, capsys):
    # Line 3 counts "\r\n" and a lone "\r" as one line end each.
    bad = tmp_path / "bad.jsonl"
    good = json.dumps(_GOOD_RECORD).encode()
    bad.write_bytes(good + b"\r\n" + good + b"\r" + good.replace(b'"x"', b'"\xed\xa0\x80"') + b"\n")
    assert dispatch(["gen-tasks", "--records", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ERROR radloop: FormatError: line 3: invalid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["gen-tasks"], ["augment", "--seed", "1"]])
def test_failing_stream_keeps_the_old_output(argv, records_path, tmp_path, capsys):
    # The last record cannot render, so the stage fails after streaming all
    # the others: the old output stays as it was and nothing else is left.
    bad = tmp_path / "bad.jsonl"
    unrenderable = json.dumps({**_GOOD_RECORD, "text": "a: [b"}) + "\n"
    bad.write_text(records_path.read_text(encoding="utf-8") + unrenderable, encoding="utf-8")
    out = tmp_path / "tasks.jsonl"
    out.write_bytes(b"old output\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert dispatch([argv[0], "--records", str(bad), *argv[1:], "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "ERROR radloop: Unrenderable: pg phrase 'a: [b' holds ': [', which ends the phrase"
        " in the response\n"
    )
    assert out.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


_policy_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.floats(0.0, 1.0)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=8,
)
# Per field, values that are valid more often than not, and a few just past a bound.
_near_policy_values = {
    **dict.fromkeys(("p_clahe", "p_crop", "p_affine", "p_bypass", "min_box_visibility"),
                    st.floats(0.0, 1.1)),
    **dict.fromkeys(("clahe_clip_range", "crop_scale_range", "crop_aspect_range"),
                    st.lists(st.floats(0.0, 1.1), min_size=2, max_size=2).map(sorted)),
    "clahe_grid": st.lists(st.integers(0, 9), min_size=2, max_size=2),
}
_policy_docs = (
    _policy_values
    | st.dictionaries(st.sampled_from([*_near_policy_values, "bogus"]), _policy_values)
    | st.fixed_dictionaries({}, optional=_near_policy_values)
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_policy_docs)
@example(doc={"crop_scale_range": [0.8, 0.9, 1.0], "p_crop": 1.0})
@example(doc={"clahe_clip_range": [2.0]})
@example(doc={"clahe_grid": [0, -3]})
@example(doc={"clahe_grid": "xy"})
@example(doc={"crop_aspect_range": [1e-300, 1.0], "p_crop": 1.0, "p_bypass": 0.0})
@example(doc={"clahe_grid": [2, 3], "crop_scale_range": [0.5, 1]})
def test_any_policy_document_is_used_or_rejected_up_front(doc, records_path, tmp_path, capsys):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(doc), encoding="utf-8")
    try:
        valid = isinstance(load_json(policy, AugPolicy.from_json), AugPolicy)
    except RadloopError:
        valid = False
    argv = ["augment", "--records", str(records_path), "--seed", "3", "--policy", str(policy)]
    rc = dispatch(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if valid:
        assert rc == 0, err
    else:
        assert rc == 1 and ("ERROR radloop: ConfigError: " in err or "FormatError" in err), err


_GOOD_CONFIG = {
    "version": 1,
    "seed": 3,
    "parse_mode": "lenient",
    "curriculum": {"alpha": 0.5, "warmup_steps": 10, "reweight_interval": 10,
                   "total_steps": 30, "inter_strategy": "natural",
                   "intra_strategy": "curriculum"},
    "policy": {"p_crop": 0.5, "clahe_grid": [4, 4]},
    "endpoint": {"url": "http://127.0.0.1:1/v1", "model": "m", "timeout": 5,
                 "max_retries": 0, "backoff": 0.1, "parallelism": 2},
}

#: Per case: the argv, with DOC for the document under test, and its valid
#: form (None: the plan ``fuzz_inputs`` wrote).
_DOC_CASES = {
    "plan-metrics": (["plan", "--records", "RECORDS", "--metrics", "DOC"], _GOOD_METRICS),
    "sample-plan": (["sample", "--records", "RECORDS", "--plan", "DOC", "--n", "3",
                     "--seed", "1"], None),
    "plan-config": (["plan", "--records", "RECORDS", "--metrics", "METRICS",
                     "--config", "DOC"], _GOOD_CONFIG),
    "augment-policy": (["augment", "--records", "RECORDS", "--policy", "DOC", "--seed", "1"],
                       json.loads(json.dumps(dataclasses.asdict(AugPolicy())))),
}


def _positions(doc, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _positions(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _doc_case(case, fuzz_inputs, tmp_path):
    """The case's argv template, its valid document, and the paths to fill in."""
    argv, good = _DOC_CASES[case]
    if good is None:
        good = read_json(fuzz_inputs["PLAN"])
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(_GOOD_METRICS), encoding="utf-8")
    return argv, good, {**fuzz_inputs, "METRICS": metrics, "DOC": tmp_path / "doc.json"}


def _run_doc(argv, paths, doc, tmp_path, capsys):
    paths["DOC"].write_text(json.dumps(doc), encoding="utf-8")
    rc = dispatch([str(paths.get(a, a)) for a in argv] + ["--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(_DOC_CASES))
def test_the_valid_documents_are_used(case, fuzz_inputs, tmp_path, capsys):
    argv, good, paths = _doc_case(case, fuzz_inputs, tmp_path)
    rc, err = _run_doc(argv, paths, good, tmp_path, capsys)
    assert rc == 0, err


@pytest.mark.parametrize("case", sorted(_DOC_CASES))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_document_is_used_or_rejected_cleanly(case, data, fuzz_inputs, tmp_path, capsys):
    # Arbitrary JSON (_policy_values holds any JSON value), or the valid
    # document with one position (the root, a section, a field, a list item)
    # replaced by arbitrary JSON.
    argv, good, paths = _doc_case(case, fuzz_inputs, tmp_path)
    one_replaced = st.tuples(st.sampled_from(list(_positions(good))), _policy_values).map(
        lambda change: _replaced(good, *change)
    )
    doc = data.draw(_policy_values | one_replaced, label="doc")
    rc, err = _run_doc(argv, paths, doc, tmp_path, capsys)
    assert rc in (0, 1), err
    assert "Traceback" not in err, err


#: The whole-file documents beyond ``_DOC_CASES``: the endpoint and the grid.
_MORE_DOC_CASES = {
    "judge-endpoint": (["judge", "--pred", "JUDGED", "--gold", "REPORTS", "--endpoint", "DOC"],
                       {"url": "http://127.0.0.1:1/v1", "model": "m", "max_retries": 0,
                        "api_key_env": "K", "cache_dir": "c"}),
    "preprocess": (["preprocess", "--in", "DOC"], IntensityGrid(8, 8, 255, [9.0] * 64).to_json()),
}


@pytest.mark.parametrize("case", sorted({**_DOC_CASES, **_MORE_DOC_CASES}))
def test_a_document_escaping_a_lone_surrogate_is_rejected(case, fuzz_inputs, tmp_path, capsys):
    # At each position, the root included: a string there is read as the
    # document is decoded, before any rule of its kind applies.
    if case in _MORE_DOC_CASES:
        argv, good = _MORE_DOC_CASES[case]
        paths = {**fuzz_inputs, "DOC": tmp_path / "doc.json"}
    else:
        argv, good, paths = _doc_case(case, fuzz_inputs, tmp_path)
    rc, err = _run_doc(argv, paths, good, tmp_path, capsys)
    assert rc in (0, 1) and "line 0" not in err  # unreachable endpoint: TransportError
    for position in _positions(good):
        rc, err = _run_doc(argv, paths, _replaced(good, position, "a\udc00"), tmp_path, capsys)
        assert rc == 1
        assert err.startswith("ERROR radloop: FormatError: line 0: text holds a lone surrogate: "), err


@pytest.mark.parametrize("plan, message", [
    (_plan_doc(categories=[], sizes=[], probs=[]), "subtask 'pgsrc:pg'/pg has no categories"),
    (_plan_source_doc(subtasks={}), "source 'pgsrc:pg' has no subtasks"),
    # A leaf the plan lists must hold records, even at probability 0.
    (_plan_doc(categories=["a", "c"], sizes=[6, 0], probs=[1.0, 0.0]),
     "leaf 'pgsrc:pg'/pg/'c' has no records"),
])
def test_a_plan_level_with_nothing_to_draw_is_an_empty_leaf(plan, message, fuzz_inputs, tmp_path,
                                                            capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    argv = ["sample", "--records", str(fuzz_inputs["RECORDS"]), "--plan", str(plan_path),
            "--n", "3", "--seed", "1", "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"ERROR radloop: EmptyLeaf: {message}\n"


def test_curriculum_within_a_source_needs_its_metrics(records_path, tmp_path, capsys):
    # Uniform across sources reads no source metrics; curriculum within a
    # non-GRG source reads its category metrics.
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(_GOOD_METRICS[1:]), encoding="utf-8")
    argv = ["plan", "--records", str(records_path), "--metrics", str(metrics), "--inter", "uniform",
            "--intra", "curriculum", "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == "ERROR radloop: MissingMetrics: no metrics for source 'pgsrc:pg'\n"


def test_a_pg_gold_record_without_boxes_is_empty_ground_truth(tmp_path, capsys):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({**_GOOD_RECORD, "boxes": []}) + "\n", encoding="utf-8")
    pred.write_text(json.dumps({"image_id": "i", "output": "c: [0.50,0.50,0.20,0.20]"}) + "\n",
                    encoding="utf-8")
    argv = ["eval", "--pred", str(pred), "--gold", str(gold), "--task", "pg",
            "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == "ERROR radloop: EmptyGroundTruth: gold record 'i' has no boxes\n"


def test_curriculum_across_sources_needs_source_level_metrics(records_path, tmp_path, capsys):
    categories_only = {k: v for k, v in _GOOD_METRICS[0].items() if k not in ("iou", "text_score")}
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps([categories_only, _GOOD_METRICS[1]]), encoding="utf-8")
    argv = ["plan", "--records", str(records_path), "--metrics", str(metrics),
            "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == (
        "ERROR radloop: MissingMetrics: source 'pgsrc:pg' has no source-level metrics\n")


@pytest.mark.parametrize("task", ["grg", "agrg_locate"])
def test_eval_reads_only_the_gold_records_of_its_task(task, tmp_path, capsys):
    # Was exit 0 with a silent wrong report: a parse failure scored against the pg record.
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps(_GOOD_RECORD) + "\n", encoding="utf-8")
    pred.write_text(json.dumps({"image_id": "i", "output": "x: [0.50,0.50,0.20,0.20]"}) + "\n",
                    encoding="utf-8")
    argv = ["eval", "--pred", str(pred), "--gold", str(gold), "--task", task,
            "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == (
        f"ERROR radloop: UnknownId: prediction id 'i' has no {task} gold record\n")
    assert not (tmp_path / "out").exists()


def test_each_subtask_of_an_ingested_scene_graph_row_is_scored(tmp_path):
    # The row's three records share its image id: this was a DuplicateId.
    raw, gold, tasks = tmp_path / "raw.jsonl", tmp_path / "gold.jsonl", tmp_path / "tasks.jsonl"
    row = {"image_id": "a", "location": "left lung", "box": [0.3, 0.5, 0.2, 0.3],
           "sentence": "Opacity in the left lung."}
    raw.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert dispatch(["ingest", "--in", str(raw), "--format", "scene_graph", "--out", str(gold)]) == 0
    assert dispatch(["gen-tasks", "--records", str(gold), "--out", str(tasks)]) == 0
    instances = read_jsonl(tasks)
    assert sorted(inst["task"] for inst in instances) == ["agrg_both", "agrg_describe", "agrg_locate"]
    for inst in instances:
        pred, out = tmp_path / "pred.jsonl", tmp_path / f"{inst['task']}.json"
        pred.write_text(json.dumps({"image_id": "a", "output": inst["response"]}) + "\n",
                        encoding="utf-8")
        argv = ["eval", "--pred", str(pred), "--gold", str(gold), "--task", inst["task"]]
        assert dispatch(argv + ["--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["counts"] == {"n": 1, "parse_failures": 0}
        for key in ("micro_iou", "micro_text"):
            assert doc[key] is None or doc[key] == pytest.approx(1.0)


_FULL_FRAME_CROP = {"p_crop": 1.0, "p_bypass": 0.0, "crop_scale_range": [1.0, 1.0],
                    "crop_aspect_range": [1.0, 1.0]}


@pytest.mark.parametrize("box, policy, seed", [
    ([0.5, 0.5, 1e-17, 1e-17], None, 5),  # the affine hull collapses to a point
    ([1e-170] * 4, _FULL_FRAME_CROP, 1),  # the area underflows to 0 in the crop
])
def test_augment_returns_a_box_no_transform_can_hold_unchanged(box, policy, seed, tmp_path,
                                                               capsys):
    # Both ended augment with a traceback, and gen-tasks took the same file.
    records, aug, tasks = tmp_path / "records.jsonl", tmp_path / "aug.jsonl", tmp_path / "t.jsonl"
    records.write_text(json.dumps({**_GOOD_RECORD, "image_id": "a", "boxes": [box]}) + "\n",
                       encoding="utf-8")
    argv = ["augment", "--records", str(records), "--seed", str(seed), "--out", str(aug)]
    if policy is not None:
        (tmp_path / "policy.json").write_text(json.dumps(policy), encoding="utf-8")
        argv += ["--policy", str(tmp_path / "policy.json")]
    assert dispatch(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert dispatch(["gen-tasks", "--records", str(records), "--out", str(tasks)]) == 0
    assert aug.read_bytes() == tasks.read_bytes()


# ---------------------------------------------------------------------------
# Same inputs and seed give the same bytes

_CHAIN_CASES = {
    "ingest": ["ingest", "--in", "RAW", "--format", "scene_graph"],
    "gen-tasks": ["gen-tasks", "--records", "RECORDS"],
    "augment": ["augment", "--records", "RECORDS", "--seed", "7"],
    "plan": ["plan", "--records", "RECORDS", "--metrics", "METRICS"],
    "sample": ["sample", "--records", "RECORDS", "--plan", "PLAN", "--n", "300", "--seed", "11"],
    "simulate": ["simulate", "--records", "RECORDS", "--seed", "3", "--warmup-steps", "40",
                 "--reweight-interval", "40", "--total-steps", "160"],
    "eval": ["eval", "--pred", "PREDS", "--gold", "RECORDS", "--task", "pg"],
}


@pytest.fixture()
def chain_inputs(records_path, tmp_path):
    """Inputs for every case of ``_CHAIN_CASES``, keyed by placeholder."""
    paths = {
        "RECORDS": records_path,
        "PLAN": tmp_path / "plan.json",
        "METRICS": write_metrics(tmp_path),
        "RAW": tmp_path / "raw.jsonl",
        "PREDS": tmp_path / "preds.jsonl",
    }
    assert dispatch(["plan", "--records", str(records_path), "--out", str(paths["PLAN"])]) == 0
    raw = [
        {"image_id": f"im{i}", "location": loc, "box": [0.3, 0.5, 0.2, 0.4], "sentence": "Clear."}
        for i, loc in enumerate(["left lung", "right lung", "spine"])
    ]
    paths["RAW"].write_text("".join(json.dumps(r) + "\n" for r in raw), encoding="utf-8")
    # Perfect predictions for every PG record but the first, which drifts.
    preds = [
        {"image_id": rec.image_id, "output": render_instruction(rec).response}
        for rec in load_records_jsonl(records_path)
        if rec.task.value == "pg"
    ]
    preds[0]["output"] = preds[0]["output"].replace(": [", " at [")
    paths["PREDS"].write_text("".join(json.dumps(r) + "\n" for r in preds), encoding="utf-8")
    return paths


def chain_argv(case, inputs, out):
    return [str(inputs.get(a, a)) for a in _CHAIN_CASES[case]] + ["--out", str(out)]


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_same_inputs_and_seed_give_the_same_bytes(case, chain_inputs, tmp_path):
    outs = [tmp_path / "first" / "out", tmp_path / "second" / "out"]
    for out in outs:
        assert dispatch(chain_argv(case, chain_inputs, out)) == 0
    assert outs[0].stat().st_size > 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("case", ["augment", "sample", "simulate"])
def test_a_seed_is_a_non_negative_integer(case, source, chain_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    argv = chain_argv(case, chain_inputs, out)
    at = argv.index("--seed")
    if source == "config":
        del argv[at:at + 2]
        argv += ["--config", str(tmp_path / "config.json")]

    def run(seed):
        if source == "flag":
            argv[at + 1] = str(seed)
        else:
            (tmp_path / "config.json").write_text(json.dumps({"seed": seed}), encoding="utf-8")
        return dispatch(argv)

    assert run(0) == 0
    old = out.read_bytes()
    assert run(-1) == 1
    name = "--seed" if source == "flag" else "the config seed"
    err = capsys.readouterr().err
    assert f"ERROR radloop: ConfigError: {name} must be a non-negative integer, got -1" in err
    assert out.read_bytes() == old
    assert run(10**38) == 0


def test_the_seed_rule_holds_where_the_seed_is_unused(chain_inputs, tmp_path, capsys):
    argv = chain_argv("gen-tasks", chain_inputs, tmp_path / "out") + ["--seed", "-1"]
    assert dispatch(argv) == 1
    assert "ConfigError: --seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--e0", "--rate", "--floor"])
def test_a_decay_flag_is_a_finite_number_at_least_zero(flag, value, chain_inputs, tmp_path, capsys):
    # A negative --rate made exp(-rate * n) overflow in the simulated learner.
    out = tmp_path / "out"
    argv = chain_argv("simulate", chain_inputs, out)
    assert dispatch(argv + [flag, "0"]) == 0
    old = out.read_bytes()
    assert dispatch(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert f"ERROR radloop: ConfigError: {flag} must be a finite number >= 0, got {float(value)!r}" in err
    assert "Traceback" not in err
    assert out.read_bytes() == old


def _subcommand_parsers():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


#: (flag dest, subcommand) for every checked flag and every subcommand that takes it.
_RULED_FLAGS = [
    pytest.param(dest, name, id=f"{name}-{dest}")
    for dest in cli._flag_rules()
    for name, sub in _subcommand_parsers().items()
    if any(a.dest == dest for a in sub._actions)
]


def test_every_ruled_flag_is_taken_and_every_config_rule_without_a_flag_is_known():
    taken = {case.values[0] for case in _RULED_FLAGS}
    assert taken == {"seed", "alpha", "warmup_steps", "reweight_interval", "total_steps",
                     "e0", "rate", "floor", "n", "resize_w", "resize_h", "scorer"}
    assert set(cli._flag_rules()) - taken == {"version", "parse_mode"}


@pytest.mark.parametrize("dest, command", _RULED_FLAGS)
def test_a_flag_its_rule_rejects_fails_first_and_names_the_flag(dest, command, tmp_path, capsys):
    # Every input path is missing: the flag error comes before any input is read.
    check, what = cli._flag_rules()[dest]
    actions = _subcommand_parsers()[command]._actions
    flag = next(a for a in actions if a.dest == dest)
    for text in ("-1", "0", "2", "nan", "bogus"):  # the first the flag parses and its rule rejects
        try:
            value = (flag.type or str)(text)
        except ValueError:
            continue
        if not check(value):
            break
    out = tmp_path / "out"
    argv = [command, f"{flag.option_strings[0]}={text}"]
    for a in actions:
        if a.required and a.dest != dest:
            arg = str(out) if a.dest == "out" else a.choices[0] if a.choices else (
                "1" if a.type is int else str(tmp_path / "missing"))
            argv += [a.option_strings[0], arg]
    out.write_bytes(b"old output\n")
    Path(f"{out}.manifest.json").write_bytes(b"old manifest\n")
    assert dispatch(argv) == 1
    name = "--" + dest.replace("_", "-")
    assert flag.option_strings[0] == name
    assert capsys.readouterr().err == f"ERROR radloop: ConfigError: {name} must be {what}, got {value!r}\n"
    assert out.read_bytes() == b"old output\n"
    assert Path(f"{out}.manifest.json").read_bytes() == b"old manifest\n"


def _edit_plan_source(doc, **fields):
    doc["state"]["sources"]["pgsrc:pg"].update(fields)


def _edit_plan_subtask(doc, **fields):
    doc["state"]["sources"]["pgsrc:pg"]["subtasks"]["pg"].update(fields)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: _edit_plan_source(doc, size=6.0), "size must be an integer, got 6.0"),
    (lambda doc: _edit_plan_subtask(doc, sizes=[6, 6.5]), "sizes must be a list, each an integer, got [6, 6.5]"),
    (lambda doc: _edit_plan_source(doc, prob="0.5"), "prob must be a finite number, got '0.5'"),
    (lambda doc: _edit_plan_subtask(doc, probs=[0.5, True]),
     "probs must be a list, each a finite number, got [0.5, True]"),
    (lambda doc: _edit_plan_subtask(doc, categories=["a", 1]),
     "categories must be a list, each a string, got ['a', 1]"),
    (lambda doc: _edit_plan_source(doc, score="high"), "score must be a finite number or null, got 'high'"),
    (lambda doc: _edit_plan_source(doc, error=[0.5]), "error must be a finite number or null, got [0.5]"),
])
def test_a_plan_field_of_the_wrong_type_is_named(edit, message, fuzz_inputs, tmp_path, capsys):
    doc = read_json(fuzz_inputs["PLAN"])
    edit(doc)
    plan = tmp_path / "bad_plan.json"
    plan.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["sample", "--records", str(fuzz_inputs["RECORDS"]), "--plan", str(plan), "--n", "5",
            "--seed", "1", "--out", str(tmp_path / "draws.jsonl")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR radloop: FormatError: line 0: bad document: ValueError: {message}\n"


# ---------------------------------------------------------------------------
# Start-up: numpy loads only in the subcommands that build arrays

_DISPATCH_ALL = """
import json
from radloop.cli import dispatch
for argv in json.loads(sys.argv[1]):
    assert dispatch(argv) == 0, argv
"""

#: Run each argv of ``sys.argv[1]`` through ``dispatch``; print, per call, its exit
#: code, its stderr and its output file, then how often the parser was built.
_DISPATCH_EACH = """
import io, json, sys
from pathlib import Path
from radloop import cli
calls = []
for argv in json.loads(sys.argv[1]):
    sys.stderr = io.StringIO()
    code = cli.dispatch(argv)
    out = Path(argv[argv.index("--out") + 1])
    calls.append([code, sys.stderr.getvalue(), out.read_text(encoding="utf-8") if out.exists() else None])
print(json.dumps([calls, cli._build_parser.cache_info().misses]))
"""

_RUN_AS_MAIN = """
import runpy
sys.argv = ["radloop", *sys.argv[1:]]
try:
    runpy.run_module("radloop.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def run_fresh(code, *args, stdin=None, timeout=120):
    """Run ``code`` in a fresh interpreter that imports this tree's radloop,
    with ``stdin``, if given, on a pipe."""
    path = [str(Path(radloop.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=timeout, input=stdin,
    )


def loaded_after(script, *args):
    """Run ``script`` in a fresh interpreter; return which of numpy, the
    judge's thread pool (``concurrent.futures``) and ``requests`` with its
    ``urllib3`` it imported."""
    watched = ("numpy", "concurrent.futures", "requests", "urllib3")
    code = f"import sys\n{script}\nprint(*[m for m in {watched!r} if m in sys.modules], sep=',')"
    proc = run_fresh(code, *args)
    assert proc.returncode == 0, proc.stderr
    return set(filter(None, proc.stdout.splitlines()[-1].split(",")))


def test_dispatch_builds_one_parser_that_keeps_no_state(chain_inputs, tmp_path):
    # In one process, a usage error and then two subcommands: each call writes
    # the bytes it writes when it runs first, and the parser is built once.
    argvs = [chain_argv("simulate", chain_inputs, tmp_path / "usage") + ["--e0", "x"],
             chain_argv("gen-tasks", chain_inputs, tmp_path / "gen-tasks"),
             chain_argv("simulate", chain_inputs, tmp_path / "simulate")]
    proc = run_fresh(_DISPATCH_EACH, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    calls, builds = json.loads(proc.stdout)
    assert [code for code, _, _ in calls] == [2, 0, 0] and builds == 1
    assert "argument --e0: invalid float value: 'x'" in calls[0][1]
    for argv, call in zip(argvs, calls):
        alone = run_fresh(_DISPATCH_EACH, json.dumps([argv]))
        assert json.loads(alone.stdout) == [[call], 1]


def test_import_and_version_leave_numpy_unloaded():
    # Nor the judge's thread pool: `judge` imports concurrent.futures only when
    # it hands a row to a helper thread, which it never does at parallelism 1.
    assert loaded_after("import radloop.cli") == set()
    assert loaded_after(_RUN_AS_MAIN, "--version") == set()


def test_judge_runs_without_requests(judge_server, tmp_path):
    url, hits, _ = judge_server
    argv, out = _judge_one_row(tmp_path, url, "as main")
    assert loaded_after(_RUN_AS_MAIN, *argv) == set()
    assert hits == ["as main"]
    assert read_jsonl(out)[0]["verdict"]["reason"] == "as main"


_AS_MAIN = 'import runpy, sys\nsys.argv[0] = "radloop"\nrunpy.run_module("radloop.cli", run_name="__main__")'


def _judge_three_rows(tmp_path, url):
    """Judge three pred rows from a regular file against ``url``; return the
    judge argv, the rows as text and the output bytes."""
    argv, out = _judge_one_row(tmp_path, url, "unused")
    rows = "".join(json.dumps({"image_id": "im1", "anatomy": "lung", "text": f"gen {i}"}) + "\n"
                   for i in range(3))
    Path(argv[argv.index("--pred") + 1]).write_text(rows, encoding="utf-8")
    assert dispatch(argv) == 0
    return argv, rows, out.read_bytes()


def test_judge_reads_a_piped_pred_file_as_it_reads_a_regular_one(judge_server, tmp_path):
    # judge reads --pred once, so a pipe it cannot rewind is judged like a file.
    url, hits, _ = judge_server
    argv, rows, regular = _judge_three_rows(tmp_path, url)
    hits.clear()
    argv[argv.index("--pred") + 1] = "/dev/stdin"
    argv[-1] = str(tmp_path / "piped.jsonl")
    proc = run_fresh(_AS_MAIN, *argv, stdin=rows, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "piped.jsonl").read_bytes() == regular
    assert hits == ["gen 0", "gen 1", "gen 2"]


def test_judge_reads_a_named_fifo_as_it_reads_a_regular_one(judge_server, tmp_path):
    # A second read of a FIFO blocks until a new writer opens it, so a run
    # that read --pred twice hung for good; the timeout turns that into a failure.
    url, hits, _ = judge_server
    argv, rows, regular = _judge_three_rows(tmp_path, url)
    hits.clear()
    fifo = tmp_path / "pred.fifo"
    os.mkfifo(fifo)
    argv[argv.index("--pred") + 1] = str(fifo)
    argv[-1] = str(tmp_path / "fifo.jsonl")
    # The writer is a process, so that it can be killed wherever it blocks.
    write = "import sys\nwith open(sys.argv[1], 'w') as fh:\n    fh.write(sys.argv[2])"
    writer = subprocess.Popen([sys.executable, "-c", write, str(fifo), rows])
    try:
        proc = run_fresh(_AS_MAIN, *argv, timeout=30)
    finally:
        writer.kill()
        writer.wait(10)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fifo.jsonl").read_bytes() == regular
    assert hits == ["gen 0", "gen 1", "gen 2"]


def _run_main(call):
    return f"""
import runpy, sys, radloop
sys.argv = ["radloop", *sys.argv[1:]]
try:
    {call}
finally:
    print("loaded:", *sorted(m for m in sys.modules if m.startswith("radloop.")), file=sys.stderr)
"""


# Both entry points run radloop.cli as __main__: the runpy call that
# ``python -m radloop.cli`` makes, and radloop.main, which the installed script
# calls. The last line of stderr lists the radloop submodules the run loaded.
_RUN_MAIN = [
    _run_main('runpy.run_module("radloop.cli", run_name="__main__", alter_sys=True)'),
    _run_main("radloop.main()"),
]


@pytest.mark.parametrize(
    "argv, code", [(["--version"], 0), (["--help"], 0), (["frobnicate", "--out", "x"], 2)]
)
def test_parse_only_runs_load_no_submodule(argv, code, capsys):
    assert dispatch(argv) == code
    expected = capsys.readouterr().out
    if argv == ["--version"]:
        assert expected == f"radloop {radloop.__version__}\n"
    for script in _RUN_MAIN:
        proc = run_fresh(script, *argv)
        assert proc.returncode == code, proc.stderr
        assert "Warning" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == "loaded:"
        assert proc.stdout == expected


def test_a_subcommand_run_as_main_parses_then_runs(records_path, tmp_path):
    argv = ["gen-tasks", "--records", str(records_path), "--out"]
    assert dispatch(argv + [str(tmp_path / "dispatch.jsonl")]) == 0
    expected = (tmp_path / "dispatch.jsonl").read_bytes()
    for script in _RUN_MAIN:
        out = tmp_path / "main.jsonl"
        proc = run_fresh(script, *argv, str(out))
        assert proc.returncode == 0, proc.stderr
        assert "radloop.taskgen" in proc.stderr.splitlines()[-1]
        assert out.read_bytes() == expected
        out.unlink()
        proc = run_fresh(script, "gen-tasks", "--records", str(tmp_path / "missing"), "--out", "x")
        assert proc.returncode == 1
        assert "ERROR radloop: FileNotFoundError" in proc.stderr


def test_bare_import_loads_no_submodule():
    code = "import sys, radloop\nprint(*[m for m in sys.modules if m.startswith('radloop.')])"
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_package_names_resolve_to_their_defining_module():
    for name in set(radloop.__all__) - {"__version__"}:
        home = errors if name == "RadloopError" else core
        assert getattr(radloop, name) is getattr(home, name), name
        assert name in dir(radloop)
    namespace = {}
    exec("from radloop import *", namespace)
    assert {n: namespace[n] for n in radloop.__all__} == {
        n: getattr(radloop, n) for n in radloop.__all__
    }
    with pytest.raises(AttributeError):
        radloop.no_such_name


def test_every_public_function_is_called_or_documented():
    """A top-level public function of ``src/radloop`` is referenced outside its
    own body somewhere in ``src/``, or the README names it."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in (root / "src" / "radloop").glob("*.py")]
    unused = []
    for tree in trees:
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            own = set(ast.walk(fn))
            if not any(
                node not in own and fn.name in (getattr(node, "id", None), getattr(node, "attr", None))
                for t in trees for node in ast.walk(t)
            ) and not re.search(rf"\b{fn.name}\b", readme):
                unused.append(fn.name)
    assert unused == []


def test_every_flag_and_config_field_is_named_in_the_readme():
    """A knob the README never names is one a user cannot find: every long flag
    of every subcommand, and every field of the config documents."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    knobs = {o for sub in _subcommand_parsers().values() for a in sub._actions
             for o in a.option_strings if o.startswith("--")}
    knobs |= {f.name for cls in (cli.ToolConfig, cli.CurriculumConfig, AugPolicy, judge_module.EndpointConfig)
              for f in dataclasses.fields(cls)}
    assert sorted(k for k in knobs if not re.search(rf"(?<![\w-]){re.escape(k)}(?![\w-])", readme)) == []


def test_the_readme_states_each_raw_formats_defaults_as_ingest_does():
    """The README "Input rows" table and ``ingest._FORMATS`` give each raw
    format the same ``source_id`` and ``split`` defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.finditer(r"^\| (\w+) \| `ingest` \| .*`source_id`\?: text \(`([^`]+)`\); "
                       r"`split`\? \(`([^`]+)`\) \|$", readme, re.M)
    assert {m[1]: (m[2], m[3]) for m in rows} == {
        fmt: (source, split.value) for fmt, (_, source, split) in ingest._FORMATS.items()
    }


def test_only_core_builds_a_random_generator():
    """Every seeded generator comes from ``core.seeded``, which checks the seed:
    no other module of ``src/radloop`` calls ``random.Random``."""
    src = Path(__file__).resolve().parents[1] / "src" / "radloop"
    callers = [
        path.name for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "Random" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert callers == ["core.py"]


def test_every_ruled_class_is_covered_by_the_config_rule_tests():
    """A dataclass of ``src/radloop`` that declares a ``ruled`` field, or decodes
    itself with ``config_from_json``, is in a table of ``test_config_rules``: a
    config in ``_CONFIGS``, any other type (the intensity grid) in ``_REQUIRED``
    alone, and a plan state in ``_CHECKED_BY_CONTAINER``."""
    from test_config_rules import _CHECKED_BY_CONTAINER, _CONFIGS, _REQUIRED

    def calls(node, name):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name for n in ast.walk(node))

    def is_ruled(cls):
        if not any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list):
            return False
        fields = (n.value for n in cls.body if isinstance(n, ast.AnnAssign) and n.value)
        decoders = (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "from_json")
        return any(calls(v, "ruled") for v in fields) or any(calls(d, "config_from_json") for d in decoders)

    src = Path(__file__).resolve().parents[1] / "src" / "radloop"
    ruled = {
        node.name for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and is_ruled(node)
    }
    assert ruled == {cls.__name__ for cls in [*_REQUIRED, *_CHECKED_BY_CONTAINER]}
    assert [cls for cls in _REQUIRED if cls not in _CONFIGS] == [IntensityGrid]


#: One valid raw row of each ingest format.
_RAW_ROWS = {
    "scene_graph": {"image_id": "a", "location": "spine", "box": [0.5, 0.5, 0.2, 0.2],
                    "sentence": "Clear."},
    "phrase_boxes": {"image_id": "b", "phrase": "effusion", "boxes": [[0.5, 0.5, 0.2, 0.2]]},
    "grounded_report": {"image_id": "c", "findings": [{"text": "mass", "boxes": [[0.5, 0.5, 0.2, 0.2]]}]},
    "detection": {"image_id": "d", "findings": [{"label": "ILD", "boxes": [[0.5, 0.5, 0.2, 0.2]]}]},
}


def test_only_array_subcommands_load_numpy(chain_inputs, tmp_path):
    verdicts = tmp_path / "verdicts.jsonl"
    rows = [
        {"image_id": "im1", "anatomy": "left lung", "verdict": VERDICT},
        {"image_id": "im2", "anatomy": "spine", "error": "bad verdict", "raw": "x"},
    ]
    verdicts.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    cases = ("gen-tasks", "augment", "plan", "sample", "simulate", "eval")
    argvs = [chain_argv(c, chain_inputs, tmp_path / c) for c in cases]
    argvs.append(["judge-aggregate", "--in", str(verdicts), "--out", str(tmp_path / "table.json")])
    for fmt, row in _RAW_ROWS.items():
        raw = tmp_path / f"raw_{fmt}.jsonl"
        raw.write_text(json.dumps(row) + "\n", encoding="utf-8")
        argvs.append(["ingest", "--in", str(raw), "--format", fmt, "--out", str(tmp_path / fmt)])
    assert "numpy" not in loaded_after(_DISPATCH_ALL, json.dumps(argvs))
    # Preprocess builds arrays, so it loads numpy at first use.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(IntensityGrid(8, 8, 255, [9] * 64).to_json()), encoding="utf-8")
    argvs.append(["preprocess", "--in", str(grid), "--out", str(tmp_path / "grid_out.json")])
    assert "numpy" in loaded_after(_DISPATCH_ALL, json.dumps(argvs))


def test_the_fixture_generators_load_no_numpy():
    script = """
from radloop.ingest import BenchmarkSubsetSpec, build_benchmark_subset, make_fixture_dataset
records = make_fixture_dataset(3, {"pg": {"a": 4}, "agrg": {"spine": 4}, "grg": {"report": 2}})
assert len(build_benchmark_subset(records, BenchmarkSubsetSpec(2, 2), seed=3)) == 4
"""
    assert "numpy" not in loaded_after(script)
