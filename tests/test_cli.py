import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from radloop.augment import IntensityGrid
from radloop.cli import dispatch
from radloop.core import DataSourceId, TaskFamily, dump_records_jsonl, load_records_jsonl
from radloop.curriculum import CurriculumState, MetricEntry, SourceMetrics
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

    def test_version_flag(self):
        assert dispatch(["--version"]) == 0


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


@pytest.fixture()
def judge_server():
    hits = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            gen = payload["prompt"].split("[GEN]:\n", 1)[1].split("\n", 1)[0]
            hits.append(gen)
            if gen == "garble":
                body = b"no json here"
            else:
                body = json.dumps(VERDICT).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1", hits
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
        url, _ = judge_server
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
        url, hits = judge_server
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
    ],
)
def test_malformed_input_names_the_domain_error(argv, body, error, fuzz_inputs, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_text(body, encoding="utf-8")
    paths = {**fuzz_inputs, "BAD": bad}
    rc = dispatch([str(paths.get(a, a)) for a in argv] + ["--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"ERROR radloop: {error}:" in capsys.readouterr().err


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
