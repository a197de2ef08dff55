import json

import pytest

from radloop.core import Split, Task
from radloop.errors import FormatError, InsufficientStratum
from radloop.ingest import (
    ABNORMALITY_LABELING_PROMPT,
    LABEL_PHRASES,
    MINI_REPORT_PROMPT,
    BenchmarkSubsetSpec,
    build_benchmark_subset,
    expand_label,
    load_records,
    make_fixture_dataset,
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")
    return path


class TestSceneGraph:
    def test_box_and_sentence_yield_three_records(self, tmp_path):
        path = write_jsonl(
            tmp_path / "sg.jsonl",
            [
                {
                    "image_id": "img1",
                    "location": "left lung",
                    "box": [0.3, 0.5, 0.2, 0.4],
                    "sentence": "The left lung is clear.",
                }
            ],
        )
        records = load_records(path, "scene_graph")
        assert [r.task for r in records] == [
            Task.AGRG_BOTH,
            Task.AGRG_LOCATE,
            Task.AGRG_DESCRIBE,
        ]
        for rec in records:
            assert rec.image_id == "img1"
            assert rec.category == "left lung"
            assert rec.source_id == "cig"
            assert rec.split is Split.TRAIN
        both, locate, describe = records
        assert both.text == "The left lung is clear."
        assert both.boxes[0].to_list() == pytest.approx([0.3, 0.5, 0.2, 0.4])
        assert locate.text is None and len(locate.boxes) == 1
        assert describe.boxes == () and describe.text == both.text

    def test_box_only(self, tmp_path):
        path = write_jsonl(
            tmp_path / "sg.jsonl",
            [{"image_id": "i", "location": "spine", "box": [0.5, 0.5, 0.1, 0.1]}],
        )
        records = load_records(path, "scene_graph")
        assert [r.task for r in records] == [Task.AGRG_LOCATE]

    def test_sentence_only(self, tmp_path):
        path = write_jsonl(
            tmp_path / "sg.jsonl",
            [{"image_id": "i", "location": "spine", "sentence": "Unremarkable."}],
        )
        records = load_records(path, "scene_graph")
        assert [r.task for r in records] == [Task.AGRG_DESCRIBE]

    def test_neither_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "sg.jsonl", [{"image_id": "i", "location": "spine"}])
        with pytest.raises(FormatError) as err:
            load_records(path, "scene_graph")
        assert err.value.line == 1

    def test_split_override(self, tmp_path):
        path = write_jsonl(
            tmp_path / "sg.jsonl",
            [
                {
                    "image_id": "i",
                    "location": "spine",
                    "sentence": "x",
                    "split": "test",
                    "source_id": "mysrc",
                }
            ],
        )
        (rec,) = load_records(path, "scene_graph")
        assert rec.split is Split.TEST
        assert rec.source_id == "mysrc"

    def test_bad_split(self, tmp_path):
        path = write_jsonl(
            tmp_path / "sg.jsonl",
            [{"image_id": "i", "location": "spine", "sentence": "x", "split": "dev"}],
        )
        with pytest.raises(FormatError):
            load_records(path, "scene_graph")


class TestPhraseBoxes:
    def test_basic(self, tmp_path):
        path = write_jsonl(
            tmp_path / "pb.jsonl",
            [
                {
                    "image_id": "im",
                    "phrase": "small right effusion",
                    "boxes": [[0.7, 0.8, 0.2, 0.1], [0.6, 0.6, 0.1, 0.1]],
                }
            ],
        )
        (rec,) = load_records(path, "phrase_boxes")
        assert rec.task is Task.PG
        assert rec.text == "small right effusion"
        assert rec.category == "small right effusion"
        assert rec.source_id == "pg"
        assert len(rec.boxes) == 2

    def test_category_and_label(self, tmp_path):
        path = write_jsonl(
            tmp_path / "pb.jsonl",
            [
                {
                    "image_id": "im",
                    "phrase": "effusion at the right base",
                    "boxes": [[0.7, 0.8, 0.2, 0.1]],
                    "category": "Effusion",
                    "label": "Effusion",
                }
            ],
        )
        (rec,) = load_records(path, "phrase_boxes")
        assert rec.category == "Effusion"
        assert rec.meta == {"label": "Effusion"}

    def test_empty_boxes_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "pb.jsonl", [{"image_id": "im", "phrase": "x", "boxes": []}]
        )
        with pytest.raises(FormatError):
            load_records(path, "phrase_boxes")

    def test_missing_boxes_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "pb.jsonl", [{"image_id": "im", "phrase": "x"}])
        with pytest.raises(FormatError):
            load_records(path, "phrase_boxes")


class TestGroundedReport:
    def test_basic(self, tmp_path):
        path = write_jsonl(
            tmp_path / "gr.jsonl",
            [
                {
                    "image_id": "im",
                    "findings": [
                        {"text": "Cardiomegaly", "boxes": [[0.5, 0.6, 0.5, 0.3]]},
                        {"text": "No pneumothorax"},
                    ],
                }
            ],
        )
        (rec,) = load_records(path, "grounded_report")
        assert rec.task is Task.GRG
        assert rec.category == "report"
        assert rec.source_id == "grg"
        assert len(rec.findings) == 2
        assert rec.findings[0].boxes and not rec.findings[1].boxes

    def test_empty_findings_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "gr.jsonl", [{"image_id": "im", "findings": []}])
        with pytest.raises(FormatError):
            load_records(path, "grounded_report")

    def test_finding_without_text_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "gr.jsonl",
            [{"image_id": "im", "findings": [{"boxes": [[0.5, 0.5, 0.1, 0.1]]}]}],
        )
        with pytest.raises(FormatError):
            load_records(path, "grounded_report")


class TestDetection:
    def test_split_into_pg_and_pseudo_report(self, tmp_path):
        path = write_jsonl(
            tmp_path / "det.jsonl",
            [
                {
                    "image_id": "im",
                    "source_id": "det",
                    "findings": [
                        {"label": "ILD", "boxes": [[0.4, 0.4, 0.3, 0.3]]},
                        {"label": "COPD"},
                        {"label": "Cardiomegaly", "boxes": [[0.5, 0.6, 0.5, 0.3]]},
                    ],
                }
            ],
        )
        records = load_records(path, "detection")
        pg = [r for r in records if r.task is Task.PG]
        grg = [r for r in records if r.task is Task.GRG]
        assert len(pg) == 2 and len(grg) == 1

        assert pg[0].source_id == "det-pg"
        assert pg[0].text == "Interstitial lung disease"
        assert pg[0].category == "ILD"
        assert pg[1].text == "Cardiomegaly"
        assert all(r.split is Split.TEST for r in records)

        report = grg[0]
        assert report.source_id == "det-grg"
        texts = [f.text for f in report.findings]
        assert texts == [
            "Interstitial lung disease",
            "Chronic obstructive pulmonary disease",
            "Cardiomegaly",
        ]
        # The global, box-free label stays a text-only finding.
        assert report.findings[1].boxes == ()

    def test_missing_label_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "det.jsonl",
            [{"image_id": "im", "findings": [{"boxes": [[0.5, 0.5, 0.1, 0.1]]}]}],
        )
        with pytest.raises(FormatError):
            load_records(path, "detection")


class TestLoadRecords:
    def test_unknown_format(self, tmp_path):
        path = write_jsonl(tmp_path / "x.jsonl", [])
        with pytest.raises(ValueError):
            load_records(path, "csv")

    def test_error_carries_line_number(self, tmp_path):
        path = write_jsonl(
            tmp_path / "x.jsonl",
            [
                {"image_id": "a", "location": "spine", "sentence": "ok"},
                "",
                {"image_id": "b", "location": "spine"},
            ],
        )
        with pytest.raises(FormatError) as err:
            load_records(path, "scene_graph")
        assert err.value.line == 3

    def test_invalid_json(self, tmp_path):
        path = write_jsonl(tmp_path / "x.jsonl", ["{not json"])
        with pytest.raises(FormatError) as err:
            load_records(path, "scene_graph")
        assert err.value.line == 1

    def test_non_object_line(self, tmp_path):
        path = write_jsonl(tmp_path / "x.jsonl", ["[1, 2, 3]"])
        with pytest.raises(FormatError):
            load_records(path, "scene_graph")


class TestLabels:
    def test_known_expansions(self):
        assert expand_label("ILD") == "Interstitial lung disease"
        assert expand_label("Nodule/Mass") == "Nodule or mass"
        assert expand_label("Enlarged PA") == "Enlarged pulmonary artery"

    def test_unknown_passes_through(self):
        assert expand_label("Cardiomegaly") == "Cardiomegaly"

    def test_table_is_nonempty(self):
        assert len(LABEL_PHRASES) >= 4


class TestPrompts:
    def test_mini_report_prompt_shape(self):
        assert '"mini-report"' in MINI_REPORT_PROMPT
        assert '"reasoning"' in MINI_REPORT_PROMPT
        assert "N/A" in MINI_REPORT_PROMPT

    def test_labeling_prompt_shape(self):
        assert '"mentions_abnormalities"' in ABNORMALITY_LABELING_PROMPT
        assert '"mentions_devices"' in ABNORMALITY_LABELING_PROMPT


class TestFixtureDataset:
    def test_deterministic(self):
        spec = {"pg": {"Effusion": 5}, "grg": {"report": 3}}
        a = make_fixture_dataset(7, spec)
        b = make_fixture_dataset(7, spec)
        assert a == b

    def test_seed_changes_content(self):
        spec = {"pg": {"Effusion": 5}}
        a = make_fixture_dataset(1, spec)
        b = make_fixture_dataset(2, spec)
        assert [r.image_id for r in a] == [r.image_id for r in b]
        assert a != b

    def test_agrg_shorthand_emits_three_subtasks(self):
        records = make_fixture_dataset(0, {"agrg": {"spine": 4}})
        by_task = {}
        for rec in records:
            by_task.setdefault(rec.task, []).append(rec)
        assert set(by_task) == {Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH}
        assert all(len(v) == 4 for v in by_task.values())

    def test_source_prefix(self):
        records = make_fixture_dataset(0, {"mysrc:pg": {"a": 2}})
        assert {r.source_id for r in records} == {"mysrc"}
        assert records[0].image_id.startswith("mysrc-pg-a-")

    def test_meta_flags_present(self):
        records = make_fixture_dataset(0, {"pg": {"a": 10}})
        assert all(set(r.meta) == {"has_abnormality", "has_device"} for r in records)

    def test_boxes_on_two_decimal_grid(self):
        records = make_fixture_dataset(3, {"pg": {"a": 20}})
        for rec in records:
            for box in rec.boxes:
                for v in box.to_list():
                    assert round(v, 2) == pytest.approx(v, abs=1e-12)

    def test_split_argument(self):
        records = make_fixture_dataset(0, {"pg": {"a": 1}}, split=Split.VAL)
        assert records[0].split is Split.VAL


def _benchmark_pool(per_stratum=10, n_boxonly=30):
    # Describe records carry text plus stratification flags; locate records
    # form the box-only pool.
    from radloop.core import AnnotationRecord, NormBox

    records = []
    i = 0
    for category in ("left lung", "right lung"):
        for abn in (False, True):
            for dev in (False, True):
                for _ in range(per_stratum):
                    records.append(
                        AnnotationRecord(
                            image_id=f"t-{i}",
                            source_id="cig",
                            task=Task.AGRG_DESCRIBE,
                            category=category,
                            text="some sentence",
                            meta={"has_abnormality": abn, "has_device": dev},
                        )
                    )
                    i += 1
        for _ in range(n_boxonly):
            records.append(
                AnnotationRecord(
                    image_id=f"t-{i}",
                    source_id="cig",
                    task=Task.AGRG_LOCATE,
                    category=category,
                    boxes=(NormBox(0.5, 0.5, 0.2, 0.2),),
                )
            )
            i += 1
    return records


class TestBenchmarkSubset:
    def test_counts_and_balance(self):
        records = _benchmark_pool()
        spec = BenchmarkSubsetSpec(n_with_findings=16, n_without_findings=5)
        subset = build_benchmark_subset(records, spec, seed=0)
        with_text = [r for r in subset if r.text]
        without = [r for r in subset if not r.text]
        assert len(with_text) == 16 and len(without) == 5

        # 8 strata -> exactly 2 each.
        per_stratum = {}
        for rec in with_text:
            key = (rec.category, rec.meta["has_abnormality"], rec.meta["has_device"])
            per_stratum[key] = per_stratum.get(key, 0) + 1
        assert set(per_stratum.values()) == {2}

        # Box-only counts differ by at most one across locations.
        per_loc = {}
        for rec in without:
            per_loc[rec.category] = per_loc.get(rec.category, 0) + 1
        counts = sorted(per_loc.values())
        assert counts == [2, 3]

    def test_default_spec_sizes(self):
        spec = BenchmarkSubsetSpec()
        assert spec.n_with_findings == 700
        assert spec.n_without_findings == 300

    def test_deterministic(self):
        records = _benchmark_pool()
        spec = BenchmarkSubsetSpec(n_with_findings=8, n_without_findings=4)
        a = build_benchmark_subset(records, spec, seed=3)
        b = build_benchmark_subset(records, spec, seed=3)
        assert [r.image_id for r in a] == [r.image_id for r in b]

    def test_insufficient_stratum(self):
        records = _benchmark_pool(per_stratum=1)
        spec = BenchmarkSubsetSpec(n_with_findings=16, n_without_findings=0)
        with pytest.raises(InsufficientStratum):
            build_benchmark_subset(records, spec, seed=0)

    def test_no_candidates_at_all(self):
        records = [r for r in _benchmark_pool() if r.text]
        spec = BenchmarkSubsetSpec(n_with_findings=4, n_without_findings=4)
        with pytest.raises(InsufficientStratum):
            build_benchmark_subset(records, spec, seed=0)

    def test_zero_sizes(self):
        records = _benchmark_pool()
        spec = BenchmarkSubsetSpec(n_with_findings=0, n_without_findings=0)
        assert build_benchmark_subset(records, spec, seed=0) == []
