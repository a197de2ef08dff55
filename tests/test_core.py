import json
import math
import os
import stat
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from radloop.core import (
    EPSILON,
    AnnotationRecord,
    DataSourceId,
    Finding,
    NormBox,
    Split,
    Task,
    TaskFamily,
    atomic_write,
    clamp_box,
    dump_records_jsonl,
    instance_from_json,
    instance_to_json,
    iter_jsonl,
    jsonl_lines,
    load_records_jsonl,
    record_from_json,
    record_to_json,
)
from radloop.errors import EmptyAfterClamp, FormatError
from radloop.ingest import load_records
from radloop.taskgen import render_instruction


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


boxes_strategy = st.builds(
    NormBox,
    cx=finite(-2.0, 3.0),
    cy=finite(-2.0, 3.0),
    w=finite(1e-6, 3.0),
    h=finite(1e-6, 3.0),
)


class TestNormBox:
    def test_corner_round_trip(self):
        box = NormBox(0.5, 0.5, 0.4, 0.2)
        back = NormBox.from_corners(*box.corners())
        assert tuple(back.to_list()) == pytest.approx(tuple(box.to_list()), abs=1e-12)

    def test_rejects_nonpositive_sides(self):
        with pytest.raises(ValueError):
            NormBox(0.5, 0.5, 0.0, 0.2)
        with pytest.raises(ValueError):
            NormBox(0.5, 0.5, 0.2, -0.1)

    def test_from_list_length(self):
        with pytest.raises(ValueError):
            NormBox.from_list([0.5, 0.5, 0.4])

    def test_area(self):
        assert NormBox(0.5, 0.5, 0.5, 0.5).area() == 0.25

    @given(boxes_strategy)
    def test_corner_form_inverse(self, box):
        back = NormBox.from_corners(*box.corners())
        assert math.isclose(back.cx, box.cx, abs_tol=1e-9)
        assert math.isclose(back.w, box.w, abs_tol=1e-9)


class TestClampBox:
    def test_inside_returned_unchanged(self):
        box = NormBox(0.5, 0.5, 1.0, 1.0)
        assert clamp_box(box) is box

    def test_clamps_protruding_box(self):
        box = NormBox(0.0, 0.5, 0.4, 0.2)
        clamped = clamp_box(box)
        x1, y1, x2, y2 = clamped.corners()
        assert x1 == 0.0 and x2 == pytest.approx(0.2)

    def test_empty_after_clamp(self):
        with pytest.raises(EmptyAfterClamp):
            clamp_box(NormBox(2.0, 2.0, 0.2, 0.2))

    @given(boxes_strategy)
    def test_idempotent_and_contained(self, box):
        try:
            once = clamp_box(box)
        except EmptyAfterClamp:
            return
        assert clamp_box(once) == once
        x1, y1, x2, y2 = once.corners()
        assert x1 >= -EPSILON and y1 >= -EPSILON
        assert x2 <= 1 + EPSILON and y2 <= 1 + EPSILON

    @given(boxes_strategy)
    def test_clamp_never_grows(self, box):
        try:
            clamped = clamp_box(box)
        except EmptyAfterClamp:
            return
        assert clamped.area() <= box.area() + 1e-12


class TestDataSourceId:
    def test_key_round_trip(self):
        sid = DataSourceId("ms-cxr", TaskFamily.PG)
        assert sid.key == "ms-cxr:pg"
        assert DataSourceId.parse(sid.key) == sid

    def test_name_may_contain_colon(self):
        sid = DataSourceId.parse("a:b:agrg")
        assert sid.name == "a:b" and sid.task is TaskFamily.AGRG

    def test_bad_keys(self):
        with pytest.raises(ValueError):
            DataSourceId.parse("nocolon")
        with pytest.raises(ValueError):
            DataSourceId.parse("name:not_a_family")


class TestTaskFamily:
    @pytest.mark.parametrize(
        "task,family",
        [
            (Task.PG, TaskFamily.PG),
            (Task.GRG, TaskFamily.GRG),
            (Task.AGRG_LOCATE, TaskFamily.AGRG),
            (Task.AGRG_DESCRIBE, TaskFamily.AGRG),
            (Task.AGRG_BOTH, TaskFamily.AGRG),
            (Task.DETECTION, TaskFamily.DETECTION),
        ],
    )
    def test_family_mapping(self, task, family):
        assert task.family is family


def _sample_records():
    return [
        AnnotationRecord(
            image_id="img-1",
            source_id="ms-cxr",
            task=Task.PG,
            category="pneumonia",
            text="Right basilar consolidation",
            boxes=(NormBox(0.7, 0.6, 0.2, 0.3),),
        ),
        AnnotationRecord(
            image_id="img-2",
            source_id="padchest",
            task=Task.GRG,
            category="report",
            findings=(
                Finding("Left effusion", (NormBox(0.3, 0.8, 0.2, 0.1),)),
                Finding("No pneumothorax", ()),
            ),
            split=Split.VAL,
        ),
        AnnotationRecord(
            image_id="img-3",
            source_id="cig",
            task=Task.AGRG_BOTH,
            category="abdomen",
            text="Unremarkable",
            boxes=(NormBox(0.5, 0.8, 0.6, 0.3),),
            meta={"has_abnormality": False, "has_device": False},
        ),
    ]


class TestRecordJson:
    def test_round_trip(self, tmp_path):
        records = _sample_records()
        path = tmp_path / "records.jsonl"
        dump_records_jsonl(path, records)
        loaded = load_records_jsonl(path)
        assert loaded == records

    def test_fixed_schema_fields(self):
        obj = record_to_json(_sample_records()[0])
        assert set(obj) == {
            "image_id",
            "source_id",
            "task",
            "category",
            "text",
            "boxes",
            "split",
        }

    def test_optional_fields_only_when_present(self):
        objs = [record_to_json(r) for r in _sample_records()]
        assert "findings" in objs[1] and "findings" not in objs[0]
        assert "meta" in objs[2] and "meta" not in objs[0]

    def test_missing_field_rejected(self):
        obj = record_to_json(_sample_records()[0])
        del obj["task"]
        with pytest.raises(FormatError):
            record_from_json(obj, line=3)

    def test_unknown_task_rejected(self):
        obj = record_to_json(_sample_records()[0])
        obj["task"] = "segmentation"
        with pytest.raises(FormatError) as err:
            record_from_json(obj, line=7)
        assert err.value.line == 7

    def test_bad_box_rejected(self):
        obj = record_to_json(_sample_records()[0])
        obj["boxes"] = [[0.5, 0.5, 0.4]]
        with pytest.raises(FormatError):
            record_from_json(obj)

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(record_to_json(_sample_records()[0]))
        path.write_text(good + "\n{oops\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_records_jsonl(path)
        assert err.value.line == 2

    def test_dump_writes_cli_bytes_atomically(self, tmp_path):
        rec = AnnotationRecord(
            image_id="é-1", source_id="s", task=Task.PG, category="c",
            text="Ödem", boxes=(NormBox(0.5, 0.5, 0.2, 0.2),),
        )
        path = tmp_path / "r.jsonl"
        dump_records_jsonl(path, [rec])
        expected = json.dumps(record_to_json(rec), ensure_ascii=False) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        assert load_records_jsonl(path) == [rec]
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        good = json.dumps(record_to_json(_sample_records()[0]))
        path.write_text("\n" + good + "\n\n", encoding="utf-8")
        assert len(load_records_jsonl(path)) == 1


class TestAtomicWrite:
    def test_chunks_and_string_write_the_same_bytes(self, tmp_path):
        objs = [{"t": "é", "n": i} for i in range(3)]
        atomic_write(tmp_path / "a", jsonl_lines(objs))
        atomic_write(tmp_path / "b", "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objs))
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_failing_stream_leaves_target_untouched(self, tmp_path):
        def chunks():
            yield "new\n"
            raise ValueError("boom")

        path = tmp_path / "out.jsonl"
        path.write_bytes(b"old\n")
        with pytest.raises(ValueError, match="boom"):
            atomic_write(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_peak_memory_does_not_grow_with_lines(self, tmp_path):
        # 200k lines make 8.5 MB of output; the writer holds one line at a time.
        peaks = {}
        for n in (2_000, 200_000):
            tracemalloc.start()
            try:
                atomic_write(tmp_path / "out.jsonl", jsonl_lines({"i": i, "t": "x" * 20} for i in range(n)))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "out.jsonl").stat().st_size > 8_000_000
        assert peaks[200_000] < 256 * 1024
        assert peaks[200_000] < 2 * peaks[2_000]


#: Keys of the record schema and of the four raw ingest formats, so generated
#: objects reach the field decoders instead of stopping at a missing key.
_SCHEMA_KEYS = (
    "image_id", "source_id", "task", "category", "text", "boxes", "split",
    "findings", "meta", "location", "box", "sentence", "phrase", "label",
)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["pg", "grg", "agrg_both", "detection", "train", "test", "report"])
)
json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=4), children, max_size=9),
    max_leaves=40,
)
text_lines = st.lists(st.one_of(json_values.map(json.dumps), st.text(max_size=20)), max_size=4)


class TestReadersAreTotal:
    """Every reader returns its documented type or raises FormatError."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=text_lines)
    def test_any_lines(self, tmp_path, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        readers = [
            (lambda: list(iter_jsonl(path)), lambda item: isinstance(item[1], dict)),
            (lambda: load_records_jsonl(path), lambda r: isinstance(r, AnnotationRecord)),
        ]
        for fmt in ("scene_graph", "phrase_boxes", "grounded_report", "detection"):
            readers.append(
                (lambda fmt=fmt: load_records(path, fmt), lambda r: isinstance(r, AnnotationRecord))
            )
        for read, is_item in readers:
            try:
                items = read()
            except FormatError:
                continue
            assert all(is_item(item) for item in items)

    def test_non_object_lines_rejected(self, tmp_path):
        for line in ("[1, 2]", '"error"', "5", "null"):
            path = tmp_path / "in.jsonl"
            path.write_text("{}\n" + line + "\n", encoding="utf-8")
            with pytest.raises(FormatError) as err:
                list(iter_jsonl(path))
            assert err.value.line == 2

    def test_lone_surrogates_rejected(self, tmp_path):
        # An escaped lone surrogate decodes but no UTF-8 writer can write it;
        # an escaped pair is one code point and stays valid.
        path = tmp_path / "in.jsonl"
        for line in ('{"text": "a\\ud800b"}', '{"\\udfff": 1}', '{"t": ["\\ude00\\ud83d"]}'):
            path.write_text('{"text": "\\ud83d\\ude00"}\n' + line + "\n", encoding="utf-8")
            with pytest.raises(FormatError) as err:
                list(iter_jsonl(path))
            assert err.value.line == 2
        path.write_text('{"text": "\\ud83d\\ude00 \\u00e9"}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == [(1, {"text": "\U0001f600 \u00e9"})]

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        head=st.lists(
            st.just(" ") | json_values.map(lambda v: json.dumps({"v": v}, ensure_ascii=False)),
            max_size=4,
        ),
        line=st.binary(max_size=24).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
        tail=st.lists(st.binary(max_size=12), max_size=3),
        ends=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=8, max_size=8),
    )
    def test_any_byte_line(self, tmp_path, head, line, tail, ends):
        # Lines end in \n, \r\n or \r, each counted as one line end (blank
        # lines before the checked one hold a space, so no "\r" + "\n" pair
        # forms by accident). A line that is not UTF-8 is a FormatError
        # naming that line.
        lines = [h.encode("utf-8") for h in head] + [line] + tail
        path = tmp_path / "in.jsonl"
        path.write_bytes(b"".join(b + end for b, end in zip(lines, ends)))
        try:
            items = list(iter_jsonl(path))
        except FormatError as exc:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                assert exc.line == len(head) + 1
            return
        assert all(isinstance(obj, dict) for _, obj in items)
        line.decode("utf-8")

    def test_undecodable_line_numbered(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{}\r\n\r{"t": "\xed\xa0\x80"}\n')
        with pytest.raises(FormatError, match="invalid UTF-8") as err:
            list(iter_jsonl(path))
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "field,value",
        [
            ("findings", [1]),
            ("findings", "x"),
            ("findings", [{"text": ""}]),
            ("findings", [{"text": "a", "boxes": [[0.5, 0.5, 0.1]]}]),
            ("boxes", [[0.5, 0.5, float("nan"), 0.1]]),
            ("boxes", [[0.5, 0.5, 10**400, 0.1]]),
            ("meta", [1]),
            ("image_id", [1]),
            ("source_id", 3),
            ("category", None),
        ],
    )
    def test_wrong_typed_fields_rejected(self, field, value):
        obj = record_to_json(_sample_records()[0])
        obj[field] = value
        with pytest.raises(FormatError) as err:
            record_from_json(obj, line=4)
        assert err.value.line == 4


class TestInstanceJson:
    def test_round_trip(self):
        inst = render_instruction(_sample_records()[0])
        back = instance_from_json(instance_to_json(inst))
        assert back == inst

    def test_missing_field(self):
        obj = instance_to_json(render_instruction(_sample_records()[0]))
        del obj["response"]
        with pytest.raises(FormatError):
            instance_from_json(obj)

    def test_non_object_and_unknown_task_rejected(self):
        with pytest.raises(FormatError):
            instance_from_json([1])
        obj = instance_to_json(render_instruction(_sample_records()[0]))
        obj["task"] = "segmentation"
        with pytest.raises(FormatError):
            instance_from_json(obj)

