import dataclasses
import gc
import json
import math
import os
import random
import re
import stat
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from radloop.core import (
    EPSILON,
    REQUIRED,
    AnnotationRecord,
    DataSourceId,
    Finding,
    NormBox,
    Split,
    Task,
    TaskFamily,
    atomic_write,
    boxes_from_json,
    clamp_box,
    decode_json,
    dump_records_jsonl,
    enum_from_json,
    instance_from_json,
    intersection,
    instance_to_json,
    iter_jsonl,
    jsonl_lines,
    judge_gold_from_json,
    judge_pred_from_json,
    load_json,
    load_records_jsonl,
    pick,
    pick_sorted,
    prediction_from_json,
    record_from_json,
    record_to_json,
    seeded,
    spread,
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

    @pytest.mark.parametrize("coords", [
        (math.nan, 0.5, 0.2, 0.2), (0.5, -math.inf, 0.2, 0.2),
        (0.5, 0.5, math.inf, 0.2), (0.5, 0.5, 0.2, math.inf),
    ])
    def test_rejects_non_finite_coordinates(self, coords):
        with pytest.raises(ValueError):
            NormBox(*coords)

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


def test_intersection_has_an_area_or_is_none():
    assert intersection((0.0, 0.0, 2.0, 2.0), (1.0, 1.0, 3.0, 3.0)) == (1.0, 1.0, 2.0, 2.0)
    assert intersection((0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.0, 1.0)) is None
    assert intersection((0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 3.0, 3.0)) is None


@pytest.mark.parametrize("obj, default, expected", [
    ({"split": "val"}, REQUIRED, Split.VAL),
    ({}, Split.TEST, Split.TEST),
    ({}, REQUIRED, "line 4: missing field 'split'"),
    ({"split": "dev"}, Split.TEST, "line 4: unknown split 'dev'"),
    ({"split": None}, Split.TEST, "line 4: unknown split None"),
    ({"split": ["val"]}, REQUIRED, "line 4: unknown split ['val']"),
])
def test_enum_field_gives_a_member_its_default_or_a_named_error(obj, default, expected):
    if isinstance(expected, Split):
        assert enum_from_json(Split, obj, "split", 4, default) is expected
    else:
        with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
            enum_from_json(Split, obj, "split", 4, default)


@given(total=st.integers(0, 10**6), parts=st.integers(1, 50))
def test_spread_gives_the_remainder_to_the_earliest_parts(total, parts):
    shares = spread(total, parts)
    assert sum(shares) == total
    assert shares == sorted(shares, reverse=True)
    assert shares[0] - shares[-1] <= 1


@given(seed=st.integers(0, 2**64), m=st.integers(0, 30), k=st.integers(-3, 33))
def test_pick_sorted_takes_k_distinct_indices_or_rejects_k(seed, m, k):
    if 0 <= k <= m:
        picked = pick_sorted(random.Random(seed), m, k)
        assert picked == sorted(set(picked)) and len(picked) == k
        assert all(0 <= i < m for i in picked)
    else:
        with pytest.raises(ValueError, match=f"cannot pick {k} of {m} indices"):
            pick_sorted(random.Random(seed), m, k)


@pytest.mark.parametrize("seed", [-3, 2.5, True, "3", None])
def test_seeded_takes_only_a_non_negative_integer(seed):
    # random.Random(-3) would draw the stream of random.Random(3), and True that of 1.
    with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
        seeded(seed)


@given(seed=st.integers(0, 2**70))
def test_seeded_is_the_generator_of_its_seed(seed):
    assert seeded(seed).getstate() == random.Random(seed).getstate()


def test_pick_stays_below_n_even_for_a_uniform_of_one():
    # random.Random never returns 1.0; a generator passed in by a caller might.
    class One(random.Random):
        def random(self):
            return 1.0

    assert [pick(One(), n) for n in (1, 3, 7)] == [0, 2, 6]


class TestDataSourceId:
    def test_key(self):
        # Nothing parses a key back; tests/test_cli.py runs names that hold ":".
        assert DataSourceId("ms-cxr", TaskFamily.PG).key == "ms-cxr:pg"


class TestTaskFamily:
    @pytest.mark.parametrize(
        "task,family",
        [
            (Task.PG, TaskFamily.PG),
            (Task.GRG, TaskFamily.GRG),
            (Task.AGRG_LOCATE, TaskFamily.AGRG),
            (Task.AGRG_DESCRIBE, TaskFamily.AGRG),
            (Task.AGRG_BOTH, TaskFamily.AGRG),
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


class TestRecordLayout:
    """The record types are slotted and frozen, records stay weak-referenceable,
    and the decoder shares repeated names."""

    def _objects(self):
        rec = _sample_records()[1]
        return [rec, rec.findings[0], rec.findings[0].boxes[0]]

    def test_no_instance_dict(self):
        for obj in self._objects():
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_fields_cannot_be_assigned(self):
        rec, finding, box = self._objects()
        for obj, name in ((rec, "category"), (finding, "text"), (box, "cx")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, "x")
        # A name outside the fields is refused too, as a TypeError: the frozen
        # __setattr__ that dataclasses generates calls super() on the pre-slots class.
        with pytest.raises((AttributeError, TypeError)):
            rec.other = "x"
        assert not hasattr(rec, "other")

    def test_records_are_weak_referenceable(self):
        rec = _sample_records()[0]
        ref = weakref.ref(rec)
        assert ref() is rec
        del rec
        gc.collect()
        assert ref() is None

    def test_replace_eq_hash_and_repr(self):
        rec = _sample_records()[0]
        box = rec.boxes[0]
        finding = Finding("No pneumothorax", (box,))
        moved = dataclasses.replace(rec, text="Clear", boxes=())
        assert (moved.text, moved.boxes, moved.category) == ("Clear", (), "pneumonia")
        assert rec.text == "Right basilar consolidation"
        assert moved != rec and dataclasses.replace(moved, text=rec.text, boxes=rec.boxes) == rec
        assert NormBox(0.7, 0.6, 0.2, 0.3) == box and box != (0.7, 0.6, 0.2, 0.3)
        assert hash(box) == hash((0.7, 0.6, 0.2, 0.3))
        assert hash(finding) == hash(("No pneumothorax", (box,)))
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(rec)  # meta is a dict
        assert repr(finding) == (
            "Finding(text='No pneumothorax', boxes=(NormBox(cx=0.7, cy=0.6, w=0.2, h=0.3),))"
        )
        assert repr(rec) == (
            "AnnotationRecord(image_id='img-1', source_id='ms-cxr', task=<Task.PG: 'pg'>, "
            "category='pneumonia', text='Right basilar consolidation', "
            "boxes=(NormBox(cx=0.7, cy=0.6, w=0.2, h=0.3),), split=<Split.TRAIN: 'train'>, "
            "findings=(), meta={})"
        )

    def test_decoded_records_share_names(self, tmp_path):
        first = _sample_records()[0]
        second = dataclasses.replace(first, image_id="img-9")
        path = tmp_path / "records.jsonl"
        dump_records_jsonl(path, [first, second])
        a, b = load_records_jsonl(path)
        assert (a, b) == (first, second)
        assert a.source_id is b.source_id and a.category is b.category


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

    def test_a_failure_after_the_temp_file_is_gone_raises_the_failure(self, tmp_path):
        def chunks():
            yield "new\n"
            for tmp in tmp_path.glob(".out.jsonl.*.tmp"):
                tmp.unlink()
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            atomic_write(tmp_path / "out.jsonl", chunks())
        assert list(tmp_path.iterdir()) == []

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


class TestDecodeJson:
    """The one rule for outside JSON text: rows, documents and judge replies."""

    @pytest.mark.parametrize("text, reason", [
        pytest.param("{\n\n  \"a\": \udcff}", "invalid UTF-8 at character 10", id="bad byte"),
        pytest.param('{"a": ' + "1" * 5000 + "}", "invalid JSON: Exceeds the limit (4300 digits)",
                     id="huge integer"),
        pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON: maximum recursion depth exceeded",
                     id="deep nesting"),
        pytest.param('["\\udfff"]', "text holds a lone surrogate: ", id="low surrogate"),
        pytest.param('{"a": "\\ud83d"}', "text holds a lone surrogate: ", id="high surrogate"),
    ])
    def test_a_fault_names_the_line_given(self, text, reason):
        for line in (0, 9):
            with pytest.raises(FormatError) as err:
                decode_json(text, line)
            assert err.value.line == line
            assert err.value.reason.startswith(reason)
            assert err.value.__cause__ is not None

    def test_a_document_names_the_line_of_its_json_error(self):
        with pytest.raises(FormatError) as err:
            decode_json('{\n  "a": 1,\n  "b": \n}')
        assert err.value.line == 4
        with pytest.raises(FormatError) as err:
            decode_json('{\n  "a": 1,\n  "b": \n}', 7)
        assert err.value.line == 7

    def test_a_reply_decodes_its_first_value_from_start(self):
        assert decode_json('Sure: {"a": "\\u00e9"} hope it helps {', start=6) == {"a": "\u00e9"}
        with pytest.raises(FormatError, match="lone surrogate"):
            decode_json('Sure: {"a": "\\ud800"}', start=6)
        with pytest.raises(FormatError, match="Extra data"):
            decode_json('{"a": 1} trailing')

    def test_a_surrogate_pair_is_one_code_point(self):
        assert decode_json('["\\ud83d\\ude00", "\\u00e9"]') == ["\U0001f600", "\u00e9"]

    def test_a_lone_surrogate_in_a_document_is_line_0(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{\n  "cache_dir": "\\ud800"\n}\n', encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_json(path)
        assert str(err.value).startswith("line 0: text holds a lone surrogate: ")
        path.write_bytes(b'{\n  "cache_dir": "\xff"\n}\n')
        with pytest.raises(FormatError) as err:
            load_json(path)
        assert str(err.value) == "line 0: invalid UTF-8 at character 18"


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


    @pytest.mark.parametrize("structured, reason", [
        (None, "missing field 'structured'"),
        ([1], "each line must hold a JSON object"),
        ("record", "each line must hold a JSON object"),
    ])
    def test_structured_must_be_an_object(self, structured, reason):
        obj = instance_to_json(render_instruction(_sample_records()[0]))
        if structured is None:
            del obj["structured"]
        else:
            obj["structured"] = structured
        with pytest.raises(FormatError) as err:
            instance_from_json(obj, line=4)
        assert (err.value.line, err.value.reason) == (4, reason)

    @pytest.mark.parametrize(
        "field, value", [("category", [2]), ("instruction", {}), ("image_id", 5), ("response", None)]
    )
    def test_wrong_typed_texts_rejected(self, field, value):
        obj = instance_to_json(render_instruction(_sample_records()[0]))
        obj[field] = value
        with pytest.raises(FormatError, match=f"field '{field}' must be a string") as err:
            instance_from_json(obj, line=6)
        assert err.value.line == 6

    @pytest.mark.parametrize("row, record, reason", [
        # A grg row whose record is another image's pg record: the first field that differs is named.
        ({"image_id": "img-a", "task": "grg"}, {"image_id": "img-b"},
         "field 'image_id' is 'img-a', but its record's is 'img-b'"),
        ({"source_id": "padchest"}, {}, "field 'source_id' is 'padchest', but its record's is 'ms-cxr'"),
        ({"task": "grg"}, {}, "field 'task' is 'grg', but its record's is 'pg'"),
        ({"category": "report"}, {}, "field 'category' is 'report', but its record's is 'pneumonia'"),
    ])
    def test_a_row_that_contradicts_its_record_is_rejected(self, row, record, reason):
        obj = instance_to_json(render_instruction(_sample_records()[0]))
        obj.update(row)
        obj["structured"].update(record)
        with pytest.raises(FormatError) as err:
            instance_from_json(obj, line=7)
        assert (err.value.line, err.value.reason) == (7, reason)


def _is_json_number(value):
    """A JSON number as the box decoder takes it: finite, not a bool, within float range."""
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) is float and math.isfinite(value)


class TestBoxesFromJson:
    @pytest.mark.parametrize(
        "box",
        [
            ["0.5", "0.5", "0.2", "0.2"],
            [True, 0.5, True, 0.2],
            [0.5, 0.5, 0.2, None],
            [0.5, 0.5, float("nan"), 0.2],
            [0.5, 0.5, 2**1024, 0.2],
            [0.5, 0.5, 0.2],
            [0.5, 0.5, 0.0, 0.2],
        ],
    )
    def test_each_coordinate_is_a_json_number(self, box):
        with pytest.raises(FormatError) as err:
            boxes_from_json([box], line=9)
        assert err.value.line == 9

    def test_integer_coordinates_decode_as_floats(self):
        (box,) = boxes_from_json([[1, 0, 1, 1]], line=1)
        assert [type(v) for v in box.to_list()] == [float] * 4
        assert json.dumps(box.to_list()) == "[1.0, 0.0, 1.0, 1.0]"

    @given(st.lists(st.integers() | st.floats() | json_values, min_size=3, max_size=5))
    def test_a_box_is_accepted_exactly_when_it_holds_four_numbers(self, values):
        fits = len(values) == 4 and all(map(_is_json_number, values))
        expected = fits and values[2] > 0 and values[3] > 0
        try:
            (box,) = boxes_from_json([values], line=1)
        except FormatError:
            assert not expected
        else:
            assert expected and box.to_list() == [float(v) for v in values]


#: Marks a field left out of a generated row.
_ABSENT = object()
_field_values = st.just(_ABSENT) | st.text(max_size=4) | json_values


def _fits(spec, row, name):
    """Whether field ``name`` of ``row`` has its schema type.

    ``spec`` is ``text`` (a non-empty string) or ``any text`` (any string),
    ending in ``?`` when the field may be absent and in ``|null`` when it
    may be absent or null.
    """
    if name not in row:
        return spec.endswith(("?", "|null"))
    if row[name] is None:
        return spec.endswith("|null")
    return isinstance(row[name], str) and (row[name] != "" or spec.startswith("any"))


def _draw_row(data, base, schema):
    row = dict(base)
    for name in schema:
        value = data.draw(_field_values, label=name)
        if value is _ABSENT:
            row.pop(name, None)
        else:
            row[name] = value
    return row


_INSTANCE_TEXTS = ("image_id", "source_id", "category", "instruction", "response")


def _instance_from_agreeing_json(obj, line):
    """Decode an instance row whose record takes the row's string ``image_id``, ``source_id``
    and ``category``: a row must agree with its record, which the schema test does not vary."""
    shared = {name: obj[name] for name in _INSTANCE_TEXTS[:3] if isinstance(obj.get(name), str)}
    return instance_from_json({**obj, "structured": {**obj["structured"], **shared}}, line)


#: Row kind: its decoder, a valid row the drawn fields replace, and the schema of those fields.
_ROW_KINDS = {
    "record": (
        record_from_json,
        record_to_json(_sample_records()[0]),
        {"image_id": "any text", "source_id": "any text", "category": "any text",
         "text": "any text|null"},
    ),
    "instance": (
        _instance_from_agreeing_json,
        instance_to_json(render_instruction(_sample_records()[0])),
        dict.fromkeys(_INSTANCE_TEXTS, "any text"),
    ),
    "prediction": (prediction_from_json, {}, {"image_id": "text", "output": "any text"}),
    "judge gold": (judge_gold_from_json, {}, {"image_id": "text", "text": "text"}),
    "judge pred": (judge_pred_from_json, {}, {"image_id": "text", "anatomy": "text", "text": "text"}),
}

#: The same for the raw ingest formats; their defaults are checked in test_ingest.
_RAW_KINDS = {
    "scene_graph": (
        {"image_id": "i", "location": "spine", "box": [0.5, 0.5, 0.2, 0.2]},
        {"image_id": "text", "location": "text", "source_id": "text?", "sentence": "text|null"},
    ),
    "phrase_boxes": (
        {"image_id": "i", "phrase": "p", "boxes": [[0.5, 0.5, 0.2, 0.2]]},
        {"image_id": "text", "phrase": "text", "category": "text?", "source_id": "text?",
         "label": "text|null"},
    ),
    "grounded_report": (
        {"image_id": "i", "findings": [{"text": "t"}]},
        {"image_id": "text", "source_id": "text?"},
    ),
    "detection": (
        {"image_id": "i", "findings": [{"label": "x"}]},
        {"image_id": "text", "source_id": "text?"},
    ),
}


class TestRowSchemas:
    """Each row kind is accepted exactly when every field has its schema type."""

    @pytest.mark.parametrize("kind", sorted(_ROW_KINDS))
    @given(data=st.data())
    def test_decoded_rows(self, kind, data):
        decode, base, schema = _ROW_KINDS[kind]
        row = _draw_row(data, base, schema)
        fits = all(_fits(spec, row, name) for name, spec in schema.items())
        try:
            decoded = decode(row, 3)
        except FormatError as err:
            assert not fits and err.line == 3
        else:
            assert fits
            got = decoded if isinstance(decoded, tuple) else [getattr(decoded, n) for n in schema]
            assert list(got) == [row.get(name) for name in schema]

    @pytest.mark.parametrize("fmt", sorted(_RAW_KINDS))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_raw_ingest_rows(self, fmt, data, tmp_path):
        base, schema = _RAW_KINDS[fmt]
        row = _draw_row(data, base, schema)
        fits = all(_fits(spec, row, name) for name, spec in schema.items())
        path = tmp_path / "raw.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        try:
            records = load_records(path, fmt)
        except FormatError as err:
            assert not fits and err.line == 1
        else:
            assert fits and {r.image_id for r in records} == {row["image_id"]}
