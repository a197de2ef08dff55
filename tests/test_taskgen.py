from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from radloop.core import TEXT_ROUNDTRIP_TOL, AnnotationRecord, Finding, NormBox, Split, Task
from radloop.errors import MissingField, Unrenderable, UnsupportedTask
from radloop.evalkit import parse_output
from radloop.taskgen import (
    AGRG9,
    AGRG29,
    AGRG38,
    LOCATION_SETS,
    TEMPLATES,
    assemble_report,
    expand_padchest_labels,
    format_box,
    format_boxes,
    order_by_location,
    render_grounded_report,
    render_instruction,
    strip_box_groups,
)


def pg_record(**kw):
    base = dict(
        image_id="i",
        source_id="s",
        task=Task.PG,
        category="cardiomegaly",
        text="Cardiomegaly",
        boxes=(NormBox(0.57, 0.65, 0.55, 0.37),),
    )
    base.update(kw)
    return AnnotationRecord(**base)


class TestFormatBox:
    def test_two_decimals_no_spaces(self):
        assert format_box(NormBox(0.48, 0.78, 0.73, 0.45)) == "[0.48,0.78,0.73,0.45]"

    def test_rounds_to_two_decimals(self):
        assert format_box(NormBox(0.4849, 0.775, 0.731, 0.449)) == "[0.48,0.78,0.73,0.45]"

    def test_multiple_boxes_space_separated(self):
        boxes = (NormBox(0.2, 0.2, 0.1, 0.1), NormBox(0.8, 0.8, 0.1, 0.1))
        assert format_boxes(boxes) == "[0.20,0.20,0.10,0.10] [0.80,0.80,0.10,0.10]"


class TestRenderPg:
    def test_exact_template(self):
        inst = render_instruction(pg_record())
        assert inst.instruction == "Ground the phrase: Cardiomegaly"
        assert inst.response == "Cardiomegaly: [0.57,0.65,0.55,0.37]"

    def test_multi_box(self):
        rec = pg_record(boxes=(NormBox(0.3, 0.3, 0.2, 0.2), NormBox(0.7, 0.7, 0.2, 0.2)))
        inst = render_instruction(rec)
        assert inst.response == "Cardiomegaly: [0.30,0.30,0.20,0.20] [0.70,0.70,0.20,0.20]"

    def test_missing_phrase(self):
        with pytest.raises(MissingField):
            render_instruction(pg_record(text=None))

    def test_missing_boxes(self):
        with pytest.raises(MissingField):
            render_instruction(pg_record(boxes=()))


class TestRenderGrg:
    def test_fixed_instruction(self):
        rec = AnnotationRecord(
            image_id="i",
            source_id="s",
            task=Task.GRG,
            category="report",
            findings=(Finding("Clear lungs", ()),),
        )
        inst = render_instruction(rec)
        assert inst.instruction == "Generate a grounded report."
        assert inst.response == "Clear lungs."

    def test_boxes_inline_and_sentence_join(self):
        findings = (
            Finding("Left effusion", (NormBox(0.3, 0.8, 0.2, 0.1),)),
            Finding("Heart size normal", ()),
        )
        text = render_grounded_report(findings)
        assert text == "Left effusion [0.30,0.80,0.20,0.10]. Heart size normal."

    def test_trailing_periods_not_doubled(self):
        text = render_grounded_report((Finding("No pneumothorax.", ()),))
        assert text == "No pneumothorax."

    def test_empty_findings(self):
        with pytest.raises(MissingField):
            render_grounded_report(())


class TestRenderAgrg:
    def test_locate(self):
        rec = AnnotationRecord(
            image_id="i",
            source_id="s",
            task=Task.AGRG_LOCATE,
            category="trachea",
            boxes=(NormBox(0.5, 0.3, 0.1, 0.3),),
        )
        inst = render_instruction(rec)
        assert inst.instruction == "Locate the trachea."
        assert inst.response == "Location of the trachea: [0.50,0.30,0.10,0.30]."

    def test_describe(self):
        rec = AnnotationRecord(
            image_id="i",
            source_id="s",
            task=Task.AGRG_DESCRIBE,
            category="spine",
            text="No compression fracture",
        )
        inst = render_instruction(rec)
        assert inst.instruction == "Describe the spine."
        assert inst.response == "Description of the spine: No compression fracture"

    def test_both(self):
        rec = AnnotationRecord(
            image_id="i",
            source_id="s",
            task=Task.AGRG_BOTH,
            category="abdomen",
            text="Unremarkable",
            boxes=(NormBox(0.48, 0.78, 0.73, 0.45),),
        )
        inst = render_instruction(rec)
        assert inst.instruction == "Locate and describe the abdomen."
        assert inst.response == (
            "Location of the abdomen: [0.48,0.78,0.73,0.45]. Description: Unremarkable"
        )

    def test_both_missing_description(self):
        rec = AnnotationRecord(
            image_id="i",
            source_id="s",
            task=Task.AGRG_BOTH,
            category="abdomen",
            boxes=(NormBox(0.5, 0.5, 0.4, 0.4),),
        )
        with pytest.raises(MissingField):
            render_instruction(rec)

    def test_detection_never_renders(self):
        rec = AnnotationRecord(
            image_id="i", source_id="s", task=Task.DETECTION, category="nodule"
        )
        with pytest.raises(UnsupportedTask):
            render_instruction(rec)


def _record(task, text, location, boxes):
    uses_text = task in (Task.PG, Task.AGRG_DESCRIBE, Task.AGRG_BOTH)
    return AnnotationRecord(
        image_id="i",
        source_id="s",
        task=task,
        category=location,
        text=text if uses_text else None,
        boxes=tuple(boxes) if task is not Task.AGRG_DESCRIBE else (),
    )


_unit = st.floats(0.0, 1.0)
_side = st.floats(0.0, 1.0, exclude_min=True)
#: Arbitrary text, plus text over the characters the response literals use.
_texts = st.text(min_size=1) | st.text(alphabet=": [.]Dx", min_size=1)


class TestTemplateSet:
    def test_default_templates_valid(self):
        assert TEMPLATES[Task.PG][0] == "Ground the phrase: {phrase}"

    @pytest.mark.parametrize(
        "task,blank,field",
        [
            (Task.PG, {"text": None}, "phrase"),
            (Task.PG, {"boxes": ()}, "boxes"),
            (Task.GRG, {}, "findings"),
            (Task.AGRG_LOCATE, {"boxes": ()}, "boxes"),
            (Task.AGRG_DESCRIBE, {"text": ""}, "description"),
            (Task.AGRG_BOTH, {"boxes": (), "text": None}, "boxes"),
            (Task.AGRG_BOTH, {"category": "", "boxes": ()}, "location"),
        ],
    )
    def test_missing_field_named_in_template_order(self, task, blank, field):
        rec = replace(_record(task, "text", "spine", [NormBox(0.5, 0.5, 0.2, 0.2)]), **blank)
        with pytest.raises(MissingField, match=f"^{task.value} record has no {field}$"):
            render_instruction(rec)

    @pytest.mark.parametrize(
        "task,text,location,held",
        [
            (Task.PG, "a: [b", "c", "': ['"),
            (Task.AGRG_LOCATE, "", "svc: [x", "': ['"),
            (Task.AGRG_DESCRIBE, "d", "svc: distal", "': '"),
            (Task.AGRG_BOTH, "d", "x: [y", "': ['"),
        ],
    )
    def test_field_holding_its_end_is_unrenderable(self, task, text, location, held):
        field = "phrase" if task is Task.PG else "location"
        value = text if task is Task.PG else location
        rec = _record(task, text, location, [NormBox(0.5, 0.5, 0.2, 0.2)])
        with pytest.raises(Unrenderable) as err:
            render_instruction(rec)
        assert f"{task.value} {field} {value!r} holds {held}" in str(err.value)

    @settings(max_examples=400, deadline=None)
    @given(
        task=st.sampled_from([Task.PG, Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH]),
        text=_texts,
        location=_texts,
        boxes=st.lists(st.builds(NormBox, _unit, _unit, _side, _side), min_size=1, max_size=3),
    )
    @example(Task.AGRG_DESCRIBE, "d", "svc: distal", [NormBox(0.5, 0.5, 0.2, 0.2)])
    @example(Task.PG, "a: [b", "c", [NormBox(0.5, 0.5, 0.2, 0.2)])
    def test_render_parses_back_or_is_rejected(self, task, text, location, boxes):
        """Strict parse of a rendered response returns its fields, or render refuses.

        Still open: GRG finding text holding '.' or '[' fails its own strict
        parse, and a box side below 0.005 renders as 0.00 and parses back as a
        degenerate box with a warning.
        """
        rec = _record(task, text, location, boxes)
        try:
            response = render_instruction(rec).response
        except Unrenderable:
            held = ": " if task is Task.AGRG_DESCRIBE else ": ["
            assert held in (text if task is Task.PG else location)
            return
        out = parse_output(response, task)
        if task is Task.PG:
            assert out.phrase == text
        else:
            assert out.location == location
        if task in (Task.AGRG_DESCRIBE, Task.AGRG_BOTH):
            assert out.description == text
        assert len(out.boxes) == len(rec.boxes)
        for got, want in zip(out.boxes, rec.boxes):
            for g, w in zip(got.to_list(), want.to_list()):
                assert abs(g - w) <= TEXT_ROUNDTRIP_TOL + 1e-9


class TestExpandLabels:
    def test_labeled_train_record_duplicated(self):
        rec = pg_record(text="increased density in the right lower lobe", meta={"label": "Pneumonia"})
        out = expand_padchest_labels([rec])
        assert len(out) == 2
        assert out[0] == rec
        assert out[1].text == "Pneumonia"
        assert out[1].meta == {"from_label": True}
        assert out[1].boxes == rec.boxes

    def test_test_split_untouched(self):
        rec = pg_record(split=Split.TEST, meta={"label": "Pneumonia"})
        assert expand_padchest_labels([rec]) == [rec]

    def test_unlabeled_untouched(self):
        rec = pg_record()
        assert expand_padchest_labels([rec]) == [rec]

    def test_non_pg_untouched(self):
        rec = AnnotationRecord(
            image_id="i",
            source_id="s",
            task=Task.AGRG_DESCRIBE,
            category="spine",
            text="fine",
            meta={"label": "x"},
        )
        assert expand_padchest_labels([rec]) == [rec]


class TestLocationSets:
    def test_sizes(self):
        assert len(AGRG9) == 9
        assert len(AGRG29) == 29
        assert len(AGRG38) == 38

    def test_nesting(self):
        assert set(AGRG9.locations) < set(AGRG29.locations) < set(AGRG38.locations)

    def test_contains(self):
        assert "abdomen" in AGRG9
        assert "carina" not in AGRG9
        assert "carina" in AGRG29
        assert "neck" in AGRG38

    def test_registry(self):
        assert LOCATION_SETS["AGRG29"] is AGRG29

    def test_order_by_location(self):
        items = [("spine", "s"), ("abdomen", "a"), ("unknowable", "u"), ("trachea", "t")]
        assert order_by_location(items, AGRG9) == ["a", "s", "t", "u"]


class TestStripBoxGroups:
    def test_removes_coordinate_groups(self):
        text = "Left effusion [0.30,0.80,0.20,0.10]. Heart size normal."
        assert strip_box_groups(text) == "Left effusion. Heart size normal."

    def test_keeps_non_coordinate_brackets(self):
        text = "Compared to prior [see addendum] stable."
        assert strip_box_groups(text) == text

    def test_multiple_groups(self):
        text = "Nodules [0.20,0.20,0.10,0.10] [0.80,0.80,0.10,0.10] bilaterally."
        assert strip_box_groups(text) == "Nodules bilaterally."


class _Parsed:
    def __init__(self, description=None, findings=()):
        self.description = description
        self.findings = findings


class TestAssembleReport:
    def test_descriptions_in_order(self):
        outs = [_Parsed("The heart is enlarged."), _Parsed("Lungs are clear.")]
        assert assemble_report(outs) == "The heart is enlarged. Lungs are clear."

    def test_skips_na_and_empty(self):
        outs = [_Parsed("N/A"), _Parsed(""), _Parsed("Mild effusion.")]
        assert assemble_report(outs) == "Mild effusion."

    def test_grg_appended(self):
        grg = _Parsed(findings=(Finding("Left effusion", (NormBox(0.3, 0.8, 0.2, 0.1),)),))
        report = assemble_report([_Parsed("Normal heart.")], grg)
        assert report == "Normal heart. Left effusion [0.30,0.80,0.20,0.10]."

    def test_strip_boxes(self):
        grg = _Parsed(findings=(Finding("Left effusion", (NormBox(0.3, 0.8, 0.2, 0.1),)),))
        report = assemble_report([], grg, strip_boxes=True)
        assert report == "Left effusion."
