from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from radloop import evalkit
from radloop.core import AnnotationRecord, Finding, NormBox, Task
from radloop.errors import (
    DuplicateId,
    EmptyGroundTruth,
    ParseError,
    UnknownId,
)
from radloop.evalkit import (
    EvalReport,
    SampleRow,
    evaluate_task,
    get_scorer,
    grounding_iou,
    lexical_fact_score,
    parse_output,
    register_scorer,
    union_area,
)
from radloop.taskgen import render_instruction


class TestStrictPg:
    def test_single_box(self):
        out = parse_output("Cardiomegaly: [0.57,0.65,0.55,0.37]", Task.PG)
        assert out.phrase == "Cardiomegaly"
        assert out.boxes == [NormBox(0.57, 0.65, 0.55, 0.37)]
        assert not out.salvaged and not out.warnings

    def test_multi_box(self):
        out = parse_output(
            "Nodules: [0.20,0.20,0.10,0.10] [0.80,0.80,0.10,0.10]", Task.PG
        )
        assert len(out.boxes) == 2

    def test_phrase_containing_colon(self):
        out = parse_output("Finding: left: [0.50,0.50,0.20,0.20]", Task.PG)
        assert out.phrase == "Finding: left"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_output("Cardiomegaly: [0.57,0.65,0.55,0.37] extra", Task.PG)

    def test_no_boxes_rejected(self):
        with pytest.raises(ParseError):
            parse_output("Cardiomegaly", Task.PG)

    def test_malformed_box_rejected(self):
        with pytest.raises(ParseError):
            parse_output("X: [0.5,0.5,0.2]", Task.PG)


class TestStrictAgrg:
    def test_locate(self):
        out = parse_output("Location of the trachea: [0.50,0.30,0.10,0.30].", Task.AGRG_LOCATE)
        assert out.location == "trachea"
        assert out.boxes == [NormBox(0.5, 0.3, 0.1, 0.3)]

    def test_locate_requires_trailing_period(self):
        with pytest.raises(ParseError):
            parse_output("Location of the trachea: [0.50,0.30,0.10,0.30]", Task.AGRG_LOCATE)

    def test_describe(self):
        out = parse_output("Description of the spine: No fracture", Task.AGRG_DESCRIBE)
        assert out.location == "spine"
        assert out.description == "No fracture"

    def test_both(self):
        out = parse_output(
            "Location of the abdomen: [0.48,0.78,0.73,0.45]. Description: Unremarkable",
            Task.AGRG_BOTH,
        )
        assert out.location == "abdomen"
        assert out.description == "Unremarkable"
        assert out.boxes == [NormBox(0.48, 0.78, 0.73, 0.45)]

    def test_both_missing_description_rejected(self):
        with pytest.raises(ParseError):
            parse_output(
                "Location of the abdomen: [0.48,0.78,0.73,0.45].", Task.AGRG_BOTH
            )

    def test_wrong_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_output("Position of the spine: [0.5,0.5,0.2,0.2].", Task.AGRG_LOCATE)


class TestStrictGrg:
    def test_mixed_findings(self):
        text = "Left effusion [0.30,0.80,0.20,0.10]. Heart size normal."
        out = parse_output(text, Task.GRG)
        assert [f.text for f in out.findings] == ["Left effusion", "Heart size normal"]
        assert out.findings[0].boxes == (NormBox(0.3, 0.8, 0.2, 0.1),)
        assert out.findings[1].boxes == ()

    def test_multi_box_finding(self):
        text = "Bilateral nodules [0.20,0.20,0.10,0.10] [0.80,0.80,0.10,0.10]."
        out = parse_output(text, Task.GRG)
        assert len(out.findings) == 1
        assert len(out.findings[0].boxes) == 2

    def test_missing_final_period_rejected(self):
        with pytest.raises(ParseError):
            parse_output("Left effusion [0.30,0.80,0.20,0.10]", Task.GRG)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_output("", Task.GRG)


class TestCoordinateClamping:
    def test_out_of_range_center_clamped_with_warning(self):
        out = parse_output("X: [1.20,0.50,0.20,0.20]", Task.PG)
        assert out.boxes[0].cx == 1.0
        assert out.warnings

    def test_degenerate_side_replaced(self):
        out = parse_output("X: [0.50,0.50,0.00,0.20]", Task.PG)
        assert out.boxes[0].w == pytest.approx(1e-6)
        assert out.warnings


class TestLenient:
    def test_strict_text_not_marked_salvaged(self):
        out = parse_output("Cardiomegaly: [0.57,0.65,0.55,0.37]", Task.PG, mode="lenient")
        assert not out.salvaged

    def test_chatty_pg_salvaged(self):
        text = "Sure! The finding cardiomegaly is at [0.57, 0.65, 0.55, 0.37], I think."
        out = parse_output(text, Task.PG, mode="lenient")
        assert out.salvaged
        assert out.boxes == [NormBox(0.57, 0.65, 0.55, 0.37)]
        assert "cardiomegaly" in out.phrase

    def test_negative_coordinates_clamped(self):
        out = parse_output("X at [-0.10,0.50,0.20,0.20]", Task.PG, mode="lenient")
        assert out.boxes[0].cx == 0.0
        assert out.warnings

    def test_describe_salvage(self):
        text = "Here you go. Description of the spine: mild degenerative change"
        out = parse_output(text, Task.AGRG_DESCRIBE, mode="lenient")
        assert out.salvaged
        assert out.location == "spine"
        assert out.description == "mild degenerative change"

    def test_grg_salvage_attaches_boxes(self):
        text = "I see a left effusion [0.3,0.8,0.2,0.1] and also cardiomegaly [0.5,0.6,0.5,0.4] overall"
        out = parse_output(text, Task.GRG, mode="lenient")
        assert out.salvaged
        assert len(out.findings) == 3
        assert out.findings[0].boxes and out.findings[1].boxes
        assert out.findings[2].boxes == ()

    def test_lenient_never_raises(self):
        out = parse_output("complete nonsense", Task.AGRG_LOCATE, mode="lenient")
        assert out.salvaged and out.boxes == []

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            parse_output("x", Task.PG, mode="fuzzy")


class TestRenderParseRoundTrip:
    def test_all_tasks_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            task = [Task.PG, Task.GRG, Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH][
                int(rng.integers(5))
            ]
            boxes = tuple(
                NormBox(
                    float(rng.uniform(0.3, 0.7)),
                    float(rng.uniform(0.3, 0.7)),
                    float(rng.uniform(0.05, 0.5)),
                    float(rng.uniform(0.05, 0.5)),
                )
                for _ in range(int(rng.integers(1, 4)))
            )
            rec = AnnotationRecord(
                image_id="r",
                source_id="s",
                task=task,
                category="left lung",
                text="patchy opacity noted" if task is not Task.GRG else None,
                boxes=boxes if task is not Task.GRG else (),
                findings=(
                    (Finding("patchy opacity", boxes), Finding("no effusion", ()))
                    if task is Task.GRG
                    else ()
                ),
            )
            inst = render_instruction(rec)
            parsed = parse_output(inst.response, task)
            if task is Task.GRG:
                got = [b for f in parsed.findings for b in f.boxes]
                want = [b for f in rec.findings for b in f.boxes]
            elif task is Task.AGRG_DESCRIBE:
                # The describe template carries no boxes.
                got, want = parsed.boxes, []
            else:
                got, want = parsed.boxes, list(boxes)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                for a, b in zip(g.to_list(), w.to_list()):
                    assert abs(a - b) <= 0.005


class TestUnionArea:
    def test_empty(self):
        assert union_area([]) == 0.0

    def test_single(self):
        assert union_area([NormBox(0.5, 0.5, 0.5, 0.5)]) == pytest.approx(0.25)

    def test_disjoint_sum(self):
        boxes = [NormBox(0.2, 0.2, 0.2, 0.2), NormBox(0.8, 0.8, 0.2, 0.2)]
        assert union_area(boxes) == pytest.approx(0.08)

    def test_nested(self):
        boxes = [NormBox(0.5, 0.5, 0.8, 0.8), NormBox(0.5, 0.5, 0.2, 0.2)]
        assert union_area(boxes) == pytest.approx(0.64)

    def test_identical_duplicates(self):
        box = NormBox(0.5, 0.5, 0.4, 0.4)
        assert union_area([box, box, box]) == pytest.approx(box.area())

    def test_partial_overlap(self):
        # Two 0.2x0.2 squares overlapping in a 0.1x0.2 strip.
        a = NormBox.from_corners(0.1, 0.1, 0.3, 0.3)
        b = NormBox.from_corners(0.2, 0.1, 0.4, 0.3)
        assert union_area([a, b]) == pytest.approx(0.06)

    def test_matches_rasterization_small(self):
        rng = np.random.default_rng(11)
        res = 512
        for _ in range(25):
            k = int(rng.integers(1, 5))
            boxes = []
            for _ in range(k):
                x1, y1 = rng.integers(0, res - 8, size=2)
                w, h = rng.integers(4, res // 2, size=2)
                x2, y2 = min(x1 + w, res), min(y1 + h, res)
                boxes.append(
                    NormBox.from_corners(x1 / res, y1 / res, x2 / res, y2 / res)
                )
            mask = np.zeros((res, res), dtype=bool)
            for b in boxes:
                bx1, by1, bx2, by2 = b.corners()
                mask[
                    round(by1 * res) : round(by2 * res),
                    round(bx1 * res) : round(bx2 * res),
                ] = True
            assert union_area(boxes) == pytest.approx(mask.sum() / res**2, abs=1e-12)


class TestGroundingIou:
    def test_identity(self):
        box = NormBox(0.5, 0.5, 0.4, 0.4)
        assert grounding_iou([box], [box]) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        assert grounding_iou(
            [NormBox(0.2, 0.2, 0.2, 0.2)], [NormBox(0.8, 0.8, 0.2, 0.2)]
        ) == 0.0

    def test_half_shift_is_one_third(self):
        # Shifting a square by half its side: overlap w/2*w over union 1.5w*w.
        a = NormBox.from_corners(0.2, 0.2, 0.4, 0.4)
        b = NormBox.from_corners(0.3, 0.2, 0.5, 0.4)
        assert grounding_iou([a], [b]) == pytest.approx(1 / 3, abs=1e-9)

    def test_union_merge_two_gt_one_pred(self):
        # Prediction covering exactly the union of two disjoint gt boxes.
        gt = [NormBox.from_corners(0.1, 0.1, 0.3, 0.3), NormBox.from_corners(0.3, 0.1, 0.5, 0.3)]
        pred = [NormBox.from_corners(0.1, 0.1, 0.5, 0.3)]
        assert grounding_iou(gt, pred) == pytest.approx(1.0, abs=1e-9)

    def test_empty_pred_scores_zero(self):
        assert grounding_iou([NormBox(0.5, 0.5, 0.4, 0.4)], []) == 0.0

    def test_empty_gt_raises(self):
        with pytest.raises(EmptyGroundTruth):
            grounding_iou([], [NormBox(0.5, 0.5, 0.4, 0.4)])

    def test_overlapping_gt_boxes_merge(self):
        # gt union = [0.1,0.5]x[0.1,0.3]; pred equals that strip.
        gt = [NormBox.from_corners(0.1, 0.1, 0.35, 0.3), NormBox.from_corners(0.25, 0.1, 0.5, 0.3)]
        pred = [NormBox.from_corners(0.1, 0.1, 0.5, 0.3)]
        assert grounding_iou(gt, pred) == pytest.approx(1.0, abs=1e-9)


# Any finite box, extremes and subnormal sides included.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_side = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_any_box = st.builds(NormBox, _finite, _finite, _side, _side)

# Centres and sides that are multiples of 1/64, inside and around the unit
# square: every corner, width and area the sweep computes is then exact.
_grid = st.integers(-64, 128).map(lambda k: k / 64)
_grid_side = st.integers(1, 96).map(lambda k: k / 64)
_grid_box = st.builds(NormBox, _grid, _grid, _grid_side, _grid_side)
_grid_boxes = st.lists(_grid_box, min_size=1, max_size=5)


def exact_areas(gt, pred):
    """|G ∩ P| and |G ∪ P| in rational arithmetic, over the cells the box edges cut."""
    regions = [
        [(Fraction(b.cx) - Fraction(b.w) / 2, Fraction(b.cy) - Fraction(b.h) / 2,
          Fraction(b.cx) + Fraction(b.w) / 2, Fraction(b.cy) + Fraction(b.h) / 2) for b in boxes]
        for boxes in (gt, pred)
    ]
    rects = regions[0] + regions[1]
    xs = sorted({r[i] for r in rects for i in (0, 2)})
    ys = sorted({r[i] for r in rects for i in (1, 3)})
    inter = union = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            inside = [any(r[0] <= x0 and x1 <= r[2] and r[1] <= y0 and y1 <= r[3] for r in region)
                      for region in regions]
            area = (x1 - x0) * (y1 - y0)
            inter += area if all(inside) else 0
            union += area if any(inside) else 0
    return inter, union


@given(gt=st.lists(_any_box, max_size=4), pred=st.lists(_any_box, max_size=4))
@example(gt=[NormBox(6.078240841591237e16, 0.0, 5.858151785247778e16, 1.0)],
         pred=[NormBox(6.078240841591237e16, 0.0, 5.858151785247778e16, 1.0)])
@example(gt=[NormBox(1.0, 0.0, 1e-06, 1.0)], pred=[NormBox(1.0, 0.0, 1e-06, 1.0)])
@example(gt=[NormBox(1.3411235158718275e-156, -8.520217390762171e-157,
                     1.1511334468933737e-156, 1.4207252481059451e-156)],
         pred=[NormBox(1.3411235158718275e-156, -8.520217390762171e-157,
                       1.1511334468933737e-156, 1.4207252481059451e-156)])
@example(gt=[NormBox(0.95, 0.98, 0.16, 0.2)], pred=[NormBox(0.95, 0.98, 0.16, 0.2)])
def test_grounding_iou_lies_in_the_unit_range_or_fails_by_name(gt, pred):
    try:
        value = grounding_iou(gt, pred)
    except EmptyGroundTruth:
        assert not gt
    except ValueError as exc:
        assert str(exc) == "the intersection of the boxes overflows a double"
    else:
        assert 0.0 <= value <= 1.0


def test_a_union_with_no_area_in_doubles_scores_zero():
    tiny = NormBox(0.5, 0.5, 1e-19, 1e-19)  # its corners round to its centre
    assert grounding_iou([tiny], [tiny]) == 0.0


def test_an_intersection_beyond_double_range_is_named():
    huge = NormBox(0.5, 0.5, 1e200, 1e200)  # was nan: both areas overflowed to inf
    with pytest.raises(ValueError, match="^the intersection of the boxes overflows a double$"):
        grounding_iou([huge], [huge])


def test_a_box_whose_corner_sum_overflows_scores_one_against_itself():
    far = NormBox(1.5e308, 0.5, 2e307, 1.0)  # finite corners whose sum overflows
    assert grounding_iou([far], [far]) == 1.0


def test_an_infinitely_wide_strip_over_no_overlap_scores_zero():
    wide = NormBox(1.7e308, 0.5, 1.7e308, 1.0)  # its right edge rounds to inf
    assert grounding_iou([wide], [NormBox(0.5, 0.5, 1, 1)]) == 0.0


@given(gt=_grid_boxes, pred=st.lists(_grid_box, max_size=5))
def test_grounding_iou_equals_an_exact_reference_on_a_dyadic_grid(gt, pred):
    inter, union = exact_areas(gt, pred)
    assert abs(grounding_iou(gt, pred) - float(inter / union if union else 0)) <= 1e-12
    assert union_area(gt) == exact_areas(gt, [])[1]


@given(gt=_grid_boxes, pred=_grid_boxes, data=st.data())
def test_grounding_iou_is_symmetric_and_blind_to_box_order_and_repeats(gt, pred, data):
    value = grounding_iou(gt, pred)
    assert grounding_iou(pred, gt) == value
    assert grounding_iou(gt, gt) == 1.0
    assert grounding_iou(data.draw(st.permutations(gt)), pred) == value
    assert grounding_iou(gt, pred + data.draw(st.lists(st.sampled_from(pred), max_size=3))) == value


class TestAggregateIou:
    """Micro and macro IoU of an :class:`EvalReport`'s rows."""

    def test_micro_vs_macro(self):
        rows = [SampleRow("i", cat, iou, None, False, False)
                for cat, iou in (("a", 1.0), ("a", 0.0), ("b", 0.5))]
        report = EvalReport(Task.PG, "strict", "lexical", rows)
        assert report.micro_iou == pytest.approx(0.5)
        assert report.macro_iou == pytest.approx((0.5 + 0.5) / 2)

    def test_single_class_equal(self):
        rows = [SampleRow("i", "a", iou, None, False, False) for iou in (0.2, 0.4)]
        report = EvalReport(Task.PG, "strict", "lexical", rows)
        assert report.micro_iou == report.macro_iou == pytest.approx(0.3)


class TestLexicalScore:
    def test_identical(self):
        assert lexical_fact_score("no acute findings", "no acute findings") == 1.0

    def test_disjoint(self):
        assert lexical_fact_score("aaa bbb", "ccc ddd") == 0.0

    def test_both_empty(self):
        assert lexical_fact_score("", "") == 1.0

    def test_one_empty(self):
        assert lexical_fact_score("words", "") == 0.0

    def test_case_and_punctuation_insensitive(self):
        assert lexical_fact_score("No Effusion.", "no effusion") == 1.0

    def test_partial(self):
        # 2 shared tokens, 3 cand, 2 ref -> p=2/3, r=1 -> F1=0.8
        assert lexical_fact_score("left pleural effusion", "pleural effusion") == pytest.approx(0.8)

    def test_registry(self, monkeypatch):
        # The registry is module state: the test's scorer leaves with the test.
        monkeypatch.setattr(evalkit, "_SCORERS", dict(evalkit._SCORERS))
        register_scorer("always_half", lambda c, r: 0.5)
        assert get_scorer("always_half")("x", "y") == 0.5
        with pytest.raises(ValueError):
            get_scorer("nonexistent")


def _pg_gold(n=3):
    recs = []
    for i in range(n):
        recs.append(
            AnnotationRecord(
                image_id=f"img-{i}",
                source_id="s",
                task=Task.PG,
                category="cardiomegaly" if i % 2 == 0 else "effusion",
                text="Cardiomegaly",
                boxes=(NormBox(0.5, 0.5, 0.4, 0.4),),
            )
        )
    return recs


class TestEvaluateTask:
    def test_perfect_predictions(self):
        gold = _pg_gold()
        preds = {r.image_id: render_instruction(r).response for r in gold}
        report = evaluate_task(preds, gold, Task.PG)
        assert report.n == 3
        assert report.parse_failures == 0
        assert report.micro_iou == pytest.approx(1.0, abs=1e-9)
        assert report.macro_iou == pytest.approx(1.0, abs=1e-9)
        assert report.micro_text is None and report.macro_text is None

    def test_parse_failure_scores_zero_strict(self):
        gold = _pg_gold(2)
        preds = {
            "img-0": render_instruction(gold[0]).response,
            "img-1": "no boxes here at all",
        }
        report = evaluate_task(preds, gold, Task.PG)
        assert report.parse_failures == 1
        assert report.micro_iou == pytest.approx(0.5, abs=1e-9)
        failed = [r for r in report.rows if r.id == "img-1"][0]
        assert failed.parse_failed and failed.iou == 0.0

    def test_lenient_salvages_instead(self):
        gold = _pg_gold(1)
        preds = {"img-0": "the heart region sits near [0.5, 0.5, 0.4, 0.4] roughly"}
        report = evaluate_task(preds, gold, Task.PG, mode="lenient")
        assert report.parse_failures == 0
        assert report.rows[0].salvaged
        assert report.micro_iou == pytest.approx(1.0, abs=1e-9)

    def test_lenient_counts_no_parse_failure_for_empty_or_box_free_output(self):
        gold = _pg_gold(2)
        report = evaluate_task({"img-0": "", "img-1": "no boxes here"}, gold, Task.PG, mode="lenient")
        assert report.parse_failures == 0
        assert [(r.parse_failed, r.salvaged, r.iou) for r in report.rows] == [(False, True, 0.0)] * 2

    def test_duplicate_gold_id(self):
        gold = _pg_gold(1) + _pg_gold(1)
        with pytest.raises(DuplicateId):
            evaluate_task({"img-0": "x"}, gold, Task.PG)

    def test_unknown_pred_id(self):
        with pytest.raises(UnknownId):
            evaluate_task({"ghost": "x"}, _pg_gold(1), Task.PG)

    def test_describe_is_text_only(self):
        gold = [
            AnnotationRecord(
                image_id="d-0",
                source_id="s",
                task=Task.AGRG_DESCRIBE,
                category="spine",
                text="No fracture",
            )
        ]
        preds = {"d-0": "Description of the spine: No fracture"}
        report = evaluate_task(preds, gold, Task.AGRG_DESCRIBE)
        assert report.micro_iou is None
        assert report.micro_text == pytest.approx(1.0)

    def test_grg_greedy_matching(self):
        gold = [
            AnnotationRecord(
                image_id="g-0",
                source_id="s",
                task=Task.GRG,
                category="report",
                findings=(
                    Finding("left effusion", (NormBox(0.3, 0.8, 0.2, 0.1),)),
                    Finding("cardiomegaly", (NormBox(0.5, 0.6, 0.5, 0.4),)),
                ),
            )
        ]
        # Prediction lists the same findings in the opposite order; the
        # greedy max-IoU pairing should still match each to its partner.
        pred_text = "cardiomegaly [0.50,0.60,0.50,0.40]. left effusion [0.30,0.80,0.20,0.10]."
        report = evaluate_task({"g-0": pred_text}, gold, Task.GRG)
        assert report.micro_iou == pytest.approx(1.0, abs=1e-9)
        assert report.micro_text == pytest.approx(1.0)

    def test_grg_text_only_gold_has_no_iou(self):
        gold = [
            AnnotationRecord(
                image_id="g-1",
                source_id="s",
                task=Task.GRG,
                category="report",
                findings=(Finding("clear lungs", ()),),
            )
        ]
        report = evaluate_task({"g-1": "clear lungs."}, gold, Task.GRG)
        assert report.rows[0].iou is None
        assert report.micro_iou is None
        assert report.micro_text == pytest.approx(1.0)

    def test_per_class_breakdown(self):
        gold = _pg_gold(3)
        preds = {r.image_id: render_instruction(r).response for r in gold}
        report = evaluate_task(preds, gold, Task.PG)
        assert set(report.per_class) == {"cardiomegaly", "effusion"}
        assert report.per_class["cardiomegaly"]["n"] == 2

    def test_report_json_shape(self):
        gold = _pg_gold(1)
        preds = {"img-0": render_instruction(gold[0]).response}
        doc = evaluate_task(preds, gold, Task.PG).to_json()
        assert doc["schema_version"] == 1
        assert doc["counts"] == {"n": 1, "parse_failures": 0}
        assert doc["rows"][0]["id"] == "img-0"


def _scene_graph_gold():
    """The three records ``ingest --format scene_graph`` writes for a row with a box and a sentence."""
    box = (NormBox(0.3, 0.5, 0.2, 0.3),)
    return [
        AnnotationRecord("a", "cig", Task.AGRG_BOTH, "left lung", "Opacity.", box),
        AnnotationRecord("a", "cig", Task.AGRG_LOCATE, "left lung", None, box),
        AnnotationRecord("a", "cig", Task.AGRG_DESCRIBE, "left lung", "Opacity."),
    ]


def test_gold_records_of_other_tasks_are_skipped():
    gold = _scene_graph_gold()
    for rec in gold:
        report = evaluate_task({"a": render_instruction(rec).response}, gold, rec.task)
        assert (report.n, report.parse_failures) == (1, 0)
        for score in (report.rows[0].iou, report.rows[0].text_score):
            assert score is None or score == pytest.approx(1.0)


@pytest.mark.parametrize("task", [Task.GRG, Task.AGRG_LOCATE])
def test_a_prediction_without_a_gold_record_of_its_task_is_unknown(task):
    gold = _pg_gold(1)
    with pytest.raises(UnknownId, match=f"^prediction id 'img-0' has no {task.value} gold record$"):
        evaluate_task({"img-0": render_instruction(gold[0]).response}, gold, task)


_score = st.none() | st.floats(0.0, 1.0)
_rows = st.lists(st.builds(SampleRow, st.just("i"), st.sampled_from("abc"), _score, _score,
                           st.booleans(), st.booleans()), max_size=12)


@given(rows=_rows)
# A left-to-right sum of 0.1, 0.2 and 0.3 is not their correctly rounded sum.
@example(rows=[SampleRow("i", "a", v, v, False, False) for v in (0.1, 0.2, 0.3)])
def test_every_summary_is_its_rows_exact_sum_over_their_count(rows):
    report = EvalReport(Task.PG, "strict", "lexical", rows)

    def summary(metric):
        """Micro, macro and per-category means of ``metric``: each exact sum is
        rounded once to a double, then divided by the count."""
        values = [(r.category, getattr(r, metric)) for r in rows if getattr(r, metric) is not None]
        groups = {cat: [v for c, v in values if c == cat] for cat, _ in values}
        means = {cat: float(sum(map(Fraction, g))) / len(g) for cat, g in groups.items()}
        if not values:
            return None, None, means
        flat = [v for _, v in values]
        return (float(sum(map(Fraction, flat))) / len(flat),
                float(sum(map(Fraction, means.values()))) / len(means), means)

    micro_iou, macro_iou, iou_means = summary("iou")
    micro_text, macro_text, text_means = summary("text_score")
    assert (report.n, report.parse_failures) == (len(rows), sum(r.parse_failed for r in rows))
    assert (report.micro_iou, report.macro_iou) == (micro_iou, macro_iou)
    assert (report.micro_text, report.macro_text) == (micro_text, macro_text)
    categories = list(dict.fromkeys(r.category for r in rows))
    assert list(report.per_class) == categories
    assert report.per_class == {
        cat: {"n": sum(r.category == cat for r in rows), "iou": iou_means.get(cat),
              "text_score": text_means.get(cat)}
        for cat in categories
    }
    assert report.to_json()["rows"] == [vars(r) for r in rows]


@given(pair=_rows.flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
@example(pair=([SampleRow("i", "a", v, v, False, False) for v in (0.1, 0.2, 0.3)],
               [SampleRow("i", "a", v, v, False, False) for v in (0.3, 0.2, 0.1)]))
def test_summaries_do_not_depend_on_row_order(pair):
    rows, shuffled = pair
    report = EvalReport(Task.PG, "strict", "lexical", rows)
    other = EvalReport(Task.PG, "strict", "lexical", shuffled)
    assert (other.micro_iou, other.macro_iou) == (report.micro_iou, report.macro_iou)
    assert (other.micro_text, other.macro_text) == (report.micro_text, report.macro_text)
    assert other.per_class == report.per_class
