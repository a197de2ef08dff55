"""Acceptance checks for the whole toolkit.

Each test covers one numbered criterion and prints a single
``PASS: criterion N ...`` / ``FAIL: criterion N ...`` line (visible with
``pytest -s``; under plain ``pytest -v`` the per-test PASSED/FAILED line
carries the same information). Tolerances and runtime limits are asserted
inside the tests themselves.
"""

import functools
import math
import time

import numpy as np
import pytest

from radloop.augment import (
    DEFAULT_POLICY,
    EVAL_CLAHE_CLIP,
    EVAL_CLAHE_GRID,
    IntensityGrid,
    augment_instance,
    clahe,
    instance_seed,
    preprocess_eval,
)
from radloop.core import (
    AnnotationRecord,
    DataSourceId,
    Finding,
    NormBox,
    Task,
    TaskFamily,
)
from radloop.curriculum import (
    CurriculumConfig,
    DecayParams,
    Level,
    MetricEntry,
    SamplingPool,
    SimulatedLearner,
    SourceMetrics,
    Strategy,
    advance_stage,
    aggregate_score,
    build_distribution,
    draw_samples,
    initial_state,
    run_curriculum,
)
from radloop.evalkit import grounding_iou, parse_output, union_area
from radloop.ingest import make_fixture_dataset
from radloop.judge import JudgeVerdict, aggregate_verdicts
from radloop.taskgen import render_instruction


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: {label}")
                raise
            print(f"PASS: {label}")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. Verdict aggregation reproduces the reference mean rows.

ANATOMIES = ("right lung", "left lung", "heart", "mediastinum", "spine", "abdomen")

# Per-anatomy counts out of n=300, for two systems. The nli counts per
# anatomy (contradiction, entailment, rest neutral) partition the 300 rows;
# the hallucination flag is independent.
SYSTEM_A = {
    "abn_halluc": (6, 177, 36, 188, 32, 38),
    "contradiction": (100, 100, 100, 100, 100, 98),
    "entailment": (48, 48, 48, 48, 48, 47),
    "means": {"abn_halluc": 26.50, "contradiction": 33.22, "entailment": 15.94},
}
SYSTEM_B = {
    "abn_halluc": (26, 26, 26, 26, 27, 27),
    "contradiction": (83, 21, 97, 22, 81, 10),
    "entailment": (119, 118, 119, 118, 119, 118),
    "means": {"abn_halluc": 8.78, "contradiction": 17.44, "entailment": 39.50},
}


def _verdict(abn_halluc, nli):
    fields = dict.fromkeys(
        (
            "gt_has_abnormalities",
            "gt_has_devices",
            "gen_has_abnormalities",
            "gen_has_devices",
            "gen_has_correct_abnormalities",
            "gen_has_hallucinated_abnormalities",
            "gen_has_correct_devices",
            "gen_has_hallucinated_devices",
        ),
        "no",
    )
    fields["gen_has_hallucinated_abnormalities"] = "yes" if abn_halluc else "no"
    return JudgeVerdict(reason="fixture", nli_status=nli, **fields)


def _system_rows(system, n=300):
    rows = []
    for i, anatomy in enumerate(ANATOMIES):
        n_halluc = system["abn_halluc"][i]
        n_contra = system["contradiction"][i]
        n_entail = system["entailment"][i]
        for j in range(n):
            if j < n_contra:
                nli = "contradiction"
            elif j < n_contra + n_entail:
                nli = "entailment"
            else:
                nli = "neutral"
            rows.append((anatomy, _verdict(j < n_halluc, nli)))
    return rows


@criterion("criterion 1 - verdict aggregation reproduces reference mean rows (±0.01, <1s)")
def test_criterion_1_verdict_aggregation():
    start = time.monotonic()
    for system in (SYSTEM_A, SYSTEM_B):
        stats, mean = aggregate_verdicts(_system_rows(system))
        assert len(stats) == 6
        assert all(s.n == 300 for s in stats)
        targets = system["means"]
        assert abs(mean.abn_halluc_rate - targets["abn_halluc"]) <= 0.01
        assert abs(mean.contradiction_rate - targets["contradiction"]) <= 0.01
        assert abs(mean.entailment_rate - targets["entailment"]) <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"aggregation took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Curriculum arithmetic against hand-computed values.


@criterion("criterion 2 - curriculum arithmetic matches hand computation (1e-9, 25 fixtures)")
def test_criterion_2_curriculum_arithmetic():
    rng = np.random.default_rng(20240501)
    alpha = 0.8
    for _ in range(25):
        k = int(rng.integers(2, 8))
        ious = [float(v) for v in rng.uniform(0.0, 1.0, size=k)]
        texts = [float(v) for v in rng.uniform(0.0, 1.0, size=k)]
        scores = [
            aggregate_score(MetricEntry(iou=i, text_score=t), alpha)
            for i, t in zip(ious, texts)
        ]
        # Independent arithmetic in plain Python.
        hand_scores = [alpha * i + (1.0 - alpha) * t for i, t in zip(ious, texts)]
        hand_errors = [1.0 - s for s in hand_scores]
        total = sum(hand_errors)
        hand_probs = [e / total for e in hand_errors]

        for got, want in zip(scores, hand_scores):
            assert abs(got - want) < 1e-9
        probs = build_distribution(Level.INTER, Strategy.CURRICULUM, scores=scores)
        assert abs(sum(probs) - 1.0) < 1e-9
        for got, want in zip(probs, hand_probs):
            assert abs(got - want) < 1e-9

    # Degenerate all-zero-error input: exactly uniform.
    for k in (2, 3, 5, 8):
        probs = build_distribution(
            Level.INTER, Strategy.CURRICULUM, scores=[1.0] * k
        )
        assert probs == [1.0 / k] * k


# ---------------------------------------------------------------------------
# 3. Sampler statistics on a 4-leaf hierarchy.


@criterion("criterion 3 - 100k seeded draws match the target distribution (L1 < 0.01, <5s)")
def test_criterion_3_sampler_statistics():
    records = make_fixture_dataset(
        1, {"alpha:pg": {"a1": 8, "a2": 8}, "beta:pg": {"b1": 8, "b2": 8}}
    )
    pool = SamplingPool.from_records(records)
    cfg = CurriculumConfig(warmup_steps=1, reweight_interval=1, total_steps=2)
    metrics = {
        "alpha:pg": SourceMetrics(
            source=DataSourceId("alpha", TaskFamily.PG),
            iou=0.3,
            per_category={"a1": MetricEntry(iou=0.4), "a2": MetricEntry(iou=0.6)},
        ),
        "beta:pg": SourceMetrics(
            source=DataSourceId("beta", TaskFamily.PG),
            iou=0.7,
            per_category={"b1": MetricEntry(iou=0.5), "b2": MetricEntry(iou=0.5)},
        ),
    }
    state = advance_stage(cfg, initial_state(pool), metrics)
    target = {
        ("alpha", "a1"): 0.7 * 0.6,
        ("alpha", "a2"): 0.7 * 0.4,
        ("beta", "b1"): 0.3 * 0.5,
        ("beta", "b2"): 0.3 * 0.5,
    }
    probs = state.inter_probs()
    assert abs(probs["alpha:pg"] - 0.7) < 1e-9
    assert abs(probs["beta:pg"] - 0.3) < 1e-9

    n = 100_000
    rng = np.random.default_rng(77)
    start = time.monotonic()
    counts = {leaf: 0 for leaf in target}
    for rec in draw_samples(state, pool, n, rng):
        counts[(rec.source_id, rec.category)] += 1
    elapsed = time.monotonic() - start

    l1 = sum(abs(counts[leaf] / n - p) for leaf, p in target.items())
    assert l1 < 0.01, f"L1 distance {l1:.4f}"
    assert elapsed < 5.0, f"sampling took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. Closed-loop directionality with the simulated learner.


def _closed_loop_run(records, strategy, seed):
    learner = SimulatedLearner(
        {
            ("src:pg", Task.PG, "hard"): DecayParams(0.8, 0.001, 0.05),
            ("src:pg", Task.PG, "easy"): DecayParams(0.2, 0.001, 0.05),
        }
    )
    cfg = CurriculumConfig(
        warmup_steps=1000,
        reweight_interval=1000,
        total_steps=4000,
        inter_strategy=strategy,
        intra_strategy=strategy,
    )
    logs, _ = run_curriculum(cfg, SamplingPool.from_records(records), learner, seed=seed)
    final_max = max(
        learner.category_error(("src:pg", Task.PG, cat)) for cat in ("hard", "easy")
    )
    return logs, final_max


@criterion("criterion 4 - curriculum beats natural sampling in the closed loop (18/20, 20/20)")
def test_criterion_4_closed_loop_directionality():
    records = make_fixture_dataset(0, {"src:pg": {"hard": 50, "easy": 50}})
    wins = 0
    argmax_on_hard = 0
    for seed in range(20):
        logs_cur, max_cur = _closed_loop_run(records, Strategy.CURRICULUM, seed)
        _, max_nat = _closed_loop_run(records, Strategy.NATURAL, seed)
        if max_cur <= max_nat:
            wins += 1
        stage2 = logs_cur[2].intra_probs["src:pg"]["pg"]
        if max(stage2, key=stage2.get) == "hard":
            argmax_on_hard += 1
    assert wins >= 18, f"curriculum won only {wins}/20 seeds"
    assert argmax_on_hard == 20, f"stage-2 argmax on hard category in {argmax_on_hard}/20"


# ---------------------------------------------------------------------------
# 5. Grammar round-trip over all five templates.

_ADJ = ("mild", "focal", "chronic", "dense", "subtle", "linear", "patchy")
_NOUN = ("opacity", "consolidation", "effusion", "nodularity", "scarring")
_LOCS = (
    "abdomen",
    "left lung",
    "right lung",
    "spine",
    "mediastinum",
    "trachea",
    "aortic arch",
)


def _rand_box(rng):
    cx = float(rng.uniform(0.05, 0.95))
    cy = float(rng.uniform(0.05, 0.95))
    wmax = min(0.9, 2 * min(cx, 1 - cx))
    hmax = min(0.9, 2 * min(cy, 1 - cy))
    w = float(rng.uniform(0.02, max(0.021, wmax)))
    h = float(rng.uniform(0.02, max(0.021, hmax)))
    return NormBox(cx, cy, w, h)


def _rand_phrase(rng):
    phrase = f"{_ADJ[rng.integers(len(_ADJ))]} {_NOUN[rng.integers(len(_NOUN))]}"
    if rng.random() < 0.2:
        phrase = f"{phrase}: severity {int(rng.integers(1, 4))}"
    return phrase


def _round_trip_record(rng, task, i):
    kwargs = dict(image_id=f"rt-{i}", source_id="rt", task=task)
    if task is Task.PG:
        kwargs["category"] = "x"
        kwargs["text"] = _rand_phrase(rng)
        kwargs["boxes"] = tuple(_rand_box(rng) for _ in range(int(rng.integers(1, 4))))
    elif task is Task.GRG:
        kwargs["category"] = "report"
        kwargs["findings"] = tuple(
            Finding(
                _rand_phrase(rng),
                tuple(_rand_box(rng) for _ in range(int(rng.integers(0, 3)))),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
    else:
        loc = _LOCS[rng.integers(len(_LOCS))]
        kwargs["category"] = loc
        if task in (Task.AGRG_LOCATE, Task.AGRG_BOTH):
            kwargs["boxes"] = tuple(_rand_box(rng) for _ in range(int(rng.integers(1, 3))))
        if task in (Task.AGRG_DESCRIBE, Task.AGRG_BOTH):
            kwargs["text"] = _rand_phrase(rng).replace(":", "")
    return AnnotationRecord(**kwargs)


def _assert_boxes_close(got, want, tol=0.005 + 1e-9):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g.to_list(), w.to_list()):
            assert abs(a - b) <= tol


@criterion("criterion 5 - strict parse of render is the identity on 1,000 records (0.005/coord)")
def test_criterion_5_grammar_round_trip():
    rng = np.random.default_rng(424242)
    tasks = (Task.PG, Task.GRG, Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH)
    records = [
        _round_trip_record(rng, tasks[i % len(tasks)], i) for i in range(1_000)
    ]
    # The two literal template examples.
    records[0] = AnnotationRecord(
        image_id="lit-1",
        source_id="rt",
        task=Task.PG,
        category="Cardiomegaly",
        text="Cardiomegaly",
        boxes=(NormBox(0.57, 0.65, 0.55, 0.37),),
    )
    records[4] = AnnotationRecord(
        image_id="lit-2",
        source_id="rt",
        task=Task.AGRG_BOTH,
        category="abdomen",
        text="Unremarkable",
        boxes=(NormBox(0.48, 0.78, 0.73, 0.45),),
    )

    inst = render_instruction(records[0])
    assert inst.response == "Cardiomegaly: [0.57,0.65,0.55,0.37]"
    inst = render_instruction(records[4])
    assert inst.instruction == "Locate and describe the abdomen."
    assert inst.response == (
        "Location of the abdomen: [0.48,0.78,0.73,0.45]. Description: Unremarkable"
    )

    for rec in records:
        out = render_instruction(rec)
        parsed = parse_output(out.response, rec.task, mode="strict")
        assert not parsed.salvaged
        if rec.task is Task.PG:
            assert parsed.phrase == rec.text
            _assert_boxes_close(parsed.boxes, rec.boxes)
        elif rec.task is Task.GRG:
            assert len(parsed.findings) == len(rec.findings)
            for got, want in zip(parsed.findings, rec.findings):
                assert got.text == want.text
                _assert_boxes_close(got.boxes, want.boxes)
        else:
            assert parsed.location == rec.category
            if rec.task in (Task.AGRG_LOCATE, Task.AGRG_BOTH):
                _assert_boxes_close(parsed.boxes, rec.boxes)
            else:
                assert parsed.boxes == []
            if rec.task in (Task.AGRG_DESCRIBE, Task.AGRG_BOTH):
                assert parsed.description == rec.text


# ---------------------------------------------------------------------------
# 6. Geometry against a pixel-grid rasterization oracle.

_RES = 2048


def _snapped_box(rng):
    x0 = int(rng.integers(0, _RES - 1))
    x1 = int(rng.integers(x0 + 1, _RES + 1))
    y0 = int(rng.integers(0, _RES - 1))
    y1 = int(rng.integers(y0 + 1, _RES + 1))
    return (x0, y0, x1, y1)


def _pixel_box_to_norm(px):
    x0, y0, x1, y1 = px
    return NormBox.from_corners(x0 / _RES, y0 / _RES, x1 / _RES, y1 / _RES)


@criterion("criterion 6 - sweep geometry matches 2048x2048 rasterization (1e-3 rel, <10s)")
def test_criterion_6_geometry_oracle():
    rng = np.random.default_rng(99)
    gold_mask = np.zeros((_RES, _RES), dtype=bool)
    pred_mask = np.zeros((_RES, _RES), dtype=bool)
    start = time.monotonic()
    for i in range(1_000):
        gold_px = [_snapped_box(rng) for _ in range(int(rng.integers(1, 7)))]
        pred_px = [_snapped_box(rng) for _ in range(int(rng.integers(1, 7)))]
        if i % 5 == 0:
            # Shared boxes exercise exact-overlap edges.
            pred_px[0] = gold_px[0]

        gold_mask[:] = False
        pred_mask[:] = False
        for x0, y0, x1, y1 in gold_px:
            gold_mask[y0:y1, x0:x1] = True
        for x0, y0, x1, y1 in pred_px:
            pred_mask[y0:y1, x0:x1] = True
        n_gold = int(np.count_nonzero(gold_mask))
        n_pred = int(np.count_nonzero(pred_mask))
        n_inter = int(np.count_nonzero(gold_mask & pred_mask))

        gold = [_pixel_box_to_norm(px) for px in gold_px]
        pred = [_pixel_box_to_norm(px) for px in pred_px]
        scale = _RES * _RES

        oracle_union = n_gold / scale
        got_union = union_area(gold)
        assert abs(got_union - oracle_union) <= 1e-3 * oracle_union

        oracle_iou = n_inter / (n_gold + n_pred - n_inter)
        got_iou = grounding_iou(gold, pred)
        denom = max(oracle_iou, 1e-12)
        assert abs(got_iou - oracle_iou) <= 1e-3 * denom + 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"

    # Hand cases.
    x = [NormBox(0.4, 0.4, 0.4, 0.4), NormBox(0.7, 0.7, 0.2, 0.2)]
    assert abs(grounding_iou(x, x) - 1.0) <= 1e-9
    disjoint = [NormBox(0.1, 0.1, 0.1, 0.1)]
    far = [NormBox(0.9, 0.9, 0.1, 0.1)]
    assert grounding_iou(disjoint, far) == 0.0
    a = [NormBox(0.4, 0.4, 0.4, 0.4)]
    b = [NormBox(0.6, 0.4, 0.4, 0.4)]  # shifted right by half its width
    assert abs(grounding_iou(a, b) - 1.0 / 3.0) <= 1e-9


# ---------------------------------------------------------------------------
# 7. Augmentation consistency: responses are regenerated, never edited.


@criterion("criterion 7 - 500 augmentations re-parse to the transformed boxes (0.005/coord)")
def test_criterion_7_augmentation_consistency():
    records = make_fixture_dataset(
        11,
        {
            "pg": {"Effusion": 60, "Cardiomegaly": 40},
            "grg": {"report": 100},
            "agrg": {"left lung": 50, "spine": 50},
        },
    )
    assert len(records) == 500
    for i, rec in enumerate(records):
        inst = render_instruction(rec)
        out = augment_instance(inst, DEFAULT_POLICY, instance_seed(2024, rec.image_id, i))

        # The response is always re-rendered from the transformed record,
        # never produced by editing coordinate strings in place.
        assert render_instruction(out.structured).response == out.response

        parsed = parse_output(out.response, rec.task, mode="strict")
        structured = out.structured
        if rec.task is Task.GRG:
            assert len(parsed.findings) == len(structured.findings)
            for got, want in zip(parsed.findings, structured.findings):
                assert got.text == want.text
                _assert_boxes_close(got.boxes, want.boxes)
        elif rec.task is Task.AGRG_DESCRIBE:
            assert parsed.boxes == []
            assert parsed.description == structured.text
        else:
            _assert_boxes_close(parsed.boxes, structured.boxes)


# ---------------------------------------------------------------------------
# 8. CLAHE invariants.


@criterion("criterion 8 - CLAHE invariance, equalization oracle, determinism, eval defaults")
def test_criterion_8_clahe():
    assert EVAL_CLAHE_CLIP == 3.0
    assert tuple(EVAL_CLAHE_GRID) == (8, 8)

    # Constant invariance, exact, at the eval defaults.
    for level in (0, 1, 128, 255):
        values = np.full((64, 64), level, dtype=np.int64)
        grid = IntensityGrid(64, 64, 255, values)
        out = clahe(grid, EVAL_CLAHE_CLIP, EVAL_CLAHE_GRID)
        assert np.array_equal(np.asarray(out.values), values)
        resized = preprocess_eval(grid)
        assert np.all(np.asarray(resized.values) == level)
        assert resized.width == 448 and resized.height == 448

    # Unclipped CLAHE equals per-tile histogram equalization at tile centers.
    rng = np.random.default_rng(13)
    values = rng.integers(0, 256, size=(16, 16))
    values[0, 0] = 0
    values[8, 8] = 255
    grid = IntensityGrid(16, 16, 255, values)
    out = clahe(grid, clip_limit=None, tiles=(2, 2))
    for ty in range(2):
        for tx in range(2):
            tile = values[ty * 8 : (ty + 1) * 8, tx * 8 : (tx + 1) * 8]
            hist = np.bincount(tile.ravel(), minlength=256)
            cdf = np.cumsum(hist) / tile.size
            cy, cx = ty * 8 + 4, tx * 8 + 4
            expected = float(np.rint(255 * cdf[values[cy, cx]]))
            assert float(np.asarray(out.values)[cy, cx]) == expected

    # Deterministic per parameters.
    a = clahe(grid, 3.0, (2, 2))
    b = clahe(grid, 3.0, (2, 2))
    assert np.array_equal(np.asarray(a.values), np.asarray(b.values))


# ---------------------------------------------------------------------------
# 9. Strategy matrix.


@criterion("criterion 9 - natural/uniform/curriculum strategy matrix")
def test_criterion_9_strategy_matrix():
    probs = build_distribution(Level.INTER, Strategy.NATURAL, sizes=[815, 3185])
    assert abs(probs[0] - 0.20375) < 1e-9
    assert abs(probs[1] - 0.79625) < 1e-9

    for k in range(1, 9):
        probs = build_distribution(Level.INTER, Strategy.UNIFORM, sizes=[3] * k)
        assert probs == [1.0 / k] * k

    for strategy in Strategy:
        probs = build_distribution(
            Level.INTRA,
            strategy,
            sizes=[10, 20, 70],
            scores=[0.1, 0.5, 0.9],
            grg=True,
        )
        assert probs == [1.0 / 3, 1.0 / 3, 1.0 / 3]
