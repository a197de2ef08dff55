"""Seeded input generation and stage plans for the four workloads.

``generate(workload, seed, workdir)`` writes every input file a workload
needs into ``workdir`` and returns its plan: the CLI argument vectors of
each stage in chain order, the stage metric each one feeds, and the checks
its outputs must pass. The program under test sees only these files. The
same seed gives the same bytes; all randomness flows from ``seed``.

The shared corpus comes from ``radloop.ingest.make_fixture_dataset``: three
phrase-grounding (PG) sources over 20 categories, one anatomy-guided (AGRG)
source over the 29 ``AGRG29`` locations with all three subtasks, and one
grounded-report (GRG) source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from radloop.core import AnnotationRecord, Finding, NormBox, Task, record_to_json
from radloop.ingest import make_fixture_dataset
from radloop.taskgen import AGRG29, render_instruction

PG_SOURCES = ("ms-cxr", "padchest-gr", "vindr-cxr")
PG_CATEGORIES = (
    "Nodule/Mass", "ILD", "Enlarged PA", "COPD", "Atelectasis", "Cardiomegaly",
    "Consolidation", "Pleural effusion", "Pneumothorax", "Lung opacity",
    "Calcification", "Pleural thickening", "Infiltration", "Fibrosis",
    "Aortic enlargement", "Edema", "Emphysema", "Rib fracture", "Lesion", "Hernia",
)
AGRG_SOURCE = "chest-imagenome"
GRG_SOURCE = "mimic-grg"
JUDGE_ANATOMIES = (
    "left lung", "right lung", "cardiac silhouette", "mediastinum",
    "left costophrenic angle", "right costophrenic angle", "trachea", "spine",
    "left hilar structures", "right hilar structures", "aortic arch", "carina",
)

#: Share of raw ``prep`` boxes moved across the image border, so ingest clamps.
OUT_OF_RANGE_SHARE = 0.1
#: Share of ``prep`` detection labels that carry no box (global findings).
BOXLESS_LABEL_SHARE = 0.25
#: Share of ``score`` predictions with format drift: strict parsing fails
#: on them and lenient parsing salvages them.
DRIFT_SHARE = 0.15
#: Share of ``score`` box-task predictions with several boxes: each gold box
#: split into 3-8 overlapping strips, and GRG reports with extra findings.
MULTI_BOX_SHARE = 0.3
#: Anatomies per ``judge`` image answered with the "N/A" mini-report; they
#: repeat one prompt, so each image has 12 - 4 + 1 = 9 distinct prompts.
REPEATS_PER_IMAGE = 4


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the benchmark runs; ``TINY`` is for tests."""

    pg_per_category: int
    agrg_per_location: int
    grg_reports: int
    eval_rows_per_task: int
    sample_n: int
    simulate_steps: int
    stage_steps: int
    grid_sizes: tuple[int, ...]
    judge_images: int
    warm_passes: int


FULL = Scale(
    pg_per_category=40,
    agrg_per_location=40,
    grg_reports=1000,
    eval_rows_per_task=800,
    sample_n=30000,
    simulate_steps=30000,
    stage_steps=1000,
    grid_sizes=(512, 1024),
    judge_images=20,
    warm_passes=5,
)
TINY = Scale(
    pg_per_category=2,
    agrg_per_location=2,
    grg_reports=12,
    eval_rows_per_task=12,
    sample_n=300,
    simulate_steps=400,
    stage_steps=100,
    grid_sizes=(32, 48),
    judge_images=4,
    warm_passes=2,
)


def make_corpus(seed: int, scale: Scale) -> list[AnnotationRecord]:
    spec: dict[str, dict[str, int]] = {
        f"{src}:pg": {c: scale.pg_per_category for c in PG_CATEGORIES} for src in PG_SOURCES
    }
    spec[f"{AGRG_SOURCE}:agrg"] = {loc: scale.agrg_per_location for loc in AGRG29.locations}
    spec[f"{GRG_SOURCE}:grg"] = {"report": scale.grg_reports}
    return make_fixture_dataset(seed, spec)


def _write_jsonl(path: Path, rows: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _write_json(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def _stage(name: str, metric: str | None, argv: list[str], out: Path, check: dict[str, Any],
           **extra: Any) -> dict[str, Any]:
    """One CLI call of a chain. ``metric`` None counts it only in ``wall_s``."""
    return {"name": name, "metric": metric, "argv": argv, "out": str(out), "check": check, **extra}


# ---------------------------------------------------------------------------
# prep


def _out_of_range(box: NormBox) -> list[float]:
    # Push the box over the right edge by a quarter of its width; clamping
    # keeps three quarters of it inside the unit square.
    return [1.0 - box.w / 4, box.cy, box.w, box.h]


def _raw_box(box: NormBox, rng: np.random.Generator) -> list[float]:
    return _out_of_range(box) if rng.random() < OUT_OF_RANGE_SHARE else box.to_list()


def _raw_files(corpus: list[AnnotationRecord], rng: np.random.Generator, d: Path) -> dict[str, int]:
    """Write the four raw formats; return the record count ingest must emit for each."""
    expect: dict[str, int] = {}

    rows, n = [], 0
    for j, rec in enumerate(r for r in corpus if r.task is Task.AGRG_BOTH):
        row: dict[str, Any] = {"image_id": f"sg-{j:05d}", "location": rec.category,
                               "source_id": AGRG_SOURCE}
        kind = rng.random()
        if kind < 0.8:  # box and sentence: three records
            row["box"], row["sentence"] = _raw_box(rec.boxes[0], rng), rec.text
            n += 3
        elif kind < 0.9:
            row["box"] = _raw_box(rec.boxes[0], rng)
            n += 1
        else:
            row["sentence"] = rec.text
            n += 1
        rows.append(row)
    _write_jsonl(d / "raw_scene_graph.jsonl", rows)
    expect["scene_graph"] = n

    pg = [r for r in corpus if r.task is Task.PG]
    rows = []
    for j, rec in enumerate(pg):
        row = {"image_id": f"pb-{j:05d}", "phrase": rec.text, "category": rec.category,
               "boxes": [_raw_box(b, rng) for b in rec.boxes], "source_id": rec.source_id}
        if rng.random() < 0.5:
            row["label"] = rec.category
        rows.append(row)
    _write_jsonl(d / "raw_phrase_boxes.jsonl", rows)
    expect["phrase_boxes"] = len(rows)

    rows = [
        {"image_id": f"gr-{j:05d}", "source_id": GRG_SOURCE,
         "findings": [{"text": f.text, "boxes": [_raw_box(b, rng) for b in f.boxes]}
                      for f in rec.findings]}
        for j, rec in enumerate(r for r in corpus if r.task is Task.GRG)
    ]
    _write_jsonl(d / "raw_grounded_report.jsonl", rows)
    expect["grounded_report"] = len(rows)

    rows, n, i, j = [], 0, 0, 0
    while i < len(pg):
        k = int(rng.integers(1, 5))
        findings = []
        for rec in pg[i : i + k]:
            if rng.random() < BOXLESS_LABEL_SHARE:
                findings.append({"label": rec.category})
            else:
                findings.append({"label": rec.category,
                                 "boxes": [_raw_box(b, rng) for b in rec.boxes]})
                n += 1
        rows.append({"image_id": f"det-{j:05d}", "source_id": "vindr-det", "findings": findings})
        n += 1
        i += k
        j += 1
    _write_jsonl(d / "raw_detection.jsonl", rows)
    expect["detection"] = n
    return expect


def _prep(seed: int, d: Path, scale: Scale, rng: np.random.Generator) -> dict[str, Any]:
    corpus = make_corpus(seed, scale)
    _write_jsonl(d / "corpus.jsonl", [record_to_json(r) for r in corpus])
    expect = _raw_files(corpus, rng, d)
    stages = [
        _stage(f"ingest_{fmt}", "ingest_s",
               ["ingest", "--in", str(d / f"raw_{fmt}.jsonl"), "--format", fmt,
                "--out", str(d / f"out_ingest_{fmt}.jsonl")],
               d / f"out_ingest_{fmt}.jsonl", {"kind": "jsonl_rows", "rows": n})
        for fmt, n in expect.items()
    ]
    stages.append(_stage(
        "gen_tasks", "gen_tasks_s",
        ["gen-tasks", "--records", str(d / "corpus.jsonl"), "--out", str(d / "out_tasks.jsonl")],
        d / "out_tasks.jsonl", {"kind": "jsonl_rows", "rows": len(corpus)}))
    stages.append(_stage(
        "augment", "augment_s",
        ["augment", "--records", str(d / "corpus.jsonl"), "--seed", str(seed),
         "--out", str(d / "out_augment.jsonl")],
        d / "out_augment.jsonl", {"kind": "jsonl_rows", "rows": len(corpus)}))
    return {"stages": stages, "inputs": {"corpus_records": len(corpus), "ingest_records": expect}}


# ---------------------------------------------------------------------------
# loop


def _metrics_doc(corpus: list[AnnotationRecord], rng: np.random.Generator) -> list[dict[str, Any]]:
    """Per-source and per-category metrics covering every leaf of the corpus."""
    leaves: dict[str, dict[str, Any]] = {}
    for rec in corpus:
        fam = rec.task.family.value
        src = leaves.setdefault(f"{rec.source_id}:{fam}", {"name": rec.source_id, "task": fam,
                                                           "cats": {}})
        src["cats"].setdefault(rec.task.value, {}).setdefault(rec.category, None)

    def entry() -> dict[str, float]:
        return {"iou": round(float(rng.uniform(0.2, 0.9)), 4),
                "text_score": round(float(rng.uniform(0.2, 0.9)), 4)}

    doc = []
    for src in leaves.values():
        obj: dict[str, Any] = {"name": src["name"], "task": src["task"], **entry()}
        if src["task"] == "agrg":
            obj["per_subtask"] = {t: {c: entry() for c in cats} for t, cats in src["cats"].items()}
        elif src["task"] == "pg":
            (cats,) = src["cats"].values()
            obj["per_category"] = {c: entry() for c in cats}
        doc.append(obj)
    return doc


def _loop(seed: int, d: Path, scale: Scale, rng: np.random.Generator) -> dict[str, Any]:
    corpus = make_corpus(seed, scale)
    corpus_path = d / "corpus.jsonl"
    _write_jsonl(corpus_path, [record_to_json(r) for r in corpus])
    metrics = _metrics_doc(corpus, rng)
    _write_json(d / "metrics.json", metrics)
    n_stages = 1 + -(-(scale.simulate_steps - scale.stage_steps) // scale.stage_steps)
    plan_check = {"kind": "plan", "sources": len(metrics)}
    stages = [
        _stage("plan_uniform", "plan_s",
               ["plan", "--records", str(corpus_path), "--out", str(d / "out_plan_uniform.json")],
               d / "out_plan_uniform.json", plan_check),
        _stage("plan_curriculum", "plan_s",
               ["plan", "--records", str(corpus_path), "--metrics", str(d / "metrics.json"),
                "--out", str(d / "out_plan_curriculum.json")],
               d / "out_plan_curriculum.json", plan_check),
        _stage("sample", "sample_s",
               ["sample", "--records", str(corpus_path), "--plan", str(d / "out_plan_curriculum.json"),
                "--n", str(scale.sample_n), "--seed", str(seed), "--out", str(d / "out_sample.jsonl")],
               d / "out_sample.jsonl", {"kind": "jsonl_rows", "rows": scale.sample_n}),
        _stage("simulate", "simulate_s",
               ["simulate", "--records", str(corpus_path), "--seed", str(seed),
                "--total-steps", str(scale.simulate_steps),
                "--warmup-steps", str(scale.stage_steps),
                "--reweight-interval", str(scale.stage_steps),
                "--out", str(d / "out_simulate.json")],
               d / "out_simulate.json", {"kind": "simulate", "stages": n_stages}),
    ]
    return {"stages": stages,
            "inputs": {"corpus_records": len(corpus), "sources": len(metrics), "stages": n_stages}}


# ---------------------------------------------------------------------------
# score


def _split_box(box: NormBox, k: int, rng: np.random.Generator) -> tuple[NormBox, ...]:
    """Cover a box with k overlapping vertical strips, as a model that
    fragments one region into several boxes would."""
    x1, y1, x2, y2 = box.corners()
    step = (x2 - x1) / k
    strips = []
    for i in range(k):
        a = x1 + i * step
        b = min(x2, a + step * float(rng.uniform(1.0, 1.6)))
        strips.append(NormBox.from_corners(round(a, 2), y1, round(max(b, a + 0.01), 2), y2))
    return tuple(strips)


def _multi_box(rec: AnnotationRecord, rng: np.random.Generator) -> AnnotationRecord:
    def split(boxes: tuple[NormBox, ...]) -> tuple[NormBox, ...]:
        return tuple(s for b in boxes for s in _split_box(b, int(rng.integers(3, 9)), rng))

    if rec.task is Task.GRG:
        findings = [Finding(f.text, split(f.boxes)) for f in rec.findings]
        for extra in range(int(rng.integers(1, 3))):
            src = rec.findings[extra % len(rec.findings)]
            findings.append(Finding(f"possible {src.text}", split(src.boxes)))
        return replace(rec, findings=tuple(findings))
    return replace(rec, boxes=split(rec.boxes))


def _drift(text: str, task: Task) -> str:
    """Format drift the strict grammar rejects and lenient parsing salvages."""
    if task is Task.AGRG_DESCRIBE:
        return text[0].lower() + text[1:]
    return text.replace(",", ", ")


def _grid(size: int, rng: np.random.Generator) -> dict[str, Any]:
    max_level = 4095
    y, x = np.mgrid[0:size, 0:size] / size
    base = 0.5 + 0.3 * np.sin(6 * x) * np.cos(4 * y) + 0.15 * (x - y)
    noise = rng.normal(0.0, 0.05, size=(size, size))
    values = np.clip(np.rint((base + noise) * max_level), 0, max_level).astype(np.int64)
    return {"width": size, "height": size, "max_level": max_level, "values": values.ravel().tolist()}


def _score(seed: int, d: Path, scale: Scale, rng: np.random.Generator) -> dict[str, Any]:
    corpus = make_corpus(seed, scale)
    stages, inputs = [], {}
    for task in (Task.PG, Task.GRG, Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH):
        pool = [r for r in corpus if r.task is task]
        pick = np.sort(rng.choice(len(pool), size=min(scale.eval_rows_per_task, len(pool)),
                                  replace=False))
        gold = [pool[int(i)] for i in pick]
        # Exact shares, so every seed gives the same amount of each kind of row.
        n_multi = round(MULTI_BOX_SHARE * len(gold)) if task is not Task.AGRG_DESCRIBE else 0
        n_drift = round(DRIFT_SHARE * len(gold))
        multi = set(rng.choice(len(gold), size=n_multi, replace=False).tolist())
        drift = set(rng.choice(len(gold), size=n_drift, replace=False).tolist())
        preds = []
        for i, rec in enumerate(gold):
            text = render_instruction(_multi_box(rec, rng) if i in multi else rec).response
            if i in drift:
                text = _drift(text, task)
            preds.append({"image_id": rec.image_id, "output": text})
        _write_jsonl(d / f"gold_{task.value}.jsonl", [record_to_json(r) for r in gold])
        _write_jsonl(d / f"pred_{task.value}.jsonl", preds)
        inputs[task.value] = {"rows": len(gold), "drift": n_drift, "multi_box": n_multi}
        for mode in ("strict", "lenient"):
            out = d / f"out_eval_{task.value}_{mode}.json"
            stages.append(_stage(
                f"eval_{task.value}_{mode}", "eval_s",
                ["eval", "--pred", str(d / f"pred_{task.value}.jsonl"),
                 "--gold", str(d / f"gold_{task.value}.jsonl"), "--task", task.value,
                 "--mode", mode, "--out", str(out)],
                out, {"kind": "eval", "mode": mode, "n": len(gold), "drift": n_drift}))
    for size in scale.grid_sizes:
        _write_json(d / f"grid_{size}.json", _grid(size, rng))
        target = size // 2
        out = d / f"out_preprocess_{size}.json"
        stages.append(_stage(
            f"preprocess_{size}", "preprocess_s",
            ["preprocess", "--in", str(d / f"grid_{size}.json"), "--resize-w", str(target),
             "--resize-h", str(target), "--out", str(out)],
            out, {"kind": "grid", "width": target, "height": target}))
    inputs["grid_sizes"] = list(scale.grid_sizes)
    return {"stages": stages, "inputs": inputs}


# ---------------------------------------------------------------------------
# judge


def _judge(seed: int, d: Path, scale: Scale, rng: np.random.Generator,
           stub_url: str) -> dict[str, Any]:
    corpus = make_corpus(seed, scale)
    # Distinct reports, so the distinct prompt count is the same for every seed.
    reports = list(dict.fromkeys(
        ". ".join(f.text for f in r.findings) + "." for r in corpus if r.task is Task.GRG
    ))[: scale.judge_images]
    phrases = [r.text for r in corpus if r.task is Task.AGRG_DESCRIBE]
    gold, preds, pairs = [], [], set()
    for i, report in enumerate(reports):
        image_id = f"img-{i:04d}"
        gold.append({"image_id": image_id, "text": report})
        repeated = set(rng.choice(len(JUDGE_ANATOMIES), size=REPEATS_PER_IMAGE, replace=False))
        for k, anatomy in enumerate(JUDGE_ANATOMIES):
            if k in repeated:
                text = "N/A"
            else:
                text = f"{phrases[int(rng.integers(len(phrases)))]}, {anatomy} region."
            preds.append({"image_id": image_id, "anatomy": anatomy, "text": text})
            pairs.add((text, report))
    _write_jsonl(d / "judge_gold.jsonl", gold)
    _write_jsonl(d / "judge_pred.jsonl", preds)
    cache = d / "judge_cache"
    _write_json(d / "endpoint.json", {
        "url": stub_url, "model": "stub-judge", "timeout": 30.0, "max_retries": 2,
        "backoff": 0.001, "cache_dir": str(cache), "parallelism": 1,
    })
    argv = ["judge", "--pred", str(d / "judge_pred.jsonl"), "--gold", str(d / "judge_gold.jsonl"),
            "--endpoint", str(d / "endpoint.json")]
    n, distinct = len(preds), len(pairs)
    out_cold, out_warm = d / "out_judge_cold.jsonl", d / "out_judge_warm.jsonl"
    stages = [
        _stage("judge_cold", "judge_cold_s", argv + ["--out", str(out_cold)], out_cold,
               {"kind": "judge", "rows": n, "requests": distinct, "cold": True},
               clear=str(cache)),
        _stage("judge_warm", "judge_warm_s", argv + ["--out", str(out_warm)], out_warm,
               {"kind": "judge", "rows": n, "requests": 0, "cold": False, "same_as": str(out_cold)},
               repeat=scale.warm_passes),
        _stage("judge_aggregate", None,
               ["judge-aggregate", "--in", str(out_cold), "--out", str(d / "out_aggregate.json")],
               d / "out_aggregate.json", {"kind": "aggregate", "verdicts_from": str(out_cold)}),
    ]
    return {"stages": stages,
            "inputs": {"rows": n, "distinct_prompts": distinct, "images": len(reports)}}


def generate(workload: str, seed: int, workdir: Path, scale: Scale = FULL,
             stub_url: str = "") -> dict[str, Any]:
    """Write the inputs of one workload into ``workdir``; return its plan."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0xBE4C])
    if workload == "prep":
        plan = _prep(seed, workdir, scale, rng)
    elif workload == "loop":
        plan = _loop(seed, workdir, scale, rng)
    elif workload == "score":
        plan = _score(seed, workdir, scale, rng)
    elif workload == "judge":
        plan = _judge(seed, workdir, scale, rng, stub_url)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, **plan}
