"""Converters from raw annotation formats into the common record schema.

Four input formats are supported, all JSONL, one object per line:

``scene_graph``
    ``{"image_id", "location", "box"?, "sentence"?, "source_id"?, "split"?}``
    One annotated anatomical location. A row with both a box and a sentence
    yields three records (locate-and-describe, locate, describe); a row with
    only one annotation yields the matching single record.

``phrase_boxes``
    ``{"image_id", "phrase", "boxes", "category"?, "label"?, "source_id"?,
    "split"?}``  One grounded phrase, emitted as a phrase-grounding record.
    A ``label`` rides along in record ``meta`` for later label expansion.

``grounded_report``
    ``{"image_id", "findings": [{"text", "boxes"?}, ...], "source_id"?,
    "split"?}``  One grounded report per image.

``detection``
    ``{"image_id", "findings": [{"label", "boxes"?}, ...], "source_id"?,
    "split"?}``  Structured detector output. Localizable findings become
    phrase-grounding records with the label expanded to a natural phrase;
    the whole image additionally becomes one pseudo-report record whose
    findings list the expanded labels with their boxes (global, box-free
    labels become text-only findings). The emitted source ids get ``-pg``
    and ``-grg`` suffixes so the two derived tasks stay separate sources.

Any malformed line raises :class:`FormatError` with its line number; nothing
is skipped silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .core import (
    AGRG_SUBTASKS,
    AnnotationRecord,
    Finding,
    NormBox,
    Split,
    Task,
    boxes_from_json,
    clamp_box,
    finding_from_json,
    iter_jsonl,
)
from .errors import EmptyAfterClamp, FormatError, InsufficientStratum
from .taskgen import RESPONSE_FIELDS

#: Short detector class labels expanded to natural language phrases.
#: Labels missing from the table pass through verbatim.
LABEL_PHRASES = {
    "ILD": "Interstitial lung disease",
    "Enlarged PA": "Enlarged pulmonary artery",
    "COPD": "Chronic obstructive pulmonary disease",
    "Nodule/Mass": "Nodule or mass",
}

#: Prompt for synthesizing location-specific mini-reports out of full
#: reports; shipped for reference and for driving external generators. The
#: toolkit never executes it.
MINI_REPORT_PROMPT = """You will be provided with a chest x-ray report and a specified anatomical location. Your task is to generate a JSON object in the following format: {"reasoning": "", "mini-report": ""}

Guidelines:

- reasoning: Begin your reasoning by identifying and naming anatomical regions in close proximity to the specified location. Then, briefly summarize the report as a sequence of findings/observations. Lastly, identify all findings relevant to the specified location. A finding or observation is relevant if it meets any of the following criteria: (1) it explicitly describes the specified anatomical location; (2) it explicitly describes a region anatomically very close to the specified location, where the description is highly likely to also apply to the specified location; (3) it makes a general description from which it logically and with absolute certainty follows that the description applies to the specified location as a specific instance (e.g., "both lungs are clear" implies "the right lung is clear"; "no bone abnormalities" implies "the right clavicle presents no abnormalities"); or (4) it describes devices, tubes, or other objects traversing or situated within the specified anatomical location. Present your reasoning as a single, continuous paragraph, strictly avoiding newlines and special characters.
- mini-report: From the relevant information identified in your reasoning, synthesize a concise and accurate mini-report, written in a style consistent with a radiologist's findings, specifically detailing the findings related to the specified anatomical location.
- If the report contains no findings or descriptions pertinent to the specified anatomical location, set the value of "mini-report" to "N/A".
- Make sure to use JSON format as shown above."""

#: Prompt for labeling whether a report mentions abnormalities or devices;
#: shipped for reference, used to produce the stratification flags that
#: :func:`build_benchmark_subset` consumes. The toolkit never executes it.
ABNORMALITY_LABELING_PROMPT = """You will be provided with a chest X-ray report or sentence. Your task is to analyze the text and determine:

1. Whether any abnormalities or pathologies are mentioned.
2. Whether any medical devices or foreign objects are mentioned.

Output format:
Return a JSON object with the following fields:

{
  "reason": "A brief explanation of your reasoning.",
  "mentions_abnormalities": "yes" | "no",
  "mentions_devices": "yes" | "no"
}"""


def expand_label(label: str) -> str:
    return LABEL_PHRASES.get(label, label)


def _get_str(obj: Mapping[str, Any], key: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise FormatError(line, f"field {key!r} must be a non-empty string")
    return value


def _get_split(obj: Mapping[str, Any], line: int, default: Split) -> Split:
    raw = obj.get("split")
    if raw is None:
        return default
    try:
        return Split(raw)
    except ValueError as exc:
        raise FormatError(line, f"unknown split {raw!r}") from exc


def _clamped(boxes: tuple[NormBox, ...], line: int) -> tuple[NormBox, ...]:
    """Clamp decoded boxes into the unit square; a box left empty is a format error."""
    try:
        return tuple(clamp_box(b) for b in boxes)
    except EmptyAfterClamp as exc:
        raise FormatError(line, str(exc)) from exc


def _scene_graph_records(obj: Mapping[str, Any], line: int) -> list[AnnotationRecord]:
    image_id = _get_str(obj, "image_id", line)
    location = _get_str(obj, "location", line)
    source_id = str(obj.get("source_id", "cig"))
    split = _get_split(obj, line, Split.TRAIN)
    raw_box = obj.get("box")
    box = None if raw_box is None else _clamped(boxes_from_json([raw_box], line), line)[0]
    sentence = obj.get("sentence")
    if sentence is not None and (not isinstance(sentence, str) or not sentence):
        raise FormatError(line, "field 'sentence' must be a non-empty string")
    if box is None and sentence is None:
        raise FormatError(line, "a scene_graph row needs a box, a sentence, or both")

    common = dict(image_id=image_id, source_id=source_id, category=location, split=split)
    records = []
    if box is not None and sentence is not None:
        records.append(
            AnnotationRecord(task=Task.AGRG_BOTH, text=sentence, boxes=(box,), **common)
        )
    if box is not None:
        records.append(AnnotationRecord(task=Task.AGRG_LOCATE, boxes=(box,), **common))
    if sentence is not None:
        records.append(AnnotationRecord(task=Task.AGRG_DESCRIBE, text=sentence, **common))
    return records


def _phrase_boxes_records(obj: Mapping[str, Any], line: int) -> list[AnnotationRecord]:
    image_id = _get_str(obj, "image_id", line)
    phrase = _get_str(obj, "phrase", line)
    boxes = _clamped(boxes_from_json(obj.get("boxes"), line), line)
    if not boxes:
        raise FormatError(line, "a phrase_boxes row needs at least one box")
    category = str(obj.get("category", phrase))
    meta = {}
    if obj.get("label"):
        meta["label"] = str(obj["label"])
    return [
        AnnotationRecord(
            image_id=image_id,
            source_id=str(obj.get("source_id", "pg")),
            task=Task.PG,
            category=category,
            text=phrase,
            boxes=boxes,
            split=_get_split(obj, line, Split.TRAIN),
            meta=meta,
        )
    ]


def _grounded_report_records(obj: Mapping[str, Any], line: int) -> list[AnnotationRecord]:
    image_id = _get_str(obj, "image_id", line)
    raw_findings = obj.get("findings")
    if not isinstance(raw_findings, list) or not raw_findings:
        raise FormatError(line, "field 'findings' must be a non-empty list")
    findings = tuple(
        Finding(f.text, _clamped(f.boxes, line))
        for f in (finding_from_json(raw, line) for raw in raw_findings)
    )
    return [
        AnnotationRecord(
            image_id=image_id,
            source_id=str(obj.get("source_id", "grg")),
            task=Task.GRG,
            category="report",
            findings=findings,
            split=_get_split(obj, line, Split.TRAIN),
        )
    ]


def _detection_records(obj: Mapping[str, Any], line: int) -> list[AnnotationRecord]:
    image_id = _get_str(obj, "image_id", line)
    raw_findings = obj.get("findings")
    if not isinstance(raw_findings, list) or not raw_findings:
        raise FormatError(line, "field 'findings' must be a non-empty list")
    source = str(obj.get("source_id", "detection"))
    split = _get_split(obj, line, Split.TEST)

    records = []
    report_findings = []
    for raw in raw_findings:
        if not isinstance(raw, dict) or not raw.get("label"):
            raise FormatError(line, "each finding needs a 'label'")
        label = str(raw["label"])
        phrase = expand_label(label)
        boxes = _clamped(boxes_from_json(raw.get("boxes"), line), line)
        if boxes:
            records.append(
                AnnotationRecord(
                    image_id=image_id,
                    source_id=f"{source}-pg",
                    task=Task.PG,
                    category=label,
                    text=phrase,
                    boxes=boxes,
                    split=split,
                )
            )
        report_findings.append(Finding(phrase, boxes))
    records.append(
        AnnotationRecord(
            image_id=image_id,
            source_id=f"{source}-grg",
            task=Task.GRG,
            category="report",
            findings=tuple(report_findings),
            split=split,
        )
    )
    return records


_FORMATS = {
    "scene_graph": _scene_graph_records,
    "phrase_boxes": _phrase_boxes_records,
    "grounded_report": _grounded_report_records,
    "detection": _detection_records,
}


def load_records(path: str | Path, format: str) -> list[AnnotationRecord]:
    """Read a raw annotation file and convert it to annotation records."""
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}; supported: {sorted(_FORMATS)}")
    convert = _FORMATS[format]
    return [rec for line_no, obj in iter_jsonl(path) for rec in convert(obj, line_no)]


# ---------------------------------------------------------------------------
# Synthetic fixtures

_FIXTURE_FINDING_WORDS = (
    "opacity",
    "consolidation",
    "effusion",
    "atelectasis",
    "nodularity",
    "thickening",
)
_FIXTURE_QUALIFIERS = ("mild", "moderate", "subtle", "extensive", "chronic", "focal")


def _fixture_box(rng: np.random.Generator) -> NormBox:
    # Stay on the 2-decimal grid so rendered text round-trips exactly.
    cx = round(rng.uniform(0.2, 0.8), 2)
    cy = round(rng.uniform(0.2, 0.8), 2)
    w = round(rng.uniform(0.05, min(cx, 1 - cx) * 2), 2)
    h = round(rng.uniform(0.05, min(cy, 1 - cy) * 2), 2)
    return NormBox(cx, cy, max(w, 0.05), max(h, 0.05))


def _fixture_phrase(rng: np.random.Generator, category: str) -> str:
    q = _FIXTURE_QUALIFIERS[int(rng.integers(len(_FIXTURE_QUALIFIERS)))]
    f = _FIXTURE_FINDING_WORDS[int(rng.integers(len(_FIXTURE_FINDING_WORDS)))]
    return f"{q} {f} of the {category}"


def make_fixture_dataset(
    seed: int, spec: Mapping[str, Mapping[str, int]], split: Split = Split.TRAIN
) -> list[AnnotationRecord]:
    """Generate a deterministic synthetic dataset.

    ``spec`` maps a task key to ``{category: count}``. A task key is either a
    task value (``"pg"``, ``"grg"``, ``"agrg_locate"``, ...), the family
    shorthand ``"agrg"`` (which emits all three subtasks, ``count`` records
    each), or ``"source:task"`` to control the source id. Identical
    (seed, spec) pairs produce identical record lists.
    """
    rng = np.random.default_rng(seed)
    records: list[AnnotationRecord] = []
    for task_key in spec:
        source_id, _, task_value = task_key.rpartition(":")
        tasks = AGRG_SUBTASKS if task_value == "agrg" else (Task(task_value),)
        if not source_id:
            source_id = f"fixture-{task_value}"
        for category, count in spec[task_key].items():
            for i in range(count):
                for task in tasks:
                    fields = RESPONSE_FIELDS.get(task)
                    if fields is None:
                        raise ValueError(f"cannot generate fixtures for task {task.value!r}")
                    image_id = f"{source_id}-{task.value}-{category}-{i:05d}"
                    meta = {
                        "has_abnormality": bool(rng.random() < 0.5),
                        "has_device": bool(rng.random() < 0.5),
                    }
                    # Draw order per record: meta flags, text, box, findings.
                    has_text = "phrase" in fields or "description" in fields
                    text = _fixture_phrase(rng, category) if has_text else None
                    boxes = (_fixture_box(rng),) if "boxes" in fields else ()
                    findings = ()
                    if "findings" in fields:
                        findings = tuple(
                            Finding(_fixture_phrase(rng, category), (_fixture_box(rng),))
                            for _ in range(int(rng.integers(1, 4)))
                        )
                    records.append(
                        AnnotationRecord(
                            image_id=image_id,
                            source_id=source_id,
                            task=task,
                            category=category,
                            text=text,
                            boxes=boxes,
                            split=split,
                            findings=findings,
                            meta=meta,
                        )
                    )
    return records


# ---------------------------------------------------------------------------
# Benchmark subset construction


@dataclass(frozen=True)
class BenchmarkSubsetSpec:
    """Composition of a stratified evaluation benchmark.

    ``n_with_findings`` instances carrying text are balanced across the
    (location, has_abnormality, has_device) strata present in the pool;
    ``n_without_findings`` box-only instances are spread uniformly across
    locations (per-location counts never differ by more than one).
    """

    n_with_findings: int = 700
    n_without_findings: int = 300


def _alloc(total: int, buckets: int) -> list[int]:
    base, extra = divmod(total, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def build_benchmark_subset(
    records: Sequence[AnnotationRecord],
    spec: BenchmarkSubsetSpec,
    seed: int,
) -> list[AnnotationRecord]:
    """Select a stratified benchmark subset from a record pool.

    Records with text form the with-findings pool, stratified over
    (category, has_abnormality, has_device) using the ``meta`` flags;
    records without text form the location-uniform pool. Strata and
    locations are enumerated in input order and filled in that order, so
    the outcome is deterministic given (records, spec, seed). A stratum
    that cannot supply its allocation raises :class:`InsufficientStratum`.
    """
    rng = np.random.default_rng(seed)
    with_findings: dict[tuple[str, bool, bool], list[AnnotationRecord]] = {}
    without: dict[str, list[AnnotationRecord]] = {}
    for rec in records:
        if rec.text:
            key = (
                rec.category,
                bool(rec.meta.get("has_abnormality", False)),
                bool(rec.meta.get("has_device", False)),
            )
            with_findings.setdefault(key, []).append(rec)
        else:
            without.setdefault(rec.category, []).append(rec)

    chosen = _draw_spread(with_findings, spec.n_with_findings, "with-findings", rng)
    return chosen + _draw_spread(without, spec.n_without_findings, "without-findings", rng)


def _draw_spread(
    groups: Mapping[Any, list[AnnotationRecord]], total: int, name: str, rng: np.random.Generator
) -> list[AnnotationRecord]:
    """Draw ``total`` records without replacement, spread evenly over ``groups``
    in their insertion order; a group too small for its share raises."""
    if total <= 0:
        return []
    if not groups:
        raise InsufficientStratum(name, 0, total)
    chosen: list[AnnotationRecord] = []
    for key, want in zip(groups, _alloc(total, len(groups))):
        pool = groups[key]
        if want > len(pool):
            raise InsufficientStratum(key, len(pool), want)
        if want:
            idx = rng.choice(len(pool), size=want, replace=False)
            chosen.extend(pool[int(i)] for i in sorted(idx))
    return chosen
