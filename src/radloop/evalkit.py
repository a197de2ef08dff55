"""Parsing and scoring of grounded model outputs.

The strict parser walks :data:`radloop.taskgen.RESPONSE_GRAMMAR` and so
accepts exactly the productions of the response templates; anything else
raises :class:`ParseError` with the failing position. The lenient parser
first tries the strict grammar and then falls back to scanning for bracketed
4-tuples anywhere in the text, marking the result ``salvaged``.
Out-of-range coordinates are clamped and reported through
``ParsedOutput.warnings`` in both modes.

Geometry uses exact rectangle-union areas computed by coordinate sweep, so
grounding IoU carries no rasterization error. All functions are pure and
safe to call from multiple threads.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .core import AnnotationRecord, Finding, NormBox, Task
from .errors import (
    DuplicateId,
    EmptyGroundTruth,
    ParseError,
    UnknownId,
    UnsupportedTask,
)
from .taskgen import RESPONSE_FIELDS, RESPONSE_GRAMMAR

# Minimum side kept for a degenerate predicted box; keeps the area near zero
# so a zero-width prediction scores like an empty one instead of crashing.
_MIN_SIDE = 1e-6


@dataclass
class ParsedOutput:
    """Structured content recovered from one model output string."""

    task: Task
    phrase: str | None = None
    location: str | None = None
    boxes: list[NormBox] = field(default_factory=list)
    description: str | None = None
    findings: list[Finding] = field(default_factory=list)
    salvaged: bool = False
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Strict grammar


def _scan_number(text: str, pos: int) -> tuple[float, int]:
    start = pos
    n = len(text)
    while pos < n and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError(start, "a decimal numeral")
    if pos < n and text[pos] == ".":
        pos += 1
        frac_start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == frac_start:
            raise ParseError(frac_start, "digits after the decimal point")
    return float(text[start:pos]), pos


def _make_box(vals: Sequence[float], warnings: list[str]) -> NormBox:
    cx, cy, w, h = vals
    if not 0.0 <= cx <= 1.0:
        warnings.append(f"center x {cx} clamped to the unit range")
        cx = min(max(cx, 0.0), 1.0)
    if not 0.0 <= cy <= 1.0:
        warnings.append(f"center y {cy} clamped to the unit range")
        cy = min(max(cy, 0.0), 1.0)
    if w <= 0.0:
        warnings.append(f"degenerate width {w} replaced with {_MIN_SIDE}")
        w = _MIN_SIDE
    elif w > 1.0:
        warnings.append(f"width {w} clamped to 1.0")
        w = 1.0
    if h <= 0.0:
        warnings.append(f"degenerate height {h} replaced with {_MIN_SIDE}")
        h = _MIN_SIDE
    elif h > 1.0:
        warnings.append(f"height {h} clamped to 1.0")
        h = 1.0
    return NormBox(cx, cy, w, h)


def _parse_box(text: str, pos: int, warnings: list[str]) -> tuple[NormBox, int]:
    if pos >= len(text) or text[pos] != "[":
        raise ParseError(pos, "'['")
    pos += 1
    vals = []
    for i in range(4):
        if i:
            if pos >= len(text) or text[pos] != ",":
                raise ParseError(pos, "','")
            pos += 1
        value, pos = _scan_number(text, pos)
        vals.append(value)
    if pos >= len(text) or text[pos] != "]":
        raise ParseError(pos, "']'")
    return _make_box(vals, warnings), pos + 1


def _parse_box_run(text: str, pos: int, warnings: list[str]) -> tuple[list[NormBox], int]:
    """Parse one or more box groups separated by nothing or a single space."""
    boxes = []
    box, pos = _parse_box(text, pos, warnings)
    boxes.append(box)
    while True:
        if pos < len(text) and text[pos] == "[":
            box, pos = _parse_box(text, pos, warnings)
            boxes.append(box)
        elif pos + 1 < len(text) and text[pos] == " " and text[pos + 1] == "[":
            box, pos = _parse_box(text, pos + 1, warnings)
            boxes.append(box)
        else:
            return boxes, pos


def _parse_grg_strict(text: str, pos: int, out: ParsedOutput) -> int:
    """Parse findings from ``pos`` to the end of the output."""
    n = len(text)
    findings: list[Finding] = []
    while pos < n:
        i = pos
        while i < n and text[i] not in "[.":
            i += 1
        if i == n:
            raise ParseError(n, "'.' ending the finding")
        if text[i] == ".":
            phrase = text[pos:i]
            if not phrase:
                raise ParseError(pos, "a finding phrase")
            findings.append(Finding(phrase, ()))
            pos = i + 1
        else:
            if i == pos or text[i - 1] != " ":
                raise ParseError(i, "' ' before the box group")
            phrase = text[pos : i - 1]
            if not phrase:
                raise ParseError(pos, "a finding phrase")
            boxes, pos = _parse_box_run(text, i, out.warnings)
            if pos >= n or text[pos] != ".":
                raise ParseError(pos, "'.'")
            findings.append(Finding(phrase, tuple(boxes)))
            pos += 1
        if pos < n:
            if text[pos] != " ":
                raise ParseError(pos, "' ' or end of output")
            pos += 1
            if pos >= n:
                raise ParseError(pos, "another finding")
    if not findings:
        raise ParseError(pos, "at least one finding")
    out.findings = findings
    out.boxes = [b for f in findings for b in f.boxes]
    return pos


def _parse_strict(text: str, grammar: tuple, out: ParsedOutput) -> None:
    """Match ``text`` against a response template's ``grammar``.

    Literals match exactly. A text field is non-empty and ends at the first
    occurrence of its end text, or at the end of the output when it has none;
    boxes and findings follow their own grammars. Nothing may follow the
    template.
    """
    pos = 0
    for literal, name, end in grammar:
        if not text.startswith(literal, pos):
            raise ParseError(pos, repr(literal))
        pos += len(literal)
        if name == "boxes":
            out.boxes, pos = _parse_box_run(text, pos, out.warnings)
        elif name == "findings":
            pos = _parse_grg_strict(text, pos, out)
        elif name is not None:
            k = len(text) if end is None else text.find(end, pos)
            if k == -1:
                raise ParseError(len(text), f"{end!r} ending the {name}")
            if k == pos:
                raise ParseError(pos, f"a {name}")
            setattr(out, name, text[pos:k])
            pos = k
    if pos != len(text):
        raise ParseError(pos, "end of output")


# ---------------------------------------------------------------------------
# Lenient salvage

_NUM_RE = r"-?\d+(?:\.\d+)?"
_BOX_RE = re.compile(
    r"\[\s*(" + _NUM_RE + r")\s*,\s*(" + _NUM_RE + r")\s*,\s*("
    + _NUM_RE + r")\s*,\s*(" + _NUM_RE + r")\s*\]"
)
_LOCATION_RE = re.compile(r"(?:Location|Description) of the (.+?):", re.IGNORECASE)
_DESCRIPTION_RE = re.compile(r"Description(?: of the .+?)?:\s*", re.IGNORECASE)


def _clean_fragment(fragment: str) -> str:
    return fragment.strip().strip(".:;").strip()


def _salvage(text: str, task: Task, out: ParsedOutput) -> None:
    out.salvaged = True
    matches = list(_BOX_RE.finditer(text))
    boxes = [
        _make_box([float(g) for g in m.groups()], out.warnings) for m in matches
    ]
    out.boxes = boxes

    if task is Task.GRG:
        findings: list[Finding] = []
        cursor = 0
        for m, box in zip(matches, boxes):
            fragment = _clean_fragment(text[cursor : m.start()])
            if fragment or not findings:
                findings.append(Finding(fragment, (box,)))
            else:
                prev = findings[-1]
                findings[-1] = Finding(prev.text, prev.boxes + (box,))
            cursor = m.end()
        tail = _clean_fragment(text[cursor:])
        if tail:
            findings.append(Finding(tail, ()))
        out.findings = findings
        return

    loc_match = _LOCATION_RE.search(text)
    if loc_match:
        out.location = loc_match.group(1).strip()

    if task is Task.PG:
        head = text[: matches[0].start()] if matches else text
        out.phrase = _clean_fragment(head) or None
        return

    if task in (Task.AGRG_DESCRIBE, Task.AGRG_BOTH):
        desc_match = None
        for desc_match in _DESCRIPTION_RE.finditer(text):
            pass
        if desc_match is not None:
            description = text[desc_match.end() :].strip()
        else:
            description = _BOX_RE.sub(" ", text).strip()
        out.description = description or None


def parse_output(text: str, task: Task, mode: str = "strict") -> ParsedOutput:
    """Parse one model output string for the given task.

    ``mode`` is ``"strict"`` or ``"lenient"``. Strict failures raise
    :class:`ParseError`; lenient parsing never raises and sets ``salvaged``
    whenever the strict grammar did not match.
    """
    grammar = RESPONSE_GRAMMAR.get(task)
    if grammar is None:
        raise UnsupportedTask(f"no output grammar for task {task.value!r}")
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    out = ParsedOutput(task=task)
    try:
        _parse_strict(text, grammar, out)
        return out
    except ParseError:
        if mode == "strict":
            raise
    out = ParsedOutput(task=task)
    _salvage(text, task, out)
    return out


# ---------------------------------------------------------------------------
# Exact rectangle-union geometry


def union_area(boxes: Sequence[NormBox]) -> float:
    """Exact area of the union of axis-aligned boxes (coordinate sweep)."""
    if not boxes:
        return 0.0
    rects = [b.corners() for b in boxes]
    xs = sorted({x for r in rects for x in (r[0], r[2])})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        width = x1 - x0
        if width <= 0:
            continue
        spans = sorted(
            (r[1], r[3]) for r in rects if r[0] <= x0 and r[2] >= x1
        )
        covered = 0.0
        cur_end = float("-inf")
        for y1, y2 in spans:
            if y1 > cur_end:
                covered += y2 - y1
                cur_end = y2
            elif y2 > cur_end:
                covered += y2 - cur_end
                cur_end = y2
        total += width * covered
    return total


def _intersect(a: NormBox, b: NormBox) -> NormBox | None:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    x1, y1 = max(ax1, bx1), max(ay1, by1)
    x2, y2 = min(ax2, bx2), min(ay2, by2)
    if x2 > x1 and y2 > y1:
        return NormBox.from_corners(x1, y1, x2, y2)
    return None


def grounding_iou(gt_boxes: Sequence[NormBox], pred_boxes: Sequence[NormBox]) -> float:
    """IoU between the merged ground-truth region and the merged prediction.

    All ground-truth boxes are merged into one region and all predicted boxes
    into another; the score is the area of their intersection over the area
    of their union. An empty prediction scores 0; empty ground truth raises
    :class:`EmptyGroundTruth`.
    """
    if not gt_boxes:
        raise EmptyGroundTruth("grounding IoU needs at least one ground-truth box")
    if not pred_boxes:
        return 0.0
    inters = []
    for g in gt_boxes:
        for p in pred_boxes:
            box = _intersect(g, p)
            if box is not None:
                inters.append(box)
    inter_area = union_area(inters)
    total = union_area(list(gt_boxes) + list(pred_boxes))
    return inter_area / total


def aggregate_iou(per_class: Mapping[str, Sequence[float]]) -> tuple[float, float]:
    """Micro (mean over samples) and macro (mean of class means) IoU."""
    classes = {k: list(v) for k, v in per_class.items() if len(v) > 0}
    if not classes:
        raise ValueError("aggregate_iou needs at least one scored sample")
    all_vals = [v for vals in classes.values() for v in vals]
    micro = sum(all_vals) / len(all_vals)
    macro = sum(sum(v) / len(v) for v in classes.values()) / len(classes)
    return micro, macro


# ---------------------------------------------------------------------------
# Text scoring


def _tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", text.lower())


def lexical_fact_score(candidate: str, reference: str) -> float:
    """Token-multiset F1 between candidate and reference text.

    Deterministic stand-in for heavier report-quality scorers; both strings
    empty scores 1.0, exactly one empty scores 0.0.
    """
    cand = _tokens(candidate)
    ref = _tokens(reference)
    if not cand and not ref:
        return 1.0
    if not cand or not ref:
        return 0.0
    overlap = sum((Counter(cand) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(cand)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


Scorer = Callable[[str, str], float]

_SCORERS: dict[str, Scorer] = {"lexical": lexical_fact_score}


def register_scorer(name: str, fn: Scorer) -> None:
    """Register a report-quality scorer under a CLI-selectable name."""
    _SCORERS[name] = fn


def get_scorer(name: str) -> Scorer:
    if name not in _SCORERS:
        raise ValueError(f"unknown scorer {name!r}; registered: {sorted(_SCORERS)}")
    return _SCORERS[name]


# ---------------------------------------------------------------------------
# Task evaluation

@dataclass
class SampleRow:
    id: str
    category: str
    iou: float | None
    text_score: float | None
    parse_failed: bool
    salvaged: bool


@dataclass
class EvalReport:
    """Evaluation results for one task. ``schema_version`` pins the JSON shape."""

    task: Task
    mode: str
    scorer: str
    rows: list[SampleRow]
    n: int
    parse_failures: int
    micro_iou: float | None
    macro_iou: float | None
    micro_text: float | None
    macro_text: float | None
    per_class: dict[str, dict[str, float | int | None]]
    schema_version: int = 1

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "task": self.task.value,
            "mode": self.mode,
            "scorer": self.scorer,
            "counts": {"n": self.n, "parse_failures": self.parse_failures},
            "micro_iou": self.micro_iou,
            "macro_iou": self.macro_iou,
            "micro_text": self.micro_text,
            "macro_text": self.macro_text,
            "per_class": self.per_class,
            "rows": [
                {
                    "id": r.id,
                    "category": r.category,
                    "iou": r.iou,
                    "text_score": r.text_score,
                    "parse_failed": r.parse_failed,
                    "salvaged": r.salvaged,
                }
                for r in self.rows
            ],
        }


def _grg_sample_iou(gold: Sequence[Finding], pred: Sequence[Finding]) -> float | None:
    """Mean per-finding IoU with greedy matching in gold order.

    Each gold finding that carries boxes claims the unmatched predicted
    finding with the highest grounding IoU; gold findings left unmatched
    score 0. Gold reports with no boxed finding return None.
    """
    gold_boxed = [f for f in gold if f.boxes]
    if not gold_boxed:
        return None
    used: set[int] = set()
    scores = []
    for g in gold_boxed:
        best, best_j = 0.0, None
        for j, p in enumerate(pred):
            if j in used or not p.boxes:
                continue
            value = grounding_iou(list(g.boxes), list(p.boxes))
            if value > best:
                best, best_j = value, j
        if best_j is not None:
            used.add(best_j)
        scores.append(best)
    return sum(scores) / len(scores)


def _score_sample(
    record: AnnotationRecord,
    parsed: ParsedOutput | None,
    task: Task,
    scorer: Scorer,
) -> tuple[float | None, float | None]:
    """Return (iou, text_score) for one sample; None means not applicable."""
    iou: float | None = None
    text: float | None = None
    if task is Task.GRG:
        gold_boxed = any(f.boxes for f in record.findings)
        if parsed is None:
            iou = 0.0 if gold_boxed else None
            text = 0.0
        else:
            iou = _grg_sample_iou(record.findings, parsed.findings)
            cand = " ".join(f.text for f in parsed.findings if f.text)
            ref = " ".join(f.text for f in record.findings)
            text = scorer(cand, ref)
        return iou, text
    fields = RESPONSE_FIELDS[task]
    if "boxes" in fields:
        if not record.boxes:
            raise EmptyGroundTruth(f"gold record {record.image_id!r} has no boxes")
        iou = 0.0 if parsed is None else grounding_iou(list(record.boxes), parsed.boxes)
    if "description" in fields:
        reference = record.text or ""
        if parsed is None:
            text = 0.0
        else:
            text = scorer(parsed.description or "", reference)
    return iou, text


def evaluate_task(
    preds: Mapping[str, str] | Iterable[tuple[str, str]],
    gold: Sequence[AnnotationRecord],
    task: Task,
    mode: str = "strict",
    scorer: str | Scorer = "lexical",
) -> EvalReport:
    """Score predictions against gold records for one task.

    ``preds`` maps sample ids (gold ``image_id`` values) to raw output text.
    Ids must be unique on both sides and every prediction id must exist in
    the gold set. In strict mode unparseable outputs score 0 on every metric
    the task defines and are counted in ``parse_failures``.
    """
    if isinstance(preds, Mapping):
        pred_items = list(preds.items())
    else:
        pred_items = list(preds)
    seen: set[str] = set()
    for pid, _ in pred_items:
        if pid in seen:
            raise DuplicateId(f"prediction id {pid!r} appears more than once")
        seen.add(pid)

    by_id: dict[str, AnnotationRecord] = {}
    for rec in gold:
        if rec.image_id in by_id:
            raise DuplicateId(f"gold id {rec.image_id!r} appears more than once")
        by_id[rec.image_id] = rec

    scorer_fn = get_scorer(scorer) if isinstance(scorer, str) else scorer
    scorer_name = scorer if isinstance(scorer, str) else getattr(scorer, "__name__", "custom")

    rows: list[SampleRow] = []
    parse_failures = 0
    for pid, text in pred_items:
        if pid not in by_id:
            raise UnknownId(f"prediction id {pid!r} not present in gold")
        record = by_id[pid]
        parsed: ParsedOutput | None
        try:
            parsed = parse_output(text, task, mode)
        except ParseError:
            parsed = None
            parse_failures += 1
        iou, text_score = _score_sample(record, parsed, task, scorer_fn)
        rows.append(
            SampleRow(
                id=pid,
                category=record.category,
                iou=iou,
                text_score=text_score,
                parse_failed=parsed is None,
                salvaged=bool(parsed.salvaged) if parsed else False,
            )
        )

    def _aggregate(values: list[tuple[str, float]]) -> tuple[float | None, float | None]:
        if not values:
            return None, None
        grouped: dict[str, list[float]] = {}
        for cat, v in values:
            grouped.setdefault(cat, []).append(v)
        return aggregate_iou(grouped)

    iou_vals = [(r.category, r.iou) for r in rows if r.iou is not None]
    text_vals = [(r.category, r.text_score) for r in rows if r.text_score is not None]
    micro_iou, macro_iou = _aggregate(iou_vals)
    micro_text, macro_text = _aggregate(text_vals)

    by_category: dict[str, list[SampleRow]] = {}
    for row in rows:
        by_category.setdefault(row.category, []).append(row)
    per_class: dict[str, dict[str, float | int | None]] = {}
    for cat, cat_rows in by_category.items():
        cat_iou = [r.iou for r in cat_rows if r.iou is not None]
        cat_text = [r.text_score for r in cat_rows if r.text_score is not None]
        per_class[cat] = {
            "n": len(cat_rows),
            "iou": sum(cat_iou) / len(cat_iou) if cat_iou else None,
            "text_score": sum(cat_text) / len(cat_text) if cat_text else None,
        }

    return EvalReport(
        task=task,
        mode=mode,
        scorer=scorer_name,
        rows=rows,
        n=len(rows),
        parse_failures=parse_failures,
        micro_iou=micro_iou,
        macro_iou=macro_iou,
        micro_text=micro_text,
        macro_text=macro_text,
        per_class=per_class,
    )
