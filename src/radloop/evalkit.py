"""Parsing and scoring of grounded model outputs.

The strict parser walks :data:`radloop.taskgen.RESPONSE_GRAMMAR` and so
accepts exactly the productions of the response templates. A box is four
ASCII decimals (a fraction of any length) in brackets, split by commas, with
no spaces; a box run joins boxes by nothing or one space; a GRG finding is a
phrase free of ``[`` and ``.``, then optionally one space and a box run, then
``.``, and findings are one space apart. Anything else raises
:class:`ParseError`, whose ``position`` is the offset where the failing
construct starts: a literal, a field, a box run, a finding, or the text after
a finding or after the template. The lenient parser
first tries the strict grammar and then falls back to scanning for bracketed
4-tuples anywhere in the text, marking the result ``salvaged``.
Out-of-range coordinates are clamped and reported through
``ParsedOutput.warnings`` in both modes.

Geometry takes the exact intersection and union areas of the gold and
predicted regions from one coordinate sweep, so grounding IoU carries no
rasterization error and lies in [0, 1]. All functions are pure and safe to
call from multiple threads.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .core import AnnotationRecord, Finding, NormBox, Task, group_means, mean
from .errors import (
    DuplicateId,
    EmptyGroundTruth,
    ParseError,
    UnknownId,
)
from .taskgen import RESPONSE_FIELDS, RESPONSE_GRAMMAR

# Minimum side kept for a degenerate predicted box; keeps the area near zero
# so a zero-width prediction scores like an empty one instead of crashing.
_MIN_SIDE = 1e-6
_INF = float("inf")


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


# The box, box run and GRG finding that the module docstring states.
_NUM = r"([0-9]+(?:\.[0-9]+)?)"
_BOX = re.compile(r"\[" + ",".join([_NUM] * 4) + r"\]")
_BOX_RUN = re.compile(r"{0}(?: ?{0})*".format(_BOX.pattern))
_FINDING = re.compile(r"([^\[.]+)(?: ({}))?\.".format(_BOX_RUN.pattern))


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


def _parse_box_run(text: str, pos: int, warnings: list[str]) -> tuple[list[NormBox], int]:
    """Parse one or more boxes separated by nothing or a single space."""
    m = _BOX_RUN.match(text, pos)
    if m is None:
        raise ParseError(pos, "a box")
    boxes = [_make_box([float(v) for v in box.groups()], warnings)
             for box in _BOX.finditer(text, pos, m.end())]
    return boxes, m.end()


def _parse_grg_strict(text: str, pos: int, warnings: list[str]) -> tuple[list[Finding], int]:
    """Parse findings, one space apart, from ``pos`` to the end of the output."""
    findings = []
    while True:
        m = _FINDING.match(text, pos)
        if m is None:
            raise ParseError(pos, "a finding")
        boxes = _parse_box_run(text, m.start(2), warnings)[0] if m.group(2) else []
        findings.append(Finding(m.group(1), tuple(boxes)))
        pos = m.end()
        if pos == len(text):
            return findings, pos
        if text[pos] != " ":
            raise ParseError(pos, "' ' or end of output")
        pos += 1


def _parse_strict(text: str, grammar: tuple) -> dict:
    """Match ``text`` against a response template's ``grammar``.

    Literals match exactly. A text field is non-empty and ends at the first
    occurrence of its end text, or at the end of the output when it has none;
    boxes and findings follow their own grammars. Nothing may follow the
    template. Returns the parsed fields and clamp warnings by their
    :class:`ParsedOutput` names.
    """
    values: dict = {"warnings": []}
    pos = 0
    for literal, name, end in grammar:
        if not text.startswith(literal, pos):
            raise ParseError(pos, repr(literal))
        pos += len(literal)
        if name == "boxes":
            values["boxes"], pos = _parse_box_run(text, pos, values["warnings"])
        elif name == "findings":
            values["findings"], pos = _parse_grg_strict(text, pos, values["warnings"])
            values["boxes"] = [b for f in values["findings"] for b in f.boxes]
        elif name is not None:
            k = len(text) if end is None else text.find(end, pos)
            if k == -1:
                raise ParseError(pos, f"{end!r} ending the {name}")
            if k == pos:
                raise ParseError(pos, f"a {name}")
            values[name] = text[pos:k]
            pos = k
    if pos != len(text):
        raise ParseError(pos, "end of output")
    return values


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


def _salvage(text: str, task: Task) -> dict:
    warnings: list[str] = []
    matches = list(_BOX_RE.finditer(text))
    boxes = [_make_box([float(g) for g in m.groups()], warnings) for m in matches]
    values: dict = {"boxes": boxes, "warnings": warnings, "salvaged": True}

    if task is Task.GRG:
        # Gather a finding's boxes, then build it once: growing its box tuple
        # one box at a time is quadratic in the boxes of one finding.
        groups: list[tuple[str, list[NormBox]]] = []
        cursor = 0
        for m, box in zip(matches, boxes):
            fragment = _clean_fragment(text[cursor : m.start()])
            if fragment or not groups:
                groups.append((fragment, [box]))
            else:
                groups[-1][1].append(box)
            cursor = m.end()
        findings = [Finding(phrase, tuple(group)) for phrase, group in groups]
        tail = _clean_fragment(text[cursor:])
        if tail:
            findings.append(Finding(tail, ()))
        values["findings"] = findings
        return values

    loc_match = _LOCATION_RE.search(text)
    if loc_match:
        values["location"] = loc_match.group(1).strip()

    if task is Task.PG:
        head = text[: matches[0].start()] if matches else text
        values["phrase"] = _clean_fragment(head) or None
        return values

    if task in (Task.AGRG_DESCRIBE, Task.AGRG_BOTH):
        desc_match = None
        for desc_match in _DESCRIPTION_RE.finditer(text):
            pass
        if desc_match is not None:
            description = text[desc_match.end() :].strip()
        else:
            description = _BOX_RE.sub(" ", text).strip()
        values["description"] = description or None
    return values


def parse_output(text: str, task: Task, mode: str = "strict") -> ParsedOutput:
    """Parse one model output string for the given task.

    ``mode`` is ``"strict"`` or ``"lenient"``. Strict failures raise
    :class:`ParseError`; lenient parsing never raises and sets ``salvaged``
    whenever the strict grammar did not match.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    try:
        values = _parse_strict(text, RESPONSE_GRAMMAR[task])
    except ParseError:
        if mode == "strict":
            raise
        values = _salvage(text, task)
    return ParsedOutput(task, **values)


# ---------------------------------------------------------------------------
# Exact rectangle-union geometry


def _covered(gold: Sequence[NormBox], pred: Sequence[NormBox]) -> tuple[float, float]:
    """Areas covered by both sides and by either side, from one x sweep.

    A strip between neighbouring x edges walks the y edges of the boxes that
    span it with a depth count per side. Each covered gap between y edges adds
    to "either", and in the same order to "both" where both sides cover it, so
    both <= either in doubles. A strip adds area only where its covered length
    is non-zero, so an infinite strip over nothing adds no ``inf * 0``.
    """
    rects = sorted(((x1, x2, ((y1, dg, dp), (y2, -dg, -dp)))
                    for dg, dp, boxes in ((1, 0, gold), (0, 1, pred)) for b in boxes
                    for x1, y1, x2, y2 in (b.corners(),)), reverse=True)
    xs = sorted({x for r in rects for x in r[:2]})
    both = either = 0.0
    active: list[tuple] = []
    for x0, x1 in zip(xs, xs[1:]):
        while rects and rects[-1][0] <= x0:
            active.append(rects.pop())
        active = [r for r in active if r[1] > x0]
        g = p = 0  # the gold and predicted boxes over the gap below y
        on_both = on_either = y0 = 0.0
        for y, dg, dp in sorted([e for r in active for e in r[2]]):
            if y > y0 and (g or p):
                on_either += y - y0
                if g and p:
                    on_both += y - y0
            g, p, y0 = g + dg, p + dp, y
        either += (x1 - x0) * on_either if on_either else 0.0
        both += (x1 - x0) * on_both if on_both else 0.0
    return both, either


def union_area(boxes: Sequence[NormBox]) -> float:
    """Exact area of the union of axis-aligned boxes (coordinate sweep)."""
    return _covered(boxes, ())[1]


def grounding_iou(gt_boxes: Sequence[NormBox], pred_boxes: Sequence[NormBox]) -> float:
    """IoU between the merged ground-truth region and the merged prediction.

    All ground-truth boxes are merged into one region and all predicted boxes
    into another; the score is the area of their intersection over the area
    of their union, both from one :func:`_covered` sweep, so it lies in
    [0, 1]. An empty prediction, or a union with no area in doubles, scores
    0; empty ground truth raises :class:`EmptyGroundTruth`, and an
    intersection beyond double range a ``ValueError``.
    """
    if not gt_boxes:
        raise EmptyGroundTruth("grounding IoU needs at least one ground-truth box")
    if not pred_boxes:
        return 0.0
    both, either = _covered(gt_boxes, pred_boxes)
    if not both < _INF:
        raise ValueError("the intersection of the boxes overflows a double")
    return both / either if either > 0 else 0.0


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
    """One scored prediction; its fields, in order, are the report row's keys."""

    id: str
    category: str
    iou: float | None
    text_score: float | None
    parse_failed: bool
    salvaged: bool


@dataclass
class EvalReport:
    """One task's scored rows and the summaries derived from them.

    ``per_class`` is :func:`radloop.core.group_means` of the rows by category.
    Micro is the :func:`radloop.core.mean` of a metric's scores, macro that of
    its category means. ``to_json`` writes schema version 1.
    """

    task: Task
    mode: str
    scorer: str
    rows: list[SampleRow]
    n: int = field(init=False)
    parse_failures: int = field(init=False)
    micro_iou: float | None = field(init=False)
    macro_iou: float | None = field(init=False)
    micro_text: float | None = field(init=False)
    macro_text: float | None = field(init=False)
    per_class: dict[str, dict[str, float | int | None]] = field(init=False)

    def __post_init__(self) -> None:
        ious, texts = [row.iou for row in self.rows], [row.text_score for row in self.rows]
        self.per_class = group_means([row.category for row in self.rows], iou=ious, text_score=texts)
        self.n = len(self.rows)
        self.parse_failures = sum([row.parse_failed for row in self.rows])
        classes = self.per_class.values()
        columns = ious, texts, [c["iou"] for c in classes], [c["text_score"] for c in classes]
        present = [[v for v in column if v is not None] for column in columns]
        self.micro_iou, self.micro_text, self.macro_iou, self.macro_text = (mean(p) if p else None for p in present)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "task": self.task.value,
            "mode": self.mode,
            "scorer": self.scorer,
            "counts": {"n": self.n, "parse_failures": self.parse_failures},
            "micro_iou": self.micro_iou,
            "macro_iou": self.macro_iou,
            "micro_text": self.micro_text,
            "macro_text": self.macro_text,
            "per_class": self.per_class,
            "rows": [vars(r) for r in self.rows],
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
            value = grounding_iou(g.boxes, p.boxes)
            if value > best:
                best, best_j = value, j
        if best_j is not None:
            used.add(best_j)
        scores.append(best)
    return mean(scores)


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
        iou = 0.0 if parsed is None else grounding_iou(record.boxes, parsed.boxes)
    if "description" in fields:
        text = 0.0 if parsed is None else scorer(parsed.description or "", record.text or "")
    return iou, text


def evaluate_task(
    preds: Mapping[str, str],
    gold: Sequence[AnnotationRecord],
    task: Task,
    mode: str = "strict",
    scorer: str = "lexical",
) -> EvalReport:
    """Score predictions against gold records for one task.

    ``preds`` maps sample ids (gold ``image_id`` values) to raw output text,
    and ``scorer`` names a registered scorer. Gold records of other tasks
    are skipped; the ids of ``task``'s gold records must be unique, and every
    prediction id must be one of them. In strict mode unparseable outputs
    score 0 on every metric the task defines and are counted in
    ``parse_failures``.
    """
    by_id: dict[str, AnnotationRecord] = {}
    for rec in gold:
        if rec.task is not task:
            continue
        if rec.image_id in by_id:
            raise DuplicateId(f"gold id {rec.image_id!r} appears more than once")
        by_id[rec.image_id] = rec

    scorer_fn = get_scorer(scorer)

    rows: list[SampleRow] = []
    for pid, text in preds.items():
        if pid not in by_id:
            raise UnknownId(f"prediction id {pid!r} has no {task.value} gold record")
        record = by_id[pid]
        parsed: ParsedOutput | None
        try:
            parsed = parse_output(text, task, mode)
        except ParseError:
            parsed = None
        iou, text_score = _score_sample(record, parsed, task, scorer_fn)
        rows.append(SampleRow(pid, record.category, iou, text_score, parse_failed=parsed is None,
                              salvaged=parsed is not None and parsed.salvaged))
    return EvalReport(task, mode, scorer, rows)
