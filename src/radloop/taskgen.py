"""Instruction and response rendering for the grounded task suite.

:data:`TEMPLATES` holds the fixed instruction and response template of each
of the five renderable tasks. It is the one statement of the response
format: the renderer fills it, :mod:`radloop.evalkit` parses strictly by
:data:`RESPONSE_GRAMMAR`, and the scorer and the fixture generator read each
task's fields from :data:`RESPONSE_FIELDS`. GRG's ``{findings}`` renders as
one sentence per finding with its boxes inline.

A text field must not hold the text that ends it in the response (``": ["``
for a PG phrase or a locate/both location, ``": "`` for a describe
location); the renderer rejects such a record with :class:`Unrenderable`,
because strict parsing could not recover it.

Boxes render in center format with exactly two decimals and no spaces, for
example ``[0.48,0.78,0.73,0.45]``; multiple boxes are separated by single
spaces. Responses are always produced from structured records so that
augmentation can regenerate them instead of editing strings.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .core import AnnotationRecord, Finding, InstructionInstance, NormBox, Split, Task
from .errors import MissingField, Unrenderable, UnsupportedTask

TEMPLATES: dict[Task, tuple[str, str]] = {
    Task.PG: ("Ground the phrase: {phrase}", "{phrase}: {boxes}"),
    Task.GRG: ("Generate a grounded report.", "{findings}"),
    Task.AGRG_LOCATE: ("Locate the {location}.", "Location of the {location}: {boxes}."),
    Task.AGRG_DESCRIBE: ("Describe the {location}.", "Description of the {location}: {description}"),
    Task.AGRG_BOTH: (
        "Locate and describe the {location}.",
        "Location of the {location}: {boxes}. Description: {description}",
    ),
}

#: Fields whose rendered text has its own grammar; every other field is text.
_STRUCTURED_FIELDS = frozenset({"boxes", "findings"})


def _grammar(template: str) -> tuple[tuple[str, str | None, str | None], ...]:
    """Split a response template into (literal, field, end) steps.

    A step is a literal matched exactly, then ``field`` (None after a
    trailing literal). ``end`` is the text that ends a text field: the
    literal after it, plus ``[`` when boxes follow. It is None for structured
    fields and for a last text field, which takes the rest of the output.
    """
    parts = [(literal, name) for literal, name, _, _ in string.Formatter().parse(template)]
    steps = []
    for (literal, name), (next_literal, next_name) in zip(parts, parts[1:] + [("", None)]):
        end = None
        if name is not None and name not in _STRUCTURED_FIELDS:
            end = (next_literal + "[" if next_name == "boxes" else next_literal) or None
        steps.append((literal, name, end))
    return tuple(steps)


#: Per task, the strict grammar of its response template.
RESPONSE_GRAMMAR = {task: _grammar(response) for task, (_, response) in TEMPLATES.items()}

#: Per task, the fields its response carries.
RESPONSE_FIELDS = {
    task: frozenset(name for _, name, _ in steps if name) for task, steps in RESPONSE_GRAMMAR.items()
}


def format_box(box: NormBox) -> str:
    """Render one box with two decimals per coordinate and no spaces."""
    return f"[{box.cx:.2f},{box.cy:.2f},{box.w:.2f},{box.h:.2f}]"


def format_boxes(boxes: Sequence[NormBox]) -> str:
    return " ".join(format_box(b) for b in boxes)


def _render_finding(finding: Finding) -> str:
    # A finding becomes one sentence body; any trailing period is dropped so
    # joining with ". " never doubles punctuation.
    text = finding.text.strip().rstrip(".")
    if finding.boxes:
        return f"{text} {format_boxes(finding.boxes)}"
    return text


def render_grounded_report(findings: Sequence[Finding]) -> str:
    """Join findings into a report: sentence per finding, boxes inline."""
    if not findings:
        raise MissingField("a grounded report needs at least one finding")
    return ". ".join(_render_finding(f) for f in findings) + "."


#: The record attribute behind each template field and how it renders.
_FIELD_SOURCES = {
    "phrase": ("text", str),
    "description": ("text", str),
    "location": ("category", str),
    "boxes": ("boxes", format_boxes),
    "findings": ("findings", render_grounded_report),
}


def render_instruction(record: AnnotationRecord) -> InstructionInstance:
    """Render a record into an (instruction, response) training instance.

    Raises :class:`MissingField` when the record lacks a field its template
    needs, :class:`Unrenderable` when a text field holds the text that ends
    it in the response, and :class:`UnsupportedTask` for detection records,
    which are ingest-time precursors rather than renderable tasks.
    """
    task = record.task
    if task not in TEMPLATES:
        raise UnsupportedTask("detection records are converted at ingest and never rendered")
    values = {}
    for _, name, end in RESPONSE_GRAMMAR[task]:
        if name is None:
            continue
        attr, render = _FIELD_SOURCES[name]
        raw = getattr(record, attr)
        if not raw:
            raise MissingField(f"{task.value} record has no {name}")
        value = values[name] = render(raw)
        # An end text that starts inside the value and runs past it cuts it short too.
        if end is not None and (value + end).find(end) < len(value):
            raise Unrenderable(
                f"{task.value} {name} {value!r} holds {end!r}, which ends the {name} in the response"
            )
    instruction, response = TEMPLATES[task]
    return InstructionInstance(
        image_id=record.image_id,
        source_id=record.source_id,
        task=task,
        category=record.category,
        instruction=instruction.format_map(values),
        response=response.format_map(values),
        structured=record,
    )


def expand_padchest_labels(records: Iterable[AnnotationRecord]) -> list[AnnotationRecord]:
    """Duplicate labeled sentence-grounding records as (label, boxes) pairs.

    For every train or val PG record whose ``meta`` carries a ``label``, an
    additional PG record with the label as its phrase is appended directly
    after the original. Test-split records pass through unchanged so that
    evaluation never sees synthetic phrases.
    """
    out: list[AnnotationRecord] = []
    for rec in records:
        out.append(rec)
        if (
            rec.task is Task.PG
            and rec.split in (Split.TRAIN, Split.VAL)
            and rec.meta.get("label")
        ):
            meta = {k: v for k, v in rec.meta.items() if k != "label"}
            meta["from_label"] = True
            out.append(replace(rec, text=str(rec.meta["label"]), meta=meta))
    return out


# ---------------------------------------------------------------------------
# Anatomical location vocabularies


@dataclass(frozen=True)
class LocationSet:
    """An ordered anatomical query vocabulary."""

    name: str
    locations: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.locations)) != len(self.locations):
            raise ValueError(f"{self.name} contains duplicate locations")

    def __contains__(self, location: str) -> bool:
        return location in self.locations

    def __len__(self) -> int:
        return len(self.locations)

    def index(self, location: str) -> int:
        return self.locations.index(location)


AGRG9 = LocationSet(
    "AGRG9",
    (
        "abdomen",
        "cardiac silhouette",
        "left costophrenic angle",
        "right costophrenic angle",
        "left lung",
        "right lung",
        "mediastinum",
        "spine",
        "trachea",
    ),
)

AGRG29 = LocationSet(
    "AGRG29",
    AGRG9.locations
    + (
        "aortic arch",
        "carina",
        "cavoatrial junction",
        "svc",
        "upper mediastinum",
        "left apical zone",
        "right apical zone",
        "left mid lung zone",
        "right mid lung zone",
        "left lower lung zone",
        "right lower lung zone",
        "left upper lung zone",
        "right upper lung zone",
        "left hilar structures",
        "right hilar structures",
        "left clavicle",
        "right clavicle",
        "left hemidiaphragm",
        "right hemidiaphragm",
        "right atrium",
    ),
)

AGRG38 = LocationSet(
    "AGRG38",
    AGRG29.locations
    + (
        "left arm",
        "right arm",
        "left breast",
        "right breast",
        "left chest wall",
        "right chest wall",
        "left shoulder",
        "right shoulder",
        "neck",
    ),
)

LOCATION_SETS = {s.name: s for s in (AGRG9, AGRG29, AGRG38)}


def order_by_location(
    items: Iterable[tuple[str, object]], location_set: LocationSet
) -> list[object]:
    """Order (location, payload) pairs by the location set's listing order.

    Locations outside the set keep their relative order and sort last.
    """
    indexed = list(items)
    n = len(location_set)

    def sort_key(pair: tuple[str, object]) -> int:
        loc = pair[0]
        return location_set.index(loc) if loc in location_set else n

    return [payload for _, payload in sorted(indexed, key=sort_key)]


# ---------------------------------------------------------------------------
# Report assembly


def _is_coordinate_group(body: str) -> bool:
    # A coordinate group contains digits plus number punctuation only.
    if not body or not any(ch.isdigit() for ch in body):
        return False
    return all(ch.isdigit() or ch in ".,- " for ch in body)


def strip_box_groups(text: str) -> str:
    """Remove inline ``[..]`` coordinate groups and tidy the whitespace.

    Bracket groups that are not coordinate groups (for example a bracketed
    abbreviation inside a sentence) are kept. Runs on a character scanner,
    so nested or unbalanced brackets degrade gracefully.
    """
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "[":
            end = text.find("]", i + 1)
            if end != -1 and _is_coordinate_group(text[i + 1 : end]):
                i = end + 1
                continue
        out.append(ch)
        i += 1
    collapsed = " ".join("".join(out).split())
    for punct in (".", ",", ";", ":"):
        collapsed = collapsed.replace(f" {punct}", punct)
    return collapsed


def assemble_report(
    agrg_outputs: Sequence[object],
    grg_output: object | None = None,
    strip_boxes: bool = False,
) -> str:
    """Assemble a full report from per-anatomy outputs plus an optional GRG one.

    ``agrg_outputs`` are parsed model outputs (objects with ``description``)
    already ordered by the chosen location vocabulary; empty or ``N/A``
    descriptions are skipped. When a parsed GRG output (object with
    ``findings``) is given, its re-rendered report text is appended last.
    With ``strip_boxes`` all inline coordinate groups are removed, which is
    the form text-only report scorers consume.
    """
    pieces: list[str] = []
    for out in agrg_outputs:
        desc = getattr(out, "description", None)
        if desc is None:
            continue
        desc = desc.strip()
        if not desc or desc.upper() == "N/A":
            continue
        pieces.append(desc)
    if grg_output is not None:
        findings = list(getattr(grg_output, "findings", ()))
        if findings:
            pieces.append(render_grounded_report(findings))
    report = " ".join(pieces)
    if strip_boxes:
        report = strip_box_groups(report)
    return report
