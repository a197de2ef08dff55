"""Instruction and response rendering for the grounded task suite.

Five tasks are renderable. The fixed template strings are:

    pg             instruction  "Ground the phrase: {phrase}"
                   response     "{phrase}: {boxes}"
    grg            instruction  "Generate a grounded report."
                   response     findings joined as sentences, boxes inline
    agrg_locate    instruction  "Locate the {location}."
                   response     "Location of the {location}: {boxes}."
    agrg_describe  instruction  "Describe the {location}."
                   response     "Description of the {location}: {description}"
    agrg_both      instruction  "Locate and describe the {location}."
                   response     "Location of the {location}: {boxes}. Description: {description}"

Boxes render in center format with exactly two decimals and no spaces, for
example ``[0.48,0.78,0.73,0.45]``; multiple boxes are separated by single
spaces. Responses are always produced from structured records so that
augmentation can regenerate them instead of editing strings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .core import AnnotationRecord, Finding, InstructionInstance, NormBox, Split, Task
from .errors import MissingField, UnsupportedTask

PG_INSTRUCTION = "Ground the phrase: {phrase}"
GRG_INSTRUCTION = "Generate a grounded report."
AGRG_LOCATE_INSTRUCTION = "Locate the {location}."
AGRG_DESCRIBE_INSTRUCTION = "Describe the {location}."
AGRG_BOTH_INSTRUCTION = "Locate and describe the {location}."

PG_RESPONSE = "{phrase}: {boxes}"
AGRG_LOCATE_RESPONSE = "Location of the {location}: {boxes}."
AGRG_DESCRIBE_RESPONSE = "Description of the {location}: {description}"
AGRG_BOTH_RESPONSE = "Location of the {location}: {boxes}. Description: {description}"

_REQUIRED_PLACEHOLDERS = {
    Task.PG: (("{phrase}",), ("{phrase}", "{boxes}")),
    Task.GRG: ((), ()),
    Task.AGRG_LOCATE: (("{location}",), ("{location}", "{boxes}")),
    Task.AGRG_DESCRIBE: (("{location}",), ("{location}", "{description}")),
    Task.AGRG_BOTH: (("{location}",), ("{location}", "{boxes}", "{description}")),
}


@dataclass(frozen=True)
class TemplateSet:
    """The instruction and response patterns for the five renderable tasks.

    Patterns must contain exactly the placeholders their task requires;
    the constructor rejects anything else so a misconfigured template fails
    at load time rather than at render time.
    """

    instructions: dict[Task, str]
    responses: dict[Task, str]

    def __post_init__(self) -> None:
        for task, (ins_ph, resp_ph) in _REQUIRED_PLACEHOLDERS.items():
            if task not in self.instructions or (task is not Task.GRG and task not in self.responses):
                raise ValueError(f"template set is missing task {task.value}")
            for ph in ins_ph:
                if ph not in self.instructions[task]:
                    raise ValueError(f"{task.value} instruction lacks {ph}")
            for ph in resp_ph:
                if ph not in self.responses[task]:
                    raise ValueError(f"{task.value} response lacks {ph}")


DEFAULT_TEMPLATES = TemplateSet(
    instructions={
        Task.PG: PG_INSTRUCTION,
        Task.GRG: GRG_INSTRUCTION,
        Task.AGRG_LOCATE: AGRG_LOCATE_INSTRUCTION,
        Task.AGRG_DESCRIBE: AGRG_DESCRIBE_INSTRUCTION,
        Task.AGRG_BOTH: AGRG_BOTH_INSTRUCTION,
    },
    responses={
        Task.PG: PG_RESPONSE,
        Task.AGRG_LOCATE: AGRG_LOCATE_RESPONSE,
        Task.AGRG_DESCRIBE: AGRG_DESCRIBE_RESPONSE,
        Task.AGRG_BOTH: AGRG_BOTH_RESPONSE,
    },
)


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


def render_instruction(
    record: AnnotationRecord, templates: TemplateSet = DEFAULT_TEMPLATES
) -> InstructionInstance:
    """Render a record into an (instruction, response) training instance.

    Raises :class:`MissingField` when the record lacks a field its template
    needs, and :class:`UnsupportedTask` for detection records, which are
    ingest-time precursors rather than renderable tasks.
    """
    task = record.task
    if task is Task.DETECTION:
        raise UnsupportedTask("detection records are converted at ingest and never rendered")

    if task is Task.PG:
        if not record.text:
            raise MissingField("pg record has no phrase")
        if not record.boxes:
            raise MissingField("pg record has no boxes")
        instruction = templates.instructions[task].format(phrase=record.text)
        response = templates.responses[task].format(
            phrase=record.text, boxes=format_boxes(record.boxes)
        )
    elif task is Task.GRG:
        if not record.findings:
            raise MissingField("grg record has no findings")
        instruction = templates.instructions[task]
        response = render_grounded_report(record.findings)
    elif task is Task.AGRG_LOCATE:
        if not record.category:
            raise MissingField("agrg_locate record has no location")
        if not record.boxes:
            raise MissingField("agrg_locate record has no boxes")
        instruction = templates.instructions[task].format(location=record.category)
        response = templates.responses[task].format(
            location=record.category, boxes=format_boxes(record.boxes)
        )
    elif task is Task.AGRG_DESCRIBE:
        if not record.category:
            raise MissingField("agrg_describe record has no location")
        if not record.text:
            raise MissingField("agrg_describe record has no description")
        instruction = templates.instructions[task].format(location=record.category)
        response = templates.responses[task].format(
            location=record.category, description=record.text
        )
    elif task is Task.AGRG_BOTH:
        if not record.category:
            raise MissingField("agrg_both record has no location")
        if not record.boxes:
            raise MissingField("agrg_both record has no boxes")
        if not record.text:
            raise MissingField("agrg_both record has no description")
        instruction = templates.instructions[task].format(location=record.category)
        response = templates.responses[task].format(
            location=record.category,
            boxes=format_boxes(record.boxes),
            description=record.text,
        )
    else:  # pragma: no cover - the enum is closed
        raise UnsupportedTask(str(task))

    return InstructionInstance(
        image_id=record.image_id,
        source_id=record.source_id,
        task=task,
        category=record.category,
        instruction=instruction,
        response=response,
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
