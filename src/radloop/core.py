"""Core value types: normalized boxes, annotation records, instruction triplets.

Coordinates are stored as double precision fractions of the image size in
center format (cx, cy, w, h). All types here are plain immutable dataclasses
and can be shared freely across threads.

JSONL record schema (one object per line):

    {"image_id": str, "source_id": str, "task": str, "category": str,
     "text": str | null, "boxes": [[cx, cy, w, h], ...], "split": str}

Two optional fields extend the schema where the seven fixed fields cannot
carry the annotation faithfully: ``findings`` (grounded-report records only,
a list of ``{"text": str, "boxes": [[...], ...]}`` objects preserving the
phrase-to-box association) and ``meta`` (a flat object for per-record flags
such as label provenance). Both are omitted when empty, so records that do
not need them serialize with exactly the seven fixed field names.

Every file the package reads or writes goes through the functions at the
end of this module: :func:`iter_jsonl` for JSONL lines, :func:`load_json`
for whole-file documents, the record and instance codecs, and
:func:`atomic_write` for output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import ConfigError, EmptyAfterClamp, FormatError

#: Tolerance for the unit-square containment invariant after clamping.
EPSILON = 1e-9

#: Maximum absolute per-coordinate error introduced by 2-decimal text output.
TEXT_ROUNDTRIP_TOL = 0.005


class Task(str, Enum):
    """Training task of a record.

    The three ``AGRG_*`` members are the subtasks of anatomy-guided report
    generation; they share one data source and are sampled uniformly within
    it. ``DETECTION`` marks raw detector annotations that ingestion converts
    into phrase-grounding and pseudo-report records, so it never renders.
    """

    PG = "pg"
    GRG = "grg"
    AGRG_LOCATE = "agrg_locate"
    AGRG_DESCRIBE = "agrg_describe"
    AGRG_BOTH = "agrg_both"
    DETECTION = "detection"

    @property
    def family(self) -> "TaskFamily":
        if self in _AGRG_TASKS:
            return TaskFamily.AGRG
        return TaskFamily(self.value)


_AGRG_TASKS = frozenset({Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH})

#: Subtask ordering used wherever the three AGRG subtasks are enumerated.
AGRG_SUBTASKS = (Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH)


class TaskFamily(str, Enum):
    """Task granularity at which data sources are identified."""

    PG = "pg"
    GRG = "grg"
    AGRG = "agrg"
    DETECTION = "detection"


class Split(str, Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


@dataclass(frozen=True)
class NormBox:
    """Axis-aligned box in normalized center format.

    Width and height must be strictly positive. The box is not required to
    lie inside the unit square on construction; :func:`clamp_box` enforces
    containment where the pipeline needs it.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w} h={self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        """Return the (x1, y1, x2, y2) corner form."""
        return (
            self.cx - self.w / 2,
            self.cy - self.h / 2,
            self.cx + self.w / 2,
            self.cy + self.h / 2,
        )

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "NormBox":
        return cls((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)

    def area(self) -> float:
        return self.w * self.h

    def to_list(self) -> list[float]:
        return [self.cx, self.cy, self.w, self.h]

    @classmethod
    def from_list(cls, values: Iterable[float]) -> "NormBox":
        vals = list(values)
        if len(vals) != 4:
            raise ValueError(f"a box needs exactly 4 numbers, got {len(vals)}")
        return cls(float(vals[0]), float(vals[1]), float(vals[2]), float(vals[3]))


def clamp_box(box: NormBox) -> NormBox:
    """Intersect a box with the unit square.

    Boxes already inside (within EPSILON) are returned unchanged, which makes
    the operation exactly idempotent. A box entirely outside the unit square
    raises :class:`EmptyAfterClamp`.
    """
    x1, y1, x2, y2 = box.corners()
    if x1 >= -EPSILON and y1 >= -EPSILON and x2 <= 1 + EPSILON and y2 <= 1 + EPSILON:
        return box
    nx1, ny1 = max(x1, 0.0), max(y1, 0.0)
    nx2, ny2 = min(x2, 1.0), min(y2, 1.0)
    if nx2 - nx1 <= 0 or ny2 - ny1 <= 0:
        raise EmptyAfterClamp(f"box {box.to_list()} lies outside the unit square")
    return NormBox.from_corners(nx1, ny1, nx2, ny2)


@dataclass(frozen=True)
class Finding:
    """One grounded-report finding: a phrase and the boxes attached to it.

    Text-only findings (no localizable region) carry an empty box tuple.
    """

    text: str
    boxes: tuple[NormBox, ...] = ()


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotation in the common schema all pipeline stages exchange.

    ``findings`` is populated for GRG records only and preserves the
    phrase-to-box association a flat (text, boxes) pair cannot express.
    ``meta`` carries flat auxiliary flags (for example ``label`` provenance
    from sentence-level grounding data, or ``has_abnormality`` and
    ``has_device`` flags used for benchmark stratification).
    """

    image_id: str
    source_id: str
    task: Task
    category: str
    text: str | None = None
    boxes: tuple[NormBox, ...] = ()
    split: Split = Split.TRAIN
    findings: tuple[Finding, ...] = ()
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class InstructionInstance:
    """A rendered (instruction, response) pair plus its structured source.

    The response is always regenerated from ``structured`` by the template
    renderer; nothing in the pipeline edits response strings in place.
    """

    image_id: str
    source_id: str
    task: Task
    category: str
    instruction: str
    response: str
    structured: AnnotationRecord


@dataclass(frozen=True)
class DataSourceId:
    """Identity of a data source: a dataset name plus its supervision task.

    Sources are identified at task-family granularity because the three AGRG
    subtasks share one source and one inter-level probability.
    """

    name: str
    task: TaskFamily

    @property
    def key(self) -> str:
        return f"{self.name}:{self.task.value}"

    @classmethod
    def parse(cls, key: str) -> "DataSourceId":
        name, sep, fam = key.rpartition(":")
        if not sep or not name:
            raise ValueError(f"source key must look like 'name:task', got {key!r}")
        return cls(name, TaskFamily(fam))


# ---------------------------------------------------------------------------
# JSON files: the one reader, record codec and atomic writer every module uses


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_no, object) pairs from a JSONL file; blank lines are skipped.

    This is the only place a file line is decoded. A line that is not valid
    UTF-8 or not valid JSON, holds a JSON value other than an object, or
    escapes a lone surrogate (text no UTF-8 writer can write) raises
    :class:`FormatError` with its line number.
    """
    # Undecodable bytes become lone surrogates here, so the line is numbered
    # before it is rejected; only a non-ASCII line can hold one.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise FormatError(line_no, f"invalid UTF-8 at character {exc.start}") from exc
            # ValueError also covers over-long integer literals; deep nesting recurses.
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise FormatError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise FormatError(line_no, "each line must hold a JSON object")
            # Only a \u escape can decode to a lone surrogate; the one-character
            # test first is a memchr, far cheaper than the two-character search.
            if "\\" in line and "\\u" in line:
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise FormatError(line_no, f"text holds a lone surrogate: {exc}") from exc
            yield line_no, obj


def load_json(path: str | Path, decode: Callable[[Any], Any] | None = None) -> Any:
    """Read a whole-file JSON document (config, plan, metrics, grid).

    ``decode`` turns the document into its value type. Invalid JSON, or a
    document whose shape ``decode`` cannot handle, raises :class:`FormatError`;
    domain errors raised by ``decode`` pass through unchanged.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(getattr(exc, "lineno", 0), f"invalid JSON: {exc}") from exc
    if decode is None:
        return doc
    try:
        return decode(doc)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise FormatError(0, f"bad document: {type(exc).__name__}: {exc}") from exc


def atomic_write(path: str | Path, text: str | Iterable[str]) -> None:
    """Write a string, or string chunks as they come, to ``path`` through a
    unique temp file and a rename: readers see the old file or the whole new one.

    If anything raises, the iterable included, the temp file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # Mode 0o666 less the umask, as for any new file (mkstemp would give 0o600).
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def jsonl_lines(objs: Iterable[Mapping[str, Any]]) -> Iterator[str]:
    """Encode objects as JSONL lines, one at a time, non-ASCII text kept as is."""
    return (json.dumps(o, ensure_ascii=False) + "\n" for o in objs)


def config_from_json(cls: type, obj: Any, what: str, **convert: Callable[[Any], Any]) -> Any:
    """Build config dataclass ``cls`` from a JSON object.

    ``obj`` must be an object whose keys are all fields of ``cls``;
    ``convert`` maps field names to converters for the values present.
    Anything else, including a value the converters or the dataclass
    reject, raises :class:`ConfigError`.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"the {what} must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**{k: convert[k](v) if k in convert else v for k, v in obj.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def boxes_from_json(values: Any, line: int) -> tuple[NormBox, ...]:
    """Decode a list of [cx, cy, w, h] arrays; null means no boxes."""
    if values is None:
        return ()
    if not isinstance(values, list):
        raise FormatError(line, "boxes must be a list of 4-number arrays")
    out = []
    for v in values:
        if not isinstance(v, list) or len(v) != 4:
            raise FormatError(line, f"each box must be an array of 4 numbers, got {v!r}")
        try:
            box = NormBox.from_list(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(line, f"bad box {v!r}: {exc}") from exc
        if not all(map(math.isfinite, (box.cx, box.cy, box.w, box.h))):
            raise FormatError(line, f"bad box {v!r}: coordinates must be finite")
        out.append(box)
    return tuple(out)


def finding_from_json(obj: Any, line: int) -> Finding:
    """Decode one ``{"text": str, "boxes": [...]?}`` finding."""
    if not isinstance(obj, dict):
        raise FormatError(line, "each finding must be an object")
    text = obj.get("text")
    if not isinstance(text, str) or not text:
        raise FormatError(line, "finding field 'text' must be a non-empty string")
    return Finding(text, boxes_from_json(obj.get("boxes"), line))


def _boxes_to_json(boxes: Iterable[NormBox]) -> list[list[float]]:
    return [b.to_list() for b in boxes]


def record_to_json(rec: AnnotationRecord) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "image_id": rec.image_id,
        "source_id": rec.source_id,
        "task": rec.task.value,
        "category": rec.category,
        "text": rec.text,
        "boxes": _boxes_to_json(rec.boxes),
        "split": rec.split.value,
    }
    if rec.findings:
        obj["findings"] = [
            {"text": f.text, "boxes": _boxes_to_json(f.boxes)} for f in rec.findings
        ]
    if rec.meta:
        obj["meta"] = dict(rec.meta)
    return obj


def _task_from_json(value: Any, line: int) -> Task:
    try:
        return Task(value)
    except ValueError as exc:
        raise FormatError(line, f"unknown task {value!r}") from exc


def record_from_json(obj: Any, line: int = 0) -> AnnotationRecord:
    if not isinstance(obj, dict):
        raise FormatError(line, "each line must hold a JSON object")
    for name in ("image_id", "source_id", "task", "category", "split"):
        if name not in obj:
            raise FormatError(line, f"missing field {name!r}")
    for name in ("image_id", "source_id", "category"):
        if not isinstance(obj[name], str):
            raise FormatError(line, f"field {name!r} must be a string")
    task = _task_from_json(obj["task"], line)
    try:
        split = Split(obj["split"])
    except ValueError as exc:
        raise FormatError(line, f"unknown split {obj['split']!r}") from exc
    text = obj.get("text")
    if text is not None and not isinstance(text, str):
        raise FormatError(line, "text must be a string or null")
    findings = obj.get("findings", [])
    if not isinstance(findings, list):
        raise FormatError(line, "findings must be a list of objects")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError(line, "meta must be an object")
    return AnnotationRecord(
        image_id=obj["image_id"],
        source_id=obj["source_id"],
        task=task,
        category=obj["category"],
        text=text,
        boxes=boxes_from_json(obj.get("boxes"), line),
        split=split,
        findings=tuple(finding_from_json(f, line) for f in findings),
        meta=dict(meta),
    )


def load_records_jsonl(path: str | Path) -> list[AnnotationRecord]:
    """Load annotation records from a JSONL file, strictly."""
    return [record_from_json(obj, line_no) for line_no, obj in iter_jsonl(path)]


def dump_records_jsonl(path: str | Path, records: Iterable[AnnotationRecord]) -> None:
    """Write records as JSONL, atomically, in the bytes the CLI writes."""
    atomic_write(path, jsonl_lines(record_to_json(rec) for rec in records))


def instance_to_json(inst: InstructionInstance) -> dict[str, Any]:
    return {
        "image_id": inst.image_id,
        "source_id": inst.source_id,
        "task": inst.task.value,
        "category": inst.category,
        "instruction": inst.instruction,
        "response": inst.response,
        "structured": record_to_json(inst.structured),
    }


def instance_from_json(obj: Any, line: int = 0) -> InstructionInstance:
    if not isinstance(obj, dict):
        raise FormatError(line, "each line must hold a JSON object")
    for name in ("image_id", "source_id", "task", "category", "instruction", "response", "structured"):
        if name not in obj:
            raise FormatError(line, f"missing field {name!r}")
    return InstructionInstance(
        image_id=str(obj["image_id"]),
        source_id=str(obj["source_id"]),
        task=_task_from_json(obj["task"], line),
        category=str(obj["category"]),
        instruction=str(obj["instruction"]),
        response=str(obj["response"]),
        structured=record_from_json(obj["structured"], line),
    )
