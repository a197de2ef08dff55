"""Core value types: normalized boxes, annotation records, instruction triplets.

Coordinates are stored as double precision fractions of the image size in
center format (cx, cy, w, h). All types here are plain immutable dataclasses
and can be shared freely across threads. The record types carry no ``__dict__``
(slots; records stay weak-referenceable), and the record decoder interns
``source_id`` and ``category``, so a loaded file holds each name once.

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
end of this module: :func:`decode_json`, the one rule for outside JSON, under
:func:`iter_jsonl` (JSONL lines) and :func:`load_json` (documents), the record,
instance, prediction and judge row decoders (built on :func:`get_str` and
:func:`enum_from_json`, which coerce nothing) and :func:`atomic_write` for output.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from collections import Counter, defaultdict
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError, EmptyAfterClamp, FormatError

#: Tolerance for the unit-square containment invariant after clamping.
EPSILON = 1e-9

#: Maximum absolute per-coordinate error introduced by 2-decimal text output.
TEXT_ROUNDTRIP_TOL = 0.005

_INF = float("inf")


class TaskFamily(str, Enum):
    """Task granularity at which data sources are identified."""

    PG = "pg"
    GRG = "grg"
    AGRG = "agrg"


class Task(str, Enum):
    """Training task of a record.

    The three ``AGRG_*`` members are the subtasks of anatomy-guided report
    generation; they share one data source and are sampled uniformly within
    it.
    """

    PG = "pg"
    GRG = "grg"
    AGRG_LOCATE = "agrg_locate"
    AGRG_DESCRIBE = "agrg_describe"
    AGRG_BOTH = "agrg_both"

    @property
    def family(self) -> TaskFamily:
        return _FAMILIES[self]


#: Subtask ordering used wherever the three AGRG subtasks are enumerated.
AGRG_SUBTASKS = (Task.AGRG_LOCATE, Task.AGRG_DESCRIBE, Task.AGRG_BOTH)
#: Each task's family, looked up: an enum call per record or leaf costs more than the rest.
_FAMILIES = {task: TaskFamily.AGRG if task in AGRG_SUBTASKS else TaskFamily(task.value) for task in Task}


class Split(str, Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


@dataclass(frozen=True, slots=True)
class NormBox:
    """Axis-aligned box in normalized center format.

    Every coordinate must be finite, and width and height strictly positive.
    The box is not required to lie inside the unit square on construction;
    :func:`clamp_box` enforces containment where the pipeline needs it.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w} h={self.h}")
        if not (abs(self.cx) < _INF and abs(self.cy) < _INF and self.w < _INF and self.h < _INF):
            raise ValueError(f"box coordinates must be finite, got {self.to_list()}")

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


def intersection(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...] | None:
    """The overlap of two (x1, y1, x2, y2) rectangles, or None when it has no area."""
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2, y2 = min(a[2], b[2]), min(a[3], b[3])
    if x2 > x1 and y2 > y1:
        return x1, y1, x2, y2
    return None


def clamp_box(box: NormBox) -> NormBox:
    """Intersect a box with the unit square.

    Boxes already inside (within EPSILON) are returned unchanged, which makes
    the operation exactly idempotent. A box entirely outside the unit square
    raises :class:`EmptyAfterClamp`.
    """
    x1, y1, x2, y2 = box.corners()
    if x1 >= -EPSILON and y1 >= -EPSILON and x2 <= 1 + EPSILON and y2 <= 1 + EPSILON:
        return box
    inside = intersection((x1, y1, x2, y2), (0.0, 0.0, 1.0, 1.0))
    if inside is None:
        raise EmptyAfterClamp(f"box {box.to_list()} lies outside the unit square")
    return NormBox.from_corners(*inside)


def spread(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal counts; the earliest get the remainder."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def mean(values: Sequence[float]) -> float:
    """The one float mean: ``math.fsum`` is correctly rounded, so the result
    depends neither on the order of ``values`` nor on the CPython version."""
    return math.fsum(values) / len(values)


def group_means(keys: Sequence[Hashable], **columns: Sequence[float | None]) -> dict[Any, dict]:
    """The one grouping rule. Row ``i`` has key ``keys[i]``; each key maps, in first-seen
    order, to ``{"n": its row count}`` plus, per column, the :func:`mean` of its rows'
    values that are not None, or None if every one is."""
    groups = {key: {"n": n} for key, n in Counter(keys).items()}
    for name, column in columns.items():
        present: defaultdict[Hashable, list[float]] = defaultdict(list)
        for key, value in zip(keys, column):
            if value is not None:
                present[key].append(value)
        for key, group in groups.items():
            group[name] = mean(present[key]) if key in present else None
    return groups


def seeded(seed: int) -> random.Random:
    """The one seeded generator: ``random.Random(seed)`` for a non-negative integer ``seed``."""
    return random.Random(expect(Rules.NON_NEGATIVE_INT, seed, "seed"))


def uniform(rng: random.Random, lo: float, hi: float) -> float:
    # Spelled out: Python pins only random()'s stream per int seed, not uniform()'s.
    return lo + (hi - lo) * rng.random()


def pick(rng: random.Random, n: int) -> int:
    """An index in [0, n) from one uniform: ``min(int(rng.random() * n), n - 1)``."""
    return min(int(rng.random() * n), n - 1)


def pick_sorted(rng: random.Random, m: int, k: int) -> list[int]:
    """``k`` distinct indices of ``m``, sorted, by a partial Fisher-Yates shuffle: for ``i``
    in ``0..k-1``, swap index ``i`` with ``i + pick(rng, m - i)``. ``k`` must lie in [0, m]."""
    if not 0 <= k <= m:
        raise ValueError(f"cannot pick {k} of {m} indices")
    order = list(range(m))
    for i in range(k):
        j = i + pick(rng, m - i)
        order[i], order[j] = order[j], order[i]
    return sorted(order[:k])


@dataclass(frozen=True, slots=True)
class Finding:
    """One grounded-report finding: a phrase and the boxes attached to it.

    Text-only findings (no localizable region) carry an empty box tuple.
    """

    text: str
    boxes: tuple[NormBox, ...] = ()


class _Weakrefable:
    """Lends ``__weakref__`` to a slotted dataclass; ``weakref_slot=True`` needs 3.11."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class AnnotationRecord(_Weakrefable):
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


# ---------------------------------------------------------------------------
# JSON files: the one reader, record codec and atomic writer every module uses


def decode_json(text: str, line: int = 0, start: int | None = None) -> Any:
    """Decode outside JSON text by the one rule: a JSONL line, a document (``line``
    0), or from ``start`` the first value of a judge reply, trailing text ignored.

    The text must be valid UTF-8 (a byte read with ``surrogateescape`` is a lone
    surrogate here), valid JSON (no over-long integer, no nesting past the recursion
    limit) and escape no lone surrogate, which no UTF-8 writer can write. Else a
    :class:`FormatError` names ``line`` (a document: its JSON error's line); its
    ``__cause__`` is the error that found the fault.
    """
    if not text.isascii():  # only such a text can hold an undecoded byte
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(line, f"invalid UTF-8 at character {exc.start}") from exc
    try:  # ValueError also covers over-long integer literals; deep nesting recurses
        obj = json.loads(text) if start is None else json.JSONDecoder().raw_decode(text, start)[0]
    except (ValueError, RecursionError) as exc:
        raise FormatError(line or getattr(exc, "lineno", 0), f"invalid JSON: {exc}") from exc
    # Only a \u escape decodes to a lone surrogate; testing "\\" first is a cheap memchr.
    if "\\" in text and "\\u" in text:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(line, f"text holds a lone surrogate: {exc}") from exc
        except RecursionError as exc:  # raw_decode nests deeper than dumps can
            raise FormatError(line, f"invalid JSON: {exc}") from exc
    return obj


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_no, object) pairs from a JSONL file; blank lines are skipped.
    Each line is decoded by :func:`decode_json` and must hold a JSON object."""
    # A byte that is not UTF-8 becomes a lone surrogate, so its line is numbered.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = decode_json(line, line_no)
            if not isinstance(obj, dict):
                raise FormatError(line_no, "each line must hold a JSON object")
            yield line_no, obj


def load_json(path: str | Path, decode: Callable[[Any], Any] | None = None) -> Any:
    """Read a whole-file JSON document (config, policy, endpoint, plan, metrics,
    grid) by :func:`decode_json`. ``decode`` turns it into its value type; a shape
    it cannot handle is a :class:`FormatError`, and its domain errors pass through.
    """
    doc = decode_json(Path(path).read_text(encoding="utf-8", errors="surrogateescape"))
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


def is_int(value: Any) -> bool:
    """An integer that is not a bool (JSON ``true`` decodes as an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """A finite number that is not a bool; the exact comparison also rejects
    integers beyond float range."""
    return (isinstance(value, float) or is_int(value)) and abs(value) <= sys.float_info.max


#: A value rule: a predicate and what it asks for, as ``<name> must be <what>``.
Rule = tuple[Callable[[Any], bool], str]


class Rules:
    """The rules several fields share; a rule only one field has is declared on it."""

    TEXT: Rule = (lambda v: isinstance(v, str), "a string")
    INT: Rule = (is_int, "an integer")
    NUMBER: Rule = (is_number, "a finite number")
    METRIC: Rule = (lambda v: v is None or is_number(v), "a finite number or null")
    UNIT_METRIC: Rule = (lambda v: v is None or (is_number(v) and 0 <= v <= 1), "in [0, 1] or null")
    UNIT: Rule = (lambda v: is_number(v) and 0 <= v <= 1, "a number in [0, 1]")
    NON_NEGATIVE: Rule = (lambda v: is_number(v) and v >= 0, "a finite number >= 0")
    NON_NEGATIVE_INT: Rule = (lambda v: is_int(v) and v >= 0, "a non-negative integer")
    POSITIVE_INT: Rule = (lambda v: is_int(v) and v > 0, "a positive integer")
    VERSION: Rule = (lambda v: is_int(v) and v == 1, "1")


def list_of(rule: Rule) -> Rule:
    """A JSON array whose every item satisfies ``rule``."""
    check, what = rule
    return (lambda v: isinstance(v, list) and all(map(check, v)), f"a list, each {what}")


def positive_range(high: float = _INF) -> Rule:
    """Two finite numbers ``0 < low <= high``, in an array or tuple, at most ``high``."""
    what = "two finite numbers, 0 < low <= high" + (f" <= {high}" if high < _INF else "")
    return (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_number, v))
            and 0 < v[0] <= v[1] <= high, what)


def one_of(*values: Any) -> Rule:
    """Equal to one of ``values``."""
    return (lambda v: v in values, "one of " + ", ".join(map(repr, values)))


def ruled(rule: Rule, default: Any = MISSING) -> Any:
    """A dataclass field whose value must satisfy ``rule`` (see :func:`check_fields`)."""
    return field(default=default, metadata={"rule": rule})


def expect(rule: Rule, value: Any, name: str, error: type = ValueError) -> Any:
    """``value`` if it satisfies ``rule``; else ``error("<name> must be <what>, got <value>")``."""
    check, what = rule
    if not check(value):
        raise error(f"{name} must be {what}, got {value!r:.60}")
    return value


def check_fields(obj: Any, error: type = ValueError, prefix: str = "") -> None:
    """:func:`expect` each ruled field of dataclass ``obj``, in order, named ``prefix``
    + its name; null passes where the default is null, as absence does."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "rule" in f.metadata and not (value is None and f.default is None):
            expect(f.metadata["rule"], value, prefix + f.name, error)


def config_from_json(cls: type, obj: Any, what: str, **convert: Callable[[Any], Any]) -> Any:
    """Build config dataclass ``cls`` from a JSON object whose keys are all fields of ``cls``.

    ``convert[name]``, where given, converts the value of ``name``, and ``cls``
    converts its own values; anything either rejects is a :class:`ConfigError`.
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


def json_object(obj: Any, where: str, keys: Iterable[str] | None = None,
                error: Callable[[str], Exception] = ValueError) -> dict[str, Any]:
    """``obj``, if it is a JSON object with no key outside ``keys`` (any key when None):
    the one key check of the metrics, plan and grid decoders. Else ``error`` says
    ``<where> must be an object`` or ``<where> has unknown keys [...]``."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be an object, got {obj!r:.60}")
    if keys is not None and (unknown := set(obj).difference(keys)):
        raise error(f"{where} has unknown keys {sorted(unknown)}")
    return obj


#: The ``default`` of a required :func:`get_str` or :func:`enum_from_json` field.
REQUIRED: Any = object()


def get_str(obj: Mapping[str, Any], key: str, line: int, default: Any = REQUIRED,
            empty: bool = False) -> Any:
    """The string field ``key`` of a decoded row: the one field check of every decoder.

    An absent optional field gives its ``default``, and so does ``null`` if
    that default is None. Any other non-string, or ``""`` unless ``empty``,
    is a :class:`FormatError` naming the line and the field.
    """
    value = obj.get(key)
    if isinstance(value, str) and (value or empty):
        return value
    if default is not REQUIRED and (key not in obj or (value is None and default is None)):
        return default
    if key not in obj:
        raise FormatError(line, f"missing field {key!r}")
    raise FormatError(line, f"field {key!r} must be a {'string' if empty else 'non-empty string'}")


def enum_from_json(kind: type[Enum], obj: Mapping[str, Any], key: str, line: int,
                   default: Any = REQUIRED) -> Any:
    """The field ``key`` of a decoded row as a member of ``kind``: an absent
    field is handled as :func:`get_str` handles it, and a value that names no
    member is a :class:`FormatError`."""
    if key not in obj:
        return get_str(obj, key, line, default)
    try:
        return kind(obj[key])
    except ValueError as exc:
        raise FormatError(line, f"unknown {key} {obj[key]!r}") from exc


def boxes_from_json(values: Any, line: int) -> tuple[NormBox, ...]:
    """Decode a list of [cx, cy, w, h] arrays of JSON numbers; null means no boxes."""
    if values is None:
        return ()
    if not isinstance(values, list):
        raise FormatError(line, "boxes must be a list of 4-number arrays")
    out = []
    for v in values:
        if not (isinstance(v, list) and len(v) == 4 and all(map(is_number, v))):
            raise FormatError(line, f"each box must be an array of 4 finite numbers, got {v!r}")
        try:
            out.append(NormBox(*map(float, v)))
        except ValueError as exc:
            raise FormatError(line, f"bad box {v!r}: {exc}") from exc
    return tuple(out)


def finding_from_json(obj: Any, line: int) -> Finding:
    """Decode one ``{"text": str, "boxes": [...]?}`` finding."""
    if not isinstance(obj, dict):
        raise FormatError(line, "each finding must be an object")
    return Finding(get_str(obj, "text", line), boxes_from_json(obj.get("boxes"), line))


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


def record_from_json(obj: Any, line: int = 0) -> AnnotationRecord:
    if not isinstance(obj, dict):
        raise FormatError(line, "each line must hold a JSON object")
    task = enum_from_json(Task, obj, "task", line)
    split = enum_from_json(Split, obj, "split", line)
    findings = obj.get("findings", [])
    if not isinstance(findings, list):
        raise FormatError(line, "findings must be a list of objects")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError(line, "meta must be an object")
    return AnnotationRecord(
        image_id=get_str(obj, "image_id", line, empty=True),
        source_id=sys.intern(get_str(obj, "source_id", line, empty=True)),
        task=task,
        category=sys.intern(get_str(obj, "category", line, empty=True)),
        text=get_str(obj, "text", line, None, empty=True),
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
    obj = vars(inst).copy()  # the fields in order; copying beats unpacking them
    obj["task"] = inst.task.value
    obj["structured"] = record_to_json(inst.structured)
    return obj


def instance_from_json(obj: Any, line: int = 0) -> InstructionInstance:
    if not isinstance(obj, dict):
        raise FormatError(line, "each line must hold a JSON object")
    task = enum_from_json(Task, obj, "task", line)
    if "structured" not in obj:
        raise FormatError(line, "missing field 'structured'")
    texts = ("image_id", "source_id", "category", "instruction", "response")
    inst = InstructionInstance(
        task=task,
        structured=record_from_json(obj["structured"], line),
        **{name: get_str(obj, name, line, empty=True) for name in texts},
    )
    for name in ("image_id", "source_id", "task", "category"):  # each a field of the record too
        if obj[name] != obj["structured"][name]:
            raise FormatError(line, f"field {name!r} is {obj[name]!r:.60}, but its record's is "
                                    f"{obj['structured'][name]!r:.60}")
    return inst


def prediction_from_json(obj: Mapping[str, Any], line: int) -> tuple[str, str]:
    """Decode one ``eval --pred`` row ``{"image_id": str, "output": str}``."""
    return get_str(obj, "image_id", line), get_str(obj, "output", line, empty=True)


def judge_gold_from_json(obj: Mapping[str, Any], line: int) -> tuple[str, str]:
    """Decode one ``judge --gold`` row ``{"image_id": str, "text": str}``."""
    return get_str(obj, "image_id", line), get_str(obj, "text", line)


def judge_pred_from_json(obj: Mapping[str, Any], line: int) -> tuple[str, str, str]:
    """Decode one ``judge --pred`` row ``{"image_id": str, "anatomy": str, "text": str}``."""
    return get_str(obj, "image_id", line), get_str(obj, "anatomy", line), get_str(obj, "text", line)
