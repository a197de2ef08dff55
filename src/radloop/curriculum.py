"""Error-aware two-level curriculum sampling.

Sampling is hierarchical. A draw picks a data source from the inter-level
distribution, then (for sources with several subtasks) a subtask uniformly,
then a category from the source's intra-level distribution, then an instance
uniformly within the category, with replacement throughout. The first three
picks are one pick from a flat table of leaves (:class:`DrawTable`), and
every draw spends ``random.Random.random()`` uniforms only.

Distributions come from one of three strategies:

* ``natural``    probability proportional to leaf size,
* ``uniform``    equal probability,
* ``curriculum`` probability proportional to the error ``e = 1 - s`` where
  ``s`` blends grounding and text quality: ``s = alpha * iou +
  (1 - alpha) * text_score`` (a lone metric is used as-is).

Grounded-report sources keep a uniform intra-level distribution under every
strategy: their per-image reports have no category structure to reweight.

Training alternates a warmup stage (uniform everywhere) with reweighting
stages of fixed length; the distributions computed from the evaluation after
stage ``n`` are the ones stage ``n + 1`` samples from.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

from .core import (
    AnnotationRecord,
    DataSourceId,
    Rules,
    Task,
    TaskFamily,
    check_fields,
    config_from_json,
    enum_from_json,
    expect,
    group_means,
    json_object,
    list_of,
    one_of,
    pick,
    pick_sorted,
    ruled,
    seeded,
    spread,
)
from .errors import ConfigError, EmptyLeaf, FormatError, MissingMetrics, NoMetrics

DEFAULT_ALPHA = 0.8


class Strategy(str, Enum):
    NATURAL = "natural"
    UNIFORM = "uniform"
    CURRICULUM = "curriculum"


class Level(str, Enum):
    INTER = "inter"
    INTRA = "intra"


@dataclass(frozen=True)
class MetricEntry:
    """Evaluation metrics for one unit (a source or a category)."""

    iou: float | None = None
    text_score: float | None = None


@dataclass
class SourceMetrics:
    """Evaluation results for one data source.

    ``per_category`` carries category metrics for single-subtask sources;
    sources with several subtasks report ``per_subtask`` instead, never both,
    because the curriculum maintains one category distribution per subtask.
    """

    source: DataSourceId
    iou: float | None = None
    text_score: float | None = None
    per_category: dict[str, MetricEntry] = field(default_factory=dict)
    per_subtask: dict[Task, dict[str, MetricEntry]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.per_category and self.per_subtask:
            raise ValueError(f"source {self.source.key!r} gives both per_category and per_subtask")
        if other := sorted(t.value for t in self.per_subtask if t.family is not self.source.task):
            raise ValueError(f"source {self.source.key!r} per_subtask has tasks of another family {other}")

    def entries_for(self, subtask: Task) -> dict[str, MetricEntry]:
        return self.per_subtask.get(subtask, self.per_category)  # one of the two maps is empty

    def to_json(self) -> dict[str, Any]:
        obj = {**vars(self.source), **_present(self)}
        del obj["source"]
        if self.per_category:
            obj["per_category"] = _entries_to_json(self.per_category)
        if self.per_subtask:
            obj["per_subtask"] = {t: _entries_to_json(c) for t, c in self.per_subtask.items()}
        return obj

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "SourceMetrics":
        """Decode one source's metrics: objects of the keys :meth:`to_json` writes,
        with ``per_category`` or ``per_subtask``, not both; every metric is null or in [0, 1]."""
        source = _source_id(obj)
        where = f"source {source.key!r}"
        if "per_category" in obj and "per_subtask" in obj:
            raise ValueError(f"{where} gives both per_category and per_subtask")
        entry = _entry_from_json(obj, where, [*_METRICS, "name", "task", "per_category", "per_subtask"])
        per_subtask = json_object(obj.get("per_subtask", {}), f"{where} per_subtask")
        if unknown := set(per_subtask) - {t.value for t in Task}:
            raise ValueError(f"{where} per_subtask has unknown tasks {sorted(unknown)}")
        return cls(
            source=source,
            **vars(entry),
            per_category=_entries_from_json(json_object(obj.get("per_category", {}), f"{where} per_category"), where),
            per_subtask={Task(t): _entries_from_json(c, f"{where} subtask {t!r}") for t, c in per_subtask.items()},
        )


def metrics_from_rows(
    rows: Sequence[tuple[str, Task, str, float | None, float | None]]
) -> dict[str, SourceMetrics]:
    """Source metrics from rows ``(source_id, task, category, iou, text_score)``: by
    :func:`core.group_means`, a leaf's rows give its category entry, then a source's
    entries (across subtasks for AGRG) give its ``iou`` and ``text_score``. AGRG sources
    fill ``per_subtask``, others ``per_category``; all keep first-seen order."""
    leaves = group_means([row[:3] for row in rows], iou=[row[3] for row in rows],
                         text_score=[row[4] for row in rows])
    sources = [(name, task.family) for name, task, _ in leaves]
    totals = group_means(sources, iou=[e["iou"] for e in leaves.values()],
                         text_score=[e["text_score"] for e in leaves.values()])
    metrics = {s: SourceMetrics(DataSourceId(*s), t["iou"], t["text_score"]) for s, t in totals.items()}
    for (name, family), (_, task, category), e in zip(sources, leaves, leaves.values()):
        m = metrics[name, family]
        entries = m.per_subtask.setdefault(task, {}) if family is TaskFamily.AGRG else m.per_category
        entries[category] = MetricEntry(e["iou"], e["text_score"])
    return {m.source.key: m for m in metrics.values()}


def metrics_from_json(doc: Any) -> dict[str, SourceMetrics]:
    """Decode a metrics file, a JSON array of source metrics, keyed by source;
    a source listed twice is a :class:`FormatError`."""
    if not isinstance(doc, list):
        raise FormatError(0, "a metrics file holds a JSON array of source metrics")
    metrics = {}
    for index, obj in enumerate(doc):
        m = SourceMetrics.from_json(json_object(obj, f"metrics entry {index}"))
        if m.source.key in metrics:
            raise FormatError(0, f"metrics entry {index} repeats source {m.source.key!r}")
        metrics[m.source.key] = m
    return metrics


def _fields(obj: Any, *skip: str) -> dict[str, Any]:
    """A dataclass's fields in order, without ``skip``: a shallow ``asdict``."""
    return {k: v for k, v in vars(obj).items() if k not in skip}


def _present(obj: Any) -> dict[str, Any]:
    """A dataclass's fields as a JSON object: a null or empty-object field is left out."""
    return {k: v for k, v in vars(obj).items() if v is not None and v != {}}


def _entries_to_json(entries: Mapping[str, MetricEntry]) -> dict[str, dict[str, Any]]:
    return {c: _present(e) for c, e in entries.items()}


def _check_level(names: Sequence[str], probs: Sequence[float], level: str) -> None:
    """A plan level names each entry once and holds no probabilities, or
    non-negative ones summing to 1 within 1e-6."""
    if len(set(names)) < len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"{level}: {twice!r} is listed twice")
    for name, p in zip(names, probs):
        if p < 0:
            raise ValueError(f"{level}: {name!r} has negative probability {p}")
    try:
        total = math.fsum(probs)
    except OverflowError:  # finite probabilities whose exact sum passes the largest double
        total = math.inf
    if probs and abs(total - 1.0) > 1e-6:
        raise ValueError(f"{level}: probabilities sum to {total}, not 1")


def _source_id(obj: Mapping[str, Any]) -> DataSourceId:
    name = expect(Rules.TEXT, obj["name"], "name")
    return DataSourceId(name, enum_from_json(TaskFamily, obj, "task", 0))


_METRICS = [f.name for f in fields(MetricEntry)]


def _entry_from_json(obj: Any, where: str, keys: Iterable[str]) -> MetricEntry:
    """The metrics of object ``obj``, which holds no key outside ``keys``."""
    json_object(obj, where, keys)
    return MetricEntry(**{n: expect(Rules.UNIT_METRIC, obj.get(n), f"{where}: {n}") for n in _METRICS})


def _entries_from_json(obj: Any, where: str) -> dict[str, MetricEntry]:
    return {c: _entry_from_json(e, f"{where} category {c!r}", _METRICS) for c, e in json_object(obj, where).items()}


def aggregate_score(entry: MetricEntry | SourceMetrics, alpha: float = DEFAULT_ALPHA) -> float:
    """Blend grounding and text quality into one score.

    With both metrics present the score is ``alpha * iou + (1 - alpha) *
    text_score``; with exactly one it is that metric unchanged. Raises
    :class:`NoMetrics` when neither is available.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if entry.iou is not None and entry.text_score is not None:
        return alpha * entry.iou + (1 - alpha) * entry.text_score
    if entry.iou is not None:
        return entry.iou
    if entry.text_score is not None:
        return entry.text_score
    raise NoMetrics("neither iou nor text_score is available")


def normalize_errors(errors: Sequence[float]) -> list[float]:
    """Turn non-negative errors into sampling probabilities.

    Probabilities are the errors over their ``math.fsum``. All-equal inputs
    (which include the all-zero case) return the exact uniform distribution.
    Errors whose exact sum passes ``sys.float_info.max`` raise ``ValueError``.
    """
    errs = [float(e) for e in errors]
    if not errs:
        raise ValueError("normalize_errors needs at least one error")
    for e in errs:
        if not math.isfinite(e) or e < 0:
            raise ValueError(f"errors must be finite and non-negative, got {e}")
    if max(errs) == min(errs):
        return [1.0 / len(errs)] * len(errs)
    try:
        total = math.fsum(errs)
    except OverflowError as exc:
        raise ValueError(f"errors must sum to at most {sys.float_info.max}") from exc
    return [e / total for e in errs]


def build_distribution(
    level: Level | str,
    strategy: Strategy | str,
    *,
    sizes: Sequence[int] | None = None,
    scores: Sequence[float | None] | None = None,
    grg: bool = False,
) -> list[float]:
    """Build one probability vector for a level under a strategy, by the README's
    "Curriculum rule": ``sizes`` feed ``natural``, and ``scores`` (aggregate scores,
    one per unit) feed ``curriculum``. Intra-level distributions of grounded-report
    sources (``grg=True``) are uniform under every strategy.
    """
    level = Level(level)
    strategy = Strategy(strategy)
    n = len(sizes) if sizes is not None else (len(scores) if scores is not None else 0)
    if n == 0:
        raise ValueError("build_distribution needs at least one unit")

    if strategy is Strategy.UNIFORM or (level is Level.INTRA and grg):
        return [1.0 / n] * n
    if strategy is Strategy.NATURAL:
        if sizes is None:
            raise ValueError("the natural strategy needs sizes")
        total = sum(sizes)
        if total <= 0:
            raise ValueError("the natural strategy needs a non-empty pool")
        return [s / total for s in sizes]
    if scores is None:
        raise ValueError("the curriculum strategy needs scores")
    for s in scores:
        if s is None:
            raise MissingMetrics("a unit is missing its aggregate score")
    return normalize_errors([1.0 - float(s) for s in scores])


# ---------------------------------------------------------------------------
# Sampling pool


class Draw(NamedTuple):
    """One sampled instance: the record's image id and the leaf it came from."""

    image_id: str
    source_id: str
    task: Task
    category: str


@dataclass
class PoolSource:
    """Image ids of one data source, indexed by subtask then category."""

    source: DataSourceId
    subtasks: dict[Task, dict[str, list[str]]]

    @property
    def size(self) -> int:
        return sum(
            len(ids) for cats in self.subtasks.values() for ids in cats.values()
        )


class SamplingPool:
    """Image ids grouped source -> subtask -> category, insertion ordered.

    Sampling reads only a record's source, task, category and image id, so
    the pool keeps one id per record and no record: records can be decoded
    and dropped one at a time.
    """

    def __init__(self) -> None:
        self.sources: dict[str, PoolSource] = {}

    @classmethod
    def from_records(cls, records: Iterable[AnnotationRecord]) -> "SamplingPool":
        pool = cls()
        for rec in records:
            source = DataSourceId(rec.source_id, rec.task.family)
            entry = pool.sources.get(source.key)
            if entry is None:
                entry = PoolSource(source=source, subtasks={})
                pool.sources[source.key] = entry
            cats = entry.subtasks.setdefault(rec.task, {})
            cats.setdefault(rec.category, []).append(rec.image_id)
        return pool


# ---------------------------------------------------------------------------
# Curriculum state


@dataclass
class SubtaskState:
    task: Task
    categories: list[str] = ruled(list_of(Rules.TEXT))
    sizes: list[int] = ruled(list_of(Rules.INT))
    probs: list[float] = ruled(list_of(Rules.NUMBER))


@dataclass
class SourceState:
    source: DataSourceId
    size: int = ruled(Rules.INT)
    prob: float = ruled(Rules.NUMBER)
    score: float | None = ruled(Rules.METRIC)
    error: float | None = ruled(Rules.METRIC)
    subtasks: dict[Task, SubtaskState]


#: The keys of a plan's source and subtask objects: their fields, a source's id as ``name`` and ``task``.
_SOURCE_KEYS = ["name", "task", *(f.name for f in fields(SourceState) if f.name != "source")]
_SUBTASK_KEYS = [f.name for f in fields(SubtaskState) if f.name != "task"]


@dataclass
class CurriculumState:
    """Stage index plus the full two-level sampling distribution."""

    stage_index: int
    sources: dict[str, SourceState]

    def inter_probs(self) -> dict[str, float]:
        return {key: s.prob for key, s in self.sources.items()}

    def to_json(self) -> dict[str, Any]:
        """Each source flattens its id into ``name`` and ``task``; subtasks are
        keyed by their task."""
        sources = {}
        for key, s in self.sources.items():
            subtasks = {t: _fields(st, "task") for t, st in s.subtasks.items()}
            sources[key] = {**vars(s.source), **_fields(s, "source"), "subtasks": subtasks}
        return {"stage_index": self.stage_index, "sources": sources}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "CurriculumState":
        """Decode a plan's ``state``, whose objects hold only the keys :meth:`to_json` writes."""
        json_object(obj, "the plan state", [f.name for f in fields(cls)])
        sources: dict[str, SourceState] = {}
        for key, s in json_object(obj["sources"], "the plan sources").items():
            json_object(s, f"source {key!r}", _SOURCE_KEYS)
            subtasks = {}
            for task_value, st in json_object(s["subtasks"], f"source {key!r} subtasks").items():
                task = Task(task_value)
                subtask = f"subtask {task_value!r} of {key!r}"
                json_object(st, subtask, _SUBTASK_KEYS)
                sub = subtasks[task] = SubtaskState(task, st["categories"], st["sizes"], st["probs"])
                check_fields(sub)
                if not len(sub.categories) == len(sub.sizes) == len(sub.probs):
                    raise ValueError(f"{subtask} needs one size and one probability per category")
                _check_level(sub.categories, sub.probs, subtask)
            source = _source_id(s)
            if source.key != key:
                raise ValueError(f"source {key!r} names {source.key!r}")
            sources[key] = SourceState(
                source, s["size"], s["prob"], s.get("score"), s.get("error"), subtasks
            )
            check_fields(sources[key])
        _check_level(list(sources), [s.prob for s in sources.values()], "the sources")
        return cls(stage_index=expect(Rules.INT, obj["stage_index"], "stage_index"), sources=sources)


def plan_from_json(doc: Any) -> CurriculumState:
    """Decode a plan file, ``{"schema_version"?: 1, "state": {...}}`` as ``plan`` writes it."""
    json_object(doc, "the plan", ["schema_version", "state"])
    expect(Rules.VERSION, doc.get("schema_version", 1), "the plan schema_version")
    return CurriculumState.from_json(doc["state"])


@dataclass(frozen=True)
class CurriculumConfig:
    alpha: float = ruled(Rules.UNIT, DEFAULT_ALPHA)
    warmup_steps: int = ruled(Rules.NON_NEGATIVE_INT, 3000)
    reweight_interval: int = ruled(Rules.POSITIVE_INT, 3000)
    total_steps: int = ruled(Rules.NON_NEGATIVE_INT, 3000)
    inter_strategy: Strategy = Strategy.CURRICULUM
    intra_strategy: Strategy = Strategy.CURRICULUM

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        for name in ("inter_strategy", "intra_strategy"):  # a document, flag or caller may give the value
            value = expect(one_of(*(s.value for s in Strategy)), getattr(self, name), name, ConfigError)
            object.__setattr__(self, name, Strategy(value))
        if self.total_steps < self.warmup_steps:
            raise ConfigError(f"total_steps must be >= warmup_steps, got {self.total_steps}")

    @classmethod
    def from_json(cls, obj: Any) -> "CurriculumConfig":
        return config_from_json(cls, obj, "curriculum")


def initial_state(pool: SamplingPool) -> CurriculumState:
    """Stage 0: uniform distributions at both levels."""
    sources: dict[str, SourceState] = {}
    n = len(pool.sources)
    if n == 0:
        raise ConfigError("the sampling pool is empty")
    for key, ps in pool.sources.items():
        subtasks = {}
        for task, cats in ps.subtasks.items():
            sizes = [len(ids) for ids in cats.values()]
            probs = build_distribution(Level.INTRA, Strategy.UNIFORM, sizes=sizes)
            subtasks[task] = SubtaskState(task, list(cats), sizes, probs)
        sources[key] = SourceState(
            source=ps.source,
            size=ps.size,
            prob=1.0 / n,
            score=None,
            error=None,
            subtasks=subtasks,
        )
    return CurriculumState(stage_index=0, sources=sources)


def _score(m: SourceMetrics | MetricEntry | None, alpha: float) -> float | None:
    """A source's or a category's aggregate score; None without metrics or with neither."""
    if m is None or (m.iou is None and m.text_score is None):
        return None
    return aggregate_score(m, alpha)


def _error(score: float | None) -> float | None:
    return None if score is None else 1.0 - score


def _category_scores(
    m: SourceMetrics | None, key: str, st: SubtaskState, alpha: float
) -> list[float]:
    if m is None:
        raise MissingMetrics(f"no metrics for source {key!r}")
    entries = m.entries_for(st.task)
    scores = [_score(entries.get(cat), alpha) for cat in st.categories]
    if None in scores:
        cat = st.categories[scores.index(None)]
        raise MissingMetrics(f"source {key!r} subtask {st.task.value!r} lacks metrics for category {cat!r}")
    return scores


def advance_stage(
    cfg: CurriculumConfig,
    state: CurriculumState,
    metrics: Mapping[str, SourceMetrics],
) -> CurriculumState:
    """Compute the next stage's distributions from fresh evaluation metrics, by
    the README's "Curriculum rule".

    Under the curriculum strategy every source (inter level) and every
    category of every reweighted subtask (intra level) must have metrics;
    the first gap, inter level first, raises :class:`MissingMetrics` naming it.
    """
    keys = list(state.sources)
    scores = [_score(metrics.get(key), cfg.alpha) for key in keys]
    if cfg.inter_strategy is Strategy.CURRICULUM:
        for key, score in zip(keys, scores):
            if score is None and key not in metrics:
                raise MissingMetrics(f"no metrics for source {key!r}")
            if score is None:
                raise MissingMetrics(f"source {key!r} has no source-level metrics")
    inter = build_distribution(
        Level.INTER,
        cfg.inter_strategy,
        sizes=[state.sources[k].size for k in keys],
        scores=scores,
    )

    new_sources: dict[str, SourceState] = {}
    for key, score, prob in zip(keys, scores, inter):
        old = state.sources[key]
        grg = old.source.task is TaskFamily.GRG
        reweight = cfg.intra_strategy is Strategy.CURRICULUM and not grg
        new_subtasks: dict[Task, SubtaskState] = {}
        for task, st in old.subtasks.items():
            probs = build_distribution(
                Level.INTRA,
                cfg.intra_strategy,
                sizes=st.sizes,
                scores=_category_scores(metrics.get(key), key, st, cfg.alpha) if reweight else None,
                grg=grg,
            )
            new_subtasks[task] = SubtaskState(task, st.categories, st.sizes, probs)
        new_sources[key] = SourceState(
            old.source, old.size, prob, score, _error(score), new_subtasks
        )
    return CurriculumState(stage_index=state.stage_index + 1, sources=new_sources)


# ---------------------------------------------------------------------------
# Drawing


def _cdf(weights: Iterable[float]) -> list[float]:
    """Running sums, added left to right, each raised to the largest before it.

    The running maximum keeps the list sorted even for a hand-written plan
    with a negative or NaN probability, so bisecting it picks the first index
    whose entry exceeds the draw, exactly as a left-to-right scan does.
    """
    return list(accumulate(accumulate(weights), max))


class DrawTable:
    """One stage's sampling distribution compiled against a pool.

    Built once per stage: one flat list of leaves ``(ids, source_id, task,
    category)`` in plan order, and a single CDF over their weights. A leaf
    weighs ``prob / n_subtasks * p_category``: its source's probability split
    evenly over the source's subtasks, times the category's probability. A
    leaf of the state with no records in the pool raises :class:`EmptyLeaf`
    here, before anything is drawn.
    """

    def __init__(self, state: CurriculumState, pool: SamplingPool):
        self.leaves: list[tuple[list[str], str, Task, str]] = []
        weights: list[float] = []
        for src_state in state.sources.values():
            key = src_state.source.key
            pool_source = pool.sources.get(key)
            if pool_source is None:
                raise EmptyLeaf(f"source {key!r} has no records")
            if not src_state.subtasks:
                raise EmptyLeaf(f"source {key!r} has no subtasks")
            share = src_state.prob / len(src_state.subtasks)
            for st in src_state.subtasks.values():
                if not st.categories:
                    raise EmptyLeaf(f"subtask {key!r}/{st.task.value} has no categories")
                cats = pool_source.subtasks.get(st.task, {})
                for cat, p in zip(st.categories, st.probs):
                    ids = cats.get(cat)
                    if not ids:
                        raise EmptyLeaf(f"leaf {key!r}/{st.task.value}/{cat!r} has no records")
                    self.leaves.append((ids, src_state.source.name, st.task, cat))
                    weights.append(share * p)
        if not self.leaves:
            raise EmptyLeaf("the plan has no sources")
        self.cdf = _cdf(weights)


def draw_sample(table: DrawTable, rng: random.Random) -> Draw:
    """Draw one instance with two ``rng.random()`` uniforms, with replacement.

    The first picks the leaf whose CDF entry is the first to exceed it; past
    the last entry (the weights sum just below 1) it takes the last leaf.
    The second picks the instance at index ``core.pick(rng, n)`` of the leaf's ``n`` ids.
    """
    cdf = table.cdf
    ids, source_id, task, category = table.leaves[bisect_right(cdf, rng.random(), 0, len(cdf) - 1)]
    return Draw(ids[pick(rng, len(ids))], source_id, task, category)


def draw_samples(
    state: CurriculumState, pool: SamplingPool, n: int, rng: random.Random
) -> Iterator[Draw]:
    """Compile the stage's table now, then yield ``n`` draws as they are taken.

    An :class:`EmptyLeaf` is raised by this call, before the first draw.
    """
    table = DrawTable(state, pool)
    return (draw_sample(table, rng) for _ in range(n))


# ---------------------------------------------------------------------------
# Learner boundary


class Learner(Protocol):
    """Evaluation provider driven by the curriculum loop.

    The learner owns its evaluation set: one that scores a model draws it
    itself, for example with :func:`select_eval_subset` per source.
    """

    def observe(self, counts: Mapping[tuple[str, Task, str], int]) -> None:
        """Receive the tally of samples drawn in the finished stage."""

    def evaluate(self) -> dict[str, SourceMetrics]:
        """Return fresh metrics per source key for the finished stage."""


def select_eval_subset(pool_source: PoolSource, n: int, rng: random.Random) -> list[Draw]:
    """Stratified evaluation subset: as even as integer division allows.

    Allocation goes category by category in pool order; leftover slots go to
    the earliest categories. Categories smaller than their allocation
    contribute everything they have. A category's ``k`` ids of ``m`` are those at
    the indices ``core.pick_sorted(rng, m, k)``, a partial Fisher-Yates shuffle in
    sorted order. A negative ``n`` is a ValueError.
    """
    cats = [(task, cat, ids) for task, cat_map in pool_source.subtasks.items()
            for cat, ids in cat_map.items()]
    if not cats:
        return []
    name = pool_source.source.name
    chosen: list[Draw] = []
    for (task, cat, ids), share in zip(cats, spread(n, len(cats))):
        picked = pick_sorted(rng, len(ids), min(share, len(ids)))
        chosen.extend(Draw(ids[j], name, task, cat) for j in picked)
    return chosen


@dataclass
class StageLog:
    """Machine-readable record of one curriculum stage."""

    stage_index: int
    steps: int
    inter_probs: dict[str, float]
    intra_probs: dict[str, dict[str, dict[str, float]]]
    samples: dict[str, dict[str, dict[str, int]]]
    metrics: dict[str, Any]
    errors: dict[str, float | None]

    def to_json(self) -> dict[str, Any]:
        return _fields(self)


def stage_lengths(cfg: CurriculumConfig) -> list[int]:
    """Step counts per stage: warmup first, then fixed reweighting intervals."""
    lengths = []
    done = 0
    if cfg.warmup_steps > 0:
        lengths.append(min(cfg.warmup_steps, cfg.total_steps))
        done = lengths[0]
    while done < cfg.total_steps:
        step = min(cfg.reweight_interval, cfg.total_steps - done)
        lengths.append(step)
        done += step
    return lengths


def _intra_probs_of(state: CurriculumState) -> dict[str, dict[str, dict[str, float]]]:
    return {
        key: {
            st.task.value: dict(zip(st.categories, st.probs))
            for st in s.subtasks.values()
        }
        for key, s in state.sources.items()
    }


def run_curriculum(
    cfg: CurriculumConfig,
    pool: SamplingPool,
    learner: Learner,
    seed: int = 0,
) -> tuple[list[StageLog], CurriculumState]:
    """Run the full closed loop and log every stage.

    Stage 0 samples uniformly (warmup); each later stage samples from the
    distributions computed out of the previous stage's evaluation. The
    learner sees the per-leaf sample tally after every stage and is then
    asked once for that stage's metrics. Every draw comes from ``seeded(seed)``.
    """
    rng = seeded(seed)
    state = initial_state(pool)
    logs: list[StageLog] = []

    for steps in stage_lengths(cfg):
        table = DrawTable(state, pool)
        # Keyed (source_id, task, category) in the order each leaf is first drawn.
        tally = Counter(draw_sample(table, rng)[1:] for _ in range(steps))
        counts = {
            (DataSourceId(name, task.family).key, task, cat): c
            for (name, task, cat), c in tally.items()
        }
        learner.observe(counts)
        metrics = learner.evaluate()

        samples_nested: dict[str, dict[str, dict[str, int]]] = {}
        for (key, task, cat), c in counts.items():
            samples_nested.setdefault(key, {}).setdefault(task.value, {})[cat] = c
        logs.append(
            StageLog(
                stage_index=state.stage_index,
                steps=steps,
                inter_probs=state.inter_probs(),
                intra_probs=_intra_probs_of(state),
                samples=samples_nested,
                metrics={k: m.to_json() for k, m in metrics.items()},
                errors={k: _error(_score(m, cfg.alpha)) for k, m in metrics.items()},
            )
        )
        state = advance_stage(cfg, state, metrics)
    return logs, state


# ---------------------------------------------------------------------------
# Simulated learner


@dataclass(frozen=True)
class DecayParams:
    """Exponential error decay: error(n) = e0 * exp(-rate * n) + floor."""

    e0: float = ruled(Rules.NON_NEGATIVE)
    rate: float = ruled(Rules.NON_NEGATIVE)
    floor: float = ruled(Rules.NON_NEGATIVE, 0.0)

    def __post_init__(self) -> None:
        check_fields(self)


def decayed_error(params: DecayParams, n_seen: int) -> float:
    """Deterministic per-category error after seeing ``n_seen`` samples."""
    return params.e0 * math.exp(-params.rate * n_seen) + params.floor


class SimulatedLearner:
    """Closed-loop stand-in learner with deterministic error decay.

    Per-category errors shrink exponentially in the number of samples the
    category received; reported category IoU is ``1 - error``. Leaves are keyed
    ``(source key, task, category)``, as :func:`run_curriculum` tallies them;
    :meth:`evaluate` reports one row per leaf to :func:`metrics_from_rows`.
    """

    def __init__(self, params: Mapping[tuple[str, Task, str], DecayParams]):
        self.params = dict(params)
        self.counts: dict[tuple[str, Task, str], int] = {k: 0 for k in self.params}

    def observe(self, counts: Mapping[tuple[str, Task, str], int]) -> None:
        """Add a stage's tally. A leaf without parameters is a ValueError, and
        then no leaf of the tally is counted."""
        for key in counts:
            if key not in self.counts:
                raise ValueError(f"no decay parameters for leaf {key!r}; leaves are keyed "
                                 "(source key, task, category)")
        for key, c in counts.items():
            self.counts[key] += c

    def category_error(self, key: tuple[str, Task, str]) -> float:
        return decayed_error(self.params[key], self.counts[key])

    def evaluate(self) -> dict[str, SourceMetrics]:
        # A leaf names its source by key: the source's name, ":" and its family.
        return metrics_from_rows([
            (key.removesuffix(":" + task.family.value), task, cat,
             1.0 - min(max(self.category_error((key, task, cat)), 0.0), 1.0), None)
            for key, task, cat in self.params
        ])
