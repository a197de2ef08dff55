"""Error-aware two-level curriculum sampling.

Sampling is hierarchical. A draw picks a data source from the inter-level
distribution, then (for sources with several subtasks) a subtask uniformly,
then a category from the source's intra-level distribution, then an instance
uniformly within the category, with replacement throughout.

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
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .core import AnnotationRecord, DataSourceId, Task, TaskFamily, config_from_json
from .errors import ConfigError, EmptyLeaf, MissingMetrics, NoMetrics

DEFAULT_ALPHA = 0.8

#: Default per-source evaluation subset sizes by family, largest pool first.
DEFAULT_EVAL_SUBSET_SIZES = {
    TaskFamily.AGRG: 200,
    TaskFamily.PG: 150,
    TaskFamily.GRG: 100,
}


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
    sources with several subtasks report ``per_subtask`` instead because the
    curriculum maintains one category distribution per subtask.
    """

    source: DataSourceId
    iou: float | None = None
    text_score: float | None = None
    per_category: dict[str, MetricEntry] = field(default_factory=dict)
    per_subtask: dict[Task, dict[str, MetricEntry]] = field(default_factory=dict)

    def entries_for(self, subtask: Task) -> dict[str, MetricEntry]:
        if self.per_subtask:
            return self.per_subtask.get(subtask, {})
        return self.per_category

    def to_json(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"name": self.source.name, "task": self.source.task.value}
        if self.iou is not None:
            obj["iou"] = self.iou
        if self.text_score is not None:
            obj["text_score"] = self.text_score
        if self.per_category:
            obj["per_category"] = {
                c: _entry_to_json(e) for c, e in self.per_category.items()
            }
        if self.per_subtask:
            obj["per_subtask"] = {
                t.value: {c: _entry_to_json(e) for c, e in cats.items()}
                for t, cats in self.per_subtask.items()
            }
        return obj

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "SourceMetrics":
        source = DataSourceId(str(obj["name"]), TaskFamily(obj["task"]))
        return cls(
            source=source,
            iou=obj.get("iou"),
            text_score=obj.get("text_score"),
            per_category={
                str(c): _entry_from_json(e)
                for c, e in obj.get("per_category", {}).items()
            },
            per_subtask={
                Task(t): {str(c): _entry_from_json(e) for c, e in cats.items()}
                for t, cats in obj.get("per_subtask", {}).items()
            },
        )


def _entry_to_json(entry: MetricEntry) -> dict[str, float]:
    obj = {}
    if entry.iou is not None:
        obj["iou"] = entry.iou
    if entry.text_score is not None:
        obj["text_score"] = entry.text_score
    return obj


def _entry_from_json(obj: Mapping[str, Any]) -> MetricEntry:
    return MetricEntry(iou=obj.get("iou"), text_score=obj.get("text_score"))


def aggregate_score(entry: MetricEntry, alpha: float = DEFAULT_ALPHA) -> float:
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

    Probabilities are proportional to the errors. All-equal inputs (which
    include the all-zero case) return the exact uniform distribution.
    """
    errs = [float(e) for e in errors]
    if not errs:
        raise ValueError("normalize_errors needs at least one error")
    for e in errs:
        if not math.isfinite(e) or e < 0:
            raise ValueError(f"errors must be finite and non-negative, got {e}")
    if max(errs) == min(errs):
        return [1.0 / len(errs)] * len(errs)
    total = sum(errs)
    return [e / total for e in errs]


def build_distribution(
    level: Level | str,
    strategy: Strategy | str,
    *,
    sizes: Sequence[int] | None = None,
    scores: Sequence[float | None] | None = None,
    grg: bool = False,
    min_prob: float = 0.0,
) -> list[float]:
    """Build one probability vector for a level under a strategy.

    ``sizes`` feeds the natural strategy, ``scores`` (aggregate scores, one
    per unit) the curriculum strategy. Intra-level distributions of
    grounded-report sources (``grg=True``) are uniform under every strategy.
    ``min_prob`` floors each probability and renormalizes; the default 0
    leaves distributions untouched.
    """
    level = Level(level)
    strategy = Strategy(strategy)
    n = len(sizes) if sizes is not None else (len(scores) if scores is not None else 0)
    if n == 0:
        raise ValueError("build_distribution needs at least one unit")

    if level is Level.INTRA and grg:
        probs = [1.0 / n] * n
    elif strategy is Strategy.UNIFORM:
        probs = [1.0 / n] * n
    elif strategy is Strategy.NATURAL:
        if sizes is None:
            raise ValueError("the natural strategy needs sizes")
        total = sum(sizes)
        if total <= 0:
            raise ValueError("the natural strategy needs a non-empty pool")
        probs = [s / total for s in sizes]
    else:
        if scores is None:
            raise ValueError("the curriculum strategy needs scores")
        for s in scores:
            if s is None:
                raise MissingMetrics("a unit is missing its aggregate score")
        probs = normalize_errors([1.0 - float(s) for s in scores])

    if min_prob > 0.0:
        floored = [max(p, min_prob) for p in probs]
        total = sum(floored)
        probs = [p / total for p in floored]
    return probs


# ---------------------------------------------------------------------------
# Sampling pool


@dataclass
class PoolSource:
    """Records of one data source, indexed by subtask then category."""

    source: DataSourceId
    subtasks: dict[Task, dict[str, list[AnnotationRecord]]]

    @property
    def size(self) -> int:
        return sum(
            len(recs) for cats in self.subtasks.values() for recs in cats.values()
        )


class SamplingPool:
    """All records grouped source -> subtask -> category, insertion ordered."""

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
            elif entry.source.task is not source.task:
                raise ConfigError(
                    f"source {rec.source_id!r} mixes task families "
                    f"{entry.source.task.value} and {source.task.value}"
                )
            cats = entry.subtasks.setdefault(rec.task, {})
            cats.setdefault(rec.category, []).append(rec)
        return pool

    def get(self, key: str) -> PoolSource | None:
        return self.sources.get(key)


# ---------------------------------------------------------------------------
# Curriculum state


@dataclass
class SubtaskState:
    task: Task
    categories: list[str]
    sizes: list[int]
    probs: list[float]


@dataclass
class SourceState:
    source: DataSourceId
    size: int
    prob: float
    score: float | None
    error: float | None
    subtasks: dict[Task, SubtaskState]


@dataclass
class CurriculumState:
    """Stage index plus the full two-level sampling distribution."""

    stage_index: int
    sources: dict[str, SourceState]

    def inter_probs(self) -> dict[str, float]:
        return {key: s.prob for key, s in self.sources.items()}

    def to_json(self) -> dict[str, Any]:
        return {
            "stage_index": self.stage_index,
            "sources": {
                key: {
                    "name": s.source.name,
                    "task": s.source.task.value,
                    "size": s.size,
                    "prob": s.prob,
                    "score": s.score,
                    "error": s.error,
                    "subtasks": {
                        st.task.value: {
                            "categories": st.categories,
                            "sizes": st.sizes,
                            "probs": st.probs,
                        }
                        for st in s.subtasks.values()
                    },
                }
                for key, s in self.sources.items()
            },
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "CurriculumState":
        sources: dict[str, SourceState] = {}
        for key, s in obj["sources"].items():
            subtasks = {}
            for task_value, st in s["subtasks"].items():
                task = Task(task_value)
                subtasks[task] = SubtaskState(
                    task=task,
                    categories=list(st["categories"]),
                    sizes=[int(x) for x in st["sizes"]],
                    probs=[float(p) for p in st["probs"]],
                )
            sources[key] = SourceState(
                source=DataSourceId(str(s["name"]), TaskFamily(s["task"])),
                size=int(s["size"]),
                prob=float(s["prob"]),
                score=s.get("score"),
                error=s.get("error"),
                subtasks=subtasks,
            )
        return cls(stage_index=int(obj["stage_index"]), sources=sources)


@dataclass(frozen=True)
class CurriculumConfig:
    alpha: float = DEFAULT_ALPHA
    warmup_steps: int = 3000
    reweight_interval: int = 3000
    total_steps: int = 3000
    inter_strategy: Strategy = Strategy.CURRICULUM
    intra_strategy: Strategy = Strategy.CURRICULUM
    min_prob: float = 0.0
    eval_subset_sizes: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.warmup_steps < 0 or self.reweight_interval <= 0:
            raise ConfigError("warmup_steps must be >= 0 and reweight_interval > 0")
        if self.total_steps < self.warmup_steps:
            raise ConfigError("total_steps must cover at least the warmup")

    @classmethod
    def from_json(cls, obj: Any) -> "CurriculumConfig":
        return config_from_json(
            cls, obj, "curriculum", inter_strategy=Strategy, intra_strategy=Strategy
        )


def _source_structure(pool_source: PoolSource) -> dict[Task, tuple[list[str], list[int]]]:
    out = {}
    for task, cats in pool_source.subtasks.items():
        names = list(cats.keys())
        out[task] = (names, [len(cats[c]) for c in names])
    return out


def initial_state(pool: SamplingPool) -> CurriculumState:
    """Stage 0: uniform distributions at both levels."""
    sources: dict[str, SourceState] = {}
    n = len(pool.sources)
    if n == 0:
        raise ConfigError("the sampling pool is empty")
    for key, ps in pool.sources.items():
        subtasks = {}
        for task, (names, sizes) in _source_structure(ps).items():
            probs = build_distribution(Level.INTRA, Strategy.UNIFORM, sizes=sizes)
            subtasks[task] = SubtaskState(task, names, sizes, probs)
        sources[key] = SourceState(
            source=ps.source,
            size=ps.size,
            prob=1.0 / n,
            score=None,
            error=None,
            subtasks=subtasks,
        )
    return CurriculumState(stage_index=0, sources=sources)


def advance_stage(
    cfg: CurriculumConfig,
    state: CurriculumState,
    metrics: Mapping[str, SourceMetrics],
) -> CurriculumState:
    """Compute the next stage's distributions from fresh evaluation metrics.

    Under the curriculum strategy every source (inter level) and every
    category of every reweighted subtask (intra level) must have metrics;
    anything missing raises :class:`MissingMetrics` naming the gap.
    """
    keys = list(state.sources.keys())

    scores: list[float | None] = []
    errors: list[float | None] = []
    for key in keys:
        m = metrics.get(key)
        if m is None:
            if cfg.inter_strategy is Strategy.CURRICULUM:
                raise MissingMetrics(f"no metrics for source {key!r}")
            scores.append(None)
            errors.append(None)
            continue
        try:
            s = aggregate_score(MetricEntry(m.iou, m.text_score), cfg.alpha)
        except NoMetrics:
            if cfg.inter_strategy is Strategy.CURRICULUM:
                raise MissingMetrics(f"source {key!r} has no source-level metrics")
            scores.append(None)
            errors.append(None)
            continue
        scores.append(s)
        errors.append(1.0 - s)

    if cfg.inter_strategy is Strategy.CURRICULUM:
        inter = build_distribution(
            Level.INTER, cfg.inter_strategy, scores=scores, min_prob=cfg.min_prob
        )
    else:
        inter = build_distribution(
            Level.INTER,
            cfg.inter_strategy,
            sizes=[state.sources[k].size for k in keys],
            min_prob=cfg.min_prob,
        )

    new_sources: dict[str, SourceState] = {}
    for i, key in enumerate(keys):
        old = state.sources[key]
        grg = old.source.task is TaskFamily.GRG
        new_subtasks: dict[Task, SubtaskState] = {}
        for task, st in old.subtasks.items():
            if cfg.intra_strategy is Strategy.CURRICULUM and not grg:
                m = metrics.get(key)
                if m is None:
                    raise MissingMetrics(f"no metrics for source {key!r}")
                entries = m.entries_for(task)
                cat_scores: list[float | None] = []
                for cat in st.categories:
                    entry = entries.get(cat)
                    if entry is None:
                        raise MissingMetrics(
                            f"source {key!r} subtask {task.value!r} lacks metrics "
                            f"for category {cat!r}"
                        )
                    cat_scores.append(aggregate_score(entry, cfg.alpha))
                probs = build_distribution(
                    Level.INTRA,
                    cfg.intra_strategy,
                    scores=cat_scores,
                    min_prob=cfg.min_prob,
                )
            else:
                probs = build_distribution(
                    Level.INTRA,
                    cfg.intra_strategy,
                    sizes=st.sizes,
                    grg=grg,
                    min_prob=cfg.min_prob,
                )
            new_subtasks[task] = SubtaskState(task, list(st.categories), list(st.sizes), probs)
        new_sources[key] = SourceState(
            source=old.source,
            size=old.size,
            prob=inter[i],
            score=scores[i],
            error=errors[i],
            subtasks=new_subtasks,
        )
    return CurriculumState(stage_index=state.stage_index + 1, sources=new_sources)


# ---------------------------------------------------------------------------
# Drawing


def _choose(rng: np.random.Generator, probs: Sequence[float]) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def draw_sample(
    state: CurriculumState, pool: SamplingPool, rng: np.random.Generator
) -> AnnotationRecord:
    """Draw one record: source, then subtask, then category, then instance.

    Subtasks are drawn uniformly within the source; instances uniformly
    within the category; everything with replacement. A positive-probability
    leaf with no records raises :class:`EmptyLeaf`.
    """
    keys = list(state.sources.keys())
    src_state = state.sources[keys[_choose(rng, [state.sources[k].prob for k in keys])]]
    pool_source = pool.get(src_state.source.key)
    if pool_source is None:
        raise EmptyLeaf(f"source {src_state.source.key!r} has no records")

    subtask_list = list(src_state.subtasks.values())
    st = subtask_list[int(rng.integers(len(subtask_list)))] if len(subtask_list) > 1 else subtask_list[0]

    cat = st.categories[_choose(rng, st.probs)]
    records = pool_source.subtasks.get(st.task, {}).get(cat)
    if not records:
        raise EmptyLeaf(
            f"leaf {src_state.source.key!r}/{st.task.value}/{cat!r} has no records"
        )
    return records[int(rng.integers(len(records)))]


def draw_samples(
    state: CurriculumState, pool: SamplingPool, n: int, rng: np.random.Generator
) -> list[AnnotationRecord]:
    return [draw_sample(state, pool, rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Learner boundary


@dataclass
class EvalRequest:
    """One evaluation round: which records to score, at which stage."""

    stage_index: int
    seed: int
    subsets: dict[str, list[AnnotationRecord]]

    def sizes(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.subsets.items()}


class Learner(Protocol):
    """Evaluation provider driven by the curriculum loop."""

    def observe(self, counts: Mapping[tuple[str, Task, str], int]) -> None:
        """Receive the tally of samples drawn in the finished stage."""

    def evaluate(self, request: EvalRequest) -> dict[str, SourceMetrics]:
        """Score the requested subsets and return metrics per source key."""


def select_eval_subset(
    pool_source: PoolSource, n: int, rng: np.random.Generator
) -> list[AnnotationRecord]:
    """Stratified evaluation subset: as even as integer division allows.

    Allocation goes category by category in pool order; leftover slots go to
    the earliest categories. Categories smaller than their allocation
    contribute everything they have.
    """
    cats: list[tuple[Task, str, list[AnnotationRecord]]] = []
    for task, cat_map in pool_source.subtasks.items():
        for cat, recs in cat_map.items():
            cats.append((task, cat, recs))
    if not cats:
        return []
    base, extra = divmod(n, len(cats))
    chosen: list[AnnotationRecord] = []
    for i, (_, _, recs) in enumerate(cats):
        want = min(base + (1 if i < extra else 0), len(recs))
        if want == 0:
            continue
        idx = rng.choice(len(recs), size=want, replace=False)
        chosen.extend(recs[int(j)] for j in sorted(idx))
    return chosen


def _eval_sizes(cfg: CurriculumConfig, pool: SamplingPool) -> dict[str, int]:
    sizes = {}
    for key, ps in pool.sources.items():
        if key in cfg.eval_subset_sizes:
            sizes[key] = int(cfg.eval_subset_sizes[key])
        else:
            sizes[key] = DEFAULT_EVAL_SUBSET_SIZES.get(ps.source.task, 100)
    return sizes


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
        return {
            "stage_index": self.stage_index,
            "steps": self.steps,
            "inter_probs": self.inter_probs,
            "intra_probs": self.intra_probs,
            "samples": self.samples,
            "metrics": self.metrics,
            "errors": self.errors,
        }


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
    learner sees the per-leaf sample tally after every stage and then
    answers one evaluation request drawn with the stage's own seed.
    """
    rng = np.random.default_rng(seed)
    state = initial_state(pool)
    logs: list[StageLog] = []
    sizes = _eval_sizes(cfg, pool)

    for steps in stage_lengths(cfg):
        counts: dict[tuple[str, Task, str], int] = {}
        for _ in range(steps):
            rec = draw_sample(state, pool, rng)
            key = (DataSourceId(rec.source_id, rec.task.family).key, rec.task, rec.category)
            counts[key] = counts.get(key, 0) + 1
        learner.observe(counts)

        eval_rng = np.random.default_rng([seed, state.stage_index, 0x5EED])
        subsets = {
            key: select_eval_subset(ps, sizes[key], eval_rng)
            for key, ps in pool.sources.items()
        }
        request = EvalRequest(
            stage_index=state.stage_index,
            seed=seed,
            subsets=subsets,
        )
        metrics = learner.evaluate(request)

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
                errors={
                    k: (1.0 - aggregate_score(MetricEntry(m.iou, m.text_score), cfg.alpha))
                    if (m.iou is not None or m.text_score is not None)
                    else None
                    for k, m in metrics.items()
                },
            )
        )
        state = advance_stage(cfg, state, metrics)
    return logs, state


# ---------------------------------------------------------------------------
# Simulated learner


@dataclass(frozen=True)
class DecayParams:
    """Exponential error decay: error(n) = e0 * exp(-rate * n) + floor."""

    e0: float
    rate: float
    floor: float = 0.0


def decayed_error(params: DecayParams, n_seen: int) -> float:
    """Deterministic per-category error after seeing ``n_seen`` samples."""
    return params.e0 * math.exp(-params.rate * n_seen) + params.floor


class SimulatedLearner:
    """Closed-loop stand-in learner with deterministic error decay.

    Per-category errors shrink exponentially in the number of samples the
    category received; reported category IoU is ``1 - error``. Source-level
    metrics are the unweighted mean of the category metrics.
    """

    def __init__(self, params: Mapping[tuple[str, Task, str], DecayParams]):
        self.params = dict(params)
        self.counts: dict[tuple[str, Task, str], int] = {k: 0 for k in self.params}

    def observe(self, counts: Mapping[tuple[str, Task, str], int]) -> None:
        for key, c in counts.items():
            if key in self.counts:
                self.counts[key] += c

    def category_error(self, key: tuple[str, Task, str]) -> float:
        return decayed_error(self.params[key], self.counts[key])

    def evaluate(self, request: EvalRequest) -> dict[str, SourceMetrics]:
        by_source: dict[str, dict[Task, dict[str, MetricEntry]]] = {}
        for (src_key, task, cat) in self.params:
            error = min(max(self.category_error((src_key, task, cat)), 0.0), 1.0)
            entry = MetricEntry(iou=1.0 - error)
            by_source.setdefault(src_key, {}).setdefault(task, {})[cat] = entry
        out: dict[str, SourceMetrics] = {}
        for src_key, subtasks in by_source.items():
            source = DataSourceId.parse(src_key)
            all_entries = [e for cats in subtasks.values() for e in cats.values()]
            mean_iou = sum(e.iou for e in all_entries) / len(all_entries)
            if source.task is TaskFamily.AGRG:
                out[src_key] = SourceMetrics(
                    source=source, iou=mean_iou, per_subtask=subtasks
                )
            else:
                only = next(iter(subtasks.values()))
                out[src_key] = SourceMetrics(
                    source=source, iou=mean_iou, per_category=only
                )
        return out
