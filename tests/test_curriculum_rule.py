"""The README's "Curriculum rule", written again from its words in exact arithmetic.

:func:`reference_advance_stage` is the rule as README "Curriculum rule" states
it. Every sum and quotient is a ``fractions.Fraction``; only the score and the
error are doubles, because the rule defines them in double precision. The
property below compares it with ``curriculum.advance_stage`` and with the leaf
weights a ``DrawTable`` draws by, so a test of the loop can cite it as the
stated rule.
"""

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from radloop.core import DataSourceId, Task, TaskFamily
from radloop.curriculum import (
    CurriculumConfig,
    DrawTable,
    MetricEntry,
    PoolSource,
    SamplingPool,
    SourceMetrics,
    Strategy,
    advance_stage,
    initial_state,
)
from radloop.errors import MissingMetrics

_TOLERANCE = Fraction(1, 10**12)


def _score(m, alpha):
    """Step 1: the blend in doubles, or the one metric present; None with neither."""
    if m is None or (m.iou is None and m.text_score is None):
        return None
    if m.iou is None or m.text_score is None:
        return m.text_score if m.iou is None else m.iou
    return alpha * m.iou + (1 - alpha) * m.text_score


def _distribution(strategy, sizes, scores):
    """Steps 2-4 over one level's units, in exact arithmetic."""
    n = len(sizes)
    if strategy is Strategy.NATURAL:
        return [Fraction(size, sum(sizes)) for size in sizes]
    if strategy is Strategy.UNIFORM:
        return [Fraction(1, n)] * n
    errors = [1.0 - s for s in scores]
    if len(set(errors)) == 1:
        return [Fraction(1, n)] * n
    total = sum(map(Fraction, errors))
    return [Fraction(e) / total for e in errors]


def reference_advance_stage(cfg, pool, metrics):
    """The plan that follows ``metrics`` over ``pool``, by the README's rule: per
    source key ``(prob, score, error, {task: {category: p}})``, probabilities exact.
    A gap in the metrics raises the rule's first :class:`MissingMetrics`."""
    scores = {key: _score(metrics.get(key), cfg.alpha) for key in pool.sources}
    if cfg.inter_strategy is Strategy.CURRICULUM:  # step 9, the sources first
        for key, score in scores.items():
            if key not in metrics:
                raise MissingMetrics(f"no metrics for source {key!r}")
            if score is None:
                raise MissingMetrics(f"source {key!r} has no source-level metrics")
    records = [sum(len(ids) for cats in ps.subtasks.values() for ids in cats.values())
               for ps in pool.sources.values()]
    plan = {}
    for (key, ps), prob in zip(pool.sources.items(), _distribution(cfg.inter_strategy, records, scores.values())):
        # Step 5: a grounded-report source's categories are uniform under every strategy.
        strategy = Strategy.UNIFORM if ps.source.task is TaskFamily.GRG else cfg.intra_strategy
        subtasks = {}
        for task, cats in ps.subtasks.items():
            category_scores = None
            if strategy is Strategy.CURRICULUM:
                if key not in metrics:
                    raise MissingMetrics(f"no metrics for source {key!r}")
                m = metrics[key]  # step 8: per_subtask[task] when given, else per_category
                entries = m.per_subtask.get(task, {}) if m.per_subtask else m.per_category
                category_scores = [_score(entries.get(c), cfg.alpha) for c in cats]
                for category, score in zip(cats, category_scores):
                    if score is None:
                        raise MissingMetrics(f"source {key!r} subtask {task.value!r} "
                                             f"lacks metrics for category {category!r}")
            sizes = [len(ids) for ids in cats.values()]
            subtasks[task] = dict(zip(cats, _distribution(strategy, sizes, category_scores)))
        score = scores[key]
        plan[key] = (prob, score, None if score is None else 1.0 - score, subtasks)
    return plan


def reference_leaves(plan):
    """Step 6: each leaf's probability, its source's split evenly over its subtasks."""
    return [prob / len(subtasks) * p for prob, _, _, subtasks in plan.values()
            for cats in subtasks.values() for p in cats.values()]


def _close(got, exact):
    return abs(Fraction(got) - exact) <= _TOLERANCE


def assert_state_is_plan(state, pool, plan):
    """``state`` holds ``plan`` within 1e-12, each level sums to 1 within 1e-12, and
    the state's draw table weighs each leaf as the rule does."""
    assert list(state.sources) == list(plan)
    for key, (prob, score, error, subtasks) in plan.items():
        s = state.sources[key]
        assert _close(s.prob, prob)
        assert (s.score, s.error) == (score, error)
        assert list(s.subtasks) == list(subtasks)
        for task, cats in subtasks.items():
            sub = s.subtasks[task]
            assert sub.categories == list(cats)
            assert sub.sizes == [len(pool.sources[key].subtasks[task][c]) for c in cats]
            assert all(map(_close, sub.probs, cats.values()))
            assert abs(math.fsum(sub.probs) - 1) <= 1e-12
    assert abs(math.fsum(state.inter_probs().values()) - 1) <= 1e-12
    table = DrawTable(state, pool)
    assert [leaf[1:] for leaf in table.leaves] == [
        (pool.sources[key].source.name, task, c)
        for key, (*_, subtasks) in plan.items() for task, cats in subtasks.items() for c in cats]
    assert all(map(_close, table.cdf, accumulate(reference_leaves(plan))))


_TASKS = {family: [t for t in Task if t.family is family] for family in TaskFamily}
_UNIFORM = CurriculumConfig(inter_strategy=Strategy.UNIFORM, intra_strategy=Strategy.UNIFORM)


def make_pool(shape):
    """A pool from ``{(name, family): {task: {category: size}}}``."""
    pool = SamplingPool()
    for (name, family), subtasks in shape.items():
        source = DataSourceId(name, family)
        pool.sources[source.key] = PoolSource(source, {
            task: {c: [f"{source.key}/{task.value}/{c}/{i}" for i in range(size)]
                   for c, size in cats.items()}
            for task, cats in subtasks.items()})
    return pool


@st.composite
def cases(draw):
    """A pool of 1-6 sources of any family, 1-5 categories per subtask; any alpha
    and strategies; metrics from a palette of 1-3 values, so that equal and zero
    errors come up, with a gap (a source, a source-level metric or a category)
    in about half the cases."""
    shape = {}
    for i in range(draw(st.integers(1, 6))):
        family = draw(st.sampled_from(TaskFamily))
        tasks = draw(st.lists(st.sampled_from(_TASKS[family]), min_size=1, unique=True))
        shape[f"s{i}", family] = {
            task: {f"c{j}": draw(st.integers(1, 4)) for j in range(draw(st.integers(1, 5)))}
            for task in tasks}
    palette = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=3))
    gaps = draw(st.booleans())

    def entry():
        kind = draw(st.sampled_from(["iou", "text_score", "both"] + ["neither"] * gaps))
        value = {name: draw(st.sampled_from(palette)) for name in ("iou", "text_score")}
        return MetricEntry(**{k: v for k, v in value.items() if kind in (k, "both")})

    def entries(cats):
        return {c: entry() for c in [*cats, "extra"] if not (gaps and draw(st.integers(0, 3)) == 0)}

    metrics = {}
    for (name, family), subtasks in shape.items():
        if gaps and draw(st.integers(0, 4)) == 0:
            continue
        m = SourceMetrics(DataSourceId(name, family), **vars(entry()))
        if draw(st.booleans()):
            m.per_subtask = {task: entries(cats) for task, cats in subtasks.items()}
        else:
            m.per_category = entries(dict.fromkeys(c for cats in subtasks.values() for c in cats))
        metrics[m.source.key] = m
    strategies = st.sampled_from([*reversed(Strategy)])  # curriculum first: hypothesis favours it
    cfg = CurriculumConfig(alpha=draw(st.floats(0.0, 1.0)), inter_strategy=draw(strategies),
                           intra_strategy=draw(strategies))
    return make_pool(shape), cfg, metrics


def _case(shape, alpha=0.8, inter=Strategy.CURRICULUM, intra=Strategy.CURRICULUM, **metrics):
    cfg = CurriculumConfig(alpha=alpha, inter_strategy=inter, intra_strategy=intra)
    return make_pool(shape), cfg, metrics


_AGRG = {("a", TaskFamily.AGRG): {Task.AGRG_LOCATE: {"x": 1, "y": 3}, Task.AGRG_BOTH: {"x": 4}},
         ("g", TaskFamily.GRG): {Task.GRG: {"report": 2}}}
_EVEN = {"a:agrg": SourceMetrics(DataSourceId("a", TaskFamily.AGRG), 0.25, per_category={
    "x": MetricEntry(0.25), "y": MetricEntry(0.25)}),
    "g:grg": SourceMetrics(DataSourceId("g", TaskFamily.GRG), text_score=0.25)}
_PERFECT = {key: SourceMetrics(m.source, 1.0, 1.0, {c: MetricEntry(1.0, 1.0) for c in m.per_category})
            for key, m in _EVEN.items()}


@settings(max_examples=600)
@given(case=cases())
@example(case=_case(_AGRG, **_EVEN))  # all-equal errors
@example(case=_case(_AGRG, alpha=0.3, **_PERFECT))  # all-zero errors
@example(case=_case(_AGRG, **{"a:agrg": _EVEN["a:agrg"]}))  # a source without metrics
@example(case=_case(_AGRG, intra=Strategy.NATURAL, **{**_EVEN, "g:grg": SourceMetrics(
    DataSourceId("g", TaskFamily.GRG))}))  # a source without source-level metrics
@example(case=_case(_AGRG, inter=Strategy.NATURAL, **{**_EVEN, "a:agrg": SourceMetrics(
    DataSourceId("a", TaskFamily.AGRG), per_category={"x": MetricEntry(0.5)})}))  # a category
def test_advance_stage_is_the_readme_rule(case):
    pool, cfg, metrics = case
    state = initial_state(pool)
    assert_state_is_plan(state, pool, reference_advance_stage(_UNIFORM, pool, {}))  # step 7
    try:
        plan = reference_advance_stage(cfg, pool, metrics)
    except MissingMetrics as gap:
        with pytest.raises(MissingMetrics) as raised:
            advance_stage(cfg, state, metrics)
        assert str(raised.value) == str(gap)
        return
    after = advance_stage(cfg, state, metrics)
    assert after.stage_index == state.stage_index + 1
    assert_state_is_plan(after, pool, plan)
