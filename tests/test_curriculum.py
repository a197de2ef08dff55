import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from radloop.core import (
    AGRG_SUBTASKS,
    AnnotationRecord,
    DataSourceId,
    Finding,
    NormBox,
    Task,
    TaskFamily,
    dump_records_jsonl,
)
from radloop.cli import dispatch
from radloop.curriculum import (
    DEFAULT_ALPHA,
    CurriculumConfig,
    CurriculumState,
    DecayParams,
    Draw,
    Level,
    MetricEntry,
    PoolSource,
    SamplingPool,
    SimulatedLearner,
    SourceMetrics,
    SourceState,
    Strategy,
    SubtaskState,
    advance_stage,
    aggregate_score,
    build_distribution,
    decayed_error,
    draw_sample,
    draw_samples,
    initial_state,
    metrics_from_rows,
    normalize_errors,
    plan_from_json,
    run_curriculum,
    select_eval_subset,
    stage_lengths,
)
from radloop.errors import ConfigError, EmptyLeaf, MissingMetrics, NoMetrics
from radloop.evalkit import evaluate_task
from radloop.ingest import make_fixture_dataset
from radloop.taskgen import render_instruction


def _record(source_id, task, category, i):
    kwargs = dict(
        image_id=f"{source_id}-{task.value}-{category}-{i}",
        source_id=source_id,
        task=task,
        category=category,
    )
    if task is Task.GRG:
        kwargs["findings"] = (Finding("finding", (NormBox(0.5, 0.5, 0.2, 0.2),)),)
    elif task is Task.AGRG_DESCRIBE:
        kwargs["text"] = "text"
    else:
        kwargs["text"] = "text"
        kwargs["boxes"] = (NormBox(0.5, 0.5, 0.2, 0.2),)
    return AnnotationRecord(**kwargs)


def make_records(spec):
    """spec: {source_id: {task: {category: count}}}"""
    records = []
    for source_id, tasks in spec.items():
        for task, cats in tasks.items():
            for category, count in cats.items():
                for i in range(count):
                    records.append(_record(source_id, task, category, i))
    return records


def two_source_pool(n_pg=8, n_grg=4):
    records = make_records(
        {
            "pgsrc": {Task.PG: {"a": n_pg, "b": n_pg}},
            "grgsrc": {Task.GRG: {"report": n_grg}},
        }
    )
    return SamplingPool.from_records(records)


class TestAggregateScore:
    def test_blend(self):
        assert aggregate_score(MetricEntry(iou=0.5, text_score=0.75)) == pytest.approx(
            0.8 * 0.5 + 0.2 * 0.75, abs=1e-12
        )

    def test_alpha_default(self):
        assert DEFAULT_ALPHA == 0.8

    def test_single_metric_passthrough(self):
        assert aggregate_score(MetricEntry(iou=0.6)) == 0.6
        assert aggregate_score(MetricEntry(text_score=0.4)) == 0.4

    def test_no_metrics(self):
        with pytest.raises(NoMetrics):
            aggregate_score(MetricEntry())

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            aggregate_score(MetricEntry(iou=0.5), alpha=1.5)


class TestNormalizeErrors:
    def test_proportional(self):
        assert normalize_errors([1.0, 3.0]) == [0.25, 0.75]

    def test_all_zero_exactly_uniform(self):
        assert normalize_errors([0.0, 0.0, 0.0]) == [1 / 3, 1 / 3, 1 / 3]

    def test_all_equal_exactly_uniform(self):
        assert normalize_errors([0.2] * 7) == [1.0 / 7] * 7

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            errs = rng.uniform(0, 1, size=int(rng.integers(1, 9)))
            probs = normalize_errors(list(errs))
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_divides_by_the_correctly_rounded_sum(self):
        errs = [0.3] + [0.1] * 7  # summed left to right: 0.9999999999999999
        assert normalize_errors(errs) == [e / 1.0 for e in errs]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_errors([0.5, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            normalize_errors([float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_errors([])

    def test_rejects_a_sum_beyond_the_largest_double(self):
        with pytest.raises(ValueError, match="sum to at most 1.7976931348623157e"):
            normalize_errors([1e308, 1.7e308])
        with pytest.raises(ValueError, match="sum to at most"):
            build_distribution(Level.INTER, Strategy.CURRICULUM, scores=[-1e308, -1.7e308])
        assert normalize_errors([1e308, 1e308]) == [0.5, 0.5]  # all equal: no sum is taken


class TestBuildDistribution:
    def test_natural_from_sizes(self):
        probs = build_distribution(Level.INTER, Strategy.NATURAL, sizes=[815, 3185])
        assert abs(probs[0] - 0.20375) < 1e-9
        assert abs(probs[1] - 0.79625) < 1e-9

    def test_uniform_exact(self):
        for k in (1, 2, 3, 7):
            probs = build_distribution(Level.INTER, Strategy.UNIFORM, sizes=[5] * k)
            assert probs == [1.0 / k] * k

    def test_curriculum_from_scores(self):
        probs = build_distribution(
            Level.INTER, Strategy.CURRICULUM, scores=[0.9, 0.7, 0.5]
        )
        errors = [0.1, 0.3, 0.5]
        total = sum(errors)
        for p, e in zip(probs, errors):
            assert p == pytest.approx(e / total, abs=1e-12)

    def test_grg_intra_uniform_under_every_strategy(self):
        for strategy in Strategy:
            probs = build_distribution(
                Level.INTRA, strategy, sizes=[10, 30], scores=[0.2, 0.9], grg=True
            )
            assert probs == [0.5, 0.5]

    def test_grg_flag_ignored_at_inter_level(self):
        probs = build_distribution(Level.INTER, Strategy.NATURAL, sizes=[1, 3], grg=True)
        assert probs == [0.25, 0.75]

    def test_missing_scores_under_curriculum(self):
        with pytest.raises(MissingMetrics):
            build_distribution(Level.INTER, Strategy.CURRICULUM, scores=[0.5, None])

    def test_curriculum_needs_scores(self):
        with pytest.raises(ValueError):
            build_distribution(Level.INTER, Strategy.CURRICULUM, sizes=[3, 4])

    def test_natural_needs_sizes(self):
        with pytest.raises(ValueError):
            build_distribution(Level.INTER, Strategy.NATURAL, scores=[0.5, 0.5])

    def test_natural_needs_a_non_empty_pool(self):
        with pytest.raises(ValueError, match="^the natural strategy needs a non-empty pool$"):
            build_distribution(Level.INTER, Strategy.NATURAL, sizes=[0, 0])

    def test_string_arguments_accepted(self):
        assert build_distribution("inter", "uniform", sizes=[2, 2]) == [0.5, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_distribution(Level.INTER, Strategy.UNIFORM)


class TestSamplingPool:
    def test_grouping(self):
        records = make_records(
            {
                "cig": {
                    Task.AGRG_LOCATE: {"spine": 2, "abdomen": 1},
                    Task.AGRG_DESCRIBE: {"spine": 2},
                },
                "ms": {Task.PG: {"effusion": 3}},
            }
        )
        pool = SamplingPool.from_records(records)
        assert set(pool.sources) == {"cig:agrg", "ms:pg"}
        cig = pool.sources["cig:agrg"]
        assert cig.size == 5
        assert set(cig.subtasks) == {Task.AGRG_LOCATE, Task.AGRG_DESCRIBE}
        assert len(cig.subtasks[Task.AGRG_LOCATE]["spine"]) == 2

    def test_agrg_subtasks_share_one_source(self):
        records = make_records(
            {
                "cig": {
                    Task.AGRG_LOCATE: {"spine": 1},
                    Task.AGRG_DESCRIBE: {"spine": 1},
                    Task.AGRG_BOTH: {"spine": 1},
                }
            }
        )
        pool = SamplingPool.from_records(records)
        assert list(pool.sources) == ["cig:agrg"]
        assert len(pool.sources["cig:agrg"].subtasks) == 3

    def test_same_name_different_families_split(self):
        # Family is part of a source's identity, so one corpus name used for
        # two task families yields two independent pool entries.
        records = [
            _record("dup", Task.PG, "a", 0),
            _record("dup", Task.GRG, "report", 0),
        ]
        pool = SamplingPool.from_records(records)
        assert set(pool.sources) == {"dup:pg", "dup:grg"}


class TestInitialState:
    def test_uniform_both_levels(self):
        pool = SamplingPool.from_records(
            make_records(
                {
                    "s1": {Task.PG: {"a": 10, "b": 30}},
                    "s2": {Task.PG: {"c": 5}},
                    "s3": {Task.GRG: {"report": 7}},
                }
            )
        )
        state = initial_state(pool)
        assert state.stage_index == 0
        assert list(state.inter_probs().values()) == [1 / 3, 1 / 3, 1 / 3]
        st = state.sources["s1:pg"].subtasks[Task.PG]
        assert st.probs == [0.5, 0.5]

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            initial_state(SamplingPool())


class TestAdvanceStage:
    def setup_method(self):
        self.pool = two_source_pool()
        self.state = initial_state(self.pool)

    def _metrics(self, pg_cat_scores=(0.9, 0.7)):
        pg = SourceMetrics(
            source=DataSourceId("pgsrc", TaskFamily.PG),
            iou=0.6,
            per_category={
                "a": MetricEntry(iou=pg_cat_scores[0]),
                "b": MetricEntry(iou=pg_cat_scores[1]),
            },
        )
        grg = SourceMetrics(
            source=DataSourceId("grgsrc", TaskFamily.GRG),
            iou=0.5,
            text_score=0.75,
            per_category={"report": MetricEntry(iou=0.5, text_score=0.75)},
        )
        return {"pgsrc:pg": pg, "grgsrc:grg": grg}

    def test_curriculum_inter_matches_hand_arithmetic(self):
        cfg = CurriculumConfig(warmup_steps=1, reweight_interval=1, total_steps=2)
        new = advance_stage(cfg, self.state, self._metrics())
        # scores: pg 0.6; grg 0.8*0.5 + 0.2*0.75 = 0.55 -> errors 0.4, 0.45
        probs = new.inter_probs()
        assert probs["pgsrc:pg"] == pytest.approx(0.4 / 0.85, abs=1e-12)
        assert probs["grgsrc:grg"] == pytest.approx(0.45 / 0.85, abs=1e-12)
        assert new.stage_index == 1

    def test_curriculum_intra_matches_hand_arithmetic(self):
        cfg = CurriculumConfig(warmup_steps=1, reweight_interval=1, total_steps=2)
        new = advance_stage(cfg, self.state, self._metrics())
        st = new.sources["pgsrc:pg"].subtasks[Task.PG]
        # category errors 0.1 / 0.3 -> probabilities 0.25 / 0.75
        assert dict(zip(st.categories, st.probs)) == pytest.approx(
            {"a": 0.25, "b": 0.75}, abs=1e-12
        )

    def test_grg_intra_stays_uniform_under_curriculum(self):
        cfg = CurriculumConfig(warmup_steps=1, reweight_interval=1, total_steps=2)
        new = advance_stage(cfg, self.state, self._metrics())
        st = new.sources["grgsrc:grg"].subtasks[Task.GRG]
        assert st.probs == [1.0]

    def test_missing_source_metrics(self):
        cfg = CurriculumConfig(warmup_steps=1, reweight_interval=1, total_steps=2)
        metrics = self._metrics()
        del metrics["grgsrc:grg"]
        with pytest.raises(MissingMetrics):
            advance_stage(cfg, self.state, metrics)

    def test_missing_category_metrics(self):
        cfg = CurriculumConfig(warmup_steps=1, reweight_interval=1, total_steps=2)
        metrics = self._metrics()
        del metrics["pgsrc:pg"].per_category["b"]
        with pytest.raises(MissingMetrics):
            advance_stage(cfg, self.state, metrics)

    def test_natural_strategies_ignore_missing_metrics(self):
        cfg = CurriculumConfig(
            warmup_steps=1,
            reweight_interval=1,
            total_steps=2,
            inter_strategy=Strategy.NATURAL,
            intra_strategy=Strategy.NATURAL,
        )
        new = advance_stage(cfg, self.state, {})
        probs = new.inter_probs()
        # pgsrc holds 16 of 20 records.
        assert probs["pgsrc:pg"] == pytest.approx(0.8, abs=1e-12)

    def test_uniform_intra_exact(self):
        cfg = CurriculumConfig(
            warmup_steps=1,
            reweight_interval=1,
            total_steps=2,
            inter_strategy=Strategy.UNIFORM,
            intra_strategy=Strategy.UNIFORM,
        )
        new = advance_stage(cfg, self.state, {})
        assert new.sources["pgsrc:pg"].subtasks[Task.PG].probs == [0.5, 0.5]

    def test_stage_metrics_feed_next_stage_only(self):
        # The state distributions before advance are untouched.
        cfg = CurriculumConfig(warmup_steps=1, reweight_interval=1, total_steps=2)
        before = dict(self.state.inter_probs())
        advance_stage(cfg, self.state, self._metrics())
        assert self.state.inter_probs() == before


class TestDrawing:
    def test_empirical_matches_target(self):
        pool = two_source_pool(n_pg=6, n_grg=6)
        state = initial_state(pool)
        # Skew the inter distribution by hand for a sharper check.
        state.sources["pgsrc:pg"].prob = 0.75
        state.sources["grgsrc:grg"].prob = 0.25
        rng = random.Random(42)
        n = 40_000
        counts = {"pgsrc": 0, "grgsrc": 0}
        for rec in draw_samples(state, pool, n, rng):
            counts[rec.source_id] += 1
        assert counts["pgsrc"] / n == pytest.approx(0.75, abs=0.01)

    def test_within_category_uniform(self):
        pool = SamplingPool.from_records(make_records({"s": {Task.PG: {"a": 4}}}))
        state = initial_state(pool)
        rng = random.Random(0)
        seen = {}
        for rec in draw_samples(state, pool, 8000, rng):
            seen[rec.image_id] = seen.get(rec.image_id, 0) + 1
        freqs = [c / 8000 for c in seen.values()]
        assert len(freqs) == 4
        for f in freqs:
            assert f == pytest.approx(0.25, abs=0.02)

    def test_deterministic_given_seed(self):
        pool = two_source_pool()
        state = initial_state(pool)
        a = [r.image_id for r in draw_samples(state, pool, 200, random.Random(9))]
        b = [r.image_id for r in draw_samples(state, pool, 200, random.Random(9))]
        assert a == b

    def test_empty_leaf(self):
        pool = two_source_pool()
        state = initial_state(pool)
        # Empty one category's records behind the state's back.
        pool.sources["pgsrc:pg"].subtasks[Task.PG]["a"].clear()
        rng = random.Random(1)
        with pytest.raises(EmptyLeaf):
            draw_samples(state, pool, 500, rng)


def stated_stream(state, pool, seed, n):
    """The ``n`` draws of ``sample --seed seed``, rebuilt from the README's
    "The draw stream" steps alone, with no radloop sampling code."""
    rng = random.Random(seed)
    leaves, weights = [], []
    for source in state.sources.values():
        for sub in source.subtasks.values():
            for category, p in zip(sub.categories, sub.probs):
                leaves.append((source.source, sub.task, category))
                weights.append(source.prob / len(source.subtasks) * p)
    cdf, running = [], 0.0
    for w in weights:
        running += w
        cdf.append(running if not cdf or running > cdf[-1] else cdf[-1])
    draws = []
    for _ in range(n):
        u = rng.random()
        source, task, category = leaves[next((i for i, c in enumerate(cdf) if c > u), len(cdf) - 1)]
        ids = pool.sources[source.key].subtasks[task][category]
        v = rng.random()
        draws.append(Draw(ids[min(int(v * len(ids)), len(ids) - 1)], source.name, task, category))
    return draws


def prob_vectors(n):
    """Unnormalised weights with zeros (sums far from 1), normalised ones
    (float sums land on or just below 1), and arbitrary floats."""
    weights = st.lists(st.one_of(st.just(0.0), st.floats(0, 1)), min_size=n, max_size=n)
    normalised = weights.filter(lambda w: sum(w) > 0).map(lambda w: [x / sum(w) for x in w])
    anything = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n)
    return st.one_of(weights, normalised, anything)


@st.composite
def drawn_plans(draw):
    spec = {"cig": {t: {} for t in AGRG_SUBTASKS[: draw(st.integers(1, 3))]}}
    for i in range(draw(st.integers(0, 3))):
        spec[f"pg{i}"] = {Task.PG: {}}
    for tasks in spec.values():
        for cats in tasks.values():
            for c in range(draw(st.integers(1, 5))):
                cats[f"c{c}"] = draw(st.integers(1, 3))
    pool = SamplingPool.from_records(make_records(spec))
    state = initial_state(pool)
    for source, p in zip(state.sources.values(), draw(prob_vectors(len(state.sources)))):
        source.prob = p
        for sub in source.subtasks.values():
            sub.probs = draw(prob_vectors(len(sub.categories)))
    return state, pool


class TestDrawStream:
    @settings(max_examples=300)
    @given(plan=drawn_plans(), seed=st.integers(0, 2**63 - 1))
    def test_draws_follow_the_stated_stream(self, plan, seed):
        state, pool = plan
        draws = list(draw_samples(state, pool, 40, random.Random(seed)))
        assert draws == stated_stream(state, pool, seed, 40)

    def test_a_sample_file_is_rebuilt_from_its_seed(self, tmp_path):
        records = make_records({"cig": {t: {"left": 3, "right": 2} for t in AGRG_SUBTASKS},
                                "pgsrc": {Task.PG: {"a": 4, "b": 1}}})
        dump_records_jsonl(tmp_path / "records.jsonl", records)
        paths = {name: str(tmp_path / name) for name in ("records.jsonl", "plan.json", "out")}
        metrics = [{"name": "cig", "task": "agrg", "iou": 0.3,
                    "per_subtask": {t: {"left": {"iou": 0.2}, "right": {"iou": 0.7}}
                                    for t in AGRG_SUBTASKS}},
                   {"name": "pgsrc", "task": "pg", "iou": 0.6,
                    "per_category": {"a": {"iou": 0.9}, "b": {"iou": 0.1}}}]
        (tmp_path / "metrics.json").write_text(json.dumps(metrics), encoding="utf-8")
        assert dispatch(["plan", "--records", paths["records.jsonl"], "--metrics",
                         str(tmp_path / "metrics.json"), "--out", paths["plan.json"]]) == 0
        assert dispatch(["sample", "--records", paths["records.jsonl"], "--plan",
                         paths["plan.json"], "--n", "300", "--seed", "2024",
                         "--out", paths["out"]]) == 0
        rows = [json.loads(line) for line in Path(paths["out"]).read_text().splitlines()]
        plan = CurriculumState.from_json(json.loads(Path(paths["plan.json"]).read_text())["state"])
        expected = stated_stream(plan, SamplingPool.from_records(records), 2024, 300)
        assert rows == [{**d._asdict(), "task": d.task.value} for d in expected]


class TestEvalSubset:
    def test_even_allocation(self):
        pool = SamplingPool.from_records(
            make_records({"s": {Task.PG: {"a": 10, "b": 10, "c": 10}}})
        )
        subset = select_eval_subset(pool.sources["s:pg"], 7, random.Random(0))
        by_cat = {}
        for rec in subset:
            by_cat[rec.category] = by_cat.get(rec.category, 0) + 1
        assert by_cat == {"a": 3, "b": 2, "c": 2}

    def test_small_category_contributes_all(self):
        pool = SamplingPool.from_records(
            make_records({"s": {Task.PG: {"a": 1, "b": 10}}})
        )
        subset = select_eval_subset(pool.sources["s:pg"], 8, random.Random(0))
        by_cat = {}
        for rec in subset:
            by_cat[rec.category] = by_cat.get(rec.category, 0) + 1
        assert by_cat["a"] == 1 and by_cat["b"] == 4

    def test_deterministic(self):
        pool = SamplingPool.from_records(
            make_records({"s": {Task.PG: {"a": 30, "b": 30}}})
        )
        a = select_eval_subset(pool.sources["s:pg"], 10, random.Random(5))
        b = select_eval_subset(pool.sources["s:pg"], 10, random.Random(5))
        assert [r.image_id for r in a] == [r.image_id for r in b]

    def test_a_source_without_categories_gives_nothing(self):
        source = PoolSource(DataSourceId("s", TaskFamily.PG), {})
        assert select_eval_subset(source, 5, random.Random(0)) == []

    @pytest.mark.parametrize("n", [-1, -2])
    def test_a_negative_size_is_rejected(self, n):
        # Such an n gives some category a negative share, which pick_sorted rejects.
        pool = SamplingPool.from_records(
            make_records({"s": {Task.PG: {"a": 5, "b": 5, "c": 5}}})
        )
        with pytest.raises(ValueError, match="cannot pick -1 of 5"):
            select_eval_subset(pool.sources["s:pg"], n, random.Random(0))

    def test_fewer_slots_than_categories_draw_only_for_the_earliest(self):
        # A category whose share is 0 asks the generator for nothing.
        class CountingRng(random.Random):
            calls = 0

            def random(self):
                self.calls += 1
                return super().random()

        pool = SamplingPool.from_records(
            make_records({"s": {Task.PG: {"a": 10, "b": 10, "c": 10}}})
        )
        rng = CountingRng(0)
        subset = select_eval_subset(pool.sources["s:pg"], 2, rng)
        assert [d.category for d in subset] == ["a", "b"]
        assert rng.calls == 2

    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4), n=st.integers(0, 20),
           seed=st.integers(0, 2**32))
    def test_each_category_is_a_stated_partial_shuffle(self, sizes, n, seed):
        pool = SamplingPool.from_records(
            make_records({"s": {Task.PG: {f"c{i}": k for i, k in enumerate(sizes)}}}))
        rng, expected = random.Random(seed), []
        for i, (cat, ids) in enumerate(pool.sources["s:pg"].subtasks[Task.PG].items()):
            m = len(ids)
            want = min(n // len(sizes) + (i < n % len(sizes)), m)
            order = list(range(m))
            for k in range(want):
                j = k + min(int(rng.random() * (m - k)), m - k - 1)
                order[k], order[j] = order[j], order[k]
            expected += [ids[j] for j in sorted(order[:want])]
        subset = select_eval_subset(pool.sources["s:pg"], n, random.Random(seed))
        assert [d.image_id for d in subset] == expected


class TestConfig:
    def test_defaults(self):
        cfg = CurriculumConfig()
        assert cfg.alpha == 0.8
        assert cfg.warmup_steps == 3000
        assert cfg.reweight_interval == 3000

    def test_from_json(self):
        cfg = CurriculumConfig.from_json(
            {"alpha": 0.5, "inter_strategy": "natural", "total_steps": 9000}
        )
        assert cfg.alpha == 0.5
        assert cfg.inter_strategy is Strategy.NATURAL

    def test_validation(self):
        with pytest.raises(ConfigError):
            CurriculumConfig(alpha=2.0)
        with pytest.raises(ConfigError):
            CurriculumConfig(reweight_interval=0)
        with pytest.raises(ConfigError):
            CurriculumConfig(warmup_steps=100, total_steps=50)


    @pytest.mark.parametrize(
        "fields",
        [
            {"warmup_steps": 10, "reweight_interval": 10, "total_steps": 30.5},
            {"warmup_steps": True},
            {"reweight_interval": 10.0},
            {"alpha": True},
            {"alpha": "0.5"},
            {"alpha": math.nan},
            {"warmup_steps": -1},
            {"total_steps": None},
            {"reweight_interval": -3},
            {"alpha": -0.5},
        ],
    )
    def test_wrong_types_and_ranges_are_config_errors(self, fields):
        with pytest.raises(ConfigError):
            CurriculumConfig(**fields)


class TestStageLengths:
    def test_warmup_then_intervals(self):
        cfg = CurriculumConfig(warmup_steps=100, reweight_interval=50, total_steps=230)
        assert stage_lengths(cfg) == [100, 50, 50, 30]

    def test_no_warmup(self):
        cfg = CurriculumConfig(warmup_steps=0, reweight_interval=50, total_steps=100)
        assert stage_lengths(cfg) == [50, 50]

    def test_single_stage(self):
        cfg = CurriculumConfig(warmup_steps=100, reweight_interval=100, total_steps=100)
        assert stage_lengths(cfg) == [100]


class TestSourceMetricsJson:
    def test_round_trip(self):
        m = SourceMetrics(
            source=DataSourceId("cig", TaskFamily.AGRG),
            iou=0.4,
            text_score=0.6,
            per_subtask={
                Task.AGRG_LOCATE: {"spine": MetricEntry(iou=0.3)},
                Task.AGRG_DESCRIBE: {"spine": MetricEntry(text_score=0.7)},
            },
        )
        back = SourceMetrics.from_json(json.loads(json.dumps(m.to_json())))
        assert back == m

    def test_a_source_with_both_maps_is_refused(self):
        # No document may give both, so neither may a source built in Python.
        with pytest.raises(ValueError, match=r"^source 'cig:agrg' gives both per_category and per_subtask$"):
            SourceMetrics(
                source=DataSourceId("cig", TaskFamily.AGRG),
                per_category={"x": MetricEntry(iou=0.1)},
                per_subtask={Task.AGRG_LOCATE: {"spine": MetricEntry(iou=0.3)}},
            )


#: Metric values as the documents carry them: null, 0.0, or any finite number.
_metrics = st.none() | st.just(0.0) | st.floats(allow_nan=False, allow_infinity=False) | (
    st.integers(-(10**6), 10**6)
)
#: Metric values a metrics document may carry: null, or a number in [0, 1].
_unit_metrics = st.none() | st.sampled_from([0, 1]) | st.floats(0.0, 1.0)
_entries = st.dictionaries(
    st.text(max_size=4),
    st.builds(MetricEntry, iou=_unit_metrics, text_score=_unit_metrics),
    max_size=3,
)


_sources = st.builds(DataSourceId, st.text(max_size=4), st.sampled_from(TaskFamily))


@given(
    source=_sources,
    iou=_unit_metrics,
    text_score=_unit_metrics,
    per_category=_entries,
    data=st.data(),
)
def test_any_source_metrics_round_trip(source, iou, text_score, per_category, data):
    # A document gives per_category or per_subtask, never both, and its subtasks
    # are tasks of the source's family.
    family = [t for t in Task if t.family is source.task]
    per_subtask = data.draw(st.dictionaries(st.sampled_from(family), _entries, max_size=3), label="per_subtask")
    m = SourceMetrics(source, iou, text_score, per_category, {} if per_category else per_subtask)
    assert SourceMetrics.from_json(json.loads(json.dumps(m.to_json()))) == m


@given(source=_sources, task=st.sampled_from(Task), entries=_entries)
def test_a_subtask_of_another_family_is_refused(source, task, entries):
    # Such entries were ignored, so a category the file gave lacked metrics.
    assume(task.family is not source.task)
    message = f"source {source.key!r} per_subtask has tasks of another family [{task.value!r}]"
    with pytest.raises(ValueError) as built:
        SourceMetrics(source, per_subtask={task: entries})
    doc = {"name": source.name, "task": source.task.value,
           "per_subtask": {task.value: {c: vars(e) for c, e in entries.items()}}}
    with pytest.raises(ValueError) as decoded:
        SourceMetrics.from_json(doc)
    assert str(built.value) == str(decoded.value) == message


@given(
    value=(st.floats(allow_nan=False) | st.integers()).filter(lambda v: not 0 <= v <= 1),
    name=st.sampled_from(["iou", "text_score"]),
    level=st.sampled_from(["source", "per_category", "per_subtask"]),
)
def test_any_metric_outside_the_unit_range_is_rejected(value, name, level):
    doc = {"name": "src", "task": "agrg"}
    where = "source 'src:agrg'"
    if level == "source":
        doc[name] = value
    elif level == "per_category":
        doc["per_category"] = {"c": {name: value}}
        where += " category 'c'"
    else:
        doc["per_subtask"] = {"agrg_locate": {"c": {name: value}}}
        where += " subtask 'agrg_locate' category 'c'"
    with pytest.raises(ValueError, match=re.escape(f"{where}: {name} must be in [0, 1]")):
        SourceMetrics.from_json(doc)


def plan_level(draw, n):
    """``n`` probabilities a plan may hold: non-negative, summing to 1 unless ``n`` is 0."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return [w / total if total else 1.0 / n for w in weights]


@st.composite
def curriculum_states(draw):
    sources = {}
    names = draw(st.lists(st.text(max_size=4), unique=True, max_size=3))
    for name, prob in zip(names, plan_level(draw, len(names))):
        source = DataSourceId(name, draw(st.sampled_from(TaskFamily)))
        subtasks = {}
        for task in draw(st.lists(st.sampled_from(Task), unique=True, max_size=3)):
            cats = draw(st.lists(st.text(max_size=3), unique=True, max_size=3))
            sizes = draw(st.lists(st.integers(0, 10**6), min_size=len(cats), max_size=len(cats)))
            subtasks[task] = SubtaskState(task, cats, sizes, plan_level(draw, len(cats)))
        sources[source.key] = SourceState(
            source, draw(st.integers(0, 10**6)), prob, draw(_metrics), draw(_metrics), subtasks,
        )
    return CurriculumState(draw(st.integers(0, 10**6)), sources)


@given(state=curriculum_states())
def test_any_curriculum_state_round_trips(state):
    assert CurriculumState.from_json(json.loads(json.dumps(state.to_json()))) == state


@given(state=curriculum_states(), data=st.data())
def test_a_plan_with_an_unknown_key_at_any_level_is_rejected(state, data):
    doc = json.loads(json.dumps({"schema_version": 1, "state": state.to_json()}))
    assert plan_from_json(doc) == state
    levels = [doc, doc["state"]]
    for source in doc["state"]["sources"].values():
        levels += [source, *source["subtasks"].values()]
    level = data.draw(st.sampled_from(levels), label="level")
    key = data.draw(st.text(max_size=10).filter(lambda k: k not in level), label="key")
    level[key] = data.draw(st.none() | st.integers() | st.text(max_size=3), label="value")
    with pytest.raises(ValueError, match=re.escape(f" has unknown keys [{key!r}]")):
        plan_from_json(doc)


class TestStateJson:
    def test_round_trip(self):
        state = initial_state(two_source_pool())
        back = CurriculumState.from_json(json.loads(json.dumps(state.to_json())))
        assert back.stage_index == state.stage_index
        assert back.inter_probs() == state.inter_probs()
        st_a = back.sources["pgsrc:pg"].subtasks[Task.PG]
        st_b = state.sources["pgsrc:pg"].subtasks[Task.PG]
        assert st_a.categories == st_b.categories
        assert st_a.probs == st_b.probs

    @pytest.mark.parametrize(
        "source, subtask_probs, message",
        [
            (-0.5, None, "the sources: 'pgsrc:pg' has negative probability -0.5"),
            (0.9, None, "the sources: probabilities sum to 1.4, not 1"),
            (0.5000001, None, None),
            (0.5, [-1.0, 2.0], "subtask 'pg' of 'pgsrc:pg': 'a' has negative probability -1.0"),
            (0.5, [0.5, 0.6], "subtask 'pg' of 'pgsrc:pg': probabilities sum to 1.1, not 1"),
            (0.5, [0.25, 0.75], None),
            (0.5, [1e308, 1e308], "subtask 'pg' of 'pgsrc:pg': probabilities sum to inf, not 1"),
        ],
    )
    def test_levels_must_be_non_negative_and_sum_to_one(self, source, subtask_probs, message):
        doc = json.loads(json.dumps(initial_state(two_source_pool()).to_json()))
        doc["sources"]["pgsrc:pg"]["prob"] = source
        if subtask_probs is not None:
            doc["sources"]["pgsrc:pg"]["subtasks"]["pg"]["probs"] = subtask_probs
        if message is None:
            CurriculumState.from_json(doc)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CurriculumState.from_json(doc)

    def test_a_level_names_each_category_once(self):
        doc = json.loads(json.dumps(initial_state(two_source_pool()).to_json()))
        doc["sources"]["pgsrc:pg"]["subtasks"]["pg"]["categories"] = ["a", "a"]
        message = "subtask 'pg' of 'pgsrc:pg': 'a' is listed twice"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CurriculumState.from_json(doc)


class TestDecay:
    def test_decayed_error(self):
        p = DecayParams(e0=0.8, rate=0.001, floor=0.05)
        assert decayed_error(p, 0) == pytest.approx(0.85)
        assert decayed_error(p, 10_000) == pytest.approx(0.05, abs=1e-4)
        assert decayed_error(p, 100) == pytest.approx(0.8 * math.exp(-0.1) + 0.05)


def _exact_mean(values):
    """The README's mean of the values present: their exact sum, rounded once
    to a double, over their count; None when no value is present."""
    values = [v for v in values if v is not None]
    return float(sum(map(Fraction, values))) / len(values) if values else None


def _reference_metrics(rows):
    """README "Curriculum sampling": a category's entry is the mean of its rows'
    values, a source's the mean of its category entries', across AGRG's subtasks."""
    leaves = {}
    for name, task, category, iou, text in rows:
        leaves.setdefault((name, task, category), []).append((iou, text))
    out = {}
    for (name, task, category), values in leaves.items():
        source = DataSourceId(name, task.family)
        m = out.setdefault(source.key, SourceMetrics(source))
        entry = MetricEntry(*(_exact_mean(column) for column in zip(*values)))
        if source.task is TaskFamily.AGRG:
            m.per_subtask.setdefault(task, {})[category] = entry
        else:
            m.per_category[category] = entry
    for m in out.values():
        entries = [*m.per_category.values(), *(e for c in m.per_subtask.values() for e in c.values())]
        m.iou = _exact_mean([e.iou for e in entries])
        m.text_score = _exact_mean([e.text_score for e in entries])
    return out


_metric = st.none() | st.floats(0.0, 1.0)
_metric_rows = st.lists(
    st.tuples(st.sampled_from(["s", "t", "a:pg", ""]), st.sampled_from(list(Task)),
              st.sampled_from(["x", "y", "z"]), _metric, _metric),
    max_size=30,
)


@given(rows=_metric_rows)
# A left-to-right sum of 0.1, 0.2 and 0.3 is not their correctly rounded sum.
@example(rows=[("s", Task.PG, "x", v, v) for v in (0.1, 0.2, 0.3)])
@example(rows=[("s", task, "x", 0.1 * i, None) for i, task in enumerate(AGRG_SUBTASKS * 2)])
def test_metrics_from_rows_is_the_readme_rule(rows):
    got = metrics_from_rows(rows)
    expected = _reference_metrics(rows)
    assert got == expected
    # Equal dicts may differ in order; the JSON form keeps it.
    assert json.dumps([m.to_json() for m in got.values()]) == json.dumps(
        [m.to_json() for m in expected.values()])


def test_metrics_from_rows_of_eval_rows_are_the_report():
    gold = make_fixture_dataset(4, {"src:agrg": {"spine": 4, "left lung": 3, "trachea": 1}})
    task = Task.AGRG_BOTH
    own = [r for r in gold if r.task is task]
    # Every other prediction answers for the next record, so scores spread.
    preds = {r.image_id: render_instruction(own[(i + i % 2) % len(own)]).response
             for i, r in enumerate(own)}
    preds[own[0].image_id] = "no answer"  # a strict parse failure scores 0
    report = evaluate_task(preds, gold, task)
    source_ids = {r.image_id: r.source_id for r in own}
    metrics = metrics_from_rows([(source_ids[row.id], task, row.category, row.iou, row.text_score)
                                 for row in report.rows])
    (m,) = metrics.values()
    entries = {c: vars(e) for c, e in m.per_subtask[task].items()}
    assert entries == {c: {"iou": v["iou"], "text_score": v["text_score"]}
                       for c, v in report.per_class.items()}
    assert list(entries) == list(report.per_class)
    assert (m.iou, m.text_score) == (report.macro_iou, report.macro_text)
    assert len({v["iou"] for v in report.per_class.values()}) == 3  # the case spreads


class TestSimulatedLearner:
    def test_a_source_mean_is_correctly_rounded(self):
        e0s = [0.3] + [0.9] * 9
        params = {("s:pg", Task.PG, f"c{i}"): DecayParams(e0, 0.0) for i, e0 in enumerate(e0s)}
        metrics = SimulatedLearner(params).evaluate()["s:pg"]
        ious = [e.iou for e in metrics.per_category.values()]
        assert sum(ious) != math.fsum(ious)  # the case tells the two sums apart
        assert metrics.iou == math.fsum(ious) / len(ious)

    def test_a_leaf_keyed_by_source_name_is_refused(self):
        # Sample rows and metrics rows name a leaf's source by name; the
        # learner's leaves are keyed by source key, so these params match none.
        records = make_fixture_dataset(0, {"src:pg": {"hard": 50, "easy": 50}})
        params = {("src", Task.PG, c): DecayParams(0.8, 0.001, 0.05) for c in ("hard", "easy")}
        learner = SimulatedLearner(params)
        cfg = CurriculumConfig(warmup_steps=1000, reweight_interval=1000, total_steps=4000)
        message = (r"^no decay parameters for leaf \('src:pg', <Task\.PG: 'pg'>, '(hard|easy)'\); "
                   r"leaves are keyed \(source key, task, category\)$")
        with pytest.raises(ValueError, match=message):
            run_curriculum(cfg, SamplingPool.from_records(records), learner, seed=0)
        assert learner.counts == dict.fromkeys(params, 0)

    def test_a_tally_with_an_unknown_leaf_counts_nothing(self):
        known, unknown = ("s:pg", Task.PG, "a"), ("s:pg", Task.PG, "b")
        learner = SimulatedLearner({known: DecayParams(0.5, 0.1)})
        with pytest.raises(ValueError, match=r"\('s:pg', <Task\.PG: 'pg'>, 'b'\)"):
            learner.observe({known: 7, unknown: 1})
        assert learner.counts == {known: 0}
        learner.observe({known: 7})
        assert learner.counts == {known: 7}


class TestRunCurriculum:
    def _setup(self, inter=Strategy.CURRICULUM, intra=Strategy.CURRICULUM):
        pool = two_source_pool(n_pg=10, n_grg=10)
        cfg = CurriculumConfig(
            warmup_steps=200,
            reweight_interval=200,
            total_steps=600,
            inter_strategy=inter,
            intra_strategy=intra,
        )
        params = {}
        for key, ps in pool.sources.items():
            for task, cats in ps.subtasks.items():
                for cat in cats:
                    e0 = 0.8 if cat == "a" else 0.2
                    params[(key, task, cat)] = DecayParams(e0=e0, rate=0.01, floor=0.05)
        return pool, cfg, SimulatedLearner(params)

    def test_stage_structure(self):
        pool, cfg, learner = self._setup()
        logs, state = run_curriculum(cfg, pool, learner, seed=1)
        assert [entry.steps for entry in logs] == [200, 200, 200]
        assert [entry.stage_index for entry in logs] == [0, 1, 2]
        assert state.stage_index == 3

    def test_stage_zero_uniform(self):
        pool, cfg, learner = self._setup()
        logs, _ = run_curriculum(cfg, pool, learner, seed=1)
        assert list(logs[0].inter_probs.values()) == [0.5, 0.5]

    def test_later_stages_follow_metrics(self):
        pool, cfg, learner = self._setup()
        logs, _ = run_curriculum(cfg, pool, learner, seed=1)
        # Stage 1 inter probabilities derive from stage 0 errors.
        errors = logs[0].errors
        expected = {k: errors[k] / sum(errors.values()) for k in errors}
        for key, p in logs[1].inter_probs.items():
            assert p == pytest.approx(expected[key], abs=1e-12)

    def test_deterministic(self):
        pool, cfg, learner = self._setup()
        logs_a, _ = run_curriculum(cfg, pool, learner, seed=4)
        pool2, cfg2, learner2 = self._setup()
        logs_b, _ = run_curriculum(cfg2, pool2, learner2, seed=4)
        assert [entry.to_json() for entry in logs_a] == [entry.to_json() for entry in logs_b]

    def test_learner_is_asked_once_per_stage(self):
        pool, cfg, learner = self._setup()
        calls = []
        evaluate = learner.evaluate
        learner.evaluate = lambda: calls.append(1) or evaluate()
        logs, _ = run_curriculum(cfg, pool, learner, seed=1)
        assert len(calls) == len(logs) == 3

    def test_sample_counts_recorded(self):
        pool, cfg, learner = self._setup()
        logs, _ = run_curriculum(cfg, pool, learner, seed=2)
        total = sum(
            c
            for stage in logs
            for tasks in stage.samples.values()
            for cats in tasks.values()
            for c in cats.values()
        )
        assert total == 600

    @pytest.mark.parametrize("seed", [-3, 2.5, True, "3"])
    def test_a_seed_is_a_non_negative_integer(self, seed):
        # random.Random(-3) would draw the stream of random.Random(3), and True that of 1.
        pool, cfg, learner = self._setup()
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_curriculum(cfg, pool, learner, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_any_non_negative_integer_is_a_seed(self, seed):
        pool, cfg, learner = self._setup()
        logs, _ = run_curriculum(cfg, pool, learner, seed=seed)
        assert sum(entry.steps for entry in logs) == 600
