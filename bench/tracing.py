"""Spans around the calls into each radloop module, recorded from outside.

The package is not edited. ``Instrumentation`` rebinds the names callers
look up at call time (``radloop.cli.load_records_jsonl``,
``radloop.evalkit.parse_output``, ``radloop.curriculum.draw_sample``,
``requests.post``, ...) to wrappers that record a span per call, and puts
the originals back on exit. Spans live in memory on the ``Tracer`` and are
written out by the caller when the run ends.

The span stack is a plain list, so spans are only parented correctly for
calls made on one thread; every CLI stage runs on one thread.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from metrics import CLI_STAGES, EVAL_TASKS, INGEST_FORMATS, LAYERS


class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "run_id", "failed", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int = -1,
                 run_id: int = 0, failed: bool = False, attrs: dict[str, float] | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.failed = failed
        self.attrs = attrs

    def to_json(self) -> list[Any]:
        return [self.name, self.start, self.end, self.parent, self.run_id, self.failed, self.attrs]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._begin(name)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            self._end(span)

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             attrs: Callable[..., dict[str, float]] | None = None) -> Callable:
        """``fn`` recording one span per call. ``name`` may be computed from
        the call's arguments; ``attrs(args, kwargs, result)`` adds counts."""

        def traced(*args, **kwargs):
            span = self._begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._end(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """A generator function recording one span per item it yields."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._end(span)
                    return
                except BaseException:
                    span.failed = True
                    self._end(span)
                    raise
                self._end(span)
                span.attrs = {"lines": 1}
                yield item

        return traced


# ---------------------------------------------------------------------------
# Bindings


def _count_lines(path: Any) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _ingest_name(args: Sequence[Any], kwargs: dict[str, Any]) -> str:
    fmt = args[1] if len(args) > 1 else kwargs["format"]
    return f"ingest.load_records.{fmt}"


def _parse_name(args: Sequence[Any], kwargs: dict[str, Any]) -> str:
    task = args[1] if len(args) > 1 else kwargs["task"]
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "strict")
    return f"evalkit.parse_output.{task.value}.{mode}"


class Instrumentation:
    """Installs the span wrappers on enter and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []
        #: ``owner.attr`` names the package no longer has; their spans are
        #: missing, so the layer's numbers read low until the binding is updated.
        self.missing: list[str] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _present(self, owner: Any, attr: str) -> bool:
        if attr in vars(owner):
            return True
        self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return False

    def _func(self, owner: Any, attr: str, name: Any, attrs: Any = None) -> None:
        if self._present(owner, attr):
            self._set(owner, attr, self.tracer.wrap(getattr(owner, attr), name, attrs))

    def _classmethod(self, cls: type, attr: str, name: str) -> None:
        if self._present(cls, attr):
            self._set(cls, attr, staticmethod(self.tracer.wrap(getattr(cls, attr), name)))

    def __enter__(self) -> "Instrumentation":
        import requests
        from radloop import augment, cli, curriculum, evalkit

        t = self.tracer
        # core: the record codec as the CLI reaches it
        self._func(cli, "load_records_jsonl", "core.load_records_jsonl",
                   lambda a, k, r: {"records": len(r)})
        self._func(cli, "record_to_json", "core.record_to_json")
        self._func(cli, "instance_to_json", "core.instance_to_json")
        if self._present(cli, "iter_jsonl"):
            self._set(cli, "iter_jsonl", t.wrap_iter(cli.iter_jsonl, "core.iter_jsonl"))
        # ingest
        self._func(cli, "load_records", _ingest_name, lambda a, k, r: {"rows": _count_lines(a[0])})
        # taskgen: called by the CLI and by augment_instance
        self._func(cli, "render_instruction", "taskgen.render_instruction")
        self._func(augment, "render_instruction", "taskgen.render_instruction")
        # augment
        self._func(cli, "augment_instance", "augment.augment_instance",
                   lambda a, k, r: {"fallback": int(r is a[0])})
        self._func(cli, "instance_seed", "augment.instance_seed")
        self._func(cli, "preprocess_eval", "augment.preprocess_eval")
        self._func(augment, "clahe", "augment.clahe")
        self._func(augment, "resize_bilinear", "augment.resize_bilinear")
        self._classmethod(augment.IntensityGrid, "from_json", "augment.grid_from_json")
        self._func(augment.IntensityGrid, "to_json", "augment.grid_to_json")
        # curriculum
        self._classmethod(curriculum.SamplingPool, "from_records", "curriculum.pool_from_records")
        self._classmethod(curriculum.CurriculumState, "from_json", "curriculum.state_from_json")
        for owner in (cli, curriculum):
            self._func(owner, "initial_state", "curriculum.initial_state")
            self._func(owner, "advance_stage", "curriculum.advance_stage")
        self._func(cli, "draw_samples", "curriculum.draw_samples")
        self._func(cli, "run_curriculum", "curriculum.run_curriculum")
        self._func(curriculum, "draw_sample", "curriculum.draw_sample")
        self._func(curriculum, "select_eval_subset", "curriculum.select_eval_subset")
        self._func(curriculum.SimulatedLearner, "evaluate", "curriculum.learner_evaluate")
        self._func(curriculum.SimulatedLearner, "observe", "curriculum.learner_observe")
        # evalkit
        self._func(cli, "evaluate_task", "evalkit.evaluate_task")
        self._func(evalkit, "parse_output", _parse_name,
                   lambda a, k, r: {"salvaged": int(r.salvaged)})
        self._func(evalkit, "grounding_iou", "evalkit.grounding_iou")
        self._func(evalkit, "union_area", "evalkit.union_area",
                   lambda a, k, r: {"boxes": len(a[0])})
        if self._present(evalkit, "get_scorer"):
            get_scorer = evalkit.get_scorer
            self._set(evalkit, "get_scorer",
                      lambda name: t.wrap(get_scorer(name), "evalkit.text_score"))
        # judge
        self._func(cli, "build_judge_prompt", "judge.build_judge_prompt")
        self._func(cli, "call_judge", "judge.call_judge")
        self._func(requests, "post", "judge.transport",
                   lambda a, k, r: {"status_503": int(r.status_code == 503)})
        self._func(cli, "validate_verdict", "judge.validate_verdict")
        self._classmethod(cli.JudgeVerdict, "from_json", "judge.verdict_from_json")
        self._func(cli, "aggregate_verdicts", "judge.aggregate_verdicts")
        self._func(cli, "aggregation_table", "judge.aggregation_table")
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derived numbers


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.end - span.start - covered)
    return out


class _Agg:
    __slots__ = ("calls", "self_s", "dur_s", "failed", "sums", "maxes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.dur_s = 0.0
        self.failed = 0
        self.sums: dict[str, float] = {}
        self.maxes: dict[str, float] = {}


def aggregate(spans: Sequence[Span]) -> dict[str, _Agg]:
    """Per span name: calls, self and total time, failures, attribute sums and maxima."""
    out: dict[str, _Agg] = {}
    for span, self_s in zip(spans, self_times(spans)):
        agg = out.get(span.name)
        if agg is None:
            agg = out[span.name] = _Agg()
        agg.calls += 1
        agg.self_s += self_s
        agg.dur_s += span.end - span.start
        agg.failed += span.failed
        for key, value in (span.attrs or {}).items():
            agg.sums[key] = agg.sums.get(key, 0) + value
            agg.maxes[key] = max(agg.maxes.get(key, value), value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], runs: int, stub: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of ``metrics.PER_LAYER`` (except the trace
    overhead) over ``runs`` traced chains. ``stub`` holds the stub endpoint's
    counters summed over the same chains (empty when no stub ran)."""
    agg = aggregate(spans)
    empty = _Agg()

    def g(name: str) -> _Agg:
        return agg.get(name, empty)

    def per_call(name: str, scale: float) -> float:
        return scale * _ratio(g(name).self_s, g(name).calls)

    m: dict[str, float] = {
        "core.load_records_jsonl.us_per_record": 1e6 * _ratio(
            g("core.load_records_jsonl").self_s, g("core.load_records_jsonl").sums.get("records", 0)),
        "core.record_to_json.us_per_record": per_call("core.record_to_json", 1e6),
        "core.instance_to_json.us_per_instance": per_call("core.instance_to_json", 1e6),
        "core.iter_jsonl.us_per_line": 1e6 * _ratio(
            g("core.iter_jsonl").self_s, g("core.iter_jsonl").sums.get("lines", 0)),
    }
    for fmt in INGEST_FORMATS:
        a = g(f"ingest.load_records.{fmt}")
        m[f"ingest.load_records.us_per_row.{fmt}"] = 1e6 * _ratio(a.self_s, a.sums.get("rows", 0))
    grid_json = g("augment.grid_from_json").self_s + g("augment.grid_to_json").self_s
    m.update({
        "taskgen.render_instruction.us_per_call": per_call("taskgen.render_instruction", 1e6),
        "augment.augment_instance.self_us": per_call("augment.augment_instance", 1e6),
        "augment.fallback_ratio": _ratio(g("augment.augment_instance").sums.get("fallback", 0),
                                         g("augment.augment_instance").calls),
        "augment.clahe.ms_per_grid": per_call("augment.clahe", 1e3),
        "augment.resize_bilinear.ms_per_grid": per_call("augment.resize_bilinear", 1e3),
        "augment.grid_json.ms_per_grid": 1e3 * _ratio(grid_json, g("augment.grid_from_json").calls),
        "curriculum.pool_from_records.ms": per_call("curriculum.pool_from_records", 1e3),
        "curriculum.draw_sample.us_per_draw": per_call("curriculum.draw_sample", 1e6),
        "curriculum.advance_stage.ms_per_stage": per_call("curriculum.advance_stage", 1e3),
        "curriculum.select_eval_subset.ms_per_stage": 1e3 * _ratio(
            g("curriculum.select_eval_subset").self_s, g("curriculum.learner_evaluate").calls),
        "curriculum.learner_evaluate.ms_per_stage": per_call("curriculum.learner_evaluate", 1e3),
    })
    salvaged = strict_failed = lenient_calls = strict_calls = 0
    for task in EVAL_TASKS:
        for mode in ("strict", "lenient"):
            a = g(f"evalkit.parse_output.{task}.{mode}")
            m[f"evalkit.parse_output.us_per_call.{task}.{mode}"] = 1e6 * _ratio(a.self_s, a.calls)
            if mode == "strict":
                strict_failed += a.failed
                strict_calls += a.calls
            else:
                salvaged += a.sums.get("salvaged", 0)
                lenient_calls += a.calls
    union = g("evalkit.union_area")
    m.update({
        "evalkit.salvage_ratio": _ratio(salvaged, lenient_calls),
        "evalkit.strict_failure_ratio": _ratio(strict_failed, strict_calls),
        # Inclusive of the union_area children: the whole geometry cost per call.
        "evalkit.grounding_iou.us_per_call": 1e6 * _ratio(
            g("evalkit.grounding_iou").dur_s, g("evalkit.grounding_iou").calls),
        "evalkit.union_area.boxes_per_call.mean": _ratio(union.sums.get("boxes", 0), union.calls),
        "evalkit.union_area.boxes_per_call.max": union.maxes.get("boxes", 0),
        "evalkit.text_score.us_per_call": per_call("evalkit.text_score", 1e6),
        "evalkit.evaluate_task.self_ms": per_call("evalkit.evaluate_task", 1e3),
        "judge.call_judge.self_us": per_call("judge.call_judge", 1e6),
        "judge.transport.wait_ms": 1e3 * _ratio(g("judge.transport").dur_s, g("judge.transport").calls),
        "judge.cache_hit_ratio": (1.0 - _ratio(stub.get("requests", 0), g("judge.call_judge").calls)
                                  if g("judge.call_judge").calls else 0.0),
        "judge.retry_count": _ratio(stub.get("status_503", 0), runs),
        "judge.max_in_flight": stub.get("max_in_flight", 0),
        "judge.validate_verdict.us_per_call": per_call("judge.validate_verdict", 1e6),
        "judge.verdict_failures": _ratio(g("judge.validate_verdict").failed, runs),
        "judge.aggregate_verdicts.ms": per_call("judge.aggregate_verdicts", 1e3),
    })
    for stage in CLI_STAGES:
        m[f"cli.{stage.replace('-', '_')}.self_s"] = per_call(f"cli.{stage}", 1.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, a in agg.items():
        layer_self[name.split(".", 1)[0]] += a.self_s
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = _ratio(layer_self[layer], runs)
    return m
