"""Command line entry point.

One process runs one subcommand. Outputs are written atomically (temp file
in the target directory, then rename) and every output file gets a sibling
``<out>.manifest.json`` recording the tool version, the command, the seed,
and a hash of the effective configuration. Two runs with the same config
and seed produce byte-identical primary outputs; only manifest timestamps
may differ.

Exit codes: 0 success, 1 domain error (bad data, failed validation,
unreachable endpoint), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__

#: The parser's choices, literal so that parsing imports no subcommand module.
_TASKS = ("pg", "grg", "agrg_locate", "agrg_describe", "agrg_both")
_STRATEGIES = ("natural", "uniform", "curriculum")
_INGEST_FORMATS = ("scene_graph", "phrase_boxes", "grounded_report", "detection")


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radloop",
        description="Grounded-radiology task generation, curriculum sampling and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"radloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seed: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--log", choices=("plain", "json"), default="plain")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    def strategies(p: argparse.ArgumentParser) -> None:
        p.add_argument("--inter", choices=_STRATEGIES)
        p.add_argument("--intra", choices=_STRATEGIES)
        p.add_argument("--alpha", type=float)

    p = sub.add_parser("ingest", help="convert a raw annotation file to records")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", required=True, choices=_INGEST_FORMATS)
    common(p)

    p = sub.add_parser("gen-tasks", help="render records into instruction triplets")
    p.add_argument("--records", required=True)
    p.add_argument("--expand-labels", action="store_true")
    common(p)

    p = sub.add_parser("augment", help="augment records and re-render responses")
    p.add_argument("--records", required=True)
    p.add_argument("--policy", help="JSON augmentation policy file")
    common(p)

    p = sub.add_parser("plan", help="compute sampling distributions for the next stage")
    p.add_argument("--records", required=True)
    p.add_argument("--metrics", help="JSON array of per-source metrics")
    strategies(p)
    common(p)

    p = sub.add_parser("sample", help="draw instances from a sampling plan")
    p.add_argument("--records", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("simulate", help="run the closed loop with a simulated learner")
    p.add_argument("--records", required=True)
    strategies(p)
    p.add_argument("--warmup-steps", dest="warmup_steps", type=int)
    p.add_argument("--reweight-interval", dest="reweight_interval", type=int)
    p.add_argument("--total-steps", dest="total_steps", type=int)
    p.add_argument("--e0", type=float, default=0.5)
    p.add_argument("--rate", type=float, default=1e-3)
    p.add_argument("--floor", type=float, default=0.05)
    common(p)

    p = sub.add_parser("eval", help="score predictions against gold records")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--task", required=True, choices=_TASKS)
    p.add_argument("--mode", choices=("strict", "lenient"))
    p.add_argument("--scorer", default="lexical")
    common(p, seed=False)

    p = sub.add_parser("judge", help="collect judge verdicts for generated reports")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--endpoint", help="JSON endpoint config file")
    p.add_argument("--lenient", action="store_true")
    common(p, seed=False)

    p = sub.add_parser("judge-aggregate", help="aggregate verdicts into a rate table")
    p.add_argument("--in", dest="in_path", required=True)
    common(p, seed=False)

    p = sub.add_parser("preprocess", help="run the deterministic evaluation image path")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--resize-w", type=int, default=448)
    p.add_argument("--resize-h", type=int, default=448)
    common(p, seed=False)

    return parser


# Run as ``__main__``, the module parses argv before it imports the subcommand
# modules below, so --version, --help and usage errors exit loading none.
if __name__ == "__main__":
    _MAIN_ARGS = _build_parser().parse_args()

import datetime as _dt
import hashlib
import json
import logging
from dataclasses import dataclass, fields, replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .augment import (
    DEFAULT_POLICY,
    AugPolicy,
    IntensityGrid,
    augment_instance,
    instance_seed,
    preprocess_eval,
)
from .core import (
    AnnotationRecord,
    Rule,
    Rules,
    Task,
    atomic_write,
    check_fields,
    config_from_json,
    expect,
    instance_to_json,
    iter_jsonl,
    jsonl_lines,
    judge_gold_from_json,
    judge_pred_from_json,
    load_json,
    load_records_jsonl,
    one_of,
    prediction_from_json,
    record_from_json,
    record_to_json,
    ruled,
    seeded,
)
from .curriculum import (
    CurriculumConfig,
    DecayParams,
    SamplingPool,
    SimulatedLearner,
    advance_stage,
    draw_samples,
    initial_state,
    metrics_from_json,
    plan_from_json,
    run_curriculum,
)
from .errors import ConfigError, FormatError, RadloopError
from .evalkit import _SCORERS, evaluate_task
from .ingest import load_records
from .judge import (
    EndpointConfig,
    JudgeVerdict,
    aggregate_verdicts,
    aggregation_table,
    build_judge_prompt,
    cached_reply,
    call_judge,
    validate_verdict,
    verdict_row_from_json,
)
from .taskgen import expand_padchest_labels, render_instruction

log = logging.getLogger("radloop")


@dataclass(frozen=True)
class ToolConfig:
    """Parsed ``--config`` document. Flags override individual fields."""

    version: int = ruled(Rules.VERSION, 1)
    seed: int | None = ruled(Rules.NON_NEGATIVE_INT, None)
    parse_mode: str = ruled((lambda v: v in ("strict", "lenient"), "'strict' or 'lenient'"), "strict")
    curriculum: CurriculumConfig | None = None
    policy: AugPolicy | None = None
    endpoint: EndpointConfig | None = None

    def __post_init__(self) -> None:
        check_fields(self, ConfigError, "the config ")

    @classmethod
    def from_json(cls, obj: Any) -> "ToolConfig":
        def section(from_json):
            return lambda value: None if value is None or value == {} else from_json(value)

        return config_from_json(
            cls,
            obj,
            "config",
            curriculum=section(CurriculumConfig.from_json),
            policy=section(AugPolicy.from_json),
            endpoint=section(EndpointConfig.from_json),
        )


# ---------------------------------------------------------------------------
# Output plumbing


def _json_doc(obj: Mapping[str, Any]) -> Iterator[str]:
    """Encode a whole-file document as it is written, never as one string.

    The indenting encoder yields a few characters per chunk, so chunks are
    joined in blocks: one write per chunk costs more than the join saves.
    """
    chunks = json.JSONEncoder(ensure_ascii=False, indent=2).iterencode(obj)
    while block := "".join(islice(chunks, 4096)):
        yield block
    yield "\n"


def _records(path: str | Path) -> Iterator[AnnotationRecord]:
    """Decode a records file one record at a time, as strictly as
    ``load_records_jsonl``: a consumer holds only what it keeps."""
    for line_no, obj in iter_jsonl(path):
        yield record_from_json(obj, line_no)


def _config_hash(args: argparse.Namespace, config_doc: Mapping[str, Any] | None) -> str:
    effective = {
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "log"},
        "config": config_doc,
    }
    blob = json.dumps(effective, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _emit(
    out_path: str | Path,
    text: str | Iterable[str],
    args: argparse.Namespace,
    config_doc: Mapping[str, Any] | None,
) -> None:
    """Write a primary output, then its sibling ``<out>.manifest.json``."""
    atomic_write(out_path, text)
    manifest = {
        "schema_version": 1,
        "tool": "radloop",
        "tool_version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "config_hash": _config_hash(args, config_doc),
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    atomic_write(f"{out_path}.manifest.json", _json_doc(manifest))
    log.info("wrote %s", out_path)


def _require_seed(args: argparse.Namespace, config: ToolConfig) -> int:
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise ConfigError(f"the {args.command} command needs --seed (or a config seed)")
    args.seed = int(seed)
    return args.seed


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its primary output's chunks, which _run
# writes with the manifest.


def _cmd_ingest(args, config) -> Iterable[str]:
    records = load_records(args.in_path, args.format)
    return jsonl_lines(record_to_json(r) for r in records)


def _cmd_gen_tasks(args, config) -> Iterable[str]:
    records = _records(args.records)
    if args.expand_labels:
        records = expand_padchest_labels(records)
    instances = (render_instruction(rec) for rec in records)
    return jsonl_lines(instance_to_json(i) for i in instances)


def _cmd_augment(args, config) -> Iterable[str]:
    seed = _require_seed(args, config)
    policy = config.policy or DEFAULT_POLICY
    if args.policy:
        policy = load_json(args.policy, AugPolicy.from_json)
    records = _records(args.records)
    instances = (
        augment_instance(render_instruction(rec), policy, instance_seed(seed, rec.image_id, index))
        for index, rec in enumerate(records)
    )
    return jsonl_lines(instance_to_json(i) for i in instances)


def _curriculum_config(args, config: ToolConfig) -> CurriculumConfig:
    cfg = config.curriculum or CurriculumConfig()
    flags = {f.name: getattr(args, f.name.removesuffix("_strategy"), None) for f in fields(cfg)}
    return replace(cfg, **{name: v for name, v in flags.items() if v is not None})


def _cmd_plan(args, config) -> Iterable[str]:
    pool = SamplingPool.from_records(_records(args.records))
    cfg = _curriculum_config(args, config)
    state = initial_state(pool)
    if args.metrics:
        state = advance_stage(cfg, state, load_json(args.metrics, metrics_from_json))
    doc = {"schema_version": 1, "state": state.to_json()}
    return _json_doc(doc)


def _cmd_sample(args, config) -> Iterable[str]:
    seed = _require_seed(args, config)
    pool = SamplingPool.from_records(_records(args.records))
    state = load_json(args.plan, plan_from_json)
    draws = draw_samples(state, pool, args.n, seeded(seed))
    return jsonl_lines({**draw._asdict(), "task": draw.task.value} for draw in draws)


def _cmd_simulate(args, config) -> Iterable[str]:
    seed = _require_seed(args, config)
    pool = SamplingPool.from_records(_records(args.records))
    cfg = _curriculum_config(args, config)
    leaves = ((key, task, cat) for key, ps in pool.sources.items()
              for task, cats in ps.subtasks.items() for cat in cats)
    learner = SimulatedLearner(dict.fromkeys(leaves, DecayParams(args.e0, args.rate, args.floor)))
    logs, state = run_curriculum(cfg, pool, learner, seed=seed)
    doc = {
        "schema_version": 1,
        "stages": [entry.to_json() for entry in logs],
        "final_state": state.to_json(),
    }
    return _json_doc(doc)


def _by_id(path: str | Path, decode: Callable[..., tuple[str, str]], what: str) -> dict[str, str]:
    """Decode ``(image_id, text)`` rows into a dict; a repeated id is a FormatError."""
    texts: dict[str, str] = {}
    for line_no, obj in iter_jsonl(path):
        image_id, text = decode(obj, line_no)
        if image_id in texts:
            raise FormatError(line_no, f"duplicate {what} id {image_id!r}")
        texts[image_id] = text
    return texts


def _cmd_eval(args, config) -> Iterable[str]:
    mode = args.mode or config.parse_mode
    preds = _by_id(args.pred, prediction_from_json, "prediction")
    gold = load_records_jsonl(args.gold)
    report = evaluate_task(preds, gold, Task(args.task), mode=mode, scorer=args.scorer)
    return _json_doc(report.to_json())


def _cmd_judge(args, config) -> Iterable[str]:
    endpoint = load_json(args.endpoint, EndpointConfig.from_json) if args.endpoint else config.endpoint
    if endpoint is None:
        raise ConfigError("the judge command needs --endpoint (or a config endpoint)")
    gold = _by_id(args.gold, judge_gold_from_json, "gold")
    pred: list[tuple[str, str, str]] = []  # every row is checked before the first request
    for line_no, obj in iter_jsonl(args.pred):
        image_id, anatomy, text = judge_pred_from_json(obj, line_no)
        if image_id not in gold:
            raise FormatError(line_no, f"no gold report for image {image_id!r}")
        pred.append((image_id, anatomy, text))

    def replies() -> Iterator[tuple[str, str, str]]:
        """(image_id, anatomy, reply) per row in file order, from a window of at most ``parallelism``
        rows: the main thread fetches the oldest unless a helper has it; helpers take the rows behind."""
        window, fetches, pool = [], {}, None
        try:
            for i, (image_id, anatomy, _) in enumerate(pred):
                for behind_id, _, text in pred[i + len(window):i + endpoint.parallelism]:
                    window.append(prompt := build_judge_prompt(text, gold[behind_id]))
                    fetches.setdefault(prompt, None)  # None: unfetched; a repeated prompt shares it
                prompt = window.pop(0)
                if (fetch := fetches[prompt]) is None:  # hand the rows behind to helpers first
                    for behind in [p for p, f in fetches.items() if f is None and p != prompt]:
                        if (fetched := cached_reply(behind, endpoint)) is None:  # a hit needs no helper
                            if pool is None:
                                from concurrent.futures import ThreadPoolExecutor
                                pool = ThreadPoolExecutor(endpoint.parallelism - 1)
                            fetched = pool.submit(call_judge, behind, endpoint)
                        fetches[behind] = fetched
                if not isinstance(fetch, str):
                    fetches[prompt] = call_judge(prompt, endpoint) if fetch is None else fetch.result()
                shared = prompt in window
                yield image_id, anatomy, fetches[prompt] if shared else fetches.pop(prompt)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def verdict_rows() -> Iterator[dict[str, Any]]:
        failures = 0
        for image_id, anatomy, raw in replies():
            row: dict[str, Any] = {"image_id": image_id, "anatomy": anatomy}
            try:
                row["verdict"] = validate_verdict(raw, lenient=args.lenient).to_json()
            except RadloopError as exc:
                failures += 1
                row["error"] = str(exc)
                row["raw"] = raw
                log.warning("verdict for %s/%s failed validation: %s", image_id, anatomy, exc)
            yield row
        if failures:
            log.warning("%d of %d verdicts failed validation", failures, len(pred))

    return jsonl_lines(verdict_rows())


def _cmd_judge_aggregate(args, config) -> Iterable[str]:
    pairs: list[tuple[str, JudgeVerdict]] = []
    failures = 0
    for line_no, obj in iter_jsonl(args.in_path):
        anatomy, verdict = verdict_row_from_json(obj, line_no)
        if verdict is None:
            failures += 1
        else:
            pairs.append((anatomy, verdict))
    stats, mean = aggregate_verdicts(pairs)
    return _json_doc(aggregation_table(stats, mean, failures))


def _cmd_preprocess(args, config) -> Iterable[str]:
    grid = load_json(args.in_path, IntensityGrid.from_json)
    out = preprocess_eval(grid, resize=(args.resize_w, args.resize_h))
    return _json_doc(out.to_json())


def _flag_rules() -> dict[str, Rule]:
    """Each checked flag's rule by its ``dest``: a flag that sets a config field keeps its rule."""
    return {f.name: f.metadata["rule"] for cls in (ToolConfig, CurriculumConfig, DecayParams)
            for f in fields(cls) if "rule" in f.metadata} | {
        "n": (lambda v: v >= 0, ">= 0"), "resize_w": Rules.POSITIVE_INT,
        "resize_h": Rules.POSITIVE_INT, "scorer": one_of(*_SCORERS)}


_HANDLERS = {
    "ingest": _cmd_ingest, "gen-tasks": _cmd_gen_tasks, "augment": _cmd_augment,
    "plan": _cmd_plan, "sample": _cmd_sample, "simulate": _cmd_simulate, "eval": _cmd_eval,
    "judge": _cmd_judge, "judge-aggregate": _cmd_judge_aggregate, "preprocess": _cmd_preprocess,
}


class _JsonLogFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        obj = {"level": record.levelname.lower(), "logger": record.name, "message": record.getMessage()}
        return json.dumps(obj, ensure_ascii=False)


def _setup_logging(mode: str) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLogFormatter() if mode == "json"
                         else logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(handlers=[handler], level=logging.INFO, force=True)


def _run(args: argparse.Namespace) -> int:
    """Run a parsed subcommand and map errors to exit codes."""
    _setup_logging(args.log)

    config_doc: dict[str, Any] | None = None
    try:
        for dest, rule in _flag_rules().items():  # every flag, before any input is read
            if getattr(args, dest, None) is not None:
                expect(rule, getattr(args, dest), "--" + dest.replace("_", "-"), ConfigError)
        config = ToolConfig()
        if args.config:
            config_doc = load_json(args.config)
            config = ToolConfig.from_json(config_doc)
        _emit(args.out, _HANDLERS[args.command](args, config), args, config_doc)
    except (RadloopError, OSError, ValueError, KeyError, MemoryError) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1
    return 0


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv, run the named subcommand, and map errors to exit codes."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return _run(args)


if __name__ == "__main__":
    sys.exit(_run(_MAIN_ARGS))
