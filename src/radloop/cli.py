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
import datetime as _dt
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .augment import (
    DEFAULT_POLICY,
    AugPolicy,
    IntensityGrid,
    augment_instance,
    instance_seed,
    preprocess_eval,
)
from .core import (
    Task,
    atomic_write,
    config_from_json,
    instance_to_json,
    iter_jsonl,
    jsonl_lines,
    load_json,
    load_records_jsonl,
    record_to_json,
)
from .curriculum import (
    CurriculumConfig,
    CurriculumState,
    DecayParams,
    SamplingPool,
    SimulatedLearner,
    SourceMetrics,
    Strategy,
    advance_stage,
    draw_samples,
    initial_state,
    run_curriculum,
)
from .errors import ConfigError, FormatError, RadloopError
from .evalkit import evaluate_task
from .ingest import load_records
from .judge import (
    EndpointConfig,
    JudgeVerdict,
    aggregate_verdicts,
    aggregation_table,
    build_judge_prompt,
    call_judge,
    validate_verdict,
)
from .taskgen import expand_padchest_labels, render_instruction

log = logging.getLogger("radloop")

_INGEST_FORMATS = ("scene_graph", "phrase_boxes", "grounded_report", "detection")


@dataclass(frozen=True)
class ToolConfig:
    """Parsed ``--config`` document. Flags override individual fields."""

    version: int = 1
    seed: int | None = None
    parse_mode: str = "strict"
    curriculum: CurriculumConfig | None = None
    policy: AugPolicy | None = None
    endpoint: EndpointConfig | None = None

    @classmethod
    def from_json(cls, obj: Any) -> "ToolConfig":
        def section(from_json):
            return lambda value: from_json(value) if value else None

        return config_from_json(
            cls,
            obj,
            "config",
            version=int,
            seed=lambda value: None if value is None else int(value),
            parse_mode=str,
            curriculum=section(CurriculumConfig.from_json),
            policy=section(AugPolicy.from_json),
            endpoint=section(EndpointConfig.from_json),
        )


# ---------------------------------------------------------------------------
# Output plumbing


def _json_doc(obj: Mapping[str, Any]) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def _config_hash(args: argparse.Namespace, config_doc: Mapping[str, Any] | None) -> str:
    effective = {
        "args": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("handler", "log") and not callable(v)
        },
        "config": config_doc,
    }
    blob = json.dumps(effective, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(
    out_path: str | Path,
    args: argparse.Namespace,
    config_doc: Mapping[str, Any] | None,
) -> None:
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


def _emit(
    out_path: str | Path,
    text: str | Iterable[str],
    args: argparse.Namespace,
    config_doc: Mapping[str, Any] | None,
) -> None:
    atomic_write(out_path, text)
    _write_manifest(out_path, args, config_doc)
    log.info("wrote %s", out_path)


def _require_seed(args: argparse.Namespace, config: ToolConfig) -> int:
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise ConfigError(f"the {args.command} command needs --seed (or a config seed)")
    args.seed = int(seed)
    return args.seed


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(args, config, config_doc) -> None:
    records = load_records(args.in_path, args.format)
    _emit(args.out, jsonl_lines(record_to_json(r) for r in records), args, config_doc)


def _cmd_gen_tasks(args, config, config_doc) -> None:
    records = load_records_jsonl(args.records)
    if args.expand_labels:
        records = expand_padchest_labels(records)
    instances = (render_instruction(rec) for rec in records)
    _emit(args.out, jsonl_lines(instance_to_json(i) for i in instances), args, config_doc)


def _cmd_augment(args, config, config_doc) -> None:
    seed = _require_seed(args, config)
    policy = config.policy or DEFAULT_POLICY
    if args.policy:
        policy = load_json(args.policy, AugPolicy.from_json)
    records = load_records_jsonl(args.records)
    instances = (
        augment_instance(render_instruction(rec), policy, instance_seed(seed, rec.image_id, index))
        for index, rec in enumerate(records)
    )
    _emit(args.out, jsonl_lines(instance_to_json(i) for i in instances), args, config_doc)


def _metrics_from_json(doc: Any) -> dict[str, SourceMetrics]:
    if not isinstance(doc, list):
        raise FormatError(0, "a metrics file holds a JSON array of source metrics")
    metrics = {}
    for index, obj in enumerate(doc):
        if not isinstance(obj, dict):
            raise FormatError(0, f"metrics entry {index} must be an object")
        m = SourceMetrics.from_json(obj)
        metrics[m.source.key] = m
    return metrics


def _curriculum_config(args, config: ToolConfig) -> CurriculumConfig:
    cfg = config.curriculum or CurriculumConfig()
    overrides = {}
    for name in ("alpha", "warmup_steps", "reweight_interval", "total_steps", "min_prob"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    for name in ("inter_strategy", "intra_strategy"):
        value = getattr(args, name.replace("_strategy", ""), None)
        if value is not None:
            overrides[name] = Strategy(value)
    return replace(cfg, **overrides)


def _cmd_plan(args, config, config_doc) -> None:
    pool = SamplingPool.from_records(load_records_jsonl(args.records))
    cfg = _curriculum_config(args, config)
    state = initial_state(pool)
    if args.metrics:
        state = advance_stage(cfg, state, load_json(args.metrics, _metrics_from_json))
    doc = {"schema_version": 1, "state": state.to_json()}
    _emit(args.out, _json_doc(doc), args, config_doc)


def _cmd_sample(args, config, config_doc) -> None:
    seed = _require_seed(args, config)
    pool = SamplingPool.from_records(load_records_jsonl(args.records))
    state = load_json(args.plan, lambda doc: CurriculumState.from_json(doc["state"]))
    rng = np.random.default_rng(seed)
    rows = (
        {
            "image_id": rec.image_id,
            "source_id": rec.source_id,
            "task": rec.task.value,
            "category": rec.category,
        }
        for rec in draw_samples(state, pool, args.n, rng)
    )
    _emit(args.out, jsonl_lines(rows), args, config_doc)


def _cmd_simulate(args, config, config_doc) -> None:
    seed = _require_seed(args, config)
    pool = SamplingPool.from_records(load_records_jsonl(args.records))
    cfg = _curriculum_config(args, config)
    params = {}
    for key, ps in pool.sources.items():
        for task, cats in ps.subtasks.items():
            for cat in cats:
                params[(key, task, cat)] = DecayParams(args.e0, args.rate, args.floor)
    learner = SimulatedLearner(params)
    logs, state = run_curriculum(cfg, pool, learner, seed=seed)
    doc = {
        "schema_version": 1,
        "stages": [entry.to_json() for entry in logs],
        "final_state": state.to_json(),
    }
    _emit(args.out, _json_doc(doc), args, config_doc)


def _load_predictions(path: str | Path) -> dict[str, str]:
    preds: dict[str, str] = {}
    for line_no, obj in iter_jsonl(path):
        pid = obj.get("image_id") or obj.get("id")
        text = obj.get("output") if obj.get("output") is not None else obj.get("text")
        if not pid or text is None:
            raise FormatError(line_no, "prediction rows need image_id and output fields")
        pid = str(pid)
        if pid in preds:
            raise FormatError(line_no, f"duplicate prediction id {pid!r}")
        preds[pid] = str(text)
    return preds


def _cmd_eval(args, config, config_doc) -> None:
    mode = args.mode or config.parse_mode
    preds = _load_predictions(args.pred)
    gold = load_records_jsonl(args.gold)
    report = evaluate_task(preds, gold, Task(args.task), mode=mode, scorer=args.scorer)
    _emit(args.out, _json_doc(report.to_json()), args, config_doc)


def _endpoint_config(args, config: ToolConfig) -> EndpointConfig:
    if args.endpoint:
        return load_json(args.endpoint, EndpointConfig.from_json)
    if config.endpoint is not None:
        return config.endpoint
    raise ConfigError("the judge command needs --endpoint (or a config endpoint)")


def _cmd_judge(args, config, config_doc) -> None:
    endpoint = _endpoint_config(args, config)
    gold: dict[str, str] = {}
    for line_no, obj in iter_jsonl(args.gold):
        text = obj.get("text") if obj.get("text") is not None else obj.get("report")
        if not obj.get("image_id") or text is None:
            raise FormatError(line_no, "gold rows need image_id and text fields")
        gold[str(obj["image_id"])] = str(text)

    def verdict_rows() -> Iterator[dict[str, Any]]:
        failures = 0
        for total, (line_no, obj) in enumerate(iter_jsonl(args.pred), start=1):
            image_id = obj.get("image_id")
            anatomy = obj.get("anatomy")
            text = obj.get("text")
            if not image_id or not anatomy or text is None:
                raise FormatError(line_no, "pred rows need image_id, anatomy and text fields")
            if str(image_id) not in gold:
                raise FormatError(line_no, f"no gold report for image {image_id!r}")
            prompt = build_judge_prompt(str(text), gold[str(image_id)])
            raw = call_judge(prompt, endpoint)
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
            log.warning("%d of %d verdicts failed validation", failures, total)

    _emit(args.out, jsonl_lines(verdict_rows()), args, config_doc)


def _cmd_judge_aggregate(args, config, config_doc) -> None:
    pairs: list[tuple[str, JudgeVerdict]] = []
    failures = 0
    for line_no, obj in iter_jsonl(args.in_path):
        if "error" in obj:
            failures += 1
            continue
        if "anatomy" not in obj or "verdict" not in obj:
            raise FormatError(line_no, "verdict rows need anatomy and verdict fields")
        pairs.append((str(obj["anatomy"]), JudgeVerdict.from_json(obj["verdict"])))
    stats, mean = aggregate_verdicts(pairs)
    _emit(args.out, _json_doc(aggregation_table(stats, mean, failures)), args, config_doc)


def _cmd_preprocess(args, config, config_doc) -> None:
    grid = load_json(args.in_path, IntensityGrid.from_json)
    out = preprocess_eval(grid, resize=(args.resize_w, args.resize_h))
    _emit(args.out, _json_doc(out.to_json()), args, config_doc)


# ---------------------------------------------------------------------------
# Parser


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

    p = sub.add_parser("ingest", help="convert a raw annotation file to records")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", required=True, choices=_INGEST_FORMATS)
    common(p)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("gen-tasks", help="render records into instruction triplets")
    p.add_argument("--records", required=True)
    p.add_argument("--expand-labels", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_gen_tasks)

    p = sub.add_parser("augment", help="augment records and re-render responses")
    p.add_argument("--records", required=True)
    p.add_argument("--policy", help="JSON augmentation policy file")
    common(p)
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser("plan", help="compute sampling distributions for the next stage")
    p.add_argument("--records", required=True)
    p.add_argument("--metrics", help="JSON array of per-source metrics")
    p.add_argument("--inter", choices=[s.value for s in Strategy])
    p.add_argument("--intra", choices=[s.value for s in Strategy])
    p.add_argument("--alpha", type=float)
    p.add_argument("--min-prob", dest="min_prob", type=float)
    common(p)
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("sample", help="draw instances from a sampling plan")
    p.add_argument("--records", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("simulate", help="run the closed loop with a simulated learner")
    p.add_argument("--records", required=True)
    p.add_argument("--inter", choices=[s.value for s in Strategy])
    p.add_argument("--intra", choices=[s.value for s in Strategy])
    p.add_argument("--alpha", type=float)
    p.add_argument("--warmup-steps", dest="warmup_steps", type=int)
    p.add_argument("--reweight-interval", dest="reweight_interval", type=int)
    p.add_argument("--total-steps", dest="total_steps", type=int)
    p.add_argument("--e0", type=float, default=0.5)
    p.add_argument("--rate", type=float, default=1e-3)
    p.add_argument("--floor", type=float, default=0.05)
    common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("eval", help="score predictions against gold records")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--task", required=True, choices=[t.value for t in Task])
    p.add_argument("--mode", choices=("strict", "lenient"))
    p.add_argument("--scorer", default="lexical")
    common(p, seed=False)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("judge", help="collect judge verdicts for generated reports")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--endpoint", help="JSON endpoint config file")
    p.add_argument("--lenient", action="store_true")
    common(p, seed=False)
    p.set_defaults(handler=_cmd_judge)

    p = sub.add_parser("judge-aggregate", help="aggregate verdicts into a rate table")
    p.add_argument("--in", dest="in_path", required=True)
    common(p, seed=False)
    p.set_defaults(handler=_cmd_judge_aggregate)

    p = sub.add_parser("preprocess", help="run the deterministic evaluation image path")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--resize-w", type=int, default=448)
    p.add_argument("--resize-h", type=int, default=448)
    common(p, seed=False)
    p.set_defaults(handler=_cmd_preprocess)

    return parser


class _JsonLogFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(
            {
                "level": record.levelname.lower(),
                "logger": record.name,
                "message": record.getMessage(),
            },
            ensure_ascii=False,
        )


def _setup_logging(mode: str) -> None:
    root = logging.getLogger()
    for h in list(root.handlers):
        root.removeHandler(h)
    handler = logging.StreamHandler(sys.stderr)
    if mode == "json":
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.INFO)


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv, run the named subcommand, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    _setup_logging(args.log)

    config_doc: dict[str, Any] | None = None
    try:
        config = ToolConfig()
        if args.config:
            config_doc = load_json(args.config)
            config = ToolConfig.from_json(config_doc)
        args.handler(args, config, config_doc)
    except RadloopError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
