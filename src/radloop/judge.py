"""Hallucination/NLI judge client: prompt assembly, endpoint calls, verdict
validation, and per-anatomy aggregation.

The judge itself is an external LLM endpoint reached over HTTP. This module
only builds the prompt, ships the bytes, and checks what comes back; any
endpoint that accepts ``POST {"model": ..., "prompt": ...}`` and answers
with text works, and tests can inject a transport function instead.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from threading import TIMEOUT_MAX
from typing import Any, Callable, Iterable, Mapping, Sequence

from .core import (Rules, atomic_write, check_fields, config_from_json, decode_json, get_str,
                   group_means, is_int, is_number, mean, ruled)
from .errors import (
    EmptyInput,
    FormatError,
    IllegalValue,
    JudgeTimeout,
    MalformedJson,
    MissingField,
    RetriesExhausted,
    TransportError,
)

log = logging.getLogger(__name__)

#: Instruction block sent to the judge endpoint ahead of the two reports.
#: Byte-stable: downstream caching keys on the exact prompt content.
JUDGE_PROMPT = """You are an expert radiologist. Your task is to compare a short anatomy-specific mini-report [GEN] against a full image ground-truth report [GT], where [GT] was generated by a radiologist over the entire image, whereas [GEN] was generated by a model over a specific anatomical location. You will assess the degree of hallucination and contradiction in [GEN] compared to [GT].

First, independently assess each report:
- If [GT] explicitly affirms the presence of any abnormality, set "gt_has_abnormalities" to "yes". Otherwise, set it to "no".
- If [GT] explicitly affirms the presence of any medical device (e.g., pacemaker, catheter, wires), set "gt_has_devices" to "yes". Otherwise, set it to "no".
- If [GEN] explicitly affirms the presence of any abnormality, set "gen_has_abnormalities" to "yes". Otherwise, set it to "no".
- If [GEN] explicitly affirms the presence of any medical device (e.g., pacemaker, catheter, wires), set "gen_has_devices" to "yes". Otherwise, set it to "no".

Next, perform the comparison based on [GT]:
- If [GEN] affirms the presence of an abnormality and this is clearly supported or reasonably suggested by [GT], set "gen_has_correct_abnormalities" to "yes". Otherwise, set it to "no".
- If [GEN] affirms the presence of an abnormality that is NOT affirmed nor supported by [GT], set "gen_has_hallucinated_abnormalities" to "yes". Otherwise, set it to "no".
- If [GEN] affirms the presence of a device that is clearly supported or reasonably suggested by [GT], set "gen_has_correct_devices" to "yes". Otherwise, set it to "no".
- If [GEN] affirms the presence of a device that is NOT affirmed nor supported by [GT], set "gen_has_hallucinated_devices" to "yes". Otherwise, set it to "no".
- Natural Language Inference:
    - If [GEN] makes at least one explicit statement that is clearly contradicted by [GT], set "nli_status" to "contradiction".
    - If all of [GEN]'s explicit statements are reasonably supported by [GT], set "nli_status" to "entailment".
    - Otherwise, set "nli_status" to "neutral".

You must respond ONLY with a single, valid JSON object in the following format. Do not add any text before or after the JSON object.

{
    "reason": "A detailed explanation of your reasoning for the comparison. Include a brief explanation of why you made your choices for each field. Focus on what is explicitly stated in [GEN] and [GT]. Do not make any assumptions about what is not explicitly stated.",
    "gt_has_abnormalities": "yes" | "no",
    "gt_has_devices": "yes" | "no",
    "gen_has_abnormalities": "yes" | "no",
    "gen_has_devices": "yes" | "no",
    "gen_has_correct_abnormalities": "yes" | "no",
    "gen_has_hallucinated_abnormalities": "yes" | "no",
    "gen_has_correct_devices": "yes" | "no",
    "gen_has_hallucinated_devices": "yes" | "no",
    "nli_status": "contradiction" | "entailment" | "neutral"
}"""

def build_judge_prompt(gen: str, gt_report: str) -> str:
    """Assemble the full judge prompt for one (generation, ground truth) pair."""
    if not gen:
        raise EmptyInput("gen must be a non-empty string")
    if not gt_report:
        raise EmptyInput("gt_report must be a non-empty string")
    return f"{JUDGE_PROMPT}\n\n[GEN]:\n{gen}\n\n[GT]:\n{gt_report}\n"


@dataclass(frozen=True)
class JudgeVerdict:
    """One validated judge response."""

    reason: str
    gt_has_abnormalities: str
    gt_has_devices: str
    gen_has_abnormalities: str
    gen_has_devices: str
    gen_has_correct_abnormalities: str
    gen_has_hallucinated_abnormalities: str
    gen_has_correct_devices: str
    gen_has_hallucinated_devices: str
    nli_status: str

    def to_json(self) -> dict[str, str]:
        return vars(self).copy()

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "JudgeVerdict":
        return _verdict_from_mapping(obj, lenient=False)


#: Legal values of every enum field of a verdict, in validation order.
_LEGAL_VALUES = {
    f.name: ("contradiction", "entailment", "neutral") if f.name == "nli_status" else ("yes", "no")
    for f in fields(JudgeVerdict)
    if f.name != "reason"
}


def _verdict_from_mapping(obj: Mapping[str, Any], lenient: bool) -> JudgeVerdict:
    reason = obj.get("reason")
    if reason is None:
        raise MissingField("verdict has no field 'reason'")
    if not isinstance(reason, str):
        raise IllegalValue(f"field 'reason' holds {reason!r:.60}; it must be a string")
    values: dict[str, str] = {"reason": reason}
    for name, legal in _LEGAL_VALUES.items():
        raw = obj.get(name)
        if raw is None:
            raise MissingField(f"verdict has no field {name!r}")
        value = raw.strip().lower() if lenient and isinstance(raw, str) else raw
        if value not in legal:
            raise IllegalValue(f"field {name!r} holds {raw!r:.60}; legal: {', '.join(legal)}")
        values[name] = value
    return JudgeVerdict(**values)


def validate_verdict(raw: str, lenient: bool = False) -> JudgeVerdict:
    """Parse and type-check the first JSON object found in a judge response.

    Strict mode requires the exact lowercase enum strings; ``lenient``
    tolerates casing and surrounding whitespace in enum values (real LLM
    output drifts in casing) but never invents missing fields.
    """
    start = raw.find("{")
    if start < 0:
        raise MalformedJson("no JSON object found in response")
    try:
        obj = decode_json(raw, start=start)
    except FormatError as exc:
        raise MalformedJson(f"invalid JSON in response: {exc.__cause__}") from exc
    return _verdict_from_mapping(obj, lenient=lenient)


def verdict_row_from_json(obj: Mapping[str, Any], line: int) -> tuple[str, JudgeVerdict | None]:
    """Decode one ``judge`` output row, ``{"image_id", "anatomy", "verdict": {...}}``
    or ``{"image_id", "anatomy", "error": str}``, into (anatomy, verdict or None)."""
    get_str(obj, "image_id", line)
    anatomy = get_str(obj, "anatomy", line)
    if "error" in obj:
        get_str(obj, "error", line)
        return anatomy, None
    verdict = obj.get("verdict")
    if not isinstance(verdict, dict):
        raise FormatError(line, "field 'verdict' must be an object")
    return anatomy, JudgeVerdict.from_json(verdict)


# ---------------------------------------------------------------------------
# Endpoint client

#: A transport takes (url, payload, timeout, headers) and returns the
#: response body as text; any exception it raises is a TransportError, and
#: a TimeoutError, raised bare or as a ``URLError``'s ``reason`` (urllib's
#: connect timeout), is a JudgeTimeout. The default transport POSTs with
#: ``urllib.request``.
Transport = Callable[[str, Mapping[str, Any], float, Mapping[str, str]], str]


@dataclass(frozen=True)
class EndpointConfig:
    # urllib, which sends the request, would also read file:, data: and ftp: URLs.
    url: str = ruled((lambda v: isinstance(v, str) and v.lower().startswith(("http://", "https://")),
                      "an http or https URL"))
    model: str = ruled(Rules.TEXT)
    timeout: float = ruled((lambda v: is_number(v) and 0 < v <= TIMEOUT_MAX,
                            f"a number in (0, {TIMEOUT_MAX}]"), 60.0)
    max_retries: int = ruled(Rules.NON_NEGATIVE_INT, 2)
    backoff: float = ruled(Rules.NON_NEGATIVE, 0.5)
    api_key_env: str | None = ruled(Rules.TEXT, None)
    cache_dir: str | None = ruled((lambda v: isinstance(v, str) and v != "", "a non-empty string"), None)
    parallelism: int = ruled((lambda v: is_int(v) and 1 <= v <= 32, "an integer in [1, 32]"), 1)

    def __post_init__(self) -> None:
        check_fields(self)
        n = self.max_retries - 1  # the last wait is backoff * 2**n; exponents first: 2**n overflows
        if self.backoff and n >= 0 and (math.frexp(self.backoff)[1] + n > math.frexp(TIMEOUT_MAX)[1]
                                        or math.ldexp(self.backoff, n) > TIMEOUT_MAX):
            raise ValueError(f"the last wait, backoff * 2**(max_retries - 1), must be at most {TIMEOUT_MAX}")

    @classmethod
    def from_json(cls, obj: Any) -> "EndpointConfig":
        return config_from_json(cls, obj, "endpoint")


def request_hash(prompt: str, model: str) -> str:
    """Content hash identifying one judge request (prompt bytes + model)."""
    h = hashlib.sha256()
    h.update(model.encode("utf-8"))
    h.update(b"\x00")
    h.update(prompt.encode("utf-8"))
    return h.hexdigest()


def _cache_file(config: EndpointConfig, req_hash: str) -> Path:
    """The file that caches a request's reply: ``cache_dir/<request_hash>.txt``."""
    return Path(config.cache_dir) / f"{req_hash}.txt"


def cached_reply(prompt: str, config: EndpointConfig) -> str | None:
    """The reply to ``prompt`` cached in ``config.cache_dir``, bad bytes as U+FFFD; else None."""
    if config.cache_dir is None:
        return None
    path = _cache_file(config, request_hash(prompt, config.model))
    return path.read_text(encoding="utf-8", errors="replace") if path.exists() else None


def _default_transport(
    url: str, payload: Mapping[str, Any], timeout: float, headers: Mapping[str, str]
) -> str:
    from urllib import error, request
    req = request.Request(url, json.dumps(dict(payload)).encode("utf-8"), dict(headers))
    try:
        with request.urlopen(req, timeout=timeout) as response:
            body, charset = response.read(), response.headers.get_content_charset("utf-8")
    except error.HTTPError as exc:  # status >= 400, or a redirect urllib won't follow
        exc.close()
        raise
    try:
        return body.decode(charset, "replace")
    except (LookupError, UnicodeError):  # no usable codec: UTF-8, as when none is named
        return body.decode("utf-8", "replace")


def call_judge(
    prompt: str,
    config: EndpointConfig,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Send one prompt to the judge endpoint and return the raw response text.

    Transport failures are retried with exponential backoff
    (``backoff * 2**attempt`` seconds) up to ``max_retries`` extra attempts;
    when they run out, :class:`RetriesExhausted` is raised carrying the
    request hash. With ``cache_dir`` set, responses are stored under their
    request hash and replayed without touching the network.
    """
    if (cached := cached_reply(prompt, config)) is not None:
        return cached
    req_hash = request_hash(prompt, config.model)

    if transport is None:
        transport = _default_transport
    headers = {"Content-Type": "application/json"}
    if config.api_key_env:
        key = os.environ.get(config.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
    payload = {"model": config.model, "prompt": prompt}

    attempts = config.max_retries + 1
    last_error: TransportError | None = None
    for attempt in range(attempts):
        try:
            text = transport(config.url, payload, config.timeout, headers)
        except Exception as exc:  # noqa: BLE001 - transport is caller-supplied
            timed_out = isinstance(getattr(exc, "reason", exc), TimeoutError)
            last_error = (JudgeTimeout if timed_out else TransportError)(str(exc), req_hash)
            log.debug("judge attempt %d/%d failed: %s", attempt + 1, attempts, last_error)
            if attempt + 1 < attempts:
                sleep(math.ldexp(config.backoff, attempt))
            continue
        if config.cache_dir is not None:
            atomic_write(_cache_file(config, req_hash), text)
        return text
    assert last_error is not None
    if config.max_retries == 0:
        raise last_error
    raise RetriesExhausted(attempts, req_hash) from last_error


# ---------------------------------------------------------------------------
# Aggregation


def _rate(name: str, value: str = "yes") -> Any:
    """A rate field: the percentage of rows whose verdict ``name`` is ``value``."""
    return field(metadata={"counts": (name, value)})


@dataclass(frozen=True)
class AnatomyStats:
    """Percentage rates for one anatomy (or for the mean row)."""

    anatomy: str
    n: int
    abn_halluc_rate: float = _rate("gen_has_hallucinated_abnormalities")
    abn_correct_rate: float = _rate("gen_has_correct_abnormalities")
    dev_halluc_rate: float = _rate("gen_has_hallucinated_devices")
    dev_correct_rate: float = _rate("gen_has_correct_devices")
    contradiction_rate: float = _rate("nli_status", "contradiction")
    entailment_rate: float = _rate("nli_status", "entailment")
    neutral_rate: float = _rate("nli_status", "neutral")

    def to_json(self) -> dict[str, Any]:
        return {k: round(v, 4) if k in _RATES else v for k, v in vars(self).items()}


#: Each rate, in field order: the verdict field it counts and the value that counts.
_RATES = {f.name: f.metadata["counts"] for f in fields(AnatomyStats) if f.metadata}


def aggregate_verdicts(
    rows: Iterable[tuple[str, JudgeVerdict]],
) -> tuple[list[AnatomyStats], AnatomyStats]:
    """Reduce (anatomy, verdict) rows to per-anatomy rates plus a mean row.

    A rate is the :func:`radloop.core.group_means` of a 100/0 column, one value
    per row; the mean row is the unweighted :func:`radloop.core.mean` of the
    per-anatomy rates, so it is invariant to per-anatomy sample counts and to
    row order. Anatomies appear in first-seen order.
    """
    rows = list(rows)
    if not rows:
        raise EmptyInput("no verdicts to aggregate")
    columns = {r: [100.0 if getattr(v, f) == value else 0.0 for _, v in rows] for r, (f, value) in _RATES.items()}
    groups = group_means([anatomy for anatomy, _ in rows], **columns)
    stats = [AnatomyStats(anatomy, **group) for anatomy, group in groups.items()]
    means = (mean([getattr(s, r) for s in stats]) for r in _RATES)
    return stats, AnatomyStats("mean", len(rows), *means)


def aggregation_table(
    stats: Sequence[AnatomyStats], mean: AnatomyStats, verdict_failures: int = 0
) -> dict[str, Any]:
    """JSON-serializable table of per-anatomy rows plus the mean row.

    ``verdict_failures`` counts responses that failed validation; they are
    excluded from every rate denominator and reported separately.
    """
    return {
        "schema_version": 1,
        "rows": [s.to_json() for s in stats],
        "mean": mean.to_json(),
        "verdict_failures": verdict_failures,
    }
