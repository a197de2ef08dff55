import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from threading import TIMEOUT_MAX
from urllib.error import URLError

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from radloop import judge as judge_module
from radloop.cli import dispatch
from radloop.errors import (
    ConfigError,
    EmptyInput,
    FormatError,
    IllegalValue,
    JudgeTimeout,
    MalformedJson,
    MissingField,
    RadloopError,
    RetriesExhausted,
    TransportError,
)
from radloop.judge import (
    JUDGE_PROMPT,
    AnatomyStats,
    EndpointConfig,
    JudgeVerdict,
    aggregate_verdicts,
    aggregation_table,
    build_judge_prompt,
    call_judge,
    request_hash,
    validate_verdict,
    verdict_row_from_json,
)

ALL_FIELDS = (
    "reason",
    "gt_has_abnormalities",
    "gt_has_devices",
    "gen_has_abnormalities",
    "gen_has_devices",
    "gen_has_correct_abnormalities",
    "gen_has_hallucinated_abnormalities",
    "gen_has_correct_devices",
    "gen_has_hallucinated_devices",
    "nli_status",
)


def verdict_dict(**overrides):
    base = {name: "no" for name in ALL_FIELDS}
    base["reason"] = "because"
    base["nli_status"] = "entailment"
    base.update(overrides)
    return base


def make_verdict(**overrides):
    return JudgeVerdict(**verdict_dict(**overrides))


class TestPrompt:
    def test_contains_all_field_names(self):
        for name in ALL_FIELDS:
            assert f'"{name}"' in JUDGE_PROMPT

    def test_gen_and_gt_slots(self):
        prompt = build_judge_prompt("GEN TEXT", "GT TEXT")
        assert prompt.startswith(JUDGE_PROMPT)
        assert "\n\n[GEN]:\nGEN TEXT\n\n[GT]:\nGT TEXT\n" in prompt
        assert prompt.index("[GEN]:", len(JUDGE_PROMPT)) < prompt.index(
            "[GT]:", len(JUDGE_PROMPT)
        )

    def test_byte_deterministic(self):
        assert build_judge_prompt("a", "b") == build_judge_prompt("a", "b")

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            build_judge_prompt("", "gt")
        with pytest.raises(EmptyInput):
            build_judge_prompt("gen", "")


class TestValidateVerdict:
    def test_well_formed(self):
        v = validate_verdict(json.dumps(verdict_dict()))
        assert v.nli_status == "entailment"
        assert v.gen_has_hallucinated_abnormalities == "no"

    def test_round_trip(self):
        v = make_verdict(nli_status="contradiction")
        assert JudgeVerdict.from_json(v.to_json()) == v

    def test_missing_field(self):
        raw = verdict_dict()
        del raw["nli_status"]
        with pytest.raises(MissingField):
            validate_verdict(json.dumps(raw))

    def test_capitalized_enum_strict_vs_lenient(self):
        raw = json.dumps(verdict_dict(nli_status="Entailment"))
        with pytest.raises(IllegalValue):
            validate_verdict(raw)
        assert validate_verdict(raw, lenient=True).nli_status == "entailment"

    def test_lenient_strips_whitespace(self):
        raw = json.dumps(verdict_dict(gt_has_abnormalities=" YES "))
        assert validate_verdict(raw, lenient=True).gt_has_abnormalities == "yes"

    def test_lenient_never_invents_fields(self):
        raw = verdict_dict()
        del raw["gen_has_correct_devices"]
        with pytest.raises(MissingField):
            validate_verdict(json.dumps(raw), lenient=True)

    def test_illegal_yes_no(self):
        raw = json.dumps(verdict_dict(gt_has_devices="maybe"))
        with pytest.raises(IllegalValue):
            validate_verdict(raw)
        with pytest.raises(IllegalValue):
            validate_verdict(raw, lenient=True)

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            ({"nli_status": "Maybe"}, IllegalValue,
             "field 'nli_status' holds 'Maybe'; legal: contradiction, entailment, neutral"),
            ({"gt_has_devices": 1}, IllegalValue, "field 'gt_has_devices' holds 1; legal: yes, no"),
            ({"reason": None}, MissingField, "verdict has no field 'reason'"),
            ({"gen_has_devices": None}, MissingField, "verdict has no field 'gen_has_devices'"),
            ({"reason": 5}, IllegalValue, "field 'reason' holds 5; it must be a string"),
            ({"reason": ["r"]}, IllegalValue, "field 'reason' holds ['r']; it must be a string"),
        ],
    )
    def test_errors_name_the_field_and_its_legal_values(self, edit, error, message):
        raw = json.dumps(verdict_dict(**edit))
        for lenient in (False, True):
            with pytest.raises(error) as info:
                validate_verdict(raw, lenient=lenient)
            assert str(info.value) == message

    def test_fields_are_checked_in_declaration_order(self):
        raw = json.dumps(verdict_dict(gt_has_abnormalities="x", nli_status="y", reason=None))
        with pytest.raises(MissingField, match="'reason'"):
            validate_verdict(raw)
        raw = json.dumps(verdict_dict(gen_has_devices="x", nli_status="y"))
        with pytest.raises(IllegalValue, match="'gen_has_devices'"):
            validate_verdict(raw)

    def test_text_around_json_tolerated(self):
        raw = "Sure, here is the JSON:\n" + json.dumps(verdict_dict()) + "\nHope that helps!"
        assert validate_verdict(raw).nli_status == "entailment"

    def test_no_json(self):
        with pytest.raises(MalformedJson):
            validate_verdict("the report looks fine to me")

    def test_broken_json(self):
        with pytest.raises(MalformedJson):
            validate_verdict('{"reason": "x", ')


#: Reply text no decoder should raise a bare error on: an over-long integer,
#: nesting past the recursion limit and escaped lone surrogates.
_HOSTILE = ("9" * 5000, "[" * 100_000 + "]" * 100_000, '"\\ud800"', '"\\udc00\\ud800"', '"a\\udfff"')


def _reply_with(name, fragment):
    """A verdict reply whose field ``name`` holds the JSON text ``fragment``."""
    fields = (f"{json.dumps(k)}: {fragment if k == name else json.dumps(v)}"
              for k, v in verdict_dict().items())
    return "{" + ", ".join(fields) + "}"


_fragments = (
    st.sampled_from(_HOSTILE) | st.text()
    | st.integers(0, 1200).map(lambda n: "[" * n + "]" * n)
    | st.integers(4290, 4310).map(lambda n: "1" * n)
    | st.from_regex(r'"(\\u[dD][0-9a-fA-F]{3}|[a-z ])*"', fullmatch=True)
)
_replies = st.text() | st.builds(
    lambda before, name, fragment, after: before + _reply_with(name, fragment) + after,
    st.text(max_size=4), st.sampled_from(ALL_FIELDS), _fragments, st.text(max_size=4),
)


def _assert_verdict_or_radloop_error(raw):
    # Never a bare ValueError, RecursionError or UnicodeError: one odd reply
    # costs one error row, not the judge run.
    for lenient in (False, True):
        try:
            verdict = validate_verdict(raw, lenient=lenient)
        except RadloopError:
            continue
        json.dumps(verdict.to_json(), ensure_ascii=False).encode("utf-8")


@given(raw=_replies)
def test_any_reply_is_a_verdict_or_a_radloop_error(raw):
    _assert_verdict_or_radloop_error(raw)


@pytest.mark.parametrize("name", ["reason", "nli_status"])
@pytest.mark.parametrize("leaf", ["", '"\\u00e9"'])
def test_a_reply_nested_to_any_depth_is_a_verdict_or_a_radloop_error(name, leaf):
    # Each depth up to past the recursion limit: a value that decodes must not
    # recurse too deep where the lone-surrogate check re-encodes it, or where
    # an error message shows it.
    for depth in range(sys.getrecursionlimit() + 10):
        _assert_verdict_or_radloop_error(_reply_with(name, "[" * depth + leaf + "]" * depth))


@pytest.mark.parametrize("fragment, message", [
    pytest.param("9" * 5000, "invalid JSON in response: Exceeds the limit (4300 digits)",
                 id="huge integer"),
    pytest.param("[" * 100_000 + "]" * 100_000,
                 "invalid JSON in response: maximum recursion depth exceeded", id="deep nesting"),
    pytest.param('"\\ud800"', "invalid JSON in response: 'utf-8' codec can't encode character '\\ud800'",
                 id="lone surrogate"),
])
def test_a_reply_the_decoding_rule_rejects_is_malformed(fragment, message):
    for lenient in (False, True):
        with pytest.raises(MalformedJson) as err:
            validate_verdict(_reply_with("reason", fragment), lenient=lenient)
        assert str(err.value).startswith(message)


class TestRequestHash:
    def test_deterministic(self):
        assert request_hash("p", "m") == request_hash("p", "m")

    def test_sensitive_to_both_parts(self):
        assert request_hash("p", "m") != request_hash("p", "m2")
        assert request_hash("p2", "m") != request_hash("p", "m")

    def test_no_separator_collision(self):
        assert request_hash("b", "a") != request_hash("", "ab")


class CountingTransport:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, payload, timeout, headers):
        self.calls.append({"url": url, "payload": dict(payload), "headers": dict(headers)})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def config(**overrides):
    base = dict(url="http://judge.invalid/v1", model="judge-model", backoff=0.5)
    base.update(overrides)
    return EndpointConfig(**base)


class TestCallJudge:
    def test_success(self):
        transport = CountingTransport(["response text"])
        assert call_judge("prompt", config(), transport, sleep=lambda s: None) == "response text"
        assert len(transport.calls) == 1
        assert transport.calls[0]["payload"] == {"model": "judge-model", "prompt": "prompt"}

    def test_retries_then_exhausts(self):
        transport = CountingTransport([OSError("down")] * 3)
        sleeps = []
        with pytest.raises(RetriesExhausted) as err:
            call_judge("prompt", config(max_retries=2), transport, sleep=sleeps.append)
        assert len(transport.calls) == 3
        assert err.value.attempts == 3
        assert sleeps == [0.5, 1.0]
        assert isinstance(err.value.__cause__, TransportError)

    def test_transient_failure_recovers(self):
        transport = CountingTransport([OSError("blip"), "ok"])
        sleeps = []
        out = call_judge("prompt", config(max_retries=2), transport, sleep=sleeps.append)
        assert out == "ok"
        assert sleeps == [0.5]

    def test_no_retries_reraises_transport_error(self):
        transport = CountingTransport([OSError("down")])
        with pytest.raises(TransportError):
            call_judge("prompt", config(max_retries=0), transport, sleep=lambda s: None)
        assert len(transport.calls) == 1

    def test_timeout_classified(self):
        # urllib raises a connect timeout as a URLError whose reason is a TimeoutError.
        transport = CountingTransport([URLError(TimeoutError("too slow"))])
        with pytest.raises(JudgeTimeout):
            call_judge("prompt", config(max_retries=0), transport, sleep=lambda s: None)

    def test_timeout_is_a_transport_error(self):
        transport = CountingTransport([TimeoutError("too slow")])
        with pytest.raises(TransportError) as err:
            call_judge("prompt", config(max_retries=0), transport, sleep=lambda s: None)
        assert isinstance(err.value, JudgeTimeout)
        assert err.value.request_hash == request_hash("prompt", "judge-model")

    def test_cache_round_trip(self, tmp_path):
        cfg = config(cache_dir=str(tmp_path))
        transport = CountingTransport(["cached body"])
        assert call_judge("prompt", cfg, transport, sleep=lambda s: None) == "cached body"
        expected = tmp_path / f"{request_hash('prompt', cfg.model)}.txt"
        assert expected.read_text(encoding="utf-8") == "cached body"
        # Second call replays from disk without touching the transport.
        assert call_judge("prompt", cfg, transport, sleep=lambda s: None) == "cached body"
        assert len(transport.calls) == 1

    def test_cache_keyed_by_model(self, tmp_path):
        transport = CountingTransport(["one", "two"])
        a = call_judge("p", config(cache_dir=str(tmp_path)), transport, sleep=lambda s: None)
        b = call_judge(
            "p", config(cache_dir=str(tmp_path), model="other"), transport, sleep=lambda s: None
        )
        assert (a, b) == ("one", "two")
        assert len(transport.calls) == 2

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("JUDGE_KEY", "sekrit")
        transport = CountingTransport(["ok"])
        call_judge("p", config(api_key_env="JUDGE_KEY"), transport, sleep=lambda s: None)
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_missing_api_key_omits_header(self, monkeypatch):
        monkeypatch.delenv("NOPE_KEY", raising=False)
        transport = CountingTransport(["ok"])
        call_judge("p", config(api_key_env="NOPE_KEY"), transport, sleep=lambda s: None)
        assert "Authorization" not in transport.calls[0]["headers"]


class EchoTransport:
    """Stands in for the default transport. After ``wait`` seconds it answers a
    request with a verdict whose reason is the request's [GEN] line; "garble"
    gets a reply that is no verdict, and "fail" a connection error. It records
    each request's GEN, thread and thread count, and the most in flight at once."""

    def __init__(self):
        self.wait = 0.0
        self.lock = threading.Lock()
        self.gens, self.threads, self.thread_counts = [], [], []
        self.in_flight = self.max_in_flight = 0

    def __call__(self, url, payload, timeout, headers):
        gen = payload["prompt"].split("[GEN]:\n", 1)[1].split("\n", 1)[0]
        with self.lock:
            self.gens.append(gen)
            self.threads.append(threading.current_thread())
            self.thread_counts.append(threading.active_count())
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(self.wait)
            if gen == "fail":
                raise ConnectionError("connection reset")
            return "no verdict" if gen == "garble" else json.dumps(verdict_dict(reason=gen))
        finally:
            with self.lock:
                self.in_flight -= 1


@pytest.fixture()
def echo(monkeypatch):
    transport = EchoTransport()
    monkeypatch.setattr(judge_module, "_default_transport", transport)
    return transport


def run_judge(tmp_path, gens, parallelism, name="out.jsonl", **endpoint):
    """``radloop judge`` one pred row per gen, each against the same gold report,
    at ``parallelism``; return the exit code and the output path."""
    gold, pred, endpoint_path = (tmp_path / n for n in ("gold.jsonl", "pred.jsonl", "endpoint.json"))
    gold.write_text(json.dumps({"image_id": "im1", "text": "gt report"}) + "\n", encoding="utf-8")
    pred.write_text("".join(json.dumps({"image_id": "im1", "anatomy": f"a{i % 3}", "text": gen}) + "\n"
                            for i, gen in enumerate(gens)), encoding="utf-8")
    endpoint_path.write_text(json.dumps({"url": "http://judge.invalid/v1", "model": "judge-model",
                                         "max_retries": 0, "parallelism": parallelism, **endpoint}),
                             encoding="utf-8")
    out = tmp_path / name
    argv = ["judge", "--pred", str(pred), "--gold", str(gold), "--endpoint", str(endpoint_path)]
    return dispatch(argv + ["--out", str(out)]), out


class TestJudgePairs:
    """(gen, gt) pairs judged by ``radloop judge`` at any parallelism."""

    def test_order_preserved(self, tmp_path, echo):
        gens = [f"gen-{i}" for i in range(16)] + ["gen-3", "garble", "gen-3", "gen-0"]
        outputs = set()
        for parallelism in (1, 2, 4, 8):
            rc, out = run_judge(tmp_path, gens, parallelism, name=f"out-{parallelism}.jsonl")
            assert rc == 0
            outputs.add(out.read_bytes())
        rows = [{"image_id": "im1", "anatomy": f"a{i % 3}", "verdict": verdict_dict(reason=gen)}
                for i, gen in enumerate(gens)]
        rows[17] = {"image_id": "im1", "anatomy": "a2", "error": "no JSON object found in response",
                    "raw": "no verdict"}
        assert outputs == {"".join(json.dumps(row) + "\n" for row in rows).encode()}

    def test_empty(self, tmp_path, echo):
        rc, out = run_judge(tmp_path, [], 8)
        assert rc == 0
        assert out.read_bytes() == b""
        assert echo.gens == []

    def test_identical_prompts_fetched_once(self, tmp_path, echo):
        echo.wait = 0.001
        for cache in ({}, {"cache_dir": str(tmp_path / "cache")}):
            echo.gens.clear()
            assert run_judge(tmp_path, ["N/A"] * 16, 8, **cache)[0] == 0
            assert echo.gens == ["N/A"]
        # With the cache, a prompt that comes back after it left the window is a hit.
        echo.gens.clear()
        mix = ["N/A", *(f"gen-{i}" for i in range(10)), "N/A", "gen-3", "N/A", *["gen-9"] * 3]
        assert run_judge(tmp_path, mix, 8, name="mix.jsonl", **cache)[0] == 0
        assert sorted(echo.gens) == sorted(set(mix) - {"N/A"})

    def test_duplicate_prompts_share_the_cache_safely(self, tmp_path):
        # Identical prompts hash to one cache file that several threads write
        # at once; every write must land whole and leave no temp file behind.
        # `judge` sends a prompt once per window, so the threads call call_judge.
        def transport(url, payload, timeout, headers):
            time.sleep(0.001)
            return "same verdict"

        prompt = build_judge_prompt("N/A", "gt report")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                cache = tmp_path / f"cache-{trial}"
                cfg = config(cache_dir=str(cache))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [
                        pool.submit(call_judge, prompt, cfg, transport, lambda s: None)
                        for _ in range(16)
                    ]
                    assert [f.result(timeout=10) for f in futures] == ["same verdict"] * 16
                assert [p.suffix for p in cache.iterdir()] == [".txt"]
        finally:
            sys.setswitchinterval(interval)

    def test_a_warm_cache_is_read_on_the_main_thread_at_any_parallelism(
        self, tmp_path, echo, monkeypatch
    ):
        # A cache hit behind the oldest row is read before any hand-off, so a
        # fully cached run starts no helper thread.
        gens = [f"gen-{i}" for i in range(20)] + ["gen-3", "garble", "gen-3", "gen-0"]
        cache = {"cache_dir": str(tmp_path / "cache")}
        serial = run_judge(tmp_path, gens, 1, name="serial.jsonl", **cache)[1].read_bytes()
        echo.gens.clear()
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        rc, out = run_judge(tmp_path, gens, 8, name="warm.jsonl", **cache)
        assert rc == 0
        assert (started, echo.gens) == ([], [])
        assert out.read_bytes() == serial

    @pytest.mark.parametrize("parallelism", [2, 4, 8])
    def test_at_most_parallelism_requests_are_in_flight(self, tmp_path, echo, parallelism):
        echo.wait = 0.05
        assert run_judge(tmp_path, [f"gen-{i}" for i in range(2 * parallelism)], parallelism)[0] == 0
        assert 1 < echo.max_in_flight <= parallelism

    def test_at_parallelism_1_the_main_thread_sends_each_request_in_file_order(self, tmp_path, echo):
        baseline = threading.active_count()
        gens = ["gen-b", "gen-a", "gen-b", "garble", "gen-c"]
        assert run_judge(tmp_path, gens, 1)[0] == 0
        assert echo.gens == gens
        assert all(thread is threading.main_thread() for thread in echo.threads)
        assert echo.thread_counts == [baseline] * len(gens)

    def test_a_transport_failure_midway_fails_the_run_and_stops_every_helper(
        self, tmp_path, echo, capsys
    ):
        echo.wait = 0.005
        baseline = threading.active_count()
        (tmp_path / "out.jsonl").write_bytes(b"old output\n")
        gens = [f"gen-{i}" for i in range(6)] + ["fail"] + [f"gen-{i}" for i in range(6, 12)]
        rc, out = run_judge(tmp_path, gens, 4)
        assert rc == 1
        assert "ERROR radloop: TransportError: connection reset" in capsys.readouterr().err
        assert out.read_bytes() == b"old output\n"
        assert threading.active_count() == baseline
        assert set(echo.gens) <= set(gens[:10])  # no row past the failed one's window

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gens=st.lists(st.sampled_from(["N/A", "Clear.", "Effusion.", "garble"]),
                         min_size=1, max_size=30),
           parallelism=st.integers(1, 8))
    def test_any_rows_at_any_parallelism_give_the_serial_bytes(
        self, tmp_path, echo, gens, parallelism
    ):
        serial = run_judge(tmp_path, gens, 1, name="serial.jsonl")[1].read_bytes()
        rc, out = run_judge(tmp_path, gens, parallelism, name="parallel.jsonl")
        assert rc == 0
        assert out.read_bytes() == serial


class TestEndpointConfig:
    def test_from_json_rejects_extras(self):
        cfg = EndpointConfig.from_json({"url": "http://x", "model": "m", "max_retries": 5})
        assert cfg.max_retries == 5
        with pytest.raises(ConfigError):
            EndpointConfig.from_json(
                {"url": "http://x", "model": "m", "max_retries": 5, "comment": "ignored"}
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            config(max_retries=-1)
        with pytest.raises(ValueError):
            config(timeout=0)
        for parallelism in (0, 33, 4.0, True):
            with pytest.raises(ValueError, match="parallelism must be an integer in"):
                config(parallelism=parallelism)
        assert config(parallelism=32).parallelism == 32
        assert config().parallelism == 1
        # An empty cache_dir would put the cache files in the working directory.
        with pytest.raises(ValueError, match="cache_dir must be a non-empty string, got ''"):
            config(cache_dir="")

    def test_the_last_wait_and_the_timeout_are_at_most_timeout_max(self):
        # backoff * 2**attempt overflowed a float from attempt 1024, and
        # sleep() takes no wait past TIMEOUT_MAX.
        assert config(max_retries=1, backoff=TIMEOUT_MAX, timeout=TIMEOUT_MAX).backoff == TIMEOUT_MAX
        for edit in ({"max_retries": 1, "backoff": 1e308}, {"max_retries": 1100, "backoff": 0.5},
                     {"max_retries": 2, "backoff": TIMEOUT_MAX}, {"timeout": 1e300}):
            with pytest.raises(ConfigError) as err:
                EndpointConfig.from_json({"url": "http://x", "model": "m", **edit})
            assert all(name in str(err.value) for name in edit)


@given(
    backoff=st.floats(0, TIMEOUT_MAX * 2) | st.floats(0, 1e-300) | st.floats(0) | st.just(0.0),
    max_retries=st.integers(0, 1200),
)
def test_an_accepted_config_sleeps_at_most_timeout_max(backoff, max_retries):
    try:
        cfg = config(backoff=backoff, max_retries=max_retries)
    except ValueError:
        return
    sleeps = []
    with pytest.raises((RetriesExhausted, TransportError)):
        call_judge("p", cfg, CountingTransport([OSError("down")] * (max_retries + 1)), sleeps.append)
    assert len(sleeps) == max_retries
    assert all(0 <= wait <= TIMEOUT_MAX for wait in sleeps)
    assert sleeps == [float(Fraction(backoff) * 2**attempt) for attempt in range(max_retries)]


class TestAggregation:
    def test_rates_are_percentages(self):
        rows = [
            ("lung", make_verdict(gen_has_hallucinated_abnormalities="yes",
                                  nli_status="contradiction")),
            ("lung", make_verdict()),
            ("lung", make_verdict()),
            ("lung", make_verdict(nli_status="neutral")),
        ]
        stats, mean = aggregate_verdicts(rows)
        (lung,) = stats
        assert lung.n == 4
        assert lung.abn_halluc_rate == pytest.approx(25.0)
        assert lung.contradiction_rate == pytest.approx(25.0)
        assert lung.entailment_rate == pytest.approx(50.0)
        assert lung.neutral_rate == pytest.approx(25.0)
        assert mean.abn_halluc_rate == pytest.approx(25.0)

    def test_nli_rates_sum_to_100(self):
        rows = [
            ("a", make_verdict(nli_status="contradiction")),
            ("a", make_verdict(nli_status="neutral")),
            ("a", make_verdict()),
            ("b", make_verdict()),
        ]
        stats, mean = aggregate_verdicts(rows)
        for s in stats + [mean]:
            total = s.contradiction_rate + s.entailment_rate + s.neutral_rate
            assert total == pytest.approx(100.0, abs=0.01)

    def test_mean_is_unweighted(self):
        # Anatomy a: 1 of 2 hallucinated (50%); anatomy b: 1 of 4 (25%).
        rows = [
            ("a", make_verdict(gen_has_hallucinated_abnormalities="yes")),
            ("a", make_verdict()),
            ("b", make_verdict(gen_has_hallucinated_abnormalities="yes")),
            ("b", make_verdict()),
            ("b", make_verdict()),
            ("b", make_verdict()),
        ]
        stats, mean = aggregate_verdicts(rows)
        assert mean.abn_halluc_rate == pytest.approx(37.5)
        assert mean.n == 6
        assert mean.anatomy == "mean"

    def test_first_seen_order(self):
        rows = [
            ("spine", make_verdict()),
            ("abdomen", make_verdict()),
            ("spine", make_verdict()),
        ]
        stats, _ = aggregate_verdicts(rows)
        assert [s.anatomy for s in stats] == ["spine", "abdomen"]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            aggregate_verdicts([])

    def test_permutation_invariant(self):
        rows = [
            ("a", make_verdict(gen_has_correct_devices="yes")),
            ("b", make_verdict(nli_status="contradiction")),
            ("a", make_verdict()),
            ("b", make_verdict(nli_status="neutral")),
        ]
        stats_a, mean_a = aggregate_verdicts(rows)
        stats_b, mean_b = aggregate_verdicts(list(reversed(rows)))
        assert mean_a == mean_b
        assert {s.anatomy: s for s in stats_a} == {s.anatomy: s for s in stats_b}

    def test_table_shape(self):
        rows = [("a", make_verdict())]
        stats, mean = aggregate_verdicts(rows)
        table = aggregation_table(stats, mean, verdict_failures=2)
        assert table["schema_version"] == 1
        assert table["verdict_failures"] == 2
        assert table["rows"][0]["anatomy"] == "a"
        assert table["mean"]["anatomy"] == "mean"
        json.dumps(table)

    def test_stats_json_rounding(self):
        s = AnatomyStats(
            anatomy="x", n=3,
            abn_halluc_rate=33.333333, abn_correct_rate=0.0,
            dev_halluc_rate=0.0, dev_correct_rate=0.0,
            contradiction_rate=66.666667, entailment_rate=33.333333,
            neutral_rate=0.0,
        )
        doc = s.to_json()
        assert doc["abn_halluc_rate"] == 33.3333
        assert doc["contradiction_rate"] == 66.6667


#: Each rate and the verdict field value it counts, stated apart from the code under test.
REFERENCE_RATES = {
    "abn_halluc_rate": ("gen_has_hallucinated_abnormalities", "yes"),
    "abn_correct_rate": ("gen_has_correct_abnormalities", "yes"),
    "dev_halluc_rate": ("gen_has_hallucinated_devices", "yes"),
    "dev_correct_rate": ("gen_has_correct_devices", "yes"),
    "contradiction_rate": ("nli_status", "contradiction"),
    "entailment_rate": ("nli_status", "entailment"),
    "neutral_rate": ("nli_status", "neutral"),
}

_verdicts = st.fixed_dictionaries(
    {
        **{name: st.sampled_from(("yes", "no")) for name in ALL_FIELDS[1:-1]},
        "nli_status": st.sampled_from(("contradiction", "entailment", "neutral")),
    }
).map(lambda values: make_verdict(**values))


_verdict_rows = st.lists(
    st.tuples(st.sampled_from(("lung", "heart", "mean")) | st.text(max_size=3), _verdicts),
    min_size=1, max_size=80,
)
_YES, _NO = make_verdict(gen_has_hallucinated_abnormalities="yes"), make_verdict()
#: Rates 100, 66.67 and 33.33: summed left to right in this order they miss
#: their correctly rounded sum, and in the reverse order they hit it.
_ORDER_SENSITIVE = [("a", _YES), ("b", _YES), ("b", _YES), ("b", _NO),
                    ("c", _YES), ("c", _NO), ("c", _NO)]


@given(rows=_verdict_rows)
@example(rows=_ORDER_SENSITIVE)
def test_rates_are_reference_counts_and_the_mean_row_their_mean(rows):
    stats, mean = aggregate_verdicts(rows)
    assert [s.anatomy for s in stats] == list(dict.fromkeys(anatomy for anatomy, _ in rows))
    for s in stats:
        own = [verdict for anatomy, verdict in rows if anatomy == s.anatomy]
        assert s.n == len(own)
        for rate, (name, value) in REFERENCE_RATES.items():
            hits = 0
            for verdict in own:
                if getattr(verdict, name) == value:
                    hits += 1
            assert getattr(s, rate) == 100.0 * hits / len(own)
    assert (mean.anatomy, mean.n) == ("mean", len(rows))
    for rate in REFERENCE_RATES:
        values = [getattr(s, rate) for s in stats]
        assert getattr(mean, rate) == float(sum(map(Fraction, values))) / len(values)
    assert list(aggregation_table(stats, mean)["mean"]) == ["anatomy", "n", *REFERENCE_RATES]


@given(pair=_verdict_rows.flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
@example(pair=(_ORDER_SENSITIVE, _ORDER_SENSITIVE[::-1]))
def test_the_mean_row_does_not_depend_on_row_order(pair):
    rows, shuffled = pair
    assert aggregate_verdicts(shuffled)[1] == aggregate_verdicts(rows)[1]


class TestVerdictRows:
    def test_a_verdict_and_an_error_row(self):
        row = {"image_id": "im1", "anatomy": "lung", "verdict": verdict_dict()}
        assert verdict_row_from_json(row, 1) == ("lung", make_verdict())
        row = {"image_id": "im1", "anatomy": "lung", "error": "no JSON object", "raw": "x"}
        assert verdict_row_from_json(row, 1) == ("lung", None)

    @pytest.mark.parametrize(
        "row",
        [
            {"image_id": "im1", "anatomy": ["a"], "verdict": verdict_dict()},
            {"image_id": "im1", "anatomy": "a", "error": None},
            {"image_id": "im1", "anatomy": "a"},
            {"anatomy": "a", "verdict": verdict_dict()},
            {"image_id": "im1", "anatomy": "a", "verdict": [verdict_dict()]},
        ],
    )
    def test_wrong_typed_fields_are_format_errors(self, row):
        with pytest.raises(FormatError) as err:
            verdict_row_from_json(row, 8)
        assert err.value.line == 8

    def test_a_verdict_reason_must_be_a_string(self):
        row = {"image_id": "im1", "anatomy": "a", "verdict": verdict_dict(reason=5)}
        with pytest.raises(IllegalValue, match="'reason'"):
            verdict_row_from_json(row, 1)


#: Marks a field left out of a generated row.
_ABSENT = object()
_row_values = (
    st.just(_ABSENT) | st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.lists(st.text(max_size=2), max_size=2) | st.just(verdict_dict())
    | st.dictionaries(st.sampled_from(ALL_FIELDS), st.sampled_from(("no", "x", 1)), max_size=10)
)


@given(data=st.data())
def test_a_verdict_row_is_accepted_exactly_when_its_fields_have_their_types(data):
    row = {}
    for name in ("image_id", "anatomy", "error", "verdict"):
        value = data.draw(_row_values, label=name)
        if value is not _ABSENT:
            row[name] = value

    def text(name):
        return isinstance(row.get(name), str) and row[name] != ""

    is_error = "error" in row
    fits = text("image_id") and text("anatomy") and (
        text("error") if is_error else isinstance(row.get("verdict"), dict)
    )
    try:
        anatomy, verdict = verdict_row_from_json(row, 2)
    except FormatError as err:
        assert not fits and err.line == 2
    except RadloopError:
        # Every field has its type, but the verdict object is not a valid verdict.
        assert fits and not is_error and row["verdict"] != verdict_dict()
    else:
        assert fits and anatomy == row["anatomy"]
        assert verdict == (None if is_error else JudgeVerdict(**row["verdict"]))
