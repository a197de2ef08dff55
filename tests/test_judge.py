import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from radloop.errors import (
    ConfigError,
    EmptyInput,
    IllegalValue,
    JudgeTimeout,
    MalformedJson,
    MissingField,
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
    judge_pairs,
    request_hash,
    validate_verdict,
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

    def test_text_around_json_tolerated(self):
        raw = "Sure, here is the JSON:\n" + json.dumps(verdict_dict()) + "\nHope that helps!"
        assert validate_verdict(raw).nli_status == "entailment"

    def test_no_json(self):
        with pytest.raises(MalformedJson):
            validate_verdict("the report looks fine to me")

    def test_broken_json(self):
        with pytest.raises(MalformedJson):
            validate_verdict('{"reason": "x", ')


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
        import requests

        transport = CountingTransport([requests.exceptions.Timeout("too slow")])
        with pytest.raises(JudgeTimeout):
            call_judge("prompt", config(max_retries=0), transport, sleep=lambda s: None)

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


class TestJudgePairs:
    def test_order_preserved(self):
        def transport(url, payload, timeout, headers):
            # Echo back the [GEN] line so each response is identifiable.
            body = payload["prompt"]
            return body.split("[GEN]:\n", 1)[1].split("\n", 1)[0]

        pairs = [(f"gen-{i}", "gt") for i in range(16)]
        out = judge_pairs(pairs, config(parallelism=8), transport, sleep=lambda s: None)
        assert out == [f"gen-{i}" for i in range(16)]

    def test_empty(self):
        assert judge_pairs([], config(), None, sleep=lambda s: None) == []

    def test_identical_prompts_fetched_once(self, tmp_path):
        calls = []

        def transport(url, payload, timeout, headers):
            calls.append(payload["prompt"])
            time.sleep(0.001)
            return "same verdict"

        pairs = [("N/A", "gt report")] * 16
        for cache_dir in (None, str(tmp_path / "cache")):
            calls.clear()
            cfg = config(parallelism=8, cache_dir=cache_dir)
            assert judge_pairs(pairs, cfg, transport, sleep=lambda s: None) == ["same verdict"] * 16
            assert len(calls) == 1

    def test_duplicate_prompts_share_the_cache_safely(self, tmp_path):
        # Identical prompts hash to one cache file that several threads write
        # at once; every write must land whole and leave no temp file behind.
        # judge_pairs fetches a prompt once, so the threads call call_judge.
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
        with pytest.raises(ValueError):
            config(parallelism=0)


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
