"""Each config field, and each field of an intensity grid, states its rule once,
on the field (``core.ruled``), and ``core.check_fields`` applies it: these tests
derive their cases from the declarations, so a new rule is covered the moment
it is declared."""

import json
from dataclasses import fields
from enum import Enum
from fractions import Fraction
from threading import TIMEOUT_MAX

import pytest
from hypothesis import assume, given, strategies as st

from radloop.augment import MIN_CROP_SIDE, AugPolicy, IntensityGrid
from radloop.cli import ToolConfig
from radloop.curriculum import (
    CurriculumConfig,
    CurriculumState,
    DecayParams,
    SamplingPool,
    SourceState,
    Strategy,
    SubtaskState,
    advance_stage,
    initial_state,
    metrics_from_rows,
)
from radloop.errors import ConfigError
from radloop.ingest import BenchmarkSubsetSpec, make_fixture_dataset
from radloop.judge import EndpointConfig

#: Each ruled config class, with values for its required fields.
_CONFIGS = {
    EndpointConfig: {"url": "http://127.0.0.1:1/v1", "model": "m"},
    CurriculumConfig: {},
    AugPolicy: {},
    ToolConfig: {},
    DecayParams: {"e0": 0.5, "rate": 0.001},
    BenchmarkSubsetSpec: {},
}

#: Each ruled class, configs and the data types whose fields carry rules too.
_REQUIRED = {
    **_CONFIGS,
    IntensityGrid: {"width": 2, "height": 2, "max_level": 255, "values": [0, 1, 2, 3]},
}

#: The ruled classes checked as built in Python (``ValueError``); the grid's
#: decoder adds only the JSON rules for its values.
_BUILT_IN_PYTHON = (DecayParams, BenchmarkSubsetSpec, IntensityGrid)

#: The rules that relate two fields, over a class's full set of field values.
_CROSS_FIELD = {
    CurriculumConfig: lambda v: v["total_steps"] >= v["warmup_steps"],
    AugPolicy: lambda v: min(
        v["crop_scale_range"][0] * v["crop_aspect_range"][0],
        v["crop_scale_range"][0] / v["crop_aspect_range"][1],
    ) >= MIN_CROP_SIDE**2,
    # The last retry wait, exactly: no float is formed, so no 2**n overflows.
    EndpointConfig: lambda v: v["max_retries"] == 0 or v["backoff"] == 0 or (
        v["max_retries"] < 1200 and Fraction(v["backoff"]) * 2 ** (v["max_retries"] - 1) <= TIMEOUT_MAX
    ),
    IntensityGrid: lambda v: v["width"] * v["height"] == len(v["values"]) and max(v["values"]) <= v["max_level"],
}

#: Any JSON value: ints past float range, NaN and infinities included. Scalars
#: and pairs that some rule accepts are drawn as often as nested values, so
#: every field sees both outcomes.
_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.integers(10**308, 10**320) | st.integers(-(10**320), -(10**308))
)
_near_valid = (
    st.floats(0.0, 1.0) | st.integers(0, 9)
    | st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2)
    | st.lists(st.integers(0, 9), min_size=2, max_size=2)
    | st.sampled_from(["strict", "lenient", "http://h/v1", "HTTPS://h", "file:///etc/hostname",
                      "data:,x", "ftp://h/x"])
)
_json_values = _scalars | _near_valid | st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=6,
)

_RULED_FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in _REQUIRED
    for f in fields(cls)
    if "rule" in f.metadata
]


def _as_json(value):
    return list(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("cls, f", _RULED_FIELDS)
@given(data=st.data())
def test_a_field_takes_exactly_the_values_its_rule_takes(cls, f, data):
    # The field's default (or required value) is drawn too, so each field is
    # seen accepting a value as well as rejecting some.
    known_good = _as_json(_REQUIRED[cls].get(f.name, f.default))
    value = data.draw(_json_values | st.just(known_good), label="value")
    check, what = f.metadata["rule"]
    doc = {**_REQUIRED[cls], f.name: value}
    by_rule = bool(check(value)) or (value is None and f.default is None)
    cross_field = _CROSS_FIELD.get(cls, lambda v: True)
    valid = by_rule and cross_field({g.name: g.default for g in fields(cls)} | doc)
    error = ValueError if cls in _BUILT_IN_PYTHON else ConfigError
    try:
        obj = cls(**doc) if cls in _BUILT_IN_PYTHON else cls.from_json(doc)
    except error as exc:
        assert not valid, exc
        assert f.name in str(exc)
        if not by_rule:
            assert f"{f.name} must be {what}, got " in str(exc)
    else:
        assert valid
        assert _as_json(getattr(obj, f.name)) == value


def test_every_config_field_declares_a_rule_or_is_converted():
    sections = {"curriculum": {"alpha": 0.5}, "policy": {"p_crop": 0.5},
                "endpoint": _REQUIRED[EndpointConfig]}
    for cls in _CONFIGS:
        for f in fields(cls):
            if "rule" in f.metadata:
                continue
            if isinstance(f.default, Enum):
                member = next(m for m in type(f.default) if m is not f.default)
                obj = cls.from_json({**_REQUIRED[cls], f.name: member.value})
                assert getattr(obj, f.name) is member
                continue
            assert cls is ToolConfig and f.name in sections, f"{cls.__name__}.{f.name} has no rule"
            value = getattr(ToolConfig.from_json({f.name: sections[f.name]}), f.name)
            assert type(value).__name__ == f.type.split(" |")[0]
            assert getattr(ToolConfig.from_json({f.name: {}}), f.name) is None


_ENUM_FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in _CONFIGS
    for f in fields(cls)
    if isinstance(f.default, Enum)
]


@pytest.mark.parametrize("cls, f", _ENUM_FIELDS)
@given(data=st.data())
def test_an_enum_field_takes_exactly_its_member_values(cls, f, data):
    # A value that names no member is an error naming the field, not the enum.
    kind = type(f.default)
    names = [m.value for m in kind]
    value = data.draw(_json_values | st.sampled_from(names), label="value")
    try:
        obj = cls.from_json({**_REQUIRED[cls], f.name: value})
    except ConfigError as exc:
        assert value not in names
        assert str(exc) == f"{f.name} must be one of {', '.join(map(repr, names))}, got {value!r:.60}"
    else:
        assert getattr(obj, f.name) is kind(value)


#: The classes a config document holds; ``ToolConfig`` is drawn without its sections.
_DECODED = (ToolConfig, CurriculumConfig, AugPolicy, EndpointConfig)


@pytest.mark.parametrize("cls", _DECODED, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_a_config_built_in_python_equals_the_decoded_one(cls, data):
    # Each config type converts its own values, so the same JSON values give
    # the same config whether a document or a Python call supplies them.
    doc = dict(_REQUIRED[cls])
    for f in fields(cls):
        if isinstance(f.default, Enum):
            names = [m.value for m in type(f.default)]
            value = data.draw(_json_values | st.sampled_from(names), label=f.name)
            if value in names:
                doc[f.name] = value
        elif "rule" in f.metadata:
            known_good = _as_json(_REQUIRED[cls].get(f.name, f.default))
            value = data.draw(_json_values | st.just(known_good), label=f.name)
            if f.metadata["rule"][0](value) or (value is None and f.default is None):
                doc[f.name] = value
    assume(_CROSS_FIELD.get(cls, lambda v: True)({g.name: g.default for g in fields(cls)} | doc))
    decoded = cls.from_json(json.loads(json.dumps(doc)))
    built = cls(**doc)
    assert built == decoded
    assert hash(built) == hash(decoded)
    for f in fields(cls):
        assert type(getattr(built, f.name)) is type(getattr(decoded, f.name)), f.name


def test_a_strategy_value_plans_as_its_member():
    records = make_fixture_dataset(4, {"p:pg": {"a": 3, "b": 5}, "g:grg": {"report": 4},
                                       "r:agrg": {"spine": 2, "heart": 3}})
    rows = [(r.source_id, r.task, r.category, (i % 7) / 8, (i % 5) / 6) for i, r in enumerate(records)]
    state = initial_state(SamplingPool.from_records(records))
    metrics = metrics_from_rows(rows)
    for inter in Strategy:
        for intra in Strategy:
            members = CurriculumConfig(inter_strategy=inter, intra_strategy=intra)
            values = CurriculumConfig(inter_strategy=inter.value, intra_strategy=intra.value)
            assert advance_stage(values, state, metrics) == advance_stage(members, state, metrics)
    message = "inter_strategy must be one of 'natural', 'uniform', 'curriculum', got 'bogus'"
    with pytest.raises(ConfigError) as exc:
        CurriculumConfig(inter_strategy="bogus")
    assert str(exc.value) == message


#: The ruled classes that only their container's decoder checks, with that decoder.
_CHECKED_BY_CONTAINER = {SubtaskState: CurriculumState.from_json, SourceState: CurriculumState.from_json}

_CONTAINED_FIELDS = [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in _CHECKED_BY_CONTAINER
    for f in fields(cls)
    if "rule" in f.metadata
]


@pytest.mark.parametrize("cls, f", _CONTAINED_FIELDS)
@given(data=st.data())
def test_a_contained_field_is_checked_by_its_container(cls, f, data):
    # A plan of one PG source with two categories, one field of it redrawn: a
    # value the field's rule rejects is named by that rule, and no other is.
    state = initial_state(SamplingPool.from_records(make_fixture_dataset(1, {"p:pg": {"a": 1, "b": 1}})))
    doc = json.loads(json.dumps(state.to_json()))
    obj = doc["sources"]["p:pg"]
    if cls is SubtaskState:
        obj = obj["subtasks"]["pg"]
    value = data.draw(_json_values | st.just(obj[f.name]), label="value")
    obj[f.name] = value
    check, what = f.metadata["rule"]
    try:
        _CHECKED_BY_CONTAINER[cls](doc)
    except ValueError as exc:
        named = str(exc).startswith(f"{f.name} must be {what}, got ")
        assert named is not bool(check(value)), exc
    else:
        assert check(value)
