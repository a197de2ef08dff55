"""The strict parser against the hand-written scanner it replaced, and its crash bounds.

The reference below is the scanner that ``radloop.evalkit`` used before its
compiled patterns: ``_scan_number``, ``_parse_box``, ``_parse_box_run`` and
``_parse_grg_strict``, with the template walker ``_parse_strict`` that calls
them, copied unchanged. The reference falls back to today's ``_salvage``.
On ASCII text both parsers must accept and reject alike and return the same
fields, boxes and warnings. ``_salvage``'s GRG branch is pinned on its own
against the form it had before it built each finding once.
"""

import gc
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from radloop.core import Finding, NormBox, Task
from radloop.errors import ParseError
from radloop.evalkit import (
    _BOX_RE,
    ParsedOutput,
    _clean_fragment,
    _make_box,
    _salvage,
    parse_output,
)
from radloop.taskgen import RESPONSE_GRAMMAR, format_box

TASKS = list(RESPONSE_GRAMMAR)


# ---------------------------------------------------------------------------
# Reference: the hand-written scanner, unchanged


def _scan_number(text: str, pos: int) -> tuple[float, int]:
    start = pos
    n = len(text)
    while pos < n and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError(start, "a decimal numeral")
    if pos < n and text[pos] == ".":
        pos += 1
        frac_start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == frac_start:
            raise ParseError(frac_start, "digits after the decimal point")
    return float(text[start:pos]), pos


def _parse_box(text: str, pos: int, warnings: list[str]) -> tuple[NormBox, int]:
    if pos >= len(text) or text[pos] != "[":
        raise ParseError(pos, "'['")
    pos += 1
    vals = []
    for i in range(4):
        if i:
            if pos >= len(text) or text[pos] != ",":
                raise ParseError(pos, "','")
            pos += 1
        value, pos = _scan_number(text, pos)
        vals.append(value)
    if pos >= len(text) or text[pos] != "]":
        raise ParseError(pos, "']'")
    return _make_box(vals, warnings), pos + 1


def _parse_box_run(text: str, pos: int, warnings: list[str]) -> tuple[list[NormBox], int]:
    """Parse one or more box groups separated by nothing or a single space."""
    boxes = []
    box, pos = _parse_box(text, pos, warnings)
    boxes.append(box)
    while True:
        if pos < len(text) and text[pos] == "[":
            box, pos = _parse_box(text, pos, warnings)
            boxes.append(box)
        elif pos + 1 < len(text) and text[pos] == " " and text[pos + 1] == "[":
            box, pos = _parse_box(text, pos + 1, warnings)
            boxes.append(box)
        else:
            return boxes, pos


def _parse_grg_strict(text: str, pos: int, out: ParsedOutput) -> int:
    """Parse findings from ``pos`` to the end of the output."""
    n = len(text)
    findings: list[Finding] = []
    while pos < n:
        i = pos
        while i < n and text[i] not in "[.":
            i += 1
        if i == n:
            raise ParseError(n, "'.' ending the finding")
        if text[i] == ".":
            phrase = text[pos:i]
            if not phrase:
                raise ParseError(pos, "a finding phrase")
            findings.append(Finding(phrase, ()))
            pos = i + 1
        else:
            if i == pos or text[i - 1] != " ":
                raise ParseError(i, "' ' before the box group")
            phrase = text[pos : i - 1]
            if not phrase:
                raise ParseError(pos, "a finding phrase")
            boxes, pos = _parse_box_run(text, i, out.warnings)
            if pos >= n or text[pos] != ".":
                raise ParseError(pos, "'.'")
            findings.append(Finding(phrase, tuple(boxes)))
            pos += 1
        if pos < n:
            if text[pos] != " ":
                raise ParseError(pos, "' ' or end of output")
            pos += 1
            if pos >= n:
                raise ParseError(pos, "another finding")
    if not findings:
        raise ParseError(pos, "at least one finding")
    out.findings = findings
    out.boxes = [b for f in findings for b in f.boxes]
    return pos


def _parse_strict(text: str, grammar: tuple, out: ParsedOutput) -> None:
    """Match ``text`` against a response template's ``grammar``.

    Literals match exactly. A text field is non-empty and ends at the first
    occurrence of its end text, or at the end of the output when it has none;
    boxes and findings follow their own grammars. Nothing may follow the
    template.
    """
    pos = 0
    for literal, name, end in grammar:
        if not text.startswith(literal, pos):
            raise ParseError(pos, repr(literal))
        pos += len(literal)
        if name == "boxes":
            out.boxes, pos = _parse_box_run(text, pos, out.warnings)
        elif name == "findings":
            pos = _parse_grg_strict(text, pos, out)
        elif name is not None:
            k = len(text) if end is None else text.find(end, pos)
            if k == -1:
                raise ParseError(len(text), f"{end!r} ending the {name}")
            if k == pos:
                raise ParseError(pos, f"a {name}")
            setattr(out, name, text[pos:k])
            pos = k
    if pos != len(text):
        raise ParseError(pos, "end of output")


def reference_parse(text: str, task: Task, mode: str) -> ParsedOutput:
    out = ParsedOutput(task=task)
    try:
        _parse_strict(text, RESPONSE_GRAMMAR[task], out)
        return out
    except ParseError:
        if mode == "strict":
            raise
    return ParsedOutput(task, **_salvage(text, task))


# ---------------------------------------------------------------------------
# Generated outputs

_LITERALS = sorted({lit for steps in RESPONSE_GRAMMAR.values() for lit, _, _ in steps if lit})
_coord = st.floats(0.0, 1.5)
_side = st.floats(0.0001, 1.5)
_RENDERED_BOX = st.builds(NormBox, _coord, _coord, _side, _side).map(format_box)
_PLAIN = st.sampled_from(["Mass", "left lung", "a", "effusion"])
_WORD = _PLAIN | st.sampled_from([" ", ".", ":", "\n", "0", "7", "2.5", "10.125", "1.", ".5"])
_ASCII = st.sampled_from(_LITERALS + ["[", "]", ",", "  ", ": ["]) | _WORD | _RENDERED_BOX
_NON_ASCII_DIGIT = st.sampled_from(["²", "٣"])
# A rendered box with a superscript or Arabic-Indic digit put in somewhere.
_ODD_BOX = st.tuples(_RENDERED_BOX, st.integers(0, 21), _NON_ASCII_DIGIT).map(
    lambda r: r[0][: r[1]] + r[2] + r[0][r[1] :]
)
_SEP = st.just(" ") | st.sampled_from(["", "  ", "\n"])
_PHRASE = (st.lists(_PLAIN, min_size=1, max_size=3).map(" ".join)
           | st.lists(_WORD, min_size=1, max_size=4).map("".join))
_PERIOD = st.just(".") | st.sampled_from(["", ".."])


def _joined(items):
    """One to four items joined by one separator, mostly a single space."""
    return st.tuples(st.lists(items, min_size=1, max_size=4), _SEP).map(lambda r: r[1].join(r[0]))


def _outputs(fragment, box):
    """(task, output) pairs: free fragments, or a task's template with grammar-shaped fields."""
    text = st.lists(fragment, max_size=12).map("".join)
    run = _joined(box)
    finding = st.tuples(_PHRASE, st.just("") | run.map(" ".__add__), _PERIOD).map("".join)
    fields = {"boxes": run, "findings": _joined(finding)}

    @st.composite
    def outputs(draw):
        task = draw(st.sampled_from(TASKS))
        if draw(st.booleans()):
            return task, draw(text)
        parts = []
        for literal, name, _ in RESPONSE_GRAMMAR[task]:
            parts.append(draw(st.just(literal) | fragment))
            if name is not None:
                parts.append(draw(fields.get(name, _PHRASE) | text))
        return task, "".join(parts)

    return outputs()


# ---------------------------------------------------------------------------
# Equivalence on the grammar's own alphabet


def _outcome(parse, text, task, mode):
    try:
        out = parse(text, task, mode)
    except ParseError:
        return "rejected"
    return (out.phrase, out.location, out.description, out.boxes, out.findings,
            out.salvaged, out.warnings)


def _same_as_reference(task, text):
    for mode in ("strict", "lenient"):
        assert _outcome(parse_output, text, task, mode) == _outcome(reference_parse, text, task, mode)


@settings(max_examples=1000)
@given(case=_outputs(_ASCII, _RENDERED_BOX))
def test_patterns_parse_like_the_reference_scanner(case):
    _same_as_reference(*case)


@pytest.mark.parametrize(
    "task,text",
    [
        (Task.GRG, "Nodule 2.5 cm [0.40,0.40,0.60,0.60]. Normal heart."),
        (Task.GRG, "Mass.Heart normal."),
        (Task.GRG, "Mass.  Heart normal."),
        (Task.GRG, "Mass. "),
        (Task.GRG, "Mass [0.40,0.40,0.60,0.60][0.5,0.5,0.1,0.1] [1,1,1,1]."),
        (Task.GRG, "Mass  [0.40,0.40,0.60,0.60]."),
        (Task.GRG, "Mass [0.40,0.40,0.60,0.60]  [0.5,0.5,0.1,0.1]."),
        (Task.PG, "a: [0.5,0.5,0.2,0.2] [0.5,0.5,0.2,"),
        (Task.PG, "a: [0.5,0.5,0.2,0.2]["),
        (Task.AGRG_LOCATE, "Location of the a: [1.,0.5,0.2,0.2]."),
    ],
)
def test_separator_and_phrase_rules_match_the_reference(task, text):
    _same_as_reference(task, text)


# ---------------------------------------------------------------------------
# Any text: strict raises only ParseError, lenient never raises


@settings(max_examples=500)
@example(case=(Task.PG, "mass: [0.50,0.50,0.20,0.2²]"))
@given(case=_outputs(st.text() | _ASCII | _NON_ASCII_DIGIT | _ODD_BOX, _RENDERED_BOX | _ODD_BOX))
def test_any_text_fails_only_with_parse_error(case):
    task, text = case
    try:
        parse_output(text, task)
    except ParseError:
        pass
    parse_output(text, task, "lenient")


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_non_ascii_digits_are_not_strict(digit):
    text = f"mass: [0.50,0.50,0.20,0.2{digit}]"
    with pytest.raises(ParseError):
        parse_output(text, Task.PG)
    out = parse_output(text, Task.PG, "lenient")
    assert out.salvaged


_LONG = 10**6
_CALIBRATION_TEXT = "[0.5,0.25] " * 100_000
#: Budgets in calibration loops: about 2.3 times the slowest case's reading on a
#: quiet host (2 CPUs, CPython 3.11.7, with or without ``-X dev``: rejecting takes
#: 4.1-5.2 loops, salvaging 5.3-6.0).
_REJECT_BUDGET = 11
_SALVAGE_BUDGET = 14
_BOX_PREFIX = {
    Task.PG: "mass: ",
    Task.GRG: "mass ",
    Task.AGRG_LOCATE: "Location of the mass: ",
    Task.AGRG_BOTH: "Location of the mass: ",
}


@pytest.mark.parametrize(
    "task,text",
    [(Task.GRG, "no period " * (_LONG // 10))]
    + [(task, prefix + "[0." + "5" * _LONG) for task, prefix in _BOX_PREFIX.items()]
    + [(task, prefix + "[0.5,0.5,0.2,0.2]" * (_LONG // 17) + "x")
       for task, prefix in _BOX_PREFIX.items()],
    ids=["grg-phrase"]
    + [f"{t.value}-digits" for t in _BOX_PREFIX]
    + [f"{t.value}-run" for t in _BOX_PREFIX],
)
def test_a_million_characters_are_rejected_quickly(task, text):
    # A backtracking blow-up would take minutes here, not seconds.
    _, loops = _in_calibration_loops(pytest.raises, ParseError, parse_output, text, task)
    assert loops < _REJECT_BUDGET


def test_a_million_character_grg_output_is_salvaged_quickly():
    n = _LONG // 17
    text = _BOX_PREFIX[Task.GRG] + "[0.5,0.5,0.2,0.2]" * n + "x"
    out, loops = _in_calibration_loops(parse_output, text, Task.GRG, "lenient")
    assert loops < _SALVAGE_BUDGET
    assert out.salvaged and [len(f.boxes) for f in out.findings] == [n, 0]


def _calibration_seconds():
    """Wall time of a fixed parse-like loop of the standard library alone:
    regex matches, float conversions and a tuple per match."""
    start = time.perf_counter()
    [(float(a), float(b)) for a, b in re.findall(r"\[([\d.]+),([\d.]+)\]", _CALIBRATION_TEXT)]
    return time.perf_counter() - start


def _in_calibration_loops(call, *args):
    """``call(*args)`` and its wall time in calibration loops, the slower of one
    timed just before it and one just after. A loaded host slows the loop as it
    slows the parser, so a budget in loops tests the parser, not the host. The
    cyclic collector is off throughout: its passes cost what the rest of the
    test process holds, not what the parser does."""
    gc.collect()
    gc.disable()
    try:
        before = _calibration_seconds()
        start = time.perf_counter()
        result = call(*args)
        elapsed = time.perf_counter() - start
        return result, elapsed / max(before, _calibration_seconds())
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Lenient GRG salvage against its previous form


def reference_grg_salvage(text: str) -> list[Finding]:
    """``_salvage``'s GRG findings as they were built before, one rebuild per box."""
    warnings: list[str] = []
    matches = list(_BOX_RE.finditer(text))
    boxes = [_make_box([float(g) for g in m.groups()], warnings) for m in matches]
    findings: list[Finding] = []
    cursor = 0
    for m, box in zip(matches, boxes):
        fragment = _clean_fragment(text[cursor : m.start()])
        if fragment or not findings:
            findings.append(Finding(fragment, (box,)))
        else:
            prev = findings[-1]
            findings[-1] = Finding(prev.text, prev.boxes + (box,))
        cursor = m.end()
    tail = _clean_fragment(text[cursor:])
    if tail:
        findings.append(Finding(tail, ()))
    return findings


_SALVAGE_FRAGMENT = _ASCII | _ODD_BOX | st.sampled_from(
    ["[ 0.5 , 0.5,0.2 ,0.2 ]", "[-1,2,3,-4]", "[0.5,0.5,0.2]", ". ", ";", ":", "\n"]
)


@settings(max_examples=1000)
@example(text="a [0.5,0.5,0.2,0.2][0.1,0.1,0.1,0.1]. [1,1,1,1] b [2,2,2,2] c")
@given(text=st.lists(_SALVAGE_FRAGMENT, max_size=12).map("".join))
def test_grg_salvage_matches_its_previous_form(text):
    assert _salvage(text, Task.GRG)["findings"] == reference_grg_salvage(text)
