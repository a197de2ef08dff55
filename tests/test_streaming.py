"""Records stream through the CLI: decoded one at a time, never all held.

The sampling commands keep one image id per record, and the rendering
commands keep nothing past the line being written. A malformed line still
fails the whole stage with its line number and leaves old outputs alone.
"""

import dataclasses
import gc
import json
import tracemalloc
import weakref
from pathlib import Path

import pytest

from radloop.cli import dispatch
from radloop.core import Task, dump_records_jsonl, load_records_jsonl
from radloop.curriculum import SamplingPool
from radloop.ingest import make_fixture_dataset
from radloop.taskgen import AGRG29


def labeled_corpus(pg, agrg, grg):
    """4 PG categories, 2 AGRG locations (3 subtasks each) and GRG reports;
    every other PG record carries a label for ``--expand-labels``."""
    records = make_fixture_dataset(
        3,
        {
            "pgsrc:pg": {c: pg for c in ("a", "b", "c", "d")},
            "cig:agrg": {loc: agrg for loc in ("spine", "trachea")},
            "grgsrc:grg": {"report": grg},
        },
    )
    return [
        dataclasses.replace(rec, meta={**rec.meta, "label": "Effusion"})
        if rec.task is Task.PG and i % 2 == 0
        else rec
        for i, rec in enumerate(records)
    ]


@pytest.fixture(scope="module")
def corpus_2k(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    records = labeled_corpus(pg=300, agrg=100, grg=200)
    assert len(records) == 2000
    path = d / "records.jsonl"
    dump_records_jsonl(path, records)
    plan = d / "plan.json"
    assert dispatch(["plan", "--records", str(path), "--out", str(plan)]) == 0
    return {"RECORDS": str(path), "PLAN": str(plan)}


_STAGES = {
    "plan": ["plan", "--records", "RECORDS"],
    "sample": ["sample", "--records", "RECORDS", "--plan", "PLAN", "--n", "3000", "--seed", "1"],
    "simulate": ["simulate", "--records", "RECORDS", "--seed", "1", "--warmup-steps", "500",
                 "--reweight-interval", "500", "--total-steps", "1500"],
    "gen-tasks": ["gen-tasks", "--records", "RECORDS", "--expand-labels"],
    "augment": ["augment", "--records", "RECORDS", "--seed", "1"],
}


def test_pool_keeps_no_record():
    refs = []

    def records():
        for rec in labeled_corpus(pg=6, agrg=2, grg=4):
            refs.append(weakref.ref(rec))
            yield rec

    pool = SamplingPool.from_records(records())
    gc.collect()
    assert len(refs) == 40 and pool.sources["pgsrc:pg"].size == 24
    assert [r for r in refs if r() is not None] == []


def traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", sorted(_STAGES))
def test_stage_peak_is_below_half_the_loaded_records(stage, corpus_2k, tmp_path):
    records, loaded = traced_peak(lambda: load_records_jsonl(corpus_2k["RECORDS"]))
    assert len(records) == 2000
    del records
    argv = [corpus_2k.get(a, a) for a in _STAGES[stage]] + ["--out", str(tmp_path / "out")]
    dispatch(argv)  # warm: lazy imports and first-use caches are not the stage's data
    code, peak = traced_peak(lambda: dispatch(argv))
    assert code == 0
    assert peak < loaded / 2, f"{stage} peaked at {peak} bytes; the records take {loaded}"


def test_a_loaded_record_holds_at_most_900_bytes(tmp_path):
    """Slotted record types and interned names: about 830 bytes per record on
    this mix, against about 1,050 with an instance dict and a copy of each name
    per record (tracemalloc, CPython 3.11)."""
    pg = ("Atelectasis", "Cardiomegaly", "Consolidation", "Pleural effusion",
          "Pneumothorax", "Lung opacity", "Nodule/Mass", "Rib fracture")
    spec = {f"{src}:pg": {c: 8 for c in pg} for src in ("ms-cxr", "padchest-gr", "vindr-cxr")}
    spec["chest-imagenome:agrg"] = {loc: 8 for loc in AGRG29.locations}
    spec["mimic-grg:grg"] = {"report": 200}
    path = tmp_path / "records.jsonl"
    dump_records_jsonl(path, make_fixture_dataset(5, spec))
    load_records_jsonl(path)  # warm: first-use caches are not the records' bytes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = load_records_jsonl(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 1088
    assert held / len(records) <= 900, f"{held / len(records):.0f} bytes per record"


_BAD_LAST_LINES = {
    "invalid JSON": ('{"image_id": "i", "source_id": ', "invalid JSON: "),
    "missing field": (json.dumps({"image_id": "i", "source_id": "s", "task": "pg",
                                  "category": "c", "text": "x"}), "missing field 'split'"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_LAST_LINES))
@pytest.mark.parametrize("stage", sorted(_STAGES))
def test_malformed_last_line_fails_the_stage_and_keeps_old_outputs(
    stage, bad, corpus_2k, tmp_path, capsys
):
    line, reason = _BAD_LAST_LINES[bad]
    good = Path(corpus_2k["RECORDS"]).read_text(encoding="utf-8")
    records = tmp_path / "records.jsonl"
    records.write_text(good + line + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "out"
    out.write_bytes(b"old output\n")
    (out_dir / "out.manifest.json").write_bytes(b"old manifest\n")
    argv = [{**corpus_2k, "RECORDS": str(records)}.get(a, a) for a in _STAGES[stage]]
    assert dispatch(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR radloop: FormatError: line 2001: {reason}"), err
    assert out.read_bytes() == b"old output\n"
    assert (out_dir / "out.manifest.json").read_bytes() == b"old manifest\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["out", "out.manifest.json"]
