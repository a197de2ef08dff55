"""Primary outputs of the file-in/file-out chain, pinned by sha256 digest.

The corpus, plan, metrics, predictions and grid below are all seeded, so
each command's output bytes are a function of the code alone. A digest that
was re-recorded is dated, by version, in a comment beside it; a change that
moves any of them changes the bytes users get, and has to say so.

Every case but ``preprocess`` is also replayed in a fresh process where
``import numpy`` and ``import requests`` fail, under the running interpreter
and under each one that ``RADLOOP_OTHER_PYTHONS`` lists (``os.pathsep``-separated
paths), on inputs the running interpreter wrote. So the digests also check the
promise that these bytes do not depend on the CPython minor version. Each of
those interpreters also writes the fixture corpora the inputs start from, with
both blocked, in the running interpreter's bytes.
"""

import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radloop
from radloop.cli import dispatch
from radloop.core import NormBox, Task, dump_records_jsonl
from radloop.ingest import make_fixture_dataset
from radloop.taskgen import AGRG29, render_instruction

PG_CATEGORIES = ("Effusion", "Nodule", "Atelectasis")
INGEST_FORMATS = ("scene_graph", "phrase_boxes", "grounded_report", "detection")
AGRG_LOCATIONS = AGRG29.locations[:4]


#: The fixture corpora the golden inputs start from: name -> (seed, spec).
FIXTURE_CORPORA = {
    "corpus.jsonl": (11, {
        "pgsrc:pg": {c: 12 for c in PG_CATEGORIES},
        "cig:agrg": {loc: 5 for loc in AGRG_LOCATIONS},
        "grgsrc:grg": {"report": 15},
    }),
    "grg_corpus.jsonl": (17, {"grgsrc:grg": {"report": 7, "followup": 7, "screening": 6}}),
}


def golden_corpus():
    records = make_fixture_dataset(*FIXTURE_CORPORA["corpus.jsonl"])
    # Every third PG record carries a label, for gen-tasks --expand-labels.
    return [
        dataclasses.replace(rec, meta={**rec.meta, "label": f"label {i}"})
        if rec.task is Task.PG and i % 3 == 0
        else rec
        for i, rec in enumerate(records)
    ]


def golden_metrics():
    def entries(cats, base):
        return {c: {"iou": round(base + 0.07 * i, 2)} for i, c in enumerate(cats)}

    return [
        {"name": "pgsrc", "task": "pg", "iou": 0.55, "text_score": 0.7,
         "per_category": entries(PG_CATEGORIES, 0.4)},
        {"name": "cig", "task": "agrg", "iou": 0.62,
         "per_subtask": {t: entries(AGRG_LOCATIONS, 0.3 + 0.1 * k) for k, t in
                         enumerate(("agrg_locate", "agrg_describe", "agrg_both"))}},
        {"name": "grgsrc", "task": "grg", "text_score": 0.81,
         "per_category": {"report": {"text_score": 0.81}}},
    ]


def grg_gold():
    """GRG records in three categories; 40% have no boxed finding, and some
    more lose the boxes of their first finding only."""
    records = make_fixture_dataset(*FIXTURE_CORPORA["grg_corpus.jsonl"])
    out = []
    for i, rec in enumerate(records):
        if i % 5 in (0, 2):
            rec = dataclasses.replace(rec, findings=tuple(
                dataclasses.replace(f, boxes=()) for f in rec.findings))
        elif i % 5 == 3:
            first, *rest = rec.findings
            rec = dataclasses.replace(rec, findings=(dataclasses.replace(first, boxes=()), *rest))
        out.append(rec)
    return out


def drifted_preds(records, drifts):
    """Rendered responses as predictions in category round-robin order, so a
    category can score first after another appeared first; every 7th is
    missing and ``drifts`` maps ``index % len(drifts)`` to an edit."""
    by_cat = {}
    for rec in records:
        by_cat.setdefault(rec.category, []).append(rec)
    queues = list(by_cat.values())
    ordered = [q[i] for i in range(max(map(len, queues))) for q in queues if i < len(q)]
    rows = []
    for i, rec in enumerate(ordered):
        if i % 7 == 6:
            continue
        output = drifts[i % len(drifts)](render_instruction(rec).response)
        rows.append({"image_id": rec.image_id, "output": output})
    return rows


def _nudged(response):
    """Each box coordinate's second decimal moved up by 3 (mod 10): the IoUs become
    irregular floats, so how their means are rounded shows in the bytes."""
    return re.sub(r"(\d\.\d)(\d)", lambda m: m[1] + str((int(m[2]) + 3) % 10), response)


def _strips(rec):
    """The record with each box split into three overlapping half-width strips,
    so that a prediction's IoU comes from the sweep over many boxes."""
    return dataclasses.replace(rec, boxes=tuple(
        NormBox(round(b.cx + k * b.w / 4, 4), b.cy, round(b.w / 2, 4), b.h)
        for b in rec.boxes for k in (-1, 0, 1)))


GRG_DRIFTS = (
    _nudged,
    lambda r: r.rstrip("."),
    _nudged,
    lambda r: _nudged(r).replace(",", ", "),
    lambda r: "no acute findings" if len(r) % 2 else _nudged(r),
)
AGRG_DRIFTS = (lambda r: r, lambda r: r.replace(": [", " at ["), lambda r: r.lower())


JUDGE_FIELDS = (
    "gt_has_abnormalities", "gt_has_devices", "gen_has_abnormalities", "gen_has_devices",
    "gen_has_correct_abnormalities", "gen_has_hallucinated_abnormalities",
    "gen_has_correct_devices", "gen_has_hallucinated_devices",
)


def golden_verdicts():
    """Seeded judge rows over five anatomies; every seventh row failed validation."""
    rng = random.Random(5)
    anatomies = ("lung", "heart", "spine", "pleura", "mediastinum")
    rows = []
    for i in range(90):
        row = {"image_id": f"img-{i:03d}", "anatomy": anatomies[rng.randrange(5)]}
        if i % 7 == 3:
            row.update(error="nli_status", raw="{}")
        else:
            verdict = {"reason": f"row {i}"}
            for name in JUDGE_FIELDS:
                verdict[name] = rng.choice(("yes", "no"))
            verdict["nli_status"] = rng.choice(("contradiction", "entailment", "neutral"))
            row["verdict"] = verdict
        rows.append(row)
    return rows


def _raw_box(box, i):
    """``box`` as a raw [cx, cy, w, h] array; every third one (by ``i``) is pushed
    a quarter of its side past the right or the bottom border, so ingest clamps it."""
    if i % 3:
        return box.to_list()
    if i % 2:
        return [1 - box.w / 4, box.cy, box.w, box.h]
    return [box.cx, 1 - box.h / 4, box.w, box.h]


def golden_raw_rows(records):
    """Raw rows of each ``ingest`` format, built from the golden corpus."""
    agrg = [rec for rec in records if rec.task is Task.AGRG_BOTH]
    pg = [rec for rec in records if rec.task is Task.PG]
    grg = [rec for rec in records if rec.task is Task.GRG]
    scene_graph = []
    for i, rec in enumerate(agrg):
        # Box and sentence, but every fourth row has only one of the two.
        row = {"image_id": rec.image_id, "location": rec.category, "source_id": rec.source_id}
        if i % 8 != 7:
            row["box"] = _raw_box(rec.boxes[0], i)
        if i % 8 != 3:
            row["sentence"] = rec.text
        scene_graph.append(row)
    phrase_boxes = [
        {"image_id": rec.image_id, "phrase": rec.text, "category": rec.category,
         "boxes": [_raw_box(b, i + k) for k, b in enumerate(rec.boxes)],
         "split": rec.split.value, **rec.meta}
        for i, rec in enumerate(pg)
    ]
    grounded_report = [
        {"image_id": rec.image_id, "source_id": rec.source_id,
         "findings": [{"text": f.text, "boxes": [_raw_box(b, i + k) for b in f.boxes]}
                      for k, f in enumerate(rec.findings)]}
        for i, rec in enumerate(grg)
    ]
    # One detector image per three PG records; every fourth label is global
    # (no boxes), and every fifth is a short label that ingest expands.
    detection = []
    for j in range(0, len(pg), 3):
        findings = []
        for k, rec in enumerate(pg[j:j + 3], j):
            finding = {"label": "Nodule/Mass" if k % 5 == 4 else rec.category}
            if k % 4 != 3:
                finding["boxes"] = [_raw_box(b, k) for b in rec.boxes]
            findings.append(finding)
        detection.append({"image_id": f"det-{j // 3}", "findings": findings})
    return {"scene_graph": scene_graph, "phrase_boxes": phrase_boxes,
            "grounded_report": grounded_report, "detection": detection}


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    records = golden_corpus()
    paths = {name: d / name for name in
             ("records.jsonl", "metrics.json", "preds.jsonl", "grid.json", "plan.json",
              "grg_gold.jsonl", "grg_preds.jsonl", "agrg_preds.jsonl", "verdicts.jsonl",
              "pg_multi_preds.jsonl")}
    dump_records_jsonl(paths["records.jsonl"], records)
    gold = grg_gold()
    dump_records_jsonl(paths["grg_gold.jsonl"], gold)
    write_jsonl(paths["grg_preds.jsonl"], drifted_preds(gold, GRG_DRIFTS))
    agrg_both = [rec for rec in records if rec.task is Task.AGRG_BOTH]
    write_jsonl(paths["agrg_preds.jsonl"], drifted_preds(agrg_both, AGRG_DRIFTS))
    write_jsonl(paths["verdicts.jsonl"], golden_verdicts())
    paths["metrics.json"].write_text(json.dumps(golden_metrics()), encoding="utf-8")
    for fmt, rows in golden_raw_rows(records).items():
        paths[f"raw_{fmt}.jsonl"] = d / f"raw_{fmt}.jsonl"
        write_jsonl(paths[f"raw_{fmt}.jsonl"], rows)
    pg = [rec for rec in records if rec.task is Task.PG]
    preds = [{"image_id": rec.image_id, "output": render_instruction(rec).response}
             for rec in pg]
    for row in preds[::5]:
        row["output"] = row["output"].replace(": [", " at [")
    write_jsonl(paths["preds.jsonl"], preds)
    write_jsonl(paths["pg_multi_preds.jsonl"], [
        {"image_id": rec.image_id, "output": _nudged(render_instruction(_strips(rec)).response)}
        for rec in pg])
    rng = np.random.default_rng(4)
    grid = {"width": 20, "height": 12, "max_level": 255,
            "values": [int(v) for v in rng.integers(0, 256, size=240)]}
    paths["grid.json"].write_text(json.dumps(grid), encoding="utf-8")
    assert dispatch(["plan", "--records", str(paths["records.jsonl"]), "--metrics",
                     str(paths["metrics.json"]), "--out", str(paths["plan.json"])]) == 0
    return {name.split(".")[0].upper(): str(p) for name, p in paths.items()}


GOLDEN_CASES = {
    "plan-uniform": ["plan", "--records", "RECORDS"],
    "plan-metrics": ["plan", "--records", "RECORDS", "--metrics", "METRICS"],
    "sample": ["sample", "--records", "RECORDS", "--plan", "PLAN", "--n", "500", "--seed", "11"],
    "simulate": ["simulate", "--records", "RECORDS", "--seed", "3", "--warmup-steps", "60",
                 "--reweight-interval", "50", "--total-steps", "260"],
    "gen-tasks": ["gen-tasks", "--records", "RECORDS"],
    "gen-tasks-expand": ["gen-tasks", "--records", "RECORDS", "--expand-labels"],
    "augment": ["augment", "--records", "RECORDS", "--seed", "7"],
    "eval-strict": ["eval", "--pred", "PREDS", "--gold", "RECORDS", "--task", "pg"],
    "eval-lenient": ["eval", "--pred", "PREDS", "--gold", "RECORDS", "--task", "pg",
                     "--mode", "lenient"],
    "eval-pg-multi": ["eval", "--pred", "PG_MULTI_PREDS", "--gold", "RECORDS", "--task", "pg"],
    "preprocess": ["preprocess", "--in", "GRID", "--resize-w", "9", "--resize-h", "7"],
    "eval-grg-strict": ["eval", "--pred", "GRG_PREDS", "--gold", "GRG_GOLD", "--task", "grg"],
    "eval-grg-lenient": ["eval", "--pred", "GRG_PREDS", "--gold", "GRG_GOLD", "--task", "grg",
                         "--mode", "lenient"],
    "eval-agrg-both-strict": ["eval", "--pred", "AGRG_PREDS", "--gold", "RECORDS", "--task",
                              "agrg_both"],
    "eval-agrg-both-lenient": ["eval", "--pred", "AGRG_PREDS", "--gold", "RECORDS", "--task",
                               "agrg_both", "--mode", "lenient"],
    "judge-aggregate": ["judge-aggregate", "--in", "VERDICTS"],
    **{f"ingest-{fmt}": ["ingest", "--in", f"RAW_{fmt.upper()}", "--format", fmt]
       for fmt in INGEST_FORMATS},
}

GOLDEN_DIGESTS = {
    "plan-metrics": "187193d844b77f6f11fd787dd31f11d332498dbec0f686ea6dd68fd5ef03fb4b",
    "plan-uniform": "dd4f130d99cf0742c93370d1fde389e3e6a609ea9d09af278f42873aa71efa78",
    "preprocess": "ddd5f07e8089e9d20ef70da8c24b5484d453858a0f3086f23db9b44f33bf17fc",
    # Re-recorded at 0.16.0 (2026-10-20), when make_fixture_dataset moved from a numpy
    # generator to the stated random.Random stream: their inputs changed, and on the
    # inputs 0.15.0 wrote they keep 0.15.0's bytes. Before that, augment was re-recorded
    # at 0.2.0 (its draws moved to a random.Random stream), the eval-grg cases at 0.13.0,
    # and eval-pg-multi was recorded at 0.15.0, when the case was added.
    "augment": "7cf1ca559e303270804691801ec9843d788e3aa3e86768dab6e9f843215c8d52",
    "gen-tasks": "5780616d87bdd99affc9f43fc494a2e61778baa9aaa0470396c0699e78111c8e",
    "gen-tasks-expand": "30381296af9849df454843c31ddb91131c028dda0d2365f23b7f87ef3269b0e4",
    "eval-grg-lenient": "f53cb7a23ffc45241f218293838470c32fe782f9cceddaaff66cf368a07a0f1c",
    "eval-grg-strict": "0642277fa8bd15d4fea68ce980baa9244ceb7d78ca17e49734e7203ac059b2d1",
    "eval-pg-multi": "f835c60e6f1a1a2830c940d2172ce4ed80ca2a96be46088cb869bac017ae3f45",
    # Re-recorded at 0.11.0 (2026-10-19), when sample and simulate moved from a numpy
    # generator to the stated random.Random stream.
    "sample": "7636f8353d7992ee16dbbdc8bc646076f9c5c64d46e400ec41dd0a2bd226270b",
    "simulate": "6fed3289afc019f41423f9a7de07ec76a41283069cc78af62739c8bc8c86be3c",
    # Re-recorded at 0.13.0, when |G ∩ P| and |G ∪ P| came from one sweep: the
    # IoUs that scored above 1 now score 1, and some others move by an ulp.
    "eval-agrg-both-lenient": "219750bc9113f7f3373a5e04105d20e78be866bccffc77eb2a6a5ad50df78f9d",
    "eval-agrg-both-strict": "7e61bdbf96c48b155b35eaafa92c906beff240e2f083f84a1950c9d23e5bd5c7",
    "eval-lenient": "ad35b5a7c7352be5fc67e3ce247850e5072062c57b59c2a83ac83ba4882c66cc",
    "eval-strict": "831d744d0a488bb6633d1d740272cbf1936b5b547208d41b3c38b732757b0bbd",
    # Re-recorded at 0.12.0, when every mean became math.fsum(values) / len(values).
    # These are the bytes that CPython 3.12 and 3.13 wrote before that change.
    "judge-aggregate": "42058f542e1758504ba874dd8175cab87aa88a87815a57b5815396d609620c6c",
    # Recorded at 0.18.0, when the cases were added, from 0.17.0's code.
    "ingest-detection": "0445b138c1b93d1a113272fac431435e4ac5049b852fca0bf80755040ed98275",
    "ingest-grounded_report": "409ca8701b91c404f06fab0352f16fe7f487299bef4f558fbe99376bba7c09cd",
    "ingest-phrase_boxes": "95fcbeaa58f46b75181ecd8cc920a729a69147dc8b7f551830c1ed2a98cc258a",
    "ingest-scene_graph": "8522760c0b7377e2c50ddd34350c5a64d79f5f7967a2ebc3c7c969eaa6ee70f5",
}


def golden_digest(case, inputs, out):
    assert dispatch([inputs.get(a, a) for a in GOLDEN_CASES[case]] + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_primary_output_matches_its_recorded_digest(case, golden_inputs, tmp_path):
    assert golden_digest(case, golden_inputs, tmp_path / "out") == GOLDEN_DIGESTS[case]


_DISPATCH_ALL = """
import json, sys
from radloop.cli import dispatch
for argv in json.loads(sys.argv[1]):
    assert dispatch(argv) == 0, argv
"""


def fresh_digests(cases, inputs, outdir, python=sys.executable, prelude="", **env):
    """Run ``cases`` in one fresh ``python`` process that first runs ``prelude``,
    with ``env`` added to its environment; return each output's digest."""
    outs = {case: outdir / case for case in cases}
    argvs = [[inputs.get(a, a) for a in GOLDEN_CASES[case]] + ["--out", str(out)]
             for case, out in outs.items()]
    src = str(Path(radloop.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([python, "-c", prelude + _DISPATCH_ALL, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{python} exited {proc.returncode}:\n{proc.stderr}"
    return {case: hashlib.sha256(out.read_bytes()).hexdigest() for case, out in outs.items()}


def test_outputs_do_not_depend_on_the_hash_seed(golden_inputs, tmp_path):
    """String hash order (``PYTHONHASHSEED``) never reaches the seeded chain's
    bytes: under two hash seeds each output matches its recorded digest."""
    cases = ("gen-tasks", "augment", "plan-metrics", "sample", "simulate")
    for hash_seed in ("0", "77"):
        digests = fresh_digests(cases, golden_inputs, tmp_path / hash_seed,
                                PYTHONHASHSEED=hash_seed)
        assert digests == {case: GOLDEN_DIGESTS[case] for case in cases}, hash_seed


#: Every replay runs as where numpy and requests are not installed.
_BLOCK_IMPORTS = "import sys\nsys.modules['numpy'] = sys.modules['requests'] = None\n"


# Every case but ``preprocess`` (which computes with numpy) runs without it.
_SCORING = {case for case in GOLDEN_CASES if case.startswith("eval")} | {"judge-aggregate"}
_SAMPLING = GOLDEN_CASES.keys() - _SCORING - {"preprocess"}


def _replay_blocked(python, cases, inputs, outdir):
    """Assert that ``python``, where ``import numpy`` and ``import requests``
    fail, writes the recorded bytes of each of ``cases`` from inputs the
    running interpreter wrote."""
    cases = sorted(cases)
    digests = fresh_digests(cases, inputs, outdir, python, prelude=_BLOCK_IMPORTS)
    assert digests == {case: GOLDEN_DIGESTS[case] for case in cases}


def test_the_sampler_needs_no_numpy(golden_inputs, tmp_path):
    """``ingest``, ``plan``, ``sample``, ``simulate``, ``gen-tasks`` and
    ``augment`` write their recorded bytes in an interpreter where ``import
    numpy`` and ``import requests`` fail."""
    _replay_blocked(sys.executable, _SAMPLING, golden_inputs, tmp_path)


def test_eval_and_judge_aggregate_need_no_numpy(golden_inputs, tmp_path):
    """Every ``eval`` case and ``judge-aggregate`` write their recorded bytes in
    an interpreter where ``import numpy`` and ``import requests`` fail."""
    _replay_blocked(sys.executable, _SCORING, golden_inputs, tmp_path)


def _other_pythons():
    paths = [p for p in os.environ.get("RADLOOP_OTHER_PYTHONS", "").split(os.pathsep) if p]
    if not paths:
        return [pytest.param(None, id="other", marks=pytest.mark.skip(
            reason="RADLOOP_OTHER_PYTHONS is unset or empty: no other CPython was checked"))]
    return [pytest.param(path, id=path) for path in paths]


@pytest.mark.parametrize("python", _other_pythons())
def test_other_pythons_write_the_recorded_bytes_without_numpy(python, golden_inputs, tmp_path):
    """Each interpreter in ``RADLOOP_OTHER_PYTHONS`` passes both tests above:
    every case but ``preprocess`` writes its recorded bytes without numpy or
    requests."""
    _replay_blocked(python, _SAMPLING | _SCORING, golden_inputs, tmp_path)


#: Writes each fixture corpus, and a benchmark subset of the first (one record
#: from each of its 26 text strata, and 12 box-only records), into ``outdir``.
_WRITE_CORPORA = """
from pathlib import Path
from radloop.core import dump_records_jsonl
from radloop.ingest import BenchmarkSubsetSpec, build_benchmark_subset, make_fixture_dataset
corpora = {{name: make_fixture_dataset(*args) for name, args in {corpora!r}.items()}}
corpora["subset.jsonl"] = build_benchmark_subset(
    corpora["corpus.jsonl"], BenchmarkSubsetSpec(26, 12), seed=5)
for name, records in corpora.items():
    dump_records_jsonl(Path({outdir!r}) / name, records)
"""


@pytest.mark.parametrize("python", _other_pythons())
def test_other_pythons_write_the_fixture_corpora_without_numpy(python, tmp_path):
    """Each interpreter in ``RADLOOP_OTHER_PYTHONS``, where ``import numpy``
    and ``import requests`` fail, writes the fixture corpora that the golden
    inputs start from, and a benchmark subset, in the bytes that the running
    interpreter writes."""
    here, there = tmp_path / "here", tmp_path / "there"
    exec(_WRITE_CORPORA.format(corpora=FIXTURE_CORPORA, outdir=str(here)), {})
    prelude = _BLOCK_IMPORTS + _WRITE_CORPORA.format(corpora=FIXTURE_CORPORA, outdir=str(there))
    assert fresh_digests((), {}, there, python, prelude=prelude) == {}
    names = ["corpus.jsonl", "grg_corpus.jsonl", "subset.jsonl"]
    assert sorted(p.name for p in there.iterdir()) == names
    for name in names:
        assert (there / name).read_bytes() == (here / name).read_bytes(), name
