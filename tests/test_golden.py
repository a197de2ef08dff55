"""Primary outputs of the file-in/file-out chain, pinned by sha256 digest.

The corpus, plan, metrics, predictions and grid below are all seeded, so
each command's output bytes are a function of the code alone. The digests
were recorded while the sampling pool still held whole records, so they pin
the bytes across that redesign; a change that moves any of them changes the
bytes users get, and has to say so.
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
from radloop.core import Task, dump_records_jsonl
from radloop.ingest import make_fixture_dataset
from radloop.taskgen import AGRG29, render_instruction

PG_CATEGORIES = ("Effusion", "Nodule", "Atelectasis")
AGRG_LOCATIONS = AGRG29.locations[:4]


def golden_corpus():
    records = make_fixture_dataset(
        11,
        {
            "pgsrc:pg": {c: 12 for c in PG_CATEGORIES},
            "cig:agrg": {loc: 5 for loc in AGRG_LOCATIONS},
            "grgsrc:grg": {"report": 15},
        },
    )
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
    records = make_fixture_dataset(
        17, {"grgsrc:grg": {"report": 7, "followup": 7, "screening": 6}}
    )
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


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    records = golden_corpus()
    paths = {name: d / name for name in
             ("records.jsonl", "metrics.json", "preds.jsonl", "grid.json", "plan.json",
              "grg_gold.jsonl", "grg_preds.jsonl", "agrg_preds.jsonl", "verdicts.jsonl")}
    dump_records_jsonl(paths["records.jsonl"], records)
    gold = grg_gold()
    dump_records_jsonl(paths["grg_gold.jsonl"], gold)
    write_jsonl(paths["grg_preds.jsonl"], drifted_preds(gold, GRG_DRIFTS))
    agrg_both = [rec for rec in records if rec.task is Task.AGRG_BOTH]
    write_jsonl(paths["agrg_preds.jsonl"], drifted_preds(agrg_both, AGRG_DRIFTS))
    write_jsonl(paths["verdicts.jsonl"], golden_verdicts())
    paths["metrics.json"].write_text(json.dumps(golden_metrics()), encoding="utf-8")
    preds = [
        {"image_id": rec.image_id, "output": render_instruction(rec).response}
        for rec in records if rec.task is Task.PG
    ]
    for row in preds[::5]:
        row["output"] = row["output"].replace(": [", " at [")
    write_jsonl(paths["preds.jsonl"], preds)
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
    "preprocess": ["preprocess", "--in", "GRID", "--resize-w", "9", "--resize-h", "7"],
    "eval-grg-strict": ["eval", "--pred", "GRG_PREDS", "--gold", "GRG_GOLD", "--task", "grg"],
    "eval-grg-lenient": ["eval", "--pred", "GRG_PREDS", "--gold", "GRG_GOLD", "--task", "grg",
                         "--mode", "lenient"],
    "eval-agrg-both-strict": ["eval", "--pred", "AGRG_PREDS", "--gold", "RECORDS", "--task",
                              "agrg_both"],
    "eval-agrg-both-lenient": ["eval", "--pred", "AGRG_PREDS", "--gold", "RECORDS", "--task",
                               "agrg_both", "--mode", "lenient"],
    "judge-aggregate": ["judge-aggregate", "--in", "VERDICTS"],
}

GOLDEN_DIGESTS = {
    # Re-recorded at 0.2.0, when augment's draws moved to a random.Random stream.
    "augment": "6f5698211f85cfa41914ce425991525fb6c6af902866f713015a61cac43bae1c",
    "gen-tasks": "a6f2557686bac3dfb3d7bee277c2b7f696ac1a422013412606505e2e6bc0b3df",
    "gen-tasks-expand": "b11714644214b1116eb9a303a9f7fa1b0a51cf77280088210c3bc52fc060d7e4",
    "plan-metrics": "187193d844b77f6f11fd787dd31f11d332498dbec0f686ea6dd68fd5ef03fb4b",
    "plan-uniform": "dd4f130d99cf0742c93370d1fde389e3e6a609ea9d09af278f42873aa71efa78",
    "preprocess": "ddd5f07e8089e9d20ef70da8c24b5484d453858a0f3086f23db9b44f33bf17fc",
    # Re-recorded at 0.11.0 (2026-10-19), when sample and simulate moved from a numpy
    # generator to the stated random.Random stream.
    "sample": "7636f8353d7992ee16dbbdc8bc646076f9c5c64d46e400ec41dd0a2bd226270b",
    "simulate": "6fed3289afc019f41423f9a7de07ec76a41283069cc78af62739c8bc8c86be3c",
    # Re-recorded at 0.13.0, when |G ∩ P| and |G ∪ P| came from one sweep: the
    # IoUs that scored above 1 now score 1, and some others move by an ulp.
    "eval-agrg-both-lenient": "219750bc9113f7f3373a5e04105d20e78be866bccffc77eb2a6a5ad50df78f9d",
    "eval-agrg-both-strict": "7e61bdbf96c48b155b35eaafa92c906beff240e2f083f84a1950c9d23e5bd5c7",
    "eval-grg-lenient": "3e94f374d1beecc5df6a25d26d3fc27125355d4c7554418efed6c3847ddf4358",
    "eval-grg-strict": "0a334b8ce3a0ad0f1fe841b9661b00cfbee6e8f572b7bf3b8f58a9d0a37220e0",
    "eval-lenient": "ad35b5a7c7352be5fc67e3ce247850e5072062c57b59c2a83ac83ba4882c66cc",
    "eval-strict": "831d744d0a488bb6633d1d740272cbf1936b5b547208d41b3c38b732757b0bbd",
    # Re-recorded at 0.12.0, when every mean became math.fsum(values) / len(values).
    # These are the bytes that CPython 3.12 and 3.13 wrote before that change.
    "judge-aggregate": "42058f542e1758504ba874dd8175cab87aa88a87815a57b5815396d609620c6c",
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


def fresh_digests(cases, inputs, outdir, prelude="", **env):
    """Run ``cases`` in one fresh interpreter that first runs ``prelude``,
    with ``env`` added to its environment; return each output's digest."""
    outs = {case: outdir / case for case in cases}
    argvs = [[inputs.get(a, a) for a in GOLDEN_CASES[case]] + ["--out", str(out)]
             for case, out in outs.items()]
    src = str(Path(radloop.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", prelude + _DISPATCH_ALL, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {case: hashlib.sha256(out.read_bytes()).hexdigest() for case, out in outs.items()}


def test_outputs_do_not_depend_on_the_hash_seed(golden_inputs, tmp_path):
    """String hash order (``PYTHONHASHSEED``) never reaches the seeded chain's
    bytes: under two hash seeds each output matches its recorded digest."""
    cases = ("gen-tasks", "augment", "plan-metrics", "sample", "simulate")
    for hash_seed in ("0", "77"):
        digests = fresh_digests(cases, golden_inputs, tmp_path / hash_seed,
                                PYTHONHASHSEED=hash_seed)
        assert digests == {case: GOLDEN_DIGESTS[case] for case in cases}, hash_seed


_NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"


def test_the_sampler_needs_no_numpy(golden_inputs, tmp_path):
    """``plan``, ``sample`` and ``simulate`` write their recorded bytes in an
    interpreter where ``import numpy`` fails."""
    cases = ("plan-metrics", "sample", "simulate")
    digests = fresh_digests(cases, golden_inputs, tmp_path, prelude=_NO_NUMPY)
    assert digests == {case: GOLDEN_DIGESTS[case] for case in cases}


def test_eval_and_judge_aggregate_need_no_numpy(golden_inputs, tmp_path):
    """Every ``eval`` case and ``judge-aggregate`` write their recorded bytes in
    an interpreter where ``import numpy`` fails."""
    cases = [case for case in GOLDEN_CASES if case.startswith("eval")] + ["judge-aggregate"]
    digests = fresh_digests(cases, golden_inputs, tmp_path, prelude=_NO_NUMPY)
    assert digests == {case: GOLDEN_DIGESTS[case] for case in cases}
