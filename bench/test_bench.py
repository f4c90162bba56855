"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q bench

They check that inputs are byte-stable per seed, that the output checker
draws the line at the documented float tolerance, and that span self times
add up.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys

import pytest

import check
import run
import spans
import workloads

GERMAN = os.path.join(run.ROOT, workloads.GERMAN_DATA)
REF = os.path.join(run.REFS, "german-pipeline.json.xz")
SCHEMAS = os.path.join(run.SRC, "fairaudit", "schemas")

# sha256 of the scaled-20x input for data variant 0; the stored references
# were captured from exactly this file
VARIANT0_SHA256 = "c423a7e2fdc6237cbd2b01c5d405ad2fdb63ba44b650464625fca8d1c298b4ee"


# --- workload generator -------------------------------------------------------

def test_generator_is_byte_stable(tmp_path):
    a = workloads.prepare("scaled-20x", 3, run.ROOT, str(tmp_path / "a"))
    b = workloads.prepare("scaled-20x", 3, run.ROOT, str(tmp_path / "b"))
    with open(a.dataset, "rb") as fa, open(b.dataset, "rb") as fb:
        data = fa.read()
        assert data == fb.read()
    assert data.count(b"\n") == workloads.SCALED_ROWS
    assert [s.name for s in a.steps] == ["train", "audit-data", "audit-model", "compare"]


def test_generator_pins_variant_0_bytes():
    data = workloads.resample_german(GERMAN, workloads.SCALED_ROWS, 0)
    assert hashlib.sha256(data).hexdigest() == VARIANT0_SHA256


def test_seeds_fold_onto_variants_with_distinct_data():
    assert workloads.scaled_variant(3) == workloads.scaled_variant(3 + workloads.SCALED_VARIANTS)
    assert (workloads.resample_german(GERMAN, 100, 0)
            != workloads.resample_german(GERMAN, 100, 1))


def test_deep_subclass_config_is_fixed(tmp_path):
    wl = workloads.prepare("deep-subclass", 7, run.ROOT, str(tmp_path))
    with open(wl.inputs["config"], encoding="utf-8") as fh:
        assert json.load(fh) == {"detection": {"depth": 3}}
    assert [s.name for s in wl.steps] == ["train", "audit-data", "audit-model", "compare"]


def test_unknown_workload_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        workloads.prepare("nope", 0, run.ROOT, str(tmp_path))


# --- output checker -------------------------------------------------------------

@pytest.fixture(scope="module")
def refs():
    return check.load_refs(REF)


def _checker(refs):
    return check.Checker(refs, SCHEMAS, GERMAN)


def _perturbed_risk_report(refs, factor=None, text=None):
    doc = json.loads(refs["audit-data"]["files"]["risk_report_data.json"])
    if factor is not None:
        doc["overall"] *= factor
    if text is not None:
        doc["hazards"][0]["test"] = text
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _check_audit(refs, risk_text, out_dir):
    files = dict(refs["audit-data"]["files"], **{"risk_report_data.json": risk_text})
    return _checker(refs).check_step("audit-data", refs["audit-data"]["stdout"], files, out_dir)


def test_checker_accepts_the_reference(refs, tmp_path):
    (tmp_path / "scores.csv").write_text(refs["train"]["files"]["scores.csv"])
    checker = _checker(refs)
    for step, ref in refs.items():
        assert checker.check_step(step, ref["stdout"], ref["files"], str(tmp_path)) == []


def test_checker_accepts_1e13_float_change(refs, tmp_path):
    assert _check_audit(refs, _perturbed_risk_report(refs, factor=1 + 1e-13), str(tmp_path)) == []


def test_checker_rejects_1e9_float_change(refs, tmp_path):
    problems = _check_audit(refs, _perturbed_risk_report(refs, factor=1 + 1e-9), str(tmp_path))
    assert len(problems) == 1 and "overall" in problems[0]


def test_checker_rejects_changed_string(refs, tmp_path):
    problems = _check_audit(refs, _perturbed_risk_report(refs, text="genderX"), str(tmp_path))
    assert problems and "genderX" in problems[0]


def test_checker_rejects_missing_file(refs, tmp_path):
    ref = refs["audit-data"]
    files = dict(ref["files"])
    del files["hazard_gender_group_data.json"]
    problems = _checker(refs).check_step("audit-data", ref["stdout"], files, str(tmp_path))
    assert any("files" in p for p in problems)


def test_checker_revalidates_schema_even_when_reference_agrees(refs, tmp_path):
    doc = json.loads(refs["audit-data"]["files"]["risk_report_data.json"])
    del doc["overall_display"]  # required by risk_report.schema.json
    text = json.dumps(doc)
    bad_refs = copy.deepcopy(refs)
    bad_refs["audit-data"]["files"]["risk_report_data.json"] = text
    files = dict(bad_refs["audit-data"]["files"])
    problems = _checker(bad_refs).check_step("audit-data", refs["audit-data"]["stdout"],
                                             files, str(tmp_path))
    assert len(problems) == 1 and "schema risk_report" in problems[0]


def test_checker_rejects_int_float_and_stdout_changes():
    with pytest.raises(check.Mismatch):
        check.compare_values({"n": 1}, {"n": 1.0})
    with pytest.raises(check.Mismatch):
        check.compare_text("overall risk (data): 0.01235\n", "overall risk (data): 0.01234\n", "x")
    check.compare_text("a,1.0000000000001\n", "a,1.0\n", "x")


def test_sweep_identity_is_enforced(refs):
    amounts, bad = check.german_amounts_labels(GERMAN)
    scores = check.read_scores(refs["train"]["files"]["scores.csv"])
    doc = json.loads(refs["sweep"]["files"]["sweep.json"])
    check.check_sweep_identity(doc, amounts, bad, scores)
    broken = copy.deepcopy(doc)
    broken["rows"][10]["provisions"] *= 1 + 1e-9
    with pytest.raises(check.Mismatch, match="provisions"):
        check.check_sweep_identity(broken, amounts, bad, scores)


def test_failed_check_counts_as_failed_invocation(refs, tmp_path):
    tally = run.Tally()
    tally.record(_check_audit(refs, _perturbed_risk_report(refs), str(tmp_path)))
    tally.record(_check_audit(refs, _perturbed_risk_report(refs, factor=1.5), str(tmp_path)))
    assert (tally.attempted, tally.failed) == (2, 1)


# --- spans and self time --------------------------------------------------------

def test_self_time_on_synthetic_tree():
    tree = [
        spans.Span("main", 0.0, 10.0, None),     # children cover 1..4 and 5..9
        spans.Span("a", 1.0, 4.0, 0),            # child covers 2..3
        spans.Span("a.child", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),            # no children
        spans.Span("other_root", 20.0, 21.5, None),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_self_time_clips_overlapping_children():
    tree = [spans.Span("p", 0.0, 4.0, None),
            spans.Span("c1", 1.0, 3.0, 0),
            spans.Span("c2", 2.0, 5.0, 0)]  # overlaps c1 and runs past the parent
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, run.SRC)
    import fairaudit.cli  # noqa: F401 - loads every module the tracer patches
    from fairaudit import detection, revenue, risk, tabular

    originals = (tabular.partition, detection.partition, risk.run_battery, revenue.run_battery)
    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        assert missing == set()
        assert detection.partition is tabular.partition is not originals[0]
        assert revenue.run_battery is risk.run_battery is not originals[2]
        assert fairaudit.cli.run_battery is risk.run_battery
    finally:
        tracer.uninstall()
    assert (tabular.partition, detection.partition, risk.run_battery,
            revenue.run_battery) == originals


def test_missing_function_reports_missing_not_zero(monkeypatch):
    sys.path.insert(0, run.SRC)
    import fairaudit.cli  # noqa: F401
    from fairaudit import detection, tabular

    monkeypatch.delattr(tabular, "partition")
    monkeypatch.delattr(detection, "partition")
    tracer = spans.Tracer()
    missing = tracer.install()
    tracer.uninstall()
    assert missing == {"tabular.partition"}
    values = run.layer_values(tracer, missing)
    assert values["tabular.partition.calls"] is None
    assert values["tabular.partition.distinct_ratio"] is None
    assert values["divergence.js.calls"] == 0


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile(list(range(19))) is None
    p, value = run.tail_percentile(list(range(1, 21)))
    assert (p, value) == (50.0, 10)
    p, _ = run.tail_percentile(list(range(200)))
    assert p == 95.0
