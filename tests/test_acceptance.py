"""Acceptance gate: the exit criteria, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -s -v` to see one PASS/FAIL line per
criterion.  The whole gate drives the shipped CLI end-to-end on the real
German Credit file and finishes well inside two minutes.
"""

import json
import math
import os
import random
import time
from contextlib import contextmanager

import pytest

from fairaudit import cli
from fairaudit import divergence as dv
from fairaudit import risk
from fairaudit.detection import CLASS_VS_CLASS
from fairaudit.detection import TestLine as Line
from fairaudit.detection import TestReport as Report
from fairaudit.tabular import ProbabilityDistribution


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({title}): PASS")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_pipeline(out, german_path):
    t0 = time.monotonic()
    assert cli.main(["train", "--dataset", german_path, "--out", out]) == 0
    train_seconds = time.monotonic() - t0
    scores_csv = os.path.join(out, "scores.csv")
    assert cli.main(["audit", "--target", "data",
                     "--dataset", german_path, "--out", out]) == 0
    assert cli.main(["audit", "--target", "model", "--scores", scores_csv,
                     "--dataset", german_path, "--out", out]) == 0
    assert cli.main(["compare", os.path.join(out, "risk_report_model.json"),
                     os.path.join(out, "risk_report_data.json"),
                     "--out", out]) == 0
    assert cli.main(["sweep", "--scores", scores_csv,
                     "--dataset", german_path, "--out", out]) == 0
    return {"out": out, "train_seconds": train_seconds,
            "total_seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, german_path):
    out = str(tmp_path_factory.mktemp("acceptance"))
    return _run_pipeline(out, german_path)


def group_hazards(doc):
    return {h["test"]: h["value"] for h in doc["hazards"] if h["mode"] == "group"}


def individual_hazards(doc):
    return {h["test"]: h["value"] for h in doc["hazards"] if h["mode"] == "individual"}


def test_criterion_1_scorecard_quality(pipeline):
    with criterion(1, "scorecard quality"):
        metrics = _read(os.path.join(pipeline["out"], "metrics.json"))
        assert 0.75 <= metrics["auc"] <= 0.85
        assert metrics["gini"] == 2 * metrics["auc"] - 1
        assert pipeline["train_seconds"] < 30.0


def test_criterion_2_data_hazard_ordering(pipeline):
    with criterion(2, "data-hazard ordering"):
        doc = _read(os.path.join(pipeline["out"], "risk_report_data.json"))
        g = group_hazards(doc)
        assert g["foreign"] > g["age_group"] > g["gender"] > 0.0
        i = individual_hazards(doc)
        assert i["foreign"] > i["age_group"] > i["gender"] > 0.0


def test_criterion_3_model_hazard_ordering(pipeline):
    with criterion(3, "model-hazard ordering"):
        doc = _read(os.path.join(pipeline["out"], "risk_report_model.json"))
        g = group_hazards(doc)
        assert g["age_group"] > g["foreign"] > g["gender"] > 0.0
        i = individual_hazards(doc)
        assert i["age_group"] > i["foreign"] > i["gender"] > 0.0


def test_criterion_4_bias_correction_signs(pipeline):
    with criterion(4, "bias-correction signs"):
        doc = _read(os.path.join(pipeline["out"], "hazard_comparison.json"))
        by_key = {(e["feature"], e["mode"]): e["difference"] for e in doc["entries"]}
        assert by_key[("foreign", "group")] < 0.0
        assert by_key[("age_group", "group")] > 0.0
        assert abs(doc["overall_difference"]) < 0.5 * doc["data_overall"]


# --- criterion 5: divergence kernel against an independent oracle -----------

def oracle_kl(p_counts, q_counts):
    pt, qt = sum(p_counts), sum(q_counts)
    total = 0.0
    for pc, qc in zip(p_counts, q_counts):
        p, q = pc / pt, qc / qt
        if p == 0.0:
            continue
        if q == 0.0:
            return math.inf
        total += p * math.log2(p / q)
    return total


def oracle_js(p_counts, q_counts):
    pt, qt = sum(p_counts), sum(q_counts)
    ps = [c / pt for c in p_counts]
    qs = [c / qt for c in q_counts]
    ms = [(a + b) / 2.0 for a, b in zip(ps, qs)]

    def partial(xs):
        return sum(x * math.log2(x / m) for x, m in zip(xs, ms) if x > 0.0)

    return (partial(ps) + partial(qs)) / 2.0


def _counts(rng, k):
    while True:
        cs = [rng.randint(0, 40) for _ in range(k)]
        if sum(cs) > 0:
            return cs


def _dist(counts):
    return ProbabilityDistribution.from_counts(
        tuple(f"v{i}" for i in range(len(counts))), counts)


def test_criterion_5_divergence_kernel():
    with criterion(5, "divergence kernel vs brute-force oracle"):
        rng = random.Random(424242)
        for _ in range(1000):
            k = rng.randint(2, 5)
            pc, qc = _counts(rng, k), _counts(rng, k)
            p, q = _dist(pc), _dist(qc)
            want = oracle_kl(pc, qc)
            got = dv.kl(p, q).value
            if math.isinf(want):
                assert math.isinf(got)
                assert dv.kl_normalized(p, q).value == 1.0
            else:
                assert abs(got - want) <= 1e-12
                assert abs(dv.kl_normalized(p, q).value
                           - (1.0 - math.exp(-want))) <= 1e-12
            assert abs(dv.js(p, q).value - oracle_js(pc, qc)) <= 1e-12
            assert abs(dv.js(p, q).value - dv.js(q, p).value) <= 1e-12
            assert dv.kl(p, p).value == 0.0
        # disjoint supports give JS = 1 exactly
        for _ in range(100):
            k = rng.randint(2, 6)
            cut = rng.randint(1, k - 1)
            left = _counts(rng, cut) + [0] * (k - cut)
            right = [0] * cut + _counts(rng, k - cut)
            assert dv.js(_dist(left), _dist(right)).value == 1.0


def test_criterion_6_threshold_policy():
    with criterion(6, "automatic threshold policy"):
        sizes = [100 * i for i in range(1, 11)]
        grid_points = 0
        for n_c in range(2, 12):
            prev = None
            for n_d in sizes:
                eps_high = dv.auto_threshold("high", n_c, n_d, 1000).epsilon
                eps_low = dv.auto_threshold("low", n_c, n_d, 1000).epsilon
                assert eps_high <= eps_low
                if prev is not None:
                    assert eps_high <= prev
                prev = eps_high
                grid_points += 1
        assert grid_points == 100
        for n_d in sizes:  # monotone in class granularity too
            values = [dv.auto_threshold("high", n_c, n_d, 1000).epsilon
                      for n_c in range(2, 12)]
            assert all(b <= a for a, b in zip(values, values[1:]))
        for interval in ((0.005, 0.025), (0.02, 0.10)):
            assert dv.interpolate_threshold(interval, 0.0) == interval[1]
            assert dv.interpolate_threshold(interval, 1.0) == interval[0]


def test_criterion_7_risk_formula():
    with criterion(7, "risk formula"):
        line = Line(conditions=(), compared=("a", "b"), union_count=500,
                    divergence=dv.DivergenceValue(dv.JS, 0.002),
                    epsilon=0.001, violated=True)
        rep = Report(sensitive_feature="t", mode=CLASS_VS_CLASS,
                     divergence_kind=dv.JS, aggregation_mode="max",
                     dataset_size=1000, conditioning_columns=(),
                     lines=(line,))
        h = risk.hazard(rep, risk.GROUP)
        cbrt = risk.cbrt(0.001)
        assert cbrt == 0.1
        assert h.value == 0.5 * cbrt * cbrt * 1.0
        assert abs(h.value - 0.005) < 1e-15

        silent = Line(conditions=(), compared=("a", "b"), union_count=500,
                      divergence=dv.DivergenceValue(dv.JS, 0.0005),
                      epsilon=0.001, violated=False)
        rep0 = Report(sensitive_feature="t", mode=CLASS_VS_CLASS,
                      divergence_kind=dv.JS, aggregation_mode="max",
                      dataset_size=1000, conditioning_columns=(),
                      lines=(silent,))
        assert risk.hazard(rep0, risk.GROUP).value == 0.0

        hazards = [risk.HazardValue(test=f"t{i}", mode=risk.GROUP,
                                    value=v, line_contributions=(v,))
                   for i, v in enumerate((0.004, 0.006, 0.0, 0.01))]
        rr = risk.overall_risk(hazards)
        assert abs(rr.overall - sum(h.value for h in hazards) / 4) <= 1e-12


def test_criterion_8_empty_class_warnings(pipeline):
    with criterion(8, "empty-class handling on the foreign audit"):
        for target in ("data", "model"):
            doc = _read(os.path.join(pipeline["out"],
                                     f"test_report_foreign_{target}.json"))
            skipped = [l for l in doc["lines"] if l["divergence"] is None]
            assert skipped, "expected at least one skipped subclass line"
            assert all(l["warnings"] for l in skipped)


def test_criterion_9_revenue(pipeline, german, scores):
    with criterion(9, "revenue identities and profit curve"):
        doc = _read(os.path.join(pipeline["out"], "sweep.json"))
        rows = doc["rows"]
        assert len(rows) == 51
        amounts = [float(v) for v in german.column("Attribute5").values]
        for row in rows:
            accepted_total = sum(a for a, s in zip(amounts, scores)
                                 if s >= row["threshold"])
            assert row["provisions"] == accepted_total * row["bad_rate"] * 0.2
        assert rows[0]["threshold"] == 300
        assert min(scores) > 300
        assert rows[0]["bad_rate"] == 0.3
        profits = [r["profit"] for r in rows]
        assert any(profits[i - 1] < profits[i] >= profits[i + 1]
                   for i in range(1, len(profits) - 1)), "no interior local maximum"
        thresholds = [r["threshold"] for r in rows]
        assert {610, 620, 630} <= set(thresholds)


def test_criterion_10_determinism(pipeline, german_path, tmp_path_factory):
    with criterion(10, "byte-identical reruns"):
        rerun = str(tmp_path_factory.mktemp("acceptance_rerun"))
        _run_pipeline(rerun, german_path)
        names = sorted(os.listdir(pipeline["out"]))
        assert names == sorted(os.listdir(rerun))
        for name in names:
            with open(os.path.join(pipeline["out"], name), "rb") as a, \
                 open(os.path.join(rerun, name), "rb") as b:
                assert a.read() == b.read(), f"{name} differs between reruns"
        assert pipeline["total_seconds"] < 120.0
