import csv
import json
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

from fairaudit import cli, report
from fairaudit.config import (AuditConfig, ConfigError, SweepGrid, config_from_dict,
                              load_config)
from fairaudit.detection import DetectionConfig

EXAMPLE_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "config.example.json")


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestTrain:
    def test_writes_artifacts(self, outputs):
        for name in ("scorecard.json", "scores.csv", "metrics.json"):
            assert os.path.exists(os.path.join(outputs, name))

    def test_metrics_content(self, outputs):
        metrics = read_json(os.path.join(outputs, "metrics.json"))
        assert 0.75 <= metrics["auc"] <= 0.85
        assert metrics["gini"] == 2 * metrics["auc"] - 1
        assert metrics["threshold"] == 550

    def test_scores_csv_roundtrip(self, outputs, german):
        scores = report.read_scores_csv(os.path.join(outputs, "scores.csv"))
        assert len(scores) == german.size

    def test_rerun_is_byte_identical(self, tmp_path, german_path, outputs):
        out2 = str(tmp_path / "rerun")
        assert run("train", "--dataset", german_path, "--out", out2) == 0
        for name in ("scorecard.json", "scores.csv", "metrics.json"):
            with open(os.path.join(outputs, name), "rb") as a, \
                 open(os.path.join(out2, name), "rb") as b:
                assert a.read() == b.read()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.data")
        assert run("train", "--dataset", missing, "--out", str(tmp_path)) == 2
        assert missing in capsys.readouterr().err


class TestAudit:
    def test_reports_schema_valid(self, outputs):
        for target in ("data", "model"):
            doc = read_json(os.path.join(outputs, f"risk_report_{target}.json"))
            jsonschema.validate(doc, report.load_schema("risk_report"))
            for feature in ("gender", "age_group", "foreign"):
                tr = read_json(os.path.join(outputs, f"test_report_{feature}_{target}.json"))
                jsonschema.validate(tr, report.load_schema("test_report"))

    def test_hazard_files_exist(self, outputs):
        for target in ("data", "model"):
            for feature in ("gender", "age_group", "foreign"):
                for mode in ("group", "individual"):
                    path = os.path.join(outputs, f"hazard_{feature}_{mode}_{target}.json")
                    assert os.path.exists(path)

    def test_line_flags_consistent(self, outputs):
        tr = read_json(os.path.join(outputs, "test_report_gender_data.json"))
        for line in tr["lines"]:
            if line["divergence"] is None:
                assert not line["violated"]
                assert line["warnings"]
            else:
                assert line["violated"] == (line["divergence"]["value"] > line["epsilon"])

    def test_model_requires_scores(self, tmp_path, german_path, capsys):
        code = run("audit", "--target", "model", "--dataset", german_path,
                   "--out", str(tmp_path))
        assert code == 2
        assert "--scores" in capsys.readouterr().err

    def test_unknown_sensitive_feature_fails_before_output(self, tmp_path, german_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "sensitive_features": ["gender", "martians"],
        }))
        out = tmp_path / "audit_out"
        code = run("audit", "--target", "data", "--config", str(cfg_path),
                   "--dataset", german_path, "--out", str(out))
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_mode_flag_limits_battery(self, tmp_path, german_path):
        out = str(tmp_path / "grp")
        assert run("audit", "--target", "data", "--mode", "group",
                   "--dataset", german_path, "--out", out) == 0
        doc = read_json(os.path.join(out, "risk_report_data.json"))
        assert {h["mode"] for h in doc["hazards"]} == {"group"}


class TestCompare:
    def test_schema_valid(self, outputs):
        doc = read_json(os.path.join(outputs, "hazard_comparison.json"))
        jsonschema.validate(doc, report.load_schema("hazard_comparison"))

    def test_identical_inputs_give_zero(self, outputs, tmp_path):
        data_report = os.path.join(outputs, "risk_report_data.json")
        doc = read_json(data_report)
        doc["target"] = "model"
        fake_model = tmp_path / "risk_report_model.json"
        fake_model.write_text(json.dumps(doc))
        out = str(tmp_path / "cmp")
        assert run("compare", str(fake_model), data_report, "--out", out) == 0
        cmp_doc = read_json(os.path.join(out, "hazard_comparison.json"))
        assert all(e["difference"] == 0.0 for e in cmp_doc["entries"])
        assert cmp_doc["overall_difference"] == 0.0

    def test_feature_mismatch_exit_1(self, outputs, tmp_path, capsys):
        doc = read_json(os.path.join(outputs, "risk_report_model.json"))
        doc["hazards"] = [h for h in doc["hazards"] if h["test"] != "gender"]
        crippled = tmp_path / "crippled.json"
        crippled.write_text(json.dumps(doc))
        code = run("compare", str(crippled),
                   os.path.join(outputs, "risk_report_data.json"),
                   "--out", str(tmp_path))
        assert code == 1
        assert "different tests" in capsys.readouterr().err

    @pytest.mark.parametrize("repeated", ["model", "data"])
    def test_repeated_hazard_exit_1(self, outputs, tmp_path, capsys, repeated):
        paths = {target: os.path.join(outputs, f"risk_report_{target}.json")
                 for target in ("model", "data")}
        doc = read_json(paths[repeated])
        doc["hazards"].append({**doc["hazards"][0], "value": 0.7})
        paths[repeated] = tmp_path / "repeated.json"
        paths[repeated].write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("compare", str(paths["model"]), str(paths["data"]), "--out", str(out)) == 1
        err = capsys.readouterr().err
        first = doc["hazards"][0]
        assert err == (f"error: {repeated} risk report lists hazard "
                       f"('{first['test']}', '{first['mode']}') twice\n")
        assert not out.exists()

    def test_swapped_targets_rejected(self, outputs, tmp_path, capsys):
        code = run("compare",
                   os.path.join(outputs, "risk_report_data.json"),
                   os.path.join(outputs, "risk_report_model.json"),
                   "--out", str(tmp_path))
        assert code == 1


class TestSweepCommand:
    def test_sweep_files(self, tmp_path, german_path, outputs):
        out = str(tmp_path / "sweep")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "revenue": {"thresholds": {"start": 500, "stop": 700, "step": 100}},
        }))
        scores = os.path.join(outputs, "scores.csv")
        assert run("sweep", "--config", str(cfg_path), "--dataset", german_path,
                   "--scores", scores, "--out", out) == 0
        from fairaudit.revenue import SweepRow
        with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].split(",") == list(SweepRow.FIELDS)
        assert len(lines) == 1 + 3  # header + three thresholds
        doc = read_json(os.path.join(out, "sweep.json"))
        jsonschema.validate(doc, report.load_schema("sweep"))
        assert [r["threshold"] for r in doc["rows"]] == [500, 600, 700]

    def test_prediction_column_in_dataset_accepted(self, tmp_path, outputs, german_path):
        # the sweep builds no column of classifications, so a dataset column
        # named `prediction` is data like any other
        rows = {}
        for column in ("prediction", "other"):
            argv = _csv_scored_case(column, lambda i: "pq"[i % 2],
                                    {"conditioning_columns": [column],
                                     "revenue": {"amount_column": "income"}})
            out = tmp_path / column
            assert run(*argv(tmp_path, outputs, german_path), "--out", str(out)) == 0
            rows[column] = read_json(out / "sweep.json")["rows"]
        assert rows["prediction"] == rows["other"]

    def test_schema_failure_writes_nothing(self, tmp_path, german_path, outputs,
                                           monkeypatch):
        validate = report.validate

        def reject_sweep(doc, schema_name):
            if schema_name == "sweep":
                raise jsonschema.ValidationError("rejected")
            validate(doc, schema_name)

        monkeypatch.setattr(report, "validate", reject_sweep)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "revenue": {"thresholds": {"start": 500, "stop": 700, "step": 100}},
        }))
        out = tmp_path / "sweep"
        with pytest.raises(jsonschema.ValidationError):
            run("sweep", "--config", str(cfg_path), "--dataset", german_path,
                "--scores", os.path.join(outputs, "scores.csv"), "--out", str(out))
        assert not (out / "sweep.csv").exists()
        assert not (out / "sweep.json").exists()

    def test_empty_grid_exit_2(self, tmp_path, german_path, outputs, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "revenue": {"thresholds": {"start": 800, "stop": 300, "step": 10}},
        }))
        code = run("sweep", "--config", str(cfg_path), "--dataset", german_path,
                   "--scores", os.path.join(outputs, "scores.csv"),
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "empty" in capsys.readouterr().err


class TestGenericCsvAudit:
    def test_audit_arbitrary_csv(self, tmp_path):
        rows = ["group,income,label"]
        for i in range(60):
            group = "g1" if i % 2 else "g2"
            label = "ok" if (i % 3 or group == "g1") else "ko"
            rows.append(f"{group},{1000 + 10 * i},{label}")
        data = tmp_path / "generic.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "dataset": {"path": str(data), "format": "csv",
                        "outcome_column": "label",
                        "good_value": "ok", "bad_value": "ko"},
            "sensitive_features": ["group"],
            "conditioning_columns": ["income"],
            "detection": {"min_support": 1},
        }))
        out = tmp_path / "generic_out"
        assert run("audit", "--target", "data", "--config", str(cfg_path),
                   "--out", str(out)) == 0
        doc = read_json(out / "risk_report_data.json")
        assert {h["test"] for h in doc["hazards"]} == {"group"}


class TestConfig:
    def test_defaults_mirror_reference_setup(self):
        cfg = AuditConfig()
        assert cfg.sensitive_features == ("gender", "age_group", "foreign")
        assert cfg.conditioning_columns == ("Attribute1", "Attribute3", "Attribute6",
                                            "Attribute10", "Attribute12", "Attribute14")
        assert cfg.detection.r == "high"
        assert cfg.scorecard.score_threshold == 550
        assert cfg.revenue.provision_factor == 0.2
        assert cfg.revenue.thresholds.values() == list(range(300, 801, 10))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"version": 1, "bogus": True})
        with pytest.raises(ConfigError, match="unknown detection keys"):
            config_from_dict({"version": 1, "detection": {"rigor": "high"}})

    def test_version_checked(self):
        with pytest.raises(ConfigError, match="version"):
            config_from_dict({"version": 99})

    def test_bad_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run("train", "--config", str(bad), "--out", str(tmp_path)) == 2
        assert "JSON" in capsys.readouterr().err

    def test_interval_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "detection": {"intervals": {"high": [0.01, 0.05]}},
        }))
        cfg = load_config(str(cfg_path))
        assert cfg.detection.intervals["high"] == (0.01, 0.05)
        assert cfg.detection.intervals["low"] == (0.02, 0.10)

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({"version": 1,
                              "detection": {"intervals": {"high": [0.5]}}})

    def test_defaults_when_no_config(self):
        assert load_config(None) == AuditConfig()

    def test_grid_checked_without_building_it(self):
        # every command loads the config; only sweep walks the grid
        tracemalloc.start()
        try:
            SweepGrid(0, 10 ** 6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert SweepGrid(5, 5, 10).values() == [5]
        assert SweepGrid(0, 25, 10).values() == [0, 10, 20]

    def test_one_source_for_defaults(self):
        assert DetectionConfig() == AuditConfig().detection
        assert load_config(EXAMPLE_CONFIG) == AuditConfig()

    def test_bad_dataset_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            config_from_dict({"version": 1, "dataset": {"format": "parquet"}})

    def test_scorecard_column_subset(self, tmp_path, german_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "version": 1,
            "scorecard": {"columns": ["Attribute1", "Attribute2", "Attribute5"]},
        }))
        out = str(tmp_path / "subset")
        assert run("train", "--config", str(cfg_path), "--dataset", german_path,
                   "--out", out) == 0
        card = read_json(os.path.join(out, "scorecard.json"))
        assert [b["column"] for b in card["binnings"]] == [
            "Attribute1", "Attribute2", "Attribute5"]


def _config_case(doc, command=("audit", "--target", "data")):
    def argv(tmp_path, outputs, german_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        return [*command, "--config", str(cfg_path), "--dataset", german_path]
    return argv


def _scores_case(edit):
    def argv(tmp_path, outputs, german_path):
        with open(os.path.join(outputs, "scores.csv"), encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join([header, *edit(rows)]) + "\n")
        return ["audit", "--target", "model", "--scores", str(scores),
                "--dataset", german_path]
    return argv


def _csv_case(doc, **dataset):
    def argv(tmp_path, outputs, german_path):
        data = tmp_path / "generic.csv"
        data.write_text("group,income,label\n" + "".join(
            f"g{i % 2},{1000 + 10 * i},{'ok' if i % 3 else 'ko'}\n" for i in range(60)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(data), "format": "csv", "outcome_column": "label",
                        "good_value": "ok", "bad_value": "ko", **dataset}, **doc}))
        return ["audit", "--target", "data", "--config", str(cfg_path)]
    return argv


def _csv_scored_case(column, value_of_row, doc, command=("sweep",)):
    """`command` on the model of a 60-row CSV that has one more column,
    `column`, holding `value_of_row(i)` on row i, with a scores file of its own."""
    def argv(tmp_path, outputs, german_path):
        data = tmp_path / "generic.csv"
        data.write_text(f"group,income,{column},label\n" + "".join(
            f"g{i % 2},{1000 + 10 * i},{value_of_row(i)},{'ok' if i % 3 else 'ko'}\n"
            for i in range(60)))
        scores = tmp_path / "scores.csv"
        scores.write_text("row_id,score\n" + "".join(f"{i},{500 + 3 * i}\n" for i in range(60)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(data), "format": "csv", "outcome_column": "label",
                        "good_value": "ok", "bad_value": "ko"},
            "sensitive_features": ["group"], "conditioning_columns": ["income"], **doc}))
        return [*command, "--scores", str(scores), "--config", str(cfg_path)]
    return argv


def _scored_case(doc, command=("sweep",)):
    """`command` given the scores file of the default run."""
    def argv(tmp_path, outputs, german_path):
        scored = (*command, "--scores", os.path.join(outputs, "scores.csv"))
        return _config_case(doc, scored)(tmp_path, outputs, german_path)
    return argv


def _negative_amount_case(tmp_path, outputs, german_path):
    with open(german_path, encoding="ascii") as fh:
        first, *rest = fh.read().splitlines(keepends=True)
    fields = first.split()
    fields[4] = "-" + fields[4]  # Attribute5, the credit amount
    data = tmp_path / "german.data"
    data.write_text(" ".join(fields) + "\n" + "".join(rest))
    return ["sweep", "--scores", os.path.join(outputs, "scores.csv"), "--dataset", str(data)]


def _risk_report_case(edit):
    def argv(tmp_path, outputs, german_path):
        with open(os.path.join(outputs, "risk_report_model.json"), encoding="utf-8") as fh:
            text = fh.read()
        model_report = tmp_path / "risk_report_model.json"
        model_report.write_text(edit(text))
        return ["compare", str(model_report), os.path.join(outputs, "risk_report_data.json")]
    return argv


def _with_ff(data: bytes) -> bytes:
    """`data` with a 0xff byte after its first ten: neither ASCII nor UTF-8."""
    return data[:10] + b"\xff" + data[10:]


def _undecodable_config(tmp_path, outputs, german_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(_with_ff(b'{"version": 1}'))
    return ["audit", "--target", "data", "--config", str(cfg_path), "--dataset", german_path]


def _undecodable_csv(tmp_path, outputs, german_path):
    argv = _csv_case({"sensitive_features": ["group"]})(tmp_path, outputs, german_path)
    data = tmp_path / "generic.csv"
    data.write_bytes(_with_ff(data.read_bytes()))
    return argv


def _oversized_field_csv(tmp_path, outputs, german_path):
    argv = _csv_case({"sensitive_features": ["group"]})(tmp_path, outputs, german_path)
    data = tmp_path / "generic.csv"
    header, *rows = data.read_text().splitlines(keepends=True)
    rows[40] = "g0," + "1" * _FIELD_LIMIT + "1,ok\n"
    data.write_text(header + "".join(rows))
    return argv


def _duplicate_header_csv(tmp_path, outputs, german_path):
    argv = _csv_case({"sensitive_features": ["group"]})(tmp_path, outputs, german_path)
    data = tmp_path / "generic.csv"
    data.write_text(data.read_text().replace("group,income,", "group,group,", 1))
    return argv


def _undecodable_copy(name, command):
    """`command(bad, outputs, german_path)` run on a copy of the German file or
    of output `name` that holds a 0xff byte."""
    def argv(tmp_path, outputs, german_path):
        source = german_path if name == "german.data" else os.path.join(outputs, name)
        bad = tmp_path / name
        with open(source, "rb") as fh:
            bad.write_bytes(_with_ff(fh.read()))
        return command(str(bad), outputs, german_path)
    return argv


_FIELD_LIMIT = csv.field_size_limit()
_OUTCOME_SENSITIVE = {"sensitive_features": ["gender", "outcome"]}
_OUTCOME_SENSITIVE_ERROR = "sensitive_features: 'outcome' is the outcome column"


MALFORMED_INPUTS = {  # case id -> (argv builder, fragment of the error line)
    "reversed_interval": (_config_case({"detection": {"intervals": {"high": [0.3, 0.1]}}}),
                          "detection: invalid threshold interval for 'high'"),
    "unknown_rigour": (_config_case({"detection": {"r": "medium"}}),
                       "detection: unknown rigour level 'medium'"),
    "unknown_mode": (_config_case({"fairness_modes": ["grp"]}), "fairness_modes"),
    "zero_sweep_step": (_config_case({"revenue": {"thresholds": {"step": 0}}}, ("train",)),
                        "revenue.thresholds: empty sweep threshold grid"),
    "string_depth": (_config_case({"detection": {"depth": "2"}}),
                     'detection.depth: expected int, got "2"'),
    "list_section": (_config_case({"detection": []}), "detection: expected an object"),
    "null_intervals": (_config_case({"detection": {"intervals": None}}),
                       "detection.intervals: expected an object, got null"),
    "string_feature_list": (_config_case({"sensitive_features": "gender"}),
                            "sensitive_features: expected a list"),
    "string_iterations": (_config_case({"scorecard": {"iterations": "10"}}, ("train",)),
                          'scorecard.iterations: expected int, got "10"'),
    "unknown_scorecard_column": (_config_case({"scorecard": {"columns": ["nope"]}}, ("train",)),
                                 "scorecard.columns: unknown column 'nope'"),
    "empty_scorecard_columns": (_config_case({"scorecard": {"columns": []}}, ("train",)),
                                "scorecard.columns: empty list"),
    "outcome_as_scorecard_column": (
        _config_case({"scorecard": {"columns": ["outcome"]}}, ("train",)),
        "scorecard.columns: 'outcome' is the outcome column"),
    "duplicate_scorecard_column": (
        _config_case({"scorecard": {"columns": ["Attribute1", "Attribute1"]}}, ("train",)),
        "scorecard.columns: 'Attribute1' is listed twice"),
    "outcome_as_sensitive_feature_data": (
        _config_case(_OUTCOME_SENSITIVE), _OUTCOME_SENSITIVE_ERROR),
    "outcome_as_sensitive_feature_model": (
        _scored_case(_OUTCOME_SENSITIVE, ("audit", "--target", "model")),
        _OUTCOME_SENSITIVE_ERROR),
    "outcome_as_sensitive_feature_sweep": (
        _scored_case(_OUTCOME_SENSITIVE), _OUTCOME_SENSITIVE_ERROR),
    "empty_sensitive_features": (_config_case({"sensitive_features": []}),
                                 "sensitive_features: empty list"),
    "repeated_sensitive_feature": (
        _config_case({"sensitive_features": ["gender", "gender", "foreign"]}),
        "sensitive_features: 'gender' is listed twice"),
    "repeated_conditioning_column": (
        _config_case({"conditioning_columns": ["Attribute1", "Attribute3", "Attribute1"]}),
        "conditioning_columns: 'Attribute1' is listed twice"),
    "repeated_fairness_mode": (_config_case({"fairness_modes": ["group", "group"]}),
                               "fairness_modes: 'group' is listed twice"),
    "integer_sensitive_column": (_config_case({"sensitive_features": ["Attribute5"]}),
                                 "'Attribute5' is an integer column"),
    "csv_keeps_builtin_gender": (_csv_case({"conditioning_columns": ["income"]}),
                                 "sensitive column 'gender' of built-in feature 'gender' "
                                 "not in dataset"),
    "csv_builtin_gender_foreign_labels": (
        _csv_scored_case("gender", lambda i: "MF"[i % 2], {"sensitive_features": ["gender"]},
                         ("audit", "--target", "data")),
        "sensitive column 'gender': class label 'M' outside declared classes of 'gender'"),
    "good_value_is_bad_value": (
        _csv_case({"sensitive_features": ["group"], "conditioning_columns": ["income"]},
                  bad_value="ok"),
        "dataset.bad_value: 'ok' is also the good_value"),
    "missing_interest_rate_column": (_scored_case({"revenue": {"interest_rate_column": "nope"}}),
                                      "interest rate column 'nope' not in dataset"),
    "non_numeric_amount_column": (
        _scored_case({"revenue": {"amount_column": "Attribute1"}}),
        "revenue.amount_column: credit amount column 'Attribute1' is not numeric"),
    # the credit columns are checked before the scores file is read
    "non_numeric_amount_column_and_no_scores_file": (
        _config_case({"revenue": {"amount_column": "Attribute1"}},
                     ("sweep", "--scores", "no_such_scores.csv")),
        "revenue.amount_column: credit amount column 'Attribute1' is not numeric"),
    "non_numeric_interest_rate_column": (
        _scored_case({"revenue": {"interest_rate_column": "Attribute1"}}),
        "revenue.interest_rate_column: interest rate column 'Attribute1' is not numeric"),
    "negative_credit_amount": (_negative_amount_case,
                               "revenue.amount_column: column 'Attribute5' holds negative "
                               "credit amounts"),
    "interest_rates_above_one": (
        _scored_case({"revenue": {"interest_rate_column": "Attribute2"}}),
        "revenue.interest_rate_column: column 'Attribute2' holds interest rates "
        "outside [0, 1]"),
    "non_finite_credit_amounts": (
        _csv_scored_case("amt", lambda i: {3: "nan", 7: "inf"}.get(i, 100 + i),
                         {"revenue": {"amount_column": "amt"}}),
        "revenue.amount_column: column 'amt' holds non-finite credit amounts"),
    # each amount is finite, but the accepted rows' total is not
    "credit_total_past_float_range": (
        _csv_scored_case("amt", lambda i: "1e308" if i in (10, 30, 50) else 100 + i,
                         {"revenue": {"amount_column": "amt"}}),
        "revenue.amount_column: column 'amt' holds credit amounts whose total exceeds "
        "the float range"),
    "nan_interest_rate": (
        _csv_scored_case("rate", lambda i: "nan" if i == 5 else 0.05,
                         {"revenue": {"amount_column": "income",
                                      "interest_rate_column": "rate"}}),
        "revenue.interest_rate_column: column 'rate' holds interest rates outside [0, 1]"),
    "prediction_column_in_model_audit": (
        _csv_scored_case("prediction", lambda i: "pq"[i % 2],
                         {"conditioning_columns": ["prediction"]},
                         ("audit", "--target", "model")),
        "dataset column 'prediction' would be replaced by the model's classifications"),
    "reversed_scores": (_scores_case(lambda rows: rows[::-1]),
                        "line 2: expected row_id 0 and a score, got ['999',"),
    "short_scores_row": (_scores_case(lambda rows: ["0", *rows[1:]]),
                         "line 2: expected row_id 0 and a score, got ['0']"),
    "non_integer_score": (_scores_case(lambda rows: ["0,high,good", *rows[1:]]),
                          "line 2: score 'high' is not an integer"),
    "oversized_score_field": (
        _scores_case(lambda rows: [*rows[:3], "3," + "7" * (_FIELD_LIMIT + 1), *rows[4:]]),
        f"scores.csv: line 5: field larger than field limit ({_FIELD_LIMIT})"),
    "risk_report_without_overall": (_risk_report_case(
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "overall"})),
        "'overall' is a required property"),
    "risk_report_invalid_json": (_risk_report_case(lambda text: text[:-5]), "not valid JSON"),
    "undecodable_config": (_undecodable_config,
                           "cfg.json: 'utf-8' codec can't decode byte 0xff"),
    "undecodable_german_dataset": (
        _undecodable_copy("german.data", lambda bad, outputs, german_path: [
            "audit", "--target", "data", "--dataset", bad]),
        "german.data: 'ascii' codec can't decode byte 0xff"),
    "undecodable_csv_dataset": (_undecodable_csv,
                                "generic.csv: 'utf-8' codec can't decode byte 0xff"),
    "oversized_csv_field": (_oversized_field_csv,
                            f"generic.csv: line 42: field larger than field limit "
                            f"({_FIELD_LIMIT})"),
    "duplicate_csv_header": (_duplicate_header_csv,
                             "generic.csv: line 1: column 'group' appears twice in the header"),
    "undecodable_scores": (
        _undecodable_copy("scores.csv", lambda bad, outputs, german_path: [
            "audit", "--target", "model", "--scores", bad, "--dataset", german_path]),
        "scores.csv: 'utf-8' codec can't decode byte 0xff"),
    "undecodable_risk_report": (
        _undecodable_copy("risk_report_model.json", lambda bad, outputs, german_path: [
            "compare", bad, os.path.join(outputs, "risk_report_data.json")]),
        "risk_report_model.json: 'utf-8' codec can't decode byte 0xff"),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("argv, message", MALFORMED_INPUTS.values(),
                             ids=MALFORMED_INPUTS.keys())
    def test_one_error_line_exit_2_no_output(self, argv, message, tmp_path, outputs,
                                             german_path, capsys):
        out = tmp_path / "out"
        code = run(*argv(tmp_path, outputs, german_path), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


# what only the counting commands (train, audit, sweep) or a failed schema
# check may load
COUNTING_MODULES = ("numpy", "jsonschema", "fairaudit.tabular", "fairaudit.scorecard",
                    "fairaudit.detection", "fairaudit.revenue")
# what no command but `train` (through numpy) may load: `dataclasses`, with
# `inspect` and its imports, cost every command about 20 ms at start.  From
# Python 3.12 `importlib.resources`, which `report` reads its schemas with,
# loads `inspect` itself, so there only `dataclasses` is checked
DATACLASS_MODULES = ("dataclasses",) + (("inspect",) if sys.version_info < (3, 12) else ())


class TestStartup:
    @staticmethod
    def _fresh(program, *argv, **env_vars):
        """Run `program` in a fresh interpreter that checks `loaded(<when>)`,
        with `env_vars` set in its environment (removed where None)."""
        unloaded = set(COUNTING_MODULES + DATACLASS_MODULES)
        header = ("import sys\n"
                  "def loaded(when):\n"
                  f"    found = sorted(sys.modules.keys() & {unloaded!r})\n"
                  "    assert not found, f'{found} loaded by {when}'\n"
                  "import fairaudit.cli\n"
                  "loaded('the import')\n")
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]), **env_vars)
        env = {name: value for name, value in env.items() if value is not None}
        proc = subprocess.run([sys.executable, "-c", header + program, *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_cli_and_compare_load_no_counting_module(self, outputs, tmp_path):
        self._fresh("assert fairaudit.cli.main(sys.argv[1:]) == 0\n"
                    "loaded('compare')\n",
                    "compare", os.path.join(outputs, "risk_report_model.json"),
                    os.path.join(outputs, "risk_report_data.json"), "--out", str(tmp_path))
        assert (tmp_path / "hazard_comparison.json").exists()

    def test_help_loads_no_counting_module(self):
        proc = self._fresh("try:\n"
                           "    fairaudit.cli.main(['--help'])\n"
                           "except SystemExit as exc:\n"
                           "    assert exc.code == 0\n"
                           "loaded('--help')\n")
        assert proc.stdout.startswith("usage: fairaudit")

    # the model audit takes `classify` from the scorecard module through
    # `revenue`; the module itself loads no numpy
    @pytest.mark.parametrize("target, unloaded", [
        (cli.DATA, {"numpy", "fairaudit.scorecard", "fairaudit.revenue", *DATACLASS_MODULES}),
        (cli.MODEL, {"numpy", *DATACLASS_MODULES}),
    ], ids=[cli.DATA, cli.MODEL])
    def test_audit_loads_no_numpy(self, target, unloaded, outputs, german_path, tmp_path):
        argv = ["audit", "--target", target, "--dataset", german_path, "--out", str(tmp_path)]
        if target == cli.MODEL:
            argv += ["--scores", os.path.join(outputs, "scores.csv")]
        self._fresh("assert fairaudit.cli.main(sys.argv[1:]) == 0\n"
                    f"found = sorted(sys.modules.keys() & {unloaded!r})\n"
                    "assert not found, f'{found} loaded by the audit'\n", *argv)
        assert (tmp_path / f"risk_report_{target}.json").exists()

    def test_sweep_loads_no_numpy(self, outputs, german_path, tmp_path):
        unloaded = {"numpy", *DATACLASS_MODULES}
        self._fresh("assert fairaudit.cli.main(sys.argv[1:]) == 0\n"
                    f"found = sorted(sys.modules.keys() & {unloaded!r})\n"
                    "assert not found, f'{found} loaded by the sweep'\n"
                    "assert {'fairaudit.revenue', 'fairaudit.scorecard'} <= sys.modules.keys()\n",
                    "sweep", "--scores", os.path.join(outputs, "scores.csv"),
                    "--dataset", german_path, "--out", str(tmp_path))
        assert (tmp_path / "sweep.json").exists()

    # OpenBLAS starts one thread per further CPU that the process may run on
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc and two CPUs")
    @pytest.mark.parametrize("openblas_threads, threads", [(None, 1), ("2", 2)])
    def test_counting_command_blas_threads(self, openblas_threads, threads, german_path,
                                           tmp_path):
        # the variables are removed first, so that the child sees no user setting
        proc = self._fresh("import os\n"
                           "assert fairaudit.cli.main(sys.argv[1:]) == 0\n"
                           "print(len(os.listdir('/proc/self/task')))\n",
                           "train", "--dataset", german_path, "--out", str(tmp_path),
                           OPENBLAS_NUM_THREADS=openblas_threads, OMP_NUM_THREADS=None)
        assert int(proc.stdout.splitlines()[-1]) == threads

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_in_process_command_keeps_environment(self, preset, german_path, tmp_path,
                                                  monkeypatch):
        # the thread variables act only while numpy loads; a caller's later
        # subprocesses must not inherit them
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            if preset is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, preset)
        before = dict(os.environ)
        assert cli.main(["train", "--dataset", german_path, "--out", str(tmp_path)]) == 0
        assert dict(os.environ) == before


class TestReportHelpers:
    def test_schema_rejects_malformed(self):
        with pytest.raises(jsonschema.ValidationError):
            report.validate({"target": "model"}, "risk_report")

    def test_validate_raises_what_jsonschema_raises(self):
        doc = {"target": "both", "hazards": [{"test": 1, "mode": "group"}], "overall": -1}
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, report.load_schema("risk_report"),
                                cls=jsonschema.Draft202012Validator)
        for _ in range(2):  # the second call reuses the compiled validator
            with pytest.raises(jsonschema.ValidationError) as got:
                report.validate(doc, "risk_report")
            assert got.value.message == want.value.message
            assert got.value.path == want.value.path

    def test_scores_csv_header_checked(self, tmp_path):
        bad = tmp_path / "scores.csv"
        bad.write_text("id,value\n0,1\n")
        with pytest.raises(ValueError, match="scores CSV"):
            report.read_scores_csv(bad)
