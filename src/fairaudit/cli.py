"""Command-line front door: train, audit, compare, sweep.

Every command is driven by a declarative JSON config (defaults reproduce
the reference German Credit setup) plus a few flag overrides, writes
machine-readable reports into the output directory, and is deterministic:
rerunning with the same config yields byte-identical files.

Exit codes: 0 success, 1 analysis-level failure, 2 config or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import report as rp
from .config import MODES, AuditConfig, ConfigError, CSV_FORMAT, GERMAN_FORMAT, load_config
from .risk import compare_hazards, run_battery

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_CONFIG = 2

MODEL = "model"
DATA = "data"


def _load_dataset(cfg: AuditConfig):
    from .tabular import ParseError, load_csv, load_german_credit
    ds = cfg.dataset
    if not os.path.exists(ds.path):
        raise ConfigError(f"dataset file not found: {ds.path}")
    try:
        if ds.format == CSV_FORMAT:
            return load_csv(ds.path, ds.outcome_column, ds.good_value, ds.bad_value)
        return load_german_credit(ds.path)
    except ParseError as exc:
        raise ConfigError(f"cannot parse dataset {ds.path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode dataset {ds.path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {ds.path}: {exc}") from exc


def _audited_dataset(cfg: AuditConfig):
    from .tabular import derive_sensitive_features
    d = _load_dataset(cfg)
    if cfg.dataset.format == GERMAN_FORMAT:
        d = derive_sensitive_features(d)
    return d


def _resolve_features(d, cfg: AuditConfig):
    """Validate the configured columns against the dataset, before any math."""
    from .tabular import sensitive_spec_for
    try:
        features = [sensitive_spec_for(d, name) for name in cfg.sensitive_features]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for f in features:
        if f.column == d.outcome:
            raise ConfigError(f"sensitive_features: {f.name!r} is the outcome column")
    for col in cfg.conditioning_columns:
        if not d.has_column(col):
            raise ConfigError(f"conditioning column {col!r} not in dataset")
    return features


def _out_dir(cfg: AuditConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _read_scores(path: str | None, d) -> list[int]:
    """The model's score of every row of `d`."""
    if path is None:
        raise ConfigError("--scores is required for this command")
    if not os.path.exists(path):
        raise ConfigError(f"scores file not found: {path}")
    try:
        scores = rp.read_scores_csv(path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode scores file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if len(scores) != d.size:
        raise ConfigError(f"scores file has {len(scores)} rows, dataset has {d.size}")
    return scores


def _config_from_args(args) -> AuditConfig:
    cfg = load_config(args.config)
    mode = getattr(args, "mode", None)
    modes = None if mode is None else MODES if mode == "both" else (mode,)
    return cfg.with_overrides(dataset_path=args.dataset, output_dir=args.out,
                              modes=modes)


# --- commands ----------------------------------------------------------------
# Each command imports its engine, so that only `train` loads numpy;
# `audit`, `sweep`, `compare` and `--help` do not.

def _import_numpy():
    """Load numpy with OpenBLAS and OpenMP on one thread, unless the user
    has set their thread counts.  The engine makes no BLAS call that a
    second thread would speed up, but OpenBLAS starts one per further CPU
    when it loads, and that thread busy-waits: on two shared CPUs a command
    took about 70 ms longer whenever both threads could not run at once.

    With one thread, loading numpy here or deeper in the import chain
    starts `train` equally fast (CPython 3.11, numpy 2.4, 20 alternating
    pairs: 244 against 241 ms).  OpenBLAS reads the variables only when it
    loads, so the ones set here are removed afterwards: a caller that runs
    a command in process, and its later subprocesses, keep their environment."""
    added = [name for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
             if name not in os.environ]
    for name in added:
        os.environ[name] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        for name in added:
            del os.environ[name]


def cmd_train(args) -> int:
    _import_numpy()
    from .scorecard import classify, evaluate, fit_scorecard
    cfg = _config_from_args(args)
    d = _load_dataset(cfg)
    for name in cfg.scorecard.columns or ():
        if name == d.outcome:
            raise ConfigError(f"scorecard.columns: {name!r} is the outcome column")
        if not d.has_column(name):
            raise ConfigError(f"scorecard.columns: unknown column {name!r}")
    sc = fit_scorecard(d, cfg.scorecard)
    scores = sc.score_dataset(d)
    labels = d.column(d.outcome).values
    metrics = evaluate(scores, labels, cfg.scorecard.score_threshold)

    out = _out_dir(cfg)
    rp.write_json(os.path.join(out, "scorecard.json"), rp.scorecard_doc(sc))
    rp.write_scores_csv(os.path.join(out, "scores.csv"), scores,
                        classify(scores, cfg.scorecard.score_threshold))
    rp.write_json(os.path.join(out, "metrics.json"),
                  {**rp.to_doc(metrics), "final_loss": sc.final_loss})
    print(f"scorecard: {out}/scorecard.json")
    print(f"scores: {out}/scores.csv")
    print(f"metrics: {out}/metrics.json (auc {metrics.auc:.5f}, gini {metrics.gini:.5f})")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _config_from_args(args)
    d = _audited_dataset(cfg)
    features = _resolve_features(d, cfg)

    if args.target == MODEL:
        from . import revenue as rv
        scores = _read_scores(args.scores, d)
        try:  # a dataset column of the classifications' name is an input error
            d = rv.with_predictions(d, scores, cfg.scorecard.score_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        outcome = rv.PREDICTION_COLUMN
    else:
        outcome = d.outcome

    reports, risk = run_battery(d, outcome, features, cfg.conditioning_columns,
                                cfg.detection, cfg.fairness_modes)

    out = _out_dir(cfg)
    for test_report in reports:
        name = f"test_report_{test_report.sensitive_feature}_{args.target}.json"
        rp.write_json(os.path.join(out, name), rp.to_doc(test_report), "test_report")
    for h in risk.hazards:
        name = f"hazard_{h.test}_{h.mode}_{args.target}.json"
        rp.write_json(os.path.join(out, name), rp.to_doc(h))
    risk_path = os.path.join(out, f"risk_report_{args.target}.json")
    rp.write_json(risk_path, {**rp.to_doc(risk), "target": args.target}, "risk_report")

    for h in risk.hazards:
        print(f"hazard {h.test} ({h.mode}): {h.value:.5f}")
    print(f"overall risk ({args.target}): {risk.overall:.5f}")
    print(f"risk report: {risk_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    def read_risk(path, expect_target):
        if not os.path.exists(path):
            raise ConfigError(f"risk report not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                risk, target = rp.risk_report_from_dict(json.load(fh))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot decode risk report {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        except rp.validation_error() as exc:
            raise ConfigError(f"{path} is not a valid risk report: {exc.message}") from exc
        if target != expect_target:
            raise ValueError(f"{path} holds a {target!r} risk report, expected {expect_target!r}")
        return risk

    cfg = _config_from_args(args)
    model = read_risk(args.model_report, MODEL)
    data = read_risk(args.data_report, DATA)
    cmp = compare_hazards(model, data)

    out = _out_dir(cfg)
    path = os.path.join(out, "hazard_comparison.json")
    rp.write_json(path, rp.to_doc(cmp), "hazard_comparison")
    for e in cmp.entries:
        print(f"{e.feature} ({e.mode}): data {e.data_hazard:.5f} model {e.model_hazard:.5f} "
              f"difference {e.difference:+.5f}")
    print(f"overall difference: {cmp.overall_difference:+.5f}")
    print(f"comparison: {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import revenue as rv
    cfg = _config_from_args(args)
    d = _audited_dataset(cfg)
    features = _resolve_features(d, cfg)
    try:
        credit = rv.credit_columns(d, cfg.revenue)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scores = _read_scores(args.scores, d)
    thresholds = cfg.revenue.thresholds.values()

    rows = rv.sweep(d, scores, thresholds, features, cfg.conditioning_columns, credit,
                    cfg.detection, cfg.fairness_modes, cfg.revenue.provision_factor)

    out = _out_dir(cfg)
    # the schema check comes first, so that a failed one writes neither file
    rp.write_json(os.path.join(out, "sweep.json"),
                  {"provision_factor": cfg.revenue.provision_factor,
                   "interest_rate": cfg.revenue.interest_rate,
                   "rows": rp.to_doc(rows)}, "sweep")
    rp.write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    print(f"sweep rows: {len(rows)}")
    print(f"sweep table: {out}/sweep.csv")
    return EXIT_OK


# --- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairaudit",
        description="Fairness audit of credit scorecards: divergence-based "
                    "violation detection, hazard/risk aggregation, and a "
                    "profit vs fairness threshold sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scores=False, mode=False):
        p.add_argument("--config", help="JSON config file (defaults reproduce the "
                                        "German Credit reference setup)")
        p.add_argument("--dataset", help="dataset path override")
        p.add_argument("--out", help="output directory override")
        if scores:
            p.add_argument("--scores", help="scores CSV produced by `train`")
        if mode:
            p.add_argument("--mode", choices=["group", "individual", "both"],
                           help="fairness weighting mode(s) for the battery")

    p = sub.add_parser("train", help="fit the scorecard, score every row, write metrics")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="run the fairness battery on model output or data labels")
    common(p, scores=True, mode=True)
    p.add_argument("--target", choices=[MODEL, DATA], required=True,
                   help="audit the model's classifications or the dataset's labels")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("compare", help="compare model vs data risk reports")
    common(p)
    p.add_argument("model_report", help="risk_report_model.json from `audit --target model`")
    p.add_argument("data_report", help="risk_report_data.json from `audit --target data`")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="profit and fairness risk over a score-threshold grid")
    common(p, scores=True, mode=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # before ValueError, which ConfigError subclasses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
