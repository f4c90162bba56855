"""Declarative audit configuration: one versioned JSON file drives a run.

Every section's config dataclass lives here, and each default is written
once, in its dataclass; loading a config imports no counting module.  The
defaults encode the canonical German Credit audit (sensitive features
gender / age_group / foreign, conditioning on Attribute1, 3, 6, 10, 12,
14, rigour high, JS with max aggregation), so `audit` with no overrides
reproduces it.  A config file is overlaid onto those defaults field by
field and checked against the field annotations, and every dataclass
validates itself, so any bad value fails at load.  Unknown keys are rejected.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from . import divergence as dv

CONFIG_VERSION = 1

GERMAN_FORMAT = "german"
CSV_FORMAT = "csv"

GROUP = "group"
INDIVIDUAL = "individual"
MODES = (GROUP, INDIVIDUAL)


class ConfigError(ValueError):
    """Invalid or unreadable audit configuration."""


@dataclass(frozen=True)
class DetectionConfig:
    r: str = dv.HIGH
    aggregation: str = "max"
    depth: int = 1
    min_support: int = 10
    intervals: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(dv.DEFAULT_INTERVALS))
    c_ref: int = dv.DEFAULT_CLASS_REFERENCE

    def __post_init__(self):
        if self.aggregation not in dv.AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.depth < 1:
            raise ValueError("subclass depth must be >= 1")
        if self.min_support < 0:
            raise ValueError("min_support cannot be negative")
        if not self.intervals.keys() <= {dv.HIGH, dv.LOW}:
            raise ValueError(f"unknown rigour levels in intervals: {sorted(self.intervals)}")
        if self.r not in self.intervals:
            raise ValueError(f"unknown rigour level {self.r!r}")
        for level, (lower, upper) in self.intervals.items():
            if not 0.0 <= lower < upper <= 1.0:
                raise ValueError(f"invalid threshold interval for {level!r}: [{lower}, {upper}]")
        if self.c_ref <= 0:
            raise ValueError("class reference count c_ref must be positive")


@dataclass(frozen=True)
class BinningConfig:
    max_prebins: int = 20
    min_bin_fraction: float = 0.05

    def __post_init__(self):
        if self.max_prebins < 1:
            raise ValueError("max_prebins must be >= 1")
        if not (0.0 <= self.min_bin_fraction < 1.0):
            raise ValueError("min_bin_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class ScoreScaling:
    pdo: float = 50.0
    base_score: float = 600.0
    base_odds: float = 10.0  # nominal good:bad odds at base_score (metadata)

    def __post_init__(self):
        if self.pdo <= 0:
            raise ValueError("pdo must be positive")


@dataclass(frozen=True)
class ScorecardConfig:
    # binning and scaling keys sit directly under `scorecard` in a config file
    columns: tuple[str, ...] | None = None  # None -> all non-derived input columns
    binning: BinningConfig = field(default_factory=BinningConfig, metadata={"flat": True})
    learning_rate: float = 0.1
    iterations: int = 4000
    scaling: ScoreScaling = field(default_factory=ScoreScaling, metadata={"flat": True})
    score_threshold: int = 550

    def __post_init__(self):
        if self.learning_rate <= 0 or self.iterations < 1:
            raise ValueError("invalid gradient-descent configuration")
        if self.columns is not None:
            if not self.columns:
                raise ValueError("columns: empty list (leave the key out to fit on "
                                 "every input column)")
            twice = [c for i, c in enumerate(self.columns) if c in self.columns[:i]]
            if twice:
                raise ValueError(f"columns: {twice[0]!r} is listed twice")


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive score-threshold grid start, start+step, ..., <= stop."""

    start: int = 300
    stop: int = 800
    step: int = 10

    def __post_init__(self):
        if self.step <= 0 or not self.values():
            raise ValueError("empty sweep threshold grid: need step > 0 and start <= stop")

    def values(self) -> list[int]:
        return list(range(self.start, self.stop + 1, self.step))


@dataclass(frozen=True)
class RevenueConfig:
    provision_factor: float = 0.2
    interest_rate: float = 0.05
    amount_column: str = "Attribute5"
    interest_rate_column: str | None = None
    thresholds: SweepGrid = field(default_factory=SweepGrid)

    def __post_init__(self):
        if not (0.0 <= self.provision_factor <= 1.0):
            raise ValueError("provision_factor must lie in [0, 1]")
        if not (0.0 <= self.interest_rate <= 1.0):
            raise ValueError("interest_rate must lie in [0, 1]")


@dataclass(frozen=True)
class DatasetConfig:
    path: str = "data/german.data"
    format: str = GERMAN_FORMAT
    outcome_column: str = "outcome"
    good_value: str = "good"
    bad_value: str = "bad"

    def __post_init__(self):
        if self.format not in (GERMAN_FORMAT, CSV_FORMAT):
            raise ConfigError(f"unknown dataset format {self.format!r}")
        if self.good_value == self.bad_value:
            raise ConfigError(f"bad_value: {self.bad_value!r} is also the good_value")


@dataclass(frozen=True)
class AuditConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    sensitive_features: tuple[str, ...] = ("gender", "age_group", "foreign")
    conditioning_columns: tuple[str, ...] = ("Attribute1", "Attribute3", "Attribute6",
                                             "Attribute10", "Attribute12", "Attribute14")
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    fairness_modes: tuple[str, ...] = MODES
    scorecard: ScorecardConfig = field(default_factory=ScorecardConfig)
    revenue: RevenueConfig = field(default_factory=RevenueConfig)
    output_dir: str = "out"

    def __post_init__(self):
        if not self.fairness_modes or not set(self.fairness_modes) <= set(MODES):
            raise ValueError(f"fairness_modes must be a non-empty subset of {list(MODES)}, "
                             f"got {list(self.fairness_modes)}")
        if not self.sensitive_features:
            raise ValueError("sensitive_features: empty list (name at least one feature)")
        # a repeat would count a test twice in the overall risk, or repeat lines
        for key in ("sensitive_features", "conditioning_columns", "fairness_modes"):
            items = getattr(self, key)
            twice = [c for i, c in enumerate(items) if c in items[:i]]
            if twice:
                raise ValueError(f"{key}: {twice[0]!r} is listed twice")

    def with_overrides(self, dataset_path=None, output_dir=None, modes=None):
        cfg = self
        if dataset_path is not None:
            cfg = replace(cfg, dataset=replace(cfg.dataset, path=dataset_path))
        if output_dir is not None:
            cfg = replace(cfg, output_dir=output_dir)
        if modes is not None:
            cfg = replace(cfg, fairness_modes=tuple(modes))
        return cfg


# --- JSON -> dataclasses -----------------------------------------------------

def _overlay(base, doc, where: str):
    """Overlay the JSON object `doc` onto the config dataclass instance `base`.

    A field marked `metadata={"flat": True}` is a nested dataclass whose
    keys sit directly in `doc` rather than in an object of their own.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'}: expected an object, got {json.dumps(doc)}")
    hints = typing.get_type_hints(type(base))
    changes, used = {}, set()
    for f in fields(base):
        current = getattr(base, f.name)
        if f.metadata.get("flat"):
            sub = {g.name: doc[g.name] for g in fields(current) if g.name in doc}
            changes[f.name] = _overlay(current, sub, where)
            used |= sub.keys()
        elif f.name in doc:
            changes[f.name] = _value(hints[f.name], current, doc[f.name],
                                     f"{where}.{f.name}".lstrip("."))
            used.add(f.name)
    unknown = doc.keys() - used
    if unknown:
        raise ConfigError(f"unknown {where or 'config'} keys: {sorted(unknown)}")
    try:
        return replace(base, **changes)
    except ValueError as exc:
        # a check that names its field as "<field>: <reason>" points at that key
        name, sep, reason = str(exc).partition(": ")
        if sep and name in {f.name for f in fields(base)}:
            raise ConfigError(f"{where}.{name}".lstrip(".") + f": {reason}") from exc
        raise ConfigError(f"{where or 'config'}: {exc}") from exc


def _value(tp, current, value, where: str):
    """Check one JSON value against a field annotation and convert it:
    lists become tuples, objects merge onto the current dict."""
    if is_dataclass(tp):
        return _overlay(current, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # only `X | None` is used
        if value is None and type(None) in args:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _value(tp, current, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {json.dumps(value)}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(f"{where}: expected {len(items)} items, got {len(value)}")
        return tuple(_value(t, None, v, f"{where}[{i}]")
                     for i, (t, v) in enumerate(zip(items, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {json.dumps(value)}")
        return {**current, **{k: _value(args[1], None, v, f"{where}.{k}")
                              for k, v in value.items()}}
    # bool is not an int here; an int stands for a float as written
    if tp is float and type(value) in (int, float) and math.isfinite(value):
        return value
    if tp is not float and type(value) is tp:
        return value
    raise ConfigError(f"{where}: expected {tp.__name__}, got {json.dumps(value)}")


def config_from_dict(doc: dict) -> AuditConfig:
    """Overlay a parsed config file onto the built-in defaults."""
    if isinstance(doc, dict):
        doc = dict(doc)
        version = doc.pop("version", CONFIG_VERSION)
        if type(version) is not int or version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {json.dumps(version)}")
    return _overlay(AuditConfig(), doc, "")


def load_config(path: str | None) -> AuditConfig:
    """Load a config file; None gives the built-in defaults."""
    if path is None:
        return AuditConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
