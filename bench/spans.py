"""In-process tracing of fairaudit's layers for the per-layer metrics.

The tracer wraps public functions of the package, at every module binding
they are reached through (a function imported by name into another module
is replaced there too), records one span per call in memory and keeps
counters at the same boundaries.  Nothing under src/ changes.  Per-row hot
paths (Dataset.column, Scorecard.score, BinningSpec.bin_index,
divergence.kl) are deliberately left unwrapped.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the calling span, None at the top


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Installs span-recording wrappers into the fairaudit modules.

    Metrics of a span whose functions no longer exist are reported as
    missing, never as zero.
    """

    # span name -> (module, attribute path).  Several functions may share a
    # span name (the two loaders are both "tabular.load").
    TARGETS = (
        ("tabular.load", "fairaudit.tabular", "load_german_credit"),
        ("tabular.load", "fairaudit.tabular", "load_csv"),
        ("tabular.derive_sensitive_features", "fairaudit.tabular", "derive_sensitive_features"),
        ("tabular.partition", "fairaudit.tabular", "partition"),
        ("tabular.label_distribution", "fairaudit.tabular", "label_distribution"),
        ("scorecard.fit_scorecard", "fairaudit.scorecard", "fit_scorecard"),
        ("scorecard.fit_bins", "fairaudit.scorecard", "fit_bins"),
        ("scorecard.score_dataset", "fairaudit.scorecard", "Scorecard.score_dataset"),
        ("scorecard.evaluate", "fairaudit.scorecard", "evaluate"),
        ("divergence.js", "fairaudit.divergence", "js"),
        ("detection.run_test", "fairaudit.detection", "run_test"),
        ("detection.compare_classes", "fairaudit.detection", "compare_classes"),
        ("risk.run_battery", "fairaudit.risk", "run_battery"),
        ("risk.hazard", "fairaudit.risk", "hazard"),
        ("revenue.sweep", "fairaudit.revenue", "sweep"),
        ("revenue.with_predictions", "fairaudit.revenue", "with_predictions"),
        ("report.validate", "fairaudit.report", "validate"),
        ("report.write_json", "fairaudit.report", "write_json"),
        ("report.write_csv", "fairaudit.report", "write_scores_csv"),
        ("report.write_csv", "fairaudit.report", "write_sweep_csv"),
        ("report.read_scores_csv", "fairaudit.report", "read_scores_csv"),
        ("config.load_config", "fairaudit.config", "load_config"),
        ("cli.main", "fairaudit.cli", "main"),
    )

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._command = 0
        self._partition_keys: set = set()

    # --- counters recorded at the traced boundaries ----------------------

    def _count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observe(self, name, args, kwargs, result):
        if name == "cli.main":
            self._command += 1
        elif name == "tabular.load":
            self._count("tabular.load.rows", result.size)
        elif name == "tabular.partition":
            d, feature = args[0], _arg(args, kwargs, 1, "feature")
            conditions = tuple(_arg(args, kwargs, 2, "conditions", ()))
            self._count("tabular.partition.rows_scanned", d.size)
            # distinct within one command: the scope a per-process reuse could exploit
            key = (self._command, feature.name, conditions)
            if key not in self._partition_keys:
                self._partition_keys.add(key)
                self._count("tabular.partition.distinct")
        elif name == "scorecard.fit_scorecard":
            cfg = _arg(args, kwargs, 1, "config")
            if cfg is None:
                cfg = sys.modules["fairaudit.scorecard"].ScorecardConfig()
            self._count("scorecard.fit.row_iterations", args[0].size * cfg.iterations)
        elif name == "scorecard.score_dataset":
            self._count("scorecard.score_dataset.rows", args[1].size)
        elif name == "detection.run_test":
            skipped = sum(1 for line in result.lines if line.skipped)
            self._count("detection.lines", len(result.lines))
            self._count("detection.lines_skipped", skipped)
            self._count("detection.lines_compared", len(result.lines) - skipped)
            self._count("detection.lines_violated", sum(1 for line in result.lines if line.violated))
        elif name == "revenue.sweep":
            self._count("revenue.sweep.thresholds", len(list(_arg(args, kwargs, 2, "thresholds"))))
        elif name in ("report.write_json", "report.write_csv"):
            self._count("report.bytes_written", os.path.getsize(args[0]))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            self._count(name + ".calls")
            self._observe(name, args, kwargs, result)
            return result

        return traced

    # --- installation ------------------------------------------------------

    def install(self) -> set[str]:
        """Wrap every target; return the span names none of whose functions exist."""
        modules = {m: mod for m, mod in sys.modules.items()
                   if m == "fairaudit" or m.startswith("fairaudit.")}
        installed = set()
        for name, module, attr in self.TARGETS:
            owner = modules.get(module)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            installed.add(name)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._replace(owner, leaf, original, wrapper)
                continue
            for mod in modules.values():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, binding, original, wrapper)
        return {name for name, _, _ in self.TARGETS} - installed

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._command = 0
        self._partition_keys.clear()

    # --- derived metrics ---------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds per span name, self seconds per span name)."""
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for s, t in zip(self.spans, self_times(self.spans)):
            inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
            own[s.name] = own.get(s.name, 0.0) + t
        return inclusive, own
