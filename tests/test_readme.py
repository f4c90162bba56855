"""The README's "Library use" example runs as written, and every name the
package moved between modules still resolves from its old module."""

import contextlib
import io
import json
import os

import pytest

from fairaudit import config, detection, divergence, revenue, risk, scorecard, tabular

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_example() -> str:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library use\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```\n", start)]


def test_library_example_reproduces_the_cli(monkeypatch, outputs):
    monkeypatch.chdir(REPO_ROOT)  # the example reads data/german.data
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), "README.md", "exec"), {})
    with open(os.path.join(outputs, "hazard_comparison.json"), encoding="utf-8") as fh:
        assert float(out.getvalue()) == json.load(fh)["overall_difference"]


@pytest.mark.parametrize("old, new, name", [
    (detection, config, "DetectionConfig"),
    (scorecard, config, "ScorecardConfig"),
    (scorecard, config, "BinningConfig"),
    (scorecard, config, "ScoreScaling"),
    (revenue, config, "RevenueConfig"),
    (revenue, config, "SweepGrid"),
    (risk, config, "MODES"),
    (risk, config, "GROUP"),
    (risk, config, "INDIVIDUAL"),
    (tabular, divergence, "ProbabilityDistribution"),
    (tabular, divergence, "EmptyClassError"),
], ids=lambda x: getattr(x, "__name__", x))
def test_moved_name_resolves_from_old_module(old, new, name):
    assert getattr(old, name) is getattr(new, name)
