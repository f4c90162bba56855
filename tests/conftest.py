import os

import pytest
from hypothesis import HealthCheck, settings

from fairaudit import cli, scorecard, tabular

settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow])
# the schema, loader, binning, counting and report differential tests run this
# one on their own in CI
settings.register_profile("deep", parent=settings.get_profile("ci"), max_examples=2000)
settings.load_profile("ci")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GERMAN_PATH = os.path.join(REPO_ROOT, "data", "german.data")


@pytest.fixture(scope="session")
def german_path():
    return GERMAN_PATH


@pytest.fixture(scope="session")
def german_raw():
    return tabular.load_german_credit(GERMAN_PATH)


@pytest.fixture(scope="session")
def german(german_raw):
    return tabular.derive_sensitive_features(german_raw)


@pytest.fixture(scope="session")
def card(german):
    return scorecard.fit_scorecard(german)


@pytest.fixture(scope="session")
def scores(card, german):
    return card.score_dataset(german)


def run_pipeline(dataset: str, out: str):
    """The default CLI pipeline (sweep included) on `dataset`, into `out`."""
    scores = os.path.join(out, "scores.csv")
    for argv in (["train"],
                 ["audit", "--target", "data"],
                 ["audit", "--target", "model", "--scores", scores],
                 ["sweep", "--scores", scores]):
        assert cli.main([*argv, "--dataset", dataset, "--out", out]) == 0
    assert cli.main(["compare", os.path.join(out, "risk_report_model.json"),
                     os.path.join(out, "risk_report_data.json"), "--out", out]) == 0


@pytest.fixture(scope="session")
def outputs(tmp_path_factory):
    """One default pipeline on German, shared read-only by the tests."""
    out = str(tmp_path_factory.mktemp("cli_out"))
    run_pipeline(GERMAN_PATH, out)
    return out
