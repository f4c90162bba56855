import builtins
import math

import pytest

from fairaudit import revenue as rv
from fairaudit.detection import DetectionConfig
from fairaudit.tabular import (
    BAD,
    CATEGORICAL,
    DERIVED,
    FOREIGN,
    GENDER,
    GOOD,
    Column,
    Dataset,
    SensitiveSpec,
)

FEATURES = [GENDER, FOREIGN]
NONSENS = ["Attribute1", "Attribute14"]
CFG = DetectionConfig()


@pytest.fixture(scope="module")
def coarse_sweep(german, scores):
    return rv.sweep(german, scores, range(300, 801, 50), FEATURES, NONSENS, CFG)


def small_row(amounts, outcomes, scores=None, **revenue) -> rv.SweepRow:
    """The sweep row at threshold 1 of a small dataset with an `amount`
    column: every row is accepted unless `scores` gives it 0."""
    n = len(amounts)
    d = Dataset(columns=(Column("x", CATEGORICAL, ("a",) * n),
                         Column("s", DERIVED, ("c0", "c1") * (n // 2) + ("c0",) * (n % 2)),
                         Column("amount", DERIVED, tuple(amounts)),
                         Column("outcome", CATEGORICAL, tuple(outcomes))),
                outcome="outcome")
    [row] = rv.sweep(d, [1] * n if scores is None else scores, [1],
                     [SensitiveSpec("s", "s", ("c0", "c1"))], ["x"], CFG,
                     rev_cfg=rv.RevenueConfig(amount_column="amount", **revenue))
    return row


def compensated_sum(values, start=0):
    """`sum` as Python 3.12 computes it: floats with Neumaier's
    compensation, ints exactly."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


class TestBadRate:
    def test_basic(self):
        # among the accepted rows only: the two rejected rows are bad too
        row = small_row([1.0] * 12, [BAD] * 3 + [GOOD] * 7 + [BAD] * 2, scores=[1] * 10 + [0] * 2)
        assert row.accepted_count == 10
        assert row.bad_rate == 0.3


class TestProvisions:
    def test_direct_product(self):
        assert rv.provisions(100_000, 0.1, 0.2) == 100_000 * 0.1 * 0.2
        assert rv.provisions(100_000, 0.1, 0.2) == pytest.approx(2000.0)

    def test_zero_bad_rate(self):
        assert rv.provisions(100_000, 0.0, 0.2) == 0.0

    def test_zero_factor(self):
        assert rv.provisions(100_000, 0.3, 0.0) == 0.0

    def test_decreasing_profit_in_provision_factor(self):
        profits = [small_row([1000.0, 2000.0, 3000.0], [GOOD, GOOD, BAD],
                             provision_factor=f).profit
                   for f in (0.0, 0.1, 0.2, 0.5, 1.0)]
        assert all(b < a for a, b in zip(profits, profits[1:]))


class TestProfit:
    def test_single_row(self):
        row = small_row([1000.0, 500.0, 700.0], [GOOD, BAD, GOOD], scores=[1, 0, 0])
        assert (row.accepted_count, row.provisions, row.profit) == (1, 0.0, 50.0)

    def test_all_defaulted(self):
        row = small_row([1000.0, 2000.0], [BAD, BAD])
        assert row.provisions == 3000.0 * 1.0 * 0.2
        assert row.profit == -row.provisions

    def test_negative_allowed(self):
        row = small_row([100.0, 1000.0], [GOOD, BAD])
        assert row.profit == 100.0 * 0.05 - 1100.0 * 0.5 * 0.2 < 0


class TestWithPredictions:
    def test_adds_column(self, german, scores):
        d = rv.with_predictions(german, scores, 550)
        preds = d.column(rv.PREDICTION_COLUMN).values
        assert set(preds) <= {GOOD, BAD}
        assert all((s >= 550) == (p == GOOD) for s, p in zip(scores, preds))

    def test_length_mismatch(self, german):
        with pytest.raises(ValueError, match="one score per row"):
            rv.with_predictions(german, [1, 2, 3], 550)

    def test_existing_prediction_column_rejected(self, german, scores):
        d = rv.with_predictions(german, scores, 550)
        with pytest.raises(ValueError, match="dataset column 'prediction' would be replaced"):
            rv.with_predictions(d, scores, 600)


class TestSweep:
    def test_provisions_identity_on_every_row(self, coarse_sweep, german, scores):
        amounts = german.column(rv.RevenueConfig().amount_column).values
        for row in coarse_sweep:
            accepted = [i for i, s in enumerate(scores) if s >= row.threshold]
            total = sum(float(amounts[i]) for i in accepted)
            assert row.provisions == total * row.bad_rate * 0.2

    def test_accepted_count_monotone(self, coarse_sweep):
        counts = [r.accepted_count for r in coarse_sweep]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_data_risk_constant(self, coarse_sweep):
        assert len({r.data_risk for r in coarse_sweep}) == 1

    def test_risk_difference_identity(self, coarse_sweep):
        for r in coarse_sweep:
            assert r.risk_difference == r.model_risk - r.data_risk

    def test_floor_threshold_recovers_dataset_rate(self, coarse_sweep):
        first = coarse_sweep[0]
        assert first.threshold == 300
        assert first.accepted_count == 1000
        assert first.bad_rate == 0.3

    def test_deterministic(self, german, scores):
        a = rv.sweep(german, scores, [500, 600], FEATURES, NONSENS, CFG)
        b = rv.sweep(german, scores, [500, 600], FEATURES, NONSENS, CFG)
        assert a == b

    def test_empty_acceptance_warns(self, german, scores):
        rows = rv.sweep(german, scores, [10_000], FEATURES, NONSENS, CFG)
        row = rows[0]
        assert row.accepted_count == 0
        assert row.bad_rate == 0.0
        assert row.provisions == 0.0
        assert row.profit == 0.0
        assert row.warnings

    def test_empty_grid_rejected(self, german, scores):
        with pytest.raises(ValueError, match="empty"):
            rv.sweep(german, scores, [], FEATURES, NONSENS, CFG)

    def test_unsorted_grid_rejected(self, german, scores):
        with pytest.raises(ValueError, match="ascending"):
            rv.sweep(german, scores, [600, 500], FEATURES, NONSENS, CFG)

    def test_score_length_checked(self, german):
        with pytest.raises(ValueError, match="one score per row"):
            rv.sweep(german, [1, 2], [500], FEATURES, NONSENS, CFG)

    def test_prediction_column_in_dataset_accepted(self, german, scores):
        # the sweep counts the model's classifications without a column for them
        d = german.with_columns([Column(rv.PREDICTION_COLUMN, "categorical",
                                        ("p", "q") * (german.size // 2))])
        grid = [500, 600]
        assert (rv.sweep(d, scores, grid, FEATURES, NONSENS, CFG)
                == rv.sweep(german, scores, grid, FEATURES, NONSENS, CFG))

    def test_negative_amounts_rejected(self, german, scores):
        from fairaudit.tabular import Column
        broken = german.with_columns([
            Column("Attribute5", "integer",
                   (-1,) + german.column("Attribute5").values[1:])])
        with pytest.raises(ValueError, match="negative credit amounts"):
            rv.sweep(broken, scores, [500], FEATURES, NONSENS, CFG)

    def test_per_row_interest_rate_column(self, german, scores):
        from fairaudit.tabular import Column
        flat = rv.sweep(german, scores, [600], FEATURES, NONSENS, CFG,
                        rev_cfg=rv.RevenueConfig(interest_rate=0.05))
        with_col = german.with_columns([
            Column("rate", "derived", (0.05,) * german.size)])
        per_row = rv.sweep(with_col, scores, [600], FEATURES, NONSENS, CFG,
                           rev_cfg=rv.RevenueConfig(interest_rate_column="rate"))
        assert per_row[0].profit == flat[0].profit

    def test_bits_independent_of_builtin_sum(self, german, scores, monkeypatch):
        # Python 3.12 made `sum` of floats compensated; the sweep must not use it
        grid = rv.RevenueConfig().thresholds.values()
        want = rv.sweep(german, scores, grid, FEATURES, NONSENS, CFG)
        monkeypatch.setattr(rv, "sum", compensated_sum, raising=False)
        got = rv.sweep(german, scores, grid, FEATURES, NONSENS, CFG)
        assert list(map(repr, got)) == list(map(repr, want))
