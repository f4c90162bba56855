import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import rowscan_oracle as oracle
from fairaudit import report, scorecard as sc
from fairaudit.tabular import BAD, CATEGORICAL, GOOD, INTEGER, Column, Dataset


# --- independent WOE/IV oracle: plain dict/loop arithmetic ------------------

def oracle_woe_iv(bin_of_row, labels):
    bins = sorted(set(bin_of_row))
    good = {b: 0 for b in bins}
    bad = {b: 0 for b in bins}
    for b, label in zip(bin_of_row, labels):
        if label == GOOD:
            good[b] += 1
        else:
            bad[b] += 1
    total_good = sum(good.values())
    total_bad = sum(bad.values())
    woes, iv = {}, 0.0
    for b in bins:
        g, d = good[b], bad[b]
        if g == 0 or d == 0:
            g, d = g + 0.5, d + 0.5
        dg = g / total_good
        db = d / total_bad
        woes[b] = math.log(dg / db)
        iv += (dg - db) * woes[b]
    return woes, iv


def two_class_labels(n_good, n_bad):
    return [GOOD] * n_good + [BAD] * n_bad


def count_table(values, labels):
    """(sorted distinct values, good count of each, bad count of each)."""
    good = Counter(v for v, label in zip(values, labels) if label == GOOD)
    bad = Counter(v for v, label in zip(values, labels) if label == BAD)
    uniques = sorted(set(values))
    return uniques, [good[v] for v in uniques], [bad[v] for v in uniques]


def fit_bins(column, kind, values, labels, *config):
    return sc.fit_bins(column, kind, *count_table(values, labels), *config)


class TestWoeIv:
    def test_two_bin_fixture_by_hand(self):
        # 10 rows; bin A holds 4 good / 1 bad, bin B 1 good / 4 bad:
        # WOE_A = ln((4/5)/(1/5)) = ln 4, IV = 1.2 * ln 4
        woes, iv = sc.woe_iv_from_counts([4, 1], [1, 4])
        assert woes[0] == math.log(4)
        assert woes[1] == -math.log(4)
        assert iv == pytest.approx(1.2 * math.log(4), abs=1e-12)

    def test_proportional_bins_are_exactly_zero(self):
        # per-bin good/bad proportions equal -> ln(1) = 0, no smoothing kicks in
        woes, iv = sc.woe_iv_from_counts([2, 4], [1, 2])
        assert woes == [0.0, 0.0]
        assert iv == 0.0

    def test_zero_cell_smoothing(self):
        woes, _ = sc.woe_iv_from_counts([3, 2], [0, 5])
        assert woes[0] == math.log((3.5 / 5) / (0.5 / 5))

    def test_label_swap_negates(self):
        rng = random.Random(5)
        for _ in range(50):
            goods = [rng.randint(0, 9) for _ in range(4)]
            bads = [rng.randint(0, 9) for _ in range(4)]
            if sum(goods) == 0 or sum(bads) == 0:
                continue
            w1, _ = sc.woe_iv_from_counts(goods, bads)
            w2, _ = sc.woe_iv_from_counts(bads, goods)
            for a, b in zip(w1, w2):
                assert a == pytest.approx(-b, abs=1e-12)

    def test_iv_nonnegative(self):
        rng = random.Random(6)
        for _ in range(200):
            goods = [rng.randint(0, 20) for _ in range(5)]
            bads = [rng.randint(0, 20) for _ in range(5)]
            if sum(goods) == 0 or sum(bads) == 0:
                continue
            _, iv = sc.woe_iv_from_counts(goods, bads)
            assert iv >= 0.0


class TestFitBins:
    def test_numeric_two_bin_fixture(self):
        values = list(range(10))
        labels = [GOOD] * 4 + [BAD] + [GOOD] + [BAD] * 4
        spec = fit_bins("x", sc.NUMERIC, values, labels,
                        sc.BinningConfig(max_prebins=2, min_bin_fraction=0.0))
        assert spec.edges == (4.5,)
        assert spec.woes == (math.log(4), -math.log(4))
        assert spec.iv == pytest.approx(1.2 * math.log(4), abs=1e-12)

    @given(st.integers(0, 500))
    def test_matches_oracle_on_random_fixtures(self, seed):
        rng = random.Random(seed)
        n = 50
        values = [rng.randint(0, 12) for _ in range(n)]
        labels = [GOOD if rng.random() < 0.6 else BAD for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = GOOD, BAD
        spec = fit_bins("x", sc.NUMERIC, values, labels)
        assign = spec.assign(values).tolist()
        want_woes, want_iv = oracle_woe_iv(assign, labels)
        for b, woe in want_woes.items():
            assert abs(spec.woes[b] - woe) <= 1e-9
        assert abs(spec.iv - want_iv) <= 1e-9

    @given(st.integers(0, 500))
    def test_min_fraction_and_monotone(self, seed):
        rng = random.Random(seed)
        n = 200
        values = [rng.gauss(0, 1) for _ in range(n)]
        labels = [GOOD if rng.random() < 0.5 + 0.3 * (v > 0) else BAD
                  for v in values]
        if len(set(labels)) < 2:
            labels[0], labels[1] = GOOD, BAD
        spec = fit_bins("x", sc.NUMERIC, values, labels,
                        sc.BinningConfig(max_prebins=10, min_bin_fraction=0.05))
        assign = spec.assign(values).tolist()
        counts = [assign.count(b) for b in range(spec.n_bins)]
        if spec.n_bins > 1:
            assert min(counts) >= 0.05 * n
            diffs = [b - a for a, b in zip(spec.woes, spec.woes[1:])]
            assert all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)

    def test_constant_column(self):
        spec = fit_bins("x", sc.NUMERIC, [7] * 10, two_class_labels(6, 4))
        assert spec.n_bins == 1
        assert spec.woes == (0.0,)
        assert spec.iv == 0.0
        assert spec.assign([-1, 7, 8.5]).tolist() == [0, 0, 0]

    def test_single_class_labels_rejected(self):
        with pytest.raises(ValueError, match="both outcome classes"):
            fit_bins("x", sc.NUMERIC, [1, 2, 3], [GOOD, GOOD, GOOD])

    def test_german_attribute1_iv(self, german):
        spec = fit_bins("Attribute1", sc.CATEGORICAL,
                        german.column("Attribute1").values,
                        german.column("outcome").values)
        assert spec.iv > 0
        # regression pin, cross-checked against the oracle
        assert spec.iv == pytest.approx(0.6660115033513336, abs=1e-12)
        assign = spec.assign(german.column("Attribute1").values).tolist()
        _, want_iv = oracle_woe_iv(assign, german.column("outcome").values)
        assert abs(spec.iv - want_iv) <= 1e-9

    def test_label_swap_negates_fitted_woes(self):
        rng = random.Random(3)
        values = [rng.choice("abc") for _ in range(200)]
        labels = [rng.choice([GOOD, BAD]) for _ in range(200)]
        labels[0], labels[1] = GOOD, BAD
        swapped = [BAD if l == GOOD else GOOD for l in labels]
        a = fit_bins("x", sc.CATEGORICAL, values, labels)
        b = fit_bins("x", sc.CATEGORICAL, values, swapped)
        assert a.groups == b.groups
        for wa, wb in zip(a.woes, b.woes):
            assert wa == pytest.approx(-wb, abs=1e-12)

    def test_categorical_rest_bin(self):
        values = ["a"] * 50 + ["b"] * 45 + ["c"] * 3 + ["d"] * 2
        labels = two_class_labels(50, 50)
        spec = fit_bins("x", sc.CATEGORICAL, values, labels,
                        sc.BinningConfig(min_bin_fraction=0.05))
        assert ("c", "d") in spec.groups
        assert spec.rest_bin == len(spec.groups) - 1
        # unseen codes fall into the rest bin
        assert spec.assign(["a", "zzz", "c"]).tolist() == [0, spec.rest_bin, spec.rest_bin]

    def test_unseen_code_without_rest_bin(self):
        values = ["a"] * 5 + ["b"] * 5
        spec = fit_bins("x", sc.CATEGORICAL, values, two_class_labels(5, 5))
        assert spec.rest_bin is None
        with pytest.raises(ValueError, match="unseen code 'zzz'"):
            spec.assign(["a", "zzz", "b"])


def tiny_dataset():
    rng = random.Random(99)
    n = 120
    sep = [rng.choice(["p", "n"]) for _ in range(n)]
    noise = [rng.randint(0, 5) for _ in range(n)]
    outcome = [GOOD if s == "p" else BAD for s in sep]
    return Dataset(columns=(
        Column("sep", "categorical", tuple(sep)),
        Column("noise", "integer", tuple(noise)),
        Column("outcome", "categorical", tuple(outcome)),
    ), outcome="outcome")


class TestFitScorecard:
    def test_perfect_separator_gets_largest_coefficient(self):
        card = sc.fit_scorecard(tiny_dataset())
        by_col = dict(zip(card.columns, card.coefficients))
        assert abs(by_col["sep"]) > abs(by_col["noise"])

    def test_deterministic_bit_identical(self, german):
        a = sc.fit_scorecard(german)
        b = sc.fit_scorecard(german)
        assert report.dumps(report.scorecard_doc(a)) == report.dumps(report.scorecard_doc(b))

    def test_reports_final_loss(self, card):
        assert card.final_loss is not None and card.final_loss > 0

    def test_score_distribution_spans_threshold(self, scores, german):
        labels = german.column("outcome").values
        below = [l for s, l in zip(scores, labels) if s < 550]
        above = [l for s, l in zip(scores, labels) if s >= 550]
        assert {GOOD, BAD} <= set(below)
        assert {GOOD, BAD} <= set(above)


def one_row(d, i, **values):
    """Row i of d as a one-row dataset, with some values replaced."""
    return Dataset(columns=tuple(Column(c.name, c.kind, (values.get(c.name, c.values[i]),))
                                 for c in d.columns), outcome=d.outcome)


class TestScore:
    def test_deterministic(self, card, german, scores):
        row = one_row(german, 17)
        assert card.score_dataset(row) == card.score_dataset(row) == [scores[17]]

    def test_zero_woe_gives_base_score(self):
        binning = sc.BinningSpec(column="x", kind=sc.NUMERIC, edges=(1.0,),
                                 woes=(0.0, 0.0), iv=0.0)
        card = sc.Scorecard(binnings=(binning,), coefficients=(1.5,),
                            intercept=0.0, scaling=sc.ScoreScaling(base_score=600.0))
        d = Dataset(columns=(Column("x", INTEGER, (0.0,)),
                             Column("outcome", CATEGORICAL, (GOOD,))), outcome="outcome")
        assert card.score_dataset(d) == [round(600.0)]

    def test_out_of_range_clamps_to_boundary_bin(self, card, german):
        def score(age):
            return card.score_dataset(one_row(german, 0, Attribute13=age))

        assert score(-1000) == score(19)  # far below any observed age
        assert score(10_000) == score(75)

    def test_missing_column(self, card):
        d = Dataset(columns=(Column("Attribute1", CATEGORICAL, ("A11",)),
                             Column("outcome", CATEGORICAL, (GOOD,))), outcome="outcome")
        with pytest.raises(ValueError, match="unknown column 'Attribute2'"):
            card.score_dataset(d)


# --- numpy binning and scoring against the per-row oracle -------------------

_REALS = st.floats(-5, 5)
_HALVES = st.integers(-6, 6).map(lambda i: i / 2)
_CODES = ("a", "b", "c", "d", "e")  # "e" is never binned


def _numeric_binning(draw, name):
    edges = tuple(sorted(draw(st.sets(_HALVES, max_size=4))))  # may be empty
    woes = draw(st.lists(_REALS, min_size=len(edges) + 1, max_size=len(edges) + 1))
    near = [x for e in edges
            for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    # ints and floats exactly on, just below and just above the edges, and beyond them
    values = st.integers(-10, 10) | _HALVES | st.integers(-2 ** 70, 2 ** 70) | _REALS
    if near:
        values |= st.sampled_from(near)
    return sc.BinningSpec(column=name, kind=sc.NUMERIC, edges=edges, woes=tuple(woes)), values


def _categorical_binning(draw, name):
    codes = tuple(draw(st.permutations(_CODES[:4])))[:draw(st.integers(1, 4))]
    cuts = sorted(draw(st.sets(st.integers(1, len(codes) - 1), max_size=3))
                  if len(codes) > 1 else ())
    groups = tuple(codes[a:b] for a, b in zip([0, *cuts], [*cuts, len(codes)]))
    rest_bin = draw(st.integers(0, len(groups) - 1)) if draw(st.booleans()) else None
    woes = draw(st.lists(_REALS, min_size=len(groups), max_size=len(groups)))
    spec = sc.BinningSpec(column=name, kind=sc.CATEGORICAL, groups=groups,
                          rest_bin=rest_bin, woes=tuple(woes))
    return spec, st.sampled_from(_CODES)


@st.composite
def scored_datasets(draw):
    """(scorecard, dataset holding every binned column)."""
    n = draw(st.integers(1, 8))
    binnings, columns = [], []
    for j in range(draw(st.integers(1, 3))):
        make = _numeric_binning if draw(st.booleans()) else _categorical_binning
        spec, values = make(draw, f"x{j}")
        binnings.append(spec)
        columns.append(Column(spec.column, INTEGER if spec.kind == sc.NUMERIC else CATEGORICAL,
                              tuple(draw(st.lists(values, min_size=n, max_size=n)))))
    card = sc.Scorecard(
        binnings=tuple(binnings),
        coefficients=tuple(draw(st.lists(_REALS, min_size=len(binnings),
                                         max_size=len(binnings)))),
        intercept=draw(_REALS),
        scaling=sc.ScoreScaling(pdo=draw(st.floats(1, 100)), base_score=draw(st.floats(0, 1000))))
    outcome = Column("outcome", CATEGORICAL, (GOOD,) * n)
    return card, Dataset(columns=(*columns, outcome), outcome="outcome")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


class TestAgainstRowScan:
    @given(scored_datasets())
    def test_assign_and_score_dataset(self, case):
        card, d = case
        errors = []
        for b in card.binnings:
            values = d.column(b.column).values
            got = _outcome(lambda: b.assign(values).tolist())
            assert got == _outcome(lambda: [oracle.bin_index(b, v) for v in values])
            if got[0] != "ok":
                errors.append(got)
        got = _outcome(card.score_dataset, d)
        if not errors:
            assert got == ("ok", oracle.score_dataset(card, d))
        else:
            # the first column holding an unseen code raises; the row scan
            # raises at the first row holding one, which may be another column
            assert got == errors[0]
            assert _outcome(oracle.score_dataset, card, d) in errors



# --- weighted fit on distinct bin rows against the per-row fit --------------

def assert_same_fit(d, config=sc.ScorecardConfig(), card=None):
    """The per-row fit up to float summation order: the same bins and scores,
    the final loss within 1e-12 relative, and coefficients and intercept
    within 1e-12 of the largest of them (a parameter whose gradient sums
    cancel may end at 0.0 in one fit and at 4e-18 in the other)."""
    got = sc.fit_scorecard(d, config) if card is None else card
    want = oracle.fit_scorecard(d, config)
    assert got.binnings == want.binnings
    params = (*got.coefficients, got.intercept)
    want_params = (*want.coefficients, want.intercept)
    scale = max(map(abs, want_params))
    for a, b in zip(params, want_params):
        assert abs(a - b) <= 1e-12 * scale
    assert abs(got.final_loss - want.final_loss) <= 1e-12 * want.final_loss
    assert got.score_dataset(d) == want.score_dataset(d)


def resample(d, n, seed):
    rng = random.Random(seed)
    rows = [rng.randrange(d.size) for _ in range(n)]
    return Dataset(columns=tuple(Column(c.name, c.kind, tuple(c.values[i] for i in rows))
                                 for c in d.columns), outcome=d.outcome)


@st.composite
def fit_cases(draw):
    """(dataset, config) with 1-3 input columns whose rows are either all
    distinct or a few distinct rows repeated under mixed labels."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kinds = draw(st.lists(st.sampled_from([INTEGER, CATEGORICAL]), min_size=1, max_size=3))
    n = draw(st.integers(10, 300))
    if draw(st.booleans()):  # all distinct: the first column never repeats
        protos = [[i] + [rng.randint(0, 3) for _ in kinds[1:]] for i in range(n)]
        rng.shuffle(protos)
        kinds[0] = INTEGER
    else:
        distinct = [[rng.randint(0, 3) for _ in kinds] for _ in range(draw(st.integers(1, 6)))]
        protos = [rng.choice(distinct) for _ in range(n)]
    labels = [GOOD, BAD] + [GOOD if rng.random() < 0.6 else BAD for _ in range(n - 2)]
    columns = tuple(Column(f"x{j}", kind, tuple(row[j] if kind == INTEGER else "abcd"[row[j]]
                                                for row in protos))
                    for j, kind in enumerate(kinds))
    d = Dataset(columns=(*columns, Column("outcome", CATEGORICAL, tuple(labels))),
                outcome="outcome")
    config = sc.ScorecardConfig(
        binning=sc.BinningConfig(max_prebins=draw(st.integers(1, 10)),
                                 min_bin_fraction=draw(st.sampled_from([0.0, 0.05, 0.2]))),
        learning_rate=draw(st.sampled_from([0.05, 0.1, 0.5])),
        iterations=draw(st.integers(1, 200)))
    return d, config


class TestFitAgainstRowScan:
    def test_german_default_config(self, german, card):
        assert_same_fit(german, card=card)

    def test_resample_with_conflicting_duplicates(self, german_raw):
        assert_same_fit(resample(german_raw, 5000, seed=8))

    @given(fit_cases())
    def test_random_datasets(self, case):
        assert_same_fit(*case)


class TestEvaluate:
    def test_uninformative_scores(self):
        m = sc.evaluate([500] * 10, two_class_labels(6, 4), 550)
        assert m.auc == 0.5
        assert m.gini == 0.0

    def test_perfect_ranking(self):
        scores = [700, 690, 680, 400, 390]
        labels = [GOOD, GOOD, GOOD, BAD, BAD]
        m = sc.evaluate(scores, labels, 550)
        assert m.auc == 1.0
        assert m.gini == 1.0

    def test_gini_identity(self, scores, german):
        m = sc.evaluate(scores, german.column("outcome").values, 550)
        assert m.gini == 2.0 * m.auc - 1.0

    def test_german_auc_band(self, scores, german):
        m = sc.evaluate(scores, german.column("outcome").values, 550)
        assert 0.75 <= m.auc <= 0.85

    def test_roc_monotone(self, scores, german):
        m = sc.evaluate(scores, german.column("outcome").values, 550)
        for (x0, y0), (x1, y1) in zip(m.roc, m.roc[1:]):
            assert x1 >= x0 and y1 >= y0
        assert m.roc[0] == (0.0, 0.0)
        assert m.roc[-1] == (1.0, 1.0)

    @given(st.integers(0, 300))
    def test_auc_invariant_under_monotone_maps(self, seed):
        rng = random.Random(seed)
        n = 40
        scores = [rng.randint(300, 800) for _ in range(n)]
        labels = [GOOD if rng.random() < 0.6 else BAD for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = GOOD, BAD
        base = sc.evaluate(scores, labels, 550).auc
        # strictly increasing random remap of the distinct score values
        distinct = sorted(set(scores))
        offsets = {}
        acc = 0.0
        for v in distinct:
            acc += rng.uniform(0.1, 5.0)
            offsets[v] = acc
        mapped = [offsets[s] for s in scores]
        assert sc.evaluate(mapped, labels, 550).auc == base

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both outcome classes"):
            sc.evaluate([1, 2], [GOOD, GOOD], 550)

    def test_classify_rule(self):
        assert sc.classify([549, 550, 551], 550) == [BAD, GOOD, GOOD]
