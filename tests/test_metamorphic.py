"""Metamorphic tests: inputs changed in a way the paper's maths must not
notice give the same outputs."""

import random

from conftest import run_pipeline
from golden import capture


def test_row_order_does_not_matter(outputs, german_path, tmp_path):
    with open(german_path, encoding="ascii") as fh:
        lines = fh.readlines()
    order = list(range(len(lines)))
    random.Random(3).shuffle(order)
    shuffled = tmp_path / "german.data"
    shuffled.write_text("".join(lines[i] for i in order), encoding="ascii")
    out = tmp_path / "out"
    run_pipeline(str(shuffled), str(out))

    want, got = capture.read_dir(outputs), capture.read_dir(str(out))
    scores, shuffled_scores = want.pop("scores.csv"), got.pop("scores.csv")
    assert capture.first_difference(want, got) is None
    # the shuffled file's row i is the original row order[i], scored alike
    header, *rows = scores.decode().splitlines()
    assert shuffled_scores.decode().splitlines() == [header, *(
        f"{i},{rows[j].split(',', 1)[1]}" for i, j in enumerate(order))]
