"""The default pipeline's files, byte for byte, against the archive that
tests/golden/capture.py wrote.  The depth-3 archives are checked by running
`python3 tests/golden/capture.py --check depth3 depth3_sweep`."""

from golden import capture


def test_default_pipeline_matches_golden_bytes(outputs):
    expected = capture.read_archive(capture.archive_path("default"))
    diff = capture.first_difference(expected, capture.read_dir(outputs))
    assert diff is None, diff


def test_first_difference_names_file_and_line():
    expected = {"a.json": b"{\n  \"x\": 1\n}\n", "b.csv": b"h\n1\n"}
    assert capture.first_difference(expected, dict(expected)) is None
    assert capture.first_difference(expected, {**expected, "b.csv": b"h\n2\n"}) == (
        "b.csv:2: expected b'1\\n', got b'2\\n'")
    assert capture.first_difference(expected, {**expected, "b.csv": b"h\n"}) == (
        "b.csv:2: expected 2 lines, got 1")
    assert capture.first_difference(expected, {"a.json": expected["a.json"], "c": b""}) == (
        "missing files ['b.csv'], unexpected files ['c']")
