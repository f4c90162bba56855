"""Capture, or check, the golden output archives the tests compare byte for byte.

    PYTHONPATH=src python3 tests/golden/capture.py [NAME ...]
    PYTHONPATH=src python3 tests/golden/capture.py --check [NAME ...]

NAME is `default` (the README pipeline: train, both audits, sweep and
compare), `depth3` (`audit --target data` with subclass depth 3) or
`depth3_sweep` (the default `train`, then `sweep` with subclass depth 3); no
NAME means all three.  Each run goes through `cli.main` in a fresh directory, and its
files are stored as tests/golden/<NAME>.tar.xz.  `--check` runs again and
exits 1 naming the first file and line that differ from the archive.

The archives describe the committed behaviour: recapture only in a change
that deliberately alters outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tarfile
import tempfile

from fairaudit import cli

GOLDEN = os.path.dirname(os.path.abspath(__file__))
GERMAN_PATH = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "data", "german.data")


def run_default(out: str) -> None:
    scores = os.path.join(out, "scores.csv")
    for argv in (["train"],
                 ["audit", "--target", "data"],
                 ["audit", "--target", "model", "--scores", scores],
                 ["sweep", "--scores", scores]):
        _cli([*argv, "--dataset", GERMAN_PATH, "--out", out])
    _cli(["compare", os.path.join(out, "risk_report_model.json"),
          os.path.join(out, "risk_report_data.json"), "--out", out])


def _with_depth3_config(out: str, *commands) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"detection": {"depth": 3}}, fh)
        for argv in commands:
            _cli([*argv, "--config", config, "--dataset", GERMAN_PATH, "--out", out])


def run_depth3(out: str) -> None:
    _with_depth3_config(out, ["audit", "--target", "data"])


def run_depth3_sweep(out: str) -> None:
    _cli(["train", "--dataset", GERMAN_PATH, "--out", out])
    _with_depth3_config(out, ["sweep", "--scores", os.path.join(out, "scores.csv")])


RUNS = {"default": run_default, "depth3": run_depth3, "depth3_sweep": run_depth3_sweep}


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"fairaudit {' '.join(argv)} exited {code}")


def archive_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.tar.xz")


def read_dir(out: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def read_archive(path: str) -> dict[str, bytes]:
    with tarfile.open(path, "r:xz") as tar:
        return {m.name: tar.extractfile(m).read() for m in tar.getmembers()}


def write_archive(path: str, files: dict[str, bytes]) -> None:
    """Members in name order with fixed metadata, so equal files give an
    equal archive."""
    with tarfile.open(path, "w:xz", format=tarfile.USTAR_FORMAT) as tar:
        for name in sorted(files):
            info = tarfile.TarInfo(name)
            info.size = len(files[name])
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(files[name]))


def first_difference(expected: dict[str, bytes], actual: dict[str, bytes]) -> str | None:
    """None if both hold the same names and bytes; otherwise where they
    first part: a missing or extra file, or a file's first differing line."""
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    if missing or extra:
        return f"missing files {missing}, unexpected files {extra}"
    for name in sorted(expected):
        if expected[name] == actual[name]:
            continue
        want = expected[name].splitlines(keepends=True)
        got = actual[name].splitlines(keepends=True)
        for number, (a, b) in enumerate(zip(want, got), start=1):
            if a != b:
                return f"{name}:{number}: expected {a!r}, got {b!r}"
        number = min(len(want), len(got)) + 1
        return f"{name}:{number}: expected {len(want)} lines, got {len(got)}"
    return None


def produce(name: str) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as out:
        RUNS[name](out)
        return read_dir(out)


def main(argv) -> int:
    check = "--check" in argv
    names = [a for a in argv if a != "--check"] or list(RUNS)
    for name in names:
        if name not in RUNS:
            raise SystemExit(f"unknown run {name!r}; expected one of {sorted(RUNS)}")
    failed = False
    for name in names:
        files = produce(name)
        if check:
            diff = first_difference(read_archive(archive_path(name)), files)
            print(f"{name}: {'ok' if diff is None else diff}")
            failed |= diff is not None
        else:
            write_archive(archive_path(name), files)
            print(archive_path(name))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
