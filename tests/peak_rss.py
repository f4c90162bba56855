"""Peak RSS of `train`, both audits and `sweep` on a 100x German Credit
file.

    python3 tests/peak_rss.py

Writes a seeded 100,000-row resample of data/german.data to a temporary
directory, runs each command on it as a fresh `python -m fairaudit.cli`
process (the package from this checkout's src/; the model audit and
`sweep` read the `scores.csv` that `train` wrote) and reads the process's peak RSS from
`os.wait4`.  Prints one line per command and exits 1 when a peak is above
LIMIT_MIB.  A child's reading can be this process's own RSS when that is
the larger, but this process stays far below the limit, so a reading above
it is the command's own.
"""

import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GERMAN_PATH = os.path.join(ROOT, "data", "german.data")
ROWS = 100_000
SEED = 7
LIMIT_MIB = 120.0


def write_resample(path, rows: int, seed: int) -> None:
    """Write a German-format file of `rows` lines drawn with replacement
    from data/german.data."""
    with open(GERMAN_PATH, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    picks = np.random.default_rng(seed).integers(0, len(lines), size=rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines[i] + "\n" for i in picks)


def peak_rss_mib(argv, cwd) -> float:
    """Run `python -m fairaudit.cli *argv`; its peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.Popen([sys.executable, "-m", "fairaudit.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # so that Popen does not wait again
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {proc.returncode}")
    return usage.ru_maxrss / 1024.0


def main() -> int:
    over = []
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "german.data")
        write_resample(data, ROWS, SEED)
        scores = os.path.join(tmp, "scores.csv")
        for command in (["train"], ["audit", "--target", "data"],
                        ["audit", "--target", "model", "--scores", scores],
                        ["sweep", "--scores", scores]):
            peak = peak_rss_mib([*command, "--dataset", data, "--out", tmp], tmp)
            label = " ".join(command).replace(tmp + os.sep, "")
            print(f"{label}: peak RSS {peak:.1f} MiB (limit {LIMIT_MIB:g})")
            if peak > LIMIT_MIB:
                over.append(command[0])
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
