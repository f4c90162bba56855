"""Capture the reference outputs the benchmark checks against.

    python3 bench/capture_refs.py [WORKLOAD ...]

Runs each workload's steps once through the CLI (every data variant of a
seeded workload) and stores each step's stdout and created files, lzma
compressed, under bench/refs/.  References describe the seed commit's
behaviour: recapture only in a change that deliberately alters outputs,
and say so in that change.
"""

from __future__ import annotations

import os
import sys

import check
import run
import workloads


def capture(name: str, seed: int) -> str:
    work = os.path.join(run.OUT_ROOT, "capture", name)
    run.fresh_dir(work)
    wl = workloads.prepare(name, seed, run.ROOT, os.path.join(work, "inputs"))
    out_dir = os.path.join(work, workloads.OUT)
    os.makedirs(out_dir)
    refs = {}
    for step in wl.steps:
        before = run.list_outputs(out_dir)
        _, code, _, stdout, stderr = run.run_cli(step.argv, work, run.HARD_LIMIT_S)
        if code != 0:
            raise SystemExit(f"{name} {step.name} exited {code}:\n{stderr}")
        refs[step.name] = {"stdout": stdout, "files": run.read_new_outputs(out_dir, before)}
    path = os.path.join(run.REFS, f"{wl.ref_name}.json.xz")
    os.makedirs(run.REFS, exist_ok=True)
    check.save_refs(path, refs)
    return path


def main(names):
    for name in names or workloads.NAMES:
        seeds = range(workloads.SCALED_VARIANTS) if name == "scaled-20x" else (0,)
        for seed in seeds:
            print(capture(name, seed))


if __name__ == "__main__":
    main(sys.argv[1:])
