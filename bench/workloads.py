"""Benchmark workloads: seeded input generation and the CLI step sequences.

Every workload is a list of `fairaudit` CLI invocations that run one after
another in a work directory, writing into `out/` there.  The program only
ever sees the generated input files; the seed never reaches it.

Why each workload exists, and which layer metrics it is meant to move, is
written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

GERMAN_DATA = os.path.join("data", "german.data")

# scaled-20x folds every seed onto one of this many resampled datasets, so
# that a reference output captured from the seed commit exists for each.
SCALED_VARIANTS = 8
SCALED_ROWS = 20_000

DEEP_CONFIG = {"detection": {"depth": 3}}

NAMES = ("german-pipeline", "scaled-20x", "deep-subclass")

OUT = "out"
SCORES = f"{OUT}/scores.csv"


@dataclass(frozen=True)
class Step:
    """One CLI invocation: `kind` groups timings (train/audit/compare/sweep),
    `name` identifies the step's reference outputs."""

    name: str
    kind: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int | None  # data variant for seeded inputs, None when fixed
    dataset: str  # absolute path of the dataset the program reads
    inputs: dict  # input file label -> absolute path
    steps: tuple[Step, ...]

    @property
    def ref_name(self) -> str:
        return self.name if self.variant is None else f"{self.name}-v{self.variant}"


def scaled_variant(seed: int) -> int:
    return seed % SCALED_VARIANTS


def resample_german(src_path: str, rows: int, rng_seed: int) -> bytes:
    """German-format file of `rows` lines drawn with replacement from src."""
    with open(src_path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    idx = np.random.default_rng(rng_seed).integers(0, len(lines), size=rows)
    return "".join(lines[i] + "\n" for i in idx).encode("ascii")


def _write(path: str, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


def _pipeline(dataset: str, config: str | None, sweep=False) -> tuple[Step, ...]:
    cfg = ("--config", config) if config else ()
    data = ("--dataset", dataset, "--out", OUT)
    steps = [
        Step("train", "train", ("train", *data)),
        Step("audit-data", "audit", ("audit", *cfg, "--target", "data", *data)),
        Step("audit-model", "audit",
             ("audit", *cfg, "--target", "model", "--scores", SCORES, *data)),
        Step("compare", "compare",
             ("compare", *cfg, f"{OUT}/risk_report_model.json",
              f"{OUT}/risk_report_data.json", "--out", OUT)),
    ]
    if sweep:
        steps.append(Step("sweep", "sweep", ("sweep", *cfg, "--scores", SCORES, *data)))
    return tuple(steps)


def prepare(name: str, seed: int, root: str, inputs_dir: str) -> Workload:
    """Write the workload's inputs under `inputs_dir` and return its steps."""
    german = os.path.join(root, GERMAN_DATA)
    os.makedirs(inputs_dir, exist_ok=True)
    if name == "german-pipeline":
        return Workload(name, None, german, {"dataset": german},
                        _pipeline(german, None, sweep=True))
    if name == "scaled-20x":
        variant = scaled_variant(seed)
        path = os.path.join(inputs_dir, f"german-20x-v{variant}.data")
        _write(path, resample_german(german, SCALED_ROWS, variant))
        return Workload(name, variant, path, {"dataset": path}, _pipeline(path, None))
    if name == "deep-subclass":
        config = os.path.join(inputs_dir, "deep-subclass.json")
        _write(config, (json.dumps(DEEP_CONFIG, sort_keys=True) + "\n").encode())
        return Workload(name, None, german, {"dataset": german, "config": config},
                        _pipeline(german, config))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
