"""Output checker: every invocation's stdout and files against a reference.

References are captured from the seed commit by capture_refs.py.  Structure,
strings and integers must match exactly; floats may differ by at most
FLOAT_TOL relative to their magnitude (absolute below 1), the allowance for
a called-out change of summation order.  On top of the reference diff, every
JSON report is re-validated against the shipped schemas and every sweep row
must satisfy provisions = TCA * BR * factor.
"""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import math
import os
import re

import jsonschema

FLOAT_TOL = 1e-12
PROVISION_FACTOR = 0.2  # the workloads run the default revenue config
AMOUNT_FIELD = 4  # Attribute5, credit amount, in a German-format line
LABEL_FIELD = 20

SCHEMA_FOR_PREFIX = (
    ("test_report_", "test_report"),
    ("risk_report_", "risk_report"),
    ("hazard_comparison", "hazard_comparison"),
    ("sweep.json", "sweep"),
)

_SEPARATORS = re.compile(r"([\s,()]+)")


class Mismatch(Exception):
    """An output differs from its reference or breaks an invariant."""


def close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def compare_values(got, want, where: str = "$"):
    """Raise Mismatch unless `got` matches `want` (parsed JSON values)."""
    if type(got) is not type(want):
        raise Mismatch(f"{where}: type {type(got).__name__} != {type(want).__name__}")
    if isinstance(want, dict):
        if got.keys() != want.keys():
            raise Mismatch(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for k in want:
            compare_values(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        if len(got) != len(want):
            raise Mismatch(f"{where}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare_values(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        if not close(got, want):
            raise Mismatch(f"{where}: {got!r} != {want!r}")
    elif got != want:
        raise Mismatch(f"{where}: {got!r} != {want!r}")


def _token(tok: str):
    for parse in (int, float):
        try:
            return parse(tok)
        except ValueError:
            pass
    return tok


def compare_text(got: str, want: str, where: str):
    """Token-wise diff of CSV or stdout text: numbers within tolerance,
    everything else (separators included) exactly."""
    g_lines, w_lines = got.splitlines(), want.splitlines()
    if len(g_lines) != len(w_lines):
        raise Mismatch(f"{where}: {len(g_lines)} lines != {len(w_lines)}")
    for n, (gl, wl) in enumerate(zip(g_lines, w_lines), start=1):
        g_toks = [_token(t) for t in _SEPARATORS.split(gl)]
        w_toks = [_token(t) for t in _SEPARATORS.split(wl)]
        try:
            compare_values(g_toks, w_toks)
        except Mismatch:
            raise Mismatch(f"{where}:{n}: {gl!r} != {wl!r}") from None


def compare_file(name: str, got: str, want: str):
    if name.endswith(".json"):
        compare_values(json.loads(got), json.loads(want), name)
    else:
        compare_text(got, want, name)


def load_refs(path: str) -> dict:
    """{step name: {"stdout": text, "files": {file name: text}}}"""
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_refs(path: str, refs: dict):
    with lzma.open(path, "wt", encoding="utf-8", preset=9) as fh:
        json.dump(refs, fh, sort_keys=True)


def german_amounts_labels(dataset_path: str) -> tuple[list[float], list[bool]]:
    amounts, bad = [], []
    with open(dataset_path, encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            amounts.append(float(fields[AMOUNT_FIELD]))
            bad.append(fields[LABEL_FIELD] == "2")
    return amounts, bad


def read_scores(text: str) -> list[int]:
    rows = list(csv.reader(text.splitlines()))
    return [int(r[1]) for r in rows[1:]]


def check_sweep_identity(doc: dict, amounts, bad, scores):
    """Recompute TCA and BR per threshold; provisions must equal TCA*BR*factor."""
    for i, row in enumerate(doc["rows"]):
        accepted = [j for j, s in enumerate(scores) if s >= row["threshold"]]
        where = f"sweep.json rows[{i}]"
        if row["accepted_count"] != len(accepted):
            raise Mismatch(f"{where}: accepted_count {row['accepted_count']} != {len(accepted)}")
        br = sum(1 for j in accepted if bad[j]) / len(accepted) if accepted else 0.0
        tca = sum(amounts[j] for j in accepted)
        if not close(row["bad_rate"], br):
            raise Mismatch(f"{where}: bad_rate {row['bad_rate']!r} != {br!r}")
        if not close(row["provisions"], tca * br * PROVISION_FACTOR):
            raise Mismatch(f"{where}: provisions {row['provisions']!r} != "
                           f"TCA*BR*factor {tca * br * PROVISION_FACTOR!r}")


class Checker:
    """Checks the outputs of one workload against its references.

    Verdicts are cached by content hash: identical bytes always get the same
    verdict, so repeated iterations are checked for the price of a hash.
    """

    def __init__(self, refs: dict, schema_dir: str, dataset_path: str):
        self.refs = refs
        self.schemas = {}
        for _, schema in SCHEMA_FOR_PREFIX:
            with open(os.path.join(schema_dir, f"{schema}.schema.json"), encoding="utf-8") as fh:
                self.schemas[schema] = json.load(fh)
        self.dataset_path = dataset_path
        self._amounts_bad = None
        self._verdicts: dict = {}

    def _schema(self, name: str):
        for prefix, schema in SCHEMA_FOR_PREFIX:
            if name.startswith(prefix) and name.endswith(".json"):
                return schema
        return None

    def _check_file(self, name: str, got: str, want: str, out_dir: str):
        compare_file(name, got, want)
        schema = self._schema(name)
        if schema is None:
            return
        doc = json.loads(got)
        try:
            jsonschema.validate(doc, self.schemas[schema], cls=jsonschema.Draft202012Validator)
        except jsonschema.ValidationError as exc:
            raise Mismatch(f"{name}: schema {schema}: {exc.message}") from None
        if schema == "sweep":
            if self._amounts_bad is None:
                self._amounts_bad = german_amounts_labels(self.dataset_path)
            with open(os.path.join(out_dir, "scores.csv"), encoding="utf-8") as fh:
                scores = read_scores(fh.read())
            check_sweep_identity(doc, *self._amounts_bad, scores)

    def _verdict(self, key, check) -> str | None:
        if key not in self._verdicts:
            try:
                check()
                self._verdicts[key] = None
            except (Mismatch, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self._verdicts[key] = f"{key[0]}: {exc}"
        return self._verdicts[key]

    def check_step(self, step: str, stdout: str, new_files: dict, out_dir: str) -> list[str]:
        """Problems found in one invocation's outputs; empty when correct.

        `new_files` maps each file the invocation created to its text.
        """
        ref = self.refs.get(step)
        if ref is None:
            return [f"no reference for step {step!r}"]
        problems = [self._verdict((step, "stdout", _digest(stdout)),
                                  lambda: compare_text(stdout, ref["stdout"], "stdout"))]
        if set(new_files) != set(ref["files"]):
            problems.append(f"{step}: files {sorted(new_files)} != {sorted(ref['files'])}")
        for name in sorted(set(new_files) & set(ref["files"])):
            got, want = new_files[name], ref["files"][name]
            problems.append(self._verdict(
                (step, name, _digest(got)),
                lambda: self._check_file(name, got, want, out_dir)))  # noqa: B023 - called at once
        return [p for p in problems if p]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
