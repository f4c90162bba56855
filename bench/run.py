"""fairaudit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the checkout root is the directory
above this file.  The program is run from source (src on PYTHONPATH).

--trace 0 drives the real CLI the way a user does: every command is a fresh
`python -m fairaudit.cli` process, one after another, repeated for about S
seconds.  It reports the end-to-end metrics.
--trace 1 runs the same commands in-process through fairaudit.cli.main,
alternating untraced and traced passes, and reports the per-layer metrics
plus the tracing overhead (traced minus untraced wall time).

Every invocation's outputs are checked against references captured from
the seed commit (bench/refs); a mismatch counts as a failed invocation.
A human-readable summary is printed first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the metrics
that BENCHMARK.json declares for the mode.  Everything written goes under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata

import check
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 3  # before the first pass
SETUP_PER_PASS = 2
# compare is almost all interpreter start-up and runs once per pass, so a
# pass repeats it for enough samples; pipeline_s counts the first run only
REPEATS = {"compare": 3}
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program, data or refs)."""


# --- statistics ---------------------------------------------------------------

def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as (p, value);
    None when there are too few samples for any."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(samples)
            rank = min(n - 1, max(0, int(-(-p * n // 100.0)) - 1))  # nearest rank
            return p, ordered[rank]
    return None


def describe(name, unit, samples):
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no percentile with >=10 beyond"
    return (f"  {name:<34} median {statistics.median(samples):.4f} {unit:<6} "
            f"{tail_text}  (n={len(samples)})")


# --- environment --------------------------------------------------------------

def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(wl, seed):
    return {
        "workload": wl.name,
        "seed": seed,
        "data_variant": wl.variant,
        "inputs_sha256": {label: workloads.sha256_file(path)
                          for label, path in sorted(wl.inputs.items())},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "jsonschema": _version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


# --- output collection -------------------------------------------------------

def list_outputs(out_dir):
    return set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()


def read_new_outputs(out_dir, before):
    new = {}
    for name in sorted(list_outputs(out_dir) - before):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            new[name] = fh.read()
    return new


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# --- end-to-end run (fresh CLI processes) ------------------------------------

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, cwd, timeout, stdout_path, stderr_path):
    """Run one process to completion.

    Returns (wall seconds, exit code, max RSS in MiB).  The process is killed
    once `timeout` expires; it is always reaped before returning.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=cli_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(step_argv, cwd, timeout):
    """One `python -m fairaudit.cli` invocation; returns (wall s, exit code,
    max RSS MiB, stdout text, stderr text)."""
    stdout_path = os.path.join(cwd, "stdout.txt")
    stderr_path = os.path.join(cwd, "stderr.txt")
    elapsed, code, rss = run_process([sys.executable, "-m", "fairaudit.cli", *step_argv],
                                     cwd, timeout, stdout_path, stderr_path)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return elapsed, code, rss, stdout, stderr


IMPORT_ARGV = (sys.executable, "-c", "import fairaudit.cli")


def time_import(cwd, deadline):
    """Wall seconds of a fresh interpreter importing fairaudit.cli."""
    out, err = os.path.join(cwd, "setup.out"), os.path.join(cwd, "setup.err")
    elapsed, code, _ = run_process(list(IMPORT_ARGV), cwd, deadline - time.perf_counter(),
                                   out, err)
    if code != 0:
        with open(err, encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"cannot import fairaudit.cli:\n{fh.read()}")
    return elapsed


class Tally:
    """Attempted and failed invocations, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(problems[:3])


def run_e2e(wl, checker, work, seconds, t_start):
    deadline = t_start + HARD_LIMIT_S
    time_import(work, deadline)  # unmeasured: bytecode caches exist for a user too
    # set-up is sampled before every pass too, so that its median sees
    # the same machine conditions as the commands
    setup = [time_import(work, deadline) for _ in range(SETUP_SAMPLES)]
    out_dir = os.path.join(work, workloads.OUT)
    tally = Tally()
    kinds: dict[str, list[float]] = {}
    pipeline, peak_rss, passes = [], [], []
    while True:
        pass_start = time.perf_counter()
        setup += [time_import(work, deadline) for _ in range(SETUP_PER_PASS)]
        fresh_dir(out_dir)
        total, rss_max, checking, ok = 0.0, 0.0, 0.0, True
        for step in wl.steps:
            created = {}
            for repeat in range(REPEATS.get(step.kind, 1)):
                for name in created:  # a repeat must create its outputs afresh
                    os.remove(os.path.join(out_dir, name))
                before = list_outputs(out_dir)
                remaining = deadline - time.perf_counter()
                elapsed, code, rss, stdout, stderr = run_cli(step.argv, work, remaining)
                problems = [] if code == 0 else [f"{step.name}: exit {code}: {stderr.strip()[-300:]}"]
                created = read_new_outputs(out_dir, before)
                check_start = time.perf_counter()
                problems += checker.check_step(step.name, stdout, created, out_dir)
                checking += time.perf_counter() - check_start
                tally.record(problems)
                ok = ok and not problems
                kinds.setdefault(step.kind, []).append(elapsed)
                if repeat == 0:
                    total += elapsed
                rss_max = max(rss_max, rss)
        pipeline.append(total)
        peak_rss.append(rss_max)
        # --seconds budgets measuring, not checking: the first pass checks
        # outputs in full, later ones mostly hit the verdict cache
        passes.append(time.perf_counter() - pass_start - checking)
        now = time.perf_counter()
        if (not ok or sum(passes) + statistics.median(passes) > seconds
                or now + max(passes) + checking > deadline):
            break
    samples = {"setup_s": setup, "pipeline_s": pipeline, "peak_rss_mb": peak_rss}
    samples.update({f"{kind}_s": v for kind, v in kinds.items()})
    units = {name: ("MiB" if name == "peak_rss_mb" else "s") for name in samples}
    return samples, units, tally


# --- traced run (in-process) -------------------------------------------------

# per-layer metric -> (how it is derived, span names it needs):
#   "s" inclusive seconds of the span, "self_s" self seconds summed over the
#   spans, "count" the tracer counter of the same name, "a/b" a ratio of counters
LAYER_METRICS = {
    "tabular.load.s": ("s", "tabular.load"),
    "tabular.load.rows": ("count", "tabular.load"),
    "tabular.derive_sensitive_features.s": ("s", "tabular.derive_sensitive_features"),
    "tabular.partition.s": ("s", "tabular.partition"),
    "tabular.partition.calls": ("count", "tabular.partition"),
    "tabular.partition.rows_scanned": ("count", "tabular.partition"),
    "tabular.partition.distinct_ratio": ("tabular.partition.distinct/tabular.partition.calls",
                                         "tabular.partition"),
    "tabular.label_distribution.s": ("s", "tabular.label_distribution"),
    "tabular.label_distribution.calls": ("count", "tabular.label_distribution"),
    "scorecard.fit_scorecard.self_s": ("self_s", "scorecard.fit_scorecard"),
    "scorecard.fit_bins.s": ("s", "scorecard.fit_bins"),
    "scorecard.fit.row_iterations": ("count", "scorecard.fit_scorecard"),
    "scorecard.score_dataset.s": ("s", "scorecard.score_dataset"),
    "scorecard.score_dataset.rows": ("count", "scorecard.score_dataset"),
    "scorecard.evaluate.s": ("s", "scorecard.evaluate"),
    "divergence.js.s": ("s", "divergence.js"),
    "divergence.js.calls": ("count", "divergence.js"),
    "detection.run_test.self_s": ("self_s", "detection.run_test"),
    "detection.compare_classes.calls": ("count", "detection.compare_classes"),
    "detection.lines": ("count", "detection.run_test"),
    "detection.lines_skipped": ("count", "detection.run_test"),
    "detection.lines_violated": ("count", "detection.run_test"),
    "detection.compared_ratio": ("detection.lines_compared/detection.lines", "detection.run_test"),
    "risk.run_battery.calls": ("count", "risk.run_battery"),
    "risk.run_battery.s": ("s", "risk.run_battery"),
    "risk.hazard.s": ("s", "risk.hazard"),
    "revenue.sweep.self_s": ("self_s", "revenue.sweep"),
    "revenue.self_s": ("self_s", "revenue.sweep", "revenue.with_predictions"),
    "revenue.with_predictions.s": ("s", "revenue.with_predictions"),
    "revenue.sweep.thresholds": ("count", "revenue.sweep"),
    "report.validate.s": ("s", "report.validate"),
    "report.validate.calls": ("count", "report.validate"),
    "report.write_json.self_s": ("self_s", "report.write_json"),
    "report.bytes_written": ("count", "report.write_json"),
    "report.read_scores_csv.s": ("s", "report.read_scores_csv"),
    "config.load_config.s": ("s", "config.load_config"),
    "cli.main.self_s": ("self_s", "cli.main"),
}


def layer_unit(how):
    return {"s": "s", "self_s": "s", "count": "count"}.get(how, "ratio")


def layer_values(tracer, missing):
    """Per-layer metrics of one traced pass; None for a span that no longer exists."""
    incl, own = tracer.totals()
    counters = tracer.counters
    values = {}
    for name, (how, *needs) in LAYER_METRICS.items():
        if any(span in missing for span in needs):
            values[name] = None
        elif how == "s":
            values[name] = incl.get(needs[0], 0.0)
        elif how == "self_s":
            values[name] = sum(own.get(span, 0.0) for span in needs)
        elif how == "count":
            values[name] = counters.get(name, 0)
        else:
            num, den = (counters.get(c, 0) for c in how.split("/"))
            values[name] = num / den if den else None
    return values


def run_in_process(cli, wl, checker, work, tally):
    """One pass over the workload's steps through cli.main; returns wall seconds."""
    out_dir = os.path.join(work, workloads.OUT)
    fresh_dir(out_dir)
    wall = 0.0
    for step in wl.steps:
        before = list_outputs(out_dir)
        buf, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(list(step.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed invocation, not a bench error
            code = 1
            err.write(traceback.format_exc())
        wall += time.perf_counter() - start
        problems = [] if code == 0 else [f"{step.name}: exit {code}: {err.getvalue().strip()[-300:]}"]
        problems += checker.check_step(step.name, buf.getvalue(), read_new_outputs(out_dir, before), out_dir)
        tally.record(problems)
    return wall


def run_traced(wl, checker, work, seconds, t_start, results_dir):
    deadline = t_start + HARD_LIMIT_S
    sys.path.insert(0, SRC)
    import fairaudit.cli as cli  # noqa: PLC0415 - imported from the checkout's src only here

    tally = Tally()
    tracer = spans.Tracer()
    untraced, traced, layers = [], [], []
    missing = set()
    last_spans = []
    cwd = os.getcwd()
    os.chdir(work)  # the steps use paths relative to the work directory
    try:
        # unmeasured first pass: lazy imports and first-call caches would
        # otherwise make whichever pass runs first look slower
        run_in_process(cli, wl, checker, work, tally)
        while True:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if not with_trace:
                    untraced.append(run_in_process(cli, wl, checker, work, tally))
                    continue
                tracer.reset()
                missing = tracer.install()
                try:
                    traced.append(run_in_process(cli, wl, checker, work, tally))
                finally:
                    tracer.uninstall()
                layers.append(layer_values(tracer, missing))
                last_spans = list(tracer.spans)
            pass_s = untraced[-1] + traced[-1]
            now = time.perf_counter()
            if (tally.failed or sum(untraced) + sum(traced) + pass_s > seconds
                    or now + 1.5 * pass_s > deadline):
                break
    finally:
        os.chdir(cwd)

    with open(os.path.join(results_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent] for s in last_spans], fh)

    values = {}
    for name, (how, *_) in LAYER_METRICS.items():
        seen = [v[name] for v in layers if v[name] is not None]
        median = statistics.median_low if how == "count" else statistics.median
        values[name] = median(seen) if seen else None
    # each traced pass runs next to an untraced one, so pairs share machine conditions
    values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    values["trace.untraced_s"] = statistics.median(untraced)
    units = {name: layer_unit(how) for name, (how, *_) in LAYER_METRICS.items()}
    units.update({"trace.overhead_s": "s", "trace.untraced_s": "s"})
    samples = {"untraced_s": untraced, "traced_s": traced}
    return values, units, samples, sorted(missing), tally


# --- entry point ---------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def require_files(*paths):
    for path in paths:
        if not os.path.isfile(path):
            raise BenchError(f"not a fairaudit checkout: {path} is missing")


def result_line(tally, values, units, declared):
    metrics = {}
    for name, unit in declared:
        if name not in values:
            raise BenchError(f"metric {name!r} declared in BENCHMARK.json was not measured")
        if units[name] != unit:
            raise BenchError(f"metric {name!r}: unit {units[name]!r} != declared {unit!r}")
        metrics[name] = {"value": values[name], "unit": unit}
    return json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})


def main(argv=None):
    args = parse_args(argv)
    t_start = time.perf_counter()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_ROOT, "work", args.workload)
    results_dir = os.path.join(OUT_ROOT, "results", run_id)
    try:
        require_files(os.path.join(SRC, "fairaudit", "cli.py"),
                      os.path.join(ROOT, workloads.GERMAN_DATA),
                      os.path.join(ROOT, "BENCHMARK.json"))
        fresh_dir(work)
        fresh_dir(results_dir)
        wl = workloads.prepare(args.workload, args.seed, ROOT, os.path.join(work, "inputs"))
        ref_path = os.path.join(REFS, f"{wl.ref_name}.json.xz")
        require_files(ref_path)
        checker = check.Checker(check.load_refs(ref_path),
                                os.path.join(SRC, "fairaudit", "schemas"), wl.dataset)
        info = provenance(wl, args.seed)
        if args.trace:
            declared = declared_metrics("per_layer")
            values, units, samples, missing, tally = run_traced(
                wl, checker, work, args.seconds, t_start, results_dir)
        else:
            declared = declared_metrics("end_to_end")
            samples, units, tally = run_e2e(wl, checker, work, args.seconds, t_start)
            values = {name: statistics.median(v) for name, v in samples.items()}
            missing = []
        line = result_line(tally, values, units, declared)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for key in ("data_variant", "python", "numpy", "jsonschema", "nproc", "git_commit"):
        print(f"  {key}: {info[key]}")
    for label, digest in info["inputs_sha256"].items():
        print(f"  sha256 {label}: {digest}")
    if args.trace:
        for name, value in values.items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {name:<34} {shown} {units[name]}")
    else:
        for name, v in samples.items():
            print(describe(name, units[name], v))
    rate = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"  error_rate {rate:.4f} ({tally.failed} of {tally.attempted} invocations failed)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")

    with open(os.path.join(results_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "samples": samples, "values": values,
                   "units": units, "missing_spans": missing,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "problems": tally.problems}, fh, indent=1, sort_keys=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
