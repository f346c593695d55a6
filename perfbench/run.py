"""Benchmark of the survmix command-line program on three workloads.

    python3 perfbench/run.py --workload {dataset_pipeline,sensitivity_mc,truth_mixture}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root: survmix is imported from ./src, and every
command runs in this process through survmix.cli.main(argv). One run sets up
several times, runs one warm-up iteration, then repeats the workload's
commands until --seconds have passed, checking every output file. With
--trace 1 a separate traced pass follows the timed loop.

Readable results go to standard output and a JSON report to perfbench/.work/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Its metrics are the end-to-end ones of
BENCHMARK.json with --trace 0 and the per-layer ones with --trace 1.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from tracing import LAYERS, ROOT, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

SETUP_REPEATS = 5
TRACED_ITERATIONS = 2

# per-layer span times reported with --trace 1; absent spans read 0
SPAN_METRICS = (
    "cli.write_dataset", "cli.read_dataset_csv", "cli.write_curve_tables",
    "config.load_config", "rng.substream_uniforms", "rng.derive_seed",
    "trial.simulate", "trial.apply_censoring", "frailty.truth_curves",
    "estimators.cox_fit", "estimators.period_specific_cox",
    "estimators.kaplan_meier", "estimands.censoring_sensitivity",
    "estimands.from_sample",
)
COUNT_METRICS = (
    "cli.rows_written", "cli.bytes_written", "cli.rows_parsed", "rng.draws",
    "frailty.strata_points", "estimators.cox_fits", "estimators.cox_iterations",
    "estimators.events", "estimands.replicates_ok", "estimands.replicates_failed",
)

_CALIB_INPUT = np.random.default_rng(0).random(1 << 20)


def calibrate():
    """Seconds for a fixed numpy kernel; reported, never used to rescale."""
    start = time.perf_counter()
    np.sort(_CALIB_INPUT)
    np.exp(_CALIB_INPUT).sum()
    return time.perf_counter() - start


def set_up(workload):
    """Import survmix afresh from ./src and write the workload's inputs.

    Returns the seconds taken and the new cli module. The modules imported
    before stay in place, so the package the runner uses does not change.
    """
    def survmix_modules():
        return {m: sys.modules.pop(m) for m in list(sys.modules)
                if m == "survmix" or m.startswith("survmix.")}

    previous = survmix_modules()
    start = time.perf_counter()
    cli = importlib.import_module("survmix.cli")
    workload.write_inputs()
    seconds = time.perf_counter() - start
    if previous:
        survmix_modules()
        sys.modules.update(previous)
    if not os.path.abspath(cli.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"survmix imported from {cli.__file__}, not {SRC_DIR}")
    return seconds, cli


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_record():
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads()}


class Runner:
    """Runs a workload's commands and keeps every sample, count and failure."""

    def __init__(self, workload, main, shipped_hashes):
        self.workload = workload
        self.main = main
        self.shipped_hashes = shipped_hashes
        self.attempted = 0
        self.failures = []
        self.samples = {}       # command -> [(wall s, cpu s)]
        self.counts = []        # output counts per iteration
        self.hashes = {}

    def iteration(self, tracer=None):
        """One pass over the commands; returns the wall seconds of the calls."""
        total, counts = 0.0, {"bytes_written": 0}
        for command, argv, files in self.workload.commands():
            wall, cpu, problems = self._call(command, argv, tracer)
            total += wall
            self.samples.setdefault(command, []).append((wall, cpu))
            if not problems:
                try:
                    problems, found = self._check(command, files)
                    counts.update(found)
                    counts["bytes_written"] += sum(os.path.getsize(f) for f in files)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
                    problems = [f"check raised {err!r}"]
            if problems:
                self.failures.append({"command": command, "problems": problems})
        self.counts.append(counts)
        return total

    def _call(self, command, argv, tracer):
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.call(ROOT + command, self.main, argv) if tracer \
                    else self.main(argv)
        except Exception as exc:  # a crash is a failed call, not a failed run
            code = repr(exc)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        problems = [] if code == 0 else [f"exit {code}: {err.getvalue().strip()}"]
        return wall, cpu, problems

    def _check(self, command, files):
        problems, counts = self.workload.check(command, files)
        for path in files:
            key = f"{command}:{os.path.basename(path)}"
            with open(path, "rb") as fh:
                digest = self.hashes[key] = hashlib.sha256(fh.read()).hexdigest()
            expected = self.shipped_hashes.get(key)
            if expected is not None and digest != expected:
                problems.append(f"{path}: sha256 {digest} != recorded {expected}")
        return problems, counts


def _tail_text(samples):
    """The highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            return f" p{q} {np.percentile(samples, q):.4f}"
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work_dir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    shipped = args.seed == expected["seed"]

    # set-up: import survmix and write the input files, several times here
    # and once more after every timed iteration, so that its median spans the
    # same stretch of time as the iterations'
    sys.path.insert(0, SRC_DIR)
    try:
        setup_times, cli = [], None
        for _ in range(SETUP_REPEATS):
            seconds, fresh = set_up(workload)
            setup_times.append(seconds)
            cli = cli or fresh
    except ImportError as err:
        print(f"perfbench: cannot import survmix from {SRC_DIR}: {err}", file=sys.stderr)
        return 1

    host = host_record()
    runner = Runner(workload, cli.main, expected["sha256"] if shipped else {})
    runner.iteration()  # warm-up: fills caches, and its outputs are checked too
    runner.samples.clear()

    iteration_times, calib = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        iteration_times.append(runner.iteration())
        calib.append(calibrate())
        setup_times.append(set_up(workload)[0])
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    iter_s = statistics.median(iteration_times)
    timed, runner.samples = runner.samples, {}

    print(f"host: {json.dumps(host)}")
    print(f"workload {workload.name} seed {args.seed}: {len(iteration_times)} timed "
          f"iterations of {workload.items} items ({workload.item}) each")
    for command, samples in timed.items():
        walls = [w for w, _ in samples]
        print(f"  cmd.{command}_s median {statistics.median(walls):.4f} s "
              f"n={len(walls)}{_tail_text(walls)} "
              f"cpu/wall {sum(c for _, c in samples) / sum(walls):.2f}")

    problems = []
    if args.trace:
        metrics, trace_report = traced_pass(
            runner, expected["counts"] if shipped else None, iter_s, problems)
        metrics.update({
            "host.calib_s": (statistics.median(calib), "s"),
            "host.cpu_over_wall": (
                sum(c for s in timed.values() for _, c in s)
                / sum(w for s in timed.values() for w, _ in s), "ratio"),
        })
        for command, samples in runner.samples.items():
            traced = statistics.median(w for w, _ in samples)
            untraced = statistics.median(w for w, _ in timed[command])
            print(f"  traced cmd.{command}_s {traced:.4f} s (overhead "
                  f"{traced - untraced:+.4f} s), span coverage "
                  f"{trace_report['coverage'][command]:.4f}")
    else:
        trace_report = None
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "iter_s": (iter_s, "s"),
            "items_per_s": (workload.items / iter_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    if any(c != runner.counts[0] for c in runner.counts):
        problems.append(f"output counts differ between iterations: {runner.counts}")
    failed = len(runner.failures)
    for failure in runner.failures[:5]:
        print(f"  FAILED {failure['command']}: {'; '.join(failure['problems'])[:500]}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"  failed_frac {failed / runner.attempted:.4f} "
          f"({failed} of {runner.attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")

    os.makedirs(WORK_DIR, exist_ok=True)
    report_path = os.path.join(
        WORK_DIR, f"report-{workload.name}-{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "host": host,
                   "setup_s": setup_times, "iterations_s": iteration_times,
                   "calib_s": calib,
                   "commands_s": {c: [w for w, _ in s] for c, s in timed.items()},
                   "output_counts": runner.counts[0], "sha256": runner.hashes,
                   "failures": runner.failures, "problems": problems,
                   "trace": trace_report}, fh)
    print(f"  report {os.path.relpath(report_path)}")
    print(json.dumps({
        "correct": not problems and not failed, "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_pass(runner, expected_counts, iter_s, problems):
    """Run traced iterations; return the per-layer metrics and the report.

    Times are medians over the iterations; `iter_s` is the untraced median.
    """
    tracer = Tracer()
    tracer.install()
    walls, summaries, counts = [], [], []
    for _ in range(TRACED_ITERATIONS):
        first, before = len(tracer.spans), dict(tracer.counts)
        walls.append(runner.iteration(tracer))
        summaries.append(tracer.summary(first))
        counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    if any(c != counts[0] for c in counts):
        problems.append(f"traced counts differ between iterations: {counts}")
    if expected_counts is not None and counts[0] != expected_counts:
        problems.append(f"traced counts {counts[0]} != recorded {expected_counts}")
    counts = counts[0]

    def median_of(pick):
        return statistics.median(pick(*summary) for summary in summaries)

    metrics = {f"{name}_s": (median_of(lambda inc, own, cmds: inc[name]), "s")
               for name in SPAN_METRICS}
    metrics.update({f"{layer}.self_s": (median_of(lambda inc, own, cmds: own[layer]), "s")
                    for layer in LAYERS})
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNT_METRICS})

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    fits = counts.get("estimators.cox_fits", 0)
    replicates = counts.get("estimands.replicates_ok", 0) + \
        counts.get("estimands.replicates_failed", 0)
    coverage = {command: sum(s[2][command][1] for s in summaries)
                / sum(s[2][command][0] for s in summaries) for command in summaries[0][2]}
    metrics.update({
        "estimators.cox_s_per_iter": (ratio(
            metrics["estimators.cox_fit_s"][0],
            counts.get("estimators.cox_iterations", 0) + fits), "s"),
        "estimators.cox_converged_frac": (
            ratio(counts.get("estimators.cox_converged", 0), fits), "ratio"),
        "estimands.replicate_s": (
            ratio(metrics["estimands.censoring_sensitivity_s"][0], replicates), "s"),
        "estimands.replicate_ok_frac": (
            ratio(counts.get("estimands.replicates_ok", 0), replicates), "ratio"),
        "trace.coverage": (median_of(
            lambda inc, own, cmds: sum(c for _, c in cmds.values())
            / sum(w for w, _ in cmds.values())), "ratio"),
        "trace.overhead_s": (statistics.median(walls) - iter_s, "s"),
    })
    report = {"coverage": coverage, "counts": counts,
              "self_s": [dict(own) for _, own, _ in summaries],
              "spans": tracer.records()}
    return metrics, report


if __name__ == "__main__":
    sys.exit(main())
