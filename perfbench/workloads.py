"""The three benchmark workloads: input configs, CLI calls and output checks.

Each workload is a closed loop: one caller runs its commands in order through
`survmix.cli.main(argv)`, each starting after the previous one returns. One
pass over the commands is an iteration. README.md says why each workload was
chosen and which layer it loads.

The checks read every file a command wrote. At the shipped seed each file's
sha256 must equal the value recorded in expected.json; at any seed the
invariants below must hold. A check returns the problems it found and the
exact counts it read from the outputs, which must repeat in every iteration.
"""

import json
import math
import os

DEFAULT_SEED = 20260808

_CONFIG = """[truth.control]
weights = {weights}
rates = {control_rates}

[truth.research]
weights = {weights}
rates = {research_rates}

[trial]
n_per_arm = {n_per_arm}
coupling = comonotone
seed = {seed}

[censoring]
{censoring}

[grid]
min = 0.0
max = {grid_max}
points = {grid_points}

[fit]
covariates = arm

[estimands]
landmark = 1.0
rmst_horizon = 10.0
ratio_time = 1.0
sensitivity_replicates = {replicates}

[output]
dir = out
"""


def _config(seed, n_per_arm=500, censoring="kind = none", replicates=200,
            weights=(0.5, 0.5), control_rates=(0.1, 0.5),
            research_rates=(0.05, 0.25), grid_max=30.0, grid_points=601):
    """Config text; the defaults are survmix's shipped default scenario."""
    def floats(values):
        return ", ".join(repr(float(v)) for v in values)
    return _CONFIG.format(
        weights=floats(weights), control_rates=floats(control_rates),
        research_rates=floats(research_rates), n_per_arm=n_per_arm, seed=seed,
        censoring=censoring, grid_max=grid_max, grid_points=grid_points,
        replicates=replicates)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def _check_reports(path, source):
    reports = _load_json(path)
    names = [r.get("name") for r in reports]
    if names != ["landmark_difference", "rmst_difference", "log_survival_ratio"]:
        return [f"{path}: reports {names}"]
    return [f"{path}: bad report {r}" for r in reports
            if r["source"] != source or not math.isfinite(r["value"])]


class Workload:
    """One workload's inputs, commands and checks.

    An instance holds the state a check needs from earlier commands of the
    same iteration, such as the event count of the dataset just written.
    """

    name = None
    item = None           # what one item of items_per_s is
    items = None          # items per iteration
    config_file = None

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.config_path = os.path.join(work_dir, self.config_file)
        self.out_dir = os.path.join(work_dir, "out")

    def write_inputs(self):
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text())

    def argv(self, *args):
        return [args[0], "--config", self.config_path, "--out", self.out_dir,
                *args[1:]]

    def check(self, command, files):
        """Problems and exact counts for the output `files` of `command`."""
        raise NotImplementedError


class DatasetPipeline(Workload):
    name = "dataset_pipeline"
    item = "dataset row"
    n_per_arm = 200_000
    items = 2 * n_per_arm
    config_file = "pipeline.cfg"
    cutpoints = (1.0, 4.0, 8.0)
    header = b"id,arm,stratum,potential_time_0,potential_time_1,observed_time,event\n"
    events = None  # events in this iteration's dataset, read by the fit checks

    def config_text(self):
        return _config(self.seed, n_per_arm=self.n_per_arm,
                       censoring="kind = both\nadmin_time = 8\nrate = 0.05")

    def commands(self):
        dataset = os.path.join(self.out_dir, "dataset.csv")
        fit = os.path.join(self.out_dir, "fit.json")
        return [
            ("simulate", self.argv("simulate", "--reveal-latent"), [dataset]),
            ("fit", self.argv("fit", "--covariates", "arm,stratum", dataset), [fit]),
            ("fit_period", self.argv("fit", "--covariates", "arm", "--cutpoints",
                                     ",".join(f"{c:g}" for c in self.cutpoints),
                                     dataset), [fit]),
            ("estimands_source", self.argv("estimands", "--source", dataset),
             [os.path.join(self.out_dir, "estimands.json")]),
        ]

    def check(self, command, files):
        path = files[0]
        if command == "simulate":
            with open(path, "rb") as fh:
                data = fh.read()
            rows = data.count(b"\n") - 1
            # event is the last column, so ",1\n" ends exactly the event rows
            self.events = data.count(b",1\n")
            problems = []
            if not data.startswith(self.header):
                problems.append(f"{path}: unexpected header")
            if rows != self.items:
                problems.append(f"{path}: {rows} rows, expected {self.items}")
            if not 0 < self.events < rows:
                problems.append(f"{path}: {self.events} events in {rows} rows")
            return problems, {"rows_written": rows, "events": self.events}
        if command == "estimands_source":
            return _check_reports(path, "estimated"), {}
        report = _load_json(path)
        if command == "fit":
            fits = [report]
            problems = [] if set(report.get("covariates", ())) == {"arm", "stratum"} \
                else [f"{path}: covariates {report.get('covariates')}"]
            expected_events = [self.events]
        else:
            periods = report["periods"]
            fits = [p["fit"] for p in periods]
            problems = [] if report["cutpoints"] == list(self.cutpoints) \
                else [f"{path}: cutpoints {report['cutpoints']}"]
            expected_events = [p["n_events"] for p in periods]
            # admin_time = 8 is the last cutpoint: every event lies in a period
            if sum(expected_events) != self.events:
                problems.append(f"{path}: period events {expected_events} do not "
                                f"sum to the dataset's {self.events}")
        for fit, n_events in zip(fits, expected_events):
            if fit is None or fit["converged"] is not True or fit["n_events"] != n_events:
                problems.append(f"{path}: fit {fit} (expected {n_events} events)")
        iterations = sum(f["iterations"] for f in fits if f is not None)
        return problems, {f"{command}.cox_iterations": iterations}


class SensitivityMC(Workload):
    name = "sensitivity_mc"
    item = "replicate fit (spec x replicate)"
    specs = "none,admin:2,admin:30,exp:0.1,admin:8+exp:0.05"
    labels = ["none", "admin@2", "admin@30", "exp@0.1", "admin@8+exp@0.05"]
    replicates = 500
    items = len(labels) * replicates
    config_file = "sensitivity.cfg"

    def config_text(self):
        return _config(self.seed, replicates=self.replicates)

    def commands(self):
        return [("sensitivity", self.argv("estimands", "--sensitivity", self.specs),
                 [os.path.join(self.out_dir, "estimands.json"),
                  os.path.join(self.out_dir, "sensitivity.csv")])]

    def check(self, command, files):
        problems = _check_reports(files[0], "truth")
        header, *rows = _csv_rows(files[1])
        if header != ["spec_label", "mean_beta", "mc_se", "n_ok", "n_failed"] \
                or [r[0] for r in rows] != self.labels:
            return problems + [f"{files[1]}: unexpected table"], {}
        n_ok = sum(int(r[3]) for r in rows)
        n_failed = sum(int(r[4]) for r in rows)
        for label, mean_beta, _, ok, failed in rows:
            if int(ok) + int(failed) != self.replicates or \
                    (int(ok) > 0 and not math.isfinite(float(mean_beta))):
                problems.append(f"{files[1]}: row {label} ok={ok} failed={failed} "
                                f"mean_beta={mean_beta}")
        return problems, {"replicates_ok": n_ok, "replicates_failed": n_failed}


class TruthMixture(Workload):
    name = "truth_mixture"
    item = "stratum x grid point x arm"
    strata = 256
    grid_points = 20_000
    items = strata * grid_points * 2
    config_file = "mixture.cfg"

    def config_text(self):
        # control rates geometric from 0.02 to 2.0, research at half the rate
        rates = [0.02 * 100.0 ** (k / (self.strata - 1)) for k in range(self.strata)]
        return _config(self.seed, weights=[1.0 / self.strata] * self.strata,
                       control_rates=rates, research_rates=[0.5 * r for r in rates],
                       grid_max=60.0, grid_points=self.grid_points)

    def commands(self):
        return [("truth", self.argv("truth"),
                 [os.path.join(self.out_dir, "curves.csv"),
                  os.path.join(self.out_dir, "hr.csv")])]

    def check(self, command, files):
        header, *rows = _csv_rows(files[0])
        problems = []
        if header != ["t", "arm", "survival", "hazard", "cum_hazard"] or \
                len(rows) != 2 * self.grid_points:
            return [f"{files[0]}: {len(rows)} rows, expected {2 * self.grid_points}"], {}
        for i, (t, arm, s, h, cum_h) in enumerate(rows):
            s, cum_h = float(s), float(cum_h)
            # both columns carry 9 significant digits
            tol = 1e-8 * s * (1.0 + cum_h)
            if arm != ("control", "research")[i % 2] or t != rows[i - i % 2][0] \
                    or abs(s - math.exp(-cum_h)) > tol or not float(h) > 0.0:
                problems.append(f"{files[0]}: row {i + 2} {rows[i]}")
                break
        hr_rows = len(_csv_rows(files[1])) - 1
        if hr_rows != self.grid_points:
            problems.append(f"{files[1]}: {hr_rows} rows, expected {self.grid_points}")
        return problems, {"curve_rows": len(rows)}


WORKLOADS = {w.name: w for w in (DatasetPipeline, SensitivityMC, TruthMixture)}
