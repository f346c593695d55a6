"""Command-line front end emitting figure-ready CSV tables and JSON reports.

Commands: truth, simulate, fit, estimands. Every command is a pure function
of (config file, flags): reruns produce byte-identical output, floats are
written with 9 significant digits, files are written atomically.

Exit codes: 0 success (including statistically degenerate but well-formed
results such as an unconverged fit), 1 input error, 2 I/O error.
"""

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import default_config, load_config
from .estimands import (EstimatedCurves, censoring_sensitivity, landmark_contrast,
                        log_survival_ratio, rmst)
from .estimators import cox_fit, fit_report, period_specific_cox
from .frailty import default_grid, truth_curves
from .trial import CensoringSpec, covariate_matrix, simulate

DATASET_FILE = "dataset.csv"
CURVES_FILE = "curves.csv"
HR_FILE = "hr.csv"
FIT_FILE = "fit.json"
ESTIMANDS_FILE = "estimands.json"
SENSITIVITY_FILE = "sensitivity.csv"

_LATENT_COLUMNS = ("stratum", "potential_time_0", "potential_time_1")


class InputError(ValueError):
    """Bad command line, config or data file; maps to exit code 1."""


def _fmt(x):
    """Floats at 9 significant digits so golden files are platform-stable."""
    return format(float(x) + 0.0, ".9g")  # + 0.0 normalises negative zero


def _atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_curve_tables(table, out_dir):
    """CurveTable -> curves.csv (long format) and hr.csv."""
    rows = []
    for i, t in enumerate(table.grid):
        for arm in ("control", "research"):
            rows.append((
                _fmt(t), arm,
                _fmt(getattr(table, f"survival_{arm}")[i]),
                _fmt(getattr(table, f"hazard_{arm}")[i]),
                _fmt(getattr(table, f"cum_hazard_{arm}")[i]),
            ))
    curves_path = os.path.join(out_dir, CURVES_FILE)
    _write_csv(curves_path, ("t", "arm", "survival", "hazard", "cum_hazard"), rows)

    hr_rows = [
        (_fmt(t), _fmt(hc), _fmt(hr_), _fmt(ratio))
        for t, hc, hr_, ratio in zip(table.grid, table.hazard_control,
                                     table.hazard_research, table.hazard_ratio)
    ]
    hr_path = os.path.join(out_dir, HR_FILE)
    _write_csv(hr_path, ("t", "hazard_control", "hazard_research", "hazard_ratio"),
               hr_rows)
    return curves_path, hr_path


def write_dataset(dataset, out_dir, reveal_latent=False):
    """Dataset -> dataset.csv; latent columns only when requested."""
    if reveal_latent:
        header = ("id", "arm", "stratum", "potential_time_0", "potential_time_1",
                  "observed_time", "event")
        rows = (
            (str(i), str(a), str(s), _fmt(p0), _fmt(p1), _fmt(o), str(int(e)))
            for i, a, s, p0, p1, o, e in zip(
                dataset.ids, dataset.arm, dataset.stratum,
                dataset.potential_time_0, dataset.potential_time_1,
                dataset.observed_time, dataset.event)
        )
    else:
        header = ("id", "arm", "observed_time", "event")
        rows = (
            (str(i), str(a), _fmt(o), str(int(e)))
            for i, a, o, e in zip(dataset.ids, dataset.arm,
                                  dataset.observed_time, dataset.event)
        )
    path = os.path.join(out_dir, DATASET_FILE)
    _write_csv(path, header, rows)
    return path


def read_dataset_csv(path):
    """Parse a dataset CSV back into columns, naming the row on any error."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise InputError(f"cannot read dataset {path}: {err}") from None
    if not lines:
        raise InputError(f"{path}: empty file")
    header = lines[0].split(",")
    required = ("id", "arm", "observed_time", "event")
    missing = [c for c in required if c not in header]
    if missing:
        raise InputError(f"{path}: missing required column(s) {', '.join(missing)}")
    unknown = [c for c in header if c not in required + _LATENT_COLUMNS]
    if unknown:
        raise InputError(f"{path}: unknown column(s) {', '.join(unknown)}")
    if len(lines) == 1:
        raise InputError(f"{path}: no data rows")

    columns = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise InputError(
                f"{path} row {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        for name, field in zip(header, fields):
            try:
                if name in ("id", "arm", "stratum", "event"):
                    columns[name].append(int(field))
                else:
                    columns[name].append(float(field))
            except ValueError:
                raise InputError(
                    f"{path} row {lineno}: bad value {field!r} for column {name}"
                ) from None
    out = {name: np.asarray(vals) for name, vals in columns.items()}
    if not np.isin(out["event"], (0, 1)).all():
        raise InputError(f"{path}: event column must be 0 or 1")
    out["event"] = out["event"].astype(bool)
    if not np.isin(out["arm"], (0, 1)).all():
        raise InputError(f"{path}: arm column must be 0 or 1")
    time = out["observed_time"]
    bad = np.flatnonzero(~np.isfinite(time) | (time <= 0.0))
    if bad.size:
        row = bad[0]
        raise InputError(f"{path} row {row + 2}: observed_time must be finite and "
                         f"> 0, got {time[row]:g}")
    # a stable sort puts each id's first row first; the rows after it repeat it
    ids = out["id"]
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeats.size:
        row = repeats.min()
        raise InputError(f"{path} row {row + 2}: duplicate id {ids[row]}")
    return out


def _write_json(path, payload):
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return path


def _report_payload(report):
    return {
        "name": report.name,
        "source": report.source,
        "horizon": report.horizon,
        "value": report.value,
        "per_arm": report.per_arm,
    }


def parse_censoring_list(raw):
    """Parse 'none,admin:2,exp:0.1,admin:2+exp:0.1' into CensoringSpecs."""
    specs = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        admin_time = rate = None
        if token != "none":
            for part in token.split("+"):
                try:
                    name, _, value = part.partition(":")
                    if name == "admin" and admin_time is None:
                        admin_time = float(value)
                    elif name == "exp" and rate is None:
                        rate = float(value)
                    else:
                        raise ValueError
                except ValueError:
                    raise InputError(
                        f"bad censoring spec {token!r}; use none, admin:<t>, "
                        "exp:<rate> or admin:<t>+exp:<rate>"
                    ) from None
        specs.append(CensoringSpec.from_parameters(admin_time, rate))
    if not specs:
        raise InputError("empty censoring spec list")
    return specs


def _load_run_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, trial=replace(cfg.trial, seed=args.seed))
    return cfg


def _ensure_out_dir(args, cfg):
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def cmd_truth(args):
    cfg = _load_run_config(args)
    out_dir = _ensure_out_dir(args, cfg)
    grid = default_grid(cfg.grid_min, cfg.grid_max, cfg.grid_points)
    table = truth_curves(cfg.truth, grid)
    curves_path, hr_path = write_curve_tables(table, out_dir)
    print(f"wrote {curves_path} and {hr_path}")
    return 0


def cmd_simulate(args):
    cfg = _load_run_config(args)
    out_dir = _ensure_out_dir(args, cfg)
    dataset = simulate(cfg.trial)
    path = write_dataset(dataset, out_dir, reveal_latent=args.reveal_latent)
    print(f"wrote {path} ({len(dataset)} rows)")
    return 0


def cmd_fit(args):
    cfg = _load_run_config(args)
    columns = read_dataset_csv(args.dataset)
    if args.covariates is not None:
        covariates = tuple(args.covariates.replace(",", " ").split())
    else:
        covariates = cfg.covariates
    try:
        x = covariate_matrix(columns, covariates)
    except KeyError as err:
        raise InputError(
            f"{args.dataset} has no {err.args[0]!r} column; simulate with "
            "--reveal-latent to keep latent columns"
        ) from None
    out_dir = _ensure_out_dir(args, cfg)

    if args.cutpoints is not None:
        cutpoints = args.cutpoints.split(",")
    else:
        cutpoints = cfg.cutpoints
    if cutpoints:
        period = period_specific_cox(columns["observed_time"], columns["event"], x,
                                     cutpoints, names=covariates)
        payload = {
            "cutpoints": list(period.cutpoints),
            "periods": [
                {
                    "start": a,
                    "end": b,
                    "n_entered": n_in,
                    "n_events": n_ev,
                    "fit": fit_report(fit) if fit is not None else None,
                }
                for (a, b), fit, n_ev, n_in in zip(
                    period.intervals, period.fits, period.n_events,
                    period.n_entered)
            ],
        }
    else:
        fit = cox_fit(columns["observed_time"], columns["event"], x, names=covariates)
        payload = fit_report(fit)

    path = _write_json(os.path.join(out_dir, FIT_FILE), payload)
    print(f"wrote {path}")
    return 0


def cmd_estimands(args):
    cfg = _load_run_config(args)
    out_dir = _ensure_out_dir(args, cfg)

    if args.source == "truth":
        source = cfg.truth
        landmark_t = args.landmark if args.landmark is not None else cfg.landmark
        rmst_tau = args.rmst if args.rmst is not None else cfg.rmst_horizon
        ratio_t = args.landmark if args.landmark is not None else cfg.ratio_time
    else:
        columns = read_dataset_csv(args.source)
        source = EstimatedCurves.from_sample(
            columns["observed_time"], columns["event"], columns["arm"])
        # conventions: landmark at median follow-up, RMST to the last event
        median_followup = float(np.median(columns["observed_time"]))
        last_event = float(columns["observed_time"][columns["event"]].max())
        landmark_t = args.landmark if args.landmark is not None else median_followup
        rmst_tau = args.rmst if args.rmst is not None else last_event
        ratio_t = landmark_t

    reports = [
        landmark_contrast(source, landmark_t, kind="difference"),
        rmst(source, "difference", rmst_tau),
        log_survival_ratio(source, ratio_t),
    ]
    path = _write_json(os.path.join(out_dir, ESTIMANDS_FILE),
                       [_report_payload(r) for r in reports])
    written = [path]

    if args.sensitivity:
        specs = parse_censoring_list(args.sensitivity)
        rows = censoring_sensitivity(cfg.trial, specs, cfg.sensitivity_replicates)
        csv_rows = [
            (row.spec_label, _fmt(row.mean_beta), _fmt(row.mc_se),
             str(row.n_ok), str(row.n_failed))
            for row in rows
        ]
        sens_path = os.path.join(out_dir, SENSITIVITY_FILE)
        _write_csv(sens_path, ("spec_label", "mean_beta", "mc_se", "n_ok", "n_failed"),
                   csv_rows)
        written.append(sens_path)
    print("wrote " + " and ".join(written))
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(prog="survmix",
                     description="Frailty-mixture survival curves, trial "
                                 "simulation, Cox fits and causal estimands.")
    parser.add_argument("--version", action="version", version=f"survmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="run configuration file (INI)")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_truth = sub.add_parser("truth", help="write closed-form curve tables")
    add_common(p_truth)
    p_truth.set_defaults(func=cmd_truth)

    p_sim = sub.add_parser("simulate", help="simulate a trial dataset")
    add_common(p_sim)
    p_sim.add_argument("--reveal-latent", action="store_true",
                       help="include stratum and potential-time columns")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="Cox fits on a dataset CSV")
    add_common(p_fit)
    p_fit.add_argument("dataset", help="dataset CSV from the simulate command")
    p_fit.add_argument("--covariates",
                       help="arm or arm,stratum (default from config)")
    p_fit.add_argument("--cutpoints",
                       help="comma-separated period boundaries for period fits")
    p_fit.set_defaults(func=cmd_fit)

    p_est = sub.add_parser("estimands", help="landmark/RMST/log-survival-ratio "
                                             "reports and censoring sensitivity")
    add_common(p_est)
    p_est.add_argument("--source", default="truth",
                       help="'truth' or a dataset CSV path")
    p_est.add_argument("--landmark", type=float, help="landmark time")
    p_est.add_argument("--rmst", type=float, help="RMST horizon")
    p_est.add_argument("--sensitivity",
                       help="censoring specs, e.g. 'admin:2,admin:30'")
    p_est.set_defaults(func=cmd_estimands)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as err:  # InputError, ConfigError and the domain checks
        print(f"survmix: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"survmix: i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
