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
import re
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .config import _checked, _parse_floats, default_config, load_config
from .estimands import (EstimatedCurves, censoring_sensitivity, landmark_contrast,
                        log_survival_ratio, rmst)
from .estimators import _check, check_cutpoints, cox_fit, fit_report, period_specific_cox
from .frailty import default_grid, truth_curves
from .trial import (_DATASET_COLUMNS, CensoringSpec, check_covariates, covariate_matrix,
                    simulate)

DATASET_FILE = "dataset.csv"
CURVES_FILE = "curves.csv"
HR_FILE = "hr.csv"
FIT_FILE = "fit.json"
ESTIMANDS_FILE = "estimands.json"
SENSITIVITY_FILE = "sensitivity.csv"

_BLOCK_ROWS = 1 << 14  # rows _write_columns formats at a time, to within 1.5x
_CHUNK_BYTES = 1 << 18  # bytes of a dataset file parsed at a time by read_dataset_csv
# the bytes after the header of a dataset file that read_dataset_csv hands to
# numpy, which reads \r\n as a line end and, as the per-row parser does, rejects any other \r
_PLAIN_BODY = b"0123456789.eE+-,\r\n"
# the dataset grammar of a field: ASCII digits with an optional sign, and for
# floats a point, an exponent, inf or nan. Python's int and float take more:
# underscores (1_0), surrounding whitespace and non-ASCII digits
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
_FLOAT_FIELD = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf|infinity|nan)",
                          re.IGNORECASE | re.ASCII)


class InputError(ValueError):
    """Bad command line, config or data file; maps to exit code 1."""


@contextlib.contextmanager
def _atomic_file(path):
    """A binary file that replaces `path` when the with block ends, or is
    removed, leaving `path` untouched, when the block raises.

    The data reach the disk (fsync) before the rename makes them visible, so a
    crash leaves the old file or the complete new one.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_columns(tables, columns):
    """Write CSV tables from the named, equal-length `columns`. Each of
    `tables` is (path, header, fmt, names): one `fmt % row` per index, where
    `row` holds the columns `names` at that index.

    The n rows are split into max(1, round(n / _BLOCK_ROWS)) near-equal
    blocks, so no block is a runt tail and none exceeds 1.5 * _BLOCK_ROWS.
    Each block is formatted in numpy (see _csvtext): each column once per
    block, however many tables write it, and every table's text for the
    block is written before the next block starts, so the text held at once
    stays small. Float columns get + 0.0, which writes negative zero as 0;
    use "%.9g" for floats, 9 significant digits so that tables are
    platform-stable ("%.9g" % x equals format(x, ".9g")). Each file is
    written through _atomic_file, so a failure before the renames leaves
    every `path` untouched.
    """
    # imported at the first table written: fit and estimands, which write
    # JSON, never load (or, without cached bytecode, compile) the formatter
    from ._csvtext import compile_format, format_tables

    columns = {name: np.asarray(column) for name, column in columns.items()}
    formats = [(*compile_format(fmt), names) for _, _, fmt, names in tables]
    n = len(next(iter(columns.values())))
    blocks = max(1, round(n / _BLOCK_ROWS))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_atomic_file(path)) for path, _, _, _ in tables]
        for fh, (_, header, _, _) in zip(files, tables):
            fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo, hi in zip(bounds, bounds[1:]):
            texts = format_tables(formats, {name: column[lo:hi]
                                            for name, column in columns.items()})
            for fh in files:
                fh.write(next(texts))


def write_curve_tables(table, out_dir):
    """CurveTable -> curves.csv (long format) and hr.csv, written together."""
    curves_path = os.path.join(out_dir, CURVES_FILE)
    hr_path = os.path.join(out_dir, HR_FILE)
    columns = {"t": table.grid, "hazard_ratio": table.hazard_ratio}
    for name in ("survival", "hazard", "cum_hazard"):
        for arm in ("control", "research"):
            columns[f"{name}_{arm}"] = getattr(table, f"{name}_{arm}")
    hr_names = ("t", "hazard_control", "hazard_research", "hazard_ratio")
    # hr.csv first: curves.csv, formatted last, then drops every field before
    # its larger text is joined
    _write_columns(
        [(hr_path, hr_names, "%.9g,%.9g,%.9g,%.9g\n", hr_names),
         # one grid point gives two lines, the control row then the research row
         (curves_path, ("t", "arm", "survival", "hazard", "cum_hazard"),
          "%.9g,control,%.9g,%.9g,%.9g\n%.9g,research,%.9g,%.9g,%.9g\n",
          ("t", "survival_control", "hazard_control", "cum_hazard_control",
           "t", "survival_research", "hazard_research", "cum_hazard_research"))],
        columns)
    return curves_path, hr_path


def write_dataset(dataset, out_dir, reveal_latent=False):
    """Dataset -> dataset.csv; latent columns only when requested."""
    path = os.path.join(out_dir, DATASET_FILE)
    header = [name for name, column in _DATASET_COLUMNS.items()
              if reveal_latent or not column.latent]
    fmt = ",".join("%d" if _DATASET_COLUMNS[name].dtype is np.int64 else "%.9g"
                   for name in header) + "\n"
    values = dict(vars(dataset), id=dataset.ids)
    _write_columns([(path, header, fmt, header)], {name: values[name] for name in header})
    return path


def read_dataset_csv(path):
    """Parse a dataset CSV back into columns, naming the row on any error.

    A line ends at a newline byte or at the end of the file, and one
    carriage return at its end is dropped; each line is decoded as UTF-8 on
    its own. Both passes read the file a chunk at a time, so no more than a
    chunk of it is held at once. The first counts the rows and checks
    whether every byte after the header is one that numpy's C parser and the
    per-row parser read alike; the second reads the lines into the columns.
    numpy parses each chunk of such a plain file; the per-row parser, whose
    errors name the bad row, parses every other chunk.
    """
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            if not first:
                raise InputError(f"{path}: empty file")
            header = _check_header(path, _line_text(path, 1, first).split(","))
            rows, plain, last = 0, True, b"\n"
            while block := fh.read(_CHUNK_BYTES):
                rows += block.count(b"\n")
                last = block[-1:]
                plain = plain and not block.translate(None, _PLAIN_BODY)
            rows += last != b"\n"  # a last row with no newline
            if not rows:
                raise InputError(f"{path}: no data rows")
            dtype = [(name, _DATASET_COLUMNS[name].dtype) for name in header]
            columns = {name: np.empty(rows, column_dtype) for name, column_dtype in dtype}
            fh.seek(len(first))
            stop = 0
            while lines := fh.readlines(_CHUNK_BYTES):
                start, stop = stop, stop + len(lines)
                if stop > rows:  # more rows than the first pass counted
                    break
                records = _parse_plain(lines, dtype) if plain else None
                if records is None:
                    records = _parse_rows(path, header, lines, start + 2)
                for name in header:
                    columns[name][start:stop] = records[name]
    except OSError as err:
        raise InputError(f"cannot read dataset {path}: {err}") from None
    if stop != rows:
        raise InputError(f"{path}: changed while it was read")
    return _check_columns(path, columns)


def _check_header(path, header):
    missing = [name for name, column in _DATASET_COLUMNS.items()
               if not column.latent and name not in header]
    if missing:
        raise InputError(f"{path}: missing required column(s) {', '.join(missing)}")
    unknown = [c for c in header if c not in _DATASET_COLUMNS]
    if unknown:
        raise InputError(f"{path}: unknown column(s) {', '.join(unknown)}")
    repeated = [c for i, c in enumerate(header) if c in header[:i]]
    if repeated:
        raise InputError(f"{path}: repeated column(s) {', '.join(dict.fromkeys(repeated))}")
    return header


def _line_text(path, row, line):
    """The text of a line of the file, without its newline and one carriage
    return at its end."""
    try:
        return line.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{path} row {row}: not UTF-8 text "
                         f"(byte 0x{line[err.start]:02x})") from None


def _parse_plain(lines, dtype):
    """The records of a chunk of lines of plain bytes, through np.loadtxt, or
    None when numpy rejects the chunk or skips a blank line in it.

    On such bytes numpy and the per-row parser agree, save that numpy skips
    blank lines, which the per-row parser rejects.
    """
    try:
        with warnings.catch_warnings():
            # older numpy reads "1.5" in an int column as 1, with this warning
            warnings.simplefilter("error", DeprecationWarning)
            # a chunk of blank lines only, which numpy reads as no data
            warnings.simplefilter("error", UserWarning)
            records = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                                 max_rows=len(lines), dtype=dtype)
    except (ValueError, DeprecationWarning, UserWarning):
        return None
    return records if records.size == len(lines) else None


def _parse_rows(path, header, lines, first_row):
    """The columns of a chunk of dataset `lines`, whose first is row
    `first_row` of the file, parsed one value at a time."""
    columns = {name: [] for name in header}
    parsers = [_int64 if _DATASET_COLUMNS[name].dtype is np.int64 else _float
               for name in header]
    for row, line in enumerate(lines, start=first_row):
        fields = _line_text(path, row, line).split(",")
        if len(fields) != len(header):
            raise InputError(
                f"{path} row {row}: expected {len(header)} fields, got {len(fields)}"
            )
        for name, parse, field in zip(header, parsers, fields):
            try:
                columns[name].append(parse(field))
            except ValueError:
                raise InputError(
                    f"{path} row {row}: bad value {field!r} for column {name}"
                ) from None
    return columns


def _int64(field):
    """The integer of a text field; a ValueError unless it is in the dataset
    grammar and fits in int64."""
    if not _INT_FIELD.fullmatch(field):
        raise ValueError(f"{field!r} is not an integer")
    value = int(field)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{field!r} is beyond int64")
    return value


def _float(field):
    """The float of a text field; a ValueError unless it is in the dataset
    grammar."""
    if not _FLOAT_FIELD.fullmatch(field):
        raise ValueError(f"{field!r} is not a float")
    return float(field)


def _check_columns(path, out):
    """The value checks on parsed columns; `event` comes back as bool."""
    _check_values(path, out, ("event", "arm", "observed_time"))
    out["event"] = out["event"].astype(bool)
    ids = out["id"]
    # strictly increasing ids, as simulate writes them, repeat none; otherwise
    # a stable sort puts each id's first row first and the rows after it repeat it
    if not np.all(ids[1:] > ids[:-1]):
        order = np.argsort(ids, kind="stable")
        repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
        if repeats.size:
            row = repeats.min()
            raise InputError(f"{path} row {row + 2}: duplicate id {ids[row]}")
    # the latent columns come last: a file the checks above reject keeps their message
    _check_values(path, out, [name for name, column in _DATASET_COLUMNS.items()
                              if column.latent and name in out])
    return out


def _check_values(path, out, names):
    """Name the first row whose value breaks its column's rule."""
    for name in names:
        try:
            _check(name, out[name], _DATASET_COLUMNS[name].rule, first_row=2)
        except ValueError as err:
            raise InputError(f"{path} {err}") from None


def _write_json(path, payload):
    # a nan or inf is a bug upstream, never valid JSON in an output file
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with _atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))
    return path


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
        specs.append(CensoringSpec(admin_time, rate))
    if not specs:
        raise InputError("empty censoring spec list")
    return specs


def _load_run_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, trial=_checked("--seed:", replace, cfg.trial, seed=args.seed))
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
    if args.covariates is not None:
        covariates = _checked("--covariates:", check_covariates,
                              args.covariates.replace(",", " ").split())
    else:
        covariates = cfg.covariates
    if args.cutpoints is not None:
        cutpoints = _checked("--cutpoints:", check_cutpoints,
                             _parse_floats(args.cutpoints, "--cutpoints"))
    else:
        cutpoints = cfg.cutpoints
    columns = read_dataset_csv(args.dataset)
    try:
        x = covariate_matrix(columns, covariates)
    except KeyError as err:
        raise InputError(
            f"{args.dataset} has no {err.args[0]!r} column; simulate with "
            "--reveal-latent to keep latent columns"
        ) from None
    # the fit reads nothing else: the other columns go before it starts
    fit_columns = {"time": columns["observed_time"], "event": columns["event"], "x": x}
    del columns, x

    if cutpoints:
        period = period_specific_cox(fit_columns["time"], fit_columns["event"],
                                     fit_columns["x"], cutpoints, names=covariates)
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
        # popped, so that cox_fit holds the only references and can drop the
        # unsorted columns once it has sorted them
        fit = cox_fit(fit_columns.pop("time"), fit_columns.pop("event"),
                      fit_columns.pop("x"), names=covariates)
        payload = fit_report(fit)

    path = _write_json(os.path.join(_ensure_out_dir(args, cfg), FIT_FILE), payload)
    print(f"wrote {path}")
    return 0


def cmd_estimands(args):
    cfg = _load_run_config(args)
    if args.sensitivity is not None:
        specs = _checked("--sensitivity:", parse_censoring_list, args.sensitivity)

    if args.source == "truth":
        source = cfg.truth
        landmark_t = args.landmark if args.landmark is not None else cfg.landmark
        rmst_tau = args.rmst if args.rmst is not None else cfg.rmst_horizon
        ratio_t = args.landmark if args.landmark is not None else cfg.ratio_time
    else:
        columns = read_dataset_csv(args.source)
        # the estimands read nothing else: the other columns go first
        time, event, arm = columns["observed_time"], columns["event"], columns["arm"]
        del columns
        source = EstimatedCurves.from_sample(time, event, arm)
        # conventions: landmark at median follow-up and RMST to the last
        # event, each cut at the end of the shorter arm's follow-up
        with np.errstate(over="ignore"):
            median_followup = float(np.median(time))
        if median_followup == np.inf:  # the two middle times sum past the largest float
            median_followup = float(np.median(time / 2) * 2)  # halving them is exact
        last_event = float(time[event].max())
        landmark_t = args.landmark if args.landmark is not None \
            else min(median_followup, source.max_supported_time)
        rmst_tau = args.rmst if args.rmst is not None \
            else min(last_event, source.max_supported_time)
        ratio_t = args.landmark
        if ratio_t is None:
            # the landmark, or else the earliest time by which both arms have
            # had an event: the survivals only fall, so no later time can do
            arms = (source.control, source.research)
            for ratio_t in (landmark_t, max(arm.times[0] for arm in arms)):
                if ratio_t <= source.max_supported_time \
                        and all(0.0 < arm.at(ratio_t) < 1.0 for arm in arms):
                    break
            else:
                raise InputError("no log-survival ratio time: the control and research "
                                 "survivals are never both in (0, 1)")

    def named(flag, key):
        """Where a time came from, for its error: the flag, the key or the dataset."""
        if getattr(args, flag[2:]) is not None:
            return f"{flag}:"
        return f"{key}:" if args.source == "truth" else f"{args.source}:"

    reports = [
        _checked(named("--landmark", "estimands.landmark"), landmark_contrast, source,
                 landmark_t, kind="difference"),
        _checked(named("--rmst", "estimands.rmst_horizon"), rmst, source, "difference",
                 rmst_tau),
        _checked(named("--landmark", "estimands.ratio_time"), log_survival_ratio, source,
                 ratio_t),
    ]
    out_dir = _ensure_out_dir(args, cfg)
    path = _write_json(os.path.join(out_dir, ESTIMANDS_FILE),
                       [asdict(r) for r in reports])
    written = [path]

    if args.sensitivity is not None:
        rows = censoring_sensitivity(cfg.trial, specs, cfg.sensitivity_replicates)
        sens_path = os.path.join(out_dir, SENSITIVITY_FILE)
        header = ("spec_label", "mean_beta", "mc_se", "n_ok", "n_failed")
        _write_columns([(sens_path, header, "%s,%.9g,%.9g,%d,%d\n", header)],
                       {name: [getattr(row, name) for row in rows] for name in header})
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
                       help="period boundaries for period fits, separated by "
                            "commas or spaces")
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
