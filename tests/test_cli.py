import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survmix import CensoringSpec, Dataset, TrialConfig, simulate
from survmix import _csvtext, cli
from survmix.cli import (InputError, _atomic_file, main, parse_censoring_list,
                         read_dataset_csv, write_curve_tables, write_dataset)
from survmix.config import default_config, default_config_text
from survmix.estimators import SCORE_TOL, _CoxData
from survmix.trial import covariate_matrix

from check_number_format import problems as number_format_problems, wide_config_text

LATENT_HEADER = ("id,arm,stratum,potential_time_0,potential_time_1,"
                 "observed_time,event")


def _fmt(x):
    """Reference float format of every CSV table, one value at a time."""
    return format(float(x) + 0.0, ".9g")

# six rows whose two middle times sum past the largest float
OVERFLOW_MEDIAN_CSV = ("id,arm,observed_time,event\n0,0,1e308,1\n1,0,1.5e308,0\n"
                       "2,0,1.7e308,1\n3,1,1e308,0\n4,1,1.4e308,1\n5,1,1.7e308,1\n")

# control rates whose every stratum's rate * t passes the largest float on
# the default grid, and control rates that put a potential time past it
OVERFLOW_RATES = "rates = 1e308, 1.7976931348623157e308"
TINY_RATES = "rates = 0.1, 1e-320"

IDENTICAL_ARMS = """
[truth.control]
weights = 0.5, 0.5
rates = 0.1, 0.5

[truth.research]
weights = 0.5, 0.5
rates = 0.1, 0.5
"""


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTruthCommand:
    def test_writes_both_tables(self, tmp_path):
        out = tmp_path / "out"
        assert run("truth", "--out", str(out)) == 0
        curves = (out / "curves.csv").read_text().splitlines()
        hr = (out / "hr.csv").read_text().splitlines()
        assert curves[0] == "t,arm,survival,hazard,cum_hazard"
        assert hr[0] == "t,hazard_control,hazard_research,hazard_ratio"
        assert len(hr) == 602  # header + one row per grid point
        assert len(curves) == 1203  # header + two rows per grid point
        assert hr[1] == "0,0.3,0.15,0.5"

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("truth", "--out", str(a))
        run("truth", "--out", str(b))
        assert read(a / "curves.csv") == read(b / "curves.csv")
        assert read(a / "hr.csv") == read(b / "hr.csv")

    def test_identical_arms_flat_ratio(self, tmp_path):
        cfg = tmp_path / "same.cfg"
        cfg.write_text(IDENTICAL_ARMS + "\n[grid]\nmin = 0\nmax = 10\npoints = 21\n")
        out = tmp_path / "out"
        assert run("truth", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "hr.csv").read_text().splitlines()[1:]
        assert len(rows) == 21
        assert all(row.rsplit(",", 1)[1] == "1" for row in rows)

    def test_unwritable_output_is_io_error(self):
        assert run("truth", "--out", "/dev/null/out") == 2

    def test_weights_summing_to_one_within_tolerance(self, tmp_path):
        # the float sum of 0.7, 0.2, 0.1 is 0.9999999999999999
        cfg = tmp_path / "uneven.cfg"
        cfg.write_text("[truth.control]\nweights = 0.7, 0.2, 0.1\nrates = 1.0, 0.5, 0.1\n"
                       "[truth.research]\nweights = 0.7, 0.2, 0.1\n"
                       "rates = 0.5, 0.25, 0.05\n")
        out = tmp_path / "out"
        assert run("truth", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "hr.csv").read_text().splitlines()[1] == "0,0.81,0.405,0.5"

    def test_late_grid_reaches_zero_survival(self, tmp_path):
        cfg = tmp_path / "late.cfg"
        cfg.write_text(default_config_text().replace("max = 30.0", "max = 8000")
                       .replace("points = 601", "points = 11"))
        out = tmp_path / "out"
        assert run("truth", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "curves.csv").read_text().splitlines()
        assert rows[-2] == "8000,control,0,0.1,800.693147"

    def test_every_control_rate_times_t_past_the_largest_float(self, tmp_path, capsys):
        # H has no finite value from t = 1.8 on (1e308 * 1.8 is inf): one error
        # line naming the rates and that time, no warning, no directory
        cfg = tmp_path / "over.cfg"
        cfg.write_text(default_config_text().replace(
            "rates = 0.1, 0.5", OVERFLOW_RATES, 1))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("truth", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "survmix: error: [truth.control] rates: every stratum's rate * t passes "
            "the largest float at t=1.8\n")
        assert not out.exists()


class TestSimulateCommand:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--out", str(out)) == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert lines[0] == "id,arm,observed_time,event"
        assert len(lines) == 1001  # 500 per arm + header

    def test_reveal_latent_schema(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--out", str(out), "--reveal-latent") == 0
        header = (out / "dataset.csv").read_text().splitlines()[0]
        assert header == ("id,arm,stratum,potential_time_0,potential_time_1,"
                          "observed_time,event")

    def test_deterministic_and_seed_sensitive(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        run("simulate", "--out", str(a))
        run("simulate", "--out", str(b))
        run("simulate", "--out", str(c), "--seed", "99")
        assert read(a / "dataset.csv") == read(b / "dataset.csv")
        assert read(a / "dataset.csv") != read(c / "dataset.csv")

    def test_potential_time_beyond_float_rejected(self, tmp_path, capsys):
        # a rate of 1e-320 puts a unit-exponential time past the largest float:
        # such times used to be written to a file that fit then rejected
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(default_config_text().replace("rates = 0.1, 0.5", "rates = 1e-320, 0.5"))
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            "survmix: error: [truth.control] rates: rate 1e-320 of stratum 0 puts a "
            "potential time past the largest float\n")
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_round_trip_write_read_write(self, tmp_path):
        out = tmp_path / "out"
        run("simulate", "--out", str(out), "--reveal-latent")
        path = out / "dataset.csv"
        columns = read_dataset_csv(str(path))
        header = ("id", "arm", "stratum", "potential_time_0", "potential_time_1",
                  "observed_time", "event")
        lines = [",".join(header)]
        for i in range(columns["id"].size):
            lines.append(",".join((
                str(columns["id"][i]), str(columns["arm"][i]),
                str(columns["stratum"][i]), _fmt(columns["potential_time_0"][i]),
                _fmt(columns["potential_time_1"][i]), _fmt(columns["observed_time"][i]),
                str(int(columns["event"][i])),
            )))
        assert "\n".join(lines) + "\n" == path.read_text()


class TestFitCommand:
    @pytest.fixture
    def dataset(self, tmp_path):
        out = tmp_path / "sim"
        run("simulate", "--out", str(out), "--reveal-latent")
        return str(out / "dataset.csv")

    def test_arm_fit_schema(self, dataset, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", dataset, "--out", str(out)) == 0
        report = json.loads((out / "fit.json").read_text())
        assert set(report) == {"beta", "se", "hr", "hr_ci_lower", "hr_ci_upper",
                               "iterations", "converged", "n_events"}
        assert report["converged"] is True
        assert report["n_events"] == 1000

    def test_stratum_adjusted_fit_near_half(self, dataset, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", dataset, "--covariates", "arm,stratum",
                   "--out", str(out)) == 0
        report = json.loads((out / "fit.json").read_text())
        assert abs(report["beta"] - np.log(0.5)) < 3 * report["se"]
        assert report["hr"] == pytest.approx(0.5, abs=0.12)
        assert set(report["covariates"]) == {"arm", "stratum"}

    def test_cutpoints_produce_period_entries(self, dataset, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", dataset, "--cutpoints", "1,4,30", "--out", str(out)) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["cutpoints"] == [1.0, 4.0, 30.0]
        assert len(payload["periods"]) == 3
        assert [p["start"] for p in payload["periods"]] == [0.0, 1.0, 4.0]
        assert all(p["fit"]["converged"] for p in payload["periods"])

    def test_constant_covariate_period_written_as_null_fit(self, tmp_path):
        # the one event before 1.5 is in arm 1: that period has no maximum
        path = tmp_path / "early.csv"
        path.write_text("id,arm,observed_time,event\n0,1,1.0,1\n1,0,2.0,1\n"
                        "2,1,3.0,0\n3,0,4.0,1\n4,1,5.0,0\n5,1,6.0,1\n")
        out = tmp_path / "fit"
        assert run("fit", str(path), "--cutpoints", "1.5,10", "--out", str(out)) == 0
        first, second = json.loads((out / "fit.json").read_text())["periods"]
        assert (first["n_events"], first["fit"]) == (1, None)
        assert second["n_events"] == 3 and second["fit"] is not None

    def test_unconverged_fit_is_data_not_failure(self, tmp_path):
        path = tmp_path / "sep.csv"
        rows = ["id,arm,observed_time,event"]
        rows += [f"{i},{1 - i % 2},{i + 1}.0,1" for i in range(6)]
        # arm strictly alternating with event order: separation
        path.write_text("\n".join([rows[0], "0,1,1.0,1", "1,1,2.0,1", "2,1,3.0,1",
                                   "3,0,4.0,1", "4,0,5.0,1", "5,0,6.0,1"]) + "\n")
        out = tmp_path / "fit"
        assert run("fit", str(path), "--out", str(out)) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["converged"] is False

    def test_missing_stratum_column_is_input_error(self, tmp_path):
        out = tmp_path / "sim"
        run("simulate", "--out", str(out))
        assert run("fit", str(out / "dataset.csv"),
                   "--covariates", "arm,stratum") == 1

    def test_empty_dataset_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("id,arm,observed_time,event\n")
        assert run("fit", str(path)) == 1
        assert capsys.readouterr().err.endswith(f"{path}: no data rows\n")
        path.write_bytes(b"")
        assert run("fit", str(path)) == 1
        assert capsys.readouterr().err.endswith(f"{path}: empty file\n")

    def test_malformed_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        plain = ("id,arm,observed_time,event",
                 [f"{i},{i % 2},{i + 1}.5,1" for i in range(12)])
        latent = (LATENT_HEADER,
                  [f"{i},{i % 2},{i % 3},{i + 1}.5,{i + 2}.5,{i + 1}.5,1"
                   for i in range(12)])
        cases = [(plain, 3, "1,0,zebra,1"),       # not a number
                 (plain, 7, "5,1,nan,1"),         # non-finite times
                 (plain, 11, "9,1,inf,1"),
                 (plain, 4, "2,0,-inf,0"),
                 (plain, 6, "4,0,0,1"),           # times must be > 0
                 (plain, 9, "7,1,-2.5,0"),
                 (plain, 8, "3,1,6.5,1"),         # repeats the id of row 5
                 (latent, 5, "3,1,0,nan,4.5,3.5,1"),
                 (latent, 7, "5,1,2,6.5,inf,6.5,1"),
                 (latent, 3, "1,1,1,-inf,3.5,2.5,0"),
                 (latent, 10, "8,0,2,0,10.5,9.5,1"),
                 (latent, 12, "10,0,1,11.5,-1e-3,11.5,1"),
                 (latent, 6, "4,0,-1,5.5,6.5,5.5,1"),  # strata are >= 0
                 (plain, 5, "3,2,4.5,1"),         # arm and event are 0 or 1
                 (plain, 10, "8,1,9.5,2"),
                 (plain, 13, "11,0,12.5,-1"),
                 (latent, 9, "7,-1,1,8.5,9.5,8.5,1"),
                 (plain, 6, "4,0,5.5\udcff,1"),   # a byte that is not UTF-8
                 (latent, 2, "0,0,0,1.5,\udcff2.5,1.5,1"),
                 (plain, 4, "99999999999999999999,0,3.5,1"),  # beyond int64
                 (latent, 8, "6,0,9223372036854775808,7.5,8.5,7.5,1")]
        for (header, good), row, bad_line in cases:
            lines = good[:row - 2] + [bad_line] + good[row - 1:]
            text = header + "\n" + "\n".join(lines) + "\n"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            for command in (("fit", str(path)), ("estimands", "--source", str(path))):
                assert run(*command, "--out", str(tmp_path / "out")) == 1
                assert f"{path} row {row}:" in capsys.readouterr().err
        # a repeated column is a header fault: the message names the column
        for header, repeated, line in (("id,arm,observed_time,event,event", "event",
                                        "{i},{arm},{i}.5,1,1"),
                                       ("id,arm,arm,observed_time,event", "arm",
                                        "{i},{arm},{arm},{i}.5,1")):
            body = [line.format(i=i, arm=i % 2) for i in range(4)]
            path.write_text(header + "\n" + "\n".join(body) + "\n")
            for command in (("fit", str(path)), ("estimands", "--source", str(path))):
                assert run(*command, "--out", str(tmp_path / "out")) == 1
                assert f"repeated column(s) {repeated}\n" in capsys.readouterr().err
        # a line ends at a newline only: a row joined to the next by a
        # character that str.splitlines also takes for a line end is one row
        _, good = plain
        for separator in ("\x1c", "\x1d", "\x1e", "\f", "\v", "\r", "\x85", "\u2028"):
            lines = good[:3] + [good[3] + separator + good[4]] + good[5:]
            path.write_text("id,arm,observed_time,event\n" + "\n".join(lines) + "\n",
                            encoding="utf-8")
            for command in (("fit", str(path)), ("estimands", "--source", str(path))):
                assert run(*command, "--out", str(tmp_path / "out")) == 1
                assert capsys.readouterr().err.endswith(
                    f"{path} row 5: expected 4 fields, got 7\n")

    def test_unknown_column_named(self, tmp_path, capsys):
        path = tmp_path / "age.csv"
        path.write_text("id,arm,age,observed_time,event\n0,0,40,1.5,1\n1,1,50,2.5,1\n")
        for command in (("fit", str(path)), ("estimands", "--source", str(path))):
            assert run(*command, "--out", str(tmp_path / "out")) == 1
            assert capsys.readouterr().err.endswith(f"{path}: unknown column(s) age\n")

    def test_first_bad_row_named_before_a_later_bad_byte(self, tmp_path, capsys):
        # each line is decoded on its own, so the rows are judged in file order
        good = [f"{i},{i % 2},{i + 1}.5,1" for i in range(12)]
        good[1] = "1,1,2.5"
        good[8] = "8,0,9.5\udcff,1"
        path = tmp_path / "bad.csv"
        path.write_bytes(("id,arm,observed_time,event\n" + "\n".join(good) + "\n")
                         .encode("utf-8", "surrogateescape"))
        for command in (("fit", str(path)), ("estimands", "--source", str(path))):
            assert run(*command, "--out", str(tmp_path / "out")) == 1
            assert capsys.readouterr().err.endswith(
                f"{path} row 3: expected 4 fields, got 3\n")

    def test_integer_beyond_int64_is_bad_value(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        for name, field in (("id", "99999999999999999999"),
                            ("stratum", "9223372036854775808"),
                            ("id", "-9223372036854775809")):
            row = {"id": "1", "stratum": "0"} | {name: field}
            path.write_text("id,arm,stratum,observed_time,event\n0,0,0,1.5,1\n"
                            f"{row['id']},1,{row['stratum']},2.5,1\n2,0,1,3.5,1\n")
            for command in (("fit", str(path), "--covariates", "arm,stratum"),
                            ("estimands", "--source", str(path))):
                assert run(*command, "--out", str(tmp_path / "out")) == 1
                assert capsys.readouterr().err.endswith(
                    f"{path} row 3: bad value {field!r} for column {name}\n")

    def test_field_outside_the_grammar_is_bad_value(self, tmp_path, capsys):
        # Python's int and float take each of these fields; the dataset
        # grammar takes none of them
        path = tmp_path / "odd.csv"
        for name, field in (("id", "1_0"), ("observed_time", "2_5.5"),
                            ("observed_time", " 3.5 "), ("stratum", " 1"),
                            ("arm", "\u0661"), ("observed_time", "\uff12.5")):
            row = {"id": "1", "arm": "1", "stratum": "0", "observed_time": "2.5"}
            row[name] = field
            path.write_text("id,arm,stratum,observed_time,event\n0,0,0,1.5,1\n"
                            + ",".join(row.values()) + ",1\n2,0,1,3.5,1\n",
                            encoding="utf-8")
            for command in (("fit", str(path), "--covariates", "arm,stratum"),
                            ("estimands", "--source", str(path))):
                assert run(*command, "--out", str(tmp_path / "out")) == 1
                assert capsys.readouterr().err.endswith(
                    f"{path} row 3: bad value {field!r} for column {name}\n")

    def test_constant_covariate_named(self, tmp_path, capsys):
        # every event in arm 1, or in stratum 0: no partial-likelihood maximum
        path = tmp_path / "constant.csv"
        for rows, covariate in (
                (["0,0,0,1.5,0", "1,1,0,2.5,1", "2,0,1,3.5,0", "3,1,1,4.5,1"], "arm"),
                (["0,0,0,1.5,1", "1,1,0,2.5,1", "2,0,1,3.5,0", "3,1,1,4.5,0"], "stratum")):
            path.write_text("id,arm,stratum,observed_time,event\n" + "\n".join(rows) + "\n")
            assert run("fit", str(path), "--covariates", "arm,stratum",
                       "--out", str(tmp_path / "out")) == 1
            assert (f"covariate {covariate} is constant among events"
                    in capsys.readouterr().err)

    def test_missing_file_rejected(self):
        assert run("fit", "/no/such/file.csv") == 2  # an I/O error


class TestEstimandsCommand:
    def test_truth_bundle_values(self, tmp_path):
        out = tmp_path / "est"
        assert run("estimands", "--out", str(out)) == 0
        reports = {r["name"]: r for r in
                   json.loads((out / "estimands.json").read_text())}
        assert reports["landmark_difference"]["value"] == pytest.approx(
            0.10933106491176293, abs=1e-12)
        assert reports["rmst_difference"]["per_arm"]["control"] == pytest.approx(
            4.153864847143703, abs=1e-12)
        assert reports["log_survival_ratio"]["value"] == pytest.approx(
            0.5176429267838916, abs=1e-12)
        for r in reports.values():
            assert set(r) == {"name", "source", "horizon", "value", "per_arm"}

    def test_dataset_source(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--out", str(sim))
        out = tmp_path / "est"
        assert run("estimands", "--source", str(sim / "dataset.csv"),
                   "--landmark", "1", "--rmst", "5", "--out", str(out)) == 0
        reports = json.loads((out / "estimands.json").read_text())
        assert all(r["source"] == "estimated" for r in reports)
        landmark = next(r for r in reports if r["name"] == "landmark_difference")
        assert abs(landmark["value"] - 0.10933106491176293) < 0.1

    def test_sensitivity_smoke_row(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        from survmix.config import default_config_text
        cfg.write_text(default_config_text()
                       .replace("n_per_arm = 500", "n_per_arm = 100")
                       .replace("sensitivity_replicates = 200",
                                "sensitivity_replicates = 2"))
        out = tmp_path / "est"
        assert run("estimands", "--config", str(cfg), "--out", str(out),
                   "--sensitivity", "admin:2") == 0
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "spec_label,mean_beta,mc_se,n_ok,n_failed"
        assert len(lines) == 2
        assert lines[1].startswith("admin@2,")

    def test_arm_without_events_named(self, tmp_path, capsys):
        path = tmp_path / "no_events.csv"
        path.write_text("id,arm,observed_time,event\n"
                        + "".join(f"{i},{i % 2},{i + 1}.5,{1 - i % 2}\n" for i in range(6)))
        assert run("estimands", "--source", str(path), "--out", str(tmp_path / "est")) == 1
        assert capsys.readouterr().err.endswith("no events in arm 1\n")

    def test_arm_without_observations_named(self, tmp_path, capsys):
        path = tmp_path / "one_arm.csv"
        path.write_text("id,arm,observed_time,event\n0,0,1.5,1\n1,0,2.5,1\n")
        assert run("estimands", "--source", str(path), "--out", str(tmp_path / "est")) == 1
        assert capsys.readouterr().err.endswith("no observations in arm 1\n")

    def test_default_landmark_within_support(self, tmp_path):
        # the pooled median time, 3.5, lies past arm 1's last observed time,
        # 3: the landmark and the ratio time default to 3
        path = tmp_path / "short_arm.csv"
        rows = [f"{i},0,{i + 1}.0,1" for i in range(10)]
        rows += ["10,1,0.5,1", "11,1,1.5,1", "12,1,2.5,1", "13,1,3.0,0"]
        path.write_text("id,arm,observed_time,event\n" + "\n".join(rows) + "\n")
        out = tmp_path / "est"
        assert run("estimands", "--source", str(path), "--out", str(out)) == 0
        reports = {r["name"]: r for r in json.loads((out / "estimands.json").read_text())}
        for name in ("landmark_difference", "rmst_difference", "log_survival_ratio"):
            assert reports[name]["horizon"] == 3.0
        assert reports["landmark_difference"]["per_arm"] == {"control": 0.7,
                                                             "research": 0.25}

    def test_default_landmark_where_the_middle_times_overflow(self, tmp_path):
        # the two middle times, 1.4e308 and 1.5e308, sum past the largest
        # float: the landmark is their midpoint, with no overflow warning
        path = tmp_path / "huge.csv"
        path.write_text(OVERFLOW_MEDIAN_CSV)
        out = tmp_path / "est"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("estimands", "--source", str(path), "--out", str(out)) == 0
        reports = {r["name"]: r for r in json.loads((out / "estimands.json").read_text())}
        assert reports["landmark_difference"]["horizon"] == 1.45e308
        assert reports["landmark_difference"]["per_arm"] == {
            "control": pytest.approx(2 / 3), "research": 0.5}

    def test_default_ratio_time_where_both_survivals_are_below_one(self, tmp_path):
        # arm 1 has no event by the landmark, the pooled median 7.5, where its
        # survival is 1: the ratio time defaults to 8, its first event
        path = tmp_path / "late_arm.csv"
        rows = [f"{i},0,{i + 1},1" for i in range(10)]
        rows += ["10,1,8,1", "11,1,9,1", "12,1,11,1", "13,1,10.5,0"]
        path.write_text("id,arm,observed_time,event\n" + "\n".join(rows) + "\n")
        out = tmp_path / "est"
        assert run("estimands", "--source", str(path), "--out", str(out)) == 0
        reports = {r["name"]: r for r in json.loads((out / "estimands.json").read_text())}
        assert reports["landmark_difference"]["horizon"] == 7.5
        ratio = reports["log_survival_ratio"]
        assert ratio["horizon"] == 8.0
        assert ratio["per_arm"] == {"control": pytest.approx(0.2), "research": 0.75}
        assert ratio["value"] == pytest.approx(np.log(0.75) / np.log(0.2), rel=1e-12)

    def test_no_ratio_time_names_the_arms(self, tmp_path, capsys):
        # the control arm's survival is 0 from t = 1, before the research
        # arm's first event
        path = tmp_path / "no_ratio.csv"
        path.write_text("id,arm,observed_time,event\n0,0,1,1\n1,0,1,1\n2,1,2,1\n3,1,3,1\n")
        assert run("estimands", "--source", str(path), "--out", str(tmp_path / "est")) == 1
        assert capsys.readouterr().err == (
            "survmix: error: no log-survival ratio time: the control and research "
            "survivals are never both in (0, 1)\n")

    def test_landmark_beyond_support_rejected(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--out", str(sim))
        assert run("estimands", "--source", str(sim / "dataset.csv"),
                   "--landmark", "1e6") == 1

    @pytest.mark.parametrize("censoring", ["kind = none",
                                           "kind = both\nadmin_time = 8\nrate = 0.05"])
    def test_default_rmst_horizon(self, tmp_path, censoring):
        # uncensored, one arm's last event lies past the other arm's last
        # observed time, so the horizon stops there; censored at 8, the last
        # event comes first
        cfg = tmp_path / "run.cfg"
        cfg.write_text(default_config_text().replace("kind = none", censoring))
        sim, out = tmp_path / "sim", tmp_path / "est"
        assert run("simulate", "--config", str(cfg), "--out", str(sim)) == 0
        assert run("estimands", "--source", str(sim / "dataset.csv"),
                   "--out", str(out)) == 0
        columns = read_dataset_csv(str(sim / "dataset.csv"))
        time, event, arm = columns["observed_time"], columns["event"], columns["arm"]
        last_event = time[event].max()
        followup = min(time[arm == 0].max(), time[arm == 1].max())
        assert (last_event > followup) == (censoring == "kind = none")
        reports = {r["name"]: r for r in json.loads((out / "estimands.json").read_text())}
        assert reports["rmst_difference"]["horizon"] == min(last_event, followup)


class TestRejectedFlagsAndKeys:
    """Bad flags and config keys exit 1, name the flag or key and write
    nothing."""

    @pytest.fixture
    def dataset(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("id,arm,observed_time,event\n"
                        + "".join(f"{i},{i % 2},{i + 1}.5,1\n" for i in range(8)))
        return str(path)

    def rejected(self, tmp_path, capsys, *argv):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way out
            assert run(*argv, "--out", str(out)) == 1
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("covariates, cause", [
        ("arm,arm", "covariate 'arm' is repeated"),
        ("arm,stratum,arm", "covariate 'arm' is repeated"),
        (",", "no covariates given"),
        ("stratum", "covariates stratum lack 'arm'"),
    ])
    def test_repeated_or_empty_covariates(self, dataset, tmp_path, capsys,
                                          covariates, cause):
        err = self.rejected(tmp_path, capsys, "fit", dataset, "--covariates", covariates)
        assert f"--covariates: {cause}" in err

    @pytest.mark.parametrize("cutpoints", ["nan", "1e400", "1,inf"])
    def test_non_finite_cutpoints(self, dataset, tmp_path, capsys, cutpoints):
        err = self.rejected(tmp_path, capsys, "fit", dataset, "--cutpoints", cutpoints)
        assert "--cutpoints: cutpoints must be finite" in err

    @pytest.mark.parametrize("cutpoints, cause", [
        ("", "cutpoints must be finite, strictly increasing and > 0"),
        (" ", "cutpoints must be finite, strictly increasing and > 0"),
        ("1 x", "expected a list of numbers, got '1 x'"),
    ])
    def test_empty_or_bad_cutpoints(self, dataset, tmp_path, capsys, cutpoints, cause):
        err = self.rejected(tmp_path, capsys, "fit", dataset, "--cutpoints", cutpoints)
        assert err.endswith(f"--cutpoints: {cause}\n")

    def test_cutpoints_flag_takes_the_config_grammar(self, dataset, tmp_path):
        # as in [fit] cutpoints, commas or spaces separate the values
        fits = []
        for given in ("1,4,8", "1 4 8", "1, 4 8"):
            out = tmp_path / given.replace(" ", "_")
            assert run("fit", dataset, "--cutpoints", given, "--out", str(out)) == 0
            fits.append((out / "fit.json").read_bytes())
        assert fits[0] == fits[1] == fits[2]
        assert json.loads(fits[0])["cutpoints"] == [1.0, 4.0, 8.0]

    @pytest.mark.parametrize("spec, key", [("exp:inf", "rate"), ("admin:inf", "admin_time"),
                                           ("admin:2+exp:nan", "rate")])
    def test_non_finite_censoring_spec(self, tmp_path, capsys, spec, key):
        err = self.rejected(tmp_path, capsys, "estimands", "--sensitivity", spec)
        value = spec.rpartition(":")[2]
        assert err.endswith(f"--sensitivity: {key} must be finite and > 0, got {value}\n")

    def test_empty_censoring_spec_list(self, tmp_path, capsys):
        for spec in (",", ""):
            err = self.rejected(tmp_path, capsys, "estimands", "--sensitivity", spec)
            assert err.endswith("--sensitivity: empty censoring spec list\n")

    @pytest.mark.parametrize("flag, named", [("--rmst", "rmst horizon"),
                                             ("--landmark", "landmark time")])
    def test_non_finite_estimand_flag(self, tmp_path, capsys, flag, named):
        err = self.rejected(tmp_path, capsys, "estimands", flag, "inf")
        assert f"{named} must be finite and > 0, got inf" in err

    def test_sensitivity_replicate_the_trial_refuses(self, tmp_path, capsys):
        # a potential time past the largest float in a replicate
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(default_config_text().replace("rates = 0.1, 0.5", TINY_RATES, 1))
        err = self.rejected(tmp_path, capsys, "estimands", "--config", str(cfg),
                            "--sensitivity", "none")
        assert err == ("survmix: error: --sensitivity: [truth.control] rates: rate 1e-320 "
                       "of stratum 1 puts a potential time past the largest float\n")

    def test_non_finite_rmst_horizon_key(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(default_config_text().replace("rmst_horizon = 10.0",
                                                     "rmst_horizon = inf"))
        err = self.rejected(tmp_path, capsys, "estimands", "--config", str(cfg))
        assert "estimands.rmst_horizon: rmst_horizon must be finite and > 0" in err

    @pytest.mark.parametrize("command, old, new, cause", [
        ("fit", "covariates = arm", "covariates = stratum",
         "fit.covariates: covariates stratum lack 'arm'"),
        ("simulate", "rates = 0.1, 0.5", "rates = nan, 0.5",
         "[truth.control] all rates must be finite and > 0"),
        ("simulate", "rates = 0.1, 0.5", "rates = inf, 0.5",
         "[truth.control] all rates must be finite and > 0"),
        ("simulate", "weights = 0.5, 0.5", "weights = nan, 0.5",
         "[truth.control] all weights must be finite and > 0"),
        ("truth", "max = 30.0", "max = nan", "[grid] grid min and max must be finite"),
        ("truth", "max = 30.0", "max = inf", "[grid] grid min and max must be finite"),
        ("simulate", "n_per_arm = 500", "n_per_arm = many",
         "trial.n_per_arm: invalid integer 'many'"),
        ("estimands", "sensitivity_replicates = 200", "sensitivity_replicates = 1",
         "estimands.sensitivity_replicates must be >= 2"),
    ])
    def test_bad_config_key(self, dataset, tmp_path, capsys, command, old, new, cause):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(default_config_text().replace(old, new, 1))
        argv = (command, dataset) if command == "fit" else (command,)
        err = self.rejected(tmp_path, capsys, *argv, "--config", str(cfg))
        assert cause in err

    def test_json_writer_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError, match="JSON"):
            cli._write_json(str(tmp_path / "x.json"), {"value": float("nan")})
        assert os.listdir(tmp_path) == []


class TestCliPlumbing:
    def test_unknown_command_is_input_error(self):
        assert run("frobnicate") == 1

    def test_unknown_config_key_is_input_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[trial]\nwarp = 9\n")
        assert run("truth", "--config", str(cfg)) == 1

    def test_missing_config_file_is_io_error(self):
        assert run("truth", "--config", "/no/such.cfg") == 2

    def test_parse_censoring_list(self):
        specs = parse_censoring_list("none,admin:2,exp:0.1,admin:2+exp:0.1")
        assert [s.label() for s in specs] == ["none", "admin@2", "exp@0.1",
                                              "admin@2+exp@0.1"]
        with pytest.raises(ValueError):
            parse_censoring_list("uniform:3")

    def test_failed_runs_leave_existing_outputs_untouched(self, tmp_path, capsys):
        # every output file of a successful run, then three runs into the same
        # directory that fail in their computation, after every flag and key
        # has passed its checks
        small = tmp_path / "small.cfg"
        small.write_text(default_config_text().replace("n_per_arm = 500", "n_per_arm = 20")
                         .replace("sensitivity_replicates = 200", "sensitivity_replicates = 3"))
        out = tmp_path / "out"
        for argv in (("truth",), ("simulate",), ("estimands", "--sensitivity", "none")):
            assert run(*argv, "--config", str(small), "--out", str(out)) == 0
        before = {name: read(out / name) for name in os.listdir(out)}
        assert sorted(before) == sorted([cli.CURVES_FILE, cli.HR_FILE, cli.DATASET_FILE,
                                         cli.ESTIMANDS_FILE, cli.SENSITIVITY_FILE])
        over, tiny = tmp_path / "over.cfg", tmp_path / "tiny.cfg"
        over.write_text(default_config_text().replace("rates = 0.1, 0.5", OVERFLOW_RATES, 1))
        tiny.write_text(default_config_text().replace("rates = 0.1, 0.5", TINY_RATES, 1))
        for argv, cfg in ((("truth",), over), (("simulate",), tiny),
                          (("estimands", "--sensitivity", "none"), tiny)):
            assert run(*argv, "--config", str(cfg), "--out", str(out)) == 1
            assert {name: read(out / name) for name in os.listdir(out)} == before, argv
        assert capsys.readouterr().err.count("\n") == 3

    def test_failed_atomic_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "x.txt"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            with _atomic_file(str(target)) as fh:
                fh.write(b"text\n")
        assert os.listdir(tmp_path) == ["x.txt"]

    def test_atomic_write_syncs_before_replace(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def fake_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))  # flushed by now
            fsync(fd)

        def fake_replace(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", fake_fsync)
        monkeypatch.setattr(os, "replace", fake_replace)
        with _atomic_file(str(tmp_path / "x.txt")) as fh:
            fh.write(b"ab\n")
            fh.write(b"cd\n")
        assert calls == [("fsync", 6), ("replace", 6)]
        assert read(tmp_path / "x.txt") == b"ab\ncd\n"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n_per_arm=st.integers(1, 40),
           reveal_latent=st.booleans())
    def test_dataset_csv_round_trip(self, seed, n_per_arm, reveal_latent):
        config = TrialConfig(truth=default_config().truth, n_per_arm=n_per_arm,
                             censoring=CensoringSpec(admin_time=8.0, rate=0.05),
                             seed=seed)
        dataset = simulate(config)
        with tempfile.TemporaryDirectory() as out:
            columns = read_dataset_csv(write_dataset(dataset, out, reveal_latent))
        exact = {"id": dataset.ids, "arm": dataset.arm, "event": dataset.event}
        floats = {"observed_time": dataset.observed_time}
        if reveal_latent:
            exact["stratum"] = dataset.stratum
            floats["potential_time_0"] = dataset.potential_time_0
            floats["potential_time_1"] = dataset.potential_time_1
        assert set(columns) == set(exact) | set(floats)
        for name, values in exact.items():
            assert np.array_equal(columns[name], values)
        for name, values in floats.items():
            assert columns[name].tolist() == [float(_fmt(v)) for v in values]

    def test_outputs_end_with_newline_and_use_lf(self, tmp_path):
        out = tmp_path / "out"
        run("truth", "--out", str(out))
        raw = read(out / "hr.csv")
        assert raw.endswith(b"\n") and b"\r" not in raw


# tokens near the edge of what the numpy fast path of read_dataset_csv takes
ODD_FIELDS = (" 1", "1 ", "\t2", "\x0c1", "+3", "1_0", "1.0", "1e3", "1E2", "1e+2",
              "-0", "007", "", "-", "+", "e5", "1e", "--1", "+-1", "1.5.2", ".5",
              "5.", "1e400", "-1e400", "1e-400", "nan", "inf", "-inf",
              "9223372036854775807", "9223372036854775808", "-9223372036854775809")
HEADERS = ("id,arm,observed_time,event", LATENT_HEADER,
           "event,observed_time,arm,id", "id,arm,observed_time,event,event",
           "id,arm,observed_time,event ", "id,arm,time,event")
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                  np.inf, -np.inf, 1.0 / 3.0, -2.5, 123456789.5, 1e-5,
                  # the edges of the block writer's numpy path: nan, the ends
                  # of [1e-14, 1e30), ties at the tenth digit and roundings
                  # that carry into it
                  np.nan, 1e-14, np.nextafter(1e-14, 0.0), 1e30, np.nextafter(1e30, 0.0),
                  -9.999999995e-5, 999999999.5, np.nextafter(1e9, 0.0), 1e-4,
                  np.nextafter(1e-4, 0.0), 99999.99999999999, 1e16 + 2.0)


@st.composite
def dataset_bytes(draw):
    """A dataset CSV mostly within, and sometimes just outside, the fast path."""
    names = draw(st.sampled_from(HEADERS[:2] * 4 + HEADERS)).split(",")
    odd_rate = draw(st.sampled_from((0, 0, 30, 10, 3)))  # 1 odd field in odd_rate
    flags = ("0", "1") * 6 + ("2",)
    lines = [",".join(names)]
    for i in range(draw(st.integers(1, 6))):
        fields = []
        for name in names:
            if odd_rate and draw(st.integers(1, odd_rate)) == 1:
                fields.append(draw(st.sampled_from(ODD_FIELDS)))
            elif name == "id":
                fields.append(str(draw(st.sampled_from((i,) * 12 + (0,)))))
            elif name == "stratum":
                fields.append(draw(st.sampled_from(("0", "1", "2") * 4 + ("-1",))))
            elif name in ("arm", "event"):
                fields.append(draw(st.sampled_from(flags)))
            else:
                fields.append(format(draw(st.floats(1e-3, 1e3)), ".9g"))
        if odd_rate:  # short or long rows
            width = draw(st.sampled_from((0,) * 10 + (-1, 1)))
            fields = fields[:len(fields) + width] if width < 0 else fields + ["1"] * width
        lines.append(",".join(fields))
    breaks = ["\n"] * 12 + (["\r\n", "\n\n", "\x0c", "\r", "\x1c", "\x85"]
                             if odd_rate else [])
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines[:-1])
    endings = ["\n", "", "\r\n", "\n\n", "\r"] if odd_rate else ["\n", ""]
    text += lines[-1] + draw(st.sampled_from(endings))
    return text.encode()


@pytest.fixture
def parsed_by(monkeypatch):
    """The parser that read each chunk of the dataset files read in a test:
    "numpy" for a chunk that np.loadtxt took, "rows" for the per-row parser."""
    chunks = []
    parse_plain, parse_rows = cli._parse_plain, cli._parse_rows

    def plain(lines, dtype):
        records = parse_plain(lines, dtype)
        if records is not None:
            chunks.append("numpy")
        return records

    def rows(*args):
        chunks.append("rows")
        return parse_rows(*args)

    monkeypatch.setattr(cli, "_parse_plain", plain)
    monkeypatch.setattr(cli, "_parse_rows", rows)
    return chunks


def assert_same_columns(got, columns):
    assert got.keys() == columns.keys()
    for name, values in got.items():
        assert values.dtype == columns[name].dtype
        assert values.tobytes() == columns[name].tobytes()


class TestCsvLayer:
    @settings(max_examples=400, deadline=None)
    @given(data=dataset_bytes())
    # numpy reads \r\n as a line end and rejects any other \r: a \r inside a
    # field, \r\r\n, a blank CRLF line, a \r before a comma, and a CRLF file
    # whose last row ends in \r
    @example(data=b"id,arm,observed_time,event\n0,0,1\r.5,1\n1,1,2.5,0\n")
    @example(data=b"id,arm,observed_time,event\r\n0,0,1.5,1\r\r\n1,1,2.5,0\r\n")
    @example(data=b"id,arm,observed_time,event\r\n0,0,1.5,1\r\n\r\n1,1,2.5,0\r\n")
    @example(data=b"id,arm,observed_time,event\n0,0\r,1.5,1\n1,1,2.5,0\n")
    @example(data=b"id,arm,observed_time,event\r\n0,0,1.5,1\r\n1,1,2.5,0\r")
    def test_fast_reader_agrees_with_row_parser(self, data):
        def outcome(path, chunk_bytes, parse_plain):
            with mock.patch.object(cli, "_CHUNK_BYTES", chunk_bytes), \
                    mock.patch.object(cli, "_parse_plain", parse_plain):
                try:
                    columns = read_dataset_csv(path)
                except InputError as err:
                    return str(err)
            return {name: (col.dtype.str, col.tobytes()) for name, col in columns.items()}

        def row_parser_only(lines, dtype):
            return None

        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "data.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            rows = outcome(path, 1 << 18, row_parser_only)
            for chunk_bytes in (1, 5, 16, 64, 1 << 18):
                assert outcome(path, chunk_bytes, row_parser_only) == rows
                assert outcome(path, chunk_bytes, cli._parse_plain) == rows
            if not isinstance(rows, str):  # a CRLF line end reads as an LF one
                with open(path, "wb") as fh:
                    fh.write(data.replace(b"\r\n", b"\n"))
                assert outcome(path, 1 << 18, cli._parse_plain) == rows

    def test_fast_reader_takes_written_files(self, tmp_path, parsed_by):
        config = TrialConfig(truth=default_config().truth, n_per_arm=20, seed=7)
        path = write_dataset(simulate(config), str(tmp_path), reveal_latent=True)
        columns = read_dataset_csv(path)
        assert parsed_by == ["numpy"]
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(read(path).replace(b"\n", b"\r\n"))
        parsed_by.clear()
        # numpy reads it too, each \r\n a line end, to the same columns
        assert_same_columns(read_dataset_csv(str(crlf)), columns)
        assert parsed_by == ["numpy"]

    def test_chunks_cut_anywhere_read_the_same(self, tmp_path, monkeypatch, parsed_by):
        config = TrialConfig(truth=default_config().truth, n_per_arm=20, seed=7)
        path = write_dataset(simulate(config), str(tmp_path), reveal_latent=True)
        columns = read_dataset_csv(path)
        unterminated = tmp_path / "unterminated.csv"  # no newline after the last row
        unterminated.write_bytes(read(path)[:-1])
        # a lone \r ends the last row, which numpy reads as a line end too
        lone_cr = tmp_path / "lone_cr.csv"
        lone_cr.write_bytes(read(path)[:-1] + b"\r")
        for chunk_bytes in (1, 2, 7, 43, 64):
            monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
            for name in (path, str(unterminated), str(lone_cr)):
                parsed_by.clear()
                assert_same_columns(read_dataset_csv(name), columns)
                assert parsed_by and set(parsed_by) == {"numpy"}

    def test_bad_row_in_a_late_chunk_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 16)
        path = tmp_path / "bad.csv"
        good = [f"{i},{i % 2},{i + 1}.5,1" for i in range(40)]
        # numpy rejects the first three rows, so the per-row parser names
        # them; it takes the last two, which the value checks name
        cases = [(37, "35,1,36.5", "expected 4 fields, got 3"),
                 (38, "36,0,1.5.2,1", "bad value '1.5.2' for column observed_time"),
                 (39, "", "expected 4 fields, got 1"),  # a blank line
                 (40, "38,2,39.5,1", "arm must be 0 or 1, got 2"),
                 (41, "3,1,40.5,1", "duplicate id 3")]
        for row, bad_line, message in cases:
            lines = good[:row - 2] + [bad_line] + good[row - 1:]
            path.write_text("id,arm,observed_time,event\n" + "\n".join(lines) + "\n")
            assert run("fit", str(path), "--out", str(tmp_path / "out")) == 1
            assert capsys.readouterr().err.endswith(f"{path} row {row}: {message}\n")

    def test_only_the_chunk_with_a_non_plain_byte_is_parsed_by_row(
            self, tmp_path, capsys, monkeypatch, parsed_by):
        # one inf in the last row: every earlier chunk still goes to numpy
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 64)
        path = tmp_path / "late_inf.csv"
        path.write_text("id,arm,observed_time,event\n"
                        + "".join(f"{i},{i % 2},{i + 1}.5,1\n" for i in range(39))
                        + "39,1,inf,1\n")
        with open(path, "rb") as fh:
            fh.readline()
            chunks = len(list(iter(lambda: fh.readlines(64), [])))
        assert chunks > 2
        assert run("fit", str(path), "--out", str(tmp_path / "out")) == 1
        assert parsed_by == ["numpy"] * (chunks - 1) + ["rows"]
        assert capsys.readouterr().err == (
            f"survmix: error: {path} row 41: observed_time must be finite and > 0, "
            "got inf\n")

    def test_crlf_file_fits_the_same(self, tmp_path, monkeypatch, parsed_by):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 16)
        run("simulate", "--out", str(tmp_path / "lf"))
        path = tmp_path / "lf" / "dataset.csv"
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(read(path).replace(b"\n", b"\r\n"))
        # numpy reads every chunk of the written file and of its CRLF copy,
        # whose 16-byte reads end on the \r of a \r\n too
        for name, out in ((path, "lf"), (crlf, "crlf")):
            parsed_by.clear()
            assert run("fit", str(name), "--out", str(tmp_path / out)) == 0
            assert parsed_by and set(parsed_by) == {"numpy"}
        assert read(tmp_path / "crlf" / "fit.json") == read(tmp_path / "lf" / "fit.json")

    @pytest.mark.parametrize("changes, row, cause", [
        ({"id": (3, 1)}, 3, "duplicate id 1"),
        ({"stratum": (1, -1)}, 1, "stratum must be >= 0, got -1"),
        ({"potential_time_0": (2, 0.0)}, 2, "potential_time_0 must be finite and > 0, got 0"),
        # event, arm and observed_time first, then the ids, then the latent columns
        ({"id": (3, 1), "stratum": (0, -1)}, 3, "duplicate id 1"),
        ({"id": (1, 0), "arm": (3, 2)}, 3, "arm must be 0 or 1, got 2"),
        ({"observed_time": (3, np.inf), "event": (2, 2)}, 2, "event must be 0 or 1, got 2"),
    ])
    def test_dataset_and_reader_refuse_alike(self, tmp_path, changes, row, cause):
        # the same check: rows counted from 0 in a Dataset, from 2 in a file
        columns = {"id": [0, 1, 2, 3], "arm": [0, 0, 1, 1], "stratum": [0, 1, 0, 1],
                   "potential_time_0": [1.0, 2.0, 3.0, 4.0],
                   "potential_time_1": [2.0, 3.0, 4.0, 5.0],
                   "observed_time": [1.0, 2.0, 4.0, 5.0], "event": [1, 1, 1, 1]}
        for name, (index, value) in changes.items():
            columns[name][index] = value
        path = tmp_path / "dataset.csv"
        path.write_text(LATENT_HEADER + "\n" + "".join(
            ",".join(str(columns[name][i]) for name in LATENT_HEADER.split(",")) + "\n"
            for i in range(4)))
        with pytest.raises(ValueError, match=f"^row {row}: {re.escape(cause)}$"):
            Dataset(*columns.values(), config=None)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))} row {row + 2}: "
                                             f"{re.escape(cause)}$"):
            read_dataset_csv(str(path))

    def test_ids_in_any_order(self, tmp_path):
        # simulate writes increasing ids; any order passes while no id repeats
        path = tmp_path / "dataset.csv"
        path.write_text("id,arm,observed_time,event\n"
                        + "".join(f"{i},{i % 2},{i + 1}.5,1\n" for i in (5, 3, 9, 0)))
        assert read_dataset_csv(str(path))["id"].tolist() == [5, 3, 9, 0]

    @pytest.mark.parametrize("rows", [0, 1, 4, 5, 6])  # around a 5-row block
    def test_writers_match_reference_format(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)
        floats = [np.resize(np.roll(SPECIAL_FLOATS, k), rows) for k in range(8)]
        ids = np.arange(rows) * 1_000_003
        arm, stratum, event = ids % 2, ids % 3, ids % 5 < 2
        # the writer's input as the attributes of a Dataset, whose own checks
        # would refuse these times
        dataset = SimpleNamespace(ids=ids, arm=arm, stratum=stratum,
                                  potential_time_0=floats[0], potential_time_1=floats[1],
                                  observed_time=floats[2], event=event)

        def reference(header, cells):
            return "".join(",".join(row) + "\n" for row in [header] + cells)

        latent = [(str(ids[i]), str(arm[i]), str(stratum[i]), _fmt(floats[0][i]),
                   _fmt(floats[1][i]), _fmt(floats[2][i]), str(int(event[i])))
                  for i in range(rows)]
        for reveal, columns in ((True, range(7)), (False, (0, 1, 5, 6))):
            header = [LATENT_HEADER.split(",")[c] for c in columns]
            path = write_dataset(dataset, str(tmp_path), reveal_latent=reveal)
            assert read(path).decode() == reference(
                header, [[row[c] for c in columns] for row in latent])

        names = ("survival", "hazard", "cum_hazard")
        curve_columns = [f"{name}_{side}" for side in ("control", "research")
                         for name in names]
        table = SimpleNamespace(grid=floats[0], hazard_ratio=floats[1],
                                **dict(zip(curve_columns, floats[2:])))
        curves_path, hr_path = write_curve_tables(table, str(tmp_path))
        curves = [[_fmt(table.grid[i]), side] +
                  [_fmt(getattr(table, f"{name}_{side}")[i]) for name in names]
                  for i in range(rows) for side in ("control", "research")]
        assert read(curves_path).decode() == reference(
            ["t", "arm", *names], curves)
        hr = [[_fmt(table.grid[i]), _fmt(table.hazard_control[i]),
               _fmt(table.hazard_research[i]), _fmt(table.hazard_ratio[i])]
              for i in range(rows)]
        assert read(hr_path).decode() == reference(
            ["t", "hazard_control", "hazard_research", "hazard_ratio"], hr)


# every row format of the CLI's tables, with the kind of value each column
# holds: "i" int64, "b" bool, "f" float64, "s" text; "grid" marks the curve
# column that a curves.csv row writes twice
ROW_FORMATS = {
    "dataset.csv": ("%d,%d,%.9g,%d\n", "iifb"),
    "dataset.csv --reveal-latent": ("%d,%d,%d,%.9g,%.9g,%.9g,%d\n", "iiifffb"),
    "curves.csv": ("%.9g,control,%.9g,%.9g,%.9g\n%.9g,research,%.9g,%.9g,%.9g\n", "grid"),
    "hr.csv": ("%.9g,%.9g,%.9g,%.9g\n", "ffff"),
    "sensitivity.csv": ("%s,%.9g,%.9g,%d,%d\n", "sffii"),
}


def _tenth_digit_ties():
    """Decimals of ten significant digits that end in 5, as 123456789.5."""
    return st.builds(lambda digits, exponent: float(f"{digits}5e{exponent}"),
                     st.integers(10**8, 10**9 - 1), st.integers(-330, 300))


def _near_powers_of_ten():
    """10^e and the floats one ulp either side of it."""
    return st.builds(lambda e, side: float(np.nextafter(10.0**e, side)) if side else 10.0**e,
                     st.integers(-323, 308), st.sampled_from([0.0, np.inf, None]))


FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), _tenth_digit_ties(),
                   _near_powers_of_ten(), st.floats(1e-3, 1e3), st.floats(-1e-13, 1e-13))
INTS = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([-2**63, 2**63 - 1, 0, -1]),
                 st.integers(0, 10**6))


@st.composite
def tables(draw):
    """A row format of the CLI, a block size, and columns whose length lies
    around a multiple of it."""
    name = draw(st.sampled_from(sorted(ROW_FORMATS)))
    fmt, kinds = ROW_FORMATS[name]
    block = draw(st.integers(1, 6))
    rows = draw(st.integers(0, 3 * block + 1))

    def column(kind):
        values = {"i": INTS, "b": st.booleans(), "f": FLOATS,
                  "s": st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=8)}[kind]
        drawn = draw(st.lists(values, min_size=rows, max_size=rows))
        return np.array(drawn, dtype={"i": np.int64, "b": bool, "f": np.float64, "s": str}[kind])

    if kinds == "grid":
        grid = column("f")
        control, research = ([column("f") for _ in range(3)] for _ in range(2))
        columns = [grid, *control, grid, *research]
    else:
        columns = [column(kind) for kind in kinds]
    return fmt, block, columns


def percent_rows(fmt, columns):
    """The text of Python's `fmt % row` for each row, with + 0.0 on floats."""
    values = [(c + 0.0 if c.dtype.kind == "f" else c).tolist() for c in columns]
    return "".join(fmt % row for row in zip(*values))


def write_table(path, header, fmt, columns):
    """cli._write_columns of one table, its columns given in the order of
    fmt's fields."""
    names = [str(i) for i in range(len(columns))]
    cli._write_columns([(path, header, fmt, names)], dict(zip(names, columns)))


class TestBlockWriter:
    def test_cli_writes_the_tested_formats(self, tmp_path, monkeypatch):
        formats = set()
        write_columns = cli._write_columns

        def spy(tables, columns):
            formats.update(fmt for _, _, fmt, _ in tables)
            return write_columns(tables, columns)

        monkeypatch.setattr(cli, "_write_columns", spy)
        out = str(tmp_path)
        run("truth", "--out", out)
        run("simulate", "--out", out)
        run("simulate", "--out", out, "--reveal-latent")
        cfg = tmp_path / "small.cfg"
        cfg.write_text(default_config_text().replace("sensitivity_replicates = 200",
                                                     "sensitivity_replicates = 2"))
        run("estimands", "--config", str(cfg), "--sensitivity", "none,admin:2", "--out", out)
        assert formats == {fmt for fmt, _ in ROW_FORMATS.values()}

    @settings(max_examples=300, deadline=None)
    @given(table=tables())
    @example(table=(ROW_FORMATS["hr.csv"][0], 2, [np.array(SPECIAL_FLOATS)] * 4))
    def test_bytes_equal_percent_format(self, table):
        fmt, block, columns = table
        with tempfile.TemporaryDirectory() as out, mock.patch.object(cli, "_BLOCK_ROWS", block):
            path = os.path.join(out, "table.csv")
            write_table(path, ("a", "b"), fmt, columns)
            assert read(path).decode("utf-8") == "a,b\n" + percent_rows(fmt, columns)

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The values that Python's formatter writes for the block writer."""
        values = []
        python_texts = _csvtext._python_texts

        def counted(spec, texts):
            values.extend(texts)
            return python_texts(spec, texts)

        monkeypatch.setattr(_csvtext, "_python_texts", counted)
        return values

    def test_numpy_writes_every_number_of_the_default_runs(self, tmp_path, fallbacks):
        run("simulate", "--out", str(tmp_path), "--reveal-latent")
        run("truth", "--out", str(tmp_path))
        assert fallbacks == []

    # rows per block for 10 rows at each _BLOCK_ROWS: one block, a 2-row tail
    # merged into one block, two blocks, and three with a 1-row tail merged
    @pytest.mark.parametrize("block_rows, blocks", [(10, [10]), (8, [10]), (5, [5, 5]),
                                                    (3, [3, 3, 4])])
    def test_curve_tables_equal_percent_format(self, tmp_path, monkeypatch, fallbacks,
                                               block_rows, blocks):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        sizes = []
        format_tables = _csvtext.format_tables

        def counted(tables, columns):
            sizes.append(len(columns["t"]))
            return format_tables(tables, columns)

        monkeypatch.setattr(_csvtext, "format_tables", counted)
        # 1.7142645050000054 lies within 1e-6 of a half-integer once scaled,
        # so Python formats it; the others take the exponent form or not
        grid = np.array([0.0, 2.5e-7, 3e-5, 1e-4, 0.5, 1.7142645050000054, 12.25,
                         123456789.0, 3.5e10, 1e29])
        names = [f"{name}_{side}" for name in ("survival", "hazard", "cum_hazard")
                 for side in ("control", "research")]
        curves = {name: grid[::-1] * (k + 1.5) for k, name in enumerate(names)}
        table = SimpleNamespace(grid=grid, hazard_ratio=np.sqrt(grid) + 1e-300, **curves)
        curves_path, hr_path = write_curve_tables(table, str(tmp_path))
        assert sizes == blocks
        # the grid is written three times a row, and formatted once
        assert fallbacks.count(1.7142645050000054) == 1
        fmt, _ = ROW_FORMATS["curves.csv"]
        rows = zip(grid, table.survival_control, table.hazard_control,
                   table.cum_hazard_control, grid, table.survival_research,
                   table.hazard_research, table.cum_hazard_research)
        lines = read(curves_path).decode().splitlines()
        assert lines == ["t,arm,survival,hazard,cum_hazard"] + \
            "".join(fmt % row for row in rows).splitlines()
        fmt, _ = ROW_FORMATS["hr.csv"]
        rows = zip(grid, table.hazard_control, table.hazard_research, table.hazard_ratio)
        lines = read(hr_path).decode().splitlines()
        assert lines == ["t,hazard_control,hazard_research,hazard_ratio"] + \
            "".join(fmt % row for row in rows).splitlines()
        assert any("e+" in line for line in lines) and any("e-" in line for line in lines)

    def test_numpy_writes_the_powers_of_ten(self, tmp_path, fallbacks):
        # log10 puts the values just below a power of ten one decade too
        # high; the writer corrects that rather than handing them to Python
        powers = 10.0 ** np.arange(-13, 30)
        x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        write_table(str(tmp_path / "t.csv"), ("x",), "%.9g\n", [x])
        assert fallbacks == []
        assert read(tmp_path / "t.csv").decode() == "x\n" + percent_rows("%.9g\n", [x])

    def test_every_number_formats_again_to_itself(self, tmp_path):
        # times below 1e-14, which Python formats, and exponent forms
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(wide_config_text())
        assert run("simulate", "--config", str(cfg), "--reveal-latent",
                   "--out", str(tmp_path)) == 0
        assert number_format_problems(str(tmp_path / "dataset.csv")) == []

    def test_every_curve_table_number_formats_again_to_itself(self, tmp_path, fallbacks):
        # grid times below 1e-14, which Python formats in the column both
        # tables share, and hazards from 5e13
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(wide_config_text())
        assert run("truth", "--config", str(cfg), "--out", str(tmp_path)) == 0
        assert 5e-15 in fallbacks
        for table in ("curves.csv", "hr.csv"):
            assert number_format_problems(str(tmp_path / table)) == []

    def test_nul_in_a_text_field_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="NUL"):
            write_table(str(tmp_path / "t.csv"), ("a",), "%s\n", [["a\0b"]])
        assert os.listdir(tmp_path) == []


# the commands the contract runs, None standing for the dataset path
CONTRACT_COMMANDS = (("fit", None), ("fit", None, "--covariates", "arm,stratum"),
                     ("fit", None, "--cutpoints", "1,4"), ("estimands", "--source", None))
# the smallest and largest positive floats, and ties among the times between
CONTRACT_TIMES = (5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 2.5, 4.0, 1e300,
                  1.7e308, 1.7976931348623157e308)


@st.composite
def contract_datasets(draw):
    """The LF bytes of a 2-11-row dataset CSV whose last row ends in "",
    "\n" or a lone "\r": ties, all censored and one arm only come often."""
    stratum = draw(st.booleans())
    lines = ["id,arm,stratum,observed_time,event" if stratum else "id,arm,observed_time,event"]
    times = st.one_of(st.sampled_from(CONTRACT_TIMES),
                      st.floats(5e-324, 1.7976931348623157e308))
    for i in range(draw(st.integers(2, 11))):
        fields = [str(i), draw(st.sampled_from("01"))]
        if stratum:
            fields.append(draw(st.sampled_from("01")))
        fields += [repr(draw(times)), draw(st.sampled_from("01"))]
        lines.append(",".join(fields))
    return ("\n".join(lines) + draw(st.sampled_from(("", "\n", "\r")))).encode()


# the config that the mutations below change one value of: the default
# scenario with 20 per arm, 3 sensitivity replicates and a 7-point grid
CONTRACT_CONFIG = (default_config_text().replace("n_per_arm = 500", "n_per_arm = 20")
                   .replace("sensitivity_replicates = 200", "sensitivity_replicates = 3")
                   .replace("points = 601", "points = 7"))
CONTRACT_DATASET = "id,arm,observed_time,event\n" + "".join(
    f"{i},{i % 2},{i + 1}.5,{int(i % 3 > 0)}\n" for i in range(8))
# each command the mutations run, None standing for the dataset path
CONTRACT_RUNS = {"truth": ("truth",), "simulate": ("simulate",), "estimands": ("estimands",),
                 "sensitivity": ("estimands", "--sensitivity", "none,admin:2,exp:0.1"),
                 "fit": ("fit", None)}
# zero, the least and greatest floats, values near them, nan, inf, a negative
# number and nothing
CONTRACT_VALUES = ("0", "5e-324", "1e-300", "1e308", "1.7976931348623157e308", "nan", "inf",
                   "-1", "")
# (the text of CONTRACT_CONFIG that a mutation replaces, its replacement with
# {} for the value, and the names an error may give for it)
CONFIG_MUTATIONS = (
    ("rates = 0.1, 0.5", "rates = {}, 0.5", ("[truth.control]",)),
    ("rates = 0.1, 0.5", "rates = 0.1, {}", ("[truth.control]",)),
    ("rates = 0.05, 0.25", "rates = {}, 0.25", ("[truth.research]",)),
    ("rates = 0.05, 0.25", "rates = 0.05, {}", ("[truth.research]",)),
    ("min = 0.0", "min = {}", ("[grid]", "grid.min")),
    ("max = 30.0", "max = {}", ("[grid]", "grid.max")),
    ("points = 7", "points = {}", ("[grid]", "grid.points")),
    ("kind = none", "kind = administrative\nadmin_time = {}",
     ("[censoring]", "censoring.admin_time")),
    ("kind = none", "kind = exponential\nrate = {}", ("[censoring]", "censoring.rate")),
    ("landmark = 1.0", "landmark = {}", ("estimands.landmark",)),
    ("rmst_horizon = 10.0", "rmst_horizon = {}", ("estimands.rmst_horizon",)),
    ("ratio_time = 1.0", "ratio_time = {}", ("estimands.ratio_time",)),
    ("sensitivity_replicates = 3", "sensitivity_replicates = {}",
     ("estimands.sensitivity_replicates",)),
)
# (the command, a flag it takes and the flag's value with {} for the value)
FLAG_MUTATIONS = tuple(
    (run, flag, template)
    for flag, template, runs in (
        ("--seed", "{}", tuple(CONTRACT_RUNS)),
        ("--landmark", "{}", ("estimands", "sensitivity")),
        ("--rmst", "{}", ("estimands", "sensitivity")),
        ("--sensitivity", "none,exp:{}", ("estimands",)),
        ("--sensitivity", "admin:{}", ("estimands",)),
        ("--cutpoints", "{}", ("fit",)),
        ("--cutpoints", "1,{}", ("fit",)),
        ("--covariates", "{}", ("fit",)),
    )
    for run in runs)


class TestCliContract:
    """On any small dataset, each command exits 0 with finite JSON, or 1 with
    one error line and no output directory: no traceback and no warning, the
    same bytes on a rerun and on the CRLF copy of the file. So does each
    command with one config value or flag set to an extreme or invalid value;
    its error names the key or flag. A missing input file exits 2."""

    @staticmethod
    def outcome(argv, out):
        """The exit code and output file, or the exit code and error line, of
        a run with every warning an error."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([*argv, "--out", out])
        error = stderr.getvalue()
        if code == 1:
            assert error.startswith("survmix: error: ") and error.count("\n") == 1 \
                and error.endswith("\n"), error
            assert not os.path.exists(out), (argv, error)  # a failed run makes no directory
            return code, error
        assert code == 0 and not error, (code, error)
        if argv[0] not in ("fit", "estimands"):
            return code, ""
        text = read(os.path.join(out, cli.FIT_FILE if argv[0] == "fit" else cli.ESTIMANDS_FILE))

        def no_constant(name):  # NaN, Infinity or -Infinity
            raise AssertionError(f"{name} in {text!r}")

        json.loads(text, parse_constant=no_constant)
        return code, text

    @staticmethod
    def assert_converged_score(path, text):
        """Each fit of a fit.json that reads converged re-evaluates, at its
        written coefficients, to a score below SCORE_TOL on its own rows of
        the dataset at `path`: all of them, or for the period [a, b) those
        with time >= a, censored at b."""
        report = json.loads(text)
        if "periods" in report:
            fits = [(p["start"], p["end"], p["fit"]) for p in report["periods"] if p["fit"]]
        else:
            fits = [(0.0, np.inf, report)]
        columns = read_dataset_csv(path)
        time = columns["observed_time"]
        for start, end, fit in fits:
            if not fit["converged"]:
                continue
            covariates = fit.get("covariates", {"arm": fit})
            rows = {name: column[time >= start] for name, column in columns.items()}
            t = rows["observed_time"]
            data = _CoxData(np.minimum(t, end), rows["event"] & (t < end),
                            covariate_matrix(rows, tuple(covariates)))
            score = data.loglik_score_info(np.array([c["beta"] for c in covariates.values()]))[1]
            assert np.max(np.abs(score)) < SCORE_TOL, (start, end, fit, score)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=contract_datasets(), command=st.sampled_from(CONTRACT_COMMANDS))
    # the two middle times sum past the largest float: np.median overflowed
    @example(data=OVERFLOW_MEDIAN_CSV.encode(), command=CONTRACT_COMMANDS[3])
    def test_exit_0_with_finite_json_or_1_with_one_error_line(self, data, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            argv = [path if arg is None else arg for arg in command]
            with open(path, "wb") as fh:
                fh.write(data)
            first = self.outcome(argv, os.path.join(tmp, "lf"))
            if command[0] == "fit" and first[0] == 0:
                self.assert_converged_score(path, first[1])
            assert self.outcome(argv, os.path.join(tmp, "rerun")) == first
            with open(path, "wb") as fh:
                fh.write(data.replace(b"\n", b"\r\n"))
            assert self.outcome(argv, os.path.join(tmp, "crlf")) == first

    @pytest.mark.parametrize("argv", [("fit", None), ("truth", "--config", None)],
                             ids=["dataset", "config"])
    def test_missing_input_exits_2_naming_it(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "missing"), os.path.join(tmp, "out")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([path if arg is None else arg for arg in argv] + ["--out", out])
            assert not os.path.exists(out)
        error = stderr.getvalue()
        assert code == 2 and error.startswith("survmix: i/o error: ") \
            and error.endswith(f"{path!r}\n") and error.count("\n") == 1, error

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), n_per_arm=st.integers(20, 60),
           coupling=st.sampled_from(("comonotone", "independent")),
           censoring=st.sampled_from(("kind = none", "kind = administrative\nadmin_time = 8",
                                      "kind = exponential\nrate = 0.05",
                                      "kind = both\nadmin_time = 8\nrate = 0.05")))
    def test_simulated_file_fits_and_reruns_to_the_same_bytes(self, seed, n_per_arm,
                                                              coupling, censoring):
        # enough rows per arm, with these censorings, that every arm has events
        config = (CONTRACT_CONFIG.replace("n_per_arm = 20", f"n_per_arm = {n_per_arm}")
                  .replace("coupling = comonotone", f"coupling = {coupling}")
                  .replace("kind = none", censoring))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write(config)
            sim = os.path.join(tmp, "sim")
            assert self.outcome(["simulate", "--reveal-latent", "--config", cfg, "--seed",
                                 str(seed)], sim) == (0, "")
            path = os.path.join(sim, cli.DATASET_FILE)
            for i, command in enumerate(CONTRACT_COMMANDS):
                argv = [path if arg is None else arg for arg in command]
                first = self.outcome(argv, os.path.join(tmp, f"{i}a"))
                assert first[0] == 0
                assert self.outcome(argv, os.path.join(tmp, f"{i}b")) == first
                if command[0] == "fit":
                    self.assert_converged_score(path, first[1])

    def assert_names(self, run, extra, config, names):
        """Run the command `run` with `extra` argv and the config text
        `config`: exit 0, or exit 1 naming one of `names`."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w") as fh:
                fh.write(CONTRACT_DATASET)
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write(config)
            argv = [path if arg is None else arg for arg in CONTRACT_RUNS[run]]
            code, text = self.outcome([*argv, "--config", cfg, *extra], os.path.join(tmp, "out"))
        assert code == 0 or any(name in text for name in names), text

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(run=st.sampled_from(sorted(CONTRACT_RUNS)), mutation=st.sampled_from(CONFIG_MUTATIONS),
           value=st.sampled_from(CONTRACT_VALUES))
    # rate * t past the largest float in the truth engine's products
    @example(run="truth", mutation=CONFIG_MUTATIONS[1], value="1.7976931348623157e308")
    @example(run="estimands", mutation=CONFIG_MUTATIONS[2], value="1e308")
    # a research hazard over a control one past the largest float
    @example(run="truth", mutation=CONFIG_MUTATIONS[2], value="1.7976931348623157e308")
    # censoring times past the largest float
    @example(run="simulate", mutation=CONFIG_MUTATIONS[8], value="5e-324")
    # a potential time past the largest float, in the dataset and in a replicate
    @example(run="simulate", mutation=CONFIG_MUTATIONS[1], value="1e-320")
    @example(run="sensitivity", mutation=CONFIG_MUTATIONS[1], value="1e-320")
    # a finite grid whose linspace overflows, checked by every command
    @example(run="fit", mutation=CONFIG_MUTATIONS[5], value="1.7976931348623157e308")
    # a ratio time where the control survival is 0
    @example(run="estimands", mutation=CONFIG_MUTATIONS[11], value="1e308")
    def test_mutated_config_exits_0_or_1_naming_the_key(self, run, mutation, value):
        old, new, names = mutation
        config = CONTRACT_CONFIG.replace(old, new.format(value), 1)
        self.assert_names(run, (), config, names)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mutation=st.sampled_from(FLAG_MUTATIONS), value=st.sampled_from(CONTRACT_VALUES))
    # censoring times past the largest float
    @example(mutation=("estimands", "--sensitivity", "none,exp:{}"), value="5e-324")
    # a seed the trial refuses, and a landmark where both survivals are 1
    @example(mutation=("truth", "--seed", "{}"), value="-1")
    @example(mutation=("estimands", "--landmark", "{}"), value="1e-300")
    def test_mutated_flag_exits_0_or_1_naming_the_flag(self, mutation, value):
        run, flag, template = mutation
        self.assert_names(run, (flag, template.format(value)), CONTRACT_CONFIG, (flag,))
