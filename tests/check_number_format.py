"""Check that every number survmix writes is Python's own "%d" or "%.9g" text.

    python tests/check_number_format.py OUT_DIR

simulates a revealed-latent dataset and writes the truth tables into OUT_DIR
from a config whose rates put times both below 1e-14 and at or above 1e9,
and whose truth grid puts both times below 1e-14 and hazards at or above
1e9, so that the writer uses the exponent form and hands values to Python's
formatter, also in the grid column that both curve tables share. It then
checks that each line of dataset.csv, curves.csv and hr.csv equals its own
fields parsed and formatted again: an integer field with "%d", a float field
with "%.9g" (a 9-digit decimal round-trips through float64), a text field as
it is. Exits 1 naming the first line that differs.
"""

import os
import sys

from survmix.cli import main
from survmix.config import default_config_text

# the columns of each table that are not "%.9g" floats
INTEGER_COLUMNS = {"id", "arm", "stratum", "event"}
TEXT_COLUMNS = {"curves.csv": {"arm"}}
TABLES = ("dataset.csv", "curves.csv", "hr.csv")


def wide_config_text():
    """The default scenario with times from about 1e-16 to 1e11, and a truth
    grid of 601 points on [0, 3e-12], where the hazards fall from 5e13."""
    return (default_config_text()
            .replace("rates = 0.1, 0.5", "rates = 1e14, 1e-10")
            .replace("rates = 0.05, 0.25", "rates = 5e13, 5e-11")
            .replace("max = 30.0", "max = 3e-12"))


def problems(path):
    """The lines of a dataset or curve table file that do not format again
    to themselves, and what the file lacks of the forms the check needs."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")
    table = os.path.basename(path)
    integers = INTEGER_COLUMNS if table == "dataset.csv" else set()
    texts = TEXT_COLUMNS.get(table, set())

    def again(name, field):
        if name in texts:
            return field
        return "%d" % int(field) if name in integers else "%.9g" % float(field)

    found = []
    for row, line in enumerate(lines, start=2):
        formatted = ",".join(again(name, field) for name, field in zip(names, line.split(",")))
        if formatted != line:
            found.append(f"{path} row {row}: {line!r} formats again as {formatted!r}")
    floats = [float(field) for line in lines for name, field in zip(names, line.split(","))
              if name not in integers | texts]
    if not any(abs(x) < 1e-14 for x in floats):
        found.append(f"{path}: no number below 1e-14")
    if not any(abs(x) >= 1e9 for x in floats):
        found.append(f"{path}: no number at or above 1e9")
    return found


if __name__ == "__main__":
    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, "wide.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(wide_config_text())
    for argv in (["simulate", "--reveal-latent"], ["truth"]):
        if main(argv + ["--config", config, "--out", out_dir]) != 0:
            sys.exit(1)
    found = [problem for table in TABLES for problem in problems(os.path.join(out_dir, table))]
    if found:
        sys.exit("\n".join(found[:5]))
    print("every number formats again to itself")
