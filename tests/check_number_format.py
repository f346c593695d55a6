"""Check that every number survmix writes is Python's own "%d" or "%.9g" text.

    python tests/check_number_format.py OUT_DIR

simulates a revealed-latent dataset into OUT_DIR from a config whose rates
put times both below 1e-14 and at or above 1e9, so that the writer uses the
exponent form and hands values to Python's formatter, then checks that each
line equals its own fields parsed and formatted again: an integer field with
"%d", a float field with "%.9g" (a 9-digit decimal round-trips through
float64). Exits 1 naming the first line that differs.
"""

import os
import sys

from survmix.cli import main
from survmix.config import default_config_text

INTEGER_COLUMNS = {"id", "arm", "stratum", "event"}


def wide_config_text():
    """The default scenario with times from about 1e-16 to 1e11."""
    return (default_config_text()
            .replace("rates = 0.1, 0.5", "rates = 1e14, 1e-10")
            .replace("rates = 0.05, 0.25", "rates = 5e13, 5e-11"))


def problems(path):
    """The lines of a dataset file that do not format again to themselves,
    and what the file lacks of the forms the check needs."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")
    found = []
    for row, line in enumerate(lines, start=2):
        again = ",".join("%d" % int(field) if name in INTEGER_COLUMNS else "%.9g" % float(field)
                         for name, field in zip(names, line.split(",")))
        if again != line:
            found.append(f"{path} row {row}: {line!r} formats again as {again!r}")
    floats = [float(field) for line in lines
              for name, field in zip(names, line.split(",")) if name not in INTEGER_COLUMNS]
    if not any(abs(x) < 1e-14 for x in floats):
        found.append(f"{path}: no time below 1e-14")
    if not any(abs(x) >= 1e9 for x in floats):
        found.append(f"{path}: no time at or above 1e9")
    return found


if __name__ == "__main__":
    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, "wide.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(wide_config_text())
    if main(["simulate", "--config", config, "--reveal-latent", "--out", out_dir]) != 0:
        sys.exit(1)
    found = problems(os.path.join(out_dir, "dataset.csv"))
    if found:
        sys.exit("\n".join(found[:5]))
    print("every number formats again to itself")
