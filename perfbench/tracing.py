"""Timing spans at the points where one survmix module calls another.

`Tracer.install` replaces public names with wrappers that record a span per
call: its name, start, end and the span that was open when it began. A span's
name is the module doing the work, then the function, whoever the caller is.
The wrappers also count the work that passed through them. Spans stay in
memory until the run ends. Only the traced pass installs the wrappers; the
timed loop runs the unmodified package.
"""

import functools
import importlib
import os
import time
from collections import Counter

# (module, attribute, span name); the attribute is looked up on the module, so
# a wrapper sees exactly the calls made through that module's name for it.
BOUNDARIES = [
    ("survmix.cli", "load_config", "config.load_config"),
    ("survmix.cli", "simulate", "trial.simulate"),
    ("survmix.cli", "write_dataset", "cli.write_dataset"),
    ("survmix.cli", "read_dataset_csv", "cli.read_dataset_csv"),
    ("survmix.cli", "cox_fit", "estimators.cox_fit"),
    ("survmix.cli", "period_specific_cox", "estimators.period_specific_cox"),
    ("survmix.cli", "truth_curves", "frailty.truth_curves"),
    ("survmix.cli", "write_curve_tables", "cli.write_curve_tables"),
    ("survmix.cli", "censoring_sensitivity", "estimands.censoring_sensitivity"),
    ("survmix.estimands", "simulate", "trial.simulate"),
    ("survmix.estimands", "cox_fit_dataset", "estimators.cox_fit_dataset"),
    ("survmix.estimands", "kaplan_meier", "estimators.kaplan_meier"),
    ("survmix.estimands", "EstimatedCurves.from_sample", "estimands.from_sample"),
    ("survmix.estimators", "cox_fit", "estimators.cox_fit"),
    ("survmix.trial", "apply_censoring", "trial.apply_censoring"),
    ("survmix.rng", "substream_uniforms", "rng.substream_uniforms"),
    ("survmix.rng", "derive_seed", "rng.derive_seed"),
]

LAYERS = ("cli", "config", "rng", "trial", "frailty", "estimators", "estimands")
ROOT = "cli.main:"  # a root span per CLI call, named after the command


def _count_cox(counts, args, fit):
    counts["estimators.cox_fits"] += 1
    counts["estimators.cox_iterations"] += fit.iterations
    counts["estimators.cox_converged"] += int(fit.converged)
    counts["estimators.events"] += fit.n_events


def _count_sensitivity(counts, args, rows):
    counts["estimands.replicates_ok"] += sum(r.n_ok for r in rows)
    counts["estimands.replicates_failed"] += sum(r.n_failed for r in rows)


# span name -> counter(counts, call args, result), run after a call returns
COUNTERS = {
    "rng.substream_uniforms": lambda c, a, r: c.update({"rng.draws": r.size}),
    "cli.write_dataset": lambda c, a, r: c.update({
        "cli.rows_written": len(a[0]), "cli.bytes_written": os.path.getsize(r)}),
    "cli.write_curve_tables": lambda c, a, r: c.update({
        "cli.bytes_written": sum(os.path.getsize(p) for p in r)}),
    "cli.read_dataset_csv": lambda c, a, r: c.update({"cli.rows_parsed": len(r["id"])}),
    "frailty.truth_curves": lambda c, a, r: c.update({
        "frailty.strata_points":
            (a[0].control.n_strata + a[0].research.n_strata) * len(a[1])}),
    "estimators.cox_fit": _count_cox,
    "estimands.censoring_sensitivity": _count_sensitivity,
}


class Tracer:
    """Spans as [name, parent index, start, end] plus counts, in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        index = len(self.spans)
        span = [name, self._open[-1] if self._open else None, 0.0, 0.0]
        self.spans.append(span)
        self._open.append(index)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts, args, result)
        return result

    def install(self):
        """Wrap every boundary of the imported survmix package."""
        for module, attribute, name in BOUNDARIES:
            owner = importlib.import_module(module)
            *path, attr = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)  # a classmethod comes back bound
            wrapper = functools.wraps(original)(
                functools.partial(self.call, name, original))
            setattr(owner, attr, staticmethod(wrapper) if path else wrapper)

    def summary(self, first=0):
        """Over the spans recorded since index `first`: inclusive seconds per
        span name, self seconds per layer, and per command its wall seconds
        and the seconds its child spans cover."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent is not None:
                child_time[parent - first] += end - start
        inclusive, self_time, commands = Counter(), Counter(), {}
        for (name, parent, start, end), covered in zip(spans, child_time):
            inclusive[name] += end - start
            self_time[name.split(".")[0]] += end - start - covered
            if name.startswith(ROOT):
                wall, total = commands.get(name[len(ROOT):], (0.0, 0.0))
                commands[name[len(ROOT):]] = (wall + end - start, total + covered)
        return inclusive, self_time, commands

    def records(self):
        """Spans as dicts, with times relative to the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [{"name": name, "parent": parent, "start": start - t0, "end": end - t0}
                for name, parent, start, end in self.spans]
