"""Run configuration: a strict INI document parsed into domain objects.

Sections and keys are validated against a fixed schema; unknown sections or
keys are errors, not warnings, because a silently ignored typo can corrupt a
whole Monte-Carlo study. The shipped default configuration encodes the
two-stratum demonstration scenario (50/50 strata, control rates 0.1/0.5,
research rates 0.05/0.25, 500 per arm).
"""

import configparser
from dataclasses import dataclass
from importlib import resources

from .estimands import _check_time
from .estimators import check_cutpoints
from .frailty import MixtureArm, TwoArmTruth, default_grid
from .trial import CENSORING_KINDS, CensoringSpec, TrialConfig, check_covariates

DEFAULT_SEED = 20260808

_SCHEMA = {
    "truth.control": {"weights", "rates"},
    "truth.research": {"weights", "rates"},
    "trial": {"n_per_arm", "coupling", "seed"},
    "censoring": {"kind", "admin_time", "rate"},
    "grid": {"min", "max", "points"},
    "fit": {"covariates", "cutpoints"},
    "estimands": {"landmark", "rmst_horizon", "ratio_time", "sensitivity_replicates"},
    "output": {"dir"},
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration; its truth is that of its trial."""

    trial: TrialConfig
    grid_min: float
    grid_max: float
    grid_points: int
    covariates: tuple
    cutpoints: tuple
    landmark: float
    rmst_horizon: float
    ratio_time: float
    sensitivity_replicates: int
    out_dir: str

    @property
    def truth(self):
        return self.trial.truth


def _parse_floats(raw, field):
    try:
        return tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{field}: expected a list of numbers, got {raw!r}") from None


def _get(parser, section, key, convert, default, field_kind="value"):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    try:
        return convert(raw)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{section}.{key}: invalid {field_kind} {raw!r}") from None


def _checked(where, check, *args, **kwargs):
    """check(*args, **kwargs), its ValueError re-raised naming `where`."""
    try:
        return check(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{where} {err}") from None


def parse_config(text, origin="<config>"):
    """Parse configuration text into a RunConfig, rejecting unknown keys.

    Every error is a ConfigError naming `origin` and the section or key.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text, source=origin)
        return _run_config(parser)
    except (configparser.Error, ConfigError) as err:
        raise ConfigError(f"{origin}: {err}") from None


def _run_config(parser):
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser.options(section)) - _SCHEMA[section]
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section [{section}]")

    arms = {}
    for label in ("control", "research"):
        section = f"truth.{label}"
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
        for key in ("weights", "rates"):
            if not parser.has_option(section, key):
                raise ConfigError(f"missing {section}.{key}")
        arms[label] = _checked(
            f"[{section}]", MixtureArm,
            weights=_parse_floats(parser.get(section, "weights"), f"{section}.weights"),
            rates=_parse_floats(parser.get(section, "rates"), f"{section}.rates"),
        )
    truth = TwoArmTruth(control=arms["control"], research=arms["research"])

    censoring = _checked(
        "[censoring]", CensoringSpec,
        admin_time=_get(parser, "censoring", "admin_time", float, None, "number"),
        rate=_get(parser, "censoring", "rate", float, None, "number"),
    )
    kind = _get(parser, "censoring", "kind", str, "none")
    if kind not in CENSORING_KINDS:
        raise ConfigError(f"[censoring] censoring kind must be one of {CENSORING_KINDS}, "
                          f"got {kind!r}")
    if kind != censoring.kind:
        raise ConfigError(f"[censoring] kind {kind!r} disagrees with the parameters "
                          f"given, which make it {censoring.kind!r}")
    trial = _checked(
        "[trial]", TrialConfig,
        truth=truth,
        n_per_arm=_get(parser, "trial", "n_per_arm", int, 500, "integer"),
        coupling=_get(parser, "trial", "coupling", str, "comonotone"),
        censoring=censoring,
        seed=_get(parser, "trial", "seed", int, DEFAULT_SEED, "integer"),
    )

    grid_min = _get(parser, "grid", "min", float, 0.0, "number")
    grid_max = _get(parser, "grid", "max", float, 30.0, "number")
    grid_points = _get(parser, "grid", "points", int, 601, "integer")
    _checked("[grid]", default_grid, grid_min, grid_max, grid_points)

    covariates = _checked(
        "fit.covariates:", check_covariates,
        _get(parser, "fit", "covariates", lambda raw: raw.replace(",", " ").split(),
             ["arm"]))
    cutpoints = _get(parser, "fit", "cutpoints",
                     lambda raw: _parse_floats(raw, "fit.cutpoints"), ())
    if cutpoints:
        cutpoints = _checked("fit.cutpoints:", check_cutpoints, cutpoints)

    landmark = _get(parser, "estimands", "landmark", float, 1.0, "number")
    rmst_horizon = _get(parser, "estimands", "rmst_horizon", float, 10.0, "number")
    ratio_time = _get(parser, "estimands", "ratio_time", float, landmark, "number")
    replicates = _get(parser, "estimands", "sensitivity_replicates", int, 200, "integer")
    for field, value in (("landmark", landmark), ("rmst_horizon", rmst_horizon),
                         ("ratio_time", ratio_time)):
        _checked(f"estimands.{field}:", _check_time, value, field)
    if replicates < 2:
        raise ConfigError("estimands.sensitivity_replicates must be >= 2")

    return RunConfig(
        trial=trial,
        grid_min=grid_min,
        grid_max=grid_max,
        grid_points=grid_points,
        covariates=covariates,
        cutpoints=cutpoints,
        landmark=landmark,
        rmst_horizon=rmst_horizon,
        ratio_time=ratio_time,
        sensitivity_replicates=replicates,
        out_dir=_get(parser, "output", "dir", str, "out"),
    )


def load_config(path):
    """Read and parse a configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text, origin=str(path))


def default_config_text():
    """Text of the shipped default configuration."""
    return resources.files("survmix").joinpath("data/default.cfg").read_text("utf-8")


def default_config():
    """The shipped demonstration scenario as a parsed RunConfig."""
    return parse_config(default_config_text(), origin="<default>")
