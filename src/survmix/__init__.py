"""survmix: exact frailty-mixture survival curves, trial simulation,
Cox/Kaplan-Meier estimation and causal estimands for two-arm comparisons."""

__version__ = "0.1.0"

from .estimands import (EstimandReport, EstimatedCurves, censoring_sensitivity,
                        landmark_contrast, log_survival_ratio, rmst)
from .estimators import (CoxFit, PeriodFit, StepCurve, breslow_baseline, cox_fit,
                         cox_fit_dataset, fit_report, kaplan_meier, nelson_aalen,
                         period_specific_cox)
from .frailty import (CurveTable, MixtureArm, TwoArmTruth, cumulative_hazard,
                      default_grid, hazard_ratio, limit_hazard_ratio,
                      marginal_density, marginal_hazard, marginal_survival,
                      survivor_composition, truth_curves)
from .trial import CensoringSpec, Dataset, TrialConfig, apply_censoring, simulate

__all__ = [
    "CensoringSpec", "CoxFit", "CurveTable", "Dataset", "EstimandReport",
    "EstimatedCurves", "MixtureArm", "PeriodFit",
    "StepCurve", "TrialConfig", "TwoArmTruth", "apply_censoring",
    "breslow_baseline", "censoring_sensitivity", "cox_fit", "cox_fit_dataset",
    "cumulative_hazard", "default_grid", "fit_report", "hazard_ratio",
    "kaplan_meier", "landmark_contrast", "limit_hazard_ratio",
    "log_survival_ratio", "marginal_density", "marginal_hazard",
    "marginal_survival", "nelson_aalen", "period_specific_cox", "rmst",
    "simulate", "survivor_composition", "truth_curves",
]
