"""Accuracy of a decision maker who consults a fallible decision aid.

The library models a single decision as a joint draw of advisor correctness
and would-be user correctness, filtered through a reliance policy (routine
acceptance, routine ignoring, indiscriminate or discriminating attendance,
or self-gated use).  It provides exact closed forms, a seeded Monte Carlo
engine that independently checks them, parameter sweeps with exact
sensitivities, and policy comparison and break-even analyses.
"""

__version__ = "0.1.0"

from .analytic import (
    BreakevenResult,
    PolicyComparison,
    breakeven_discrimination,
    compare_policies,
    evaluate,
    potential_combined,
    sensitivity,
)
from .model import (
    AidProfile,
    ConstraintViolation,
    DegradedRateWarning,
    DependencyModel,
    Discriminating,
    Dominant,
    EvalResult,
    Independent,
    Indiscriminate,
    Joint,
    Probability,
    ReliancePolicy,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    ScenarioValidationError,
    SelfGated,
    SweepError,
    UserProfile,
    scenario_to_dict,
    validate_scenario,
)

# Names that load their module on first use.  The Monte Carlo engine needs
# numpy.  The sweeps need it only above `sweep._SCALAR_STEPS` points; they
# stay lazy because the closed-form commands do not use them.
_LAZY_MODULES = {
    "simulate": ("SimEstimate", "TrialOutcome", "estimate_accuracy", "sample_trial"),
    "sweep": ("SweepSeries", "SweepSpec", "find_reference_crossing", "run_sweep"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AidProfile",
    "BreakevenResult",
    "ConstraintViolation",
    "DegradedRateWarning",
    "DependencyModel",
    "Discriminating",
    "Dominant",
    "EvalResult",
    "Independent",
    "Indiscriminate",
    "Joint",
    "PolicyComparison",
    "Probability",
    "ReliancePolicy",
    "RoutineAccept",
    "RoutineIgnore",
    "Scenario",
    "ScenarioValidationError",
    "SelfGated",
    "SimEstimate",
    "SweepError",
    "SweepSeries",
    "SweepSpec",
    "TrialOutcome",
    "UserProfile",
    "breakeven_discrimination",
    "compare_policies",
    "estimate_accuracy",
    "evaluate",
    "find_reference_crossing",
    "potential_combined",
    "run_sweep",
    "sample_trial",
    "scenario_to_dict",
    "sensitivity",
    "validate_scenario",
]
