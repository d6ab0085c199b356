"""Parameter sweeps and sensitivity analysis over scenario parameters.

A sweep replaces one numeric leaf of the scenario (addressed by the dot-path
used in scenario JSON, e.g. ``"policy.p_accept"``) with each value of an
inclusive, equally spaced grid and evaluates the closed form at every point
in one numpy pass over the whole grid:

- The swept leaf is clamped as ``as_probability`` clamps it, and the grid is
  screened in the same pass for every value validation could reject (NaN,
  outside [0, 1], Frechet bounds or dominance past their slack).  Flagged
  values are re-validated by ``validate_scenario`` in grid order, so the
  first invalid value aborts the sweep with the validator's own message
  before anything is evaluated.
- The closed form is ``analytic``'s kernel itself, run on the arrays, so
  every accuracy is bit-identical to ``evaluate`` on that point's scenario.

Sensitivities are exact partials of the multilinear closed forms, guarded
in-process by central finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from .analytic import _accuracy, accuracy_from_parameters, accuracy_partials, free_parameters
from .model import (
    P_ADVICE,
    P_BOTH,
    P_POST_REJECT,
    P_UNAIDED,
    PROBABILITY_CLAMP,
    Scenario,
    ScenarioValidationError,
    SweepError,  # re-exported; defined in model so the CLI can catch it without numpy
    bound_violated,
    scenario_to_dict,
    validate_scenario,
)

# Central-difference step and required agreement for the sensitivity guard.
FD_STEP = 1e-6
FD_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep: which parameter to vary, over what grid.

    The grid is inclusive of both endpoints and equally spaced; `steps` is
    the number of grid points and must be at least 2.
    """

    base: Scenario
    parameter_path: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise SweepError(f"steps must be >= 2, got {self.steps}")
        for name in ("start", "stop"):
            bound = getattr(self, name)
            if not math.isfinite(bound):
                raise SweepError(f"sweep {name} must be finite, got {bound!r}")
        if not math.isfinite(self.stop - self.start):
            raise SweepError(f"sweep width overflows: stop {self.stop!r} - start {self.start!r}")

    def grid(self) -> list[float]:
        return self._grid().tolist()

    def _grid(self) -> np.ndarray:
        # start + i * width elementwise, the same float operations as a loop
        width = (self.stop - self.start) / (self.steps - 1)
        return self.start + np.arange(self.steps) * width


@dataclass(frozen=True)
class SweepSeries:
    """Accuracies along a sweep grid, with the two routine reference lines."""

    parameter_path: str
    parameter_values: tuple[float, ...]
    accuracies: tuple[float, ...]
    unaided_reference: float
    routine_accept_reference: float

    def __post_init__(self):
        if len(self.parameter_values) != len(self.accuracies):
            raise ValueError("parameter_values and accuracies must have equal length")

    def to_dict(self) -> dict[str, Any]:
        return {
            "parameter_path": self.parameter_path,
            "parameter_values": list(self.parameter_values),
            "accuracies": list(self.accuracies),
            "unaided_reference": self.unaided_reference,
            "routine_accept_reference": self.routine_accept_reference,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSeries":
        return cls(
            parameter_path=data["parameter_path"],
            parameter_values=tuple(data["parameter_values"]),
            accuracies=tuple(data["accuracies"]),
            unaided_reference=data["unaided_reference"],
            routine_accept_reference=data["routine_accept_reference"],
        )


def _resolve_path(base: Scenario, path: str) -> tuple[str, str]:
    """Split and check a dot-path against the scenario's canonical JSON form."""
    parts = path.split(".")
    canonical = scenario_to_dict(base)
    if len(parts) != 2 or parts[0] not in ("aid", "user", "policy", "dependency"):
        raise SweepError(f"parameter_path {path!r} not recognized")
    section, key = parts
    if key == "type" or key not in canonical[section]:
        raise SweepError(
            f"parameter_path {path!r} not applicable to this scenario "
            f"({section} is {canonical[section].get('type', section)!r})"
        )
    return section, key


def _clamped(values):
    """as_probability's clamp of overshoot within 1e-12 of [0, 1]; the rest passes."""
    values = np.where((values >= -PROBABILITY_CLAMP) & (values < 0.0), 0.0, values)
    return np.where((values > 1.0) & (values <= 1.0 + PROBABILITY_CLAMP), 1.0, values)


def _validate_grid(spec: SweepSpec, grid, leaves) -> None:
    """Raise SweepError naming the first grid value validation rejects.

    Only the values the vector screen flags go through validate_scenario,
    plus the first point whose post-rejection rate exceeds its unaided
    rate, so that its DegradedRateWarning is issued; a degraded base already
    warned when it was built, so it is not warned about again.
    """
    section, key = spec.parameter_path.split(".")
    # a superset of what validation rejects: outside [0, 1] after clamping,
    # or the dependency past its bound
    value = leaves[spec.parameter_path]
    check = ~((value >= 0.0) & (value <= 1.0)) | bound_violated(
        spec.base.dependency, leaves[P_ADVICE], leaves[P_UNAIDED], leaves.get(P_BOTH)
    )
    degraded = np.broadcast_to(leaves[P_POST_REJECT] > leaves[P_UNAIDED], grid.shape)
    user = spec.base.user
    if degraded.any() and not user.p_post_reject_correct > user.p_unaided_correct:
        check[degraded.argmax()] = True
    for value in grid[check].tolist():
        raw = scenario_to_dict(spec.base)
        raw[section][key] = value
        try:
            validate_scenario(raw)
        except ScenarioValidationError as err:
            raise SweepError(
                f"swept value {value!r} for {spec.parameter_path!r} is invalid: {err}"
            ) from err


def run_sweep(spec: SweepSpec) -> SweepSeries:
    """Evaluate the closed form at each grid point of the sweep.

    Every swept scenario is validated before any evaluation begins; the
    first invalid grid value aborts the whole sweep, by name.  One
    DegradedRateWarning is issued if a point's post-rejection rate exceeds
    its unaided rate while the base scenario's does not.
    """
    _resolve_path(spec.base, spec.parameter_path)
    grid = spec._grid()
    leaves = spec.base.leaves
    leaves[spec.parameter_path] = _clamped(grid)
    _validate_grid(spec, grid, leaves)
    accuracies = np.broadcast_to(_accuracy(spec.base, leaves), grid.shape)
    return SweepSeries(
        parameter_path=spec.parameter_path,
        parameter_values=tuple(grid.tolist()),
        accuracies=tuple(accuracies.tolist()),
        unaided_reference=spec.base.user.p_unaided_correct,
        routine_accept_reference=spec.base.aid.p_advice_correct,
    )


def find_reference_crossing(
    spec: SweepSpec, series: SweepSeries | None = None, tol: float = 1e-9
) -> float | None:
    """Parameter value where the swept accuracy crosses the unaided reference.

    Scans the series for a sign change between adjacent grid points, then
    bisects the analytic evaluation of the swept scenario down to `tol`.
    The two ends of the bracket are validated; the valid range of one leaf
    is an interval, so the midpoints between them are evaluated unvalidated.
    Returns None when the series never crosses the reference line.
    """
    if series is None:
        series = run_sweep(spec)
    _resolve_path(spec.base, spec.parameter_path)
    reference = series.unaided_reference
    leaves = spec.base.leaves

    def gap(value: float) -> float:
        leaves[spec.parameter_path] = _clamped(value)
        return float(_accuracy(spec.base, leaves)) - reference

    values = series.parameter_values
    gaps = [acc - reference for acc in series.accuracies]
    for i in range(len(values) - 1):
        if gaps[i] == 0.0:
            return values[i]
        if gaps[i] * gaps[i + 1] < 0.0:
            lo, hi = values[i], values[i + 1]
            bracket = np.array([lo, hi])
            leaves[spec.parameter_path] = _clamped(bracket)
            _validate_grid(spec, bracket, leaves)
            g_lo = gaps[i]
            while abs(hi - lo) > tol:
                mid = 0.5 * (lo + hi)
                g_mid = gap(mid)
                if g_mid == 0.0:
                    return mid
                if (g_lo < 0.0) == (g_mid < 0.0):
                    lo, g_lo = mid, g_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    if gaps and gaps[-1] == 0.0:
        return values[-1]
    return None


def sensitivity(scenario: Scenario) -> dict[str, float]:
    """Exact partial derivative of aided accuracy per free probability parameter.

    Keys are the scenario-JSON dot-paths of the parameters the active closed
    form reads.  The closed form is multilinear, so each partial is its
    value with the parameter at 1 minus its value at 0, as in
    ``accuracy_partials``.  Each partial is cross-checked in-process against
    a central finite difference (step 1e-6, agreement 1e-6 absolute); a
    mismatch means an implementation bug and raises ArithmeticError.
    """
    partials = accuracy_partials(scenario)
    values = free_parameters(scenario)
    for name, exact in partials.items():
        up = dict(values)
        down = dict(values)
        up[name] = values[name] + FD_STEP
        down[name] = values[name] - FD_STEP
        estimate = (
            accuracy_from_parameters(scenario, up) - accuracy_from_parameters(scenario, down)
        ) / (2.0 * FD_STEP)
        if abs(estimate - exact) > FD_TOLERANCE:
            raise ArithmeticError(
                f"partial for {name} disagrees with finite difference: "
                f"{exact!r} vs {estimate!r}"
            )
    return partials
