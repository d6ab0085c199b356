"""Parameter sweeps and reference crossings over scenario parameters.

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

A reference crossing is the linear root of the grid cell where the accuracy
crosses the unaided rate, certified by one evaluation tol/2 beside it: the
closed form is affine in one leaf inside the valid domain.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .analytic import _accuracy, sensitivity  # sensitivity re-exported; it needs no numpy
from .model import (
    P_ADVICE,
    P_BOTH,
    P_POST_REJECT,
    P_UNAIDED,
    PROBABILITY_CLAMP,
    Scenario,
    ScenarioValidationError,
    SweepError,  # re-exported; defined in model so the CLI can catch it without numpy
    _SECTIONS,
    _TUPLE,
    _WIRE_NAMES,
    _Wire,
    _record,
    _warn_degraded_rate,
    _where,
    bound_violated,
    scenario_to_dict,
    validate_scenario,
)

@_record
class SweepSpec:
    """One-dimensional sweep: which parameter to vary, over what grid.

    The grid is inclusive of both endpoints and equally spaced; `steps` is
    the number of grid points, an integer of at least 2.
    """

    base: Scenario
    parameter_path: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise SweepError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise SweepError(f"steps must be >= 2, got {self.steps}")
        for name in ("start", "stop"):
            bound = getattr(self, name)
            if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                raise SweepError(f"sweep {name} must be a number, got {bound!r}")
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


@_record
class SweepSeries(_Wire):
    """Accuracies along a sweep grid, with the two routine reference lines."""

    parameter_path: str
    parameter_values: tuple[float, ...]
    accuracies: tuple[float, ...]
    unaided_reference: float
    routine_accept_reference: float

    _CODECS = {"parameter_values": _TUPLE, "accuracies": _TUPLE}

    def __post_init__(self):
        if len(self.parameter_values) != len(self.accuracies):
            raise ValueError("parameter_values and accuracies must have equal length")


def _resolve_path(base: Scenario, path: str) -> None:
    """Check a dot-path against the scenario's probability leaves."""
    section = path.split(".")[0]
    if path.count(".") != 1 or section not in _SECTIONS:
        raise SweepError(f"parameter_path {path!r} not recognized")
    if path not in base.leaves:
        kind = _WIRE_NAMES.get(type(getattr(base, section)), section)
        raise SweepError(
            f"parameter_path {path!r} not applicable to this scenario ({section} is {kind!r})"
        )


def _clamped(values):
    """as_probability's clamp of overshoot within 1e-12 of [0, 1], on floats or arrays."""
    values = _where((values >= -PROBABILITY_CLAMP) & (values < 0.0), 0.0, values)
    return _where((values > 1.0) & (values <= 1.0 + PROBABILITY_CLAMP), 1.0, values)


def _validate_grid(spec: SweepSpec, grid, leaves) -> None:
    """Raise SweepError naming the first grid value validation rejects.

    Only the values the vector screen flags go through validate_scenario.
    A valid grid with a point whose post-rejection rate exceeds its unaided
    rate issues one DegradedRateWarning; a degraded base already warned when
    it was built, so it is not warned about again.
    """
    section, key = spec.parameter_path.split(".")
    # a superset of what validation rejects: outside [0, 1] after clamping,
    # or the dependency past its bound
    value = leaves[spec.parameter_path]
    check = ~((value >= 0.0) & (value <= 1.0)) | bound_violated(
        spec.base.dependency, leaves[P_ADVICE], leaves[P_UNAIDED], leaves.get(P_BOTH)
    )
    for value in grid[check].tolist():
        raw = scenario_to_dict(spec.base)
        raw[section][key] = value
        try:
            validate_scenario(raw)
        except ScenarioValidationError as err:
            raise SweepError(
                f"swept value {value!r} for {spec.parameter_path!r} is invalid: {err}"
            ) from err
    user = spec.base.user
    if np.any(leaves[P_POST_REJECT] > leaves[P_UNAIDED]) and not (
        user.p_post_reject_correct > user.p_unaided_correct
    ):
        _warn_degraded_rate()


def run_sweep(spec: SweepSpec) -> SweepSeries:
    """Evaluate the closed form at each grid point of the sweep.

    Every swept scenario is validated before any evaluation begins; the
    first invalid grid value aborts the whole sweep, by name.  One
    DegradedRateWarning, reported at the caller's line, is issued if a
    point's post-rejection rate exceeds its unaided rate while the base
    scenario's does not.
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
    probes the bracket's linear root x and the point tol/2 from it towards
    the sign change: a zero or a sign change there puts a root within tol/2
    of x, which is returned.  Where a clamp bends the line, the bracket
    shrinks past both probes and the next x is the root of the line through
    them, or the bracket's midpoint if that root falls outside.  Only the
    ends of a bracket from a caller's series are validated: the valid range
    of one leaf is an interval.  Returns None when the series never crosses
    the reference line.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise SweepError(f"tol must be finite and > 0, got {tol!r}")
    foreign = series is not None
    if foreign:
        _resolve_path(spec.base, spec.parameter_path)
    else:
        series = run_sweep(spec)  # validates every grid value, bracket ends included
    reference = series.unaided_reference
    leaves = spec.base.leaves

    def gap(value: float) -> float:
        leaves[spec.parameter_path] = _clamped(value)
        return float(_accuracy(spec.base, leaves)) - reference

    values = series.parameter_values
    gaps = [acc - reference for acc in series.accuracies]
    for i, (g, g_next) in enumerate(zip(gaps, gaps[1:])):
        if g == 0.0:
            return values[i]
        if g_next != 0.0 and (g < 0.0) != (g_next < 0.0):  # no product to underflow
            if foreign:
                bracket = np.array(values[i : i + 2])
                leaves[spec.parameter_path] = _clamped(bracket)
                _validate_grid(spec, bracket, leaves)
            (lo, g_lo), (hi, g_hi) = sorted(zip(values[i : i + 2], gaps[i : i + 2]))
            x, mid = lo + (hi - lo) * (g_lo / (g_lo - g_hi)), 0.5 * (lo + hi)
            while hi - lo > tol and lo < mid < hi:
                if not lo < x < hi:
                    x = mid
                g_x = gap(x)
                if g_x == 0.0:
                    return x
                # tol/2 from x towards the sign change; past an end, the end is that near
                right = (g_x < 0.0) == (g_lo < 0.0)
                side = x + 0.5 * tol if right else x - 0.5 * tol
                if not lo < side < hi:
                    return x
                g_side = gap(side)
                if g_side == 0.0 or (g_side < 0.0) != (g_x < 0.0):
                    return x
                if right:
                    lo, g_lo = side, g_side
                else:
                    hi, g_hi = side, g_side
                # the root of the line through the last two gaps, else the midpoint
                mid = 0.5 * (lo + hi)
                x = side - g_side * ((side - x) / (g_side - g_x)) if g_side != g_x else mid
            return mid
    if gaps and gaps[-1] == 0.0:
        return values[-1]
    return None
