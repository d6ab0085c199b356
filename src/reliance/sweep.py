"""Parameter sweeps and reference crossings over scenario parameters.

A sweep replaces one numeric leaf of the scenario (addressed by the dot-path
used in scenario JSON, e.g. ``"policy.p_accept"``) with each value of an
inclusive, equally spaced grid and evaluates the closed form at every point
in one numpy pass over the whole grid:

- ``model`` decides the grid's validity, as it decides a scenario's, from
  the grid's two ends as floats: one leaf's valid values form an interval.
  The swept leaf is clamped as ``as_probability`` clamps it.  Where an end
  is invalid, the first value ``validate_scenario`` would reject (the first
  end, or else the edge that bisection finds) aborts the sweep with the
  validator's own message before the grid is built or evaluated.
- The closed form is ``analytic``'s kernel itself, run on the arrays, so
  every accuracy is bit-identical to ``evaluate`` on that point's scenario.

A reference crossing is screened the same way.  It is the linear root of
the gaps to the unaided rate at the grid's two ends, certified by one
evaluation tol/2 beside it: the closed form is affine in one leaf inside
the valid domain, so the ends also decide whether the grid crosses.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .analytic import _accuracy, sensitivity  # sensitivity re-exported; it needs no numpy
from .model import (
    EvalResult,
    Scenario,
    SweepError,  # re-exported; defined in model so the CLI can catch it without numpy
    _FIELDS,
    _Wire,
    _as_float,
    _clamped,
    _grid_leaves,
    _record,
)

# Every probability dot-path of the scenario schema.
_PATHS = frozenset(path for fields in _FIELDS.values() for path in fields.values())


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(_as_float(value))


def _is_rate(value) -> bool:
    return _is_number(value) and -EvalResult._GUARD <= value <= 1.0 + EvalResult._GUARD


def _checked(name: str, is_valid, items) -> tuple:
    """`items` as a tuple, unless one fails `is_valid`: then ValueError naming
    `name` and the first such item."""
    items = tuple(items)
    for item in items:
        if not is_valid(item):
            raise ValueError(f"SweepSeries {name} cannot hold {item!r}")
    return items


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
            if not math.isfinite(_as_float(bound)):
                raise SweepError(f"sweep {name} must be finite, got {bound!r}")
        if not math.isfinite(self.stop - self.start):
            raise SweepError(f"sweep width overflows: stop {self.stop!r} - start {self.start!r}")

    def grid(self) -> list[float]:
        return self._grid().tolist()

    def _grid(self, i=None):
        # start + i * width, a loop's float operations: for every i, or the i given as a float
        width = (self.stop - self.start) / (self.steps - 1)
        return self.start + np.arange(self.steps) * width if i is None else float(self.start + i * width)

    def _ends(self) -> tuple[float, float]:
        return self._grid(0), self._grid(self.steps - 1)


@_record
class SweepSeries(_Wire):
    """Accuracies along a sweep grid, with the two routine reference lines.

    Each grid value is a finite number and each accuracy and reference a rate
    in [0, 1], within EvalResult's guard for round-off; `from_dict` checks the
    grid and the accuracies, the record its path and references.
    """

    parameter_path: str
    parameter_values: tuple[float, ...]
    accuracies: tuple[float, ...]
    unaided_reference: float
    routine_accept_reference: float

    _CODECS = {
        "parameter_values": (list, lambda items: _checked("parameter_values", _is_number, items)),
        "accuracies": (list, lambda items: _checked("accuracies", _is_rate, items)),
    }

    def __post_init__(self):
        if len(self.parameter_values) != len(self.accuracies):
            raise ValueError("parameter_values and accuracies must have equal length")
        if not isinstance(self.parameter_path, str) or self.parameter_path not in _PATHS:
            raise ValueError(f"SweepSeries parameter_path {self.parameter_path!r} is no probability of the schema")
        for name in ("unaided_reference", "routine_accept_reference"):
            _checked(name, _is_rate, (getattr(self, name),))


def run_sweep(spec: SweepSpec) -> SweepSeries:
    """Evaluate the closed form at each grid point of the sweep.

    The grid's two ends are validated before the grid is built, and so
    every point between them; the first invalid grid value aborts the whole
    sweep, by name.  One DegradedRateWarning, reported at the caller's line,
    is issued if a point's post-rejection rate exceeds its unaided rate while
    the base scenario's does not.
    """
    leaves = _grid_leaves(spec.base, spec.parameter_path, spec._grid, spec.steps)
    grid = spec._grid()
    leaves[spec.parameter_path] = _clamped(grid)
    accuracies = np.broadcast_to(_accuracy(spec.base, leaves), grid.shape)
    return SweepSeries(
        parameter_path=spec.parameter_path,
        parameter_values=tuple(grid.tolist()),
        accuracies=tuple(accuracies.tolist()),
        unaided_reference=spec.base.user.p_unaided_correct,
        routine_accept_reference=spec.base.aid.p_advice_correct,
    )


def find_reference_crossing(spec: SweepSpec, tol: float = 1e-9) -> float | None:
    """Parameter value where the swept accuracy crosses the unaided reference.

    Only the grid's two ends are validated and evaluated, as floats: one
    leaf's valid values form an interval, and the closed form is affine in the
    leaf inside it.  An invalid end aborts as `run_sweep` would, naming the
    grid's first invalid value, found by bisection where the first end is
    valid; a degraded end issues the one DegradedRateWarning.
    The first end whose gap to the base's unaided rate is zero is returned,
    and None when both end gaps have the same sign.  Otherwise the ends'
    linear root x is probed, and so is the point tol/2 from it towards the
    sign change: a zero or a sign change there puts a root within tol/2 of
    x, which is returned.  Where a clamp bends the line within the
    validation slack, the rest of the bracket is bisected to tol.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise SweepError(f"tol must be finite and > 0, got {tol!r}")
    base, path = spec.base, spec.parameter_path
    leaves = _grid_leaves(base, path, spec._grid, spec.steps)
    reference = base.user.p_unaided_correct

    def gap(value: float) -> float:
        leaves[path] = _clamped(value)
        return float(_accuracy(base, leaves)) - reference

    gaps = [(value, gap(value)) for value in spec._ends()]
    for value, g in gaps:
        if g == 0.0:
            return value
    (lo, g_lo), (hi, g_hi) = sorted(gaps)
    if (g_lo < 0.0) == (g_hi < 0.0):
        return None
    x = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
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
    lo, hi = (side, hi) if right else (lo, side)
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
