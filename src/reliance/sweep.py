"""Parameter sweeps and reference crossings over scenario parameters.

A sweep replaces one numeric leaf of the scenario (addressed by the dot-path
used in scenario JSON, e.g. ``"policy.p_accept"``) with each value of an
inclusive, equally spaced grid and evaluates the closed form at every point:

- ``model`` decides the grid's validity from the grid's two ends as floats,
  through the range and bound rules that validate a scenario: one leaf's
  valid values form an interval.  The swept leaf is clamped as
  ``as_probability`` clamps it.  Where an end is invalid, the first value
  ``validate_scenario`` would reject (the first end, or else the edge that
  bisection finds) aborts the sweep with those rules' own violations before
  the grid is built or evaluated.
- The closed form is ``analytic``'s kernel itself, so every accuracy is
  bit-identical to ``evaluate`` on that point's scenario.  It runs once on
  numpy arrays where numpy is loaded or the grid has more than
  ``_SCALAR_STEPS`` points; otherwise on each value as a float, as the
  crossing does, without importing numpy.

A reference crossing is screened the same way.  It is the linear root of
the gaps to the unaided rate at the grid's two ends, certified by one
evaluation tol/2 beside it: the closed form is affine in one leaf inside
the valid domain, so the ends also decide whether the grid crosses.
"""

from __future__ import annotations

import math
import numbers
import sys

from .analytic import _form, sensitivity  # sensitivity re-exported
from .model import (
    EvalResult,
    Scenario,
    SweepError,  # re-exported; defined in model so the CLI can catch it before importing sweep
    _FIELDS,
    _SHAPES,
    _Wire,
    _as_float,
    _clamped,
    _grid_leaves,
    _record,
)

# Every probability dot-path of the scenario schema.
_PATHS = frozenset(path for fields in _FIELDS.values() for _, path in fields)
# A cost bound, not a tuned knob: where numpy is not loaded yet, run_sweep
# evaluates a grid of at most this many points as floats rather than import
# it.  At 1.2-1.8 us a point (2-CPU x86-64 host) the float loop costs under
# 8 ms at the bound, against 65-90 ms to import numpy in a fresh process.
_SCALAR_STEPS = 4096


def _on_arrays(steps: int) -> bool:
    """Whether run_sweep evaluates its grid on numpy arrays: always once
    numpy is loaded, as arrays are the faster path from about 20 points up,
    and before that only for a grid large enough to repay importing it."""
    return "numpy" in sys.modules or steps > _SCALAR_STEPS


def _is_rate(value) -> bool:
    return -EvalResult._GUARD <= value <= 1.0 + EvalResult._GUARD


def _checked(where: str, is_valid, items: tuple) -> tuple:
    """`items`, unless one fails `is_valid`: then ValueError naming `where` and it."""
    for item in items:
        if not is_valid(item):
            raise ValueError(f"{where} cannot hold {item!r}")
    return items


def _each(is_valid):
    """The codec of a list of numbers, read as a tuple once each passes `is_valid`."""
    encode, read = _SHAPES["tuple[float, ...]"]
    return encode, lambda items, where: _checked(where, is_valid, read(items, where))


@_record
class SweepSpec:
    """One-dimensional sweep: which parameter to vary, over what grid.

    The grid is inclusive of both endpoints and equally spaced; `steps` is
    the number of grid points, an integer of at least 2.  `start` and `stop`
    may be any finite reals and are kept as floats, so every grid is one of
    floats whichever way it is evaluated.
    """

    base: Scenario
    parameter_path: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise SweepError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise SweepError(f"steps must be >= 2, got {self.steps}")
        for name in ("start", "stop"):
            bound = getattr(self, name)
            if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                raise SweepError(f"sweep {name} must be a number, got {bound!r}")
            if not math.isfinite(_as_float(bound)):
                raise SweepError(f"sweep {name} must be finite, got {bound!r}")
            object.__setattr__(self, name, float(bound))
        if not math.isfinite(self.stop - self.start):
            raise SweepError(f"sweep width overflows: stop {self.stop!r} - start {self.start!r}")

    def grid(self) -> list[float]:
        return self._grid().tolist()

    def _grid(self, i=None):
        # start + i * width, a loop's float operations: for every i, or the i given as a float
        width = (self.stop - self.start) / (self.steps - 1)
        if i is not None:
            return float(self.start + i * width)
        import numpy as np

        return self.start + np.arange(self.steps) * width


@_record
class SweepSeries(_Wire):
    """Accuracies along a sweep grid, with the two routine reference lines.

    A series has at least 2 points, each grid value finite and each accuracy
    and reference a rate in [0, 1], within EvalResult's guard for round-off;
    `from_dict` checks the grid and the accuracies, the record the rest.
    """

    parameter_path: str
    parameter_values: tuple[float, ...]
    accuracies: tuple[float, ...]
    unaided_reference: float
    routine_accept_reference: float

    _CODECS = {"parameter_values": _each(lambda v: math.isfinite(_as_float(v))), "accuracies": _each(_is_rate)}

    def __post_init__(self):
        points = len(self.parameter_values)
        if points != len(self.accuracies):
            raise ValueError("parameter_values and accuracies must have equal length")
        if points < 2:
            raise ValueError(f"SweepSeries parameter_values must hold at least 2 points, got {points}")
        if self.parameter_path not in _PATHS:
            raise ValueError(f"SweepSeries parameter_path {self.parameter_path!r} is no probability of the schema")
        for name in ("unaided_reference", "routine_accept_reference"):
            _checked(f"SweepSeries {name}", _is_rate, (getattr(self, name),))


def _swept(base: Scenario, path: str, leaves: dict):
    """The base's accuracy as a function of the value of the leaf at `path`,
    a float or an array, over the screened `leaves`: the form is picked once,
    and each value is clamped as the screen clamped it."""
    form = _form(type(base.policy), base.effective_degradation_mode, type(base.dependency))

    def accuracy_at(value):
        leaves[path] = _clamped(value)
        return form(leaves)

    return accuracy_at


def run_sweep(spec: SweepSpec) -> SweepSeries:
    """Evaluate the closed form at each grid point of the sweep.

    The grid's two ends are validated before the grid is built, and so
    every point between them; the first invalid grid value aborts the whole
    sweep, by name.  One DegradedRateWarning, reported at the caller's line,
    is issued if a point's post-rejection rate exceeds its unaided rate while
    the base scenario's does not.  The grid is evaluated in one pass over
    numpy arrays where numpy is loaded or the grid has more than
    `_SCALAR_STEPS` points, and otherwise value by value as floats, without
    importing numpy; both give the same bits.
    """
    leaves, _ = _grid_leaves(spec.base, spec.parameter_path, spec._grid, spec.steps)
    accuracy_at = _swept(spec.base, spec.parameter_path, leaves)
    if _on_arrays(spec.steps):
        import numpy as np

        array = spec._grid()
        # evaluated before the grid's floats are made: the other order ran up
        # to 12 % slower on 10,001-point sweeps
        accuracies = np.broadcast_to(accuracy_at(array), array.shape).tolist()
        grid = array.tolist()
    else:
        grid = [spec._grid(i) for i in range(spec.steps)]
        accuracies = map(accuracy_at, grid)
    return SweepSeries(
        parameter_path=spec.parameter_path,
        parameter_values=tuple(grid),
        accuracies=tuple(accuracies),
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
    leaves, ends = _grid_leaves(base, path, spec._grid, spec.steps)
    accuracy_at, reference = _swept(base, path, leaves), base.user.p_unaided_correct

    def gap(value: float) -> float:
        return accuracy_at(value) - reference

    gaps = [(value, gap(value)) for value in ends]
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
