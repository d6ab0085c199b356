"""Closed-form aided accuracy for every reliance policy, plus derived quantities.

One kernel states the model, in masses, so that nothing divides.  One
decision is a draw over the four latent cells (advice right or wrong x
solving alone right or wrong), and each policy gives a row per advice cell:
the cell's mass, the mass where the advice is used, the chances it is left
unused when solving alone would be right and when wrong, and the mass where
solving alone is right.  The rows give `evaluate`'s eight-cell outcome
table, headline and use rate, the policy comparison, break-even's intercept
and slope, the sweep arrays and `sensitivity`, on floats and numpy arrays
alike without importing numpy.  The one difference between readings:
`sensitivity` reads P(both correct) unclamped, so that its form stays
multilinear a step past a bound.  Every result is an EvalResult carrying the
full outcome decomposition, so the Monte Carlo engine can check it cell by
cell.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from operator import itemgetter
from typing import Any

from .model import (
    DEGRADATION_MODES,
    FIXED_RATE,
    OUTCOME_CELLS,
    P_ADVICE,
    P_BOTH,
    P_POST_REJECT,
    P_UNAIDED,
    AidProfile,
    DependencyModel,
    Discriminating,
    Dominant,
    EvalResult,
    Independent,
    Indiscriminate,
    Joint,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    SelfGated,
    UserProfile,
    _JOINT_SUCCESS,
    _Wire,
    _as_float,
    _check_sections,
    _is_number,
    _reader,
    _record,
    joint_success_probability,
    policy_name,
    resolve_degradation_mode,
)

# Two accuracies within this distance are treated as tied.
TIE_TOLERANCE = 1e-12
# Central-difference step and required agreement for the sensitivity guard.
FD_STEP = 1e-6
FD_TOLERANCE = 1e-6
# A routine policy's headline is this leaf, exactly.
_ROUTINE = {RoutineAccept: P_ADVICE, RoutineIgnore: P_UNAIDED}
# An attending policy decides on the advice, then solves at the mode's rate.
_ATTENDING = (Indiscriminate, Discriminating)
# A policy's two rates from the leaves: of using correct and wrong advice (a
# blind policy's one rate twice), or, self-gated, of ignoring the advice when
# right alone and of using it when wrong alone.
_RATES = {
    RoutineAccept: lambda v: (1.0, 1.0),
    RoutineIgnore: lambda v: (0.0, 0.0),
    Indiscriminate: itemgetter("policy.p_accept", "policy.p_accept"),
    Discriminating: itemgetter("policy.p_accept_given_correct", "policy.p_accept_given_wrong"),
    SelfGated: itemgetter("policy.p_ignore_given_user_correct", "policy.p_use_given_user_wrong"),
}
# P(both correct) read raw, unclamped, per dependency class.
_RAW_JOINT = {
    Independent: _JOINT_SUCCESS[Independent],
    Dominant: itemgetter(P_UNAIDED),
    Joint: itemgetter(P_BOTH),
}


@cache
def _kernel(kind: type, mode: str, dependency: type, clamp: bool = True):
    """The rows of policy class `kind` as a function of the leaves, chosen once.

    A row per advice cell, correct then wrong, is (mass, used, keep_right,
    keep_wrong, right): the cell's mass, the mass of the cell where the
    advice is used, the chances it is left unused when solving alone would
    be right and when wrong, and the mass where solving alone is right (p11
    and p_u - p11, or p_a * r and (1 - p_a) * r for an attending policy under
    fixed_rate).  Nothing divides, on floats or arrays.  P(both correct) is
    clamped to its bounds, or read raw (p_a * p_u, p_u or p_both) if not `clamp`.
    """
    gated = kind is SelfGated
    fixed = kind in _ATTENDING and mode == FIXED_RATE
    rates = _RATES[kind]
    joint = (_JOINT_SUCCESS if clamp else _RAW_JOINT)[dependency]

    def rows(v: Mapping[str, Any]):
        p_a = v[P_ADVICE]
        m_w = 1.0 - p_a
        if fixed:
            r = v[P_POST_REJECT]
            right_c, right_w = p_a * r, m_w * r
        else:
            right_c = joint(v)
            right_w = v[P_UNAIDED] - right_c
        x_c, x_w = rates(v)
        if gated:
            use, keep_wrong = 1.0 - x_c, 1.0 - x_w
            return (
                (p_a, use * right_c + x_w * (p_a - right_c), x_c, keep_wrong, right_c),
                (m_w, use * right_w + x_w * (m_w - right_w), x_c, keep_wrong, right_w),
            )
        keep_c, keep_w = 1.0 - x_c, 1.0 - x_w
        return (p_a, p_a * x_c, keep_c, keep_c, right_c), (m_w, m_w * x_w, keep_w, keep_w, right_w)

    return rows


def _correct(rows) -> Any:
    """P(final answer correct): correct advice used, plus right alone, in table order."""
    (_, used, keep_c, _, right_c), (_, _, keep_w, _, right_w) = rows
    return used + keep_c * right_c + keep_w * right_w


@cache
def _form(kind: type, mode: str, dependency: type, clamp: bool = True):
    """The headline accuracy of policy class `kind` as a function of the
    leaves; a routine policy's is its leaf, exactly."""
    if kind in _ROUTINE:
        return itemgetter(_ROUTINE[kind])
    rows = _kernel(kind, mode, dependency, clamp)
    return lambda v: _correct(rows(v))


def _with_p11(scenario: Scenario) -> dict[str, float]:
    """The scenario's leaves, with P_BOTH set to the clamped P(both correct)
    its dependency implies, computed once for the policies evaluated on them."""
    v = scenario.leaves
    v[P_BOTH] = joint_success_probability(scenario.dependency, v)
    return v


def _result(scenario: Scenario, kind: type, v: Mapping[str, Any]) -> EvalResult:
    """The EvalResult of policy class `kind` in the scenario, at the leaves
    `v` of `_with_p11`, whose P_BOTH is read as it is, already clamped."""
    mode = scenario.effective_degradation_mode
    rows = _kernel(kind, mode, Joint, False)(v)
    (m_c, used_c, right_kept_c, wrong_kept_c, right_c), (m_w, used_w, right_kept_w, wrong_kept_w, right_w) = rows
    masses = (  # in OUTCOME_CELLS order
        used_c, 0.0, right_kept_c * right_c, wrong_kept_c * (m_c - right_c),
        0.0, used_w, right_kept_w * right_w, wrong_kept_w * (m_w - right_w),
    )
    # floored: at a bound the validation slack admits, a mass can read -1 ulp
    table = {cell: p if p > 0.0 else 0.0 for cell, p in zip(OUTCOME_CELLS, masses)}
    # p_a + (1 - p_a) rounds to 1, so the routine use rates are 1.0 and 0.0 exactly
    accuracy = v[_ROUTINE[kind]] if kind in _ROUTINE else _correct(rows)
    notes = ()
    if kind in _ATTENDING and scenario.degradation_mode is None:
        notes = (f"degradation_mode defaulted to {mode}",)
    return EvalResult(accuracy, table, used_c + used_w, notes)


def evaluate(scenario: Scenario) -> EvalResult:
    """Closed-form accuracy for whatever policy the scenario configures."""
    return _result(scenario, type(scenario.policy), _with_p11(scenario))


def potential_combined(
    aid: AidProfile, user: UserProfile, dependency: DependencyModel
) -> float:
    """P(at least one of advisor and unaided user is correct): the accuracy ceiling."""
    v = _check_sections("potential_combined", aid=aid, user=user, dependency=dependency)
    return v[P_ADVICE] + v[P_UNAIDED] - joint_success_probability(dependency, v)


@_record
class PolicyComparison(_Wire):
    """The configured policy against both routine baselines.

    Attributes:
        results: EvalResult per compared policy, keyed by policy wire name.
        configured_policy: wire name of the scenario's own policy.
        best_policy: wire name attaining the highest aided accuracy; ties
            within 1e-12 go to routine_ignore, then routine_accept, then the
            configured policy (least machinery first).
        margins: best accuracy minus each policy's accuracy (>= 0).
        notes: caveats, including how any tie was broken.
    """

    results: dict[str, EvalResult]
    configured_policy: str
    best_policy: str
    margins: dict[str, float]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        for role in ("configured_policy", "best_policy"):
            if getattr(self, role) not in self.results:
                raise ValueError(f"{role} {getattr(self, role)!r} has no result")
        if self.margins.keys() != self.results.keys():
            raise ValueError("margins must name exactly the compared policies")
        best = self.results[self.best_policy].p_correct_aided
        top = max(r.p_correct_aided for r in self.results.values())
        if best < top - TIE_TOLERANCE:
            raise ValueError("best_policy does not attain the maximum accuracy")
        for name, margin in self.margins.items():
            if not margin >= 0.0:
                raise ValueError("margins must be >= 0")
            if abs(_as_float(margin) - (best - self.results[name].p_correct_aided)) > EvalResult._GUARD:
                raise ValueError(f"margin {margin!r} for {name} is not the best accuracy minus its own")


def compare_policies(scenario: Scenario) -> PolicyComparison:
    """Evaluate the configured policy next to routine acceptance and routine
    ignoring.  The three read one clamped P(both correct) (`_with_p11`) and
    the scenario's one resolved mode; each result is checked as it is built."""
    configured = policy_name(scenario.policy)
    v = _with_p11(scenario)
    results: dict[str, EvalResult] = {
        "routine_ignore": _result(scenario, RoutineIgnore, v),
        "routine_accept": _result(scenario, RoutineAccept, v),
    }
    if configured not in results:
        results[configured] = _result(scenario, type(scenario.policy), v)

    accuracy = {name: r.p_correct_aided for name, r in results.items()}
    top = max(accuracy.values())
    # `accuracy` is in tie precedence, the least machinery first
    for best, best_acc in accuracy.items():
        if best_acc >= top - TIE_TOLERANCE:
            break
    tied = [name for name, a in accuracy.items() if name != best and abs(a - best_acc) <= TIE_TOLERANCE]
    notes = ()
    if tied:
        notes = (
            "tie within 1e-12 broken by precedence routine_ignore > routine_accept "
            f"> configured: chose {best} over {', '.join(sorted(tied))}",
        )
    margins = {name: max(0.0, best_acc - a) for name, a in accuracy.items()}
    return PolicyComparison(results, configured, best, margins, notes)


@_record
class BreakevenResult(_Wire):
    """Smallest symmetric discrimination matching the better routine policy.

    Discrimination d means accepting correct advice with probability d and
    wrong advice with probability 1 - d, for d in [0.5, 1].  `d_star` is None
    when even perfect discrimination (d = 1) falls short of the target.
    """

    d_star: float | None
    target: float
    accuracy_at_d_star: float | None
    degradation_mode: str

    _CODECS = {
        "d_star": (
            lambda d: "unattainable" if d is None else d,
            _reader("a number or 'unattainable'", lambda d: d == "unattainable" or _is_number(d),
                    lambda d: None if d == "unattainable" else d),
        )
    }

    def __post_init__(self):
        if self.degradation_mode not in DEGRADATION_MODES:
            modes = ", ".join(DEGRADATION_MODES)
            raise ValueError(f"degradation_mode {self.degradation_mode!r} is not one of {modes}")
        if self.d_star is not None and not 0.5 <= self.d_star <= 1.0:
            raise ValueError(f"d_star {self.d_star!r} not in [0.5, 1]")
        if not 0.0 <= self.target <= 1.0:
            raise ValueError(f"target {self.target!r} not in [0, 1]")
        if (self.accuracy_at_d_star is None) != (self.d_star is None):
            raise ValueError("accuracy_at_d_star must be None exactly when d_star is")
        accuracy = self.accuracy_at_d_star
        if accuracy is not None and not max(0.0, self.target - EvalResult._GUARD) <= accuracy <= 1.0:
            raise ValueError(f"accuracy_at_d_star {accuracy!r} not in [max(0, target - 1e-9), 1]")

    @property
    def attainable(self) -> bool:
        return self.d_star is not None


def breakeven_discrimination(
    aid: AidProfile,
    user: UserProfile,
    dependency: DependencyModel,
    mode: str | None = None,
) -> BreakevenResult:
    """Solve for the discrimination level where attending stops being a loss.

    The discriminating accuracy is affine in d, so the weak break-even
    (accuracy >= max of the two routine policies) has a closed-form solution;
    comparisons carry a 1e-12 slack so exact boundary cases resolve cleanly.
    """
    v = _check_sections("breakeven_discrimination", mode, aid=aid, user=user, dependency=dependency)
    mode = resolve_degradation_mode(mode, dependency)
    target = max(aid.p_advice_correct, user.p_unaided_correct)
    # at discrimination d the rows give d * p_a + (1 - d) * right_c + d * right_w
    v["policy.p_accept_given_correct"], v["policy.p_accept_given_wrong"] = 0.0, 1.0
    (p_a, _, _, _, right_c), (_, _, _, _, right_w) = _kernel(Discriminating, mode, type(dependency))(v)
    intercept, slope = right_c, p_a - right_c + right_w

    def accuracy_at(d: float) -> float:
        return intercept + slope * d

    if accuracy_at(0.5) >= target - TIE_TOLERANCE:
        d_star = 0.5
    elif accuracy_at(1.0) < target - TIE_TOLERANCE:  # every slope <= 0 too, so the division below is safe
        return BreakevenResult(None, target, None, mode)
    else:
        d_star = min(1.0, max(0.5, (target - intercept) / slope))
    return BreakevenResult(d_star, target, accuracy_at(d_star), mode)


# --- sensitivity ----------------------------------------------------------
#
# The partials need the closed forms as plain multilinear functions of their
# free parameters, with no range validation: central finite differences step
# 1e-6 past a boundary, where Probability construction would reject.
# Parameters are keyed by the dot-paths used in scenario JSON (e.g.
# "policy.p_accept").


def free_parameters(scenario: Scenario) -> dict[str, float]:
    """The probability parameters the scenario's closed form actually reads."""
    values = scenario.leaves
    kind = type(scenario.policy)
    if kind in _ROUTINE:
        return {_ROUTINE[kind]: values[_ROUTINE[kind]]}
    fixed = kind in _ATTENDING and scenario.effective_degradation_mode == FIXED_RATE
    for name in (P_UNAIDED, P_BOTH) if fixed else (P_POST_REJECT,):
        values.pop(name, None)
    return values


def sensitivity(scenario: Scenario) -> dict[str, float]:
    """Exact partial derivative of aided accuracy per free probability parameter.

    Keys are the scenario-JSON dot-paths of the parameters the active closed
    form reads.  The closed form is multilinear, so each partial is its
    value with the parameter at 1 minus its value at 0.  Each partial is
    cross-checked in-process against a central finite difference (step
    1e-6, agreement 1e-6 absolute); a mismatch means an implementation bug
    and raises ArithmeticError.
    """
    values = free_parameters(scenario)
    form = _form(type(scenario.policy), scenario.effective_degradation_mode, type(scenario.dependency), False)
    partials = {}
    for name, x in values.items():
        # one working dict: the parameter is set in place, then restored
        f = []
        for point in (1.0, 0.0, x + FD_STEP, x - FD_STEP):
            values[name] = point
            f.append(form(values))
        values[name] = x
        exact, estimate = f[0] - f[1], (f[2] - f[3]) / (2.0 * FD_STEP)
        if abs(estimate - exact) > FD_TOLERANCE:
            raise ArithmeticError(
                f"partial for {name} disagrees with finite difference: "
                f"{exact!r} vs {estimate!r}"
            )
        partials[name] = exact
    return partials
