"""Closed-form aided accuracy for every reliance policy, plus derived quantities.

All operations are pure functions of immutable inputs.  Each accuracy is
returned as an EvalResult carrying the full eight-cell outcome decomposition,
so downstream checks (and the Monte Carlo engine) can compare cell by cell
rather than only the headline number.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Any

from .model import (
    CONDITIONAL_FROM_JOINT,
    FIXED_RATE,
    OUTCOME_CELLS,
    AidProfile,
    DependencyModel,
    Discriminating,
    Dominant,
    EvalResult,
    Independent,
    Indiscriminate,
    Joint,
    ReliancePolicy,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    ScenarioValidationError,
    SelfGated,
    UserProfile,
    conditional_rates_for,
    conditional_user_rates,
    dependency_violations,
    joint_success_probability,
    policy_name,
)

# Two accuracies within this distance are treated as tied.
TIE_TOLERANCE = 1e-12


class PolicyMismatchError(TypeError):
    """An operation was handed a scenario with the wrong policy variant."""


class AnalyticUnavailableError(ValueError):
    """No closed form covers this scenario; use the Monte Carlo engine instead."""


def _require_self_gated_closed_form(scenario: Scenario) -> None:
    if not isinstance(scenario.dependency, Independent):
        raise AnalyticUnavailableError(
            "self_gated accuracy has no closed form under a joint or dominant "
            "dependency (the gate is assumed independent of advice quality); "
            "use reliance.simulate.estimate_accuracy"
        )


def _mode_and_notes(scenario: Scenario) -> tuple[str, list[str]]:
    mode = scenario.effective_degradation_mode
    notes = []
    if scenario.degradation_mode is None:
        notes.append(f"degradation_mode defaulted to {mode}")
    return mode, notes


def _post_reject_rates(scenario: Scenario) -> tuple[float, float, list[str]]:
    """Resolve (rate | advice correct, rate | advice wrong) after a rejection."""
    mode, notes = _mode_and_notes(scenario)
    if mode == FIXED_RATE:
        r = scenario.user.p_post_reject_correct
        return r, r, notes
    u_c, u_w = conditional_user_rates(scenario)
    return u_c, u_w, notes


def _attend_result(scenario: Scenario, ac: float, aw: float) -> EvalResult:
    """Outcome decomposition for attend-then-accept-or-reject policies.

    ac and aw are the acceptance rates given correct and wrong advice; on a
    rejection the user solves alone at the degradation-mode-resolved rate.
    """
    p_a = scenario.aid.p_advice_correct
    u_c, u_w, notes = _post_reject_rates(scenario)
    table = {
        (True, True, True): p_a * ac,
        (True, True, False): 0.0,
        (True, False, True): p_a * (1.0 - ac) * u_c,
        (True, False, False): p_a * (1.0 - ac) * (1.0 - u_c),
        (False, True, True): 0.0,
        (False, True, False): (1.0 - p_a) * aw,
        (False, False, True): (1.0 - p_a) * (1.0 - aw) * u_w,
        (False, False, False): (1.0 - p_a) * (1.0 - aw) * (1.0 - u_w),
    }
    p_correct = table[(True, True, True)] + table[(True, False, True)] + table[(False, False, True)]
    return EvalResult(
        p_correct_aided=p_correct,
        outcome_table=table,
        p_accept_marginal=ac * p_a + aw * (1.0 - p_a),
        notes=tuple(notes),
    )


def indiscriminate_accuracy(scenario: Scenario) -> EvalResult:
    """Accuracy when advice is attended but acceptance is blind to its quality.

    With acceptance probability p and post-rejection rate r this is
    p_advice_correct * p + r * (1 - p) under the fixed-rate mode.
    """
    policy = scenario.policy
    if not isinstance(policy, Indiscriminate):
        raise PolicyMismatchError(
            f"indiscriminate_accuracy requires an indiscriminate policy, "
            f"got {policy_name(policy)}"
        )
    return _attend_result(scenario, policy.p_accept, policy.p_accept)


def discriminating_accuracy(scenario: Scenario) -> EvalResult:
    """Accuracy when acceptance depends on whether the advice is actually correct."""
    policy = scenario.policy
    if not isinstance(policy, Discriminating):
        raise PolicyMismatchError(
            f"discriminating_accuracy requires a discriminating policy, "
            f"got {policy_name(policy)}"
        )
    return _attend_result(
        scenario, policy.p_accept_given_correct, policy.p_accept_given_wrong
    )


def self_gated_accuracy(scenario: Scenario) -> EvalResult:
    """Accuracy when the user first predicts their own success and gates on it.

    The gate costs no solving time, so no degradation applies: an ignored
    advisor leaves the unaided rate intact.  The closed form assumes advisor
    correctness is independent of user correctness.
    """
    policy = scenario.policy
    if not isinstance(policy, SelfGated):
        raise PolicyMismatchError(
            f"self_gated_accuracy requires a self_gated policy, got {policy_name(policy)}"
        )
    _require_self_gated_closed_form(scenario)
    p_a = scenario.aid.p_advice_correct
    p_u = scenario.user.p_unaided_correct
    g_c = policy.p_ignore_given_user_correct
    g_w = policy.p_use_given_user_wrong
    p_use = (1.0 - g_c) * p_u + g_w * (1.0 - p_u)
    table = {
        (True, True, True): p_a * p_use,
        (True, True, False): 0.0,
        (True, False, True): p_a * g_c * p_u,
        (True, False, False): p_a * (1.0 - g_w) * (1.0 - p_u),
        (False, True, True): 0.0,
        (False, True, False): (1.0 - p_a) * p_use,
        (False, False, True): (1.0 - p_a) * g_c * p_u,
        (False, False, False): (1.0 - p_a) * (1.0 - g_w) * (1.0 - p_u),
    }
    p_correct = table[(True, True, True)] + table[(True, False, True)] + table[(False, False, True)]
    return EvalResult(
        p_correct_aided=p_correct,
        outcome_table=table,
        p_accept_marginal=p_use,
        notes=(),
    )


def _routine_accept_result(scenario: Scenario) -> EvalResult:
    p_a = scenario.aid.p_advice_correct
    table = {cell: 0.0 for cell in OUTCOME_CELLS}
    table[(True, True, True)] = p_a
    table[(False, True, False)] = 1.0 - p_a
    return EvalResult(p_correct_aided=p_a, outcome_table=table, p_accept_marginal=1.0)


def _routine_ignore_result(scenario: Scenario) -> EvalResult:
    p_a = scenario.aid.p_advice_correct
    p_u = scenario.user.p_unaided_correct
    p11 = joint_success_probability(scenario.aid, scenario.user, scenario.dependency)
    table = {cell: 0.0 for cell in OUTCOME_CELLS}
    table[(True, False, True)] = p11
    table[(True, False, False)] = max(0.0, p_a - p11)
    table[(False, False, True)] = max(0.0, p_u - p11)
    table[(False, False, False)] = max(0.0, 1.0 - p_a - p_u + p11)
    return EvalResult(p_correct_aided=p_u, outcome_table=table, p_accept_marginal=0.0)


def evaluate(scenario: Scenario) -> EvalResult:
    """Closed-form accuracy for whatever policy the scenario configures."""
    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        return _routine_accept_result(scenario)
    if isinstance(policy, RoutineIgnore):
        return _routine_ignore_result(scenario)
    if isinstance(policy, Indiscriminate):
        return indiscriminate_accuracy(scenario)
    if isinstance(policy, Discriminating):
        return discriminating_accuracy(scenario)
    if isinstance(policy, SelfGated):
        return self_gated_accuracy(scenario)
    raise PolicyMismatchError(f"unknown policy variant: {policy!r}")


def potential_combined(
    aid: AidProfile, user: UserProfile, dependency: DependencyModel
) -> float:
    """P(at least one of advisor and unaided user is correct): the accuracy ceiling."""
    bad = dependency_violations(aid, user, dependency)
    if bad:
        raise ScenarioValidationError(bad)
    p11 = joint_success_probability(aid, user, dependency)
    return aid.p_advice_correct + user.p_unaided_correct - p11


@dataclass(frozen=True)
class PolicyComparison:
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
        best = self.results[self.best_policy].p_correct_aided
        top = max(r.p_correct_aided for r in self.results.values())
        if best < top - TIE_TOLERANCE:
            raise ValueError("best_policy does not attain the maximum accuracy")

    def to_dict(self) -> dict[str, Any]:
        return {
            "results": {name: res.to_dict() for name, res in self.results.items()},
            "configured_policy": self.configured_policy,
            "best_policy": self.best_policy,
            "margins": dict(self.margins),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicyComparison":
        return cls(
            results={
                name: EvalResult.from_dict(res) for name, res in data["results"].items()
            },
            configured_policy=data["configured_policy"],
            best_policy=data["best_policy"],
            margins=dict(data["margins"]),
            notes=tuple(data.get("notes", ())),
        )


def compare_policies(scenario: Scenario) -> PolicyComparison:
    """Evaluate the configured policy next to routine acceptance and routine ignoring."""
    configured = policy_name(scenario.policy)
    results: dict[str, EvalResult] = {
        "routine_ignore": evaluate(replace(scenario, policy=RoutineIgnore())),
        "routine_accept": evaluate(replace(scenario, policy=RoutineAccept())),
    }
    if configured not in results:
        results[configured] = evaluate(scenario)

    top = max(r.p_correct_aided for r in results.values())
    precedence = ["routine_ignore", "routine_accept"]
    if configured not in precedence:
        precedence.append(configured)
    best = next(
        name for name in precedence if results[name].p_correct_aided >= top - TIE_TOLERANCE
    )
    tied = [
        name
        for name in results
        if name != best and abs(results[name].p_correct_aided - results[best].p_correct_aided) <= TIE_TOLERANCE
    ]
    notes = []
    if tied:
        notes.append(
            "tie within 1e-12 broken by precedence routine_ignore > routine_accept "
            f"> configured: chose {best} over {', '.join(sorted(tied))}"
        )
    best_acc = results[best].p_correct_aided
    margins = {
        name: max(0.0, best_acc - res.p_correct_aided) for name, res in results.items()
    }
    return PolicyComparison(
        results=results,
        configured_policy=configured,
        best_policy=best,
        margins=margins,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class BreakevenResult:
    """Smallest symmetric discrimination matching the better routine policy.

    Discrimination d means accepting correct advice with probability d and
    wrong advice with probability 1 - d, for d in [0.5, 1].  `d_star` is None
    when even perfect discrimination (d = 1) falls short of the target.
    """

    d_star: float | None
    target: float
    accuracy_at_d_star: float | None
    degradation_mode: str

    @property
    def attainable(self) -> bool:
        return self.d_star is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "d_star": self.d_star if self.attainable else "unattainable",
            "target": self.target,
            "accuracy_at_d_star": self.accuracy_at_d_star,
            "degradation_mode": self.degradation_mode,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BreakevenResult":
        d_star = data["d_star"]
        if d_star == "unattainable":
            d_star = None
        return cls(
            d_star=d_star,
            target=data["target"],
            accuracy_at_d_star=data["accuracy_at_d_star"],
            degradation_mode=data["degradation_mode"],
        )


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
    bad = dependency_violations(aid, user, dependency)
    if bad:
        raise ScenarioValidationError(bad)
    if mode is None:
        mode = FIXED_RATE if isinstance(dependency, Independent) else CONDITIONAL_FROM_JOINT
    p_a = aid.p_advice_correct
    p_u = user.p_unaided_correct
    if mode == FIXED_RATE:
        u_c = u_w = user.p_post_reject_correct
    else:
        u_c, u_w = conditional_rates_for(aid, user, dependency)

    target = max(p_a, p_u)
    intercept = p_a * u_c
    slope = p_a * (1.0 - u_c) + u_w * (1.0 - p_a)

    def accuracy_at(d: float) -> float:
        return intercept + slope * d

    if accuracy_at(0.5) >= target - TIE_TOLERANCE:
        d_star = 0.5
    elif accuracy_at(1.0) < target - TIE_TOLERANCE or slope <= 0.0:
        return BreakevenResult(None, target, None, mode)
    else:
        d_star = min(1.0, max(0.5, (target - intercept) / slope))
    return BreakevenResult(d_star, target, accuracy_at(d_star), mode)


# --- raw parameter evaluation -------------------------------------------
#
# The sensitivity machinery needs the closed forms as plain multilinear
# functions of their free parameters, with no range validation: central
# finite differences step 1e-6 past a boundary, where Probability
# construction would reject.  Parameters are keyed by the dot-paths used in
# scenario JSON (e.g. "policy.p_accept").

P_ADVICE = "aid.p_advice_correct"
P_UNAIDED = "user.p_unaided_correct"
P_POST_REJECT = "user.p_post_reject_correct"
P_BOTH = "dependency.p_both_correct"


def free_parameters(scenario: Scenario) -> dict[str, float]:
    """The probability parameters the scenario's closed form actually reads."""
    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        return {P_ADVICE: scenario.aid.p_advice_correct}
    if isinstance(policy, RoutineIgnore):
        return {P_UNAIDED: scenario.user.p_unaided_correct}

    params = {P_ADVICE: scenario.aid.p_advice_correct}
    if isinstance(policy, SelfGated):
        _require_self_gated_closed_form(scenario)
        params[P_UNAIDED] = scenario.user.p_unaided_correct
        params["policy.p_ignore_given_user_correct"] = policy.p_ignore_given_user_correct
        params["policy.p_use_given_user_wrong"] = policy.p_use_given_user_wrong
        return params

    if isinstance(policy, Indiscriminate):
        params["policy.p_accept"] = policy.p_accept
    else:
        params["policy.p_accept_given_correct"] = policy.p_accept_given_correct
        params["policy.p_accept_given_wrong"] = policy.p_accept_given_wrong

    if scenario.effective_degradation_mode == FIXED_RATE:
        params[P_POST_REJECT] = scenario.user.p_post_reject_correct
    else:
        params[P_UNAIDED] = scenario.user.p_unaided_correct
        if isinstance(scenario.dependency, Joint):
            params[P_BOTH] = scenario.dependency.p_both_correct
    return params


def _acceptance_rates(policy: ReliancePolicy, values: Mapping[str, float]) -> tuple[float, float]:
    if isinstance(policy, Indiscriminate):
        p = values["policy.p_accept"]
        return p, p
    return (
        values["policy.p_accept_given_correct"],
        values["policy.p_accept_given_wrong"],
    )


def accuracy_from_parameters(scenario: Scenario, values: Mapping[str, float]) -> float:
    """Evaluate the scenario's closed form at arbitrary raw parameter values.

    Multilinear and division-free, hence well-defined slightly outside [0, 1];
    used as the finite-difference side of the sensitivity cross-check.
    """
    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        return values[P_ADVICE]
    if isinstance(policy, RoutineIgnore):
        return values[P_UNAIDED]
    p_a = values[P_ADVICE]
    if isinstance(policy, SelfGated):
        _require_self_gated_closed_form(scenario)
        p_u = values[P_UNAIDED]
        g_c = values["policy.p_ignore_given_user_correct"]
        g_w = values["policy.p_use_given_user_wrong"]
        return g_c * p_u + p_a * (1.0 - g_c) * p_u + p_a * g_w * (1.0 - p_u)

    ac, aw = _acceptance_rates(policy, values)
    if scenario.effective_degradation_mode == FIXED_RATE:
        r = values[P_POST_REJECT]
        return ac * p_a + r * ((1.0 - ac) * p_a + (1.0 - aw) * (1.0 - p_a))
    p_u = values[P_UNAIDED]
    dependency = scenario.dependency
    if isinstance(dependency, Independent):
        return ac * p_a + p_u * ((1.0 - ac) * p_a + (1.0 - aw) * (1.0 - p_a))
    p11 = p_u if isinstance(dependency, Dominant) else values[P_BOTH]
    return ac * p_a + p11 * (1.0 - ac) + (p_u - p11) * (1.0 - aw)


def accuracy_partials(scenario: Scenario) -> dict[str, float]:
    """Exact partial derivatives of the active closed form, hand-derived.

    Every formula is multilinear in its parameters, so each partial is itself
    a short product expression.
    """
    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        return {P_ADVICE: 1.0}
    if isinstance(policy, RoutineIgnore):
        return {P_UNAIDED: 1.0}

    values = free_parameters(scenario)
    p_a = values[P_ADVICE]
    if isinstance(policy, SelfGated):
        p_u = values[P_UNAIDED]
        g_c = values["policy.p_ignore_given_user_correct"]
        g_w = values["policy.p_use_given_user_wrong"]
        return {
            P_ADVICE: (1.0 - g_c) * p_u + g_w * (1.0 - p_u),
            P_UNAIDED: g_c + p_a * (1.0 - g_c) - p_a * g_w,
            "policy.p_ignore_given_user_correct": p_u * (1.0 - p_a),
            "policy.p_use_given_user_wrong": p_a * (1.0 - p_u),
        }

    ac, aw = _acceptance_rates(policy, values)
    mode = scenario.effective_degradation_mode
    dependency = scenario.dependency

    if mode == FIXED_RATE:
        r = values[P_POST_REJECT]
        d_ac = p_a * (1.0 - r)
        d_aw = -r * (1.0 - p_a)
        out = {
            P_ADVICE: ac + r * (aw - ac),
            P_POST_REJECT: (1.0 - ac) * p_a + (1.0 - aw) * (1.0 - p_a),
        }
    elif isinstance(dependency, Independent):
        p_u = values[P_UNAIDED]
        d_ac = p_a * (1.0 - p_u)
        d_aw = -p_u * (1.0 - p_a)
        out = {
            P_ADVICE: ac + p_u * (aw - ac),
            P_UNAIDED: (1.0 - ac) * p_a + (1.0 - aw) * (1.0 - p_a),
        }
    elif isinstance(dependency, Dominant):
        p_u = values[P_UNAIDED]
        d_ac = p_a - p_u
        d_aw = 0.0
        out = {P_ADVICE: ac, P_UNAIDED: 1.0 - ac}
    else:
        p_u = values[P_UNAIDED]
        p11 = values[P_BOTH]
        d_ac = p_a - p11
        d_aw = -(p_u - p11)
        out = {P_ADVICE: ac, P_UNAIDED: 1.0 - aw, P_BOTH: aw - ac}

    if isinstance(policy, Indiscriminate):
        out["policy.p_accept"] = d_ac + d_aw
    else:
        out["policy.p_accept_given_correct"] = d_ac
        out["policy.p_accept_given_wrong"] = d_aw
    return out
