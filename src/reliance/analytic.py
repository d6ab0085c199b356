"""Closed-form aided accuracy for every reliance policy, plus derived quantities.

One kernel states the model.  Each policy gives a row per advice cell
(advice correct, advice wrong): the probability the advice is used, the
probabilities it is not used when solving alone would be right and when it
would be wrong, and the rate of being right alone.  Weighted by the advice
cells and read at the dependency's conditional user rates, the rows give
`evaluate`'s eight-cell outcome table, headline and marginal use rate, the
policy comparison, break-even's post-rejection rates and the sweep arrays,
on floats and numpy arrays alike without importing numpy.  The exact
partials read the same closed form summed over the latent cells, which
needs no division.  Every result is an EvalResult carrying the full outcome
decomposition, so the Monte Carlo engine can check it cell by cell.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from .model import (
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
    ReliancePolicy,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    ScenarioValidationError,
    SelfGated,
    UserProfile,
    conditional_rates,
    dependency_violations,
    joint_success_probability,
    leaves_of,
    policy_name,
    post_reject_rates,
    resolve_degradation_mode,
)

# Two accuracies within this distance are treated as tied.
TIE_TOLERANCE = 1e-12


class PolicyMismatchError(TypeError):
    """An operation was handed a scenario with the wrong policy variant."""


def _rows(policy: ReliancePolicy, mode: str, dependency: DependencyModel, v: Mapping[str, Any]):
    """The policy's rows for the advice-correct and advice-wrong cells.

    A row is (use, keep_right, keep_wrong, q): the probability the advice is
    used, the probabilities it is not used when solving alone would be right
    and when wrong, and q, the rate of being right alone.  The self-gated
    user gates on their own correctness, which the dependency ties to the
    advice; an attending user decides first, then solves at the mode's rate.
    """
    if isinstance(policy, SelfGated):
        g_c, keep_wrong = v["policy.p_ignore_given_user_correct"], 1.0 - v["policy.p_use_given_user_wrong"]
        u_c, u_w = conditional_rates(dependency, v)
        return (_gate_use(v, u_c), g_c, keep_wrong, u_c), (_gate_use(v, u_w), g_c, keep_wrong, u_w)
    (a_c, a_w), (q_c, q_w) = _acceptance(policy, v), post_reject_rates(mode, dependency, v)
    keep_c, keep_w = 1.0 - a_c, 1.0 - a_w
    return (a_c, keep_c, keep_c, q_c), (a_w, keep_w, keep_w, q_w)


def _gate_use(v: Mapping[str, Any], u: Any) -> Any:
    """How often the self-gated user uses the advice when they would be right at rate u."""
    return (1.0 - v["policy.p_ignore_given_user_correct"]) * u + v["policy.p_use_given_user_wrong"] * (1.0 - u)


def _acceptance(policy: ReliancePolicy, v: Mapping[str, Any]) -> tuple[Any, Any]:
    """An attending policy's acceptance rates for correct and for wrong advice."""
    if isinstance(policy, Indiscriminate):
        return v["policy.p_accept"], v["policy.p_accept"]
    if isinstance(policy, Discriminating):
        return v["policy.p_accept_given_correct"], v["policy.p_accept_given_wrong"]
    raise PolicyMismatchError(f"unknown policy variant: {policy!r}")


def _advice_cells(scenario: Scenario, policy: ReliancePolicy, v: Mapping[str, Any]):
    """(mass, row) of the advice-correct and the advice-wrong cell."""
    p_a = v[P_ADVICE]
    right, wrong = _rows(policy, scenario.effective_degradation_mode, scenario.dependency, v)
    return (p_a, right), (1.0 - p_a, wrong)


def _correct(cells) -> Any:
    """P(final answer correct): correct advice used, plus right alone, in table order."""
    (m_c, (use_c, keep_c, _, q_c)), (m_w, (_, keep_w, _, q_w)) = cells
    return m_c * use_c + m_c * keep_c * q_c + m_w * keep_w * q_w


def _accuracy(scenario: Scenario, v: Mapping[str, Any]) -> Any:
    """Headline accuracy at the leaves `v`; the routine policies keep their rates exactly."""
    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        return v[P_ADVICE]
    if isinstance(policy, RoutineIgnore):
        return v[P_UNAIDED]
    return _correct(_advice_cells(scenario, policy, v))


def _result(scenario: Scenario, policy: ReliancePolicy, v: Mapping[str, Any]) -> EvalResult:
    p_a, p_u = v[P_ADVICE], v[P_UNAIDED]
    table = dict.fromkeys(OUTCOME_CELLS, 0.0)
    if isinstance(policy, RoutineAccept):
        table[(True, True, True)], table[(False, True, False)] = p_a, 1.0 - p_a
        return EvalResult(p_correct_aided=p_a, outcome_table=table, p_accept_marginal=1.0)
    if isinstance(policy, RoutineIgnore):
        # never used: the table is the latent (advice, user) distribution
        p11 = joint_success_probability(scenario.dependency, v)
        table[(True, False, True)] = p11
        table[(True, False, False)] = max(0.0, p_a - p11)
        table[(False, False, True)] = max(0.0, p_u - p11)
        table[(False, False, False)] = max(0.0, 1.0 - p_a - p_u + p11)
        return EvalResult(p_correct_aided=p_u, outcome_table=table, p_accept_marginal=0.0)

    cells = _advice_cells(scenario, policy, v)
    for advice, (mass, (use, keep_right, keep_wrong, q)) in zip((True, False), cells):
        table[(advice, True, advice)] = mass * use
        table[(advice, False, True)] = mass * keep_right * q
        table[(advice, False, False)] = mass * keep_wrong * (1.0 - q)
    notes = ()
    if isinstance(policy, SelfGated):
        marginal = _gate_use(v, p_u)  # the user is right at rate p_u whatever the dependency
    else:
        marginal = table[(True, True, True)] + table[(False, True, False)]
        if scenario.degradation_mode is None:
            notes = (f"degradation_mode defaulted to {scenario.effective_degradation_mode}",)
    return EvalResult(
        p_correct_aided=_correct(cells),
        outcome_table=table,
        p_accept_marginal=marginal,
        notes=notes,
    )


def evaluate(scenario: Scenario) -> EvalResult:
    """Closed-form accuracy for whatever policy the scenario configures."""
    return _result(scenario, scenario.policy, scenario.leaves)


def _evaluate_as(scenario: Scenario, kind: type, name: str) -> EvalResult:
    if not isinstance(scenario.policy, kind):
        raise PolicyMismatchError(
            f"{name}_accuracy requires a policy of type {name}, got {policy_name(scenario.policy)}"
        )
    return evaluate(scenario)


def indiscriminate_accuracy(scenario: Scenario) -> EvalResult:
    """Accuracy when advice is attended but acceptance is blind to its quality.

    With acceptance probability p and post-rejection rate r this is
    p_advice_correct * p + r * (1 - p) under the fixed-rate mode.
    """
    return _evaluate_as(scenario, Indiscriminate, "indiscriminate")


def discriminating_accuracy(scenario: Scenario) -> EvalResult:
    """Accuracy when acceptance depends on whether the advice is actually correct."""
    return _evaluate_as(scenario, Discriminating, "discriminating")


def self_gated_accuracy(scenario: Scenario) -> EvalResult:
    """Accuracy when the user first predicts their own success and gates on it.

    The gate costs no solving time, so no degradation applies: an ignored
    advisor leaves the unaided rate intact.  Under any dependency this is
    p11 + p10 * p_use_given_user_wrong + p01 * p_ignore_given_user_correct
    over the latent cells (advice correct?, user would be correct?).
    """
    return _evaluate_as(scenario, SelfGated, "self_gated")


def potential_combined(
    aid: AidProfile, user: UserProfile, dependency: DependencyModel
) -> float:
    """P(at least one of advisor and unaided user is correct): the accuracy ceiling."""
    bad = dependency_violations(aid, user, dependency)
    if bad:
        raise ScenarioValidationError(bad)
    p11 = joint_success_probability(dependency, leaves_of(aid, user, dependency))
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
    v = scenario.leaves
    results: dict[str, EvalResult] = {
        "routine_ignore": _result(scenario, RoutineIgnore(), v),
        "routine_accept": _result(scenario, RoutineAccept(), v),
    }
    if configured not in results:
        results[configured] = _result(scenario, scenario.policy, v)

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
    mode = resolve_degradation_mode(mode, dependency)
    p_a = aid.p_advice_correct
    p_u = user.p_unaided_correct
    u_c, u_w = post_reject_rates(mode, dependency, leaves_of(aid, user, dependency))

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


def free_parameters(scenario: Scenario) -> dict[str, float]:
    """The probability parameters the scenario's closed form actually reads."""
    values = scenario.leaves
    policy = scenario.policy
    if isinstance(policy, (RoutineAccept, RoutineIgnore)):
        name = P_ADVICE if isinstance(policy, RoutineAccept) else P_UNAIDED
        return {name: values[name]}
    fixed = not isinstance(policy, SelfGated) and scenario.effective_degradation_mode == FIXED_RATE
    for name in (P_UNAIDED, P_BOTH) if fixed else (P_POST_REJECT,):
        values.pop(name, None)
    return values


def accuracy_from_parameters(scenario: Scenario, values: Mapping[str, float]) -> float:
    """Evaluate the scenario's closed form at the free parameters `values`.

    Summed over the latent cells, whose masses (p11, p_a - p11, p_u - p11)
    stand in for the conditional rates: multilinear and division-free, hence
    well-defined slightly outside [0, 1].  It gives the exact partials and
    is the finite-difference side of the sensitivity cross-check.
    """
    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        return values[P_ADVICE]
    if isinstance(policy, RoutineIgnore):
        return values[P_UNAIDED]
    p_a = values[P_ADVICE]
    if not isinstance(policy, SelfGated):
        ac, aw = _acceptance(policy, values)
        if scenario.effective_degradation_mode == FIXED_RATE:
            r = values[P_POST_REJECT]
            return ac * p_a + r * ((1.0 - ac) * p_a + (1.0 - aw) * (1.0 - p_a))
    p_u = values[P_UNAIDED]
    dependency = scenario.dependency
    if isinstance(dependency, Independent):
        p11 = p_a * p_u
    else:
        p11 = p_u if isinstance(dependency, Dominant) else values[P_BOTH]
    if isinstance(policy, SelfGated):
        g_c = values["policy.p_ignore_given_user_correct"]
        return p11 + (p_a - p11) * values["policy.p_use_given_user_wrong"] + (p_u - p11) * g_c
    return ac * p_a + p11 * (1.0 - ac) + (p_u - p11) * (1.0 - aw)


def accuracy_partials(scenario: Scenario) -> dict[str, float]:
    """Exact partial derivatives of the active closed form.

    Every closed form is multilinear in its parameters, so each partial is
    the difference of the form at that parameter set to 1 and to 0.
    """
    values = free_parameters(scenario)
    return {
        name: accuracy_from_parameters(scenario, {**values, name: 1.0})
        - accuracy_from_parameters(scenario, {**values, name: 0.0})
        for name in values
    }
