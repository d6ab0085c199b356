"""Domain types for a decision maker who consults a fallible advisor.

Every probability symbol used by the accuracy formulas lives here: the
advisor's hit rate, the user's unaided and post-rejection hit rates, the
reliance policy (how advice is accepted or ignored), and the dependency
structure between advisor and user correctness.  All types are immutable
after validation and safe to share across threads.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product
from typing import Any

# A probability is a plain float in [0, 1]; `as_probability` is the checked
# constructor used at every type boundary.
Probability = float

# Construction tolerance: absorbs parser round-off without hiding real errors.
PROBABILITY_CLAMP = 1e-12
# Slack for cross-field bound checks (Frechet-Hoeffding, dominance).
BOUND_TOLERANCE = 1e-9

FIXED_RATE = "fixed_rate"
CONDITIONAL_FROM_JOINT = "conditional_from_joint"
DEGRADATION_MODES = (FIXED_RATE, CONDITIONAL_FROM_JOINT)

# Canonical cell order of the outcome decomposition:
# (advice_correct, accepted_or_used, final_correct).
OUTCOME_CELLS: tuple[tuple[bool, bool, bool], ...] = tuple(
    product((True, False), repeat=3)
)


class DegradedRateWarning(UserWarning):
    """Post-rejection accuracy above the unaided rate is suspicious, not fatal."""


@dataclass(frozen=True)
class ConstraintViolation:
    """One failed validation rule: which constraint, the value, and its allowed range."""

    constraint: str
    value: Any
    allowed: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.constraint}: {self.value!r} not in {self.allowed}"
        return f"{msg} ({self.detail})" if self.detail else msg


class ScenarioValidationError(ValueError):
    """Scenario data violates one or more constraints.

    Carries the complete list of violations, not just the first one found.
    """

    def __init__(self, violations: list[ConstraintViolation]):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations)
        super().__init__(f"invalid scenario:\n  {lines}")


def as_probability(value: Any, name: str = "probability") -> float:
    """Validate a probability, clamping float overshoot within 1e-12 of [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(
            [ConstraintViolation(name, value, "[0, 1]", "expected a number")]
        )
    v = float(value)
    if -PROBABILITY_CLAMP <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + PROBABILITY_CLAMP:
        return 1.0
    if not 0.0 <= v <= 1.0:
        raise ScenarioValidationError([ConstraintViolation(name, v, "[0, 1]")])
    return v


@dataclass(frozen=True)
class AidProfile:
    """Marginal probability that the advisor's recommendation is correct."""

    p_advice_correct: Probability

    def __post_init__(self):
        object.__setattr__(
            self,
            "p_advice_correct",
            as_probability(self.p_advice_correct, "aid.p_advice_correct"),
        )


@dataclass(frozen=True)
class UserProfile:
    """Unaided and post-rejection hit rates of the human decision maker.

    `p_post_reject_correct` is the accuracy left after deliberating over and
    rejecting advice: the time spent deliberating normally degrades it below
    `p_unaided_correct`.  A value above the unaided rate is allowed but warns.
    """

    p_unaided_correct: Probability
    p_post_reject_correct: Probability

    def __post_init__(self):
        object.__setattr__(
            self,
            "p_unaided_correct",
            as_probability(self.p_unaided_correct, "user.p_unaided_correct"),
        )
        object.__setattr__(
            self,
            "p_post_reject_correct",
            as_probability(self.p_post_reject_correct, "user.p_post_reject_correct"),
        )
        if self.p_post_reject_correct > self.p_unaided_correct:
            warnings.warn(
                "p_post_reject_correct exceeds p_unaided_correct; deliberation "
                "time usually degrades the post-rejection rate",
                DegradedRateWarning,
                stacklevel=3,  # past the dataclass __init__ to its caller
            )


@dataclass(frozen=True)
class RoutineAccept:
    """Always adopt the advice, without deliberation."""


@dataclass(frozen=True)
class RoutineIgnore:
    """Never attend to the advice; accuracy is the unaided rate, no time cost."""


@dataclass(frozen=True)
class Indiscriminate:
    """Attend to the advice, then accept with a rate blind to its quality."""

    p_accept: Probability

    def __post_init__(self):
        object.__setattr__(
            self, "p_accept", as_probability(self.p_accept, "policy.p_accept")
        )


@dataclass(frozen=True)
class Discriminating:
    """Attend to the advice; acceptance depends on whether it is actually correct."""

    p_accept_given_correct: Probability
    p_accept_given_wrong: Probability

    def __post_init__(self):
        object.__setattr__(
            self,
            "p_accept_given_correct",
            as_probability(self.p_accept_given_correct, "policy.p_accept_given_correct"),
        )
        object.__setattr__(
            self,
            "p_accept_given_wrong",
            as_probability(self.p_accept_given_wrong, "policy.p_accept_given_wrong"),
        )


@dataclass(frozen=True)
class SelfGated:
    """Predict own success first: solve unaided when confident, else adopt the advice outright."""

    p_ignore_given_user_correct: Probability
    p_use_given_user_wrong: Probability

    def __post_init__(self):
        object.__setattr__(
            self,
            "p_ignore_given_user_correct",
            as_probability(
                self.p_ignore_given_user_correct, "policy.p_ignore_given_user_correct"
            ),
        )
        object.__setattr__(
            self,
            "p_use_given_user_wrong",
            as_probability(self.p_use_given_user_wrong, "policy.p_use_given_user_wrong"),
        )


ReliancePolicy = RoutineAccept | RoutineIgnore | Indiscriminate | Discriminating | SelfGated


@dataclass(frozen=True)
class Independent:
    """Advisor correctness and user correctness are independent."""


@dataclass(frozen=True)
class Joint:
    """P(advisor correct AND user would be correct) given directly."""

    p_both_correct: Probability

    def __post_init__(self):
        object.__setattr__(
            self,
            "p_both_correct",
            as_probability(self.p_both_correct, "dependency.p_both_correct"),
        )


@dataclass(frozen=True)
class Dominant:
    """Advisor uniformly better: whenever the user would be correct, so is the advisor."""


DependencyModel = Independent | Joint | Dominant

_POLICY_NAMES: dict[type, str] = {
    RoutineAccept: "routine_accept",
    RoutineIgnore: "routine_ignore",
    Indiscriminate: "indiscriminate",
    Discriminating: "discriminating",
    SelfGated: "self_gated",
}
_DEPENDENCY_NAMES: dict[type, str] = {
    Independent: "independent",
    Joint: "joint",
    Dominant: "dominant",
}


def policy_name(policy: ReliancePolicy) -> str:
    """Wire name of a policy variant, e.g. ``"routine_accept"``."""
    return _POLICY_NAMES[type(policy)]


def dependency_name(dependency: DependencyModel) -> str:
    """Wire name of a dependency variant, e.g. ``"independent"``."""
    return _DEPENDENCY_NAMES[type(dependency)]


def frechet_bounds(p_a: float, p_u: float) -> tuple[float, float]:
    """Feasible range for P(both correct) given the two marginals."""
    return max(0.0, p_a + p_u - 1.0), min(p_a, p_u)


def dependency_violations(
    aid: AidProfile, user: UserProfile, dependency: DependencyModel
) -> list[ConstraintViolation]:
    """Cross-field bound checks of a dependency against the marginals."""
    p_a = aid.p_advice_correct
    p_u = user.p_unaided_correct
    out: list[ConstraintViolation] = []
    if isinstance(dependency, Joint):
        lo, hi = frechet_bounds(p_a, p_u)
        p11 = dependency.p_both_correct
        if p11 < lo - BOUND_TOLERANCE or p11 > hi + BOUND_TOLERANCE:
            out.append(
                ConstraintViolation(
                    "dependency.p_both_correct",
                    p11,
                    f"[{lo:.12g}, {hi:.12g}]",
                    "Frechet-Hoeffding bounds for the given marginals",
                )
            )
    elif isinstance(dependency, Dominant):
        if p_a < p_u - BOUND_TOLERANCE:
            out.append(
                ConstraintViolation(
                    "dependency",
                    f"p_advice_correct={p_a:.12g} < p_unaided_correct={p_u:.12g}",
                    "p_advice_correct >= p_unaided_correct",
                    "a uniformly dominant advisor must solve everything the user would",
                )
            )
    return out


@dataclass(frozen=True)
class Scenario:
    """Validated composite of advisor, user, policy, and dependency.

    `degradation_mode` chooses the post-rejection correctness rate used by
    attend-style policies: `fixed_rate` plugs in `p_post_reject_correct`
    directly; `conditional_from_joint` uses the correctness rates conditional
    on advice quality implied by the dependency, unscaled.  When left as
    None, it defaults to `fixed_rate` under an independent dependency and
    `conditional_from_joint` otherwise.
    """

    aid: AidProfile
    user: UserProfile
    policy: ReliancePolicy
    dependency: DependencyModel
    degradation_mode: str | None = None

    def __post_init__(self):
        violations: list[ConstraintViolation] = []
        if self.degradation_mode is not None and self.degradation_mode not in DEGRADATION_MODES:
            violations.append(
                ConstraintViolation(
                    "degradation_mode",
                    self.degradation_mode,
                    "{" + ", ".join(DEGRADATION_MODES) + "}",
                )
            )
        violations.extend(dependency_violations(self.aid, self.user, self.dependency))
        if violations:
            raise ScenarioValidationError(violations)

    @property
    def effective_degradation_mode(self) -> str:
        """The explicit mode if set, else the dependency-based default."""
        if self.degradation_mode is not None:
            return self.degradation_mode
        if isinstance(self.dependency, Independent):
            return FIXED_RATE
        return CONDITIONAL_FROM_JOINT


def joint_success_probability(
    aid: AidProfile, user: UserProfile, dependency: DependencyModel
) -> float:
    """P(advisor correct AND user would be correct) implied by the dependency.

    The result is clamped to the exact Frechet-Hoeffding bounds, so values
    admitted under the validation slack cannot produce negative cell masses.
    """
    p_a = aid.p_advice_correct
    p_u = user.p_unaided_correct
    if isinstance(dependency, Independent):
        return p_a * p_u
    if isinstance(dependency, Dominant):
        return min(p_a, p_u)
    lo, hi = frechet_bounds(p_a, p_u)
    return min(max(dependency.p_both_correct, lo), hi)


def conditional_user_rates(scenario: Scenario) -> tuple[float, float]:
    """(P(user would be correct | advice correct), P(user would be correct | advice wrong))."""
    return conditional_rates_for(scenario.aid, scenario.user, scenario.dependency)


def conditional_rates_for(
    aid: AidProfile, user: UserProfile, dependency: DependencyModel
) -> tuple[float, float]:
    """Conditional user correctness rates for a dependency, without a full Scenario.

    Degenerate conditionals are pinned to zero: with p_advice_correct = 1 the
    advice-wrong event has probability zero, and symmetrically for 0.
    """
    p_a = aid.p_advice_correct
    p_u = user.p_unaided_correct
    if isinstance(dependency, Independent):
        return p_u, p_u
    p11 = joint_success_probability(aid, user, dependency)
    given_correct = 0.0 if p_a == 0.0 else min(1.0, p11 / p_a)
    given_wrong = 0.0 if p_a == 1.0 else min(1.0, max(0.0, (p_u - p11) / (1.0 - p_a)))
    return given_correct, given_wrong


@dataclass(frozen=True)
class EvalResult:
    """Aided accuracy together with its full outcome decomposition.

    Attributes:
        p_correct_aided: headline P(final answer correct) under the scenario.
        outcome_table: probability of each (advice_correct, accepted_or_used,
            final_correct) cell; the eight cells sum to one.
        p_accept_marginal: marginal probability of adopting the advice.
        notes: human-readable caveats (defaults applied, assumptions).
    """

    p_correct_aided: Probability
    outcome_table: dict[tuple[bool, bool, bool], float]
    p_accept_marginal: Probability
    notes: tuple[str, ...] = ()

    # Loose construction guard; the test suite asserts the 1e-12 versions on
    # every computed result. The slack covers 12-significant-digit round-trips.
    _GUARD = 1e-9

    def __post_init__(self):
        if set(self.outcome_table) != set(OUTCOME_CELLS):
            raise ValueError("outcome_table must cover exactly the 8 canonical cells")
        total = sum(self.outcome_table.values())
        if abs(total - 1.0) > self._GUARD:
            raise ValueError(f"outcome_table sums to {total!r}, expected 1")
        correct = sum(p for (_, _, final), p in self.outcome_table.items() if final)
        if abs(correct - self.p_correct_aided) > self._GUARD:
            raise ValueError(
                f"p_correct_aided={self.p_correct_aided!r} does not match "
                f"final-correct cell mass {correct!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "p_correct_aided": self.p_correct_aided,
            "p_accept_marginal": self.p_accept_marginal,
            "outcome_table": [
                {
                    "advice_correct": advice,
                    "accepted_or_used": accepted,
                    "final_correct": final,
                    "probability": self.outcome_table[(advice, accepted, final)],
                }
                for advice, accepted, final in OUTCOME_CELLS
            ],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvalResult":
        table = {
            (row["advice_correct"], row["accepted_or_used"], row["final_correct"]): row[
                "probability"
            ]
            for row in data["outcome_table"]
        }
        return cls(
            p_correct_aided=data["p_correct_aided"],
            outcome_table=table,
            p_accept_marginal=data["p_accept_marginal"],
            notes=tuple(data.get("notes", ())),
        )


_TOP_KEYS = {"aid", "user", "policy", "dependency", "degradation_mode"}
_REQUIRED_TOP_KEYS = ("aid", "user", "policy", "dependency")
_POLICY_FIELDS: dict[str, tuple[str, ...]] = {
    "routine_accept": (),
    "routine_ignore": (),
    "indiscriminate": ("p_accept",),
    "discriminating": ("p_accept_given_correct", "p_accept_given_wrong"),
    "self_gated": ("p_ignore_given_user_correct", "p_use_given_user_wrong"),
}
_DEPENDENCY_FIELDS: dict[str, tuple[str, ...]] = {
    "independent": (),
    "joint": ("p_both_correct",),
    "dominant": (),
}


def _check_section(
    raw: Mapping[str, Any],
    name: str,
    fields: tuple[str, ...],
    violations: list[ConstraintViolation],
    tagged: str | None = None,
) -> dict[str, float] | None:
    """Validate one object section strictly; return its probability fields if clean."""
    section = raw.get(name)
    if not isinstance(section, Mapping):
        violations.append(
            ConstraintViolation(name, section, "JSON object", "section missing or wrong type")
        )
        return None
    expected = set(fields) | ({"type"} if tagged else set())
    unknown = set(section) - expected
    for key in sorted(unknown):
        violations.append(
            ConstraintViolation(
                f"{name}.{key}", section[key], "(no such field)", "unknown field rejected"
            )
        )
    values: dict[str, float] = {}
    ok = not unknown
    for key in fields:
        if key not in section:
            violations.append(
                ConstraintViolation(f"{name}.{key}", None, "[0, 1]", "required field missing")
            )
            ok = False
            continue
        try:
            values[key] = as_probability(section[key], f"{name}.{key}")
        except ScenarioValidationError as err:
            violations.extend(err.violations)
            ok = False
    return values if ok else None


def validate_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Build a Scenario from raw (JSON-shaped) data, checking every constraint.

    Unknown fields are rejected at every level.  On failure raises
    ScenarioValidationError carrying the complete list of violations.
    """
    if not isinstance(raw, Mapping):
        raise ScenarioValidationError(
            [ConstraintViolation("scenario", raw, "JSON object")]
        )
    violations: list[ConstraintViolation] = []

    for key in sorted(set(raw) - _TOP_KEYS):
        violations.append(
            ConstraintViolation(key, raw[key], "(no such field)", "unknown field rejected")
        )
    for key in _REQUIRED_TOP_KEYS:
        if key not in raw:
            violations.append(
                ConstraintViolation(key, None, "JSON object", "required section missing")
            )

    aid_vals = _check_section(raw, "aid", ("p_advice_correct",), violations) if "aid" in raw else None
    user_vals = (
        _check_section(
            raw, "user", ("p_unaided_correct", "p_post_reject_correct"), violations
        )
        if "user" in raw
        else None
    )

    policy = None
    if "policy" in raw:
        section = raw["policy"]
        if not isinstance(section, Mapping):
            violations.append(ConstraintViolation("policy", section, "JSON object"))
            kind = None
        else:
            kind = section.get("type")
        if kind not in _POLICY_FIELDS:
            if isinstance(section, Mapping):
                violations.append(
                    ConstraintViolation(
                        "policy.type", kind, "{" + ", ".join(sorted(_POLICY_FIELDS)) + "}"
                    )
                )
        else:
            vals = _check_section(raw, "policy", _POLICY_FIELDS[kind], violations, tagged=kind)
            if vals is not None:
                builders = {
                    "routine_accept": lambda v: RoutineAccept(),
                    "routine_ignore": lambda v: RoutineIgnore(),
                    "indiscriminate": lambda v: Indiscriminate(**v),
                    "discriminating": lambda v: Discriminating(**v),
                    "self_gated": lambda v: SelfGated(**v),
                }
                policy = builders[kind](vals)

    dependency = None
    if "dependency" in raw:
        section = raw["dependency"]
        if not isinstance(section, Mapping):
            violations.append(ConstraintViolation("dependency", section, "JSON object"))
            kind = None
        else:
            kind = section.get("type")
        if kind not in _DEPENDENCY_FIELDS:
            if isinstance(section, Mapping):
                violations.append(
                    ConstraintViolation(
                        "dependency.type", kind, "{" + ", ".join(sorted(_DEPENDENCY_FIELDS)) + "}"
                    )
                )
        else:
            vals = _check_section(
                raw, "dependency", _DEPENDENCY_FIELDS[kind], violations, tagged=kind
            )
            if vals is not None:
                if kind == "independent":
                    dependency = Independent()
                elif kind == "dominant":
                    dependency = Dominant()
                else:
                    dependency = Joint(**vals)

    mode = raw.get("degradation_mode")
    if mode is not None and mode not in DEGRADATION_MODES:
        violations.append(
            ConstraintViolation(
                "degradation_mode", mode, "{" + ", ".join(DEGRADATION_MODES) + "}"
            )
        )

    aid = AidProfile(**aid_vals) if aid_vals is not None else None
    user = UserProfile(**user_vals) if user_vals is not None else None
    if aid is not None and user is not None and dependency is not None:
        violations.extend(dependency_violations(aid, user, dependency))

    if violations:
        raise ScenarioValidationError(violations)
    return Scenario(aid=aid, user=user, policy=policy, dependency=dependency, degradation_mode=mode)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Canonical JSON form of a scenario; the degradation mode is made explicit.

    The result round-trips: validate_scenario(scenario_to_dict(s)) canonicalizes
    back to the same dictionary.
    """
    policy = scenario.policy
    policy_dict: dict[str, Any] = {"type": policy_name(policy)}
    for field in _POLICY_FIELDS[policy_name(policy)]:
        policy_dict[field] = getattr(policy, field)
    dep = scenario.dependency
    dep_dict: dict[str, Any] = {"type": dependency_name(dep)}
    for field in _DEPENDENCY_FIELDS[dependency_name(dep)]:
        dep_dict[field] = getattr(dep, field)
    return {
        "aid": {"p_advice_correct": scenario.aid.p_advice_correct},
        "user": {
            "p_unaided_correct": scenario.user.p_unaided_correct,
            "p_post_reject_correct": scenario.user.p_post_reject_correct,
        },
        "policy": policy_dict,
        "dependency": dep_dict,
        "degradation_mode": scenario.effective_degradation_mode,
    }
