"""Domain types for a decision maker who consults a fallible advisor.

Every probability symbol used by the accuracy formulas lives here: the
advisor's hit rate, the user's unaided and post-rejection hit rates, the
reliance policy (how advice is accepted or ignored), and the dependency
structure between advisor and user correctness.  All types are immutable
after validation and safe to share across threads.

Every model and result type is a frozen record (`_record`): the annotated
names of its class body are its fields, stated once, in positional order.
The section records are the scenario schema.  A scenario has four
sections; `policy` and `dependency` are tagged by a wire name (`_POLICIES`,
`_DEPENDENCIES`), and every field of a section's class is a probability
whose dot-path is ``<section>.<field>``.  Construction, `validate_scenario`,
`scenario_to_dict`, `leaves_of` and the sweep's dot-paths all read that one
statement.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Mapping
from itertools import product
from typing import Any

# A probability is a plain float in [0, 1]; `as_probability` is the checked
# constructor used at every type boundary.
Probability = float

# Construction tolerance: absorbs parser round-off without hiding real errors.
PROBABILITY_CLAMP = 1e-12
# Slack for cross-field bound checks (Frechet-Hoeffding, dominance).
BOUND_TOLERANCE = 1e-9

# Dot-paths of the scenario's probability leaves, as in scenario JSON.
P_ADVICE = "aid.p_advice_correct"
P_UNAIDED = "user.p_unaided_correct"
P_POST_REJECT = "user.p_post_reject_correct"
P_BOTH = "dependency.p_both_correct"

FIXED_RATE = "fixed_rate"
CONDITIONAL_FROM_JOINT = "conditional_from_joint"
DEGRADATION_MODES = (FIXED_RATE, CONDITIONAL_FROM_JOINT)

# Canonical cell order of the outcome decomposition:
# (advice_correct, accepted_or_used, final_correct).
OUTCOME_CELLS: tuple[tuple[bool, bool, bool], ...] = tuple(
    product((True, False), repeat=3)
)


def check_cells(table: Mapping[tuple[bool, bool, bool], Any], name: str) -> None:
    """Raise ValueError unless the table `name` has exactly the eight canonical cells."""
    if set(table) != set(OUTCOME_CELLS):
        raise ValueError(f"{name} must cover exactly the 8 canonical cells")


class _Record:
    """The base of every frozen record, which `_record` builds.

    A record is built by position or keyword through `__init__`, then
    `__post_init__`; it equals a record of the same class with equal fields,
    hashes by them and is shown as ``Name(field=value, ...)``.  Fields cannot
    be assigned or deleted.  A copy or an unpickled record gets its slots set
    as they were, without `__post_init__`, so it neither checks nor warns
    again.  `__replace__` (`copy.replace` from Python 3.13) builds a new
    record through `__init__`.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        shown = ", ".join(f"{key}={value!r}" for key, value in self._asdict().items())
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in self.__slots__}

    def __setstate__(self, state: Mapping[str, Any]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def __replace__(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})


def _record(cls: type) -> type:
    """The class `cls` rebuilt as a frozen record on `_Record`.

    The annotated names of its body are its fields, in order, and a value
    given to one there is its default.  The fields, plus any names the body
    lists in `__slots__`, become its slots.  Its metaclass stays `type`:
    under any other, each failing `isinstance` test, of which the closed
    forms make dozens per scenario, costs several times as much.

    Its `__init__` sets each field in turn, then calls `__post_init__` if
    the class has one, and its `_asdict` gives the fields by name.  Both are
    generated per class, as generic ones that loop over the fields are
    slower on every result built and every scenario serialised.  They run
    in this module's globals, so that `_caller_stacklevel` skips `__init__`.
    A result class gets its `_WIRE` table here too, so no codec is looked up per call.
    """
    namespace = dict(vars(cls))
    fields = tuple(namespace.get("__annotations__", ()))
    extra = tuple(namespace.pop("__slots__", ()))
    for key in (*extra, "__dict__", "__weakref__"):
        namespace.pop(key, None)
    defaults = {key: namespace.pop(key) for key in fields if key in namespace}
    params = [f"{key}=_defaults[{key!r}]" if key in defaults else key for key in fields]
    lines = [f"_set(self, {key!r}, {key})" for key in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    shown = ", ".join(f"{key!r}: self.{key}" for key in fields)
    source = f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(lines or ["pass"])
    scope = {"__name__": __name__, "_set": object.__setattr__, "_defaults": defaults}
    exec(f"{source}\ndef _asdict(self):\n    return {{{shown}}}", scope)
    for method in ("__init__", "_asdict"):
        scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
        namespace[method] = scope[method]
    namespace.update(__slots__=fields + extra, _fields=fields, _defaults=defaults)
    if issubclass(cls, _Wire):
        order = namespace.get("_WIRE_ORDER", fields)
        namespace["_WIRE"] = tuple((key, *cls._CODECS.get(key, (None, None))) for key in order)
    bases = cls.__bases__ if issubclass(cls, _Record) else (_Record,)
    return type(cls.__name__, bases, namespace)


class _Wire(_Record):
    """`to_dict` and `from_dict` read the `_WIRE` table that `_record` derives:
    (key, encode, decode) per field, in `_WIRE_ORDER` if the class states one,
    else in field order.  Each class states `_CODECS`, the (encode, decode)
    of each field whose JSON form differs from its value, such as a tuple
    (`_TUPLE`, a list); any other field is written and read as it is.
    `from_dict` may omit a field with a default, such as `notes`.  It names
    any other missing key in a KeyError, an unknown key in a ValueError, and
    a null read as it is, unless `_NULLABLE` lists it, in a TypeError.
    """

    __slots__ = ()
    _NULLABLE = ()

    def to_dict(self) -> dict[str, Any]:
        data = {}
        for key, encode, _ in self._WIRE:
            value = getattr(self, key)
            data[key] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        unknown = _mapping(data, f"{cls.__name__}.from_dict").keys() - cls._fields
        if unknown:
            raise ValueError(f"{cls.__name__} has no field {', '.join(sorted(map(repr, unknown)))}")
        values = {}
        for key, _, decode in cls._WIRE:
            if key in data or key not in cls._defaults:
                value = data[key]
                if value is None and decode is None and key not in cls._NULLABLE:
                    raise TypeError(f"{cls.__name__} {key} must not be null")
                values[key] = value if decode is None else decode(value)
        return cls(**values)


def _mapping(data: Any, what: str) -> Mapping:
    """`data`, unless it is no mapping: then TypeError naming `what`."""
    if not isinstance(data, Mapping):
        raise TypeError(f"{what} needs a mapping, got {type(data).__name__}")
    return data


def _cells(key: str) -> tuple:
    """Encode and decode of an eight-cell table as JSON rows in canonical
    order, each value under `key`."""
    a, u, f = "advice_correct", "accepted_or_used", "final_correct"
    return (
        lambda table: [{a: c[0], u: c[1], f: c[2], key: table[c]} for c in OUTCOME_CELLS],
        lambda rows: {(row[a], row[u], row[f]): row[key] for row in rows},
    )


_TUPLE = (list, tuple)


class DegradedRateWarning(UserWarning):
    """Post-rejection accuracy above the unaided rate is suspicious, not fatal."""


@_record
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


class SweepError(ValueError):
    """A sweep specification cannot be evaluated as requested.

    Defined here, not in ``sweep``, so that the CLI can catch it without
    importing numpy; ``reliance.sweep`` re-exports it.
    """


# Modules whose frames a DegradedRateWarning passes over to name its caller.
_WARNING_INTERNAL = (__name__, f"{__package__}.sweep")


def _caller_stacklevel() -> int:
    """The `stacklevel` that names the first caller outside this package's
    scenario layers.

    Counted from the function that calls this one and warns.  Frames of this
    module and of ``sweep`` are skipped, and so is a record's generated
    ``__init__``, which runs in this module's globals: a `UserProfile` built
    directly is reported where it was built, one loaded by
    `validate_scenario` where `validate_scenario` was called, and a degraded
    sweep point where `run_sweep` or `find_reference_crossing` was called.
    """
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") in _WARNING_INTERNAL:
        level += 1
        frame = frame.f_back
    return level


def _warn_degraded_rate() -> None:
    """Warn that a post-rejection rate exceeds its unaided rate, at the caller's line."""
    warnings.warn(
        "p_post_reject_correct exceeds p_unaided_correct; deliberation "
        "time usually degrades the post-rejection rate",
        DegradedRateWarning,
        stacklevel=_caller_stacklevel(),
    )


def as_probability(value: Any, name: str = "probability") -> float:
    """Validate a probability, clamping float overshoot within 1e-12 of [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(
            [ConstraintViolation(name, value, "[0, 1]", "expected a number")]
        )
    v = _clamped(_as_float(value))
    violations = _range_violations(v, name)
    if violations:
        raise ScenarioValidationError(violations)
    return v


def _range_violations(value: float, name: str) -> list[ConstraintViolation]:
    """The violation, if any, of a clamped probability `value` named `name`
    outside [0, 1]; `as_probability` raises it, the sweep's screen returns it."""
    return [] if 0.0 <= value <= 1.0 else [ConstraintViolation(name, value, "[0, 1]")]


def _as_float(value) -> float:
    """The real `value` as a float; an integer past float range is the
    infinity of its sign, so that a range check refuses it."""
    try:
        return float(value)
    except OverflowError:
        return -math.inf if value < 0 else math.inf


def _clamped(values):
    """The clamp of overshoot within 1e-12 of [0, 1] to its end, on floats or
    arrays, without the range check: `as_probability` and the sweep's grid
    both clamp through it."""
    values = _where((values >= -PROBABILITY_CLAMP) & (values < 0.0), 0.0, values)
    return _where((values > 1.0) & (values <= 1.0 + PROBABILITY_CLAMP), 1.0, values)


def _check_probabilities(section) -> None:
    """`__post_init__` of every section: each field through `as_probability`,
    named by its dot-path."""
    for name, path in _FIELDS[type(section)].items():
        object.__setattr__(section, name, as_probability(getattr(section, name), path))


@_record
class AidProfile:
    """Marginal probability that the advisor's recommendation is correct."""

    p_advice_correct: Probability

    __post_init__ = _check_probabilities


@_record
class UserProfile:
    """Unaided and post-rejection hit rates of the human decision maker.

    `p_post_reject_correct` is the accuracy left after deliberating over and
    rejecting advice: the time spent deliberating normally degrades it below
    `p_unaided_correct`.  A value above the unaided rate is allowed but warns.
    """

    p_unaided_correct: Probability
    p_post_reject_correct: Probability

    def __post_init__(self):
        _check_probabilities(self)
        if self.p_post_reject_correct > self.p_unaided_correct:
            _warn_degraded_rate()


@_record
class RoutineAccept:
    """Always adopt the advice, without deliberation."""


@_record
class RoutineIgnore:
    """Never attend to the advice; accuracy is the unaided rate, no time cost."""


@_record
class Indiscriminate:
    """Attend to the advice, then accept with a rate blind to its quality."""

    p_accept: Probability

    __post_init__ = _check_probabilities


@_record
class Discriminating:
    """Attend to the advice; acceptance depends on whether it is actually correct."""

    p_accept_given_correct: Probability
    p_accept_given_wrong: Probability

    __post_init__ = _check_probabilities


@_record
class SelfGated:
    """Predict own success first: solve unaided when confident, else adopt the advice outright."""

    p_ignore_given_user_correct: Probability
    p_use_given_user_wrong: Probability

    __post_init__ = _check_probabilities


ReliancePolicy = RoutineAccept | RoutineIgnore | Indiscriminate | Discriminating | SelfGated


@_record
class Independent:
    """Advisor correctness and user correctness are independent."""


@_record
class Joint:
    """P(advisor correct AND user would be correct) given directly."""

    p_both_correct: Probability

    __post_init__ = _check_probabilities


@_record
class Dominant:
    """Advisor uniformly better: whenever the user would be correct, so is the advisor."""


DependencyModel = Independent | Joint | Dominant

# Wire name -> class of the two tagged sections, in the order of the schema.
_POLICIES: dict[str, type] = {
    "routine_accept": RoutineAccept,
    "routine_ignore": RoutineIgnore,
    "indiscriminate": Indiscriminate,
    "discriminating": Discriminating,
    "self_gated": SelfGated,
}
_DEPENDENCIES: dict[str, type] = {"independent": Independent, "joint": Joint, "dominant": Dominant}
# The scenario's sections in JSON order: a plain section's class, or a tagged
# section's wire-name table.
_SECTIONS: dict[str, type | dict[str, type]] = {
    "aid": AidProfile,
    "user": UserProfile,
    "policy": _POLICIES,
    "dependency": _DEPENDENCIES,
}
_WIRE_NAMES: dict[type, str] = {
    cls: name for table in (_POLICIES, _DEPENDENCIES) for name, cls in table.items()
}
# The classes each section admits.
_CLASSES: dict[str, tuple[type, ...]] = {
    section: tuple(variants.values()) if isinstance(variants, dict) else (variants,)
    for section, variants in _SECTIONS.items()
}
# field -> dot-path of every probability of each section class.
_FIELDS: dict[type, dict[str, str]] = {
    cls: {key: f"{section}.{key}" for key in cls._fields}
    for section, classes in _CLASSES.items()
    for cls in classes
}


def _check_sections(owner: str, degradation_mode: str | None = None, **sections) -> None:
    """Raise TypeError naming the first of `sections` whose class its section
    does not admit, then ScenarioValidationError for an unknown degradation
    mode or a dependency past its bounds."""
    for name, section in sections.items():
        classes = _CLASSES[name]
        if type(section) not in classes:
            allowed = ", ".join(cls.__name__ for cls in classes)
            raise TypeError(f"{owner}.{name} must be one of {allowed}; got {section!r}")
    violations = _scenario_violations(degradation_mode, sections)
    if violations:
        raise ScenarioValidationError(violations)


def policy_name(policy: ReliancePolicy) -> str:
    """Wire name of a policy variant, e.g. ``"routine_accept"``."""
    return _WIRE_NAMES[type(policy)]


# `a if cond else b`, min and max for floats and numpy arrays alike; numpy is
# imported only when an array is passed, so it is already loaded.
def _where(cond, a, b):
    if isinstance(cond, bool):
        return a if cond else b
    import numpy

    return numpy.where(cond, a, b)


# min(a, b) and max(a, b) keep a unless b is strictly smaller or larger, which
# decides between 0.0 and -0.0; np.minimum and np.maximum would not.
def _min(a, b):
    return _where(b < a, b, a)


def _max(a, b):
    return _where(b > a, b, a)


def frechet_bounds(p_a, p_u):
    """Feasible range for P(both correct) given the two marginals (floats or arrays)."""
    return _max(0.0, p_a + p_u - 1.0), _min(p_a, p_u)


def bound_violations(dependency: DependencyModel, p_a, p_u, p_both=None) -> list[ConstraintViolation]:
    """The violation, if any, of P(both correct) `p_both` past its
    Frechet-Hoeffding bounds, or of a dominant advisor below the user, by more
    than BOUND_TOLERANCE; on floats, for a scenario or one sweep value."""
    if isinstance(dependency, Joint):
        lo, hi = frechet_bounds(p_a, p_u)
        if p_both < lo - BOUND_TOLERANCE or p_both > hi + BOUND_TOLERANCE:
            return [
                ConstraintViolation(
                    P_BOTH, p_both, f"[{lo:.12g}, {hi:.12g}]", "Frechet-Hoeffding bounds for the given marginals"
                )
            ]
    elif isinstance(dependency, Dominant) and p_a < p_u - BOUND_TOLERANCE:
        return [
            ConstraintViolation(
                "dependency",
                f"p_advice_correct={p_a:.12g} < p_unaided_correct={p_u:.12g}",
                "p_advice_correct >= p_unaided_correct",
                "a uniformly dominant advisor must solve everything the user would",
            )
        ]
    return []


@_record
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

    __slots__ = ("_leaves", "_mode")

    def __post_init__(self):
        _check_sections("Scenario", **self._asdict())
        object.__setattr__(self, "_leaves", leaves_of(self.aid, self.user, self.dependency, self.policy))
        object.__setattr__(self, "_mode", resolve_degradation_mode(self.degradation_mode, self.dependency))

    @property
    def effective_degradation_mode(self) -> str:
        """The explicit mode if set, else the dependency-based default."""
        return self._mode

    @property
    def leaves(self) -> dict[str, float]:
        """Every probability of the scenario keyed by its dot-path, as a fresh dict."""
        return dict(self._leaves)


def leaves_of(aid, user, dependency, policy=None) -> dict[str, float]:
    """The probabilities of a scenario's sections keyed by their dot-paths."""
    return {
        path: getattr(section, name)
        for section in (aid, user, policy, dependency)
        if section is not None
        for name, path in _FIELDS[type(section)].items()
    }


def _scenario_violations(mode, sections: Mapping[str, Any]) -> list[ConstraintViolation]:
    """The degradation mode's check, then the dependency's bound checks once
    the aid, user and dependency `sections` are all known."""
    violations = []
    if mode is not None and mode not in DEGRADATION_MODES:
        violations.append(
            ConstraintViolation("degradation_mode", mode, "{" + ", ".join(DEGRADATION_MODES) + "}")
        )
    aid, user, dependency = sections.get("aid"), sections.get("user"), sections.get("dependency")
    if aid is not None and user is not None and dependency is not None:
        p_both = getattr(dependency, "p_both_correct", None)
        violations.extend(bound_violations(dependency, aid.p_advice_correct, user.p_unaided_correct, p_both))
    return violations


def resolve_degradation_mode(mode: str | None, dependency: DependencyModel) -> str:
    """`mode` if given, else fixed_rate under independence and conditional_from_joint otherwise."""
    if mode is not None:
        return mode
    return FIXED_RATE if isinstance(dependency, Independent) else CONDITIONAL_FROM_JOINT


def _joint_within_bounds(values: Mapping[str, Any]):
    lo, hi = frechet_bounds(values[P_ADVICE], values[P_UNAIDED])
    return _min(_max(values[P_BOTH], lo), hi)


# P(advisor correct AND user would be correct) per dependency class, from the
# leaves; clamped to the exact Frechet-Hoeffding bounds, so values admitted
# under the validation slack cannot produce negative cell masses.
_JOINT_SUCCESS = {
    Independent: lambda values: values[P_ADVICE] * values[P_UNAIDED],
    Dominant: lambda values: _min(values[P_ADVICE], values[P_UNAIDED]),
    Joint: _joint_within_bounds,
}


def joint_success_probability(dependency: DependencyModel, values: Mapping[str, Any]):
    """P(advisor correct AND user would be correct) implied by the dependency.

    `values` maps dot-paths to floats or numpy arrays (see Scenario.leaves).
    """
    return _JOINT_SUCCESS[type(dependency)](values)


def conditional_user_rates(scenario: Scenario) -> tuple[float, float]:
    """(P(user would be correct | advice correct), P(user would be correct | advice wrong)).

    Degenerate conditionals are pinned to zero (p_advice_correct = 1 leaves
    no wrong advice, and 0 no correct advice).
    """
    values = scenario._leaves
    p_a, p_u = values[P_ADVICE], values[P_UNAIDED]
    if isinstance(scenario.dependency, Independent):
        return p_u, p_u
    p11 = joint_success_probability(scenario.dependency, values)
    given_correct = min(1.0, p11 / p_a) if p_a != 0.0 else 0.0
    given_wrong = min(1.0, max(0.0, (p_u - p11) / (1.0 - p_a))) if p_a != 1.0 else 0.0
    return given_correct, given_wrong


@_record
class EvalResult(_Wire):
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
    _CODECS = {"outcome_table": _cells("probability"), "notes": _TUPLE}
    # the wire order is not the field order, which positional callers rely on
    _WIRE_ORDER = ("p_correct_aided", "p_accept_marginal", "outcome_table", "notes")

    def __post_init__(self):
        check_cells(self.outcome_table, "outcome_table")
        guard, headline = self._GUARD, self.p_correct_aided
        total = accepted = correct = 0.0
        for cell, p in self.outcome_table.items():
            if not -guard <= p <= 1.0 + guard:
                raise ValueError(f"outcome_table cell {cell} holds {p!r}, not in [0, 1]")
            total += p
            if cell[1]:
                accepted += p
            if cell[2]:
                correct += p
        if abs(total - 1.0) > guard:
            raise ValueError(f"outcome_table sums to {total!r}, expected 1")
        if not (-guard <= headline <= 1.0 + guard and abs(correct - headline) <= guard):
            raise ValueError(f"p_correct_aided={headline!r} is not the final-correct mass {correct!r}")
        if not abs(accepted - _as_float(self.p_accept_marginal)) <= guard:
            raise ValueError(f"p_accept_marginal={self.p_accept_marginal!r} is not the accepted mass {accepted!r}")


_TOP_KEYS = {*_SECTIONS, "degradation_mode"}


def _check_section(raw: Mapping[str, Any], name: str, violations: list[ConstraintViolation]):
    """Validate one section strictly; return its object if clean, else None."""
    section = raw[name]
    variants = _SECTIONS[name]
    tagged = isinstance(variants, dict)
    if not isinstance(section, Mapping):
        # only a plain section carries this detail, as the pinned texts have it
        detail = "" if tagged else "section missing or wrong type"
        violations.append(ConstraintViolation(name, section, "JSON object", detail))
        return None
    cls = variants
    if tagged:
        kind = section.get("type")
        cls = variants.get(kind) if isinstance(kind, str) else None
        if cls is None:
            allowed = "{" + ", ".join(sorted(variants)) + "}"
            violations.append(ConstraintViolation(f"{name}.type", kind, allowed))
            return None
    unknown = set(section) - _FIELDS[cls].keys() - ({"type"} if tagged else set())
    for key in sorted(unknown):
        violations.append(
            ConstraintViolation(
                f"{name}.{key}", section[key], "(no such field)", "unknown field rejected"
            )
        )
    # Set each checked value directly: building through `cls(...)` would check
    # it again and warn about a degraded user before the scenario is known to
    # be valid; `validate_scenario` warns once it is.
    checked = object.__new__(cls)
    ok = not unknown
    for key, path in _FIELDS[cls].items():
        if key not in section:
            violations.append(ConstraintViolation(path, None, "[0, 1]", "required field missing"))
            ok = False
            continue
        try:
            object.__setattr__(checked, key, as_probability(section[key], path))
        except ScenarioValidationError as err:
            violations.extend(err.violations)
            ok = False
    return checked if ok else None


def validate_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Build a Scenario from raw (JSON-shaped) data, checking every constraint.

    Unknown fields are rejected at every level.  On failure raises
    ScenarioValidationError carrying the complete list of violations.  A
    valid scenario whose post-rejection rate exceeds its unaided rate issues
    one DegradedRateWarning at the caller's line; an invalid one issues none.
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
    for key in _SECTIONS:
        if key not in raw:
            violations.append(
                ConstraintViolation(key, None, "JSON object", "required section missing")
            )
    sections = {name: _check_section(raw, name, violations) for name in _SECTIONS if name in raw}
    mode = raw.get("degradation_mode")
    if violations:
        violations.extend(_scenario_violations(mode, sections))
        raise ScenarioValidationError(violations)
    scenario = Scenario(**sections, degradation_mode=mode)
    if scenario.user.p_post_reject_correct > scenario.user.p_unaided_correct:
        _warn_degraded_rate()
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Canonical JSON form of a scenario; the degradation mode is made explicit.

    The result round-trips: validate_scenario(scenario_to_dict(s)) canonicalizes
    back to the same dictionary.
    """
    canonical: dict[str, Any] = {}
    for name, variants in _SECTIONS.items():
        section = getattr(scenario, name)
        tag = {"type": _WIRE_NAMES[type(section)]} if isinstance(variants, dict) else {}
        canonical[name] = {**tag, **section._asdict()}
    canonical["degradation_mode"] = scenario.effective_degradation_mode
    return canonical


def _grid_leaves(base: Scenario, path: str, value_at, count: int) -> tuple[dict[str, float], tuple[float, float]]:
    """The base's leaves with the leaf at `path` clamped to a grid value, and
    the grid's two end values, once `path` names a probability leaf of the
    base and each of the `count` floats `value_at(i)` of a monotone grid
    passes the validator's own range and bound rules; otherwise SweepError
    wrapping the validator's error for the first invalid value.  Then one
    DegradedRateWarning if a value's post-rejection rate exceeds its unaided
    rate and the base's does not.  One leaf's valid values form an interval,
    and so do its degraded ones, so the two ends decide both; where the last
    alone is invalid, bisection over plain ints finds the first, as `bisect`
    takes no index past `sys.maxsize`."""
    section = path.split(".")[0]
    if path.count(".") != 1 or section not in _SECTIONS:
        raise SweepError(f"parameter_path {path!r} not recognized")
    if path not in base._leaves:
        kind = _WIRE_NAMES.get(type(getattr(base, section)), section)
        raise SweepError(f"parameter_path {path!r} not applicable to this scenario ({section} is {kind!r})")
    leaves, degraded = base.leaves, False

    def violations(value: float) -> list[ConstraintViolation]:
        # what `validate_scenario` reports for the base with this value: the
        # clamped value outside [0, 1], else the dependency past its bound
        clamped = leaves[path] = _clamped(value)
        return _range_violations(clamped, path) or bound_violations(
            base.dependency, leaves[P_ADVICE], leaves[P_UNAIDED], leaves.get(P_BOTH)
        )

    ends = value_at(0), value_at(count - 1)
    for end, value in zip((0, count - 1), ends):
        if violations(value):
            # past a valid end 0 the invalid indices form a suffix: bisect for its start
            lo, first = 1, end
            while lo < first:
                mid = (lo + first) // 2
                if violations(value_at(mid)):
                    first = mid
                else:
                    lo = mid + 1
            value = value_at(first)
            err = ScenarioValidationError(violations(value))
            raise SweepError(f"swept value {value!r} for {path!r} is invalid: {err}") from err
        degraded = degraded or leaves[P_POST_REJECT] > leaves[P_UNAIDED]
    if degraded and not base.user.p_post_reject_correct > base.user.p_unaided_correct:
        _warn_degraded_rate()
    return leaves, ends
