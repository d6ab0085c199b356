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
import warnings
from collections.abc import Mapping
from itertools import product
from operator import itemgetter
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

_in_order = itemgetter(*OUTCOME_CELLS)
_EMPTY_CELLS = ((True, True, False), (False, True, True))  # used advice is the final answer
_empties = itemgetter(*map(OUTCOME_CELLS.index, _EMPTY_CELLS))


def _cell_sums(table: Mapping[tuple[bool, bool, bool], Any], name: str, top, slack=0) -> tuple:
    """The used, advice-correct and final-correct sums of the outcome table
    `name`, once its eight canonical cells are each in [0, `top`] ([0, 0] if
    empty) and sum to `top`, within `slack`; else ValueError naming the first
    bad cell, which is sought only then, or the sum."""
    try:
        c = _in_order(table)
    except KeyError:
        c = None
    if c is None or len(table) != len(c):
        raise ValueError(f"{name} must cover exactly the 8 canonical cells")
    if -slack <= min(c) and max(c) <= top + slack and not any(_empties(c)) and abs(sum(c) - top) <= slack:
        return c[0] + c[1] + c[4] + c[5], c[0] + c[1] + c[2] + c[3], c[0] + c[2] + c[4] + c[6]
    for cell, v in zip(OUTCOME_CELLS, c):
        if not -slack <= v <= top + slack or v and cell in _EMPTY_CELLS:
            raise ValueError(f"{name} cell {cell} holds {v!r}, not in [0, {0 if cell in _EMPTY_CELLS else top}]")
    raise ValueError(f"{name} sum to {sum(c)!r}, expected {top}")


class _Record:
    """The base of every frozen record, which `_record` builds.

    A record is built by position or keyword through `__init__`, then
    `__post_init__`; it equals a record of the same class with equal fields,
    hashes by them and is shown as ``Name(field=value, ...)``.  Fields cannot
    be assigned or deleted.  A copy or an unpickled record gets its slots set
    as they were, without `__post_init__`, so it neither checks nor warns
    again.  `__replace__` (`copy.replace` from Python 3.13) builds a new
    record through `__init__`, so a degraded `UserProfile` it rebuilds warns
    at `__replace__`'s own line.
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
    slower on every result built and every scenario serialised.
    A result class gets its `_WIRE` table here too, so no codec is looked up
    per call; a field whose annotation `_SHAPES` lacks, and that no `_CODECS`
    entry states, is a TypeError here, so that no field is read unchecked.
    """
    namespace = dict(vars(cls))
    annotations = namespace.get("__annotations__", {})
    fields = tuple(annotations)
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
        codecs = {key: cls._CODECS.get(key) or _SHAPES.get(annotations[key]) for key in fields}
        for key, codec in codecs.items():
            if codec is None:
                raise TypeError(f"{cls.__name__} {key} has no JSON shape for its annotation {annotations[key]!r}")
        namespace["_WIRE"] = tuple((key, *codecs[key]) for key in namespace.get("_WIRE_ORDER", fields))
    bases = cls.__bases__ if issubclass(cls, _Record) else (_Record,)
    return type(cls.__name__, bases, namespace)


class _Wire(_Record):
    """`to_dict` and `from_dict` read the `_WIRE` table that `_record` derives:
    (key, encode, read) per field, in `_WIRE_ORDER` if the class states one,
    else in field order.  A field's annotation picks its codec in `_SHAPES`,
    unless the class's `_CODECS` states one, as for `d_star`'s "unattainable".
    A reader refuses any JSON type but its field's, inside the field too, in
    one TypeError: "<Class> <field>[<index or key>] must be <shape>, got
    <value>".  `from_dict` may omit a field with a default, such as `notes`,
    and names any other missing key in a KeyError, an unknown one in a ValueError.
    """

    __slots__ = ()
    _CODECS = {}

    def to_dict(self) -> dict[str, Any]:
        data = {}
        for key, encode, _ in self._WIRE:
            value = getattr(self, key)
            data[key] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        unknown = _object(data, cls.__name__).keys() - cls._fields
        if unknown:
            raise ValueError(f"{cls.__name__} has no field {', '.join(sorted(map(repr, unknown)))}")
        values = {}
        for key, _, read in cls._WIRE:
            if key in data or key not in cls._defaults:
                values[key] = read(data[key], f"{cls.__name__} {key}")
        return cls(**values)


def _is_number(value) -> bool:
    """Whether `value` is a JSON number: an int or a float, and no bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reader(shape: str, accepts, decode=None):
    """The reader of a JSON value of `shape`, which `accepts`, through `decode` if given."""

    def read(value, where: str):
        if not accepts(value):
            raise TypeError(f"{where} must be {shape}, got {value!r}")
        return value if decode is None else decode(value)

    return read


_number = _reader("a number", _is_number)
_int = _reader("an int", lambda value: isinstance(value, int) and not isinstance(value, bool))
_string = _reader("a string", lambda value: isinstance(value, str))
_bool = _reader("a bool", lambda value: isinstance(value, bool))
_object = _reader("an object", lambda value: isinstance(value, Mapping))


def _list(item, size=None):
    """The reader of a JSON list, of `size` items if given, as a tuple of what `item` reads from each."""
    shape = f"a list of {size} items" if size else "a list"
    whole = _reader(shape, lambda v: isinstance(v, list) and size in (None, len(v)))
    return lambda items, where: tuple(item(v, f"{where}[{i}]") for i, v in enumerate(whole(items, where)))


def _dict(item):
    """The reader of a JSON object as a dict of what `item` reads from each value."""
    return lambda data, where: {key: item(v, f"{where}[{key!r}]") for key, v in _object(data, where).items()}


def _cells(key: str, value) -> tuple:
    """Encode and read of an eight-cell table as JSON rows in canonical
    order, each an object of exactly the three bool flags and `key`, whose
    value `value` reads: another key, or a cell an earlier row holds, is a
    ValueError, and a missing key a KeyError.  `_cell_sums` checks the rest."""
    flags = a, u, f = "advice_correct", "accepted_or_used", "final_correct"
    rows = _list(_object)

    def read(data, where):
        table = {}
        for i, row in enumerate(rows(data, where)):
            name = f"{where}[{i}]"
            extra = row.keys() - {*flags, key}
            if extra:
                raise ValueError(f"{name} has no field {', '.join(sorted(map(repr, extra)))}")
            cell = tuple(_bool(row[flag], f"{name}[{flag!r}]") for flag in flags)
            if cell in table:
                raise ValueError(f"{name} repeats cell {cell}")
            table[cell] = value(row[key], f"{name}[{key!r}]")
        return table

    return lambda table: [{a: c[0], u: c[1], f: c[2], key: table[c]} for c in OUTCOME_CELLS], read


# The (encode, read) of a `_Wire` field by its annotation: the JSON shape the
# annotation states.  An encode of None writes the value as it is.
_SHAPES = {
    "float": (None, _number),
    "Probability": (None, _number),
    "int": (None, _int),
    "str": (None, _string),
    "float | None": (None, _reader("a number or null", lambda value: value is None or _is_number(value))),
    "tuple[float, float]": (list, _list(_number, 2)),
    "tuple[float, ...]": (list, _list(_number)),
    "tuple[str, ...]": (list, _list(_string)),
    "dict[str, float]": (dict, _dict(_number)),
    "dict[str, EvalResult]": (lambda results: {name: result.to_dict() for name, result in results.items()},
                              _dict(lambda data, where: EvalResult.from_dict(data))),
    "dict[tuple[bool, bool, bool], float]": _cells("probability", _number),
    "dict[tuple[bool, bool, bool], int]": _cells("count", _int),
}


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

    Defined here, not in ``sweep``, so that the CLI can catch it before it
    imports the sweep module; ``reliance.sweep`` re-exports it.
    """


def _warn_degraded_rate(stacklevel: int) -> None:
    """Warn that a post-rejection rate exceeds its unaided rate, at the line
    `stacklevel` frames up.  Each of the three callers passes its own fixed
    depth below the line to blame: where a `UserProfile` was built, where
    `validate_scenario` was called, or where `run_sweep` or
    `find_reference_crossing` was called."""
    warnings.warn(
        "p_post_reject_correct exceeds p_unaided_correct; deliberation "
        "time usually degrades the post-rejection rate",
        DegradedRateWarning,
        stacklevel=stacklevel,
    )


def as_probability(value: Any, name: str = "probability") -> float:
    """Validate a probability named `name`, as the Python float it is.

    A float in [0, 1] is kept as it is, sign of zero included: it needs no
    clamp.  Any other number (an int, or a float outside [0, 1]) is made a
    float, and clamped to its end if within 1e-12 of [0, 1].  A bool, a
    non-number or a value still outside [0, 1] raises
    ScenarioValidationError naming `name`.
    """
    if value.__class__ is float and 0.0 <= value <= 1.0:
        return value
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
    infinity of its sign, so that a range check refuses it.  Its callers'
    values are numbers already, checked by a reader or `as_probability`."""
    if value.__class__ is float:
        return value
    try:
        return float(value)
    except OverflowError:
        return -math.inf if value < 0 else math.inf


def _clamped(values):
    """The clamp of overshoot within 1e-12 of [0, 1] to its end, on floats or
    arrays, without the range check: `as_probability`, for a value outside
    [0, 1], and the sweep's grid both clamp through it."""
    values = _where((values >= -PROBABILITY_CLAMP) & (values < 0.0), 0.0, values)
    return _where((values > 1.0) & (values <= 1.0 + PROBABILITY_CLAMP), 1.0, values)


def _check_probabilities(section) -> None:
    """`__post_init__` of every section: each field through `as_probability`,
    named by its dot-path."""
    for name, path in _FIELDS[type(section)]:
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
            _warn_degraded_rate(4)  # under the generated `__init__`, at its caller


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
# The (field, dot-path) of every probability of each section class.
_FIELDS: dict[type, tuple[tuple[str, str], ...]] = {
    cls: tuple((key, f"{section}.{key}") for key in cls._fields)
    for section, classes in _CLASSES.items()
    for cls in classes
}


def _check_sections(owner: str, degradation_mode: str | None = None, **sections) -> dict[str, float]:
    """The probabilities of `sections` by dot-path, as `leaves_of` gives them,
    once each section's class is one its section admits (else TypeError
    naming the first that is not), and the degradation mode is known and the
    dependency within its bounds (else ScenarioValidationError)."""
    for name, section in sections.items():
        classes = _CLASSES[name]
        if type(section) not in classes:
            allowed = ", ".join(cls.__name__ for cls in classes)
            raise TypeError(f"{owner}.{name} must be one of {allowed}; got {section!r}")
    leaves = leaves_of(sections)
    violations = _scenario_violations(degradation_mode, sections.get("dependency"), leaves)
    if violations:
        raise ScenarioValidationError(violations)
    return leaves


def policy_name(policy: ReliancePolicy) -> str:
    """Wire name of a policy variant, e.g. ``"routine_accept"``."""
    return _WIRE_NAMES[type(policy)]


# `a if cond else b` for floats and numpy arrays alike; numpy is imported only
# when an array is passed, so it is already loaded.
def _where(cond, a, b):
    if isinstance(cond, bool):
        return a if cond else b
    import numpy

    return numpy.where(cond, a, b)


def _min(a, b):
    """min(a, b) on floats, elementwise on arrays: a unless b is strictly
    smaller, which decides between 0.0 and -0.0 as min does and np.minimum
    does not.  A float comparison decides here; only arrays reach `_where`."""
    smaller = b < a
    if smaller.__class__ is bool:
        return b if smaller else a
    return _where(smaller, b, a)


def _max(a, b):
    """max(a, b) on floats, elementwise on arrays, as `_min` is min."""
    larger = b > a
    if larger.__class__ is bool:
        return b if larger else a
    return _where(larger, b, a)


def frechet_bounds(p_a, p_u):
    """Feasible range for P(both correct) given the two marginals (floats or arrays)."""
    return _max(0.0, p_a + p_u - 1.0), _min(p_a, p_u)


def bound_violations(dependency: DependencyModel, leaves: Mapping[str, float]) -> list[ConstraintViolation]:
    """The violation, if any, of P(both correct) past its Frechet-Hoeffding
    bounds, or of a dominant advisor below the user, by more than
    BOUND_TOLERANCE, at the float `leaves` of a scenario or of one sweep
    value; None, for a dependency not known, has none."""
    p_a, p_u = leaves[P_ADVICE], leaves[P_UNAIDED]
    if isinstance(dependency, Joint):
        p_both = leaves[P_BOTH]
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
        object.__setattr__(self, "_leaves", _check_sections("Scenario", **self._asdict()))
        object.__setattr__(self, "_mode", resolve_degradation_mode(self.degradation_mode, self.dependency))

    @property
    def effective_degradation_mode(self) -> str:
        """The explicit mode if set, else the dependency-based default."""
        return self._mode

    @property
    def leaves(self) -> dict[str, float]:
        """Every probability of the scenario keyed by its dot-path, as a fresh dict."""
        return dict(self._leaves)


def leaves_of(sections: Mapping[str, Any]) -> dict[str, float]:
    """The probabilities of the `sections`, a mapping of section name to
    record in schema order, keyed by their dot-paths; a section left None
    has none."""
    leaves = {}
    for section in sections.values():
        if section is not None:
            for name, path in _FIELDS[type(section)]:
                leaves[path] = getattr(section, name)
    return leaves


def _scenario_violations(mode, dependency, leaves: Mapping[str, float]) -> list[ConstraintViolation]:
    """The degradation mode's check, then the bound checks of the
    `dependency`, if any, once the aid's and user's `leaves` are known."""
    violations = []
    if mode is not None and mode not in DEGRADATION_MODES:
        violations.append(
            ConstraintViolation("degradation_mode", mode, "{" + ", ".join(DEGRADATION_MODES) + "}")
        )
    if P_ADVICE in leaves and P_UNAIDED in leaves:
        violations.extend(bound_violations(dependency, leaves))
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
            final_correct) cell; the eight cells sum to one, and the two
            `_EMPTY_CELLS`, where used advice is not the final answer, hold 0.
        p_accept_marginal: marginal probability of adopting the advice.
        notes: human-readable caveats (defaults applied, assumptions).

    Each cell and the headline lie in [0, 1], and the sums, headline and use
    rate agree, each within `_GUARD`.
    """

    p_correct_aided: Probability
    outcome_table: dict[tuple[bool, bool, bool], float]
    p_accept_marginal: Probability
    notes: tuple[str, ...] = ()

    # Loose construction guard; the test suite asserts the 1e-12 versions on
    # every computed result. The slack covers 12-significant-digit round-trips.
    _GUARD = 1e-9
    # the wire order is not the field order, which positional callers rely on
    _WIRE_ORDER = ("p_correct_aided", "p_accept_marginal", "outcome_table", "notes")

    def __post_init__(self):
        guard, headline = self._GUARD, self.p_correct_aided
        accepted, _, correct = _cell_sums(self.outcome_table, "outcome_table", 1, guard)
        if not (-guard <= headline <= 1.0 + guard and abs(correct - headline) <= guard):
            raise ValueError(f"p_correct_aided={headline!r} is not the final-correct mass {correct!r}")
        if not abs(accepted - _as_float(self.p_accept_marginal)) <= guard:
            raise ValueError(f"p_accept_marginal={self.p_accept_marginal!r} is not the accepted mass {accepted!r}")


_TOP_KEYS = frozenset((*_SECTIONS, "degradation_mode"))
# The keys each section class admits in its JSON object: its fields, and the
# "type" tag of a tagged section.
_KEYS: dict[type, frozenset[str]] = {
    cls: frozenset((*cls._fields, *(("type",) if cls in _WIRE_NAMES else ()))) for cls in _FIELDS
}


def _unknown_fields(data: Mapping, allowed: frozenset[str], prefix: str) -> list[ConstraintViolation]:
    """A violation per key of `data` outside `allowed`, named `prefix` plus the
    key: string keys in sorted order, then any other key by its repr, as keys
    of mixed types do not compare."""
    if data.keys() <= allowed:
        return []
    return [
        ConstraintViolation(f"{prefix}{key}", data[key], "(no such field)", "unknown field rejected")
        for key in sorted(data.keys() - allowed, key=_key_order)
    ]


def _key_order(key) -> tuple:
    return (0, key) if isinstance(key, str) else (1, repr(key))


def _check_section(raw: Mapping[str, Any], name: str, violations: list[ConstraintViolation]):
    """Validate one section strictly; return its object if clean, else None.

    Each field goes through `as_probability` once, as the float it is in
    JSON; unknown keys are those outside the section class's `_KEYS`."""
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
    unknown = _unknown_fields(section, _KEYS[cls], f"{name}.")
    violations += unknown
    # Set each checked value directly: building through `cls(...)` would check
    # it again and warn about a degraded user before the scenario is known to
    # be valid; `validate_scenario` warns once it is.
    checked = object.__new__(cls)
    ok = not unknown
    for key, path in _FIELDS[cls]:
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

    Unknown fields are rejected at every level, each named, whatever the type
    of its key.  Each probability is checked once by `as_probability`, on the
    Python float it is; each cross-field rule runs once, as the Scenario is
    built.  On failure raises ScenarioValidationError carrying the complete
    list of violations.  A valid scenario whose post-rejection rate exceeds
    its unaided rate issues one DegradedRateWarning at the caller's line; an
    invalid one issues none.
    """
    if not isinstance(raw, Mapping):
        raise ScenarioValidationError(
            [ConstraintViolation("scenario", raw, "JSON object")]
        )
    violations = _unknown_fields(raw, _TOP_KEYS, "")
    for key in _SECTIONS:
        if key not in raw:
            violations.append(
                ConstraintViolation(key, None, "JSON object", "required section missing")
            )
    sections = {name: _check_section(raw, name, violations) for name in _SECTIONS if name in raw}
    mode = raw.get("degradation_mode")
    if violations:
        violations.extend(_scenario_violations(mode, sections.get("dependency"), leaves_of(sections)))
        raise ScenarioValidationError(violations)
    scenario = Scenario(**sections, degradation_mode=mode)
    if scenario.user.p_post_reject_correct > scenario.user.p_unaided_correct:
        _warn_degraded_rate(3)
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
        return _range_violations(clamped, path) or bound_violations(base.dependency, leaves)

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
        _warn_degraded_rate(4)  # at the caller of `run_sweep` or `find_reference_crossing`
    return leaves, ends
