"""Properties of the closed forms over every policy x dependency x mode, edges included."""

import contextlib
import io
import json
import math
import re
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reliance.analytic import (  # noqa: E402
    TIE_TOLERANCE,
    BreakevenResult,
    PolicyComparison,
    breakeven_discrimination,
    compare_policies,
    evaluate,
)
from reliance.cli import main  # noqa: E402
from reliance.model import (  # noqa: E402
    DegradedRateWarning,
    Discriminating,
    EvalResult,
    ScenarioValidationError,
    _SHAPES,
    frechet_bounds,
    scenario_to_dict,
    validate_scenario,
)
from reliance.simulate import SimEstimate, estimate_accuracy  # noqa: E402
from reliance.sweep import (  # noqa: E402
    SweepError,
    SweepSeries,
    SweepSpec,
    find_reference_crossing,
    run_sweep,
    sensitivity,
)

from conftest import FD_STEP, assert_clamps_alike, perturbed_scenario, replace  # noqa: E402

EXACT = 1e-12
SLACK = 5e-10  # inside the 1e-9 bound tolerance
POLICY_FIELDS = {
    "routine_accept": (),
    "routine_ignore": (),
    "indiscriminate": ("p_accept",),
    "discriminating": ("p_accept_given_correct", "p_accept_given_wrong"),
    "self_gated": ("p_ignore_given_user_correct", "p_use_given_user_wrong"),
}

pytestmark = pytest.mark.filterwarnings("ignore::reliance.model.DegradedRateWarning")
PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

edge_probability = st.one_of(
    st.sampled_from((0.0, 1.0, 1e-300, 0.5, 1.0 - 2.0**-53)), st.floats(0.0, 1.0)
)
interior_probability = st.floats(0.05, 0.95)


@st.composite
def scenarios(draw, probability=edge_probability, interior=False):
    """A validated scenario; with `interior`, every bound is kept at a distance."""
    p_a, p_u, r = draw(probability), draw(probability), draw(probability)
    kind = draw(st.sampled_from(("independent", "joint", "dominant")))
    dependency = {"type": kind}
    if kind == "dominant":
        p_a, p_u = max(p_a, p_u), min(p_a, p_u)
        if interior:
            assume(p_a - p_u > 1e-3)
        elif draw(st.booleans()):
            p_a = max(0.0, p_u - SLACK)
    elif kind == "joint":
        lo, hi = frechet_bounds(p_a, p_u)
        share = draw(st.floats(0.02, 0.98) if interior else st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
        dependency["p_both_correct"] = lo + share * (hi - lo)
        if interior:
            assume(hi - lo > 1e-3)
        else:
            dependency["p_both_correct"] += draw(st.sampled_from((0.0, 0.0, SLACK, -SLACK)))
    policy = draw(st.sampled_from(sorted(POLICY_FIELDS)))
    raw = {
        "aid": {"p_advice_correct": p_a},
        "user": {"p_unaided_correct": p_u, "p_post_reject_correct": r},
        "policy": {"type": policy, **{field: draw(probability) for field in POLICY_FIELDS[policy]}},
        "dependency": dependency,
    }
    mode = draw(st.sampled_from((None, "fixed_rate", "conditional_from_joint")))
    if mode is not None:
        raw["degradation_mode"] = mode
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedRateWarning)
            return validate_scenario(raw)
    except ScenarioValidationError:
        assume(False)


@PROPERTY
@given(scenarios())
def test_cells_are_a_distribution_whose_correct_mass_is_the_headline(scenario):
    result = evaluate(scenario)
    cells = result.outcome_table.values()
    assert all(p >= 0.0 for p in cells)
    assert sum(cells) == pytest.approx(1.0, abs=EXACT)
    correct = sum(p for (_, _, final), p in result.outcome_table.items() if final)
    assert correct == pytest.approx(result.p_correct_aided, abs=EXACT)


@PROPERTY
@given(scenarios(), st.data())
def test_sweep_points_equal_evaluate_bit_for_bit(scenario, data):
    canonical = scenario_to_dict(scenario)
    leaves = [(s, k) for s in ("aid", "user", "policy", "dependency") for k in canonical[s] if k != "type"]
    section, key = data.draw(st.sampled_from(leaves))
    path = f"{section}.{key}"
    try:
        series = run_sweep(SweepSpec(scenario, path, canonical[section][key], data.draw(edge_probability), 3))
    except SweepError:
        assume(False)
    for value, accuracy in zip(series.parameter_values, series.accuracies):
        raw = scenario_to_dict(scenario)
        raw[section][key] = value
        assert repr(accuracy) == repr(evaluate(validate_scenario(raw)).p_correct_aided)


@PROPERTY
@given(scenarios(interior_probability, interior=True))
def test_sensitivity_agrees_with_central_differences_of_evaluate(scenario):
    for name, exact in sensitivity(scenario).items():
        up = evaluate(perturbed_scenario(scenario, name, FD_STEP)).p_correct_aided
        down = evaluate(perturbed_scenario(scenario, name, -FD_STEP)).p_correct_aided
        assert (up - down) / (2 * FD_STEP) == pytest.approx(exact, abs=1e-6), name


@PROPERTY
@given(st.floats() | st.floats(-2e-12, 2e-12) | st.floats(1.0 - 2e-12, 1.0 + 2e-12))
def test_the_float_clamp_is_the_array_clamp(value):
    # any float, and floats near the two clamp bands, which any float rarely hits
    assert_clamps_alike(value)


@PROPERTY
@given(scenarios())
def test_scenario_dict_round_trips(scenario):
    canonical = scenario_to_dict(scenario)
    again = validate_scenario(canonical)
    assert repr(scenario_to_dict(again)) == repr(canonical)
    assert again == replace(scenario, degradation_mode=scenario.effective_degradation_mode)


@PROPERTY
@given(scenarios())
def test_results_round_trip_through_json_text(scenario):
    sections = (scenario.aid, scenario.user, scenario.dependency, scenario.degradation_mode)
    for result in evaluate(scenario), compare_policies(scenario), breakeven_discrimination(*sections):
        assert type(result).from_dict(json.loads(json.dumps(result.to_dict()))) == result


@PROPERTY
@given(scenarios())
def test_compare_margins_and_best_policy(scenario):
    comparison = compare_policies(scenario)
    accuracy = {name: r.p_correct_aided for name, r in comparison.results.items()}
    top = max(accuracy.values())
    precedence = ["routine_ignore", "routine_accept", comparison.configured_policy]
    assert comparison.best_policy == next(n for n in precedence if accuracy[n] >= top - TIE_TOLERANCE)
    for name, margin in comparison.margins.items():
        assert margin >= 0.0
        assert margin == max(0.0, accuracy[comparison.best_policy] - accuracy[name])


@PROPERTY
@given(scenarios())
def test_breakeven_d_star_lies_in_the_domain_and_meets_the_target(scenario):
    result = breakeven_discrimination(
        scenario.aid, scenario.user, scenario.dependency, scenario.degradation_mode
    )
    assert result.target == max(scenario.aid.p_advice_correct, scenario.user.p_unaided_correct)
    if result.d_star is None:
        return
    assert 0.5 <= result.d_star <= 1.0
    at_d_star = replace(scenario, policy=Discriminating(result.d_star, 1.0 - result.d_star))
    assert evaluate(at_d_star).p_correct_aided >= result.target - TIE_TOLERANCE


def gap(scenario, path, value):
    """Aided accuracy minus the base unaided rate with one leaf set to value."""
    section, key = path.split(".")
    raw = scenario_to_dict(scenario)
    raw[section][key] = value
    return evaluate(validate_scenario(raw)).p_correct_aided - scenario.user.p_unaided_correct


@PROPERTY
@given(scenarios(), st.data())
def test_the_gaps_half_a_tol_either_side_of_a_crossing_straddle_zero(scenario, data):
    canonical = scenario_to_dict(scenario)
    leaves = [f"{s}.{k}" for s in ("aid", "user", "policy", "dependency") for k in canonical[s] if k != "type"]
    path = data.draw(st.sampled_from(leaves))
    start, stop = data.draw(edge_probability), data.draw(edge_probability)
    tol = data.draw(st.sampled_from((1e-6, 1e-9, 1e-12)))
    spec = SweepSpec(scenario, path, start, stop, data.draw(st.integers(2, 12)))
    try:
        x = find_reference_crossing(spec, tol=tol)
    except SweepError:
        assume(False)
    assume(x is not None)
    # kept inside the grid, which the sweep validated
    lo, hi = min(spec.grid()), max(spec.grid())
    below, above = gap(scenario, path, max(lo, x - 0.5 * tol)), gap(scenario, path, min(hi, x + 0.5 * tol))
    assert min(below, above) <= 0.0 <= max(below, above)


# --- every reader refuses a one-leaf mutation with a documented error ---------

ATOMS = (None, True, False, 0, -0.0, math.nan, math.inf, -math.inf, 10**400, -(10**400),
         "", "x", [], {}, [None], {"a": 1})
# SweepError is a ValueError
DOCUMENTED = (ScenarioValidationError, ValueError, TypeError, KeyError)
# The JSON types a result field admits, by its annotation, stated apart from
# `model._SHAPES`: a tuple is a list, a dict an object, a cell table a list of rows.
NUMBER = (int, float)
ADMITS = {
    "float": NUMBER,
    "Probability": NUMBER,
    "int": (int,),
    "str": (str,),
    "float | None": (*NUMBER, type(None)),
    "tuple[float, float]": (list,),
    "tuple[float, ...]": (list,),
    "tuple[str, ...]": (list,),
    "dict[str, float]": (dict,),
    "dict[str, EvalResult]": (dict,),
    "dict[tuple[bool, bool, bool], float]": (list,),
    "dict[tuple[bool, bool, bool], int]": (list,),
}
# a field whose class states its own JSON form: `d_star` is a number or "unattainable"
OWN_FORMS = {(BreakevenResult, "d_star"): NUMBER}


def admitted(cls, key):
    """The JSON types of a value that field `key` of the result type `cls` reads."""
    return OWN_FORMS.get((cls, key)) or ADMITS[cls.__annotations__[key]]


def test_the_admitted_types_cover_every_annotation_the_readers_know():
    assert set(_SHAPES) == set(ADMITS)


def node_paths(data, path=()):
    """The path to every value inside the JSON-shaped `data`, containers included."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from node_paths(value, path + (key,))


def leaf_at(data, path):
    """The value at `path` inside `data`."""
    for key in path:
        data = data[key]
    return data


def mutated(data, path, atom):
    """`data` with the value at `path` replaced by `atom`; only the containers
    on the path are copied."""
    if not path:
        return atom
    head, *rest = path
    copied = dict(data) if isinstance(data, dict) else list(data)
    copied[head] = mutated(data[head], rest, atom)
    return copied


def naming(cls, path):
    """The start of a refusal that names the field holding `path` in the dict
    of a `cls` result: a compared result's, inside a comparison, by its key."""
    owner = cls.__name__
    if cls is PolicyComparison and path[0] == "results" and len(path) > 2:
        owner, path = f"{owner} results[{path[1]!r}]", path[2:]
    return rf"^{re.escape(owner)} {re.escape(path[0])}[ \[]"


@settings(PROPERTY, max_examples=16)
@given(scenarios())
def test_every_reader_refuses_a_mutated_leaf_with_a_documented_error(scenario):
    # a swept leaf every scenario has, held at its own value
    path, value = "aid.p_advice_correct", scenario.aid.p_advice_correct
    sections = (scenario.aid, scenario.user, scenario.dependency, scenario.degradation_mode)
    readers = [
        (validate_scenario, scenario_to_dict(scenario)),
        (EvalResult, evaluate(scenario).to_dict()),
        (PolicyComparison, compare_policies(scenario).to_dict()),
        (BreakevenResult, breakeven_discrimination(*sections).to_dict()),
        (SimEstimate, estimate_accuracy(scenario, 100, seed=1).to_dict()),
        (SweepSeries, run_sweep(SweepSpec(scenario, path, value, value, 3)).to_dict()),
        (lambda fields: SweepSpec(scenario, **fields), {"parameter_path": path, "start": 0.0, "stop": 1.0, "steps": 5}),
    ]
    for reader, data in readers:
        cls = reader if isinstance(reader, type) else None
        read = reader if cls is None else cls.from_dict
        for node in node_paths(data):
            for atom in ATOMS:
                try:
                    read(mutated(data, node, atom))
                except DOCUMENTED:
                    pass
            leaf = leaf_at(data, node)
            if cls is not None and type(leaf) in (int, float):
                # no number of a result is nan or infinite: each is refused by name
                for atom in (math.nan, math.inf, -math.inf):
                    with pytest.raises(DOCUMENTED, match=naming(cls, node)):
                        read(mutated(data, node, atom))
            if cls is not None and len(node) == 1:
                # a result field refuses every JSON type but its own, naming it
                for atom in ATOMS:
                    if type(atom) not in admitted(cls, node[0]):
                        with pytest.raises(TypeError, match=naming(cls, node)):
                            read(mutated(data, node, atom))
                continue
            # inside a field: no number is a bool, no count of an estimate a
            # float, no cell flag the int it equals, and no notes anything but
            # a list of strings
            wrongs = ()
            if type(leaf) in (int, float):
                integer = cls is SimEstimate and type(leaf) is int
                wrongs = (True, False, float(leaf)) if integer else (True, False)
            elif type(leaf) is bool:
                wrongs = (int(leaf),)
            elif node[-1] == "notes":
                wrongs = [atom for atom in ATOMS if atom != []]
            for wrong in wrongs:
                with pytest.raises(TypeError if cls else DOCUMENTED, match=cls and naming(cls, node)):
                    read(mutated(data, node, wrong))


# --- the CLI keeps its exit-code contract on any input ------------------------

LEAF_PATHS = ("aid.p_advice_correct", "user.p_unaided_correct", "user.p_post_reject_correct",
              "policy.p_accept", "policy.p_accept_given_wrong", "dependency.p_both_correct")


@st.composite
def scenario_files(draw):
    """The bytes of a scenario file: half of them a valid scenario as it is,
    the rest one with a value replaced by an atom, or raw bytes."""
    kind = draw(st.sampled_from(("valid", "valid", "mutated", "raw")))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    data = scenario_to_dict(draw(scenarios()))
    if kind == "mutated":
        node = draw(st.sampled_from(list(node_paths(data))))
        data = mutated(data, node, draw(st.sampled_from(ATOMS)))
    return json.dumps(data).encode()


# option values that are no number, or below every size's lower bound
JUNK = ("", "x", "nan", "-inf", "1e400", "0x1", "--help", "0", "-1")


@st.composite
def command_lines(draw):
    """A command with arbitrary option values, inside the fuzz's size limits:
    at most 50 trials, 4 shards and 1000 steps, none at a CLI bound.  Half
    of them have one option value replaced by junk."""
    command = draw(st.sampled_from(("eval", "compare", "simulate", "sweep", "breakeven")))
    bound = st.one_of(edge_probability, st.floats(-0.5, 1.5), st.floats()).map(repr)
    options = {
        "eval": {"--format": st.sampled_from(("json", "csv", "xml"))},
        "simulate": {
            "--trials": st.integers(1, 50).map(str),
            "--seed": st.integers(-(2**70), 2**70).map(str),
            "--shards": st.integers(1, 4).map(str),
        },
        "sweep": {
            "--param": st.sampled_from(LEAF_PATHS),
            "--from": bound,
            "--to": bound,
            "--steps": st.integers(2, 1000).map(str),
        },
    }.get(command, {})
    argv = [command]
    for flag, values in options.items():
        argv += [flag, draw(values)]
    if options and draw(st.booleans()):
        argv[draw(st.sampled_from(range(2, len(argv), 2)))] = draw(st.sampled_from(JUNK))
    return argv


@settings(PROPERTY, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario_files(), command_lines())
def test_the_cli_exits_0_to_3_without_a_traceback(tmp_path, content, argv):
    scenario_file, out = tmp_path / "scenario.json", tmp_path / "out.csv"
    scenario_file.write_bytes(content)
    argv = [argv[0], str(scenario_file), *argv[1:]]
    if argv[0] == "sweep":
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, stderr.getvalue())
    # a failure says why on stderr; a success writes nothing there
    assert "Traceback" not in stderr.getvalue(), argv
    assert (code == 0) == (stderr.getvalue() == ""), (argv, code, stderr.getvalue())
