"""Properties of the closed forms over every policy x dependency x mode, edges included."""

import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reliance.analytic import evaluate  # noqa: E402
from reliance.model import (  # noqa: E402
    DegradedRateWarning,
    ScenarioValidationError,
    frechet_bounds,
    scenario_to_dict,
    validate_scenario,
)
from reliance.sweep import FD_STEP, SweepError, SweepSpec, run_sweep, sensitivity  # noqa: E402

from conftest import perturbed_scenario  # noqa: E402

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
