"""Acceptance suite: every guaranteed number and property at its pinned tolerance.

Each test covers one guarantee end to end and prints a PASS line with the
checked values (visible under ``pytest -v -s``); the test name itself is the
pass/fail line under plain ``pytest -v``.  Golden values are the worked
examples of the underlying scenario family; derived values were confirmed
against independent oracles (grid search, finite differences, Monte Carlo)
before being frozen here.
"""

import json
import math

import numpy as np
import pytest

from reliance.analytic import (
    breakeven_discrimination,
    evaluate,
    potential_combined,
)
from reliance.model import (
    AidProfile,
    Discriminating,
    Dominant,
    Independent,
    Indiscriminate,
    Joint,
    SelfGated,
    UserProfile,
    frechet_bounds,
)
from reliance.simulate import estimate_accuracy
from reliance.sweep import SweepSpec, find_reference_crossing, run_sweep, sensitivity

from conftest import (
    grid_breakeven,
    make_scenario,
    perturbed_scenario,
    random_scenario,
    replace,
)

EXACT = 1e-12
CROSSING_TOL = 1e-9


def _report(line: str) -> None:
    print(f"PASS: {line}")


def test_01_indiscriminate_golden_value(base_scenario):
    result = evaluate(base_scenario)
    assert result.p_correct_aided == pytest.approx(0.55, abs=EXACT)
    _report(f"indiscriminate base scenario accuracy = {result.p_correct_aided} (0.55 +/- 1e-12)")


def test_02_discriminating_golden_values():
    cases = [
        (0.7, 0.5, 0.5, 0.55, 0.55),
        (0.7, 0.7, 0.3, 0.658, 0.66),
        (0.55, 0.9, 0.1, 0.679, 0.68),
    ]
    for p_a, ac, aw, exact_value, printed in cases:
        scenario = make_scenario(p_a=p_a, policy=Discriminating(ac, aw))
        got = evaluate(scenario).p_correct_aided
        assert got == pytest.approx(exact_value, abs=EXACT)
        assert round(got, 2) == printed
    _report("discriminating accuracies .55 / .658 / .679 (+/- 1e-12; 2 d.p. .55 / .66 / .68)")


def test_03_self_gated_golden_value():
    scenario = make_scenario(policy=SelfGated(0.7, 0.7))
    got = evaluate(scenario).p_correct_aided
    assert got == pytest.approx(0.742, abs=EXACT)
    _report(f"self-gated accuracy = {got} (0.742 +/- 1e-12)")


def test_04_dominant_dependency_golden_value():
    dependent = make_scenario(policy=Discriminating(0.7, 0.3), dependency=Dominant())
    got = evaluate(dependent).p_correct_aided
    assert got == pytest.approx(0.67, abs=EXACT)
    # direction: under the same conditional mode, independence does better
    independent = make_scenario(
        policy=Discriminating(0.7, 0.3), mode="conditional_from_joint"
    )
    assert got < evaluate(independent).p_correct_aided - EXACT
    _report(f"dominant-dependency accuracy = {got} (0.67 +/- 1e-12, below independent analog)")


def test_05_potential_combined_golden_value():
    got = potential_combined(AidProfile(0.7), UserProfile(0.6, 0.4), Independent())
    assert got == pytest.approx(0.88, abs=EXACT)
    _report(f"potential combined accuracy = {got} (0.88 +/- 1e-12)")


def test_06_acceptance_sweep_affine_with_known_crossing(base_scenario):
    spec = SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 101)
    series = run_sweep(spec)
    first, last = series.accuracies[0], series.accuracies[-1]
    assert first == pytest.approx(0.4, abs=EXACT)  # post-rejection rate
    assert last == pytest.approx(0.7, abs=EXACT)  # advisor rate
    deviations = [
        abs(acc - (first + (last - first) * i / 100))
        for i, acc in enumerate(series.accuracies)
    ]
    assert max(deviations) < EXACT
    crossing = find_reference_crossing(spec, tol=CROSSING_TOL)
    expected = (0.6 - 0.4) / (0.7 - 0.4)
    assert crossing == pytest.approx(expected, abs=CROSSING_TOL)
    _report(
        f"101-point acceptance sweep affine (max chord deviation {max(deviations):.2e} < 1e-12), "
        f"crosses unaided line at {crossing:.9f} ({expected:.9f} +/- 1e-9)"
    )


def test_07_blind_attendance_never_beats_best_routine():
    grid = np.linspace(0.05, 0.95, 20)
    acceptance_levels = [round(0.1 * k, 1) for k in range(1, 10)]
    checked = 0
    for p_a in grid:
        for p_u in grid:
            limit = min(p_a, p_u)
            best_routine = max(p_a, p_u)
            for r in grid:
                if r >= limit:
                    continue
                scenario = make_scenario(float(p_a), float(p_u), float(r))
                for p in acceptance_levels:
                    aided = evaluate(
                        replace(scenario, policy=Indiscriminate(p))
                    ).p_correct_aided
                    assert aided < best_routine
                    checked += 1
    _report(f"blind attendance below best routine policy in {checked} grid cases")


def test_08_accuracy_nonincreasing_in_joint_success():
    rng = np.random.default_rng(101)
    for _ in range(100):
        p_a = rng.uniform(0.1, 0.9)
        p_u = rng.uniform(0.1, 0.9)
        aw = rng.uniform(0.0, 0.9)
        ac = rng.uniform(aw + 1e-6, 1.0)
        lo, hi = frechet_bounds(p_a, p_u)
        previous = None
        for p11 in np.linspace(lo, hi, 11):
            scenario = make_scenario(
                p_a, p_u, 0.0,
                policy=Discriminating(ac, aw),
                dependency=Joint(float(p11)),
                mode="conditional_from_joint",
            )
            accuracy = evaluate(scenario).p_correct_aided
            if previous is not None:
                assert accuracy <= previous + EXACT
            previous = accuracy
    _report("accuracy non-increasing across the feasible joint-success range (100 random scenarios x 11 points)")


def test_09_monte_carlo_agrees_with_closed_forms_and_is_deterministic(base_scenario):
    goldens = [
        ("indiscriminate .55", base_scenario, 0.55),
        ("discriminating .55", make_scenario(policy=Discriminating(0.5, 0.5)), 0.55),
        ("discriminating .658", make_scenario(policy=Discriminating(0.7, 0.3)), 0.658),
        ("discriminating .679", make_scenario(p_a=0.55, policy=Discriminating(0.9, 0.1)), 0.679),
        ("dominant .67", make_scenario(policy=Discriminating(0.7, 0.3), dependency=Dominant()), 0.67),
        ("self-gated .742", make_scenario(policy=SelfGated(0.7, 0.7)), 0.742),
    ]
    n = 1_000_000
    for label, scenario, expected in goldens:
        estimate = estimate_accuracy(scenario, n, seed=2026)
        analytic = evaluate(scenario).p_correct_aided
        assert analytic == pytest.approx(expected, abs=EXACT)
        assert abs(estimate.p_hat - analytic) < 4 * estimate.std_err, label

    # the combined ceiling is recovered from the same trials' latent draws
    base_estimate = estimate_accuracy(base_scenario, n, seed=2026)
    ceiling = 0.88
    se = math.sqrt(ceiling * (1 - ceiling) / n)
    assert abs(base_estimate.either_correct_count / n - ceiling) < 4 * se

    repeat = estimate_accuracy(base_scenario, n, seed=2026)
    assert json.dumps(repeat.to_dict()) == json.dumps(base_estimate.to_dict())
    _report("Monte Carlo at 1e6 trials within 4 std errors of every golden value; repeat runs byte-identical")


def test_10_special_case_collapses():
    rng = np.random.default_rng(103)
    for _ in range(100):
        p_a = rng.uniform(0.02, 0.98)
        p_u = rng.uniform(0.02, 0.98)
        perfect = make_scenario(p_a, p_u, 0.3 * p_u, policy=SelfGated(1.0, 1.0))
        ceiling = potential_combined(perfect.aid, perfect.user, Independent())
        assert evaluate(perfect).p_correct_aided == pytest.approx(ceiling, abs=EXACT)
        coin_flip = make_scenario(p_a, p_u, 0.3 * p_u, policy=SelfGated(0.5, 0.5))
        assert evaluate(coin_flip).p_correct_aided == pytest.approx(
            (p_a + p_u) / 2.0, abs=EXACT
        )
    for _ in range(100):
        scenario = random_scenario(rng, policy_kind="indiscriminate", explicit_mode=True)
        p = scenario.policy.p_accept
        tied = replace(scenario, policy=Discriminating(p, p))
        assert evaluate(tied).p_correct_aided == pytest.approx(
            evaluate(scenario).p_correct_aided, abs=EXACT
        )
    _report("perfect gate = combined ceiling, coin-flip gate = mean rate, tied acceptance rates collapse (100 cases each, +/- 1e-12)")


def test_11_sensitivities_match_finite_differences():
    rng = np.random.default_rng(107)
    step = 1e-6
    checked = 0
    for _ in range(100):
        scenario = random_scenario(rng, explicit_mode=True)
        for name, exact in sensitivity(scenario).items():
            up = perturbed_scenario(scenario, name, +step)
            down = perturbed_scenario(scenario, name, -step)
            estimate = (
                evaluate(up).p_correct_aided - evaluate(down).p_correct_aided
            ) / (2 * step)
            assert abs(estimate - exact) < 1e-6
            checked += 1
    _report(f"{checked} analytic partials match central finite differences within 1e-6")


def test_12_breakeven_closed_form_confirmed_by_grid_oracle():
    # worked base case: the affine solve gives d* = 7/9, confirmed by the
    # 1e-3 grid oracle (first passing grid point 0.778) and by the accuracy
    # at d* landing exactly on the routine-accept target
    aid, user = AidProfile(0.7), UserProfile(0.6, 0.4)
    result = breakeven_discrimination(aid, user, Independent())
    assert result.d_star == pytest.approx(7.0 / 9.0, abs=CROSSING_TOL)
    assert result.accuracy_at_d_star == pytest.approx(max(0.7, 0.6), abs=CROSSING_TOL)
    oracle = grid_breakeven(aid, user, Independent())
    assert abs(result.d_star - oracle) <= 1e-3 + 1e-9

    rng = np.random.default_rng(109)
    agreements = 0
    for _ in range(100):
        scenario = random_scenario(rng, policy_kind="discriminating", explicit_mode=True)
        mode = scenario.degradation_mode
        closed = breakeven_discrimination(scenario.aid, scenario.user, scenario.dependency, mode=mode)
        grid = grid_breakeven(scenario.aid, scenario.user, scenario.dependency, mode=mode)
        if grid is None:
            assert not closed.attainable
        else:
            assert closed.attainable
            assert abs(closed.d_star - grid) <= 1e-3 + 1e-9
        agreements += 1
    _report(
        f"break-even d* = {result.d_star:.9f} (7/9 +/- 1e-9) with accuracy {result.accuracy_at_d_star:.9f}; "
        f"closed form within one grid step of the 1e-3 oracle on {agreements} random scenarios"
    )
