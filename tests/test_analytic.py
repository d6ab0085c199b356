"""Closed-form accuracies: worked values, algebraic identities, and bounds."""

import importlib
import itertools
import json

import numpy as np
import pytest

from reliance.analytic import (
    BreakevenResult,
    PolicyComparison,
    breakeven_discrimination,
    compare_policies,
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
    RoutineAccept,
    RoutineIgnore,
    ScenarioValidationError,
    SelfGated,
    UserProfile,
    frechet_bounds,
    validate_scenario,
)

from conftest import (
    BASE_RAW,
    exact_accuracy,
    grid_breakeven,
    loaded_after,
    make_scenario,
    random_scenario,
    replace,
)

EXACT = 1e-12


class TestIndiscriminateAccuracy:
    def test_worked_example(self, base_scenario):
        result = evaluate(base_scenario)
        assert result.p_correct_aided == pytest.approx(0.55, abs=EXACT)
        assert result.p_accept_marginal == pytest.approx(0.5, abs=EXACT)

    def test_always_accept_collapses_to_advisor_rate(self):
        result = evaluate(make_scenario(policy=Indiscriminate(1.0)))
        assert result.p_correct_aided == pytest.approx(0.7, abs=EXACT)

    def test_always_reject_collapses_to_degraded_rate(self):
        result = evaluate(make_scenario(policy=Indiscriminate(0.0)))
        assert result.p_correct_aided == pytest.approx(0.4, abs=EXACT)

    def test_affine_in_acceptance_probability(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p_a = rng.uniform(0.05, 0.95)
            p_u = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.02, p_u)
            p1, p2, lam = rng.uniform(0.0, 1.0, 3)

            def acc(p):
                return evaluate(
                    make_scenario(p_a, p_u, r, policy=Indiscriminate(p))
                ).p_correct_aided

            blend = acc(lam * p1 + (1.0 - lam) * p2)
            assert blend == pytest.approx(lam * acc(p1) + (1.0 - lam) * acc(p2), abs=EXACT)

    def test_monotone_in_acceptance_iff_advisor_beats_degraded_rate(self):
        up = [
            evaluate(make_scenario(0.7, 0.6, 0.4, policy=Indiscriminate(p))).p_correct_aided
            for p in (0.2, 0.5, 0.8)
        ]
        assert up[0] < up[1] < up[2]
        down = [
            evaluate(make_scenario(0.3, 0.6, 0.5, policy=Indiscriminate(p))).p_correct_aided
            for p in (0.2, 0.5, 0.8)
        ]
        assert down[0] > down[1] > down[2]
        flat = [
            evaluate(make_scenario(0.4, 0.6, 0.4, policy=Indiscriminate(p))).p_correct_aided
            for p in (0.2, 0.5, 0.8)
        ]
        assert flat[0] == pytest.approx(flat[1], abs=EXACT)
        assert flat[1] == pytest.approx(flat[2], abs=EXACT)


class TestDiscriminatingAccuracy:
    def test_symmetric_half_matches_indiscriminate_base(self):
        scenario = make_scenario(policy=Discriminating(0.5, 0.5))
        assert evaluate(scenario).p_correct_aided == pytest.approx(0.55, abs=EXACT)

    def test_moderate_discrimination(self):
        scenario = make_scenario(policy=Discriminating(0.7, 0.3))
        result = evaluate(scenario)
        assert result.p_correct_aided == pytest.approx(0.658, abs=EXACT)
        assert round(result.p_correct_aided, 2) == 0.66
        # the discriminating user also accepts more often overall
        assert result.p_accept_marginal == pytest.approx(0.7 * 0.7 + 0.3 * 0.3, abs=EXACT)

    def test_sharp_discrimination_with_weaker_advisor(self):
        scenario = make_scenario(p_a=0.55, policy=Discriminating(0.9, 0.1))
        result = evaluate(scenario)
        assert result.p_correct_aided == pytest.approx(0.679, abs=EXACT)
        assert round(result.p_correct_aided, 2) == 0.68

    def test_dominant_dependency_conditional_mode(self):
        scenario = make_scenario(policy=Discriminating(0.7, 0.3), dependency=Dominant())
        assert scenario.effective_degradation_mode == "conditional_from_joint"
        assert evaluate(scenario).p_correct_aided == pytest.approx(0.67, abs=EXACT)

    def test_collapses_to_indiscriminate_when_rates_tie(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            scenario = random_scenario(rng, policy_kind="indiscriminate", explicit_mode=True)
            p = scenario.policy.p_accept
            tied = replace(scenario, policy=Discriminating(p, p))
            assert evaluate(tied).p_correct_aided == pytest.approx(
                evaluate(scenario).p_correct_aided, abs=EXACT
            )
            assert evaluate(tied).p_accept_marginal == pytest.approx(
                evaluate(scenario).p_accept_marginal, abs=EXACT
            )

    def test_extremes(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            scenario = random_scenario(rng, policy_kind="discriminating", mode="fixed_rate")
            accept_all = replace(scenario, policy=Discriminating(1.0, 1.0))
            reject_all = replace(scenario, policy=Discriminating(0.0, 0.0))
            assert evaluate(accept_all).p_correct_aided == pytest.approx(
                scenario.aid.p_advice_correct, abs=EXACT
            )
            assert evaluate(reject_all).p_correct_aided == pytest.approx(
                scenario.user.p_post_reject_correct, abs=EXACT
            )

    def test_reject_all_in_conditional_mode_recovers_unaided_rate(self):
        # conditional post-reject rates obey total probability, so rejecting
        # everything hands back exactly the unaided rate
        rng = np.random.default_rng(8)
        for _ in range(100):
            scenario = random_scenario(
                rng, policy_kind="discriminating", mode="conditional_from_joint"
            )
            reject_all = replace(scenario, policy=Discriminating(0.0, 0.0))
            assert evaluate(reject_all).p_correct_aided == pytest.approx(
                scenario.user.p_unaided_correct, abs=EXACT
            )

    def test_nonincreasing_in_joint_success_when_discriminating(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p_a = rng.uniform(0.1, 0.9)
            p_u = rng.uniform(0.1, 0.9)
            aw = rng.uniform(0.0, 0.9)
            ac = rng.uniform(aw + 0.05, 1.0)
            lo, hi = frechet_bounds(p_a, p_u)
            previous = None
            for p11 in np.linspace(lo, hi, 11):
                scenario = make_scenario(
                    p_a, p_u, 0.0,
                    policy=Discriminating(ac, aw),
                    dependency=Joint(float(p11)),
                    mode="conditional_from_joint",
                )
                acc = evaluate(scenario).p_correct_aided
                if previous is not None:
                    assert acc <= previous + EXACT
                previous = acc

    def test_discrimination_partials_match_finite_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(100):
            p_a = rng.uniform(0.1, 0.9)
            p_u = rng.uniform(0.1, 0.9)
            r = rng.uniform(0.05, p_u)
            ac = rng.uniform(0.1, 0.9)
            aw = rng.uniform(0.1, 0.9)

            def acc(ac_, aw_):
                scenario = make_scenario(p_a, p_u, r, policy=Discriminating(ac_, aw_))
                return evaluate(scenario).p_correct_aided

            d_ac = (acc(ac + h, aw) - acc(ac - h, aw)) / (2 * h)
            d_aw = (acc(ac, aw + h) - acc(ac, aw - h)) / (2 * h)
            assert d_ac == pytest.approx(p_a * (1.0 - r), abs=1e-6)
            assert d_aw == pytest.approx(-r * (1.0 - p_a), abs=1e-6)
            assert d_ac >= -1e-9
            assert d_aw <= 1e-9


class TestSelfGatedAccuracy:
    def test_worked_example(self):
        scenario = make_scenario(policy=SelfGated(0.7, 0.7))
        result = evaluate(scenario)
        assert result.p_correct_aided == pytest.approx(0.742, abs=EXACT)

    def test_perfect_self_knowledge_reaches_combined_ceiling(self):
        scenario = make_scenario(policy=SelfGated(1.0, 1.0))
        result = evaluate(scenario)
        ceiling = potential_combined(scenario.aid, scenario.user, Independent())
        assert result.p_correct_aided == pytest.approx(0.88, abs=EXACT)
        assert result.p_correct_aided == pytest.approx(ceiling, abs=EXACT)

    def test_coin_flip_gate_averages_the_two_rates(self):
        scenario = make_scenario(policy=SelfGated(0.5, 0.5))
        assert evaluate(scenario).p_correct_aided == pytest.approx(0.65, abs=EXACT)

    def test_joint_dependency_worked_example(self):
        # p11 = .55, p10 = .15, p01 = .05: p11 + p10 * g_w + p01 * g_c
        scenario = make_scenario(policy=SelfGated(0.8, 0.3), dependency=Joint(0.55))
        result = evaluate(scenario)
        assert result.p_correct_aided == pytest.approx(0.55 + 0.15 * 0.3 + 0.05 * 0.8, abs=EXACT)
        assert result.p_correct_aided == pytest.approx(0.635, abs=EXACT)
        assert result.outcome_table[(True, False, True)] == pytest.approx(0.55 * 0.8, abs=EXACT)
        assert result.outcome_table[(False, False, True)] == pytest.approx(0.05 * 0.8, abs=EXACT)
        # the gate reads the user's own correctness, so its use rate ignores the dependency
        assert result.p_accept_marginal == pytest.approx(0.2 * 0.6 + 0.3 * 0.4, abs=EXACT)

    def test_dominant_dependency_adds_only_the_advisor_surplus(self):
        # p11 = p_u, p10 = p_a - p_u, p01 = 0: p_u + (p_a - p_u) * g_w
        scenario = make_scenario(policy=SelfGated(0.7, 0.7), dependency=Dominant())
        assert evaluate(scenario).p_correct_aided == pytest.approx(0.6 + 0.1 * 0.7, abs=EXACT)


class TestPotentialCombined:
    def test_independent_worked_example(self):
        assert potential_combined(
            AidProfile(0.7), UserProfile(0.6, 0.4), Independent()
        ) == pytest.approx(0.88, abs=EXACT)

    def test_dominant_collapses_to_advisor_rate(self):
        assert potential_combined(
            AidProfile(0.7), UserProfile(0.6, 0.4), Dominant()
        ) == pytest.approx(0.7, abs=EXACT)

    def test_frechet_lower_bound_tiles_the_space(self):
        assert potential_combined(
            AidProfile(0.7), UserProfile(0.6, 0.4), Joint(0.3)
        ) == pytest.approx(1.0, abs=EXACT)

    def test_invalid_dependency_rejected(self):
        with pytest.raises(ScenarioValidationError):
            potential_combined(AidProfile(0.7), UserProfile(0.6, 0.4), Joint(0.75))

    def test_a_section_of_the_wrong_class_is_a_type_error(self):
        message = "^potential_combined.dependency must be one of Independent, Joint, Dominant; got 'joint'$"
        with pytest.raises(TypeError, match=message):
            potential_combined(AidProfile(0.7), UserProfile(0.6, 0.4), "joint")
        with pytest.raises(TypeError, match="^potential_combined.aid must be one of AidProfile; got "):
            potential_combined(UserProfile(0.7, 0.5), UserProfile(0.6, 0.4), Independent())

    def test_never_below_either_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            scenario = random_scenario(rng)
            ceiling = potential_combined(scenario.aid, scenario.user, scenario.dependency)
            assert ceiling >= max(
                scenario.aid.p_advice_correct, scenario.user.p_unaided_correct
            ) - EXACT

    def test_caps_every_policy(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            scenario = random_scenario(rng, explicit_mode=True)
            ceiling = potential_combined(scenario.aid, scenario.user, scenario.dependency)
            assert evaluate(scenario).p_correct_aided <= ceiling + EXACT


class TestEvaluateDispatch:
    def test_routine_accept_is_advisor_rate(self):
        result = evaluate(make_scenario(policy=RoutineAccept()))
        assert result.p_correct_aided == 0.7
        assert result.p_accept_marginal == 1.0

    def test_routine_ignore_is_unaided_rate(self):
        result = evaluate(make_scenario(policy=RoutineIgnore()))
        assert result.p_correct_aided == 0.6
        assert result.p_accept_marginal == 0.0

    def test_routine_ignore_table_reflects_dependency(self):
        result = evaluate(make_scenario(policy=RoutineIgnore(), dependency=Joint(0.42)))
        assert result.outcome_table[(True, False, True)] == pytest.approx(0.42, abs=EXACT)
        assert result.outcome_table[(False, False, True)] == pytest.approx(0.18, abs=EXACT)

    def test_notes_flag_defaulted_mode(self, base_scenario):
        assert any("defaulted" in note for note in evaluate(base_scenario).notes)
        explicit = make_scenario(mode="fixed_rate")
        assert evaluate(explicit).notes == ()

    def test_outcome_tables_sum_to_one_and_match_headline(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            result = evaluate(random_scenario(rng, explicit_mode=True))
            assert sum(result.outcome_table.values()) == pytest.approx(1.0, abs=EXACT)
            final_mass = sum(p for (_, _, f), p in result.outcome_table.items() if f)
            assert final_mass == pytest.approx(result.p_correct_aided, abs=EXACT)


POLICY_KINDS = ("routine_accept", "routine_ignore", "indiscriminate", "discriminating", "self_gated")


def test_headline_matches_the_exact_latent_sum():
    # every policy x dependency x mode, at random interior points and, for a
    # joint dependency, at both Frechet ends
    rng = np.random.default_rng(83)
    for policy_kind, dependency_kind, mode in itertools.product(
        POLICY_KINDS, ("independent", "joint", "dominant"), ("fixed_rate", "conditional_from_joint")
    ):
        for _ in range(20):
            scenario = random_scenario(rng, policy_kind, dependency_kind, mode)
            cases = [scenario]
            if dependency_kind == "joint":
                bounds = frechet_bounds(scenario.aid.p_advice_correct, scenario.user.p_unaided_correct)
                cases += [replace(scenario, dependency=Joint(end)) for end in bounds]
            for case in cases:
                error = abs(evaluate(case).p_correct_aided - exact_accuracy(case))
                assert error <= 1e-15, (case, float(error))


class TestCounterproductivity:
    def test_attending_loses_to_the_better_routine_policy(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            p_a = rng.uniform(0.05, 0.95)
            p_u = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.0, min(p_a, p_u) - 1e-6)
            p = rng.uniform(1e-3, 1.0 - 1e-3)
            scenario = make_scenario(p_a, p_u, r, policy=Indiscriminate(p))
            assert evaluate(scenario).p_correct_aided < max(p_a, p_u)


class TestComparePolicies:
    def test_base_scenario_prefers_routine_acceptance(self, base_scenario):
        comparison = compare_policies(base_scenario)
        assert comparison.best_policy == "routine_accept"
        assert comparison.results["routine_accept"].p_correct_aided == 0.7
        assert comparison.results["routine_ignore"].p_correct_aided == 0.6
        assert comparison.results["indiscriminate"].p_correct_aided == pytest.approx(0.55, abs=EXACT)
        assert comparison.margins["indiscriminate"] == pytest.approx(0.15, abs=EXACT)
        assert comparison.margins["routine_accept"] == 0.0

    def test_sharp_discrimination_beats_both_routines(self):
        scenario = make_scenario(p_a=0.55, policy=Discriminating(0.9, 0.1))
        comparison = compare_policies(scenario)
        assert comparison.best_policy == "discriminating"
        assert comparison.configured_policy == "discriminating"

    def test_exact_tie_broken_by_precedence(self):
        scenario = make_scenario(0.5, 0.5, 0.5, policy=Indiscriminate(0.5))
        comparison = compare_policies(scenario)
        assert comparison.best_policy == "routine_ignore"
        assert any("tie" in note for note in comparison.notes)

    def test_routine_configured_policy_collapses_to_two_entries(self):
        comparison = compare_policies(make_scenario(policy=RoutineAccept()))
        assert set(comparison.results) == {"routine_ignore", "routine_accept"}
        assert comparison.best_policy == "routine_accept"

    def test_dict_round_trip(self, base_scenario):
        comparison = compare_policies(base_scenario)
        assert PolicyComparison.from_dict(comparison.to_dict()) == comparison

    def test_best_policy_must_attain_the_top(self, base_scenario):
        comparison = compare_policies(base_scenario)
        with pytest.raises(ValueError, match="does not attain the maximum accuracy"):
            replace(comparison, best_policy="indiscriminate")

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"margins": {"routine_ignore": -3.0}}, "^margins must name exactly the compared policies$"),
            (
                {"margins": {"routine_ignore": -3.0, "routine_accept": 0.0, "indiscriminate": 0.0}},
                "^margins must be >= 0$",
            ),
            ({"configured_policy": "self_gated"}, "^configured_policy 'self_gated' has no result$"),
            (
                # the margins read 0.1, 0.0 and 0.15
                {"margins": {"routine_ignore": 0.0, "routine_accept": 0.0, "indiscriminate": 0.0}},
                "^margin 0.0 for routine_ignore is not the best accuracy minus its own$",
            ),
            (
                {"margins": {"routine_ignore": 0.1, "routine_accept": 0.0, "indiscriminate": 0.1}},
                "^margin 0.1 for indiscriminate is not the best accuracy minus its own$",
            ),
        ],
    )
    def test_inconsistent_wire_data_rejected(self, base_scenario, changes, message):
        data = compare_policies(base_scenario).to_dict()
        with pytest.raises(ValueError, match=message):
            PolicyComparison.from_dict({**data, **changes})


class TestBreakevenDiscrimination:
    def test_base_scenario_closed_form_confirmed_by_grid(self):
        aid, user = AidProfile(0.7), UserProfile(0.6, 0.4)
        result = breakeven_discrimination(aid, user, Independent())
        assert result.attainable
        # grid oracle at 1e-3: first passing point is 0.778, bracketing 7/9
        oracle = grid_breakeven(aid, user, Independent())
        assert abs(result.d_star - oracle) <= 1e-3 + 1e-9
        assert result.d_star == pytest.approx(7.0 / 9.0, abs=1e-12)
        assert result.accuracy_at_d_star == pytest.approx(0.7, abs=1e-12)

    def test_cheap_rejection_already_breaks_even_at_half(self):
        from reliance.model import DegradedRateWarning

        with pytest.warns(DegradedRateWarning):
            user = UserProfile(0.6, 0.7)
        result = breakeven_discrimination(AidProfile(0.7), user, Independent())
        assert result.d_star == 0.5
        assert result.accuracy_at_d_star == pytest.approx(0.7, abs=1e-9)

    def test_a_tie_just_below_target_at_half_is_half(self):
        # fixed rate: accuracy(0.5) = (p_a + r) / 2 = 0.6, which the target
        # p_u exceeds by 5e-13, inside the 1e-12 tie tolerance
        result = breakeven_discrimination(AidProfile(0.6), UserProfile(0.6 + 5e-13, 0.6), Independent())
        assert 0.0 < result.target - result.accuracy_at_d_star <= 1e-12
        assert result.d_star == 0.5

    def test_unattainable_when_user_far_ahead(self):
        result = breakeven_discrimination(AidProfile(0.5), UserProfile(0.9, 0.1), Independent())
        assert not result.attainable
        assert result.d_star is None
        assert grid_breakeven(AidProfile(0.5), UserProfile(0.9, 0.1), Independent()) is None

    def test_dominant_dependency_needs_perfect_discrimination(self):
        # conditional mode: accuracy(d) = p_u + d (p_a - p_u), reaching p_a only at d = 1
        result = breakeven_discrimination(AidProfile(0.7), UserProfile(0.6, 0.4), Dominant())
        assert result.degradation_mode == "conditional_from_joint"
        assert result.d_star == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_tracks_grid_oracle_on_random_inputs(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p_a = rng.uniform(0.05, 0.95)
            p_u = rng.uniform(0.05, 0.95)
            r = rng.uniform(0.0, p_u)
            aid, user = AidProfile(p_a), UserProfile(p_u, r)
            result = breakeven_discrimination(aid, user, Independent())
            oracle = grid_breakeven(aid, user, Independent())
            if oracle is None:
                assert not result.attainable
            else:
                assert result.attainable
                assert abs(result.d_star - oracle) <= 1e-3 + 1e-9

    def test_invalid_dependency_rejected(self):
        with pytest.raises(ScenarioValidationError, match="Frechet-Hoeffding"):
            breakeven_discrimination(AidProfile(0.7), UserProfile(0.6, 0.4), Joint(0.75))

    def test_an_unknown_mode_is_refused_as_the_validator_refuses_it(self):
        with pytest.raises(ScenarioValidationError) as expected:
            validate_scenario({**BASE_RAW, "degradation_mode": "bogus"})
        with pytest.raises(ScenarioValidationError) as err:
            breakeven_discrimination(AidProfile(0.7), UserProfile(0.6, 0.4), Independent(), mode="bogus")
        assert err.value.violations == expected.value.violations
        assert str(err.value) == (
            "invalid scenario:\n  degradation_mode: 'bogus' not in {fixed_rate, conditional_from_joint}"
        )

    def test_a_section_of_the_wrong_class_is_a_type_error(self):
        message = "^breakeven_discrimination.dependency must be one of Independent, Joint, Dominant; got 'joint'$"
        with pytest.raises(TypeError, match=message):
            breakeven_discrimination(AidProfile(0.7), UserProfile(0.6, 0.4), "joint")
        message = "^breakeven_discrimination.user must be one of UserProfile; got None$"
        with pytest.raises(TypeError, match=message):
            breakeven_discrimination(AidProfile(0.7), None, Independent())

    @pytest.mark.parametrize(
        "changes,message",
        [
            (
                {"d_star": 7.5, "degradation_mode": "sometimes"},
                "^degradation_mode 'sometimes' is not one of fixed_rate, conditional_from_joint$",
            ),
            ({"d_star": 7.5}, r"^d_star 7.5 not in \[0.5, 1\]$"),
            ({"d_star": 0.49}, r"^d_star 0.49 not in \[0.5, 1\]$"),
            ({"d_star": "unattainable"}, "^accuracy_at_d_star must be None exactly when d_star is$"),
            ({"accuracy_at_d_star": None}, "^accuracy_at_d_star must be None exactly when d_star is$"),
            ({"target": 7.0}, r"^target 7.0 not in \[0, 1\]$"),
            ({"target": -0.1}, r"^target -0.1 not in \[0, 1\]$"),
            (
                {"accuracy_at_d_star": 0.6},
                r"^accuracy_at_d_star 0.6 not in \[max\(0, target - 1e-9\), 1\]$",
            ),
            (
                {"accuracy_at_d_star": 1.5},
                r"^accuracy_at_d_star 1.5 not in \[max\(0, target - 1e-9\), 1\]$",
            ),
        ],
    )
    def test_inconsistent_wire_data_rejected(self, changes, message):
        data = breakeven_discrimination(AidProfile(0.7), UserProfile(0.6, 0.4), Independent()).to_dict()
        with pytest.raises(ValueError, match=message):
            BreakevenResult.from_dict({**data, **changes})

    def test_dict_round_trip_including_unattainable(self):
        reachable = breakeven_discrimination(AidProfile(0.7), UserProfile(0.6, 0.4), Independent())
        assert BreakevenResult.from_dict(reachable.to_dict()) == reachable
        unreachable = breakeven_discrimination(AidProfile(0.5), UserProfile(0.9, 0.1), Independent())
        assert unreachable.to_dict()["d_star"] == "unattainable"
        assert BreakevenResult.from_dict(unreachable.to_dict()) == unreachable


def test_closed_forms_import_without_numpy():
    # numpy stays behind the Monte Carlo engine and large sweeps, so a command
    # that only needs the closed forms can skip importing it
    assert loaded_after("import reliance.analytic", "numpy") == []


def test_every_public_name_resolves_to_its_modules_object(monkeypatch):
    # the sweep and Monte Carlo names load, and are kept, on first access;
    # the type aliases (`Probability`, `ReliancePolicy`, `DependencyModel`)
    # are the model's
    import reliance

    for name in reliance._LAZY_NAMES:
        monkeypatch.delitem(vars(reliance), name, raising=False)
    for name in reliance.__all__:
        value = getattr(reliance, name)
        home = getattr(value, "__module__", "")
        home = home if home.startswith("reliance.") else "reliance.model"
        if name in reliance._LAZY_NAMES:
            assert home == f"reliance.{reliance._LAZY_NAMES[name]}" and vars(reliance)[name] is value
        assert getattr(importlib.import_module(home), name) is value, name
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        reliance.bogus
    assert loaded_after("import reliance", "numpy") == []
    assert loaded_after("import reliance; reliance.SweepSpec", "numpy") == []
    assert loaded_after("import reliance; reliance.SimEstimate", "numpy") == ["numpy"]


def test_cli_eval_runs_without_dataclasses(tmp_path):
    # the records are built without `dataclasses`, whose import (with
    # `inspect`) and class decoration took over a third of `import reliance.cli`
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE_RAW))
    probe = f"""
import contextlib, io
import reliance.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert reliance.cli.main(["eval", {str(path)!r}]) == 0
"""
    assert loaded_after(probe, "dataclasses", "inspect") == []


def test_closed_forms_and_sensitivity_run_without_numpy():
    # every closed form, and each of its results' readers, on the one policy
    # whose rows read the joint mass, with numpy and `dataclasses` unloaded
    probe = """
import reliance
s = reliance.validate_scenario({
    "aid": {"p_advice_correct": 0.7},
    "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
    "policy": {"type": "self_gated", "p_ignore_given_user_correct": 0.8, "p_use_given_user_wrong": 0.3},
    "dependency": {"type": "joint", "p_both_correct": 0.45},
})
results = reliance.evaluate(s), reliance.compare_policies(s), reliance.sensitivity(s)
breakeven = reliance.breakeven_discrimination(s.aid, s.user, s.dependency)
reliance.potential_combined(s.aid, s.user, s.dependency)
for result in results[0], results[1], breakeven:
    data = result.to_dict()
    assert type(result).from_dict(data) == result
    for changes in [{"bogus": 1}] + [{key: None} for key in data]:
        try:
            type(result).from_dict({**data, **changes})
        except (ValueError, TypeError):
            pass
        else:
            raise AssertionError(f"{type(result).__name__}.from_dict accepted {changes}")
"""
    assert loaded_after(probe, "numpy", "dataclasses") == []
