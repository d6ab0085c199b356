"""Domain types, scenario validation, and conditional user rates."""

import copy

import numpy as np
import pytest

from reliance.model import (
    AidProfile,
    DegradedRateWarning,
    Discriminating,
    Dominant,
    EvalResult,
    Independent,
    Indiscriminate,
    Joint,
    OUTCOME_CELLS,
    ScenarioValidationError,
    SelfGated,
    UserProfile,
    as_probability,
    conditional_user_rates,
    joint_success_probability,
    scenario_to_dict,
    validate_scenario,
)

from conftest import BASE_RAW, make_scenario, random_dependency


class TestProbability:
    def test_accepts_interior_and_boundary_values(self):
        for v in (0.0, 0.25, 1.0):
            assert as_probability(v) == v

    def test_clamps_tiny_overshoot(self):
        assert as_probability(1.0 + 1e-13) == 1.0
        assert as_probability(-1e-13) == 0.0

    def test_rejects_beyond_clamp_tolerance(self):
        with pytest.raises(ScenarioValidationError):
            as_probability(1.0 + 1e-9)
        with pytest.raises(ScenarioValidationError):
            as_probability(-1e-9)

    def test_rejects_out_of_range_and_non_numbers(self):
        for bad in (-0.1, 1.3, float("nan"), "0.5", None, True):
            with pytest.raises(ScenarioValidationError):
                as_probability(bad)

    def test_violation_carries_name_value_and_range(self):
        with pytest.raises(ScenarioValidationError) as err:
            as_probability(1.3, "aid.p_advice_correct")
        violation = err.value.violations[0]
        assert violation.constraint == "aid.p_advice_correct"
        assert violation.value == 1.3
        assert violation.allowed == "[0, 1]"


class TestProfiles:
    def test_aid_profile_validates(self):
        assert AidProfile(0.7).p_advice_correct == 0.7
        with pytest.raises(ScenarioValidationError):
            AidProfile(1.5)

    def test_user_profile_warns_when_rejection_beats_unaided(self):
        with pytest.warns(DegradedRateWarning) as record:
            UserProfile(p_unaided_correct=0.4, p_post_reject_correct=0.6)
        # reported at the constructing line, not the dataclass-generated __init__
        assert record[0].filename == __file__

    def test_validate_scenario_warns_at_its_caller(self):
        raw = {
            "aid": {"p_advice_correct": 0.7},
            "user": {"p_unaided_correct": 0.4, "p_post_reject_correct": 0.6},
            "policy": {"type": "routine_accept"},
            "dependency": {"type": "independent"},
        }
        with pytest.warns(DegradedRateWarning) as record:
            validate_scenario(raw)
        # reported at this call, not at the UserProfile line inside validate_scenario
        assert [w.filename for w in record] == [__file__]

    def test_user_profile_quiet_when_degraded(self):
        UserProfile(p_unaided_correct=0.6, p_post_reject_correct=0.4)

    def test_policy_fields_validated(self):
        with pytest.raises(ScenarioValidationError):
            Indiscriminate(p_accept=-0.2)
        with pytest.raises(ScenarioValidationError):
            Discriminating(p_accept_given_correct=0.7, p_accept_given_wrong=2.0)
        with pytest.raises(ScenarioValidationError):
            SelfGated(p_ignore_given_user_correct=1.2, p_use_given_user_wrong=0.5)


class TestValidateScenario:
    def test_base_scenario_accepted(self):
        scenario = validate_scenario(BASE_RAW)
        assert scenario.aid.p_advice_correct == 0.7
        assert scenario.user.p_post_reject_correct == 0.4
        assert scenario.policy == Indiscriminate(0.5)
        assert scenario.dependency == Independent()
        assert scenario.degradation_mode is None
        assert scenario.effective_degradation_mode == "fixed_rate"

    def test_joint_above_frechet_upper_bound_rejected(self):
        raw = copy.deepcopy(BASE_RAW)
        raw["dependency"] = {"type": "joint", "p_both_correct": 0.75}
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        assert any(v.constraint == "dependency.p_both_correct" for v in err.value.violations)
        assert "0.6" in str(err.value)  # upper bound min(.7, .6)

    def test_joint_below_frechet_lower_bound_rejected(self):
        raw = copy.deepcopy(BASE_RAW)
        raw["aid"] = {"p_advice_correct": 0.8}
        raw["dependency"] = {"type": "joint", "p_both_correct": 0.3}
        # lower bound max(0, .8 + .6 - 1) = .4
        with pytest.raises(ScenarioValidationError):
            validate_scenario(raw)

    def test_dominant_requires_advisor_at_least_as_good(self):
        raw = copy.deepcopy(BASE_RAW)
        raw["aid"] = {"p_advice_correct": 0.55}
        raw["dependency"] = {"type": "dominant"}
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        assert any(v.constraint == "dependency" for v in err.value.violations)

    def test_every_violation_reported_not_just_first(self):
        raw = {
            "aid": {"p_advice_correct": 1.3},
            "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": -0.5},
            "policy": {"type": "no_such_policy"},
            "dependency": {"type": "independent"},
            "mystery": 1,
        }
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        constraints = {v.constraint for v in err.value.violations}
        assert {"aid.p_advice_correct", "user.p_post_reject_correct", "policy.type", "mystery"} <= constraints

    def test_unknown_fields_rejected_at_every_level(self):
        for mutate in (
            lambda raw: raw.update({"extra": 1}),
            lambda raw: raw["aid"].update({"extra": 1}),
            lambda raw: raw["policy"].update({"p_accept_given_correct": 0.5}),
            lambda raw: raw["dependency"].update({"p_both_correct": 0.4}),
        ):
            raw = copy.deepcopy(BASE_RAW)
            mutate(raw)
            with pytest.raises(ScenarioValidationError):
                validate_scenario(raw)

    def test_missing_sections_and_fields_rejected(self):
        raw = copy.deepcopy(BASE_RAW)
        del raw["dependency"]
        with pytest.raises(ScenarioValidationError):
            validate_scenario(raw)
        raw = copy.deepcopy(BASE_RAW)
        del raw["user"]["p_post_reject_correct"]
        with pytest.raises(ScenarioValidationError):
            validate_scenario(raw)

    def test_all_policy_and_dependency_variants_parse(self):
        policies = [
            {"type": "routine_accept"},
            {"type": "routine_ignore"},
            {"type": "indiscriminate", "p_accept": 0.5},
            {"type": "discriminating", "p_accept_given_correct": 0.7, "p_accept_given_wrong": 0.3},
            {"type": "self_gated", "p_ignore_given_user_correct": 0.7, "p_use_given_user_wrong": 0.7},
        ]
        dependencies = [
            {"type": "independent"},
            {"type": "joint", "p_both_correct": 0.42},
            {"type": "dominant"},
        ]
        for policy in policies:
            for dependency in dependencies:
                raw = copy.deepcopy(BASE_RAW)
                raw["policy"] = policy
                raw["dependency"] = dependency
                scenario = validate_scenario(raw)
                assert scenario.policy is not None

    def test_degradation_mode_values(self):
        raw = copy.deepcopy(BASE_RAW)
        raw["degradation_mode"] = "conditional_from_joint"
        assert validate_scenario(raw).effective_degradation_mode == "conditional_from_joint"
        raw["degradation_mode"] = "sometimes"
        with pytest.raises(ScenarioValidationError):
            validate_scenario(raw)

    def test_direct_construction_checks_cross_field_bounds(self):
        with pytest.raises(ScenarioValidationError):
            make_scenario(dependency=Joint(0.75))
        with pytest.raises(ScenarioValidationError):
            make_scenario(p_a=0.55, dependency=Dominant())

    def test_frechet_slack_admits_then_clamps(self):
        scenario = make_scenario(dependency=Joint(0.6 + 1e-10))
        p11 = joint_success_probability(scenario.dependency, scenario.leaves)
        assert p11 == 0.6


class TestDegradationModeDefaults:
    def test_independent_defaults_to_fixed_rate(self):
        assert make_scenario().effective_degradation_mode == "fixed_rate"

    def test_joint_and_dominant_default_to_conditional(self):
        assert (
            make_scenario(dependency=Joint(0.42)).effective_degradation_mode
            == "conditional_from_joint"
        )
        assert (
            make_scenario(dependency=Dominant()).effective_degradation_mode
            == "conditional_from_joint"
        )

    def test_explicit_mode_wins(self):
        scenario = make_scenario(dependency=Joint(0.42), mode="fixed_rate")
        assert scenario.effective_degradation_mode == "fixed_rate"


class TestConditionalUserRates:
    def test_dominant_rates(self):
        scenario = make_scenario(dependency=Dominant())
        u_c, u_w = conditional_user_rates(scenario)
        assert u_c == pytest.approx(0.6 / 0.7, abs=1e-12)
        assert u_w == 0.0

    def test_independent_rates(self):
        assert conditional_user_rates(make_scenario()) == (0.6, 0.6)

    def test_joint_at_product_recovers_independence(self):
        scenario = make_scenario(dependency=Joint(0.42))
        u_c, u_w = conditional_user_rates(scenario)
        assert u_c == pytest.approx(0.6, abs=1e-12)
        assert u_w == pytest.approx(0.6, abs=1e-12)

    def test_joint_at_product_matches_independent_for_random_marginals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p_a = rng.uniform(0.01, 0.99)
            p_u = rng.uniform(0.01, 0.99)
            joint = make_scenario(p_a, p_u, 0.0, dependency=Joint(p_a * p_u))
            independent = make_scenario(p_a, p_u, 0.0, dependency=Independent())
            for got, want in zip(conditional_user_rates(joint), conditional_user_rates(independent)):
                assert got == pytest.approx(want, abs=1e-12)

    def test_rates_in_unit_interval_and_total_probability(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p_a = rng.uniform(0.02, 0.98)
            p_u = rng.uniform(0.02, 0.98)
            dependency = random_dependency(rng, p_a, p_u)
            scenario = make_scenario(p_a, p_u, 0.0, dependency=dependency)
            u_c, u_w = conditional_user_rates(scenario)
            assert 0.0 <= u_c <= 1.0
            assert 0.0 <= u_w <= 1.0
            assert u_c * p_a + u_w * (1.0 - p_a) == pytest.approx(p_u, abs=1e-12)

    def test_degenerate_marginals_pin_conditionals_to_zero(self):
        sure_aid = make_scenario(p_a=1.0, dependency=Joint(0.6))
        assert conditional_user_rates(sure_aid) == (0.6, 0.0)
        hopeless_aid = make_scenario(p_a=0.0, p_u=0.6, dependency=Joint(0.0))
        u_c, u_w = conditional_user_rates(hopeless_aid)
        assert u_c == 0.0
        assert u_w == pytest.approx(0.6, abs=1e-12)


class TestScenarioSerialization:
    def test_canonical_dict_round_trips(self):
        for raw_mode in (None, "fixed_rate", "conditional_from_joint"):
            raw = copy.deepcopy(BASE_RAW)
            if raw_mode is not None:
                raw["degradation_mode"] = raw_mode
            scenario = validate_scenario(raw)
            canonical = scenario_to_dict(scenario)
            again = scenario_to_dict(validate_scenario(canonical))
            assert again == canonical

    def test_canonical_dict_makes_default_mode_explicit(self):
        assert scenario_to_dict(validate_scenario(BASE_RAW))["degradation_mode"] == "fixed_rate"

    def test_all_variants_round_trip(self):
        rng = np.random.default_rng(3)
        from conftest import random_scenario

        for _ in range(100):
            scenario = random_scenario(rng, explicit_mode=True)
            canonical = scenario_to_dict(scenario)
            assert scenario_to_dict(validate_scenario(canonical)) == canonical


class TestEvalResult:
    def _table(self, correct=0.55):
        return {
            (True, True, True): 0.35,
            (True, True, False): 0.0,
            (True, False, True): 0.14,
            (True, False, False): 0.21,
            (False, True, True): 0.0,
            (False, True, False): 0.15,
            (False, False, True): 0.06,
            (False, False, False): 0.09,
        }

    def test_consistent_result_accepted(self):
        result = EvalResult(0.55, self._table(), 0.5)
        assert sum(result.outcome_table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_headline_must_match_final_correct_mass(self):
        with pytest.raises(ValueError):
            EvalResult(0.9, self._table(), 0.5)

    def test_table_must_sum_to_one(self):
        table = self._table()
        table[(False, False, False)] = 0.5
        with pytest.raises(ValueError):
            EvalResult(0.55, table, 0.5)

    def test_table_must_cover_all_cells(self):
        table = self._table()
        del table[(False, False, False)]
        with pytest.raises(ValueError):
            EvalResult(0.55, table, 0.5)

    def test_dict_round_trip(self):
        result = EvalResult(0.55, self._table(), 0.5, notes=("a note",))
        data = result.to_dict()
        assert [row["probability"] for row in data["outcome_table"]] == [
            result.outcome_table[cell] for cell in OUTCOME_CELLS
        ]
        assert EvalResult.from_dict(data) == result


class TestRoutinePoliciesAreDistinct:
    def test_routine_ignore_is_not_indiscriminate_zero(self):
        """Never attending keeps the unaided rate; attending then always
        rejecting pays the deliberation cost and drops to the degraded rate."""
        from reliance.analytic import evaluate
        from reliance.model import RoutineIgnore

        ignore = evaluate(make_scenario(policy=RoutineIgnore()))
        reject_all = evaluate(make_scenario(policy=Indiscriminate(0.0)))
        assert ignore.p_correct_aided == 0.6
        assert reject_all.p_correct_aided == pytest.approx(0.4, abs=1e-12)
