"""Domain types, scenario validation, conditional user rates, and the
record semantics of every model and result type."""

import copy
import math
import pickle
import re
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest

from reliance import analytic, model, simulate, sweep
from reliance.analytic import (
    BreakevenResult,
    PolicyComparison,
    breakeven_discrimination,
    compare_policies,
    evaluate,
)
from reliance.model import (
    BOUND_TOLERANCE,
    AidProfile,
    ConstraintViolation,
    DegradedRateWarning,
    Discriminating,
    Dominant,
    EvalResult,
    Independent,
    Indiscriminate,
    Joint,
    OUTCOME_CELLS,
    P_BOTH,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    ScenarioValidationError,
    SelfGated,
    UserProfile,
    as_probability,
    conditional_user_rates,
    frechet_bounds,
    joint_success_probability,
    scenario_to_dict,
    validate_scenario,
)
from reliance.simulate import SimEstimate, TrialOutcome, estimate_accuracy
from reliance.sweep import SweepSeries, SweepSpec, run_sweep

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
        # reported at the constructing line, not the record's generated __init__
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

    @pytest.mark.parametrize("where", [None, "aid", "policy"], ids=["top", "aid", "policy"])
    def test_unknown_keys_of_mixed_types_are_each_named(self, where):
        # keys that do not compare with each other: strings in sorted order, then the rest by repr
        # (a Decimal's repr sorts after 1, its str before)
        raw = copy.deepcopy(BASE_RAW)
        (raw if where is None else raw[where]).update({1: 2, "y": 3, None: 4, "x": 5, Decimal("0.5"): 6})
        prefix = "" if where is None else f"{where}."
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        assert [str(v) for v in err.value.violations] == [
            f"{prefix}{key}: {value} not in (no such field) (unknown field rejected)"
            for key, value in (("x", 5), ("y", 3), (1, 2), (Decimal("0.5"), 6), (None, 4))
        ]

    @pytest.mark.parametrize("section", ["aid", "user"])
    def test_a_plain_section_has_no_type_field(self, section):
        raw = copy.deepcopy(BASE_RAW)
        raw[section]["type"] = section
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        assert [str(v) for v in err.value.violations] == [
            f"{section}.type: {section!r} not in (no such field) (unknown field rejected)"
        ]

    def test_a_section_with_an_unknown_field_is_not_bound_checked(self):
        # the dependency below is past its Frechet bounds, but it is not known
        # until its fields are, so only its unknown field is reported
        raw = {**BASE_RAW, "dependency": {"type": "joint", "p_both_correct": 0.9, "extra": 1}}
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        assert [v.constraint for v in err.value.violations] == ["dependency.extra"]

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

    @pytest.mark.parametrize(
        "section,value,allowed",
        [
            ("policy", "discriminating", "RoutineAccept, RoutineIgnore, Indiscriminate, Discriminating, SelfGated"),
            ("dependency", object(), "Independent, Joint, Dominant"),
            ("aid", UserProfile(0.7, 0.5), "AidProfile"),
            ("user", None, "UserProfile"),
        ],
    )
    def test_a_section_of_the_wrong_class_is_a_type_error(self, section, value, allowed):
        sections = dict(aid=AidProfile(0.7), user=UserProfile(0.6, 0.5), policy=Indiscriminate(0.5))
        sections[section] = value
        sections.setdefault("dependency", Independent())
        with pytest.raises(TypeError, match=f"^Scenario.{section} must be one of {allowed}; got "):
            Scenario(**sections)

    def test_each_field_is_checked_once(self, monkeypatch):
        raw = {
            "aid": {"p_advice_correct": 1 + 1e-13},
            "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
            "policy": {"type": "discriminating", "p_accept_given_correct": 0.8, "p_accept_given_wrong": 0.2},
            "dependency": {"type": "joint", "p_both_correct": 0.6},
        }
        checked = []

        def counted(value, name="probability"):
            checked.append(name)
            return as_probability(value, name)

        monkeypatch.setattr(model, "as_probability", counted)
        scenario = validate_scenario(raw)
        assert sorted(checked) == sorted(scenario.leaves)
        # the clamped value is the one kept, as direct construction keeps it
        assert scenario == make_scenario(1.0, policy=Discriminating(0.8, 0.2), dependency=Joint(0.6))
        assert scenario_to_dict(scenario)["aid"] == {"p_advice_correct": 1.0}

    def test_frechet_slack_admits_then_clamps(self):
        scenario = make_scenario(dependency=Joint(0.6 + 1e-10))
        p11 = joint_success_probability(scenario.dependency, scenario.leaves)
        assert p11 == 0.6

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_the_frechet_slack_is_inclusive(self, end):
        # the bound plus its slack, as the bound check computes it, validates;
        # the next float past it does not
        lo, hi = frechet_bounds(0.7, 0.6)
        edge, away = (lo - BOUND_TOLERANCE, -math.inf) if end == "lower" else (hi + BOUND_TOLERANCE, math.inf)
        raw = {**BASE_RAW, "dependency": {"type": "joint", "p_both_correct": edge}}
        assert validate_scenario(raw).dependency == Joint(edge)
        raw["dependency"] = {"type": "joint", "p_both_correct": math.nextafter(edge, away)}
        with pytest.raises(ScenarioValidationError, match="Frechet-Hoeffding"):
            validate_scenario(raw)

    def test_the_dominance_slack_is_inclusive(self):
        edge = 0.6 - BOUND_TOLERANCE
        raw = {**BASE_RAW, "aid": {"p_advice_correct": edge}, "dependency": {"type": "dominant"}}
        assert validate_scenario(raw).aid == AidProfile(edge)
        raw["aid"] = {"p_advice_correct": math.nextafter(edge, -math.inf)}
        with pytest.raises(ScenarioValidationError, match="uniformly dominant"):
            validate_scenario(raw)


# The nine probability dot-paths of the schema, and the policy that has each
# policy leaf.
LEAF_POLICIES = {
    "aid.p_advice_correct": "indiscriminate",
    "user.p_unaided_correct": "indiscriminate",
    "user.p_post_reject_correct": "indiscriminate",
    "policy.p_accept": "indiscriminate",
    "policy.p_accept_given_correct": "discriminating",
    "policy.p_accept_given_wrong": "discriminating",
    "policy.p_ignore_given_user_correct": "self_gated",
    "policy.p_use_given_user_wrong": "self_gated",
    "dependency.p_both_correct": "indiscriminate",
}
# (value in JSON, repr of the float validate_scenario keeps)
KEPT_VALUES = [
    (-0.0, "-0.0"),
    (0.0, "0.0"),
    (1e-300, "1e-300"),
    (-5e-13, "0.0"),
    (1 + 5e-13, "1.0"),
    (1 - 2**-53, "0.9999999999999999"),
    (0, "0.0"),
    (1, "1.0"),
]
# (value in JSON, its violation after the dot-path)
REFUSED_VALUES = [
    (10**400, "inf not in [0, 1]"),
    (math.nan, "nan not in [0, 1]"),
    (math.inf, "inf not in [0, 1]"),
    (True, "True not in [0, 1] (expected a number)"),
    ("0.5", "'0.5' not in [0, 1] (expected a number)"),
]


def raw_with_leaf(path: str, value, near_one: bool = False) -> dict:
    """A scenario with `value` at `path` that no cross-field rule refuses once
    the value is kept: a dependency leaf gets joint marginals whose bounds
    hold the kept value, 1.0 for one `near_one`, else 0.5; any other leaf
    sits in an independent scenario whose post-rejection rate is 0."""
    policy = LEAF_POLICIES[path]
    raw = {
        "aid": {"p_advice_correct": 0.5},
        "user": {"p_unaided_correct": 1.0, "p_post_reject_correct": 0.0},
        "policy": {"type": policy},
        "dependency": {"type": "independent"},
    }
    for leaf, kind in LEAF_POLICIES.items():
        if kind == policy and leaf.startswith("policy."):
            raw["policy"][leaf.split(".")[1]] = 0.5
    if path == P_BOTH:
        raw["aid"]["p_advice_correct"] = raw["user"]["p_unaided_correct"] = 1.0 if near_one else 0.5
        raw["dependency"] = {"type": "joint"}
    section, key = path.split(".")
    raw[section][key] = value
    return raw


class TestFloatPath:
    def test_the_scenarios_hold_these_nine_leaves(self):
        paths = set()
        for path in LEAF_POLICIES:
            paths |= validate_scenario(raw_with_leaf(path, 0.5)).leaves.keys()
        assert paths == set(LEAF_POLICIES)

    @pytest.mark.parametrize("value,shown", KEPT_VALUES, ids=[f"{type(v).__name__} {v!r}" for v, _ in KEPT_VALUES])
    @pytest.mark.parametrize("path", LEAF_POLICIES)
    def test_a_kept_value_is_this_float(self, path, value, shown):
        kept = validate_scenario(raw_with_leaf(path, value, near_one=float(shown) > 0.5)).leaves[path]
        assert (repr(kept), type(kept)) == (shown, float)

    @pytest.mark.parametrize("value,text", REFUSED_VALUES, ids=["10**400", "nan", "inf", "True", "str"])
    @pytest.mark.parametrize("path", LEAF_POLICIES)
    def test_a_refused_value_is_this_violation(self, path, value, text):
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw_with_leaf(path, value))
        assert str(err.value) == f"invalid scenario:\n  {path}: {text}"


class TestMinMax:
    @pytest.mark.parametrize("pick", [model._min, model._max], ids=["min", "max"])
    @pytest.mark.parametrize("a,b", [(0.0, -0.0), (-0.0, 0.0)])
    def test_a_tie_keeps_the_first_argument(self, pick, a, b):
        # 0.0 and -0.0 tie; the first argument's sign survives, on floats and arrays
        assert math.copysign(1.0, pick(a, b)) == math.copysign(1.0, a)
        assert np.signbit(pick(np.array([a, a]), np.array([b, b]))).tolist() == [np.signbit(a)] * 2


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

    @staticmethod
    def read(headline, table, marginal):
        """`EvalResult.from_dict` of the wire form of these values: the
        table's rows in canonical order, any cell it lacks left out."""
        rows = [
            dict(zip(("advice_correct", "accepted_or_used", "final_correct"), cell), probability=table[cell])
            for cell in OUTCOME_CELLS
            if cell in table
        ]
        return EvalResult.from_dict({"p_correct_aided": headline, "p_accept_marginal": marginal, "outcome_table": rows})

    def test_consistent_result_accepted(self):
        result = self.read(0.55, self._table(), 0.5)
        assert sum(result.outcome_table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_headline_must_match_final_correct_mass(self):
        with pytest.raises(ValueError, match="^EvalResult p_correct_aided 0.9 is not the final-correct mass"):
            self.read(0.9, self._table(), 0.5)

    def test_table_must_sum_to_one(self):
        table = self._table()
        table[(False, False, False)] = 0.5
        with pytest.raises(ValueError, match=r"^EvalResult outcome_table sum to 1\.41, expected 1$"):
            self.read(0.55, table, 0.5)

    def test_table_must_cover_all_cells(self):
        table = self._table()
        del table[(False, False, False)]
        with pytest.raises(ValueError, match="^EvalResult outcome_table must cover exactly the 8 canonical cells$"):
            self.read(0.55, table, 0.5)

    def test_cells_must_lie_in_unit_interval(self):
        table = dict.fromkeys(OUTCOME_CELLS, 0.0)
        table[(True, True, True)], table[(False, False, False)] = 1.5, -0.5
        with pytest.raises(ValueError, match=r"^EvalResult outcome_table cell \(True, True, True\) holds 1\.5, not in \[0, 1\]$"):
            self.read(1.5, table, 0.5)

    @pytest.mark.parametrize(
        "cells,named",
        [
            ((1.0 + 1.5e-9, -1e-9, -0.5e-9), r"\(True, True, True\) holds 1\.0000000015"),
            ((1.0 + 0.5e-9, 1e-9, -1.5e-9), r"\(False, False, False\) holds -1\.5e-09"),
            ((1.0, 0.0, math.nan), r"\(False, False, False\) holds nan"),
        ],
        ids=["above", "below", "nan"],
    )
    def test_a_cell_past_the_guard_is_named(self, cells, named):
        # one cell 0.5e-9 past the guard, the others inside it and summing to 1
        table = dict.fromkeys(OUTCOME_CELLS, 0.0)
        table[(True, True, True)], table[(True, False, True)], table[(False, False, False)] = cells
        with pytest.raises(ValueError, match=rf"^EvalResult outcome_table cell {named}, not in \[0, 1\]$"):
            self.read(1.0, table, 1.0)

    # Each move keeps the total, used and final-correct masses that the
    # result checks; each read back before the cells were checked.
    @pytest.mark.parametrize(
        "donor,cell",
        [((False, True, False), (True, True, False)), ((True, True, True), (False, True, True))],
        ids=["right_advice", "wrong_advice"],
    )
    def test_mass_in_an_empty_cell_is_named(self, donor, cell):
        data = evaluate(make_scenario()).to_dict()
        for row in data["outcome_table"]:
            key = (row["advice_correct"], row["accepted_or_used"], row["final_correct"])
            row["probability"] += 0.1 if key == cell else -0.1 if key == donor else 0.0
        named = re.escape(f"EvalResult outcome_table cell {cell} holds 0.1, not in [0, 0]")
        with pytest.raises(ValueError, match=f"^{named}$"):
            EvalResult.from_dict(data)

    def test_headline_must_lie_in_unit_interval(self):
        # every cell within 1e-9 of [0, 1], and each headline within 1e-9 of
        # the final-correct mass; the second is more than 1e-9 past 1
        table = dict.fromkeys(OUTCOME_CELLS, 0.0)
        table[(True, True, True)], table[(False, False, False)] = 1.0 + 0.9e-9, -0.9e-9
        self.read(1.0 + 0.9e-9, table, 1.0)
        with pytest.raises(ValueError, match="^EvalResult p_correct_aided 1.0000000015 is not the final-correct mass"):
            self.read(1.0 + 1.5e-9, table, 1.0)

    def test_accept_marginal_must_match_accepted_mass(self):
        self.read(0.55, self._table(), 0.5 + 0.9e-9)
        data = evaluate(make_scenario()).to_dict()
        data["p_accept_marginal"] = 7.0
        with pytest.raises(ValueError, match=r"^EvalResult p_accept_marginal 7\.0 is not the accepted mass 0\.5$"):
            EvalResult.from_dict(data)

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
        ignore = evaluate(make_scenario(policy=RoutineIgnore()))
        reject_all = evaluate(make_scenario(policy=Indiscriminate(0.0)))
        assert ignore.p_correct_aided == 0.6
        assert reject_all.p_correct_aided == pytest.approx(0.4, abs=1e-12)


def _malformed(**changes):
    """BASE_RAW with whole sections replaced or, for `...`, deleted."""
    raw = copy.deepcopy(BASE_RAW)
    for key, value in changes.items():
        if value is ...:
            del raw[key]
        else:
            raw[key] = value
    return raw


# (malformed scenario, str(ScenarioValidationError)), word for word; pinned
# before the section parser was rewritten.
GOLDEN_VIOLATIONS = {
    "missing_section": (
        _malformed(dependency=...),
        "dependency: None not in JSON object (required section missing)",
    ),
    "aid_not_object": (
        _malformed(aid=0.7),
        "aid: 0.7 not in JSON object (section missing or wrong type)",
    ),
    "policy_not_object": (
        _malformed(policy="indiscriminate"),
        "policy: 'indiscriminate' not in JSON object",
    ),
    "dependency_not_object": (
        _malformed(dependency=["independent"]),
        "dependency: ['independent'] not in JSON object",
    ),
    "unknown_type": (
        _malformed(policy={"type": "no_such_policy", "p_accept": 0.5}),
        "policy.type: 'no_such_policy' not in "
        "{discriminating, indiscriminate, routine_accept, routine_ignore, self_gated}",
    ),
    "unknown_field": (
        _malformed(aid={"p_advice_correct": 0.7, "extra": 1}),
        "aid.extra: 1 not in (no such field) (unknown field rejected)",
    ),
    "missing_field": (
        _malformed(user={"p_unaided_correct": 0.6}),
        "user.p_post_reject_correct: None not in [0, 1] (required field missing)",
    ),
    "out_of_range": (
        _malformed(aid={"p_advice_correct": 1.3}),
        "aid.p_advice_correct: 1.3 not in [0, 1]",
    ),
    "bool_value": (
        _malformed(policy={"type": "indiscriminate", "p_accept": True}),
        "policy.p_accept: True not in [0, 1] (expected a number)",
    ),
    "nan_value": (
        _malformed(user={"p_unaided_correct": float("nan"), "p_post_reject_correct": 0.4}),
        "user.p_unaided_correct: nan not in [0, 1]",
    ),
    "bad_mode": (
        _malformed(degradation_mode="sometimes"),
        "degradation_mode: 'sometimes' not in {fixed_rate, conditional_from_joint}",
    ),
    "sections_mode_and_frechet": (
        _malformed(
            policy={"type": "indiscriminate", "p_accept": 2.0},
            dependency={"type": "joint", "p_both_correct": 0.75},
            degradation_mode="sometimes",
            mystery=1,
        ),
        "mystery: 1 not in (no such field) (unknown field rejected)\n"
        "  policy.p_accept: 2.0 not in [0, 1]\n"
        "  degradation_mode: 'sometimes' not in {fixed_rate, conditional_from_joint}\n"
        "  dependency.p_both_correct: 0.75 not in [0.3, 0.6] "
        "(Frechet-Hoeffding bounds for the given marginals)",
    ),
    "top_level_list": ([], "scenario: [] not in JSON object"),
    "top_level_string": ("x", "scenario: 'x' not in JSON object"),
    "top_level_number": (1, "scenario: 1 not in JSON object"),
    "top_level_null": (None, "scenario: None not in JSON object"),
    "mode_and_dominance": (
        _malformed(
            aid={"p_advice_correct": 0.5}, dependency={"type": "dominant"}, degradation_mode="x"
        ),
        "degradation_mode: 'x' not in {fixed_rate, conditional_from_joint}\n"
        "  dependency: 'p_advice_correct=0.5 < p_unaided_correct=0.6' not in "
        "p_advice_correct >= p_unaided_correct "
        "(a uniformly dominant advisor must solve everything the user would)",
    ),
}


class TestViolationText:
    @pytest.mark.parametrize("name", GOLDEN_VIOLATIONS)
    def test_word_for_word(self, name):
        raw, expected = GOLDEN_VIOLATIONS[name]
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        assert str(err.value) == "invalid scenario:\n  " + expected

    @pytest.mark.parametrize("section", ["policy", "dependency"])
    @pytest.mark.parametrize("kind", [["x"], {"x": 1}], ids=["list", "dict"])
    def test_unhashable_type_is_a_violation(self, section, kind):
        raw = _malformed(**{section: {"type": kind}})
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(raw)
        assert [v.constraint for v in err.value.violations] == [f"{section}.type"]

    def test_huge_integer_probability_is_a_violation(self):
        # an integer past float range is the infinity of its sign
        for huge, value in (10**400, math.inf), (-(10**400), -math.inf):
            with pytest.raises(ScenarioValidationError) as err:
                validate_scenario(_malformed(aid={"p_advice_correct": huge}))
            assert [(v.constraint, v.value) for v in err.value.violations] == [("aid.p_advice_correct", value)]


# --- record semantics of every model and result type -----------------------

# Each record type's fields in positional order.
RECORD_FIELDS = {
    ConstraintViolation: ("constraint", "value", "allowed", "detail"),
    AidProfile: ("p_advice_correct",),
    UserProfile: ("p_unaided_correct", "p_post_reject_correct"),
    RoutineAccept: (),
    RoutineIgnore: (),
    Indiscriminate: ("p_accept",),
    Discriminating: ("p_accept_given_correct", "p_accept_given_wrong"),
    SelfGated: ("p_ignore_given_user_correct", "p_use_given_user_wrong"),
    Independent: (),
    Joint: ("p_both_correct",),
    Dominant: (),
    Scenario: ("aid", "user", "policy", "dependency", "degradation_mode"),
    EvalResult: ("p_correct_aided", "outcome_table", "p_accept_marginal", "notes"),
    PolicyComparison: ("results", "configured_policy", "best_policy", "margins", "notes"),
    BreakevenResult: ("d_star", "target", "accuracy_at_d_star", "degradation_mode"),
    TrialOutcome: (
        "advice_correct", "user_would_be_correct", "attended", "accepted_or_used", "final_correct",
    ),
    SimEstimate: (
        "p_hat", "n_trials", "std_err", "ci95", "seed", "n_shards", "outcome_counts",
        "advice_correct_count", "user_correct_count", "either_correct_count",
    ),
    SweepSpec: ("base", "parameter_path", "start", "stop", "steps"),
    SweepSeries: (
        "parameter_path", "parameter_values", "accuracies", "unaided_reference", "routine_accept_reference",
    ),
}
# The fields that have a default, with it.
RECORD_DEFAULTS = {
    ConstraintViolation: {"detail": ""},
    Scenario: {"degradation_mode": None},
    EvalResult: {"notes": ()},
    PolicyComparison: {"notes": ()},
}
# The record types whose values include a dict, so that they are not hashable.
UNHASHABLE = {EvalResult, PolicyComparison, SimEstimate}


def one_record(cls):
    """An instance of the record type `cls` with every field set."""
    scenario = make_scenario(policy=Discriminating(0.8, 0.3), dependency=Joint(0.45), mode="fixed_rate")
    spec = SweepSpec(scenario, "policy.p_accept_given_correct", 0.0, 1.0, 5)
    build = {
        ConstraintViolation: lambda: ConstraintViolation("aid.p_advice_correct", 1.5, "[0, 1]", "a detail"),
        AidProfile: lambda: AidProfile(0.5),
        UserProfile: lambda: UserProfile(0.6, 0.4),
        RoutineAccept: RoutineAccept,
        RoutineIgnore: RoutineIgnore,
        Indiscriminate: lambda: Indiscriminate(0.5),
        Discriminating: lambda: Discriminating(0.8, 0.3),
        SelfGated: lambda: SelfGated(0.8, 0.3),
        Independent: Independent,
        Joint: lambda: Joint(0.45),
        Dominant: Dominant,
        Scenario: lambda: scenario,
        EvalResult: lambda: evaluate(make_scenario()),
        PolicyComparison: lambda: compare_policies(make_scenario(p_a=0.5, p_u=0.5, r=0.5)),
        BreakevenResult: lambda: breakeven_discrimination(scenario.aid, scenario.user, scenario.dependency),
        TrialOutcome: lambda: TrialOutcome(True, False, True, True, True),
        SimEstimate: lambda: estimate_accuracy(scenario, 1000, seed=3),
        SweepSpec: lambda: spec,
        SweepSeries: lambda: run_sweep(spec),
    }
    return build[cls]()


def values_of(record) -> tuple:
    return tuple(getattr(record, name) for name in RECORD_FIELDS[type(record)])


records = pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)


class TestRecords:
    def test_every_record_type_is_listed(self):
        assert len(RECORD_FIELDS) == 19
        modules = (model, analytic, simulate, sweep)
        found = {obj for module in modules for obj in vars(module).values() if isinstance(obj, type)}
        record_types = {cls for cls in found if issubclass(cls, model._Record)}
        assert record_types - {model._Record, model._Wire} == set(RECORD_FIELDS)
        notes = [cls for cls in RECORD_FIELDS if "notes" in RECORD_FIELDS[cls]]
        assert all("notes" in RECORD_DEFAULTS[cls] for cls in notes)

    def test_record_classes_keep_the_plain_metaclass(self):
        # a failing isinstance test costs several times as much under any other
        assert {type(cls) for cls in RECORD_FIELDS} == {type}

    @records
    def test_built_by_position_and_by_keyword(self, cls):
        record = one_record(cls)
        values = values_of(record)
        assert cls(*values) == record
        assert cls(**dict(zip(RECORD_FIELDS[cls], values))) == record

    @records
    def test_defaults(self, cls):
        defaults = RECORD_DEFAULTS.get(cls, {})
        values = dict(zip(RECORD_FIELDS[cls], values_of(one_record(cls))))
        built = cls(**{name: value for name, value in values.items() if name not in defaults})
        assert {name: getattr(built, name) for name in defaults} == defaults

    @records
    def test_a_missing_or_unexpected_argument_is_a_type_error(self, cls):
        values = values_of(one_record(cls))
        required = len(values) - len(RECORD_DEFAULTS.get(cls, {}))
        if required:
            with pytest.raises(TypeError, match="missing 1 required positional argument"):
                cls(*values[: required - 1])
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match="positional argument"):
            cls(*values, None)

    def test_equal_only_within_one_class(self):
        assert AidProfile(0.5) != Indiscriminate(0.5)
        assert RoutineAccept() != RoutineIgnore()
        assert Independent() != Dominant()
        assert AidProfile(0.5) != (0.5,)
        assert AidProfile(0.5) == AidProfile(0.5) and AidProfile(0.5) != AidProfile(0.6)

    @records
    def test_equal_values_give_equal_hashes(self, cls):
        record = one_record(cls)
        twin = cls(*values_of(record))
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(twin) == hash(record)
            assert len({record, twin}) == 1

    @records
    def test_repr_names_every_field(self, cls):
        record = one_record(cls)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORD_FIELDS[cls])
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_repr_text(self):
        assert repr(AidProfile(0.5)) == "AidProfile(p_advice_correct=0.5)"
        assert repr(RoutineAccept()) == "RoutineAccept()"
        assert repr(make_scenario(policy=RoutineIgnore())) == (
            "Scenario(aid=AidProfile(p_advice_correct=0.7), "
            "user=UserProfile(p_unaided_correct=0.6, p_post_reject_correct=0.4), "
            "policy=RoutineIgnore(), dependency=Independent(), degradation_mode=None)"
        )

    @records
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = one_record(cls)
        for name in (*RECORD_FIELDS[cls], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert values_of(record) == values_of(one_record(cls))

    @records
    def test_copies_and_pickles_are_equal(self, cls):
        record = one_record(cls)
        for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(again) is cls
            assert again == record
            assert repr(again) == repr(record)

    def test_a_copied_scenario_keeps_its_derived_values(self):
        scenario = make_scenario(dependency=Joint(0.45))
        for again in (copy.copy(scenario), copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))):
            assert again.leaves == scenario.leaves
            assert again.effective_degradation_mode == scenario.effective_degradation_mode
            assert evaluate(again) == evaluate(scenario)

    def test_copying_a_degraded_user_does_not_warn_again(self):
        with pytest.warns(DegradedRateWarning):
            user = UserProfile(0.6, 0.7)
            scenario = make_scenario(p_u=0.6, r=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRateWarning)
            for record in (user, scenario):
                for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                    assert again == record

    @records
    def test_replace_rebuilds_through_init(self, cls):
        record = one_record(cls)
        assert record.__replace__() == record
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            record.__replace__(bogus=1)

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
    def test_copy_replace_calls_replace(self):
        assert copy.replace(AidProfile(0.5), p_advice_correct=0.7) == AidProfile(0.7)
        with pytest.raises(ScenarioValidationError):
            copy.replace(AidProfile(0.5), p_advice_correct=1.5)

    def test_replace_checks_and_warns_again(self):
        assert AidProfile(0.5).__replace__(p_advice_correct=0.7) == AidProfile(0.7)
        with pytest.raises(ScenarioValidationError):
            AidProfile(0.5).__replace__(p_advice_correct=1.5)
        with pytest.warns(DegradedRateWarning):
            UserProfile(0.6, 0.4).__replace__(p_post_reject_correct=0.7)
