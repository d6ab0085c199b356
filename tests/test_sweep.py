"""Sweeps, reference-line crossings, and exact sensitivities."""

from dataclasses import replace

import numpy as np
import pytest

from reliance.analytic import (
    AnalyticUnavailableError,
    accuracy_partials,
    evaluate,
    free_parameters,
)
from reliance.model import (
    Discriminating,
    Dominant,
    Joint,
    RoutineAccept,
    RoutineIgnore,
    SelfGated,
)
from reliance.sweep import (
    FD_STEP,
    SweepError,
    SweepSeries,
    SweepSpec,
    find_reference_crossing,
    run_sweep,
    sensitivity,
)

from conftest import make_scenario, perturbed_scenario, random_scenario

EXACT = 1e-12


class TestRunSweep:
    def test_acceptance_sweep_is_the_known_line(self, base_scenario):
        spec = SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 11)
        series = run_sweep(spec)
        assert series.parameter_values == tuple(pytest.approx(i / 10) for i in range(11))
        expected = [0.4 + 0.3 * i / 10 for i in range(11)]
        for got, want in zip(series.accuracies, expected):
            assert got == pytest.approx(want, abs=EXACT)
        assert series.unaided_reference == 0.6
        assert series.routine_accept_reference == 0.7

    def test_endpoints_are_inclusive(self, base_scenario):
        spec = SweepSpec(base_scenario, "policy.p_accept", 0.2, 0.8, 4)
        series = run_sweep(spec)
        assert series.parameter_values[0] == 0.2
        assert series.parameter_values[-1] == 0.8

    def test_identity_sweep_over_advisor_rate(self):
        scenario = make_scenario(policy=RoutineAccept())
        series = run_sweep(SweepSpec(scenario, "aid.p_advice_correct", 0.0, 1.0, 2))
        assert series.accuracies == (0.0, 1.0)

    def test_each_point_matches_direct_evaluation(self):
        scenario = make_scenario(policy=Discriminating(0.7, 0.3))
        series = run_sweep(SweepSpec(scenario, "user.p_post_reject_correct", 0.0, 0.6, 7))
        for value, accuracy in zip(series.parameter_values, series.accuracies):
            direct = evaluate(
                make_scenario(r=value, policy=Discriminating(0.7, 0.3))
            ).p_correct_aided
            assert accuracy == pytest.approx(direct, abs=EXACT)

    def test_path_not_applicable_to_policy_variant(self, base_scenario):
        spec = SweepSpec(base_scenario, "policy.p_accept_given_correct", 0.0, 1.0, 5)
        with pytest.raises(SweepError, match="not applicable"):
            run_sweep(spec)

    def test_unrecognized_path(self, base_scenario):
        with pytest.raises(SweepError, match="not recognized"):
            run_sweep(SweepSpec(base_scenario, "nonsense.path", 0.0, 1.0, 5))
        with pytest.raises(SweepError, match="not applicable"):
            run_sweep(SweepSpec(base_scenario, "policy.type", 0.0, 1.0, 5))

    def test_too_few_steps_rejected(self, base_scenario):
        with pytest.raises(SweepError, match="steps"):
            SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 1)

    def test_invalid_swept_value_names_the_offender(self, base_scenario):
        scenario = replace(base_scenario, dependency=Joint(0.42))
        spec = SweepSpec(scenario, "dependency.p_both_correct", 0.0, 0.6, 7)
        # Frechet lower bound is max(0, .7 + .6 - 1) = .3, so 0.0 is invalid
        with pytest.raises(SweepError, match="0.0"):
            run_sweep(spec)

    def test_grid_validated_before_any_evaluation(self, base_scenario):
        # last grid point is invalid; the sweep must fail up front
        spec = SweepSpec(base_scenario, "aid.p_advice_correct", 0.5, 1.5, 3)
        with pytest.raises(SweepError, match="1.5"):
            run_sweep(spec)

    def test_sweeping_dependency_inside_bounds_works(self, base_scenario):
        scenario = replace(base_scenario, dependency=Joint(0.42))
        spec = SweepSpec(scenario, "dependency.p_both_correct", 0.3, 0.6, 7)
        series = run_sweep(spec)
        assert len(series.accuracies) == 7

    def test_series_round_trip(self, base_scenario):
        series = run_sweep(SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 5))
        assert SweepSeries.from_dict(series.to_dict()) == series


class TestReferenceCrossing:
    def test_crossing_at_known_parameter(self, base_scenario):
        spec = SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 11)
        crossing = find_reference_crossing(spec)
        assert crossing == pytest.approx((0.6 - 0.4) / (0.7 - 0.4), abs=1e-9)

    def test_no_crossing_when_user_dominates_everywhere(self):
        scenario = make_scenario(p_a=0.5, p_u=0.9, r=0.1)
        spec = SweepSpec(scenario, "policy.p_accept", 0.0, 1.0, 11)
        assert find_reference_crossing(spec) is None

    def test_crossing_on_a_grid_point(self):
        scenario = make_scenario(p_a=0.7, p_u=0.55, r=0.4)
        spec = SweepSpec(scenario, "policy.p_accept", 0.0, 1.0, 11)
        crossing = find_reference_crossing(spec)
        assert crossing == pytest.approx(0.5, abs=1e-9)

    def test_random_crossings_match_algebra(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            p_a = rng.uniform(0.3, 0.95)
            r = rng.uniform(0.02, p_a - 0.2)
            p_u = rng.uniform(r + 0.05, p_a - 0.05)
            scenario = make_scenario(p_a, p_u, r)
            spec = SweepSpec(scenario, "policy.p_accept", 0.0, 1.0, 11)
            crossing = find_reference_crossing(spec)
            assert crossing == pytest.approx((p_u - r) / (p_a - r), abs=1e-9)


class TestSensitivity:
    def test_indiscriminate_base_partials(self, base_scenario):
        partials = sensitivity(base_scenario)
        assert partials["policy.p_accept"] == pytest.approx(0.3, abs=EXACT)
        assert partials["aid.p_advice_correct"] == pytest.approx(0.5, abs=EXACT)
        assert partials["user.p_post_reject_correct"] == pytest.approx(0.5, abs=EXACT)
        assert set(partials) == {
            "policy.p_accept",
            "aid.p_advice_correct",
            "user.p_post_reject_correct",
        }

    def test_self_gated_partial_for_advisor_rate(self):
        partials = sensitivity(make_scenario(policy=SelfGated(0.7, 0.7)))
        assert partials["aid.p_advice_correct"] == pytest.approx(0.46, abs=EXACT)

    @pytest.mark.parametrize("dependency", [Joint(0.55), Dominant()], ids=["joint", "dominant"])
    def test_self_gated_under_dependency_has_no_partials(self, dependency):
        # the independent-model partials would be wrong here (d/dg_c = 0.18
        # against the true p01 = 0.05 under Joint(0.55)), so none are given
        scenario = make_scenario(p_a=0.7, p_u=0.6, policy=SelfGated(0.8, 0.3), dependency=dependency)
        for query in (sensitivity, accuracy_partials, free_parameters):
            with pytest.raises(AnalyticUnavailableError):
                query(scenario)

    def test_routine_policies_have_unit_partials(self):
        assert sensitivity(make_scenario(policy=RoutineAccept())) == {
            "aid.p_advice_correct": 1.0
        }
        assert sensitivity(make_scenario(policy=RoutineIgnore())) == {
            "user.p_unaided_correct": 1.0
        }

    def test_joint_dependency_exposes_its_parameter(self):
        scenario = make_scenario(policy=Discriminating(0.7, 0.3), dependency=Joint(0.42))
        partials = sensitivity(scenario)
        assert partials["dependency.p_both_correct"] == pytest.approx(0.3 - 0.7, abs=EXACT)

    def test_partials_match_finite_differences_through_public_evaluate(self):
        """Independent check: perturb real scenarios and difference evaluate()."""
        rng = np.random.default_rng(71)
        for _ in range(100):
            scenario = random_scenario(rng, explicit_mode=True)
            partials = sensitivity(scenario)
            for name, exact in partials.items():
                up = perturbed_scenario(scenario, name, +FD_STEP)
                down = perturbed_scenario(scenario, name, -FD_STEP)
                estimate = (
                    evaluate(up).p_correct_aided - evaluate(down).p_correct_aided
                ) / (2 * FD_STEP)
                assert estimate == pytest.approx(exact, abs=1e-6), (
                    f"{name} partial mismatch for {scenario}"
                )
