"""Closed forms against the Monte Carlo engine, cell by cell.

Every policy under an independent dependency, a joint one (interior and both
Frechet-Hoeffding ends) and a dominant one, in both degradation modes: the
headline and each of the eight outcome cells of `evaluate` must lie within
5 standard errors of a fixed-seed 10^6-trial estimate.
"""

import itertools
import math

import pytest

from reliance.analytic import evaluate
from reliance.model import (
    OUTCOME_CELLS,
    Discriminating,
    Dominant,
    Independent,
    Indiscriminate,
    Joint,
    RoutineAccept,
    RoutineIgnore,
    SelfGated,
)
from reliance.simulate import estimate_accuracy

from conftest import make_scenario

N_TRIALS = 10**6
Z = 5.0

POLICIES = {
    "self_gated": SelfGated(0.8, 0.3),
    "discriminating": Discriminating(0.7, 0.3),
    "indiscriminate": Indiscriminate(0.5),
    "routine_accept": RoutineAccept(),
    "routine_ignore": RoutineIgnore(),
}
# p_advice_correct .7 and p_unaided_correct .6 bound P(both correct) to [.3, .6]
DEPENDENCIES = {
    "joint_interior": Joint(0.45),
    "joint_lower_end": Joint(0.3),
    "joint_upper_end": Joint(0.6),
    "dominant": Dominant(),
    "independent": Independent(),
}
MODES = ("fixed_rate", "conditional_from_joint")
CASES = list(itertools.product(POLICIES, DEPENDENCIES, MODES))


def within(count: int, mass: float) -> bool:
    """An observed count against an exact mass, 5 standard errors either way."""
    se = math.sqrt(mass * (1.0 - mass) / N_TRIALS)
    return abs(count / N_TRIALS - mass) <= Z * se


@pytest.mark.parametrize("policy,dependency,mode", CASES, ids=["-".join(case) for case in CASES])
def test_closed_form_matches_simulation(policy, dependency, mode):
    scenario = make_scenario(policy=POLICIES[policy], dependency=DEPENDENCIES[dependency], mode=mode)
    closed = evaluate(scenario)
    estimate = estimate_accuracy(scenario, N_TRIALS, seed=CASES.index((policy, dependency, mode)))
    assert abs(estimate.p_hat - closed.p_correct_aided) <= Z * estimate.std_err
    for cell in OUTCOME_CELLS:
        assert within(estimate.outcome_counts[cell], closed.outcome_table[cell]), cell
