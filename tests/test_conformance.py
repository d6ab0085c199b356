"""Closed forms against the Monte Carlo engine, cell by cell.

Every policy under an independent dependency, a joint one (interior and both
Frechet-Hoeffding ends) and a dominant one, in both degradation modes, and
the two policies with the most structure at edge marginals: the headline and
each of the eight outcome cells of `evaluate` must lie within 5 standard
errors of a fixed-seed 10^6-trial estimate.
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
# name -> (p_advice_correct, p_unaided_correct, dependency); .7 and .6 bound
# P(both correct) to [.3, .6]
DEPENDENCIES = {
    "joint_interior": (0.7, 0.6, Joint(0.45)),
    "joint_lower_end": (0.7, 0.6, Joint(0.3)),
    "joint_upper_end": (0.7, 0.6, Joint(0.6)),
    "dominant": (0.7, 0.6, Dominant()),
    "independent": (0.7, 0.6, Independent()),
}
# Edge marginals under each dependency they admit (a joint value there is
# pinned by the Frechet-Hoeffding bounds), and joint values inside the 1e-9
# validation slack past each end.
EDGES = {
    "advice_0-independent": (0.0, 0.6, Independent()),
    "advice_0-joint": (0.0, 0.6, Joint(0.0)),
    "advice_1-independent": (1.0, 0.6, Independent()),
    "advice_1-joint": (1.0, 0.6, Joint(0.6)),
    "advice_1-dominant": (1.0, 0.6, Dominant()),
    "advice_1e-300-independent": (1e-300, 0.6, Independent()),
    "advice_1e-300-joint": (1e-300, 0.6, Joint(1e-300)),
    "unaided_0-independent": (0.7, 0.0, Independent()),
    "unaided_0-joint": (0.7, 0.0, Joint(0.0)),
    "unaided_0-dominant": (0.7, 0.0, Dominant()),
    "unaided_1-independent": (0.7, 1.0, Independent()),
    "unaided_1-joint": (0.7, 1.0, Joint(0.7)),
    "joint_past_upper_end_in_slack": (0.7, 0.6, Joint(0.6 + 5e-10)),
    "joint_past_lower_end_in_slack": (0.7, 0.6, Joint(0.3 - 5e-10)),
}
MODES = ("fixed_rate", "conditional_from_joint")
CASES = list(itertools.product(POLICIES, DEPENDENCIES, MODES))
# self_gated ignores the mode; discriminating's conditional rates meet the edges
CASES += itertools.product(("self_gated", "discriminating"), EDGES, ("conditional_from_joint",))


def within(count: int, mass: float) -> bool:
    """An observed count against an exact mass, 5 standard errors either way;
    a zero mass must count exactly 0."""
    se = math.sqrt(mass * (1.0 - mass) / N_TRIALS)
    return abs(count / N_TRIALS - mass) <= Z * se


@pytest.mark.parametrize("policy,dependency,mode", CASES, ids=["-".join(case) for case in CASES])
def test_closed_form_matches_simulation(policy, dependency, mode):
    p_a, p_u, dep = (DEPENDENCIES | EDGES)[dependency]
    # a post-rejection rate at most the unaided one, so that nothing warns
    scenario = make_scenario(p_a, p_u, min(0.4, p_u), POLICIES[policy], dep, mode)
    closed = evaluate(scenario)
    estimate = estimate_accuracy(scenario, N_TRIALS, seed=CASES.index((policy, dependency, mode)))
    correct = sum(count for (_, _, final), count in estimate.outcome_counts.items() if final)
    assert within(correct, closed.p_correct_aided)
    for cell in OUTCOME_CELLS:
        assert within(estimate.outcome_counts[cell], closed.outcome_table[cell]), cell
