"""The paper's two claims, checked exactly on a rational grid.

1. Without the ability to spot when the advice, or the user unaided, is
   wrong, attending to the advice is counterproductive: no such policy beats
   the better routine policy, max(p_a, p_u).
2. Usefulness depends heavily on that ability: perfect ability reaches the
   ceiling, P(advice or user right alone) = p_a + p_u - P(both correct).

Each accuracy is `conftest.exact_accuracy`, the latent sum in Fractions of
the floats, and `evaluate` is checked within EXACT of it.  The grid: every
marginal k/n for n in {2, 3, 5}; Independent, Joint at both Frechet ends
and their midpoint, and Dominant where p_a >= p_u; r in {0, 0.3, 1}.
"""

from fractions import Fraction
from itertools import product

import pytest

from reliance.analytic import TIE_TOLERANCE, breakeven_discrimination, evaluate, potential_combined
from reliance.model import (
    CONDITIONAL_FROM_JOINT,
    DEGRADATION_MODES,
    FIXED_RATE,
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

from conftest import exact_accuracy, exact_both_correct, make_scenario

EXACT = 1e-12
MARGINALS = sorted({k / n for n in (2, 3, 5) for k in range(n + 1)})
POST_REJECT = (0.0, 0.3, 1.0)
RATES = (0.0, 0.5, 1.0)

pytestmark = pytest.mark.filterwarnings("ignore::reliance.model.DegradedRateWarning")


def grid():
    """(p_a, p_u, dependency) over every pair of marginals."""
    for p_a, p_u in product(MARGINALS, repeat=2):
        lo, hi = frechet_bounds(p_a, p_u)
        for dependency in Independent(), Joint(lo), Joint(hi), Joint((lo + hi) / 2):
            yield p_a, p_u, dependency
        if p_a >= p_u:
            yield p_a, p_u, Dominant()


# The policies on the rate grid with no ability to spot errors: one that
# ignores the advice's quality, one that uses right advice no more often than
# wrong advice, and one that uses the advice no more often when the user would
# be wrong alone than when right (x_w <= 1 - x_c).
BLIND = (
    [Indiscriminate(x) for x in RATES]
    + [Discriminating(ac, aw) for ac, aw in product(RATES, repeat=2) if ac <= aw]
    + [SelfGated(x_c, x_w) for x_c, x_w in product(RATES, repeat=2) if x_w <= 1.0 - x_c]
)


def test_claim_1_attending_without_the_ability_never_beats_the_better_routine_policy():
    cases = 0
    for p_a, p_u, dependency in grid():
        target = Fraction(max(p_a, p_u))
        # conditional_from_joint reads no r: the largest stands for all three
        for mode, r in [(CONDITIONAL_FROM_JOINT, 1.0)] + [(FIXED_RATE, r) for r in POST_REJECT]:
            if mode == FIXED_RATE and r > max(p_a, p_u):
                continue  # the claim's precondition: see the next test
            for policy in BLIND:
                scenario = make_scenario(p_a, p_u, r, policy, dependency, mode)
                exact = exact_accuracy(scenario)
                case = (p_a, p_u, r, dependency, mode, policy)
                assert exact <= target, case
                assert abs(evaluate(scenario).p_correct_aided - exact) <= EXACT, case
                cases += 1
    assert cases == 17475


def test_claim_1_needs_the_post_rejection_rate_at_most_the_better_routine_policy():
    # never accepting, an attending policy under fixed_rate is right at rate r
    scenario = make_scenario(0.5, 0.5, 1.0, Indiscriminate(0.0), Independent(), FIXED_RATE)
    assert exact_accuracy(scenario) == 1 > Fraction(0.5)
    assert evaluate(scenario).p_correct_aided == 1.0


def test_claim_2_perfect_ability_reaches_the_ceiling():
    tie = Fraction(TIE_TOLERANCE)
    perfect = [(Discriminating(1.0, 0.0), CONDITIONAL_FROM_JOINT)]
    perfect += [(SelfGated(1.0, 1.0), mode) for mode in DEGRADATION_MODES]
    cases = 0
    for p_a, p_u, dependency in grid():
        aid, user = AidProfile(p_a), UserProfile(p_u, 0.3)
        a, u = Fraction(p_a), Fraction(p_u)
        ceiling = a + u - exact_both_correct(a, u, dependency)
        case = (p_a, p_u, dependency)
        assert abs(potential_combined(aid, user, dependency) - ceiling) <= EXACT, case
        for policy, mode in perfect:
            scenario = make_scenario(p_a, p_u, 0.3, policy, dependency, mode)
            assert exact_accuracy(scenario) == ceiling, (*case, policy, mode)
            assert abs(evaluate(scenario).p_correct_aided - ceiling) <= EXACT, (*case, policy, mode)
        # break-even's d = 1 is the ceiling: attainable exactly when it meets the target
        target = Fraction(max(p_a, p_u))
        if not 0 < abs(ceiling - target) <= tie:  # either verdict is right within a tie
            attainable = breakeven_discrimination(aid, user, dependency, CONDITIONAL_FROM_JOINT).attainable
            assert attainable == (ceiling >= target), case
        cases += 1
    assert cases == 369
