"""Sweeps, reference-line crossings, and exact sensitivities."""

import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from reliance import analytic, model, sweep
from reliance.cli import MAX_STEPS
from reliance.analytic import (
    evaluate,
    free_parameters,
)
from reliance.model import (
    DegradedRateWarning,
    Discriminating,
    Dominant,
    Independent,
    Indiscriminate,
    Joint,
    RoutineAccept,
    RoutineIgnore,
    ScenarioValidationError,
    SelfGated,
    _clamped,
    _grid_leaves,
    frechet_bounds,
    scenario_to_dict,
    validate_scenario,
)
from reliance.sweep import (
    SweepError,
    SweepSeries,
    SweepSpec,
    find_reference_crossing,
    run_sweep,
    sensitivity,
)

from conftest import (
    BASE_RAW,
    COMBOS,
    FD_STEP,
    assert_clamps_alike,
    exact_accuracy,
    loaded_after,
    make_scenario,
    perturbed_scenario,
    random_scenario,
    read_back,
    replace,
)

EXACT = 1e-12

# --- golden sweeps -----------------------------------------------------------
#
# One 7-point sweep per policy x dependency x mode x applicable leaf of the
# conftest worked scenario (advisor .7, user .6, degraded .4, joint .45).
# The grids stay inside the valid domain and keep the degraded rate at or
# below the unaided one (no warning); the joint and dominant ranges end
# on the Frechet or dominance bound, where validation slack and clamping act.
# Values are the repr of every accuracy, computed by the per-point
# validate-then-evaluate sweep and pinned so any rewrite keeps every bit.

GOLDEN_POLICIES = {
    "routine_accept": RoutineAccept(),
    "routine_ignore": RoutineIgnore(),
    "indiscriminate": Indiscriminate(0.5),
    "discriminating": Discriminating(0.7, 0.3),
    "self_gated": SelfGated(0.7, 0.7),
}
GOLDEN_DEPENDENCIES = {"independent": Independent(), "joint": Joint(0.45), "dominant": Dominant()}
GOLDEN_RANGES = {
    "user.p_unaided_correct": (0.4, 1.0),
    "user.p_post_reject_correct": (0.0, 0.6),
    ("joint", "aid.p_advice_correct"): (0.45, 0.85),
    ("joint", "user.p_unaided_correct"): (0.45, 0.75),
    ("joint", "dependency.p_both_correct"): (0.3, 0.6),
    ("dominant", "aid.p_advice_correct"): (0.6, 1.0),
    ("dominant", "user.p_unaided_correct"): (0.4, 0.7),
}


def leaf_paths(scenario):
    """Dot-paths of every probability leaf the scenario has."""
    return [
        f"{section}.{key}"
        for section, fields in scenario_to_dict(scenario).items()
        if isinstance(fields, dict)
        for key in fields
        if key != "type"
    ]


def golden_sweep_specs():
    """(key, SweepSpec) for every golden sweep, in a fixed order."""
    for policy_name, policy in GOLDEN_POLICIES.items():
        for dep_name, dependency in GOLDEN_DEPENDENCIES.items():
            for mode in ("fixed_rate", "conditional_from_joint"):
                scenario = make_scenario(policy=policy, dependency=dependency, mode=mode)
                for path in leaf_paths(scenario):
                    start, stop = GOLDEN_RANGES.get(
                        (dep_name, path), GOLDEN_RANGES.get(path, (0.0, 1.0))
                    )
                    yield (
                        f"{policy_name} {dep_name} {mode} {path}",
                        SweepSpec(scenario, path, start, stop, 7),
                    )


def golden_crossing_specs():
    """Six crossing searches over different policies, leaves and grid widths."""
    return [
        SweepSpec(make_scenario(), "policy.p_accept", 0.0, 1.0, 11),
        SweepSpec(make_scenario(p_a=0.7, p_u=0.55, r=0.4), "policy.p_accept", 0.0, 1.0, 11),
        SweepSpec(
            make_scenario(policy=Discriminating(0.7, 0.3), dependency=Joint(0.45)),
            "policy.p_accept_given_correct", 0.0, 1.0, 101,
        ),
        SweepSpec(make_scenario(policy=SelfGated(0.7, 0.7)), "aid.p_advice_correct", 0.0, 1.0, 101),
        SweepSpec(
            make_scenario(policy=Discriminating(0.7, 0.3), dependency=Dominant(), mode="fixed_rate"),
            "user.p_post_reject_correct", 0.0, 0.6, 13,
        ),
        SweepSpec(
            make_scenario(p_u=0.65, dependency=Joint(0.5), mode="conditional_from_joint"),
            "aid.p_advice_correct", 0.5, 0.85, 29,
        ),
    ]


GOLDEN_ACCURACIES = {
    "routine_accept independent fixed_rate aid.p_advice_correct":
        "0.0 0.16666666666666666 0.3333333333333333 0.5 0.6666666666666666 0.8333333333333333 1.0",
    "routine_accept independent fixed_rate user.p_unaided_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept independent fixed_rate user.p_post_reject_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept independent conditional_from_joint aid.p_advice_correct":
        "0.0 0.16666666666666666 0.3333333333333333 0.5 0.6666666666666666 0.8333333333333333 1.0",
    "routine_accept independent conditional_from_joint user.p_unaided_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept independent conditional_from_joint user.p_post_reject_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept joint fixed_rate aid.p_advice_correct":
        "0.45 0.5166666666666667 0.5833333333333334 0.65 0.7166666666666667 0.7833333333333333 0.8500000000000001",
    "routine_accept joint fixed_rate user.p_unaided_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept joint fixed_rate user.p_post_reject_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept joint fixed_rate dependency.p_both_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept joint conditional_from_joint aid.p_advice_correct":
        "0.45 0.5166666666666667 0.5833333333333334 0.65 0.7166666666666667 0.7833333333333333 0.8500000000000001",
    "routine_accept joint conditional_from_joint user.p_unaided_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept joint conditional_from_joint user.p_post_reject_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept joint conditional_from_joint dependency.p_both_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept dominant fixed_rate aid.p_advice_correct":
        "0.6 0.6666666666666666 0.7333333333333333 0.8 0.8666666666666667 0.9333333333333333 1.0",
    "routine_accept dominant fixed_rate user.p_unaided_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept dominant fixed_rate user.p_post_reject_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept dominant conditional_from_joint aid.p_advice_correct":
        "0.6 0.6666666666666666 0.7333333333333333 0.8 0.8666666666666667 0.9333333333333333 1.0",
    "routine_accept dominant conditional_from_joint user.p_unaided_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_accept dominant conditional_from_joint user.p_post_reject_correct":
        "0.7 0.7 0.7 0.7 0.7 0.7 0.7",
    "routine_ignore independent fixed_rate aid.p_advice_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore independent fixed_rate user.p_unaided_correct":
        "0.4 0.5 0.6 0.7 0.8 0.8999999999999999 1.0",
    "routine_ignore independent fixed_rate user.p_post_reject_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore independent conditional_from_joint aid.p_advice_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore independent conditional_from_joint user.p_unaided_correct":
        "0.4 0.5 0.6 0.7 0.8 0.8999999999999999 1.0",
    "routine_ignore independent conditional_from_joint user.p_post_reject_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore joint fixed_rate aid.p_advice_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore joint fixed_rate user.p_unaided_correct":
        "0.45 0.5 0.55 0.6 0.65 0.7 0.75",
    "routine_ignore joint fixed_rate user.p_post_reject_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore joint fixed_rate dependency.p_both_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore joint conditional_from_joint aid.p_advice_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore joint conditional_from_joint user.p_unaided_correct":
        "0.45 0.5 0.55 0.6 0.65 0.7 0.75",
    "routine_ignore joint conditional_from_joint user.p_post_reject_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore joint conditional_from_joint dependency.p_both_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore dominant fixed_rate aid.p_advice_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore dominant fixed_rate user.p_unaided_correct":
        "0.4 0.45 0.5 0.55 0.6 0.6499999999999999 0.7",
    "routine_ignore dominant fixed_rate user.p_post_reject_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore dominant conditional_from_joint aid.p_advice_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "routine_ignore dominant conditional_from_joint user.p_unaided_correct":
        "0.4 0.45 0.5 0.55 0.6 0.6499999999999999 0.7",
    "routine_ignore dominant conditional_from_joint user.p_post_reject_correct":
        "0.6 0.6 0.6 0.6 0.6 0.6 0.6",
    "indiscriminate independent fixed_rate aid.p_advice_correct":
        "0.2 0.2833333333333333 0.3666666666666667 0.44999999999999996 0.5333333333333333 0.6166666666666666 0.7",
    "indiscriminate independent fixed_rate user.p_unaided_correct":
        "0.55 0.55 0.55 0.55 0.55 0.55 0.55",
    "indiscriminate independent fixed_rate user.p_post_reject_correct":
        "0.35 0.39999999999999997 0.45 0.49999999999999994 0.55 0.5999999999999999 0.6499999999999999",
    "indiscriminate independent fixed_rate policy.p_accept":
        "0.4 0.45 0.5 0.55 0.6 0.6499999999999999 0.7",
    "indiscriminate independent conditional_from_joint aid.p_advice_correct":
        "0.3 0.3833333333333333 0.4666666666666667 0.55 0.6333333333333333 0.7166666666666667 0.8",
    "indiscriminate independent conditional_from_joint user.p_unaided_correct":
        "0.55 0.5999999999999999 0.6499999999999999 0.7 0.75 0.7999999999999999 0.85",
    "indiscriminate independent conditional_from_joint user.p_post_reject_correct":
        "0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999",
    "indiscriminate independent conditional_from_joint policy.p_accept":
        "0.6 0.6166666666666666 0.6333333333333333 0.6499999999999999 0.6666666666666667 0.6833333333333333 0.7",
    "indiscriminate joint fixed_rate aid.p_advice_correct":
        "0.42500000000000004 0.45833333333333337 0.4916666666666667 0.525 0.5583333333333333 0.5916666666666667 0.6250000000000001",
    "indiscriminate joint fixed_rate user.p_unaided_correct":
        "0.55 0.55 0.55 0.55 0.55 0.55 0.55",
    "indiscriminate joint fixed_rate user.p_post_reject_correct":
        "0.35 0.39999999999999997 0.45 0.49999999999999994 0.55 0.5999999999999999 0.6499999999999999",
    "indiscriminate joint fixed_rate policy.p_accept":
        "0.4 0.45 0.5 0.55 0.6 0.6499999999999999 0.7",
    "indiscriminate joint fixed_rate dependency.p_both_correct":
        "0.55 0.55 0.55 0.55 0.55 0.55 0.55",
    "indiscriminate joint conditional_from_joint aid.p_advice_correct":
        "0.525 0.5583333333333333 0.5916666666666667 0.625 0.6583333333333333 0.6916666666666667 0.7250000000000001",
    "indiscriminate joint conditional_from_joint user.p_unaided_correct":
        "0.575 0.6 0.625 0.6499999999999999 0.6749999999999999 0.7 0.725",
    "indiscriminate joint conditional_from_joint user.p_post_reject_correct":
        "0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999",
    "indiscriminate joint conditional_from_joint policy.p_accept":
        "0.6 0.6166666666666666 0.6333333333333333 0.6499999999999999 0.6666666666666667 0.6833333333333333 0.7",
    "indiscriminate joint conditional_from_joint dependency.p_both_correct":
        "0.65 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.65 0.6499999999999999",
    "indiscriminate dominant fixed_rate aid.p_advice_correct":
        "0.5 0.5333333333333333 0.5666666666666667 0.6000000000000001 0.6333333333333333 0.6666666666666666 0.7",
    "indiscriminate dominant fixed_rate user.p_unaided_correct":
        "0.55 0.55 0.55 0.55 0.55 0.55 0.55",
    "indiscriminate dominant fixed_rate user.p_post_reject_correct":
        "0.35 0.39999999999999997 0.45 0.49999999999999994 0.55 0.5999999999999999 0.6499999999999999",
    "indiscriminate dominant fixed_rate policy.p_accept":
        "0.4 0.45 0.5 0.55 0.6 0.6499999999999999 0.7",
    "indiscriminate dominant conditional_from_joint aid.p_advice_correct":
        "0.6 0.6333333333333333 0.6666666666666666 0.7 0.7333333333333334 0.7666666666666666 0.8",
    "indiscriminate dominant conditional_from_joint user.p_unaided_correct":
        "0.55 0.575 0.6 0.625 0.6499999999999999 0.6749999999999999 0.7",
    "indiscriminate dominant conditional_from_joint user.p_post_reject_correct":
        "0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999 0.6499999999999999",
    "indiscriminate dominant conditional_from_joint policy.p_accept":
        "0.6 0.6166666666666667 0.6333333333333333 0.6499999999999999 0.6666666666666666 0.6833333333333333 0.7",
    "discriminating independent fixed_rate aid.p_advice_correct":
        "0.27999999999999997 0.37 0.46 0.5499999999999999 0.64 0.7299999999999999 0.82",
    "discriminating independent fixed_rate user.p_unaided_correct":
        "0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999",
    "discriminating independent fixed_rate user.p_post_reject_correct":
        "0.48999999999999994 0.5319999999999999 0.574 0.6159999999999999 0.6579999999999999 0.7 0.7419999999999999",
    "discriminating independent fixed_rate policy.p_accept_given_correct":
        "0.364 0.434 0.504 0.574 0.6439999999999999 0.7139999999999999 0.7839999999999999",
    "discriminating independent fixed_rate policy.p_accept_given_wrong":
        "0.694 0.6739999999999999 0.654 0.634 0.614 0.594 0.574",
    "discriminating independent conditional_from_joint aid.p_advice_correct":
        "0.42 0.49666666666666665 0.5733333333333333 0.65 0.7266666666666667 0.8033333333333333 0.88",
    "discriminating independent conditional_from_joint user.p_unaided_correct":
        "0.658 0.7 0.7419999999999999 0.7839999999999999 0.826 0.8679999999999999 0.9099999999999999",
    "discriminating independent conditional_from_joint user.p_post_reject_correct":
        "0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999",
    "discriminating independent conditional_from_joint policy.p_accept_given_correct":
        "0.546 0.5926666666666667 0.6393333333333333 0.6859999999999999 0.7326666666666667 0.7793333333333333 0.826",
    "discriminating independent conditional_from_joint policy.p_accept_given_wrong":
        "0.7959999999999998 0.7659999999999999 0.7359999999999999 0.7059999999999998 0.6759999999999999 0.6459999999999999 0.6159999999999999",
    "discriminating joint fixed_rate aid.p_advice_correct":
        "0.523 0.559 0.595 0.6309999999999999 0.6669999999999999 0.703 0.739",
    "discriminating joint fixed_rate user.p_unaided_correct":
        "0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999",
    "discriminating joint fixed_rate user.p_post_reject_correct":
        "0.48999999999999994 0.5319999999999999 0.574 0.6159999999999999 0.6579999999999999 0.7 0.7419999999999999",
    "discriminating joint fixed_rate policy.p_accept_given_correct":
        "0.364 0.434 0.504 0.574 0.6439999999999999 0.7139999999999999 0.7839999999999999",
    "discriminating joint fixed_rate policy.p_accept_given_wrong":
        "0.694 0.6739999999999999 0.654 0.634 0.614 0.594 0.574",
    "discriminating joint fixed_rate dependency.p_both_correct":
        "0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999",
    "discriminating joint conditional_from_joint aid.p_advice_correct":
        "0.555 0.6016666666666667 0.6483333333333333 0.695 0.7416666666666666 0.7883333333333333 0.8349999999999999",
    "discriminating joint conditional_from_joint user.p_unaided_correct":
        "0.625 0.66 0.6950000000000001 0.73 0.765 0.7999999999999999 0.835",
    "discriminating joint conditional_from_joint user.p_post_reject_correct":
        "0.73 0.73 0.73 0.73 0.73 0.73 0.73",
    "discriminating joint conditional_from_joint policy.p_accept_given_correct":
        "0.5549999999999999 0.5966666666666666 0.6383333333333333 0.6799999999999999 0.7216666666666667 0.7633333333333333 0.8049999999999999",
    "discriminating joint conditional_from_joint policy.p_accept_given_wrong":
        "0.7749999999999999 0.75 0.725 0.7 0.675 0.65 0.625",
    "discriminating joint conditional_from_joint dependency.p_both_correct":
        "0.7899999999999999 0.77 0.75 0.73 0.7099999999999999 0.69 0.6699999999999999",
    "discriminating dominant fixed_rate aid.p_advice_correct":
        "0.604 0.64 0.6759999999999999 0.7119999999999999 0.748 0.7839999999999999 0.82",
    "discriminating dominant fixed_rate user.p_unaided_correct":
        "0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999 0.6579999999999999",
    "discriminating dominant fixed_rate user.p_post_reject_correct":
        "0.48999999999999994 0.5319999999999999 0.574 0.6159999999999999 0.6579999999999999 0.7 0.7419999999999999",
    "discriminating dominant fixed_rate policy.p_accept_given_correct":
        "0.364 0.434 0.504 0.574 0.6439999999999999 0.7139999999999999 0.7839999999999999",
    "discriminating dominant fixed_rate policy.p_accept_given_wrong":
        "0.694 0.6739999999999999 0.654 0.634 0.614 0.594 0.574",
    "discriminating dominant conditional_from_joint aid.p_advice_correct":
        "0.6 0.6466666666666666 0.6933333333333334 0.74 0.7866666666666667 0.8333333333333334 0.88",
    "discriminating dominant conditional_from_joint user.p_unaided_correct":
        "0.61 0.625 0.6399999999999999 0.655 0.6699999999999999 0.6849999999999999 0.7",
    "discriminating dominant conditional_from_joint user.p_post_reject_correct":
        "0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999",
    "discriminating dominant conditional_from_joint policy.p_accept_given_correct":
        "0.6 0.6166666666666667 0.6333333333333333 0.6499999999999999 0.6666666666666666 0.6833333333333333 0.7",
    "discriminating dominant conditional_from_joint policy.p_accept_given_wrong":
        "0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999",
    "self_gated independent fixed_rate aid.p_advice_correct":
        "0.42 0.49666666666666665 0.5733333333333333 0.6499999999999999 0.7266666666666667 0.8033333333333332 0.8799999999999999",
    "self_gated independent fixed_rate user.p_unaided_correct":
        "0.658 0.7 0.7419999999999999 0.7839999999999999 0.826 0.8679999999999999 0.9099999999999999",
    "self_gated independent fixed_rate user.p_post_reject_correct":
        "0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999",
    "self_gated independent fixed_rate policy.p_ignore_given_user_correct":
        "0.616 0.6459999999999999 0.6759999999999999 0.706 0.7359999999999999 0.766 0.796",
    "self_gated independent fixed_rate policy.p_use_given_user_wrong":
        "0.546 0.5926666666666667 0.6393333333333333 0.686 0.7326666666666667 0.7793333333333333 0.826",
    "self_gated independent conditional_from_joint aid.p_advice_correct":
        "0.42 0.49666666666666665 0.5733333333333333 0.6499999999999999 0.7266666666666667 0.8033333333333332 0.8799999999999999",
    "self_gated independent conditional_from_joint user.p_unaided_correct":
        "0.658 0.7 0.7419999999999999 0.7839999999999999 0.826 0.8679999999999999 0.9099999999999999",
    "self_gated independent conditional_from_joint user.p_post_reject_correct":
        "0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999 0.7419999999999999",
    "self_gated independent conditional_from_joint policy.p_ignore_given_user_correct":
        "0.616 0.6459999999999999 0.6759999999999999 0.706 0.7359999999999999 0.766 0.796",
    "self_gated independent conditional_from_joint policy.p_use_given_user_wrong":
        "0.546 0.5926666666666667 0.6393333333333333 0.686 0.7326666666666667 0.7793333333333333 0.826",
    "self_gated joint fixed_rate aid.p_advice_correct":
        "0.555 0.6016666666666667 0.6483333333333334 0.6950000000000001 0.7416666666666667 0.7883333333333333 0.835",
    "self_gated joint fixed_rate user.p_unaided_correct":
        "0.625 0.66 0.6950000000000001 0.73 0.765 0.7999999999999999 0.835",
    "self_gated joint fixed_rate user.p_post_reject_correct":
        "0.73 0.73 0.73 0.73 0.73 0.73 0.73",
    "self_gated joint fixed_rate policy.p_ignore_given_user_correct":
        "0.625 0.6499999999999999 0.675 0.7 0.725 0.75 0.7749999999999999",
    "self_gated joint fixed_rate policy.p_use_given_user_wrong":
        "0.555 0.5966666666666667 0.6383333333333333 0.6799999999999999 0.7216666666666667 0.7633333333333332 0.8049999999999999",
    "self_gated joint fixed_rate dependency.p_both_correct":
        "0.7899999999999999 0.77 0.75 0.73 0.7099999999999999 0.6900000000000001 0.6699999999999999",
    "self_gated joint conditional_from_joint aid.p_advice_correct":
        "0.555 0.6016666666666667 0.6483333333333334 0.6950000000000001 0.7416666666666667 0.7883333333333333 0.835",
    "self_gated joint conditional_from_joint user.p_unaided_correct":
        "0.625 0.66 0.6950000000000001 0.73 0.765 0.7999999999999999 0.835",
    "self_gated joint conditional_from_joint user.p_post_reject_correct":
        "0.73 0.73 0.73 0.73 0.73 0.73 0.73",
    "self_gated joint conditional_from_joint policy.p_ignore_given_user_correct":
        "0.625 0.6499999999999999 0.675 0.7 0.725 0.75 0.7749999999999999",
    "self_gated joint conditional_from_joint policy.p_use_given_user_wrong":
        "0.555 0.5966666666666667 0.6383333333333333 0.6799999999999999 0.7216666666666667 0.7633333333333332 0.8049999999999999",
    "self_gated joint conditional_from_joint dependency.p_both_correct":
        "0.7899999999999999 0.77 0.75 0.73 0.7099999999999999 0.6900000000000001 0.6699999999999999",
    "self_gated dominant fixed_rate aid.p_advice_correct":
        "0.6 0.6466666666666667 0.6933333333333334 0.74 0.7866666666666666 0.8333333333333333 0.8799999999999999",
    "self_gated dominant fixed_rate user.p_unaided_correct":
        "0.6099999999999999 0.625 0.6399999999999999 0.655 0.6699999999999999 0.6849999999999999 0.7",
    "self_gated dominant fixed_rate user.p_post_reject_correct":
        "0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999",
    "self_gated dominant fixed_rate policy.p_ignore_given_user_correct":
        "0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999",
    "self_gated dominant fixed_rate policy.p_use_given_user_wrong":
        "0.6 0.6166666666666667 0.6333333333333333 0.65 0.6666666666666666 0.6833333333333333 0.7",
    "self_gated dominant conditional_from_joint aid.p_advice_correct":
        "0.6 0.6466666666666667 0.6933333333333334 0.74 0.7866666666666666 0.8333333333333333 0.8799999999999999",
    "self_gated dominant conditional_from_joint user.p_unaided_correct":
        "0.6099999999999999 0.625 0.6399999999999999 0.655 0.6699999999999999 0.6849999999999999 0.7",
    "self_gated dominant conditional_from_joint user.p_post_reject_correct":
        "0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999",
    "self_gated dominant conditional_from_joint policy.p_ignore_given_user_correct":
        "0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999 0.6699999999999999",
    "self_gated dominant conditional_from_joint policy.p_use_given_user_wrong":
        "0.6 0.6166666666666667 0.6333333333333333 0.65 0.6666666666666666 0.6833333333333333 0.7",
}

GOLDEN_CROSSINGS = [
    "0.6666666666666666",
    "0.5000000000000002",
    "0.18000000000000016",
    "0.39130434782608703",
    "0.2619047619047621",
    "0.6500000000000001",
]


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

    @pytest.mark.parametrize(
        "start,stop", [(0, 1), (Fraction(1, 3), np.float32(0.7))], ids=["int", "fraction-float32"]
    )
    def test_bounds_are_kept_as_floats(self, base_scenario, start, stop):
        spec = SweepSpec(base_scenario, "policy.p_accept", start, stop, 5)
        assert (type(spec.start), type(spec.stop)) == (float, float)
        assert spec == SweepSpec(base_scenario, "policy.p_accept", float(start), float(stop), 5)

    def test_once_numpy_is_loaded_a_small_grid_is_one_array_pass(self, base_scenario, monkeypatch):
        # this process has loaded numpy, so a 3-point grid skips the float loop
        swept, form = [], sweep._form

        def counting_form(*key):
            def counted(leaves):
                swept.append(leaves["policy.p_accept"])
                return form(*key)(leaves)

            return counted

        monkeypatch.setattr(sweep, "_form", counting_form)
        run_sweep(SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 3))
        assert "numpy" in sys.modules
        assert [value.tolist() for value in swept] == [[0.0, 0.5, 1.0]]

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

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3", None])
    def test_steps_that_are_no_integer_rejected(self, base_scenario, steps):
        with pytest.raises(SweepError, match=f"^steps must be an integer, got {steps!r}$"):
            SweepSpec(base_scenario, "policy.p_accept", 0.0, 0.5, steps)

    def test_numpy_integer_steps_accepted(self, base_scenario):
        spec = SweepSpec(base_scenario, "policy.p_accept", 0.0, 0.5, np.int64(3))
        assert spec.grid() == [0.0, 0.25, 0.5]

    def test_a_valid_sweep_screens_only_its_two_ends(self, base_scenario, screened):
        for steps in 2, 3, 10_001, np.int64(10_001):
            spec = SweepSpec(base_scenario, "policy.p_accept", 0.1, 0.9, steps)
            screened.clear()
            series = run_sweep(spec)
            find_reference_crossing(spec)
            assert screened == [{0, steps - 1}] * 2
            assert series.parameter_values == tuple(spec.grid())

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

    def test_series_lengths_must_match(self, base_scenario):
        data = run_sweep(SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 5)).to_dict()
        data["accuracies"].pop()
        with pytest.raises(ValueError, match="equal length"):
            SweepSeries.from_dict(data)


GOLDEN_SPECS = dict(golden_sweep_specs())


class TestGoldenSweeps:
    @pytest.mark.parametrize("key", list(GOLDEN_SPECS))
    def test_accuracies_are_bit_identical(self, key):
        series = run_sweep(GOLDEN_SPECS[key])
        assert " ".join(map(repr, series.accuracies)) == GOLDEN_ACCURACIES[key]

    def test_every_case_is_pinned(self):
        assert list(GOLDEN_SPECS) == list(GOLDEN_ACCURACIES)

    def test_crossings_are_bit_identical(self):
        found = [find_reference_crossing(spec) for spec in golden_crossing_specs()]
        assert list(map(repr, found)) == GOLDEN_CROSSINGS


# --- differential check of the array sweep against the per-point loop -------

SLACK = 0.5e-9  # inside the 1e-9 bound tolerance
# the clamp's own end points -1e-12 and 1 + 1e-12 included
EDGE_VALUES = (0.0, -0.0, 1.0, 1e-300, 0.5, -5e-13, 1.0 + 5e-13, -1e-12, 1.0 + 1e-12, 1.0 - 2.0**-53)


def per_point_scan(spec):
    """The reference: grid by loop, then validate every point in order.

    Returns (grid, scenarios), or the index of the first invalid grid value
    and the SweepError message it must produce.
    """
    width = (spec.stop - spec.start) / (spec.steps - 1)
    grid = [spec.start + i * width for i in range(spec.steps)]
    section, key = spec.parameter_path.split(".")
    scenarios = []
    for i, value in enumerate(grid):
        raw = scenario_to_dict(spec.base)
        raw[section][key] = value
        try:
            scenarios.append(validate_scenario(raw))
        except ScenarioValidationError as err:
            return i, f"swept value {value!r} for {spec.parameter_path!r} is invalid: {err}"
    return grid, scenarios


def per_point_sweep(spec):
    """Evaluate each point of `per_point_scan`: (grid, accuracies), or the
    SweepError message the first invalid grid value must produce."""
    first, rest = per_point_scan(spec)
    if isinstance(first, int):
        return rest
    return first, [evaluate(s).p_correct_aided for s in rest]


def assert_matches_per_point(spec):
    expected = per_point_sweep(spec)
    if isinstance(expected, str):
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value) == expected
        return False
    series = run_sweep(spec)
    grid, accuracies = expected
    assert list(map(repr, series.parameter_values)) == list(map(repr, grid))
    assert list(map(repr, series.accuracies)) == list(map(repr, accuracies)), spec
    assert read_back(series) == series  # built without the value rules, which only `from_dict` runs
    return True


def edge_value(rng, bounds=()):
    """An edge value, a bound of the swept leaf, or a uniform draw."""
    pool = EDGE_VALUES + tuple(bounds)
    if rng.uniform() < 0.6:
        return pool[rng.integers(len(pool))]
    return rng.uniform(0.0, 1.0)


def leaf_bounds(scenario, path):
    """Where validity of the swept leaf ends: exactly, inside and past the slack."""
    p_a = scenario.aid.p_advice_correct
    p_u = scenario.user.p_unaided_correct
    dependency = scenario.dependency
    ends = []
    if isinstance(dependency, Joint):
        p11 = dependency.p_both_correct
        ends = {
            "dependency.p_both_correct": frechet_bounds(p_a, p_u),
            "aid.p_advice_correct": (p11, 1.0 - p_u + p11),
            "user.p_unaided_correct": (p11, 1.0 - p_a + p11),
        }.get(path, ())
    elif isinstance(dependency, Dominant):
        ends = {"aid.p_advice_correct": (p_u,), "user.p_unaided_correct": (p_a,)}.get(path, ())
    return [v + d for v in ends for d in (0.0, -SLACK, SLACK, -3 * SLACK, 3 * SLACK)]


def random_edge_scenario(rng):
    """A valid scenario built from edge values, with any policy and dependency."""
    while True:
        p_a = edge_value(rng)
        p_u = edge_value(rng)
        kind = ("independent", "joint", "dominant")[rng.integers(3)]
        if kind == "dominant":
            p_u = min(p_u, p_a + (SLACK if rng.uniform() < 0.3 else 0.0))
        raw = {
            "aid": {"p_advice_correct": p_a},
            "user": {"p_unaided_correct": p_u, "p_post_reject_correct": edge_value(rng)},
            "policy": scenario_to_dict(make_scenario(policy=random_policy_at_edges(rng)))["policy"],
            "dependency": {"type": kind},
            "degradation_mode": ("fixed_rate", "conditional_from_joint")[rng.integers(2)],
        }
        if kind == "joint":
            lo, hi = frechet_bounds(min(max(p_a, 0.0), 1.0), min(max(p_u, 0.0), 1.0))
            raw["dependency"]["p_both_correct"] = edge_value(rng, (lo, hi, lo - SLACK, hi + SLACK))
        try:
            return validate_scenario(raw)
        except ScenarioValidationError:
            continue


def random_policy_at_edges(rng):
    kind = rng.integers(5)
    if kind == 0:
        return RoutineAccept()
    if kind == 1:
        return RoutineIgnore()
    if kind == 2:
        return Indiscriminate(min(max(edge_value(rng), 0.0), 1.0))
    a, b = (min(max(edge_value(rng), 0.0), 1.0) for _ in range(2))
    return Discriminating(a, b) if kind == 3 else SelfGated(a, b)


@pytest.mark.usefixtures("either_sweep_path")
class TestEitherPathMatchesPerPoint:
    def test_random_scenarios(self):
        rng = np.random.default_rng(401)
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedRateWarning)
            for _ in range(300):
                scenario = random_scenario(rng, explicit_mode=True)
                paths = leaf_paths(scenario)
                path = paths[rng.integers(len(paths))]
                start, stop = map(float, rng.uniform(-0.05, 1.05, 2))
                outcomes.append(assert_matches_per_point(
                    SweepSpec(scenario, path, start, stop, int(rng.integers(2, 40)))
                ))
        # both the evaluated and the rejected path were exercised
        assert outcomes.count(True) > 50 and outcomes.count(False) > 50

    def test_edge_values_and_slack(self):
        rng = np.random.default_rng(402)
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedRateWarning)
            for _ in range(1500):
                scenario = random_edge_scenario(rng)
                paths = leaf_paths(scenario)
                path = paths[rng.integers(len(paths))]
                bounds = leaf_bounds(scenario, path)
                start, stop = edge_value(rng, bounds), edge_value(rng, bounds)
                outcomes.append(assert_matches_per_point(
                    SweepSpec(scenario, path, start, stop, int(rng.integers(2, 9)))
                ))
        assert outcomes.count(True) > 1000 and outcomes.count(False) > 200

    @pytest.mark.parametrize(
        "start,stop",
        [(-5e-13, 1.0 + 5e-13), (1.0 + 9e-13, -9e-13), (-0.0, -5e-13), (0.0, 1e-300), (1e-300, 1.0)],
    )
    def test_grids_at_the_clamp(self, start, stop):
        for policy in GOLDEN_POLICIES.values():
            for leaf in ("aid.p_advice_correct", "user.p_unaided_correct"):
                scenario = make_scenario(p_u=0.0, r=0.0, policy=policy)
                assert assert_matches_per_point(SweepSpec(scenario, leaf, start, stop, 5))

    @pytest.mark.parametrize("dependency", ["independent", "joint", "dominant"])
    def test_signed_zero_marginals(self, dependency):
        # ties between 0.0 and -0.0 in min and max keep the first argument,
        # which decides the sign of a zero accuracy
        policies = [
            RoutineAccept(),
            RoutineIgnore(),
            Indiscriminate(0.5),
            Discriminating(0.7, -0.0),
            SelfGated(-0.0, 0.5),
        ]
        for p_a, p_u, r, p11 in itertools.product((0.0, -0.0), repeat=4):
            for policy, mode in itertools.product(policies, ("fixed_rate", "conditional_from_joint")):
                raw = {
                    "aid": {"p_advice_correct": p_a},
                    "user": {"p_unaided_correct": p_u, "p_post_reject_correct": r},
                    "policy": scenario_to_dict(make_scenario(policy=policy))["policy"],
                    "dependency": {"type": dependency},
                    "degradation_mode": mode,
                }
                if dependency == "joint":
                    raw["dependency"]["p_both_correct"] = p11
                scenario = validate_scenario(raw)
                for path in ("aid.p_advice_correct", "user.p_unaided_correct"):
                    assert assert_matches_per_point(SweepSpec(scenario, path, -0.0, -5e-13, 3))

    def test_negative_zero_survives(self):
        scenario = make_scenario(policy=RoutineAccept())
        series = run_sweep(SweepSpec(scenario, "aid.p_advice_correct", -0.0, -5e-13, 3))
        assert repr(series.accuracies[0]) == "-0.0"
        assert_matches_per_point(SweepSpec(scenario, "aid.p_advice_correct", -0.0, -5e-13, 3))

    @pytest.mark.parametrize(
        "spec_args,message",
        [
            (
                (Joint(0.42), None, "dependency.p_both_correct", 0.0, 0.6, 7),
                "swept value 0.0 for 'dependency.p_both_correct' is invalid: invalid scenario:\n"
                "  dependency.p_both_correct: 0.0 not in [0.3, 0.6] "
                "(Frechet-Hoeffding bounds for the given marginals)",
            ),
            (
                (Dominant(), SelfGated(0.8, 0.3), "aid.p_advice_correct", 1.0, 0.0, 5),
                "swept value 0.5 for 'aid.p_advice_correct' is invalid: invalid scenario:\n"
                "  dependency: 'p_advice_correct=0.5 < p_unaided_correct=0.6' not in "
                "p_advice_correct >= p_unaided_correct "
                "(a uniformly dominant advisor must solve everything the user would)",
            ),
            (
                (None, None, "policy.p_accept", -1e-12, 1.0 + 1.5e-12, 3),
                "swept value 1.0000000000015 for 'policy.p_accept' is invalid: invalid scenario:\n"
                "  policy.p_accept: 1.0000000000015 not in [0, 1]",
            ),
        ],
    )
    def test_invalid_grid_message_is_word_for_word(self, spec_args, message):
        dependency, policy, path, start, stop, steps = spec_args
        scenario = make_scenario(policy=policy, dependency=dependency)
        with pytest.raises(SweepError) as info:
            run_sweep(SweepSpec(scenario, path, start, stop, steps))
        assert str(info.value) == message


def sweep_outcome(spec):
    """`run_sweep(spec)` as bits: the float bits of its values and accuracies,
    or its SweepError text, then each warning's category, text, file and line."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            series = run_sweep(spec)
            result = float_bits(series.parameter_values), float_bits(series.accuracies)
        except SweepError as err:
            result = str(err)
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in record]


class TestFloatPathMatchesArrayPath:
    # -0.0, the clamp's two ends, a midpoint, and ends given as a Fraction and
    # as a float32; each leaf's Frechet or dominance bounds, with and without
    # slack, are added per leaf
    ENDS = (-0.0, -1e-12, 1.0 + 1e-12, 0.5, Fraction(1, 3), np.float32(0.1))

    def test_every_policy_dependency_mode_and_leaf(self, monkeypatch):
        outcomes = {"evaluated": 0, "rejected": 0, "warned": 0}
        cases = itertools.product(
            GOLDEN_POLICIES.values(), GOLDEN_DEPENDENCIES.values(), ("fixed_rate", "conditional_from_joint")
        )
        k = 0
        for policy, dependency, mode in cases:
            scenario = make_scenario(policy=policy, dependency=dependency, mode=mode)
            for path in leaf_paths(scenario):
                ends = self.ENDS + tuple(leaf_bounds(scenario, path))
                # every ordered pair: ascending and descending grids
                for start, stop in itertools.permutations(ends, 2):
                    k += 1
                    steps = 2 + k % 9
                    spec = SweepSpec(scenario, path, start, stop, np.int64(steps) if k % 4 == 0 else steps)
                    found = []
                    for on_arrays in (False, True):
                        monkeypatch.setattr(sweep, "_on_arrays", lambda steps, on_arrays=on_arrays: on_arrays)
                        found.append(sweep_outcome(spec))
                    assert found[0] == found[1], spec
                    result, warned = found[0]
                    outcomes["rejected" if isinstance(result, str) else "evaluated"] += 1
                    outcomes["warned"] += bool(warned)
                    assert all(filename == __file__ for _, _, filename, _ in warned)
        assert outcomes["evaluated"] > 3000 and outcomes["rejected"] > 3000 and outcomes["warned"] > 300, outcomes


@pytest.mark.usefixtures("either_sweep_path")
class TestSweepWarningsAndErrors:
    def test_post_reject_rate_crossing_unaided_warns(self, base_scenario):
        spec = SweepSpec(base_scenario, "user.p_post_reject_correct", 0.2, 0.8, 7)
        with pytest.warns(DegradedRateWarning):
            run_sweep(spec)

    def test_degraded_point_warns_at_the_callers_line(self, base_scenario):
        spec = SweepSpec(base_scenario, "user.p_post_reject_correct", 0.2, 0.8, 7)
        with pytest.warns(DegradedRateWarning) as record:
            run_sweep(spec)
            find_reference_crossing(spec)
        assert [w.filename for w in record] == [__file__] * 2

    def test_a_degraded_first_end_alone_warns(self, base_scenario):
        # a descending grid: only its first end is degraded
        spec = SweepSpec(base_scenario, "user.p_post_reject_correct", 0.8, 0.2, 7)
        with pytest.warns(DegradedRateWarning) as record:
            run_sweep(spec)
            find_reference_crossing(spec)
        assert [w.filename for w in record] == [__file__] * 2

    def test_a_base_at_its_unaided_rate_warns_once_past_it(self):
        # the base's post-rejection rate equals its unaided rate: it did not
        # warn when built, so the sweep's degraded points warn, once
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRateWarning)
            scenario = make_scenario(r=0.6)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_sweep(SweepSpec(scenario, "user.p_post_reject_correct", 0.4, 0.8, 5))
        assert [w.category for w in record] == [DegradedRateWarning]

    def test_invalid_degraded_point_aborts_without_warning(self):
        # the first grid value, 0.0, is degraded (0.4 > 0.0) and breaks the
        # Frechet bounds: the sweep aborts and warns about nothing
        scenario = make_scenario(dependency=Joint(0.45))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(SweepError, match=r"^swept value 0\.0 for 'user\.p_unaided_correct'"):
                run_sweep(SweepSpec(scenario, "user.p_unaided_correct", 0.0, 1.0, 11))
        assert record == []

    @pytest.mark.parametrize(
        "path,start,stop",
        [("user.p_post_reject_correct", 0.0, 0.6), ("user.p_unaided_correct", 0.4, 1.0)],
    )
    def test_rates_never_above_unaided_do_not_warn(self, base_scenario, path, start, stop):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRateWarning)
            run_sweep(SweepSpec(base_scenario, path, start, stop, 7))

    @pytest.mark.parametrize("dependency", [Joint(0.55), Dominant()], ids=["joint", "dominant"])
    def test_self_gated_under_dependency_sweeps_like_evaluate(self, dependency):
        scenario = make_scenario(p_a=0.7, p_u=0.6, policy=SelfGated(0.8, 0.3), dependency=dependency)
        ranges = {"aid.p_advice_correct": (0.6, 0.7), "user.p_unaided_correct": (0.55, 0.7),
                  "user.p_post_reject_correct": (0.0, 0.55),
                  "dependency.p_both_correct": (0.3, 0.6)}
        for path in leaf_paths(scenario):
            start, stop = ranges.get(path, (0.0, 1.0))
            assert assert_matches_per_point(SweepSpec(scenario, path, start, stop, 5))
        with pytest.raises(SweepError, match="swept value 0.0 for 'aid.p_advice_correct'"):
            run_sweep(SweepSpec(scenario, "aid.p_advice_correct", 0.0, 1.0, 5))

    # an integer past float range is refused as the infinity of its sign
    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
                             ids=["nan", "inf", "-inf", "10**400", "-10**400"])
    @pytest.mark.parametrize("field", ["start", "stop"])
    def test_non_finite_bounds_rejected(self, base_scenario, field, bound):
        bounds = {"start": 0.0, "stop": 1.0, field: bound}
        with pytest.raises(SweepError, match=f"^sweep {field} must be finite, got {bound!r}$"):
            SweepSpec(base_scenario, "policy.p_accept", steps=5, **bounds)

    @pytest.mark.parametrize("bound", ["0.5", None, True])
    @pytest.mark.parametrize("field", ["start", "stop"])
    def test_non_numeric_bounds_rejected(self, base_scenario, field, bound):
        bounds = {"start": 0.0, "stop": 1.0, field: bound}
        with pytest.raises(SweepError, match=f"^sweep {field} must be a number, got {bound!r}$"):
            SweepSpec(base_scenario, "policy.p_accept", steps=5, **bounds)

    def test_overflowing_width_rejected(self, base_scenario):
        with pytest.raises(SweepError, match="overflows"):
            SweepSpec(base_scenario, "policy.p_accept", -1e308, 1e308, 5)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, base_scenario, tol):
        spec = SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 11)
        with pytest.raises(SweepError, match="tol must be finite and > 0"):
            find_reference_crossing(spec, tol=tol)

    def test_gaps_too_small_to_multiply_still_cross(self):
        # gaps of -1e-300 and 2e-300: their product underflows to -0.0
        scenario = make_scenario(p_a=3e-300, p_u=1e-300, r=0.0, mode="fixed_rate")
        spec = SweepSpec(scenario, "policy.p_accept", 0.0, 1.0, 2)
        assert find_reference_crossing(spec) == pytest.approx(1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-12])
    @pytest.mark.parametrize("accept", [(0.7, 0.3), (0.99, 0.01), (0.01, 0.99)])
    def test_a_root_on_a_clamp_is_found_to_half_tol(self, kernel_calls, accept, tol):
        # under dominance the advisor equal to the user scores the user's rate:
        # the root sits on the kink of min(p_a, p_u), with the slack zone below it
        scenario = make_scenario(policy=Discriminating(*accept), dependency=Dominant())
        spec = SweepSpec(scenario, "aid.p_advice_correct", 0.6 - SLACK, 0.6 + 1e-6, 2)
        crossing = find_reference_crossing(spec, tol)
        assert abs(crossing - 0.6) <= 0.5 * tol + 2e-16
        assert 4 < len(kernel_calls) <= call_bound(spec.start, spec.stop, tol)

    def test_tol_below_float_resolution_ends(self, base_scenario):
        spec = SweepSpec(base_scenario, "policy.p_accept", 0.0, 1.0, 11)
        assert find_reference_crossing(spec, tol=1e-300) == pytest.approx(2.0 / 3.0, abs=1e-15)


# --- the crossing screens the grid's two ends as floats ----------------------


def float_bits(values):
    return [(type(v), v.hex()) for v in values]


# each end of the two clamp bands and its float neighbours, the smallest
# subnormals, and the non-finite floats
CLAMP_EDGES = EDGE_VALUES + tuple(
    value
    for end in (-1e-12, 1.0 + 1e-12, 0.0, 1.0)
    for value in (math.nextafter(end, -math.inf), math.nextafter(end, math.inf))
) + (5e-324, -5e-324, 1e-300, -1e-300, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("value", CLAMP_EDGES, ids=repr)
def test_the_float_clamp_is_the_array_clamp(value):
    assert_clamps_alike(value)


@pytest.fixture
def screened(monkeypatch):
    """The set of grid indices each call to `sweep._grid_leaves` evaluates."""
    calls = []
    grid_leaves = sweep._grid_leaves

    def spy(base, path, value_at, count):
        indices = set()
        calls.append(indices)

        def recorded(i):
            indices.add(i)
            return value_at(i)

        return grid_leaves(base, path, recorded, count)

    monkeypatch.setattr(sweep, "_grid_leaves", spy)
    return calls


class TestCrossingEndsAsFloats:
    EDGES = (0.0, -0.0, 1.0, -1e-12, 1e-300, 0.5, 1, 0)

    def random_bound(self, rng):
        if rng.random() < 0.3:
            return self.EDGES[rng.integers(len(self.EDGES))]
        return float(rng.uniform(-2.0, 2.0))

    def test_ends_are_the_grids_ends_bit_for_bit(self, base_scenario):
        rng = np.random.default_rng(17)
        specs = [(0.0, 1.0, 11), (1.0, 0.0, 11), (-0.0, 1.0, 5), (-0.0, -1.0, 5), (-0.0, -0.0, 3),
                 (0.0, -0.0, 3), (0.3, 0.3, 2), (1.0, 0.0, np.int64(7)), (-0.0, -0.5, np.int64(4))]
        for _ in range(400):
            start, stop = self.random_bound(rng), self.random_bound(rng)
            steps = int(rng.integers(2, 300)) if rng.random() < 0.8 else int(rng.integers(2, MAX_STEPS + 1))
            specs.append((start, stop, np.int64(steps) if rng.random() < 0.25 else steps))
        specs += [(start, stop, steps) for start, stop in [(0.0, 1.0), (1.0, 0.0), (-0.0, 0.9), (0.1, 0.7)]
                  for steps in (MAX_STEPS, MAX_STEPS - 1, np.int64(MAX_STEPS), MAX_STEPS - 3)]
        screened = 0
        for start, stop, steps in specs:
            spec = SweepSpec(base_scenario, "policy.p_accept", start, stop, steps)
            ends = float_bits(spec._grid()[[0, -1]].tolist())
            assert float_bits((spec._grid(0), spec._grid(steps - 1))) == ends, (start, stop, steps)
            try:
                _, screen_ends = _grid_leaves(base_scenario, spec.parameter_path, spec._grid, spec.steps)
            except SweepError:
                continue
            assert float_bits(screen_ends) == ends, (start, stop, steps)
            screened += 1
        assert screened >= 100

    def test_a_valid_crossing_computes_each_end_once(self, base_scenario, monkeypatch):
        calls = []
        grid = SweepSpec._grid

        def counted(spec, i=None):
            calls.append(i)
            return grid(spec, i)

        monkeypatch.setattr(SweepSpec, "_grid", counted)
        for steps in 2, 3, 10_001:
            del calls[:]
            find_reference_crossing(SweepSpec(base_scenario, "policy.p_accept", 0.1, 0.9, steps))
            assert calls == [0, steps - 1]

    @pytest.fixture
    def no_arrays(self, monkeypatch):
        """numpy's array builders and `model._where` refuse: a float takes a
        float comparison through the clamp and the bounds, never `_where`."""

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy array was evaluated, or `_where` reached")

        for name in ("arange", "where", "any"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(model, "_where", refuse)

    @pytest.mark.usefixtures("no_arrays")
    def test_a_valid_crossing_evaluates_no_array(self):
        specs = golden_crossing_specs()
        specs.append(SweepSpec(make_scenario(), "policy.p_accept", 0.0, 1.0, np.int64(11)))
        found = [find_reference_crossing(spec) for spec in specs]
        assert list(map(repr, found)) == GOLDEN_CROSSINGS + GOLDEN_CROSSINGS[:1]

    def test_a_float_sweep_evaluates_no_array(self, no_arrays, monkeypatch):
        monkeypatch.setattr(sweep, "_on_arrays", lambda steps: False)
        for key, spec in GOLDEN_SPECS.items():
            assert " ".join(map(repr, run_sweep(spec).accuracies)) == GOLDEN_ACCURACIES[key]
        spec = SweepSpec(make_scenario(), "policy.p_accept", -1e-12, 1.0 + 1e-12, sweep._SCALAR_STEPS)
        series = run_sweep(spec)
        # the grid's ends, 1e-12 past [0, 1], are clamped to 0 and 1
        ends = [evaluate(make_scenario(policy=Indiscriminate(p))).p_correct_aided for p in (0.0, 1.0)]
        assert len(series.accuracies) == sweep._SCALAR_STEPS
        assert [series.accuracies[0], series.accuracies[-1]] == ends

    def test_the_float_screen_loads_no_numpy(self):
        probe = f"""
from reliance.model import _grid_leaves, validate_scenario
leaves, ends = _grid_leaves(validate_scenario({BASE_RAW!r}), "policy.p_accept", (0.0, 1.0).__getitem__, 2)
assert leaves["policy.p_accept"] == 1.0 and ends == (0.0, 1.0)
"""
        assert loaded_after(probe, "numpy") == []

    def test_two_degraded_ends_warn_once_at_the_callers_line(self, base_scenario):
        spec = SweepSpec(base_scenario, "user.p_post_reject_correct", 0.7, 0.9, 5)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            find_reference_crossing(spec)
        assert [(w.category, w.filename) for w in record] == [(DegradedRateWarning, __file__)]

    def test_a_base_at_its_unaided_rate_warns_once_past_it(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedRateWarning)
            scenario = make_scenario(r=0.6)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            find_reference_crossing(SweepSpec(scenario, "user.p_post_reject_correct", 0.4, 0.8, 5))
        assert [w.category for w in record] == [DegradedRateWarning]

    @pytest.mark.parametrize(
        "r,start,stop,steps,named",
        [
            (0.4, 0.0, 1.0, 11, "0.0"),  # the first end: degraded, past the Frechet bounds
            (0.5, 0.45, 0.8, 8, "0.8"),  # the first end degraded and valid, the last invalid
            (0.5, 0.45, 0.85, 9, "0.8"),  # the grid's first invalid value is inside it
        ],
    )
    def test_an_invalid_degraded_end_aborts_as_the_sweep_does(self, screened, r, start, stop, steps, named):
        # both callers screen the two ends, then bisect for the grid's first
        # invalid value, and abort with the validator's text and no warning
        spec = SweepSpec(make_scenario(r=r, dependency=Joint(0.45)), "user.p_unaided_correct", start, stop, steps)
        raw = scenario_to_dict(spec.base)
        raw["user"]["p_unaided_correct"] = float(named)
        with pytest.raises(ScenarioValidationError) as validated:
            validate_scenario(raw)
        message = f"swept value {named} for 'user.p_unaided_correct' is invalid: {validated.value}"
        for run in run_sweep, find_reference_crossing:
            screened.clear()
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                with pytest.raises(SweepError) as aborted:
                    run(spec)
            assert str(aborted.value) == message
            assert record == []
            assert len(screened) == 1 and spec.grid().index(float(named)) in screened[0]
            assert len(screened[0]) <= 2 + math.ceil(math.log2(steps))


# --- bisection for the first invalid grid value ------------------------------


class TestBisectionNamesTheFirstInvalidValue:
    # the clamp's ends and the values just past them
    BOUNDS = (-0.0, -1e-12, -1.5e-12, 1.0 + 1e-12, 1.0 + 1.5e-12)

    def test_it_names_the_value_a_linear_scan_names(self):
        rng = np.random.default_rng(19)
        inside = edge = valid = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedRateWarning)
            for dependency, policy in itertools.product(GOLDEN_DEPENDENCIES.values(), GOLDEN_POLICIES.values()):
                scenarios = []
                while len(scenarios) < 6:
                    scenario = random_edge_scenario(rng)
                    if (type(scenario.dependency), type(scenario.policy)) == (type(dependency), type(policy)):
                        scenarios.append(scenario)
                for path in leaf_paths(scenarios[0]):
                    for scenario in scenarios:
                        bounds = leaf_bounds(scenario, path) + list(self.BOUNDS)
                        # one end at an edge, the other often past an edge
                        start = edge_value(rng, bounds)
                        stop = edge_value(rng, bounds) + float(rng.choice((0.0, -1.0, 1.0))) * rng.uniform(0.0, 0.2)
                        if rng.uniform() < 0.5:
                            start, stop = stop, start
                        spec = SweepSpec(scenario, path, start, stop, int(rng.integers(2, 301)))
                        first, message = per_point_scan(spec)
                        for run in run_sweep, find_reference_crossing:
                            if not isinstance(first, int):
                                run(spec)
                                continue
                            with pytest.raises(SweepError) as info:
                                run(spec)
                            assert str(info.value) == message, spec
                        if not isinstance(first, int):
                            valid += 1
                        elif 0 < first < spec.steps - 1:
                            inside += 1
                        else:
                            edge += 1
        # the bisection, the invalid ends and valid grids were all exercised
        assert inside > 30 and edge > 50 and valid > 50, (inside, edge, valid)

    def test_an_invalid_grid_is_never_built(self, base_scenario, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(np, "arange", refuse)
        joint = make_scenario(dependency=Joint(0.45))
        past_one = SweepSpec(base_scenario, "aid.p_advice_correct", 0.5, 1.5, 10**15)
        cases = [
            (past_one, "swept value 1.0000000000010005 for 'aid.p_advice_correct' is invalid"),
            (SweepSpec(joint, "user.p_unaided_correct", 0.0, 0.7, 10**15), "swept value 0.0 for"),
            (SweepSpec(base_scenario, "policy.p_bogus", 0.0, 1.0, 10**15), "parameter_path 'policy.p_bogus' not applicable"),
        ]
        for spec, message in cases:
            for run in run_sweep, find_reference_crossing:
                with pytest.raises(SweepError) as info:
                    run(spec)
                assert str(info.value).startswith(message), str(info.value)
        # the value named is the first past the clamp: the grid value before it is valid
        first = round((1.0000000000010005 - 0.5) / (1.0 / (10**15 - 1)))
        assert past_one._grid(first) == 1.0000000000010005
        assert past_one._grid(first - 1) <= 1.0 + 1e-12 < past_one._grid(first)

    def test_a_grid_past_sys_maxsize_names_its_first_invalid_value(self, base_scenario):
        # more indices than `bisect` takes; only the last end is invalid
        spec = SweepSpec(base_scenario, "aid.p_advice_correct", 0.5, 1.5, 10**20)
        assert spec.steps - 1 > sys.maxsize

        def rejection(i):
            """The validator's error for the grid value at index i, or None."""
            raw = scenario_to_dict(base_scenario)
            raw["aid"]["p_advice_correct"] = spec._grid(i)
            try:
                validate_scenario(raw)
            except ScenarioValidationError as err:
                return err
            return None

        # the index-by-index rule, bisected: the first index whose value is rejected
        lo, first = 0, spec.steps - 1
        while lo < first:
            mid = (lo + first) // 2
            lo, first = (lo, mid) if rejection(mid) else (mid + 1, first)
        assert rejection(first) and not rejection(first - 1)
        value = spec._grid(first)
        message = f"swept value {value!r} for 'aid.p_advice_correct' is invalid: {rejection(first)}"
        for run in run_sweep, find_reference_crossing:
            with pytest.raises(SweepError) as info:
                run(spec)
            assert str(info.value) == message


# --- the ends' linear root against bisection and the exact gap ---------------


def gap_at(spec, value):
    """The swept accuracy minus the base unaided rate, straight from the kernel."""
    base, leaves = spec.base, spec.base.leaves
    leaves[spec.parameter_path] = _clamped(value)
    form = analytic._form(type(base.policy), base.effective_degradation_mode, type(base.dependency))
    return form(leaves) - base.user.p_unaided_correct


def exact_gap(spec, value):
    """The gap at the float `value` in exact rationals, through `validate_scenario`."""
    section, key = spec.parameter_path.split(".")
    raw = scenario_to_dict(spec.base)
    raw[section][key] = value
    return exact_accuracy(validate_scenario(raw)) - Fraction(spec.base.user.p_unaided_correct)


def bisected_crossing(spec, tol=1e-9):
    """The crossing search before the linear root, kept as the reference.

    Bisects the first bracketing grid cell down to tol.  Its scan compares
    signs, as the search now does, where it used to test a product that
    underflows.  Returns the crossing and the number of closed-form
    evaluations it made.
    """
    series = run_sweep(spec)
    evaluations = 0

    def gap(value):
        nonlocal evaluations
        evaluations += 1
        return gap_at(spec, value)

    values = series.parameter_values
    gaps = [acc - series.unaided_reference for acc in series.accuracies]
    for i in range(len(values) - 1):
        if gaps[i] == 0.0:
            return values[i], evaluations
        if gaps[i + 1] != 0.0 and (gaps[i] < 0.0) != (gaps[i + 1] < 0.0):
            lo, hi, g_lo = values[i], values[i + 1], gaps[i]
            while abs(hi - lo) > tol:
                mid = 0.5 * (lo + hi)
                g_mid = gap(mid)
                if g_mid == 0.0:
                    return mid, evaluations
                if (g_lo < 0.0) == (g_mid < 0.0):
                    lo, g_lo = mid, g_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi), evaluations
    if gaps and gaps[-1] == 0.0:
        return values[-1], evaluations
    return None, evaluations


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the closed-form evaluations find_reference_crossing makes, the
    grid's two ends included."""
    calls = []
    form = sweep._form

    def counted_form(*key):
        def counted(leaves):
            calls.append(dict(leaves))
            return form(*key)(leaves)

        return counted

    monkeypatch.setattr(sweep, "_form", counted_form)
    return calls


def call_bound(lo, hi, tol):
    """The ends, the two probes, then bisection's step count over the grid's range."""
    return 4 + math.ceil(math.log2(max(hi - lo, tol) / tol))


CROSSING_POLICIES = (*GOLDEN_POLICIES.values(), Discriminating(0.95, 0.6), SelfGated(0.2, 0.9))
CROSSING_MARGINALS = ((0.7, 0.6, 0.4), (0.8, 0.5, 0.3), (0.55, 0.65, 0.2), (0.6 - SLACK, 0.6, 0.3))
MODES = ("fixed_rate", "conditional_from_joint")


def crossing_scenarios():
    """Every policy x dependency x mode at a few marginals; Joint also at each
    Frechet end and past it by the slack, dominance also inside its slack."""
    for p_a, p_u, r in CROSSING_MARGINALS:
        lo, hi = frechet_bounds(p_a, p_u)
        joints = [Joint(p11 + d) for p11 in (lo, 0.5 * (lo + hi), hi) for d in (0.0, -SLACK, SLACK)]
        for policy, dependency, mode in itertools.product(
            CROSSING_POLICIES, [Independent(), Dominant(), *joints], MODES
        ):
            try:
                yield make_scenario(p_a, p_u, r, policy=policy, dependency=dependency, mode=mode)
            except ScenarioValidationError:
                continue  # past a bound by more than the slack


def leaf_range(scenario, path):
    """The swept leaf's valid interval within [0, 1], ends exact."""
    lo, hi = 0.0, 1.0
    ends = leaf_bounds(scenario, path)[::5]  # without the slack offsets
    if len(ends) == 2:
        lo, hi = ends
    elif ends and path == "aid.p_advice_correct":
        lo = ends[0]  # a dominant advisor: at least the user
    elif ends:
        hi = ends[0]
    return max(lo, 0.0), min(hi, 1.0)


def near_gaps(spec, x, tol, lo, hi, gap=gap_at):
    """The gap tol/2 below x, at x and tol/2 above it, kept inside [lo, hi]."""
    return [gap(spec, value) for value in (max(lo, x - 0.5 * tol), x, min(hi, x + 0.5 * tol))]


def sign_change_near(spec, x, tol, lo, hi, gap=gap_at):
    """Whether the gap is zero at x or changes sign within tol/2 of it, inside [lo, hi]."""
    gaps = near_gaps(spec, x, tol, lo, hi, gap)
    return gaps[1] == 0 or any(min(a, b) <= 0 <= max(a, b) for a, b in zip(gaps, gaps[1:]))


def moves(spec, x, tol, lo, hi):
    """How far a tol/2 step either side of x moves the rounded gap."""
    below, _, above = near_gaps(spec, x, tol, lo, hi)
    return abs(above - below)


class TestLinearRootAgainstBisection:
    def check(self, spec, tol, calls, outcomes):
        """The ends' linear root against the exact gap and against bisection.

        The search validates and warns as `run_sweep` does on the whole grid.
        It returns None exactly when both end gaps are non-zero with one
        sign, and costs at most `call_bound` kernel calls.  Where a tol/2
        step moves the rounded gap by at least 1e-13, the exact gap changes
        sign within tol/2 of the result, and bisection, where it finds a
        root there, lies within tol of it.  Elsewhere the rounded gaps do not
        fix the root to tol, and a sign change of the rounded gap within
        tol/2 is as good.  An end whose rounded gap is zero is returned as it
        is; its exact gap is within 1e-15 of zero, as `evaluate` is of the
        exact accuracy.  Where bisection crosses and the ends do not, it
        crossed at a rounded gap of zero: the exact gap keeps the ends' sign
        at every grid point.
        """
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always", DegradedRateWarning)
            try:
                series = run_sweep(spec)
            except SweepError as err:
                with pytest.raises(SweepError) as info:
                    find_reference_crossing(spec, tol)
                assert str(info.value) == str(err)
                return
        del calls[:]
        with warnings.catch_warnings(record=True) as crossed:
            warnings.simplefilter("always", DegradedRateWarning)
            found = find_reference_crossing(spec, tol)
        assert len(crossed) == len(swept), spec
        evaluations = len(calls)
        expected, _ = bisected_crossing(spec, tol)
        values = series.parameter_values
        lo, hi = sorted(values[:: len(values) - 1])
        first, last = (series.accuracies[i] - series.unaided_reference for i in (0, -1))
        assert (found is None) == (first != 0.0 and last != 0.0 and (first < 0.0) == (last < 0.0)), spec
        assert evaluations <= call_bound(lo, hi, tol), spec
        if found is None:
            outcomes.append(None)
            if expected is not None:
                exact = [exact_gap(spec, value) for value in values]
                assert all((g < 0) == (first < 0.0) and g != 0 for g in exact), (spec, expected)
            return
        outcomes.append(evaluations)
        if found in (lo, hi) and gap_at(spec, found) == 0.0:
            # the rounding put an end on the line: exact to the kernel's 1e-15
            assert abs(exact_gap(spec, found)) <= 1e-15, (spec, found)
        elif moves(spec, found, tol, lo, hi) >= 1e-13:
            assert sign_change_near(spec, found, tol, lo, hi, exact_gap), (spec, found)
        else:
            assert sign_change_near(spec, found, tol, lo, hi), (spec, found)
        if moves(spec, expected, tol, lo, hi) >= 1e-13:
            assert abs(found - expected) <= tol, (spec, found, expected)

    def test_every_policy_dependency_mode_and_leaf(self, kernel_calls):
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedRateWarning)
            for scenario in crossing_scenarios():
                for path in leaf_paths(scenario):
                    lo, hi = leaf_range(scenario, path)
                    self.check(SweepSpec(scenario, path, lo, hi, 7), 1e-9, kernel_calls, outcomes)
                    # backwards, into the slack past each valid end, where the clamps act
                    start, stop = min(hi + SLACK, 1.0), max(lo - SLACK, 0.0)
                    self.check(SweepSpec(scenario, path, start, stop, 12), 1e-12, kernel_calls, outcomes)
        found = [n for n in outcomes if n is not None]
        assert len(found) > 1000 and outcomes.count(None) > 1000
        # the probes failed, past a clamp, and bisection ran in some searches
        assert sum(n > 4 for n in found) > 20

    def test_random_edge_scenarios(self, kernel_calls):
        rng = np.random.default_rng(403)
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedRateWarning)
            for _ in range(1500):
                scenario = random_edge_scenario(rng)
                paths = leaf_paths(scenario)
                path = paths[rng.integers(len(paths))]
                bounds = leaf_bounds(scenario, path)
                spec = SweepSpec(
                    scenario, path, edge_value(rng, bounds), edge_value(rng, bounds), int(rng.integers(2, 9))
                )
                self.check(spec, (1e-9, 1e-12, 1e-6)[rng.integers(3)], kernel_calls, outcomes)
        assert outcomes.count(None) > 300 and len(outcomes) - outcomes.count(None) > 300

    def test_a_golden_crossing_needs_at_most_four_evaluations(self, kernel_calls):
        # the two ends, then the linear root and its tol/2 probe, all on floats
        for spec in golden_crossing_specs():
            del kernel_calls[:]
            find_reference_crossing(spec)
            assert 2 <= len(kernel_calls) <= 4
            assert all(isinstance(leaves[spec.parameter_path], float) for leaves in kernel_calls)

    def test_a_flat_gap_costs_fewer_calls_than_the_secant_search(self, kernel_calls):
        # the gap moves about 5e-10 over the grid, so a tol/2 step cannot move
        # its rounding; the search this one replaced spent 37 calls here
        p_a = 0.6 - SLACK
        joint = Joint(frechet_bounds(p_a, 0.6)[1] - SLACK)
        scenario = make_scenario(p_a, 0.6, 0.3, policy=SelfGated(0.7, 0.7), dependency=joint, mode="fixed_rate")
        spec = SweepSpec(scenario, "policy.p_use_given_user_wrong", 1.0, 0.0, 12)
        found = find_reference_crossing(spec, 1e-12)
        assert sign_change_near(spec, found, 1e-12, 0.0, 1.0)
        assert len(kernel_calls) < 37

    def test_a_zero_gap_at_a_bisection_midpoint_is_returned(self, kernel_calls, monkeypatch):
        # a bent line, zero on [0.1, 0.6]: the ends' linear root 0.8 and its
        # probe 0.8 - tol/2 both lie above zero, so the bracket (0, probe) is
        # bisected, and its first midpoint lands on the zero
        counted_form = sweep._form

        def bent_form(*key):
            counted = counted_form(*key)

            def bent(leaves):
                counted(leaves)
                v = leaves["policy.p_accept"]
                return 0.5 + 16.0 * min(0.0, v - 0.1) + max(0.0, v - 0.6)

            return bent

        monkeypatch.setattr(sweep, "_form", bent_form)
        spec = SweepSpec(make_scenario(p_u=0.5), "policy.p_accept", 0.0, 1.0, 11)
        tol = 1e-9
        crossing = find_reference_crossing(spec, tol)
        x = 0.8  # gaps -1.6 and 0.4 at the ends
        assert crossing == 0.5 * (x - 0.5 * tol)
        probed = [leaves["policy.p_accept"] for leaves in kernel_calls]
        assert probed == [0.0, 1.0, x, x - 0.5 * tol, crossing]

    def test_a_gap_that_rounds_to_zero_inside_the_grid_is_no_crossing(self):
        # the exact gap is -(1 - p_a) * 2**-53, below -5.8e-17 on the whole
        # grid, and rounds to 0.0 at its second point, where the scan of
        # the grid crossed
        scenario = make_scenario(
            p_u=1.0, r=1.0 - 2.0**-53, policy=Discriminating(1.0, 0.0), mode="fixed_rate"
        )
        spec = SweepSpec(scenario, "aid.p_advice_correct", -0.0, 0.4703683994145884, 5)
        assert all(exact_gap(spec, value) < Fraction(-5.8e-17) for value in spec.grid())
        assert bisected_crossing(spec)[0] == 0.1175920998536471
        assert find_reference_crossing(spec) is None


def with_leaf(scenario, path, value):
    """The scenario with the leaf at `path` set to `value`, validated."""
    raw = scenario_to_dict(scenario)
    section, key = path.split(".")
    raw[section][key] = value
    return validate_scenario(raw)


def fd_points(policy, dependency, mode):
    """Seeded points of one policy x dependency x mode: interior ones, and
    each with one free leaf moved, where that still validates, to 0, to 1,
    under Joint to where it puts P(both correct) at either Frechet end, and
    under Dominant to the other marginal."""
    rng = np.random.default_rng(COMBOS.index((policy, dependency, mode)))
    for _ in range(5):
        scenario = random_scenario(rng, policy, dependency, mode)
        yield scenario
        p_a, p_u = scenario.aid.p_advice_correct, scenario.user.p_unaided_correct
        ends = {"aid.p_advice_correct": (p_u,), "user.p_unaided_correct": (p_a,)} if dependency == "dominant" else {}
        if dependency == "joint":
            p11 = scenario.dependency.p_both_correct
            ends = {
                "dependency.p_both_correct": frechet_bounds(p_a, p_u),
                "aid.p_advice_correct": (p11, 1.0 - p_u + p11),
                "user.p_unaided_correct": (p11, 1.0 - p_a + p11),
            }
        for path in free_parameters(scenario):
            for value in (0.0, 1.0, *ends.get(path, ())):
                try:
                    yield with_leaf(scenario, path, value)
                except ScenarioValidationError:
                    pass


def finite_difference(scenario, path):
    """The finite difference of public `evaluate` in the leaf at `path`:
    central where both steps of FD_STEP validate, else one-sided in the
    direction that does, as at 0, at 1 and at a Frechet end."""
    steps = {}
    for h in (FD_STEP, -FD_STEP):
        try:
            steps[h] = evaluate(perturbed_scenario(scenario, path, h)).p_correct_aided
        except ScenarioValidationError:
            pass
    assert steps, f"no step in {path} validates at {scenario}"
    if len(steps) == 2:
        return (steps[FD_STEP] - steps[-FD_STEP]) / (2 * FD_STEP)
    ((h, f),) = steps.items()
    return (f - evaluate(scenario).p_correct_aided) / h


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

    @pytest.mark.parametrize(
        "dependency,expected",
        [
            # p11 + (p_a - p11) g_w + (p_u - p11) g_c with p11 = .55
            (Joint(0.55), {"aid.p_advice_correct": 0.3, "user.p_unaided_correct": 0.8,
                           "policy.p_ignore_given_user_correct": 0.05,
                           "policy.p_use_given_user_wrong": 0.15,
                           "dependency.p_both_correct": -0.1}),
            # p_u + (p_a - p_u) g_w
            (Dominant(), {"aid.p_advice_correct": 0.3, "user.p_unaided_correct": 0.7,
                          "policy.p_ignore_given_user_correct": 0.0,
                          "policy.p_use_given_user_wrong": 0.1}),
        ],
        ids=["joint", "dominant"],
    )
    def test_self_gated_under_dependency_partials(self, dependency, expected):
        scenario = make_scenario(p_a=0.7, p_u=0.6, policy=SelfGated(0.8, 0.3), dependency=dependency)
        partials = sensitivity(scenario)
        assert partials == pytest.approx(expected, abs=EXACT)
        assert set(free_parameters(scenario)) == set(expected)

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

    def test_one_function_behind_every_name(self):
        import reliance

        assert sweep.sensitivity is analytic.sensitivity is reliance.sensitivity

    @pytest.mark.filterwarnings("ignore::reliance.model.DegradedRateWarning")
    @pytest.mark.parametrize("policy,dependency,mode", COMBOS)
    def test_partials_match_finite_differences_at_interior_points_and_edges(self, policy, dependency, mode):
        # the finite-difference oracle: every partial against a difference of
        # public `evaluate`, central where both steps validate, else one-sided
        points = list(fd_points(policy, dependency, mode))
        assert len(points) >= 15  # 5 interior, each with 2 edges or more
        for scenario in points:
            for path, exact in sensitivity(scenario).items():
                assert finite_difference(scenario, path) == pytest.approx(exact, abs=1e-8), (path, scenario)

    def test_the_form_is_evaluated_twice_per_leaf(self, monkeypatch):
        calls = []
        form = analytic._form

        def counted(*key):
            f = form(*key)
            return lambda v: calls.append(key) or f(v)

        monkeypatch.setattr(analytic, "_form", counted)
        rng = np.random.default_rng(72)
        for combo in COMBOS:
            calls.clear()
            partials = sensitivity(random_scenario(rng, *combo))
            assert partials and len(calls) == 2 * len(partials), combo

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
