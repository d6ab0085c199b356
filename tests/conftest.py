"""Shared scenario builders for the test suite."""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from reliance.model import (
    CONDITIONAL_FROM_JOINT,
    DEGRADATION_MODES,
    FIXED_RATE,
    AidProfile,
    DependencyModel,
    Discriminating,
    Dominant,
    Independent,
    Indiscriminate,
    Joint,
    ReliancePolicy,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    SelfGated,
    UserProfile,
    _DEPENDENCIES,
    _POLICIES,
    _clamped,
    frechet_bounds,
    validate_scenario,
)

# Step of the finite differences that check `sensitivity`'s partials.
FD_STEP = 1e-6
# Every policy x dependency x degradation mode, by wire name.
COMBOS = list(product(_POLICIES, _DEPENDENCIES, DEGRADATION_MODES))

BASE_RAW = {
    "aid": {"p_advice_correct": 0.7},
    "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
    "policy": {"type": "indiscriminate", "p_accept": 0.5},
    "dependency": {"type": "independent"},
}


def make_scenario(
    p_a: float = 0.7,
    p_u: float = 0.6,
    r: float = 0.4,
    policy: ReliancePolicy | None = None,
    dependency: DependencyModel | None = None,
    mode: str | None = None,
) -> Scenario:
    return Scenario(
        aid=AidProfile(p_a),
        user=UserProfile(p_u, r),
        policy=policy if policy is not None else Indiscriminate(0.5),
        dependency=dependency if dependency is not None else Independent(),
        degradation_mode=mode,
    )


def random_dependency(rng: np.random.Generator, p_a: float, p_u: float) -> DependencyModel:
    """A random dependency valid for the given marginals.

    Joint draws stay strictly inside the Frechet bounds so that small
    parameter perturbations cannot leave the feasible region.
    """
    kind = rng.choice(["independent", "joint", "dominant"])
    if kind == "dominant" and p_a < p_u:
        kind = "independent"
    if kind == "independent":
        return Independent()
    if kind == "dominant":
        return Dominant()
    lo, hi = frechet_bounds(p_a, p_u)
    margin = 0.02 * (hi - lo)
    return Joint(rng.uniform(lo + margin, hi - margin))


def random_policy(rng: np.random.Generator, kind: str | None = None) -> ReliancePolicy:
    if kind is None:
        kind = rng.choice(
            ["routine_accept", "routine_ignore", "indiscriminate", "discriminating", "self_gated"]
        )
    if kind == "routine_accept":
        return RoutineAccept()
    if kind == "routine_ignore":
        return RoutineIgnore()
    if kind == "indiscriminate":
        return Indiscriminate(rng.uniform(0.05, 0.95))
    if kind == "discriminating":
        return Discriminating(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
    return SelfGated(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))


def random_scenario(
    rng: np.random.Generator,
    policy_kind: str | None = None,
    dependency_kind: str | None = None,
    mode: str | None = None,
    explicit_mode: bool = False,
) -> Scenario:
    """A random valid scenario with interior probabilities and r <= unaided rate."""
    p_a = rng.uniform(0.05, 0.95)
    p_u = rng.uniform(0.05, 0.95)
    r = rng.uniform(0.02, p_u)
    policy = random_policy(rng, policy_kind)
    if dependency_kind == "independent":
        dependency: DependencyModel = Independent()
    elif dependency_kind == "dominant":
        p_u = rng.uniform(0.05, p_a)
        r = rng.uniform(0.02, p_u)
        dependency = Dominant()
    elif dependency_kind == "joint":
        lo, hi = frechet_bounds(p_a, p_u)
        margin = 0.02 * (hi - lo)
        dependency = Joint(rng.uniform(lo + margin, hi - margin))
    else:
        dependency = random_dependency(rng, p_a, p_u)
    if explicit_mode and mode is None:
        mode = str(rng.choice(["fixed_rate", "conditional_from_joint"]))
    return make_scenario(p_a, p_u, r, policy=policy, dependency=dependency, mode=mode)


def edge_scenarios():
    """(k, scenario) over every policy x dependency x mode at edge values:
    empty cells, certain cells and cuts at the validation slack, none of
    which random_scenario's interior draws reach.  `k` counts the
    combinations tried, the valid ones and those past a bound or out of
    range beyond the slack, which are skipped."""
    rates = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1e-300, 0.5), (0.5, 1e-300)]
    policies = [
        lambda k: RoutineAccept(),
        lambda k: RoutineIgnore(),
        lambda k: Indiscriminate(rates[k % len(rates)][0]),
        lambda k: Discriminating(*rates[k % len(rates)]),
        lambda k: SelfGated(*rates[k % len(rates)]),
    ]
    edges = [0.0, 1e-300, 0.3, 1.0]
    marginals = [(p_a, p_u) for p_a in edges for p_u in edges] + [(0.3, 0.3 + 5e-10)]

    def dependencies(p_a, p_u):
        lo, hi = max(0.0, p_a + p_u - 1.0), min(p_a, p_u)
        return {
            "independent": [Independent],
            "dominant": [Dominant],
            "joint": [lambda p=p: Joint(p) for p in (lo, hi, lo - 5e-10, hi + 5e-10)],
        }

    k = 0
    for policy in policies:
        for kind in ("independent", "joint", "dominant"):
            for mode in (FIXED_RATE, CONDITIONAL_FROM_JOINT):
                for p_a, p_u in marginals:
                    for dependency in dependencies(p_a, p_u)[kind]:
                        k += 1
                        try:
                            scenario = make_scenario(
                                p_a, p_u, (0.0, 1.0, 1e-300)[k % 3], policy(k), dependency(), mode
                            )
                        except ValueError:
                            continue
                        yield k, scenario


def read_back(record):
    """`record` read back from its JSON text through its class's `from_dict`,
    which runs every value rule of the class."""
    return type(record).from_dict(json.loads(json.dumps(record.to_dict())))


def exact_accuracy(scenario) -> Fraction:
    """P(final answer correct) in exact rationals: the sum over the four latent
    cells (advice right?, user right alone?) of mass * (use * advice right +
    (1 - use) * rate of being right alone), with P(both correct) clamped."""
    p_a, p_u = Fraction(scenario.aid.p_advice_correct), Fraction(scenario.user.p_unaided_correct)
    dependency, policy = scenario.dependency, scenario.policy
    if isinstance(dependency, Independent):
        p11 = p_a * p_u
    elif isinstance(dependency, Dominant):
        p11 = min(p_a, p_u)
    else:
        p11 = min(max(Fraction(dependency.p_both_correct), p_a + p_u - 1, Fraction(0)), p_a, p_u)
    masses = {(1, 1): p11, (1, 0): p_a - p11, (0, 1): p_u - p11, (0, 0): 1 - p_a - p_u + p11}
    total = Fraction(0)
    for (advice, alone), mass in masses.items():
        if isinstance(policy, RoutineAccept):
            use, rate = 1, 0
        elif isinstance(policy, RoutineIgnore):
            use, rate = 0, alone
        elif isinstance(policy, SelfGated):
            gate = 1 - Fraction(policy.p_ignore_given_user_correct) if alone else policy.p_use_given_user_wrong
            use, rate = Fraction(gate), alone
        else:
            if isinstance(policy, Indiscriminate):
                accept_right = accept_wrong = policy.p_accept
            else:
                accept_right, accept_wrong = policy.p_accept_given_correct, policy.p_accept_given_wrong
            use = Fraction(accept_right if advice else accept_wrong)
            fixed = scenario.effective_degradation_mode == "fixed_rate"
            rate = Fraction(scenario.user.p_post_reject_correct) if fixed else alone
        total += mass * (use * advice + (1 - use) * rate)
    return total


def assert_clamps_alike(value: float) -> None:
    """`model._clamped` gives the float `value` the float its array clamp
    gives, bit for bit: the same number, sign of zero and nan-ness."""
    scalar, array = _clamped(value), _clamped(np.array([value]))[0]
    assert scalar.__class__ is float, value
    assert math.isnan(scalar) == math.isnan(array), value
    assert math.isnan(scalar) or (scalar == array and math.copysign(1.0, scalar) == math.copysign(1.0, array)), value


@pytest.fixture
def base_scenario() -> Scenario:
    """The worked indiscriminate example: advisor .7, user .6, degraded .4, accept half."""
    return validate_scenario(BASE_RAW)


@pytest.fixture(params=["floats", "arrays"])
def either_sweep_path(request, monkeypatch):
    """Runs a test twice: once with run_sweep evaluating every grid value by
    value as floats, once on numpy arrays, whatever the grid's size and
    whether numpy is loaded."""
    from reliance import sweep

    monkeypatch.setattr(sweep, "_on_arrays", lambda steps: request.param == "arrays")
    return request.param


def grid_breakeven(aid, user, dependency, mode=None, step=1e-3):
    """Grid-search oracle for the break-even discrimination level.

    Scans d over the policy's domain [0.5, 1] at the given step and returns
    the first d whose discriminating accuracy reaches the better routine
    policy, evaluating through the public closed form.
    """
    from reliance.analytic import evaluate

    target = max(aid.p_advice_correct, user.p_unaided_correct)
    n = round(0.5 / step)
    for i in range(n + 1):
        d = 0.5 + i * step
        scenario = make_scenario(
            aid.p_advice_correct,
            user.p_unaided_correct,
            user.p_post_reject_correct,
            policy=Discriminating(d, 1.0 - d),
            dependency=dependency,
            mode=mode,
        )
        if evaluate(scenario).p_correct_aided >= target - 1e-12:
            return d
    return None


def replace(record, /, **changes):
    """`record` with the fields `changes` replaced, rebuilt through its
    `__init__`: `copy.replace`, which needs Python 3.13."""
    return record.__replace__(**changes)


def perturbed_scenario(scenario: Scenario, path: str, delta: float) -> Scenario:
    """Rebuild a scenario with one dot-path parameter nudged by delta."""
    section, key = path.split(".")
    if section == "aid":
        return replace(scenario, aid=AidProfile(scenario.aid.p_advice_correct + delta))
    if section == "user":
        user = scenario.user
        values = {
            "p_unaided_correct": user.p_unaided_correct,
            "p_post_reject_correct": user.p_post_reject_correct,
        }
        values[key] += delta
        return replace(scenario, user=UserProfile(**values))
    if section == "dependency":
        return replace(
            scenario, dependency=Joint(scenario.dependency.p_both_correct + delta)
        )
    policy = scenario.policy
    if isinstance(policy, Indiscriminate):
        return replace(scenario, policy=Indiscriminate(policy.p_accept + delta))
    if isinstance(policy, Discriminating):
        values = {
            "p_accept_given_correct": policy.p_accept_given_correct,
            "p_accept_given_wrong": policy.p_accept_given_wrong,
        }
        values[key] += delta
        return replace(scenario, policy=Discriminating(**values))
    values = {
        "p_ignore_given_user_correct": policy.p_ignore_given_user_correct,
        "p_use_given_user_wrong": policy.p_use_given_user_wrong,
    }
    values[key] += delta
    return replace(scenario, policy=SelfGated(**values))


def loaded_after(probe: str, *modules: str) -> list[str]:
    """Run `probe` in a fresh interpreter on this source tree; which of
    `modules` it left imported."""
    env = os.environ.copy()
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    probe += f"\nimport sys; print([name for name in {modules!r} if name in sys.modules])"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.strip())
