"""Seeded input pools for the three benchmark families.

Every pool is a pure function of (seed, family).  The make-up of each pool
(which policies, dependencies, modes and sizes) is fixed; only the numbers
vary with the seed, so the work per round costs the same whatever the seed.
"""

from __future__ import annotations

import random

from oracle import accuracy, with_leaf

POLICIES = ("routine_accept", "routine_ignore", "indiscriminate", "discriminating", "self_gated")
DEPENDENCIES = ("independent", "joint", "dominant")
# None leaves degradation_mode out, so the program applies its default.
MODES = ("fixed_rate", "conditional_from_joint", None)

EDGE_VALUES = (0.0, 1.0, 1e-300)
EDGE_SHARE = 0.15
FRECHET_END_SHARE = 0.15  # of joint scenarios, for each end
SLACK_SHARE = 0.10  # of joint and dominant scenarios
SLACK = 5e-10  # inside the model's 1e-9 cross-field validation slack

SCENARIO_REPEATS = 4  # analysis pool: every combination, this many times
DENSE_STEPS = 10_001
CROSSING_STEPS = 101
CLI_SWEEP_STEPS = 1001
CLI_TRIALS = 1_000_000
CLI_SHARDS = 4
SMALL_TRIALS = 10_000
LARGE_TRIALS = 10_000_000

_POLICY_FIELDS = {
    "routine_accept": (),
    "routine_ignore": (),
    "indiscriminate": ("p_accept",),
    "discriminating": ("p_accept_given_correct", "p_accept_given_wrong"),
    "self_gated": ("p_ignore_given_user_correct", "p_use_given_user_wrong"),
}

# (policy, swept leaf, dependency, mode) of the dense sweeps.  A sweep's cost
# per point depends on its dependency, so that is fixed here, not drawn.
# Sweeping the advisor's rate stays valid only under independence.
DENSE_SWEEPS = (
    ("indiscriminate", "policy.p_accept", "joint", "conditional_from_joint"),
    ("discriminating", "policy.p_accept_given_correct", "dominant", None),
    ("discriminating", "policy.p_accept_given_wrong", "independent", "fixed_rate"),
    ("indiscriminate", "user.p_post_reject_correct", "joint", "fixed_rate"),
    ("self_gated", "policy.p_use_given_user_wrong", "independent", "conditional_from_joint"),
    ("discriminating", "aid.p_advice_correct", "independent", None),
)
# (policy, swept leaf) of the crossing searches; repeat j of each kind uses
# dependency j, so the mix is the same for every seed.
CROSSINGS = (
    ("indiscriminate", "policy.p_accept"),
    ("discriminating", "policy.p_accept_given_correct"),
    ("discriminating", "policy.p_accept_given_wrong"),
    ("indiscriminate", "user.p_post_reject_correct"),
    ("self_gated", "policy.p_ignore_given_user_correct"),
    ("self_gated", "policy.p_use_given_user_wrong"),
)
CROSSINGS_PER_KIND = 3
# A crossing case keeps this distance from the unaided line at both ends.
CROSSING_MARGIN = 1e-3


def analytic_combos() -> list[tuple[str, str, str | None]]:
    """Every policy x dependency x mode that has a closed form in the package.

    self_gated under joint or dominant is left out: the package raises for it
    (see CHANGES.md); the Monte Carlo family covers it.
    """
    return [
        (p, d, m)
        for p in POLICIES
        for d in DEPENDENCIES
        for m in MODES
        if p != "self_gated" or d == "independent"
    ]


def _prob(rng: random.Random) -> float:
    if rng.random() < EDGE_SHARE:
        return rng.choice(EDGE_VALUES)
    return rng.random()


def scenario(rng: random.Random, policy: str, dependency: str, mode: str | None, edges: bool = True) -> dict:
    """A valid scenario dict; with `edges`, edge values and slack cases are mixed in."""
    draw = _prob if edges else (lambda r: r.random())
    pa, pu, r = draw(rng), draw(rng), draw(rng)
    dep: dict = {"type": dependency}
    if dependency == "dominant":
        pa, pu = max(pa, pu), min(pa, pu)
        if edges and rng.random() < SLACK_SHARE and pu >= SLACK:
            pa = pu - SLACK
    elif dependency == "joint":
        lo, hi = max(0.0, pa + pu - 1.0), min(pa, pu)
        x = rng.random() if edges else 1.0
        if x < FRECHET_END_SHARE:
            p11 = lo
        elif x < 2 * FRECHET_END_SHARE:
            p11 = hi
        elif x < 2 * FRECHET_END_SHARE + SLACK_SHARE and (hi + SLACK <= 1.0 or lo >= SLACK):
            p11 = hi + SLACK if hi + SLACK <= 1.0 else lo - SLACK
        else:
            p11 = lo + (hi - lo) * rng.random()
        dep["p_both_correct"] = p11
    s = {
        "aid": {"p_advice_correct": pa},
        "user": {"p_unaided_correct": pu, "p_post_reject_correct": r},
        "policy": {"type": policy, **{f: draw(rng) for f in _POLICY_FIELDS[policy]}},
        "dependency": dep,
    }
    if mode is not None:
        s["degradation_mode"] = mode
    return s


def _rng(seed: int, family: str) -> random.Random:
    return random.Random(f"{seed}:{family}")


def analysis_pool(seed: int) -> dict:
    """Scenarios, dense sweeps and crossing cases for the analysis family."""
    rng = _rng(seed, "analysis")
    scenarios = [
        scenario(rng, *combo) for _ in range(SCENARIO_REPEATS) for combo in analytic_combos()
    ]
    sweeps = []
    for policy, path, dependency, mode in DENSE_SWEEPS:
        s = scenario(rng, policy, dependency, mode)
        sweeps.append((s, path, rng.uniform(0.0, 0.25), rng.uniform(0.75, 1.0), DENSE_STEPS))
    crossings = [
        _crossing_case(rng, policy, path, j)
        for j in range(CROSSINGS_PER_KIND)
        for policy, path in CROSSINGS
    ]
    return {"scenarios": scenarios, "sweeps": sweeps, "crossings": crossings}


def _crossing_case(rng: random.Random, policy: str, path: str, j: int):
    """A scenario whose accuracy over path in [0, 1] crosses the unaided rate."""
    dependency = "independent" if policy == "self_gated" else DEPENDENCIES[j % len(DEPENDENCIES)]
    # Under the conditional modes most of these kinds cannot cross: the
    # indiscriminate ones start at the unaided rate, and so does every kind
    # under dominance.  So crossings use the fixed-rate mode.
    for _ in range(100_000):
        s = scenario(rng, policy, dependency, "fixed_rate", edges=False)
        ref = s["user"]["p_unaided_correct"]
        lo = accuracy(with_leaf(s, path, 0.0)) - ref
        hi = accuracy(with_leaf(s, path, 1.0)) - ref
        if lo * hi < 0.0 and min(abs(lo), abs(hi)) > CROSSING_MARGIN:
            return s, path, 0.0, 1.0, CROSSING_STEPS
    raise RuntimeError(f"no crossing case found for {policy} / {path}")


def cli_pool(seed: int) -> dict:
    """Scenarios for the CLI family, one per combination, walked in this order."""
    rng = _rng(seed, "cli")
    scenarios = [scenario(rng, *combo) for combo in analytic_combos()]
    return {"scenarios": scenarios, "sim_seed": rng.randrange(1 << 63)}


def mc_pool(seed: int) -> dict:
    """Small runs over every policy x dependency, and large discriminating runs.

    Large runs all use the discriminating policy, the sampler's longest path,
    so their cost per trial does not depend on the seed.  Modes take turns.
    """
    rng = _rng(seed, "monte_carlo")
    pairs = [(p, d) for p in POLICIES for d in DEPENDENCIES]
    small = [(scenario(rng, p, d, MODES[i % len(MODES)]), rng.randrange(1 << 63)) for i, (p, d) in enumerate(pairs)]
    large = [
        (scenario(rng, "discriminating", d, MODES[i % len(MODES)]), rng.randrange(1 << 63))
        for i, d in enumerate(DEPENDENCIES)
    ]
    return {"small": small, "large": large}


def sweep_path(s: dict) -> str:
    """A leaf of the scenario that any valid grid over [0, 1] may sweep."""
    fields = _POLICY_FIELDS[s["policy"]["type"]]
    return f"policy.{fields[0]}" if fields else "user.p_post_reject_correct"
