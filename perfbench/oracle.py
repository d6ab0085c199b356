"""Independent oracle for the reliance model, sharing no code with the package.

One decision is a draw over four latent cells (advice right or wrong x
unaided user right or wrong) with masses p11, p10, p01, p00 set by the
dependency model.  A reliance policy gives each cell (a, u) two numbers:
`use`, the probability that the advice is used, and `q`, the probability of
being correct when it is not.  Every closed form is a sum over the four cells:

    accuracy = sum p(a, u) * [use * a + (1 - use) * q]

Scenarios are plain dicts in the scenario-JSON shape.  With `exact=True`
probabilities and P(both correct) are held to their feasible ranges, as the
model documents; with `exact=False` the same sum is evaluated on the raw
numbers, which keeps it multilinear for central differences across a bound.
"""

from __future__ import annotations

FIXED_RATE = "fixed_rate"
CONDITIONAL = "conditional_from_joint"
# Canonical (advice_correct, accepted_or_used, final_correct) order.
CELLS = tuple((a, used, final) for a in (True, False) for used in (True, False) for final in (True, False))
# Two accuracies within this distance count as tied (the model's tie rule).
TIE = 1e-12
FD_STEP = 1e-6


def mode_of(s: dict) -> str:
    """Explicit degradation mode, else fixed_rate under independence, conditional otherwise."""
    mode = s.get("degradation_mode")
    if mode is not None:
        return mode
    return FIXED_RATE if s["dependency"]["type"] == "independent" else CONDITIONAL


def _unit(x: float) -> float:
    return min(1.0, max(0.0, x))


def latent_cells(s: dict, exact: bool = True) -> dict[tuple[int, int], float]:
    """Masses of the four (advice correct, user would be correct) cells."""
    pa = s["aid"]["p_advice_correct"]
    pu = s["user"]["p_unaided_correct"]
    dep = s["dependency"]
    if exact:
        pa, pu = _unit(pa), _unit(pu)
    if dep["type"] == "independent":
        p11 = pa * pu
    elif dep["type"] == "dominant":
        # The advisor solves everything the user would: P(both) = P(user).
        p11 = min(pa, pu) if exact else pu
    else:
        p11 = dep["p_both_correct"]
        if exact:
            p11 = min(max(p11, pa + pu - 1.0, 0.0), pa, pu)
    p00 = 1.0 - pa - pu + p11
    return {(1, 1): p11, (1, 0): pa - p11, (0, 1): pu - p11, (0, 0): max(0.0, p00) if exact else p00}


def kernel(s: dict) -> dict[tuple[int, int], tuple[float, float]]:
    """(use, q) per latent cell for the scenario's policy."""
    pol = s["policy"]
    kind = pol["type"]
    out = {}
    for a in (1, 0):
        for u in (1, 0):
            if kind == "routine_accept":
                use, q = 1.0, 0.0
            elif kind == "routine_ignore":
                use, q = 0.0, float(u)
            elif kind == "self_gated":
                use = 1.0 - pol["p_ignore_given_user_correct"] if u else pol["p_use_given_user_wrong"]
                q = float(u)
            else:
                if kind == "indiscriminate":
                    ac = aw = pol["p_accept"]
                else:
                    ac, aw = pol["p_accept_given_correct"], pol["p_accept_given_wrong"]
                use = ac if a else aw
                q = s["user"]["p_post_reject_correct"] if mode_of(s) == FIXED_RATE else float(u)
            out[(a, u)] = (use, q)
    return out


def accuracy(s: dict, exact: bool = True) -> float:
    k = kernel(s)
    return sum(p * (k[c][0] * c[0] + (1.0 - k[c][0]) * k[c][1]) for c, p in latent_cells(s, exact).items())


def accept_rate(s: dict) -> float:
    k = kernel(s)
    return sum(p * k[c][0] for c, p in latent_cells(s).items())


def outcome_table(s: dict) -> dict[tuple[bool, bool, bool], float]:
    """The 8-cell (advice_correct, accepted_or_used, final_correct) decomposition."""
    table = dict.fromkeys(CELLS, 0.0)
    k = kernel(s)
    for (a, u), p in latent_cells(s).items():
        use, q = k[(a, u)]
        advice = bool(a)
        table[(advice, True, advice)] += p * use
        table[(advice, False, True)] += p * (1.0 - use) * q
        table[(advice, False, False)] += p * (1.0 - use) * (1.0 - q)
    return table


def potential_combined(s: dict) -> float:
    """P(at least one of advisor and unaided user is correct)."""
    return 1.0 - latent_cells(s)[(0, 0)]


def with_leaf(s: dict, path: str, value: float) -> dict:
    section, key = path.split(".")
    return {**s, section: {**s[section], key: value}}


def with_policy(s: dict, policy: dict) -> dict:
    return {**s, "policy": policy}


def compare(s: dict) -> dict[str, float]:
    """Accuracy of the configured policy and of both routine policies."""
    accs = {
        "routine_ignore": accuracy(with_policy(s, {"type": "routine_ignore"})),
        "routine_accept": accuracy(with_policy(s, {"type": "routine_accept"})),
    }
    accs[s["policy"]["type"]] = accuracy(s)
    return accs


def discrimination_accuracy(s: dict, d: float) -> float:
    """Accuracy of symmetric discrimination d under the scenario's resolved mode."""
    t = with_policy(s, {"type": "discriminating", "p_accept_given_correct": d, "p_accept_given_wrong": 1.0 - d})
    t["degradation_mode"] = mode_of(s)
    return accuracy(t)


def breakeven(s: dict) -> dict:
    """Target, attainability and least d in [0.5, 1] whose accuracy reaches the target.

    Accuracy is affine in d, so its extremes on [0.5, 1] are at the ends and
    the least reaching d is the affine root when the midpoint falls short.
    """
    target = max(_unit(s["aid"]["p_advice_correct"]), _unit(s["user"]["p_unaided_correct"]))
    half, one = discrimination_accuracy(s, 0.5), discrimination_accuracy(s, 1.0)
    if half >= target - TIE:
        d_star = 0.5
    elif one >= target - TIE:
        d_star = 0.5 + 0.5 * (target - half) / (one - half)
    else:
        d_star = None
    return {"target": target, "d_star": d_star, "best": max(half, one), "mode": mode_of(s)}


def affine_root(s: dict, path: str, start: float, stop: float) -> float:
    """Where accuracy, affine in the swept leaf, meets the base unaided rate."""
    ref = s["user"]["p_unaided_correct"]
    lo = accuracy(with_leaf(s, path, start))
    hi = accuracy(with_leaf(s, path, stop))
    return start + (ref - lo) * (stop - start) / (hi - lo)


def leaves(s: dict) -> list[str]:
    """Dot-paths of every numeric leaf of the scenario."""
    return [
        f"{section}.{key}"
        for section in ("aid", "user", "policy", "dependency")
        for key, value in s[section].items()
        if key != "type" and isinstance(value, float)
    ]


def central_difference(s: dict, path: str, h: float = FD_STEP) -> float:
    section, key = path.split(".")
    x = s[section][key]
    up = accuracy(with_leaf(s, path, x + h), exact=False)
    down = accuracy(with_leaf(s, path, x - h), exact=False)
    return (up - down) / (2.0 * h)


def grid(start: float, stop: float, steps: int) -> list[float]:
    width = (stop - start) / (steps - 1)
    return [start + i * width for i in range(steps)]
