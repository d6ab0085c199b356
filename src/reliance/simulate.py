"""Seeded Monte Carlo trial engine: an independent check on every closed form.

Each trial consumes exactly three uniforms in a fixed order (joint latent
draw, policy decision draw, post-rejection solve draw), so the scalar
`sample_trial` and the vectorized `estimate_accuracy` walk the same random
stream and produce identical outcomes for the same seed.  Shards own disjoint
substreams derived deterministically from (seed, shard index), making every
estimate a pure function of (scenario, n_trials, seed, shards).

Only the non-empty shards run, in parallel threads (numpy releases the GIL)
capped at the CPUs available to the process.  Each shard draws its trials in
cache-sized batches that consume its substream in trial order, so neither the
batch size nor the thread count ever changes a result.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .model import (
    FIXED_RATE,
    Indiscriminate,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    SelfGated,
    _TUPLE,
    _Wire,
    _cells,
    _record,
    check_cells,
    conditional_rates,
    joint_success_probability,
)

# Uniforms consumed per trial, in fixed order.
DRAWS_PER_TRIAL = 3
# Trials per vectorized batch: the batch's uniforms and masks stay cache-sized.
_BATCH = 1 << 16

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def shard_rng(seed: int, shard: int) -> np.random.Generator:
    """Deterministic substream for one shard.

    The 64-bit seed (taken modulo 2**64) is fed to numpy's SeedSequence as
    entropy with the shard index as spawn key; SeedSequence's documented
    hash mixing keeps substreams decorrelated.
    """
    entropy = int(seed) % (1 << 64)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(shard,)))


@_record
class TrialOutcome:
    """One sampled trial of the decision process."""

    advice_correct: bool
    user_would_be_correct: bool
    attended: bool
    accepted_or_used: bool
    final_correct: bool


@_record
class SimEstimate(_Wire):
    """Monte Carlo estimate of aided accuracy with its outcome counts.

    Attributes:
        p_hat: fraction of trials with a correct final answer.
        std_err: binomial standard error sqrt(p_hat * (1 - p_hat) / n).
        ci95: normal-approximation 95% interval, clipped to [0, 1].
        outcome_counts: trial counts per (advice_correct, accepted_or_used,
            final_correct) cell; they sum to n_trials.
        advice_correct_count / user_correct_count / either_correct_count:
            latent marginals, kept for cross-checks against the configured
            hit rates and the combined-accuracy ceiling.
    """

    p_hat: float
    n_trials: int
    std_err: float
    ci95: tuple[float, float]
    seed: int
    n_shards: int
    outcome_counts: dict[tuple[bool, bool, bool], int]
    advice_correct_count: int
    user_correct_count: int
    either_correct_count: int

    _CODECS = {"ci95": _TUPLE, "outcome_counts": _cells("count")}

    def __post_init__(self):
        check_cells(self.outcome_counts, "outcome_counts")
        n = self.n_trials
        total = advice = correct = 0
        for (advice_correct, _, final), count in self.outcome_counts.items():
            total += count
            advice += count if advice_correct else 0
            correct += count if final else 0
        if total != n:
            raise ValueError(f"outcome_counts sum to {total}, expected {n}")
        if n < 1:
            raise ValueError(f"n_trials must be >= 1, got {n!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if isinstance(self.n_shards, bool) or not isinstance(self.n_shards, int) or self.n_shards < 1:
            raise ValueError(f"n_shards must be an int >= 1, got {self.n_shards!r}")
        if not abs(self.p_hat - correct / n) <= 1e-9:
            raise ValueError(f"p_hat {self.p_hat!r} is not the final-correct count {correct} / {n}")
        expected_se = math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_trials)
        if abs(self.std_err - expected_se) > 1e-9:
            raise ValueError("std_err inconsistent with p_hat and n_trials")
        if len(self.ci95) != 2 or not 0.0 <= self.ci95[0] <= self.p_hat <= self.ci95[1] <= 1.0:
            raise ValueError(f"ci95 {self.ci95!r} is not an interval in [0, 1] that holds p_hat")
        user, either = self.user_correct_count, self.either_correct_count
        if self.advice_correct_count != advice:
            raise ValueError(f"advice_correct_count {self.advice_correct_count} is not its cells' {advice}")
        if not 0 <= user <= n:
            raise ValueError(f"user_correct_count {user} not in [0, {n}]")
        lo, hi = max(advice, user), min(n, advice + user)
        if not lo <= either <= hi:
            raise ValueError(f"either_correct_count {either} not in [{lo}, {hi}]")


def _joint_cell_cuts(scenario: Scenario) -> tuple[float, float, float]:
    """Cumulative cuts for the four-cell joint latent draw.

    u < p11 -> both correct; u < p_a -> advice only; u < p_a + p01 -> user
    only; otherwise neither.
    """
    p_a = scenario.aid.p_advice_correct
    p_u = scenario.user.p_unaided_correct
    p11 = joint_success_probability(scenario.dependency, scenario.leaves)
    p01 = max(0.0, p_u - p11)
    return p11, p_a, p_a + p01


def _post_reject_rates(scenario: Scenario) -> tuple[float, float]:
    """Rates of solving correctly alone after rejecting correct and wrong advice:
    p_post_reject_correct under fixed_rate, else the conditional user rates."""
    if scenario.effective_degradation_mode == FIXED_RATE:
        r = scenario.user.p_post_reject_correct
        return r, r
    return conditional_rates(scenario.dependency, scenario.leaves)


def sample_trial(scenario: Scenario, rng: np.random.Generator) -> TrialOutcome:
    """Draw one trial, consuming exactly DRAWS_PER_TRIAL uniforms from rng."""
    u1, u2, u3 = rng.random(DRAWS_PER_TRIAL)
    c_both, c_advice, c_user = _joint_cell_cuts(scenario)
    advice = bool(u1 < c_advice)
    user = bool(u1 < c_both or (c_advice <= u1 < c_user))

    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        return TrialOutcome(advice, user, False, True, advice)
    if isinstance(policy, RoutineIgnore):
        return TrialOutcome(advice, user, False, False, user)
    if isinstance(policy, SelfGated):
        use_threshold = (1.0 - policy.p_ignore_given_user_correct) if user else policy.p_use_given_user_wrong
        used = bool(u2 < use_threshold)
        return TrialOutcome(advice, user, False, used, advice if used else user)

    if isinstance(policy, Indiscriminate):
        ac = aw = policy.p_accept
    else:
        ac, aw = policy.p_accept_given_correct, policy.p_accept_given_wrong
    accepted = bool(u2 < (ac if advice else aw))
    if accepted:
        return TrialOutcome(advice, user, True, True, advice)
    u_c, u_w = _post_reject_rates(scenario)
    final = bool(u3 < (u_c if advice else u_w))
    return TrialOutcome(advice, user, True, False, final)


def _simulate_batch(scenario: Scenario, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized batch of n trials.

    Returns the 8 outcome-cell counts followed by the advice-correct,
    user-correct and either-correct marginal counts, as one int64 vector.
    """
    u = rng.random((n, DRAWS_PER_TRIAL))
    u1, u2, u3 = u[:, 0], u[:, 1], u[:, 2]
    c_both, c_advice, c_user = _joint_cell_cuts(scenario)
    # Boolean masks combine with & | ~ rather than np.where: the same
    # comparisons, so the same outcomes, at a fraction of the passes.
    advice = u1 < c_advice
    user = (u1 < c_both) | (~advice & (u1 < c_user))

    policy = scenario.policy
    if isinstance(policy, RoutineAccept):
        accepted = np.ones(n, dtype=bool)
        final = advice
    elif isinstance(policy, RoutineIgnore):
        accepted = np.zeros(n, dtype=bool)
        final = user
    elif isinstance(policy, SelfGated):
        use_if_right = 1.0 - policy.p_ignore_given_user_correct
        accepted = (user & (u2 < use_if_right)) | (~user & (u2 < policy.p_use_given_user_wrong))
        final = (accepted & advice) | (~accepted & user)
    else:
        if isinstance(policy, Indiscriminate):
            ac = aw = policy.p_accept
        else:
            ac, aw = policy.p_accept_given_correct, policy.p_accept_given_wrong
        accepted = (advice & (u2 < ac)) | (~advice & (u2 < aw))
        u_c, u_w = _post_reject_rates(scenario)
        solved_alone = (advice & (u3 < u_c)) | (~advice & (u3 < u_w))
        final = (accepted & advice) | (~accepted & solved_alone)

    # cell = 4*advice + 2*accepted + final, built in place on one uint8 array
    cell = advice.view(np.uint8) << 2
    cell += accepted.view(np.uint8)
    cell += accepted.view(np.uint8)
    cell += final.view(np.uint8)
    n_advice = np.count_nonzero(advice)
    n_user = np.count_nonzero(user)
    n_either = n_advice + n_user - np.count_nonzero(advice & user)
    return np.append(np.bincount(cell, minlength=8), (n_advice, n_user, n_either))


def _simulate_shard(scenario: Scenario, n: int, seed: int, shard: int) -> np.ndarray:
    """All n trials of one shard, drawn batch by batch from its own substream."""
    rng = shard_rng(seed, shard)
    return sum(
        _simulate_batch(scenario, min(_BATCH, n - done), rng) for done in range(0, n, _BATCH)
    )


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def estimate_accuracy(
    scenario: Scenario, n_trials: int, seed: int, shards: int = 1
) -> SimEstimate:
    """Aggregate n_trials Monte Carlo samples into a SimEstimate.

    Deterministic for fixed (scenario, n_trials, seed, shards); trials are
    spread across shards as evenly as possible, remainder to the lowest
    shard indices.  Only the non-empty shards run, on at most as many
    threads as the process has CPUs; batch size and thread count never
    change the result.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")

    base, remainder = divmod(n_trials, shards)
    sizes = [base + (1 if shard < remainder else 0) for shard in range(min(shards, n_trials))]
    workers = min(len(sizes), _available_cpus())
    if workers == 1:
        results = [
            _simulate_shard(scenario, size, seed, shard) for shard, size in enumerate(sizes)
        ]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_simulate_shard, scenario, size, seed, shard)
                for shard, size in enumerate(sizes)
            ]
            results = [future.result() for future in futures]
    tallies = sum(results)  # in shard order
    counts = tallies[:8]
    n_advice, n_user, n_either = (int(count) for count in tallies[8:])

    n_correct = int(counts[1::2].sum())  # odd cell indices have final_correct = True
    p_hat = n_correct / n_trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n_trials)
    ci95 = (max(0.0, p_hat - _Z95 * std_err), min(1.0, p_hat + _Z95 * std_err))
    outcome_counts = {
        (bool(idx & 4), bool(idx & 2), bool(idx & 1)): int(counts[idx]) for idx in range(8)
    }
    return SimEstimate(
        p_hat=p_hat,
        n_trials=n_trials,
        std_err=std_err,
        ci95=ci95,
        seed=int(seed),
        n_shards=int(shards),
        outcome_counts=outcome_counts,
        advice_correct_count=n_advice,
        user_correct_count=n_user,
        either_correct_count=n_either,
    )
