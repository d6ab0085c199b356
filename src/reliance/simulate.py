"""Seeded Monte Carlo trial engine: an independent check on every closed form.

Each trial consumes exactly three uniforms in a fixed order (joint latent
draw, policy decision draw, post-rejection solve draw), so the scalar
`sample_trial` and the vectorized `estimate_accuracy` walk the same random
stream and produce identical outcomes for the same seed.  Both read each
policy's one decision from `_decision`, where routine acceptance and ignoring
are use rates 1 and 0.  Shards own disjoint substreams derived
deterministically from (seed, shard index), making every estimate a pure
function of (scenario, n_trials, seed, shards).

The unit of parallel work is a piece: a contiguous run of one shard's
trials.  Each `Generator.random` double takes one 64-bit PCG64 draw, so a
piece starting at trial t jumps the shard's stream ahead by
`DRAWS_PER_TRIAL * t` draws (PCG64's `advance`, O(log t)) and reads exactly
the uniforms the shard would reach after t trials.  Only the non-empty
shards run.  When they are fewer than the CPUs available to the process,
each is cut at whole-batch boundaries into a piece per CPU it has to itself,
none shorter than `_PIECE_BATCHES` batches, so a long one-shard run uses
every CPU.  The pieces run on at most one thread per CPU (numpy releases the
GIL), and a run of one piece stays on the calling thread.  A piece draws
its trials in batches of `_BATCH`, in trial order, and the tallies are
integers, summed in any order: neither the batch size, the cut nor the
thread count ever changes a result.  A piece allocates its buffer once and
copies each batch's draws into one contiguous column per draw, so every
comparison reads contiguous memory; a batch tallies its outcome cells by
counting a few mask intersections.
"""

from __future__ import annotations

import math
import operator
import os
import threading

import numpy as np

from .model import (
    FIXED_RATE,
    OUTCOME_CELLS,
    Discriminating,
    Indiscriminate,
    RoutineAccept,
    RoutineIgnore,
    Scenario,
    SelfGated,
    _Wire,
    _as_float,
    _cell_sums,
    _record,
    conditional_user_rates,
    joint_success_probability,
)

# Uniforms consumed per trial, in fixed order.
DRAWS_PER_TRIAL = 3
# Trials per vectorized batch.  On a 2-CPU x86-64 host (2 MiB of L2 per core),
# 10^7-trial runs cost a median 8.3 ns a trial on one shard and 8.3 on four at
# 2^15, against 8.3 and 7.7 ns at 2^16 and 9.5 and 10.1 ns at 2^14 (6 fresh
# processes each, alternated; one shard took 12.3 ns at 2^15 before shards
# were cut into pieces).  2^16 is within the host's drift for twice each
# piece's buffer: at 2^15 the batch's 1.5 MB of draws and columns and its
# 32 KB masks stay in L2.
_BATCH = 1 << 15
# Fewest batches in a piece cut from a shard.  A piece on its own thread has
# a fixed cost: the thread, its malloc arena and its buffer's first page
# faults.  On the same host, in-process one-shard runs of 4 to 7 batches
# gained x0.79-1.04 from a cut in two, and runs of 10 and 13 batches
# x1.16-1.53 (two sittings, 60-80 alternated calls each).  In fresh
# processes, the first 10^5-trial call (the CLI's default: 4 batches) took a
# median 13.9 ms as one piece, 16.2 ms cut in two on `threading` threads and
# 21.1 ms on a `concurrent.futures` pool, whose import alone takes 4-8 ms;
# the whole `reliance simulate` took 182.8, 196.1 and 198.3 ms (30 each).
_PIECE_BATCHES = 4

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
    """One sampled trial of the decision process; `attended` is whether the
    policy decided on the advice's correctness."""

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
            final_correct) cell; they sum to n_trials, and the two
            `_EMPTY_CELLS`, where used advice is not the final answer, hold 0.
        advice_correct_count / user_correct_count / either_correct_count:
            latent marginals, kept for cross-checks against the configured
            hit rates and the combined-accuracy ceiling.

    `n_trials` and `n_shards` are at least 1.
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

    def __post_init__(self):
        counts, n = self.outcome_counts, self.n_trials
        if n < 1:
            raise ValueError(f"n_trials must be >= 1, got {n!r}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be an int >= 1, got {self.n_shards!r}")
        _, advice, correct = _cell_sums(counts, "outcome_counts", n)
        if not abs(_as_float(self.p_hat) - correct / n) <= 1e-9:
            raise ValueError(f"p_hat {self.p_hat!r} is not the final-correct count {correct} / {n}")
        expected_se = math.sqrt(self.p_hat * (1.0 - self.p_hat) / _as_float(n))
        if abs(_as_float(self.std_err) - expected_se) > 1e-9:
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


# policy class -> (whether it attends, its rates of using the advice when the
# latent bit it decides on is true and when it is false)
_DECISIONS = {
    RoutineAccept: lambda policy: (False, 1.0, 1.0),
    RoutineIgnore: lambda policy: (False, 0.0, 0.0),
    SelfGated: lambda policy: (False, 1.0 - policy.p_ignore_given_user_correct, policy.p_use_given_user_wrong),
    Indiscriminate: lambda policy: (True, policy.p_accept, policy.p_accept),
    Discriminating: lambda policy: (True, policy.p_accept_given_correct, policy.p_accept_given_wrong),
}


def _decision(scenario: Scenario) -> tuple[float, float, tuple[float, float] | None]:
    """The policy's one decision, read by both samplers: (use_if, use_unless, redraw).

    The advice is used at rate `use_if` when the latent bit decided on is
    true, else at `use_unless`.  An attending policy decides on whether the
    advice is correct, and answers a rejection afresh at `redraw`'s rates:
    p_post_reject_correct under fixed_rate, else the conditional user rates.
    Every other policy decides on whether the user would be right alone and
    keeps the latent user's answer (`redraw` None).  The use draw is from
    `Generator.random`'s [0, 1), so `u2 < 1.0` always holds and `u2 < 0.0`
    never does: routine acceptance and ignoring are use rates 1 and 0.
    """
    attends, use_if, use_unless = _DECISIONS[type(scenario.policy)](scenario.policy)
    if not attends:
        return use_if, use_unless, None
    r = scenario.user.p_post_reject_correct
    fixed = scenario.effective_degradation_mode == FIXED_RATE
    return use_if, use_unless, (r, r) if fixed else conditional_user_rates(scenario)


def sample_trial(scenario: Scenario, rng: np.random.Generator) -> TrialOutcome:
    """Draw one trial, consuming exactly DRAWS_PER_TRIAL uniforms from rng."""
    u1, u2, u3 = rng.random(DRAWS_PER_TRIAL)
    c_both, c_advice, c_user = _joint_cell_cuts(scenario)
    advice = bool(u1 < c_advice)
    user = bool(u1 < c_both or (c_advice <= u1 < c_user))
    use_if, use_unless, redraw = _decision(scenario)
    bit = user if redraw is None else advice
    used = bool(u2 < (use_if if bit else use_unless))
    alone = user if redraw is None else bool(u3 < (redraw[0] if advice else redraw[1]))
    return TrialOutcome(advice, user, redraw is not None, used, advice if used else alone)


def _simulate_batch(
    cuts: tuple[float, float, float],
    decision: tuple[float, float, tuple[float, float] | None],
    u: np.ndarray,
) -> tuple[int, ...]:
    """Vectorized batch: trial i draws u[0][i], u[1][i], u[2][i], each a contiguous column.

    Returns the 8 outcome-cell counts in OUTCOME_CELLS order, then the
    advice-correct, user-correct and either-correct latent counts, as ints.
    """
    u1, u2, u3 = u
    c_both, c_advice, c_user = cuts
    # Boolean masks combine with & | ~ rather than np.where: the same
    # comparisons, so the same outcomes, at a fraction of the passes.
    advice = u1 < c_advice
    user = (u1 < c_both) | (~advice & (u1 < c_user))
    use_if, use_unless, redraw = decision
    bit = user if redraw is None else advice
    used = (bit & (u2 < use_if)) | (~bit & (u2 < use_unless))
    alone = user if redraw is None else (advice & (u3 < redraw[0])) | (~advice & (u3 < redraw[1]))
    # A used trial's final answer is the advice's; any other trial's, alone's.
    right_alone = alone & ~used
    n_advice, n_user, n_used, n_advice_used, n_right_alone, n_advice_right_alone, n_both = (
        int(np.count_nonzero(mask))
        for mask in (advice, user, used, advice & used, right_alone, advice & right_alone, advice & user)
    )
    n_wrong_right_alone = n_right_alone - n_advice_right_alone
    n_wrong_unused = len(u1) - n_advice - n_used + n_advice_used
    return (  # in OUTCOME_CELLS order; used advice is never a different answer
        n_advice_used, 0, n_advice_right_alone, n_advice - n_advice_used - n_advice_right_alone,
        0, n_used - n_advice_used, n_wrong_right_alone, n_wrong_unused - n_wrong_right_alone,
        n_advice, n_user, n_advice + n_user - n_both,
    )


def _summed(tallies) -> list[int]:
    """Column sums of equal-length count tuples."""
    return [sum(column) for column in zip(*tallies)]


def _simulate_shard(scenario: Scenario, seed: int, shard: int, start: int, n: int) -> list[int]:
    """Trials start to start + n of one shard, drawn batch by batch from its own substream.

    Each `Generator.random` double takes one 64-bit PCG64 draw, so advancing
    the shard's stream by `DRAWS_PER_TRIAL * start` draws (O(log start))
    reaches exactly where the shard's trial `start` begins; a piece at trial
    0 skips the jump, about 1 us of a 10^4-trial run.  The buffer is
    allocated once: each batch's uniforms are drawn into `draws`, the stream
    `rng.random((m, 3))` would take, and copied into `cols`, one contiguous
    column per draw.
    """
    rng = shard_rng(seed, shard)
    if start:
        rng.bit_generator.advance(DRAWS_PER_TRIAL * start)
    cuts, decision = _joint_cell_cuts(scenario), _decision(scenario)
    size = min(_BATCH, n) * DRAWS_PER_TRIAL
    # One allocation, not two: under glibc's malloc, two such blocks freed
    # together at the heap top exceeded its trim threshold (twice the largest
    # block freed so far), so each call faulted the pages in afresh: 103 page
    # faults a 10^4-trial call with two buffers, under 1 with one.
    buffer = np.empty(2 * size)
    draws = buffer[:size].reshape(-1, DRAWS_PER_TRIAL)
    cols = buffer[size:].reshape(DRAWS_PER_TRIAL, -1)

    def batch(m: int) -> tuple[int, ...]:
        rng.random(out=draws[:m])
        np.copyto(cols[:, :m], draws[:m].T)
        return _simulate_batch(cuts, decision, cols[:, :m])

    return _summed(batch(min(_BATCH, n - done)) for done in range(0, n, _BATCH))


def _pieces(n_trials: int, shards: int, cpus: int) -> list[tuple[int, int, int]]:
    """The (shard, start, n) pieces that together draw all n_trials trials.

    Trials are spread across shards as evenly as possible, remainder to the
    lowest shard indices, and only the non-empty shards get pieces.  A shard
    is one piece, unless there are fewer non-empty shards than CPUs: then it
    is cut at whole-batch boundaries into a piece per CPU it has to itself,
    none shorter than `_PIECE_BATCHES` batches, a partial last batch counted.
    """
    base, remainder = divmod(n_trials, shards)
    used = min(shards, n_trials)
    per_shard = -(-cpus // used)
    pieces = []
    for shard in range(used):
        size = base + (shard < remainder)
        batches = -(-size // _BATCH)
        cut = max(1, min(per_shard, batches // _PIECE_BATCHES))
        start = 0
        for k in range(1, cut + 1):
            stop = min(size, _BATCH * (batches * k // cut))
            pieces.append((shard, start, stop - start))
            start = stop
    return pieces


def _simulate_pieces(scenario: Scenario, seed: int, n_trials: int, shards: int) -> list[int]:
    """The summed tallies of n_trials trials on `shards` shards, cut into
    `_pieces` that run on at most one thread per CPU.

    With one CPU, or a single piece, the calling thread draws every piece
    and no thread starts; otherwise it draws the first group of pieces
    itself.  Tallies are integers, whose sum does not depend on the order
    the pieces finish in.  A worker's exception is raised again on the
    calling thread.
    """
    cpus = _available_cpus()
    pieces = _pieces(n_trials, shards, cpus)
    threads = min(len(pieces), cpus)
    if threads == 1:  # skips the thread path's set-up, 3-5 % of a 10^4-trial run
        return _summed([_simulate_shard(scenario, seed, *piece) for piece in pieces])
    results: list = [None] * threads

    def run(group: int) -> None:
        try:
            results[group] = _summed(_simulate_shard(scenario, seed, *piece) for piece in pieces[group::threads])
        except BaseException as error:  # raised again below, on the calling thread
            results[group] = error

    workers = [threading.Thread(target=run, args=(group,)) for group in range(1, threads)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return _summed(results)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _integer(value, name: str) -> int:
    """`value` as an int through `operator.index`; a bool is refused, as elsewhere."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{name} must be an int, got {value!r}")


def estimate_accuracy(
    scenario: Scenario, n_trials: int, seed: int, shards: int = 1
) -> SimEstimate:
    """Aggregate n_trials Monte Carlo samples into a SimEstimate.

    Deterministic for fixed (scenario, n_trials, seed, shards); trials are
    spread across shards as evenly as possible, remainder to the lowest
    shard indices, and `shards` chooses the substreams, not the CPUs.  Only
    the non-empty shards run, cut into pieces that use every CPU the
    process has (see `_pieces`); batch size, pieces and thread count never
    change the result.  The three counts may be any integers but bools, and
    are recorded as ints.
    """
    n_trials = _integer(n_trials, "n_trials")
    seed, shards = _integer(seed, "seed"), _integer(shards, "shards")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")

    tallies = _simulate_pieces(scenario, seed, n_trials, shards)
    counts, (n_advice, n_user, n_either) = tallies[:8], tallies[8:]
    outcome_counts = dict(zip(OUTCOME_CELLS, counts))
    n_correct = sum(counts[::2])  # even OUTCOME_CELLS indices have final_correct = True
    p_hat = n_correct / n_trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n_trials)
    ci95 = (max(0.0, p_hat - _Z95 * std_err), min(1.0, p_hat + _Z95 * std_err))
    return SimEstimate(
        p_hat=p_hat,
        n_trials=n_trials,
        std_err=std_err,
        ci95=ci95,
        seed=seed,
        n_shards=shards,
        outcome_counts=outcome_counts,
        advice_correct_count=n_advice,
        user_correct_count=n_user,
        either_correct_count=n_either,
    )
