"""Monte Carlo engine: determinism, stream equivalence, and oracle agreement."""

import json
import math
import re
import sys
import threading

import numpy as np
import pytest

from reliance.analytic import compare_policies, evaluate
from reliance import simulate
from reliance.model import (
    CONDITIONAL_FROM_JOINT,
    FIXED_RATE,
    Discriminating,
    Dominant,
    Independent,
    Indiscriminate,
    Joint,
    OUTCOME_CELLS,
    RoutineAccept,
    RoutineIgnore,
    SelfGated,
    _EMPTY_CELLS,
    _POLICIES,
    scenario_to_dict,
)
from reliance.simulate import (
    SimEstimate,
    estimate_accuracy,
    sample_trial,
    shard_rng,
)

from conftest import edge_scenarios, make_scenario, random_scenario, read_back


class TestSampleTrial:
    def test_routine_accept_final_always_matches_advice(self):
        scenario = make_scenario(policy=RoutineAccept())
        rng = shard_rng(1, 0)
        for _ in range(1000):
            trial = sample_trial(scenario, rng)
            assert trial.accepted_or_used
            assert trial.final_correct == trial.advice_correct

    def test_routine_ignore_final_always_matches_user(self):
        scenario = make_scenario(policy=RoutineIgnore())
        rng = shard_rng(2, 0)
        for _ in range(1000):
            trial = sample_trial(scenario, rng)
            assert not trial.accepted_or_used
            assert not trial.attended
            assert trial.final_correct == trial.user_would_be_correct

    def test_dominant_never_yields_user_right_advice_wrong(self):
        scenario = make_scenario(policy=Indiscriminate(0.5), dependency=Dominant())
        rng = shard_rng(3, 0)
        for _ in range(2000):
            trial = sample_trial(scenario, rng)
            assert not (trial.user_would_be_correct and not trial.advice_correct)

    def test_accepted_trials_inherit_advice_correctness(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scenario = random_scenario(rng, explicit_mode=True)
            draw = shard_rng(int(rng.integers(1 << 32)), 0)
            for _ in range(200):
                trial = sample_trial(scenario, draw)
                if trial.accepted_or_used:
                    assert trial.final_correct == trial.advice_correct

    def test_only_attend_policies_mark_attended(self):
        rng = shard_rng(5, 0)
        attended = sample_trial(make_scenario(policy=Discriminating(0.7, 0.3)), rng)
        assert attended.attended
        gated = sample_trial(make_scenario(policy=SelfGated(0.7, 0.7)), rng)
        assert not gated.attended


class TestDeterminism:
    def test_identical_inputs_identical_estimates(self, base_scenario):
        first = estimate_accuracy(base_scenario, 50_000, seed=42, shards=1)
        second = estimate_accuracy(base_scenario, 50_000, seed=42, shards=1)
        assert first == second
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_different_seeds_differ(self, base_scenario):
        a = estimate_accuracy(base_scenario, 50_000, seed=1)
        b = estimate_accuracy(base_scenario, 50_000, seed=2)
        assert a.outcome_counts != b.outcome_counts

    def test_sharded_runs_reproducible_for_fixed_shard_count(self, base_scenario):
        a = estimate_accuracy(base_scenario, 30_001, seed=9, shards=4)
        b = estimate_accuracy(base_scenario, 30_001, seed=9, shards=4)
        assert a == b
        assert a.n_shards == 4

    @pytest.mark.parametrize("mode", [FIXED_RATE, CONDITIONAL_FROM_JOINT])
    @pytest.mark.parametrize("dependency", ["independent", "joint", "dominant"])
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    def test_scalar_and_vectorized_paths_share_the_stream(self, policy, dependency, mode):
        rng = np.random.default_rng(13)
        for _ in range(2):
            scenario = random_scenario(rng, policy_kind=policy, dependency_kind=dependency, mode=mode)
            canonical = scenario_to_dict(scenario)
            assert (canonical["policy"]["type"], canonical["dependency"]["type"]) == (policy, dependency)
            assert canonical["degradation_mode"] == mode
            seed = int(rng.integers(1 << 48))
            assert_replayed(estimate_accuracy(scenario, 500, seed=seed, shards=1), scenario)

    @pytest.mark.filterwarnings("ignore::reliance.model.DegradedRateWarning")
    def test_edge_values_match_the_scalar_replay_across_batches(self, monkeypatch):
        # over batches of 4
        monkeypatch.setattr(simulate, "_BATCH", 4)
        runs = 0
        for k, scenario in edge_scenarios():
            estimate = estimate_accuracy(scenario, 29, seed=k, shards=1 + k % 2)
            assert_replayed(estimate, scenario)
            runs += 1
        assert runs >= 800

    @pytest.mark.filterwarnings("ignore::reliance.model.DegradedRateWarning")
    def test_every_table_the_library_builds_leaves_the_empty_cells_exactly_zero(self):
        # the empty cells are 0 and 0.0, not -0.0
        rng = np.random.default_rng(61)
        interior = [random_scenario(rng, explicit_mode=True) for _ in range(200)]
        for k, scenario in [*edge_scenarios(), *enumerate(interior)]:
            estimate = estimate_accuracy(scenario, 29, seed=k)
            assert [repr(estimate.outcome_counts[cell]) for cell in _EMPTY_CELLS] == ["0", "0"]
            results = [evaluate(scenario), *compare_policies(scenario).results.values()]
            for result in results:
                assert [repr(result.outcome_table[cell]) for cell in _EMPTY_CELLS] == ["0.0", "0.0"]

    def test_negative_seed_is_normalized_not_fatal(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 100, seed=-7)
        assert estimate.n_trials == 100


def assert_replayed(estimate, scenario):
    """The estimate's outcome and latent counts are those of `sample_trial`
    replaying each shard's stream, trial by trial."""
    counts, advice, user, either = {cell: 0 for cell in OUTCOME_CELLS}, 0, 0, 0
    n, shards = estimate.n_trials, estimate.n_shards
    for shard in range(min(shards, n)):
        replay = shard_rng(estimate.seed, shard)
        for _ in range(n // shards + (shard < n % shards)):
            trial = sample_trial(scenario, replay)
            counts[(trial.advice_correct, trial.accepted_or_used, trial.final_correct)] += 1
            advice += trial.advice_correct
            user += trial.user_would_be_correct
            either += trial.advice_correct or trial.user_would_be_correct
    assert counts == estimate.outcome_counts
    assert (advice, user, either) == (
        estimate.advice_correct_count,
        estimate.user_correct_count,
        estimate.either_correct_count,
    )


_PIECES = simulate._PIECE_BATCHES

GOLDEN_SCENARIOS = {
    "discriminating": lambda: make_scenario(
        policy=Discriminating(0.8, 0.3), dependency=Joint(0.5), mode=CONDITIONAL_FROM_JOINT
    ),
    "self_gated": lambda: make_scenario(policy=SelfGated(0.8, 0.3), dependency=Dominant()),
    # every other policy, and the fixed-rate redraw, on the discriminating golden's latent cells
    "routine_accept": lambda: make_scenario(policy=RoutineAccept(), dependency=Joint(0.5), mode=FIXED_RATE),
    "routine_ignore": lambda: make_scenario(policy=RoutineIgnore(), dependency=Joint(0.5), mode=FIXED_RATE),
    "indiscriminate": lambda: make_scenario(
        policy=Indiscriminate(0.6), dependency=Joint(0.5), mode=FIXED_RATE
    ),
    "discriminating_fixed_rate": lambda: make_scenario(
        policy=Discriminating(0.8, 0.3), dependency=Joint(0.5), mode=FIXED_RATE
    ),
}

# (scenario, seed, shards, n_trials, p_hat, outcome counts in OUTCOME_CELLS
# order, (advice, user, either) latent counts), computed once with the
# serial 1M-batch engine.  Batch size, pieces and threads must never move them.
GOLDEN = [
    ("discriminating", 0, 1, 1, 0.0, (0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0)),
    ("discriminating", 7, 1, 70_001, 0.7311038413736947,
     (39410, 0, 6924, 2776, 0, 6270, 4844, 9777), (49110, 42064, 56086)),
    ("discriminating", 7, 3, 70_001, 0.7286181625976772,
     (39063, 0, 7074, 2729, 0, 6417, 4867, 9851), (48866, 41996, 55905)),
    ("discriminating", 12345, 4, 1_000_003, 0.7302938091185727,
     (559850, 0, 100588, 39870, 0, 89966, 69858, 139871), (700308, 600677, 800353)),
    ("discriminating", 4, 8, 3, 0.3333333333333333, (1, 0, 0, 0, 0, 1, 0, 1), (1, 1, 1)),
    ("self_gated", 0, 1, 1, 0.0, (0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0)),
    ("self_gated", 7, 1, 70_001, 0.6300195711489835,
     (10339, 0, 33763, 5008, 0, 6270, 0, 14621), (49110, 42029, 49110)),
    ("self_gated", 7, 3, 70_001, 0.627976743189383,
     (10345, 0, 33614, 4907, 0, 6417, 0, 14718), (48866, 41874, 48866)),
    ("self_gated", 12345, 4, 1_000_003, 0.6301851094446717,
     (149646, 0, 480541, 70121, 0, 89966, 0, 209729), (700308, 600213, 700308)),
    ("self_gated", 4, 8, 3, 0.3333333333333333, (0, 0, 1, 0, 0, 1, 0, 1), (1, 1, 1)),
    ("routine_accept", 7, 1, 70_001, 0.7015614062656248,
     (49110, 0, 0, 0, 0, 20891, 0, 0), (49110, 42064, 56086)),
    ("routine_accept", 7, 3, 70_001, 0.6980757417751176,
     (48866, 0, 0, 0, 0, 21135, 0, 0), (48866, 41996, 55905)),
    ("routine_ignore", 7, 1, 70_001, 0.6009057013471236,
     (0, 0, 35088, 14022, 0, 0, 6976, 13915), (49110, 42064, 56086)),
    ("routine_ignore", 7, 3, 70_001, 0.5999342866530478,
     (0, 0, 34957, 13909, 0, 0, 7039, 14096), (48866, 41996, 55905)),
    ("indiscriminate", 7, 1, 70_001, 0.5784345937915173,
     (29403, 0, 7773, 11934, 0, 12606, 3315, 4970), (49110, 42064, 56086)),
    ("indiscriminate", 7, 3, 70_001, 0.5754346366480478,
     (29212, 0, 7795, 11859, 0, 12788, 3274, 5073), (48866, 41996, 55905)),
    ("discriminating_fixed_rate", 7, 1, 70_001, 0.7017471178983158,
     (39410, 0, 3884, 5816, 0, 6270, 5829, 8792), (49110, 42064, 56086)),
    ("discriminating_fixed_rate", 7, 3, 70_001, 0.6968471878973157,
     (39063, 0, 3917, 5886, 0, 6417, 5800, 8918), (48866, 41996, 55905)),
]


def assert_golden(estimate, p_hat, cells, latent):
    assert estimate.p_hat == p_hat
    assert tuple(estimate.outcome_counts[cell] for cell in OUTCOME_CELLS) == cells
    assert (
        estimate.advice_correct_count,
        estimate.user_correct_count,
        estimate.either_correct_count,
    ) == latent


class TestGoldenValues:
    @pytest.mark.parametrize("name,seed,shards,n_trials,p_hat,cells,latent", GOLDEN)
    def test_pinned_estimate(self, name, seed, shards, n_trials, p_hat, cells, latent):
        estimate = estimate_accuracy(GOLDEN_SCENARIOS[name](), n_trials, seed, shards)
        assert (estimate.seed, estimate.n_shards, estimate.n_trials) == (seed, shards, n_trials)
        assert_golden(estimate, p_hat, cells, latent)
        # built without the value rules, which only `from_dict` runs
        assert read_back(estimate) == estimate

    # 1 << 16 was the default batch before; 3,001 trials on 3 shards leave
    # each shard fewer trials than any batch of 1000 or more.
    @pytest.mark.parametrize(
        "batch,n_trials",
        [(1, 3_001), (7, 70_001), (1000, 70_001), (1000, 3_001), (1 << 16, 70_001), (1 << 16, 3_001)],
    )
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_batch_size_never_changes_the_estimate(self, monkeypatch, name, batch, n_trials):
        scenario = GOLDEN_SCENARIOS[name]()
        reference = estimate_accuracy(scenario, n_trials, seed=7, shards=3)
        monkeypatch.setattr(simulate, "_BATCH", batch)
        assert estimate_accuracy(scenario, n_trials, seed=7, shards=3) == reference

    # With batches of 1000, a 70,001-trial shard has 71 batches, enough to be
    # cut into a piece per CPU it has to itself: every row with fewer shards
    # than CPUs, one-shard rows included, runs as several pieces.
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_thread_count_never_changes_the_estimate(self, monkeypatch, name, cpus):
        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(simulate, "_BATCH", 1000)
        for case in GOLDEN:
            if case[0] == name:
                _, seed, shards, n_trials, p_hat, cells, latent = case
                estimate = estimate_accuracy(GOLDEN_SCENARIOS[name](), n_trials, seed, shards)
                assert_golden(estimate, p_hat, cells, latent)

    @pytest.mark.parametrize("shard", [0, 3])
    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
    def test_a_jump_of_whole_trials_reaches_the_drawn_stream(self, seed, shard):
        for k in (0, 1, 7, 1000, (1 << 15) + 1):
            jumped, drawn = shard_rng(seed, shard), shard_rng(seed, shard)
            jumped.bit_generator.advance(simulate.DRAWS_PER_TRIAL * k)
            drawn.random(simulate.DRAWS_PER_TRIAL * k)
            assert jumped.random(9).tolist() == drawn.random(9).tolist()

    # With batches of 1000: (n_trials, shards, cpus, pieces).  A shard of 71
    # batches is cut into a piece per CPU it has to itself, one of 7 batches
    # is not cut, and 3 shards on 2 CPUs are one piece each.
    @pytest.mark.parametrize(
        "n_trials,shards,cpus,n_pieces",
        [(70_001, 1, 2, 2), (70_001, 1, 5, 5), (70_001, 3, 5, 6), (70_001, 3, 2, 3),
         (7_001, 1, 2, 2), (7_000, 1, 2, 1), (3, 8, 4, 3), (1_000_003, 4, 3, 4)],
    )
    def test_pieces_cover_every_trial_from_whole_batch_starts(self, monkeypatch, n_trials, shards, cpus, n_pieces):
        monkeypatch.setattr(simulate, "_BATCH", 1000)
        pieces = simulate._pieces(n_trials, shards, cpus)
        assert len(pieces) == n_pieces
        assert sum(n for _, _, n in pieces) == n_trials
        for shard in range(min(shards, n_trials)):
            own = [(start, n) for s, start, n in pieces if s == shard]
            assert [start for start, _ in own] == [sum(n for _, n in own[:i]) for i in range(len(own))]
            assert all(start % 1000 == 0 and n > 0 for start, n in own)

    # With batches of 1000, a shard is cut into pieces of at least
    # _PIECE_BATCHES batches: it needs 2 * _PIECE_BATCHES batches, the last
    # of them partial, to be cut in two.
    @pytest.mark.parametrize(
        "cpus,n_trials,n_threads",
        [(2, 1000, 1), (2, 1000 * (2 * _PIECES - 1), 1), (2, 1000 * (2 * _PIECES - 1) + 1, 2),
         (2, 1000 * 10 * _PIECES, 2), (3, 1000 * 10 * _PIECES, 3)],
    )
    def test_one_shard_of_two_pieces_or_more_draws_on_every_cpu(self, monkeypatch, base_scenario, cpus, n_trials, n_threads):
        threads = []

        def recording_shard_rng(seed, shard):
            threads.append(threading.current_thread())
            return shard_rng(seed, shard)

        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(simulate, "_BATCH", 1000)
        reference = estimate_accuracy(base_scenario, n_trials, seed=5)
        monkeypatch.setattr(simulate, "shard_rng", recording_shard_rng)
        assert estimate_accuracy(base_scenario, n_trials, seed=5) == reference
        assert len(set(threads)) == len(threads) == n_threads
        assert threading.main_thread() in threads

    def test_an_error_in_a_worker_thread_is_raised_on_the_caller(self, monkeypatch, base_scenario):
        def failing_shard_rng(seed, shard):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room for the draws")
            return shard_rng(seed, shard)

        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "shard_rng", failing_shard_rng)
        with pytest.raises(MemoryError, match="no room for the draws"):
            estimate_accuracy(base_scenario, 100, seed=5, shards=2)

    # 18 pieces on 16 threads, far more than the cores, switching as often as
    # the interpreter allows: a lost or doubled tally would move the estimate.
    def test_threads_switching_rapidly_lose_no_tally(self, monkeypatch, base_scenario):
        reference = estimate_accuracy(base_scenario, 20_011, seed=9, shards=3)
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 16)
        monkeypatch.setattr(simulate, "_BATCH", 100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimate = estimate_accuracy(base_scenario, 20_011, seed=9, shards=3)
        finally:
            sys.setswitchinterval(interval)
        assert estimate == reference

    def test_huge_shard_count_runs_only_the_nonempty_shards(self, monkeypatch, base_scenario):
        calls = []

        def recording_shard_rng(seed, shard):
            calls.append((shard, threading.current_thread()))
            return shard_rng(seed, shard)

        monkeypatch.setattr(simulate, "shard_rng", recording_shard_rng)
        estimate = estimate_accuracy(base_scenario, 1, seed=3, shards=10**6)
        assert calls == [(0, threading.main_thread())]
        assert estimate.n_shards == 10**6
        assert estimate.outcome_counts == estimate_accuracy(base_scenario, 1, seed=3).outcome_counts


class TestEstimateAccuracy:
    def test_single_trial_is_zero_or_one(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 1, seed=3)
        assert estimate.p_hat in (0.0, 1.0)
        assert estimate.std_err == 0.0

    def test_counts_sum_to_trials(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 12_345, seed=8, shards=3)
        assert sum(estimate.outcome_counts.values()) == 12_345

    def test_zero_trials_rejected(self, base_scenario):
        with pytest.raises(ValueError):
            estimate_accuracy(base_scenario, 0, seed=1)
        with pytest.raises(ValueError):
            estimate_accuracy(base_scenario, 100, seed=1, shards=0)

    def test_numpy_integer_counts_are_recorded_as_ints(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, np.int64(100), np.int64(1), np.uint8(2))
        assert [type(value) for value in (estimate.n_trials, estimate.seed, estimate.n_shards)] == [int] * 3
        assert estimate == estimate_accuracy(base_scenario, 100, 1, 2)
        assert json.loads(json.dumps(estimate.to_dict()))["n_trials"] == 100

    @pytest.mark.parametrize("value", [True, False, 100.0])
    @pytest.mark.parametrize("name", ["n_trials", "seed", "shards"])
    def test_a_bool_or_float_count_is_a_type_error_naming_it(self, base_scenario, name, value):
        counts = {"n_trials": 100, "seed": 1, "shards": 1, name: value}
        with pytest.raises(TypeError, match=rf"^{name} must be an int, got {value!r}$"):
            estimate_accuracy(base_scenario, **counts)

    def test_more_shards_than_trials_is_fine(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 3, seed=4, shards=8)
        assert estimate.n_trials == 3

    def test_std_err_formula(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 10_000, seed=5)
        expected = math.sqrt(estimate.p_hat * (1 - estimate.p_hat) / 10_000)
        assert estimate.std_err == pytest.approx(expected, abs=1e-15)
        assert estimate.ci95[0] <= estimate.p_hat <= estimate.ci95[1]

    def test_dict_round_trip(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 1000, seed=6, shards=2)
        assert SimEstimate.from_dict(estimate.to_dict()) == estimate

    def test_inconsistent_construction_rejected(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 1000, seed=7)
        for key, edit, message in [
            ("n_trials", lambda value: 999, "outcome_counts sum to 1000, expected 999"),
            ("outcome_counts", lambda rows: rows[:-1], "outcome_counts must cover exactly the 8"),
            ("std_err", lambda value: value + 1e-6, "std_err inconsistent with p_hat and n_trials"),
            ("ci95", lambda value: [0.9, 0.95], "ci95 .* is not an interval"),
            ("ci95", lambda value: [value[1], value[0]], "ci95 .* is not an interval"),
            ("ci95", lambda value: [-0.1, value[1]], "ci95 .* is not an interval"),
        ]:
            data = estimate.to_dict()
            data[key] = edit(data[key])
            with pytest.raises(ValueError, match=f"^SimEstimate {message}"):
                SimEstimate.from_dict(data)
        for ci95 in [[0.9, 0.95, 0.99], [estimate.ci95[0]]]:
            with pytest.raises(TypeError, match=rf"^SimEstimate ci95 must be a list of 2 items, got {re.escape(repr(ci95))}$"):
                SimEstimate.from_dict({**estimate.to_dict(), "ci95": ci95})

    def test_zero_trials_is_a_value_error_naming_n_trials(self, base_scenario):
        data = estimate_accuracy(base_scenario, 1000, seed=7).to_dict()
        data.update(n_trials=0, p_hat=0.0, std_err=0.0, ci95=[0.0, 0.0], advice_correct_count=0,
                    user_correct_count=0, either_correct_count=0)
        for row in data["outcome_counts"]:
            row["count"] = 0
        with pytest.raises(ValueError, match=r"^SimEstimate n_trials must be >= 1, got 0$"):
            SimEstimate.from_dict(data)

    def test_p_hat_and_latent_counts_must_fit_the_cells(self, base_scenario):
        estimate = estimate_accuracy(base_scenario, 1000, seed=7)
        advice, user = estimate.advice_correct_count, estimate.user_correct_count
        p = 0.9  # with its own std_err and ci95, so only the count disagrees
        for changes, message in [
            ({"p_hat": p, "std_err": math.sqrt(p * (1 - p) / 1000), "ci95": [0.88, 0.92]},
             r"^SimEstimate p_hat 0\.9 is not the final-correct count 546 / 1000$"),
            ({"advice_correct_count": 5}, rf"^SimEstimate advice_correct_count 5 is not its cells' {advice}$"),
            ({"user_correct_count": 999_999}, r"^SimEstimate user_correct_count 999999 not in \[0, 1000\]$"),
            ({"user_correct_count": -1}, r"^SimEstimate user_correct_count -1 not in \[0, 1000\]$"),
            ({"either_correct_count": 3}, rf"^SimEstimate either_correct_count 3 not in \[{max(advice, user)}, 1000\]$"),
            ({"either_correct_count": 1001}, "^SimEstimate either_correct_count 1001 not in"),
        ]:
            with pytest.raises(ValueError, match=message):
                SimEstimate.from_dict({**estimate.to_dict(), **changes})
        assert (advice, user, estimate.p_hat) == (668, 595, 0.546)


    @staticmethod
    def moved(estimate, donor, cell, trials):
        """The estimate's dict with `trials` trials moved from cell `donor`, or
        from none, to `cell`."""
        data = estimate.to_dict()
        for row in data["outcome_counts"]:
            key = (row["advice_correct"], row["accepted_or_used"], row["final_correct"])
            row["count"] += trials if key == cell else -trials if key == donor else 0
        return data

    # Each move keeps the total, advice-correct and final-correct counts that
    # the estimate checks; each read back before the cells were checked.
    @pytest.mark.parametrize(
        "donor,cell,trials,named",
        [
            ((False, False, False), (False, True, False), 500, r"\(False, False, False\) holds -406, not in \[0, 1000\]"),
            ((False, False, False), (False, True, False), 95, r"\(False, False, False\) holds -1, not in \[0, 1000\]"),
            ((False, False, False), (True, True, True), 673, r"\(True, True, True\) holds 1001, not in \[0, 1000\]"),
            ((True, False, False), (True, True, False), 3, r"\(True, True, False\) holds 3, not in \[0, 0\]$"),
            ((False, False, True), (False, True, True), 3, r"\(False, True, True\) holds 3, not in \[0, 0\]$"),
        ],
        ids=["negative", "minus_one", "past_n_trials", "empty_right_advice", "empty_wrong_advice"],
    )
    def test_a_count_outside_its_cell_is_named(self, base_scenario, donor, cell, trials, named):
        estimate = estimate_accuracy(base_scenario, 1000, seed=7)
        with pytest.raises(ValueError, match=f"^SimEstimate outcome_counts cell {named}"):
            SimEstimate.from_dict(self.moved(estimate, donor, cell, trials))

    @pytest.mark.parametrize("cell", _EMPTY_CELLS)
    def test_a_single_trial_in_an_empty_cell_is_named(self, base_scenario, cell):
        # its count is n_trials, the top of the range
        estimate = estimate_accuracy(base_scenario, 1, seed=7)
        (donor,) = [key for key, count in estimate.outcome_counts.items() if count]
        with pytest.raises(ValueError, match=rf"^SimEstimate outcome_counts cell {re.escape(str(cell))} holds 1, not in \[0, 0\]$"):
            SimEstimate.from_dict(self.moved(estimate, donor, cell, 1))

    def test_a_single_trial_counted_twice_is_a_sum_not_a_cell(self, base_scenario):
        # the estimate's one count is n_trials, the top of its range
        estimate = estimate_accuracy(base_scenario, 1, seed=7)
        (cell,) = [key for key, count in estimate.outcome_counts.items() if count]
        other = (False, False, False) if cell != (False, False, False) else (True, True, True)
        with pytest.raises(ValueError, match=r"^SimEstimate outcome_counts sum to 2, expected 1$"):
            SimEstimate.from_dict(self.moved(estimate, None, other, 1))

    # `test_wire.py::test_a_bad_seed_or_shard_count_is_named` covers `n_trials` and `seed`
    @pytest.mark.parametrize("key", ["n_shards", "advice_correct_count", "user_correct_count", "either_correct_count"])
    def test_a_float_for_an_integer_field_is_a_type_error_naming_it(self, base_scenario, key):
        data = estimate_accuracy(base_scenario, 1000, seed=7).to_dict()
        value = data[key] = float(data[key])
        with pytest.raises(TypeError, match=rf"^SimEstimate {key} must be an int, got {value!r}$"):
            SimEstimate.from_dict(data)

    def test_float_counts_are_a_type_error_naming_the_first_cell(self, base_scenario):
        data = estimate_accuracy(base_scenario, 1000, seed=7).to_dict()
        for row in data["outcome_counts"]:
            row["count"] = float(row["count"])
        with pytest.raises(TypeError, match=r"^SimEstimate outcome_counts\[0\]\['count'\] must be an int, got 328\.0$"):
            SimEstimate.from_dict(data)


class TestOracleAgreement:
    N = 200_000

    def check(self, scenario, seed):
        analytic = evaluate(scenario)
        estimate = estimate_accuracy(scenario, self.N, seed=seed)
        band = 4 * max(estimate.std_err, 1e-9)
        assert abs(estimate.p_hat - analytic.p_correct_aided) < band
        return analytic, estimate

    def test_worked_examples(self, base_scenario):
        self.check(base_scenario, seed=101)
        self.check(make_scenario(policy=Discriminating(0.7, 0.3)), seed=102)
        self.check(make_scenario(p_a=0.55, policy=Discriminating(0.9, 0.1)), seed=103)
        self.check(make_scenario(policy=SelfGated(0.7, 0.7)), seed=104)
        self.check(
            make_scenario(policy=Discriminating(0.7, 0.3), dependency=Dominant()), seed=105
        )

    def test_random_scenarios_all_policies(self):
        rng = np.random.default_rng(53)
        for kind in ("routine_accept", "routine_ignore", "indiscriminate", "discriminating", "self_gated"):
            scenario = random_scenario(rng, policy_kind=kind, explicit_mode=True)
            self.check(scenario, seed=int(rng.integers(1 << 32)))

    def test_self_gated_with_dependency_only_simulated(self):
        # the simulated accuracy against a direct law-of-total-probability
        # computation and against the closed form
        scenario = make_scenario(policy=SelfGated(0.7, 0.7), dependency=Joint(0.5))
        estimate = estimate_accuracy(scenario, self.N, seed=106)
        p_a, p_u, p11 = 0.7, 0.6, 0.5
        g_c, g_w = 0.7, 0.7
        p10, p01, p00 = p_a - p11, p_u - p11, 1 - p_a - p_u + p11
        expected = (
            p11 * (g_c + (1 - g_c) * 1.0)      # user right, advice right: ignore or use both win
            + p01 * g_c                         # user right, advice wrong: only ignoring wins
            + p10 * g_w                         # user wrong, advice right: only using wins
            + p00 * 0.0
        )
        assert abs(estimate.p_hat - expected) < 4 * estimate.std_err
        closed_form = evaluate(scenario).p_correct_aided
        assert closed_form == pytest.approx(expected, abs=1e-12)
        assert abs(estimate.p_hat - closed_form) < 4 * estimate.std_err

    def test_marginal_recovery_per_dependency(self):
        for dependency in (Independent(), Joint(0.5), Dominant()):
            scenario = make_scenario(policy=Indiscriminate(0.5), dependency=dependency)
            estimate = estimate_accuracy(scenario, self.N, seed=107)
            se_a = math.sqrt(0.7 * 0.3 / self.N)
            se_u = math.sqrt(0.6 * 0.4 / self.N)
            assert abs(estimate.advice_correct_count / self.N - 0.7) < 4 * se_a
            assert abs(estimate.user_correct_count / self.N - 0.6) < 4 * se_u

    def test_acceptance_marginal_matches_analytic(self):
        scenario = make_scenario(policy=Discriminating(0.7, 0.3))
        analytic = evaluate(scenario)
        estimate = estimate_accuracy(scenario, self.N, seed=108)
        accepted = sum(
            count for (_, used, _), count in estimate.outcome_counts.items() if used
        )
        p = analytic.p_accept_marginal
        se = math.sqrt(p * (1 - p) / self.N)
        assert abs(accepted / self.N - p) < 4 * se

    def test_outcome_cells_match_analytic(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            scenario = random_scenario(rng, explicit_mode=True)
            analytic = evaluate(scenario)
            estimate = estimate_accuracy(scenario, self.N, seed=int(rng.integers(1 << 32)))
            for cell in OUTCOME_CELLS:
                q = analytic.outcome_table[cell]
                se = math.sqrt(q * (1 - q) / self.N)
                observed = estimate.outcome_counts[cell] / self.N
                if se == 0.0:
                    assert observed == q
                else:
                    assert abs(observed - q) < 5 * se

    def test_indiscriminate_equals_tied_discriminating_per_draw(self):
        base = make_scenario(policy=Indiscriminate(0.35))
        tied = make_scenario(policy=Discriminating(0.35, 0.35))
        a = estimate_accuracy(base, 50_000, seed=109)
        b = estimate_accuracy(tied, 50_000, seed=109)
        assert a.outcome_counts == b.outcome_counts

    def test_either_correct_tracks_combined_ceiling(self, base_scenario):
        from reliance.analytic import potential_combined

        estimate = estimate_accuracy(base_scenario, self.N, seed=110)
        ceiling = potential_combined(base_scenario.aid, base_scenario.user, base_scenario.dependency)
        se = math.sqrt(ceiling * (1 - ceiling) / self.N)
        assert abs(estimate.either_correct_count / self.N - ceiling) < 4 * se
