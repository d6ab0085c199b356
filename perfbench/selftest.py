"""Self-test of the benchmark's oracle and output checks; imports nothing from the package.

    python3 perfbench/selftest.py

The oracle is checked against values worked by hand, and every output check
is shown to reject a deliberately perturbed result, so the checks bite.
"""

from __future__ import annotations

import math
import unittest

import checks
import oracle

README_EXAMPLE = {
    "aid": {"p_advice_correct": 0.7},
    "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
    "policy": {"type": "indiscriminate", "p_accept": 0.5},
    "dependency": {"type": "independent"},
    "degradation_mode": "fixed_rate",
}
# The self_gated case under a joint dependency: p11 = .55, p10 = .15, p01 = .05, p00 = .25.
SELF_GATED_JOINT = {
    "aid": {"p_advice_correct": 0.7},
    "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
    "policy": {"type": "self_gated", "p_ignore_given_user_correct": 0.8, "p_use_given_user_wrong": 0.3},
    "dependency": {"type": "joint", "p_both_correct": 0.55},
}
DEPENDENCIES = ({"type": "independent"}, {"type": "joint", "p_both_correct": 0.35}, {"type": "dominant"})


def scenario(policy: dict, dependency: dict, mode: str | None = "fixed_rate", pa=0.7, pu=0.6, r=0.4) -> dict:
    s = {
        "aid": {"p_advice_correct": pa},
        "user": {"p_unaided_correct": pu, "p_post_reject_correct": r},
        "policy": policy,
        "dependency": dependency,
    }
    if mode is not None:
        s["degradation_mode"] = mode
    return s


def eval_dict(s: dict) -> dict:
    """A correct result in the shape of EvalResult.to_dict(), built from the oracle."""
    table = oracle.outcome_table(s)
    return {
        "p_correct_aided": oracle.accuracy(s),
        "p_accept_marginal": oracle.accept_rate(s),
        "outcome_table": [
            {"advice_correct": a, "accepted_or_used": u, "final_correct": f, "probability": table[(a, u, f)]}
            for a, u, f in oracle.CELLS
        ],
    }


def sim_dict(s: dict, n: int) -> dict:
    """Outcome counts at their expectation, in the shape of SimEstimate.to_dict()."""
    table = oracle.outcome_table(s)
    counts = {cell: round(n * p) for cell, p in table.items()}
    counts[(False, False, False)] += n - sum(counts.values())
    cells = oracle.latent_cells(s)
    correct = sum(c for (_, _, f), c in counts.items() if f)
    return {
        "p_hat": correct / n,
        "n_trials": n,
        "outcome_counts": [
            {"advice_correct": a, "accepted_or_used": u, "final_correct": f, "count": counts[(a, u, f)]}
            for a, u, f in oracle.CELLS
        ],
        "advice_correct_count": round(n * (cells[(1, 1)] + cells[(1, 0)])),
        "user_correct_count": round(n * (cells[(1, 1)] + cells[(0, 1)])),
        "either_correct_count": round(n * (1.0 - cells[(0, 0)])),
    }


class HandWorkedValues(unittest.TestCase):
    def test_readme_example(self):
        self.assertAlmostEqual(oracle.accuracy(README_EXAMPLE), 0.55, places=15)

    def test_routine_accept_is_the_advisor_rate(self):
        for dep in DEPENDENCIES:
            for mode in ("fixed_rate", "conditional_from_joint", None):
                self.assertAlmostEqual(oracle.accuracy(scenario({"type": "routine_accept"}, dep, mode)), 0.7, places=15)

    def test_routine_ignore_is_the_unaided_rate(self):
        for dep in DEPENDENCIES:
            for mode in ("fixed_rate", "conditional_from_joint", None):
                self.assertAlmostEqual(oracle.accuracy(scenario({"type": "routine_ignore"}, dep, mode)), 0.6, places=15)

    def test_self_gated_is_p11_plus_p01_gc_plus_p10_gw(self):
        # .55 + .05 * .8 + .15 * .3
        self.assertAlmostEqual(oracle.accuracy(SELF_GATED_JOINT), 0.635, places=15)
        dominant = {**SELF_GATED_JOINT, "dependency": {"type": "dominant"}}
        # p11 = .6, p10 = .1, p01 = 0: .6 + .1 * .3
        self.assertAlmostEqual(oracle.accuracy(dominant), 0.63, places=15)
        independent = {**SELF_GATED_JOINT, "dependency": {"type": "independent"}}
        # p11 = .42, p10 = .28, p01 = .18: .42 + .18 * .8 + .28 * .3
        self.assertAlmostEqual(oracle.accuracy(independent), 0.648, places=15)

    def test_self_gated_partial_in_the_gate_is_p01(self):
        self.assertAlmostEqual(oracle.central_difference(SELF_GATED_JOINT, "policy.p_ignore_given_user_correct"), 0.05, places=9)
        self.assertAlmostEqual(oracle.central_difference(SELF_GATED_JOINT, "dependency.p_both_correct"), 1.0 - 0.8 - 0.3, places=9)

    def test_conditional_mode_rejected_advice_falls_back_to_the_latent_user(self):
        # Rejecting everything under conditional_from_joint recovers the unaided rate.
        s = scenario({"type": "indiscriminate", "p_accept": 0.0}, DEPENDENCIES[1], "conditional_from_joint")
        self.assertAlmostEqual(oracle.accuracy(s), 0.6, places=15)

    def test_tables_sum_to_one_and_carry_the_headline(self):
        for dep in DEPENDENCIES:
            s = scenario({"type": "discriminating", "p_accept_given_correct": 0.9, "p_accept_given_wrong": 0.2}, dep)
            table = oracle.outcome_table(s)
            self.assertAlmostEqual(sum(table.values()), 1.0, places=15)
            self.assertAlmostEqual(sum(p for (_, _, f), p in table.items() if f), oracle.accuracy(s), places=15)

    def test_frechet_lower_end_empties_the_neither_cell(self):
        s = scenario({"type": "routine_ignore"}, {"type": "joint", "p_both_correct": 0.3})
        self.assertAlmostEqual(oracle.latent_cells(s)[(0, 0)], 0.0, places=15)
        self.assertAlmostEqual(oracle.potential_combined(s), 1.0, places=15)

    def test_breakeven_is_the_affine_root(self):
        # Fixed rate .4: accuracy(d) = .28 + .54 d reaches max(.7, .6) at d = 7/9.
        be = oracle.breakeven(README_EXAMPLE)
        self.assertAlmostEqual(be["d_star"], 7.0 / 9.0, places=14)
        self.assertEqual(be["target"], 0.7)
        weak = {**README_EXAMPLE, "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.0}}
        # accuracy(1) = .7 reaches the target exactly, so d = 1 is attainable; with pu = .75 it is not.
        self.assertAlmostEqual(oracle.breakeven(weak)["d_star"], 1.0, places=14)
        weak["user"]["p_unaided_correct"] = 0.75
        self.assertIsNone(oracle.breakeven(weak)["d_star"])

    def test_crossing_root(self):
        # .7 p + .4 (1 - p) = .6 at p = 2/3.
        self.assertAlmostEqual(oracle.affine_root(README_EXAMPLE, "policy.p_accept", 0.0, 1.0), 2.0 / 3.0, places=14)

    def test_mode_default(self):
        self.assertEqual(oracle.mode_of(scenario({"type": "routine_accept"}, DEPENDENCIES[0], None)), "fixed_rate")
        self.assertEqual(oracle.mode_of(scenario({"type": "routine_accept"}, DEPENDENCIES[2], None)), "conditional_from_joint")


class ChecksBite(unittest.TestCase):
    """Each check passes a correct result and rejects a perturbed one."""

    S = scenario({"type": "discriminating", "p_accept_given_correct": 0.8, "p_accept_given_wrong": 0.3}, DEPENDENCIES[1], None)

    def test_eval(self):
        good = eval_dict(self.S)
        self.assertEqual(checks.check_eval(self.S, good, checks.EXACT), [])
        bad = {**good, "p_correct_aided": good["p_correct_aided"] + 1e-9}
        self.assertTrue(checks.check_eval(self.S, bad, checks.EXACT))
        rows = [dict(r) for r in good["outcome_table"]]
        rows[0]["probability"], rows[2]["probability"] = rows[2]["probability"], rows[0]["probability"]
        self.assertTrue(checks.check_eval(self.S, {**good, "outcome_table": rows}, checks.EXACT))

    def test_eval_at_cli_precision(self):
        good = eval_dict(self.S)
        printed = {**good, "p_correct_aided": float(f"{good['p_correct_aided']:.12g}")}
        self.assertEqual(checks.check_eval(self.S, printed, checks.CLI), [])
        off = {**good, "p_correct_aided": good["p_correct_aided"] * (1 + 1e-9)}
        self.assertTrue(checks.check_eval(self.S, off, checks.CLI))

    def test_compare_best_policy(self):
        accs = oracle.compare(self.S)
        results = {name: eval_dict(oracle.with_policy(self.S, self.S["policy"] if name == "discriminating" else {"type": name})) for name in accs}
        best = max(accs, key=accs.get)
        good = {
            "results": results,
            "configured_policy": "discriminating",
            "best_policy": best,
            "margins": {n: accs[best] - a for n, a in accs.items()},
        }
        self.assertEqual(checks.check_compare(self.S, good, checks.EXACT), [])
        worst = min(accs, key=accs.get)
        self.assertTrue(checks.check_compare(self.S, {**good, "best_policy": worst}, checks.EXACT))

    def test_breakeven(self):
        want = oracle.breakeven(README_EXAMPLE)
        good = {"d_star": want["d_star"], "target": 0.7, "accuracy_at_d_star": 0.7, "degradation_mode": "fixed_rate"}
        self.assertEqual(checks.check_breakeven(README_EXAMPLE, good, checks.EXACT), [])
        late = {**good, "d_star": want["d_star"] + 0.01, "accuracy_at_d_star": oracle.discrimination_accuracy(README_EXAMPLE, want["d_star"] + 0.01)}
        self.assertTrue(checks.check_breakeven(README_EXAMPLE, late, checks.EXACT))
        early = {**good, "d_star": want["d_star"] - 0.01, "accuracy_at_d_star": oracle.discrimination_accuracy(README_EXAMPLE, want["d_star"] - 0.01)}
        self.assertTrue(checks.check_breakeven(README_EXAMPLE, early, checks.EXACT))
        verdict = {**good, "d_star": "unattainable", "accuracy_at_d_star": None}
        self.assertTrue(checks.check_breakeven(README_EXAMPLE, verdict, checks.EXACT))

    def test_sensitivity_catches_the_independent_partials_of_self_gated(self):
        exact = {leaf: oracle.central_difference(SELF_GATED_JOINT, leaf) for leaf in oracle.leaves(SELF_GATED_JOINT)}
        exact = {k: v for k, v in exact.items() if abs(v) > 1e-12}
        self.assertEqual(checks.check_sensitivity(SELF_GATED_JOINT, exact), [])
        # The partials the package reports today for this case (independent model).
        p_a, p_u, g_c, g_w = 0.7, 0.6, 0.8, 0.3
        wrong = {
            "aid.p_advice_correct": (1 - g_c) * p_u + g_w * (1 - p_u),
            "user.p_unaided_correct": g_c + p_a * (1 - g_c) - p_a * g_w,
            "policy.p_ignore_given_user_correct": p_u * (1 - p_a),
            "policy.p_use_given_user_wrong": p_a * (1 - p_u),
        }
        self.assertTrue(checks.check_sensitivity(SELF_GATED_JOINT, wrong))
        missing = dict(exact)
        del missing["dependency.p_both_correct"]
        self.assertTrue(checks.check_sensitivity(SELF_GATED_JOINT, missing))

    def test_sweep_and_crossing(self):
        path, steps = "policy.p_accept", 11
        xs = oracle.grid(0.0, 1.0, steps)
        accs = [oracle.accuracy(oracle.with_leaf(README_EXAMPLE, path, x)) for x in xs]
        refs = (0.6, 0.7)
        self.assertEqual(checks.check_sweep(README_EXAMPLE, path, 0.0, 1.0, steps, xs, accs, refs, checks.EXACT), [])
        bent = accs[:5] + [accs[5] + 1e-9] + accs[6:]
        self.assertTrue(checks.check_sweep(README_EXAMPLE, path, 0.0, 1.0, steps, xs, bent, refs, checks.EXACT))
        self.assertTrue(checks.check_sweep(README_EXAMPLE, path, 0.0, 1.0, steps, xs[:-1], accs[:-1], refs, checks.EXACT))
        root = 2.0 / 3.0
        self.assertEqual(checks.check_crossing(README_EXAMPLE, path, 0.0, 1.0, root + 1e-9), [])
        self.assertTrue(checks.check_crossing(README_EXAMPLE, path, 0.0, 1.0, root + 1e-7))
        self.assertTrue(checks.check_crossing(README_EXAMPLE, path, 0.0, 1.0, None))

    def test_monte_carlo(self):
        n = 1_000_000
        good = sim_dict(self.S, n)
        self.assertEqual(checks.check_sim(self.S, good, n), [])
        table = oracle.outcome_table(self.S)
        shift = math.ceil(7 * math.sqrt(n * table[(True, True, True)]))
        rows = [dict(r) for r in good["outcome_counts"]]
        rows[0]["count"] += shift  # (True, True, True)
        rows[3]["count"] -= shift  # (True, False, False)
        skewed = {**good, "outcome_counts": rows, "p_hat": good["p_hat"] + shift / n}
        self.assertTrue(checks.check_sim(self.S, skewed, n))
        rows = [dict(r) for r in good["outcome_counts"]]
        rows[1]["count"] += 1  # (True, True, False) cannot happen
        rows[3]["count"] -= 1
        self.assertTrue(checks.check_sim(self.S, {**good, "outcome_counts": rows}, n))
        self.assertTrue(checks.check_sim(self.S, good, n + 1))

    def test_scenario_dict(self):
        canon = {**self.S, "degradation_mode": "conditional_from_joint"}
        self.assertEqual(checks.check_scenario_dict(self.S, canon), [])
        self.assertTrue(checks.check_scenario_dict(self.S, self.S))
        self.assertTrue(checks.check_scenario_dict(self.S, {**canon, "aid": {"p_advice_correct": 0.7 + 1e-12}}))

    def test_slack_scenarios_are_recognised(self):
        self.assertFalse(checks.leans_on_slack(self.S))
        over = scenario({"type": "routine_accept"}, {"type": "joint", "p_both_correct": 0.6 + 5e-10})
        self.assertTrue(checks.leans_on_slack(over))
        below = scenario({"type": "routine_accept"}, {"type": "dominant"}, pa=0.6 - 5e-10)
        self.assertTrue(checks.leans_on_slack(below))


if __name__ == "__main__":
    unittest.main()
