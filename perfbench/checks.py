"""Compare program outputs, in their dict or JSON form, with the oracle.

Each check returns a list of error strings; an empty list means the output
is correct.  `Tol` is the allowed distance from the oracle: 1e-12 absolute
for closed forms, 1e-9 for scenarios that lean on the validation slack, and
12 significant digits for numbers printed by the CLI.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import oracle

# Monte Carlo: allowed distance from the oracle in standard errors, plus a
# floor of Z trials so that cells with an expected count near zero cannot
# fail on a single stray trial.
Z = 6.0
FD_TOLERANCE = 1e-7
CROSSING_TOLERANCE = 1e-8
# Cells a decision cannot reach: correct advice adopted yet a wrong answer,
# and wrong advice adopted yet a right one.
IMPOSSIBLE_CELLS = ((True, True, False), (False, True, True))


class Tol(NamedTuple):
    abs: float
    rel: float = 0.0


EXACT = Tol(1e-12)
SLACK = Tol(1e-9)
CLI = Tol(1e-15, 1e-11)
CLI_SLACK = Tol(1e-9, 1e-11)


def leans_on_slack(s: dict) -> bool:
    """Whether the scenario is valid only thanks to the 1e-9 cross-field slack."""
    pa, pu = s["aid"]["p_advice_correct"], s["user"]["p_unaided_correct"]
    dep = s["dependency"]
    if dep["type"] == "dominant":
        return pa < pu
    if dep["type"] == "joint":
        return not max(0.0, pa + pu - 1.0) <= dep["p_both_correct"] <= min(pa, pu)
    return False


def tol_for(s: dict, cli: bool = False) -> Tol:
    slack = leans_on_slack(s)
    if cli:
        return CLI_SLACK if slack else CLI
    return SLACK if slack else EXACT


def _close(got, want: float, tol: Tol) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol.abs + tol.rel * abs(want)


def _expect(errors: list, what: str, got, want: float, tol: Tol) -> None:
    if not _close(got, want, tol):
        errors.append(f"{what}: got {got!r}, oracle {want!r}")


def _same(got, want, tol: Tol) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(_same(got[k], want[k], tol) for k in want)
    if isinstance(want, float):
        return _close(got, want, tol)
    return got == want


def check_scenario_dict(s: dict, canon: dict, tol: Tol = Tol(0.0)) -> list[str]:
    """The canonical form is the input with the degradation mode made explicit."""
    want = {**s, "degradation_mode": oracle.mode_of(s)}
    return [] if _same(canon, want, tol) else [f"scenario_to_dict: got {canon!r}, expected {want!r}"]


def check_eval(s: dict, res: dict, tol: Tol) -> list[str]:
    errors: list[str] = []
    _expect(errors, "p_correct_aided", res["p_correct_aided"], oracle.accuracy(s), tol)
    _expect(errors, "p_accept_marginal", res["p_accept_marginal"], oracle.accept_rate(s), tol)
    table = oracle.outcome_table(s)
    rows = {(r["advice_correct"], r["accepted_or_used"], r["final_correct"]): r["probability"] for r in res["outcome_table"]}
    if set(rows) != set(oracle.CELLS):
        return errors + [f"outcome_table cells {sorted(rows)}"]
    for cell, p in rows.items():
        if not p >= 0.0:
            errors.append(f"outcome cell {cell} negative: {p!r}")
        _expect(errors, f"outcome cell {cell}", p, table[cell], tol)
    _expect(errors, "outcome_table sum", sum(rows.values()), 1.0, tol)
    correct = sum(p for (_, _, final), p in rows.items() if final)
    _expect(errors, "final-correct mass", correct, res["p_correct_aided"], tol)
    return errors


def check_compare(s: dict, res: dict, tol: Tol) -> list[str]:
    configured = s["policy"]["type"]
    want = oracle.compare(s)
    if res["configured_policy"] != configured or set(res["results"]) != set(want):
        return [f"compare: policies {sorted(res['results'])}, configured {res['configured_policy']!r}"]
    errors: list[str] = []
    for name, sub in res["results"].items():
        policy = s["policy"] if name == configured else {"type": name}
        errors += [f"compare[{name}] {e}" for e in check_eval(oracle.with_policy(s, policy), sub, tol)]
    top = max(want.values())
    best = res["best_policy"]
    if best not in want or want[best] < top - oracle.TIE - tol.abs - tol.rel * top:
        errors.append(f"compare: best_policy {best!r} does not attain the oracle maximum {top!r}")
    else:
        for name, margin in res["margins"].items():
            _expect(errors, f"compare margin[{name}]", margin, max(0.0, want[best] - want[name]), tol)
    return errors


def check_breakeven(s: dict, res: dict, tol: Tol) -> list[str]:
    want = oracle.breakeven(s)
    errors: list[str] = []
    _expect(errors, "breakeven target", res["target"], want["target"], tol)
    if res["degradation_mode"] != want["mode"]:
        errors.append(f"breakeven mode {res['degradation_mode']!r}, oracle {want['mode']!r}")
    d = res["d_star"]
    attained = d != "unattainable"
    # A best accuracy within rounding of the target may go either way.
    if abs(want["best"] - want["target"]) > 1e-9 and attained != (want["d_star"] is not None):
        return errors + [f"breakeven verdict {d!r}, oracle {want['d_star']!r}"]
    if not attained:
        if res["accuracy_at_d_star"] is not None:
            errors.append(f"breakeven accuracy_at_d_star {res['accuracy_at_d_star']!r} without d_star")
        return errors
    if not (isinstance(d, (int, float)) and 0.5 <= d <= 1.0):
        return errors + [f"breakeven d_star {d!r} outside [0.5, 1]"]
    acc = oracle.discrimination_accuracy(s, d)
    _expect(errors, "breakeven accuracy_at_d_star", res["accuracy_at_d_star"], acc, tol)
    if acc < want["target"] - oracle.TIE - tol.abs - tol.rel * want["target"]:
        errors.append(f"breakeven: oracle accuracy {acc!r} at d_star {d!r} misses target {want['target']!r}")
    if d > 0.5:
        # Past the midpoint the least reaching d sits on the target line.
        _expect(errors, "breakeven accuracy at an interior d_star", acc, want["target"], tol)
    return errors


def check_potential(s: dict, value, tol: Tol) -> list[str]:
    errors: list[str] = []
    _expect(errors, "potential_combined", value, oracle.potential_combined(s), tol)
    return errors


def check_sensitivity(s: dict, partials: dict) -> list[str]:
    leaves = oracle.leaves(s)
    errors = [f"sensitivity: {k!r} is not a leaf of the scenario" for k in partials if k not in leaves]
    for leaf in leaves:
        cd = oracle.central_difference(s, leaf)
        got = partials.get(leaf, 0.0)
        if abs(got - cd) > FD_TOLERANCE:
            errors.append(f"sensitivity[{leaf}]: got {partials.get(leaf)!r}, oracle central difference {cd!r}")
    return errors


def check_sweep(s: dict, path: str, start: float, stop: float, steps: int, values, accuracies, refs, tol: Tol) -> list[str]:
    """Grid, accuracies and the two reference lines of one sweep."""
    errors: list[str] = []
    if len(values) != steps or len(accuracies) != steps:
        return [f"sweep: {len(values)} values and {len(accuracies)} accuracies, expected {steps}"]
    unaided, accept = refs
    _expect(errors, "sweep unaided_reference", unaided, s["user"]["p_unaided_correct"], tol)
    _expect(errors, "sweep routine_accept_reference", accept, s["aid"]["p_advice_correct"], tol)
    for i, (x, want_x, acc) in enumerate(zip(values, oracle.grid(start, stop, steps), accuracies)):
        _expect(errors, f"sweep value[{i}]", x, want_x, Tol(tol.abs, max(tol.rel, 1e-15)))
        _expect(errors, f"sweep accuracy[{i}] at {x!r}", acc, oracle.accuracy(oracle.with_leaf(s, path, x)), tol)
        if len(errors) > 3:
            break
    return errors


def check_crossing(s: dict, path: str, start: float, stop: float, x) -> list[str]:
    root = oracle.affine_root(s, path, start, stop)
    if x is None or abs(x - root) > CROSSING_TOLERANCE:
        return [f"crossing on {path}: got {x!r}, oracle affine root {root!r}"]
    return []


def _within(n: int, count: int, p: float) -> bool:
    return abs(count - n * p) <= Z * math.sqrt(n * p * max(0.0, 1.0 - p)) + Z


def check_sim(s: dict, est: dict, n: int) -> list[str]:
    """Monte Carlo estimate against the oracle, per headline and per cell."""
    errors: list[str] = []
    counts = {(r["advice_correct"], r["accepted_or_used"], r["final_correct"]): r["count"] for r in est["outcome_counts"]}
    if est["n_trials"] != n or sum(counts.values()) != n or set(counts) != set(oracle.CELLS):
        return [f"simulate: n_trials {est['n_trials']}, counts {counts}, expected {n} trials"]
    table = oracle.outcome_table(s)
    for cell, count in counts.items():
        if cell in IMPOSSIBLE_CELLS and count:
            errors.append(f"simulate: impossible cell {cell} has {count} trials")
        elif not _within(n, count, table[cell]):
            errors.append(f"simulate cell {cell}: {count} of {n}, oracle mass {table[cell]!r}")
    correct = sum(c for (_, _, final), c in counts.items() if final)
    if not _close(est["p_hat"], correct / n, Tol(1e-15, 1e-11)):
        errors.append(f"simulate: p_hat {est['p_hat']!r} is not {correct}/{n}")
    if not _within(n, correct, oracle.accuracy(s)):
        errors.append(f"simulate: p_hat {est['p_hat']!r}, oracle accuracy {oracle.accuracy(s)!r}")
    cells = oracle.latent_cells(s)
    for name, want in (
        ("advice_correct_count", cells[(1, 1)] + cells[(1, 0)]),
        ("user_correct_count", cells[(1, 1)] + cells[(0, 1)]),
        ("either_correct_count", 1.0 - cells[(0, 0)]),
    ):
        if not _within(n, est[name], want):
            errors.append(f"simulate {name}: {est[name]} of {n}, oracle {want!r}")
    return errors


def check_one_trial(est: dict, trial) -> list[str]:
    """A one-trial estimate against sample_trial on shard 0's stream."""
    cell = (trial.advice_correct, trial.accepted_or_used, trial.final_correct)
    counts = {(r["advice_correct"], r["accepted_or_used"], r["final_correct"]): r["count"] for r in est["outcome_counts"]}
    if counts.get(cell) != 1 or est["advice_correct_count"] != int(trial.advice_correct) or est["user_correct_count"] != int(
        trial.user_would_be_correct
    ):
        return [f"one-trial estimate {counts} differs from sample_trial {trial}"]
    return []


def parse_eval_csv(text: str) -> dict:
    """The `eval --format csv` output in the shape of EvalResult.to_dict()."""
    fields = dict(line.rsplit(",", 1) for line in text.strip().splitlines()[1:])
    rows = []
    for key, value in fields.items():
        if key.startswith("outcome["):
            parts = dict(p.split("=") for p in key[len("outcome[") : -1].split(","))
            rows.append(
                {
                    "advice_correct": parts["advice"] == "True",
                    "accepted_or_used": parts["accepted"] == "True",
                    "final_correct": parts["final"] == "True",
                    "probability": float(value),
                }
            )
    return {
        "p_correct_aided": float(fields["p_correct_aided"]),
        "p_accept_marginal": float(fields["p_accept_marginal"]),
        "outcome_table": rows,
    }


def parse_sweep_csv(text: str):
    """(values, accuracies, (unaided, routine_accept) references) of a sweep CSV."""
    lines = text.strip().splitlines()
    if lines[0] != "param_value,aided_accuracy,unaided_reference,routine_accept_reference":
        raise ValueError(f"unexpected sweep CSV header {lines[0]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    refs = {(r[2], r[3]) for r in rows}
    if len(refs) != 1:
        raise ValueError(f"sweep CSV reference columns vary: {sorted(refs)[:3]}")
    return [r[0] for r in rows], [r[1] for r in rows], refs.pop()
