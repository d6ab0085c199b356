"""Command-line front end: evaluate, compare, simulate, sweep, break-even.

Every command reads a scenario JSON file (schema in the README), prints a
JSON envelope with the canonicalized scenario and the result payload, and
follows a stable exit-code contract: 0 success, 1 I/O or parse failure,
2 semantic validation failure, 3 flag misuse.

The simulator and sweeps are imported only by the `simulate` and `sweep`
commands, so `eval`, `compare` and `breakeven` start without them.  numpy
is imported by `simulate` and by a sweep of more than 4096 steps; a smaller
sweep is evaluated as floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any

from . import __version__
from .analytic import breakeven_discrimination, compare_policies, evaluate
from .model import (
    OUTCOME_CELLS,
    Scenario,
    ScenarioValidationError,
    SweepError,
    scenario_to_dict,
    validate_scenario,
)

# All numeric output is rounded to this many significant digits.
SIGNIFICANT_DIGITS = 12

# Upper bounds on user-controlled sizes; exceeding one is flag misuse (exit 3).
MAX_TRIALS = 10**9
MAX_SHARDS = 4096
MAX_STEPS = 10**6


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _csv_cell(value: float) -> str:
    return repr(_round_floats(float(value)))


class _NotJSON(Exception):
    """The scenario file does not decode and parse as JSON."""


def _load_scenario(path: Path) -> Scenario:
    data = path.read_bytes()
    # bad UTF-8 or JSON, an integer literal past int's digit limit, and nesting
    # past the recursion limit all exit 1, not with a traceback
    try:
        raw = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise _NotJSON(exc) from exc
    return validate_scenario(raw)


def _envelope(scenario: Scenario, result: dict[str, Any], notes=()) -> dict[str, Any]:
    return {
        "tool_version": __version__,
        "scenario": scenario_to_dict(scenario),
        "result": result,
        "notes": list(notes),
    }


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps(_round_floats(payload), indent=2))


def cmd_eval(scenario_file: Path, fmt: str):
    """Closed-form aided accuracy with its full outcome decomposition."""
    scenario = _load_scenario(scenario_file)
    result = evaluate(scenario)
    if fmt == "csv":
        lines = ["field,value"]
        lines.append(f"p_correct_aided,{_csv_cell(result.p_correct_aided)}")
        lines.append(f"p_accept_marginal,{_csv_cell(result.p_accept_marginal)}")
        for advice, accepted, final in OUTCOME_CELLS:
            key = f"outcome[advice={advice},accepted={accepted},final={final}]"
            lines.append(f"{key},{_csv_cell(result.outcome_table[(advice, accepted, final)])}")
        print("\n".join(lines))
    else:
        _emit(_envelope(scenario, result.to_dict(), result.notes))


def cmd_compare(scenario_file: Path):
    """Configured policy versus routine acceptance and routine ignoring."""
    scenario = _load_scenario(scenario_file)
    comparison = compare_policies(scenario)
    _emit(_envelope(scenario, comparison.to_dict(), comparison.notes))


def cmd_simulate(scenario_file: Path, trials: int, seed: int, shards: int):
    """Monte Carlo estimate of aided accuracy (deterministic per seed and shards)."""
    from .simulate import estimate_accuracy

    scenario = _load_scenario(scenario_file)
    estimate = estimate_accuracy(scenario, n_trials=trials, seed=seed, shards=shards)
    _emit(_envelope(scenario, estimate.to_dict()))


def cmd_sweep(scenario_file: Path, param: str, start: float, stop: float, steps: int, out: Path):
    """Sweep one parameter and write the accuracy series as CSV."""
    from .sweep import SweepSpec, run_sweep

    scenario = _load_scenario(scenario_file)
    spec = SweepSpec(base=scenario, parameter_path=param, start=start, stop=stop, steps=steps)
    series = run_sweep(spec)
    lines = ["param_value,aided_accuracy,unaided_reference,routine_accept_reference"]
    references = f"{_csv_cell(series.unaided_reference)},{_csv_cell(series.routine_accept_reference)}"
    for value, accuracy in zip(series.parameter_values, series.accuracies):
        lines.append(f"{_csv_cell(value)},{_csv_cell(accuracy)},{references}")
    out.write_text("\n".join(lines) + "\n")
    summary = {
        "parameter_path": series.parameter_path,
        "start": start,
        "stop": stop,
        "steps": steps,
        "unaided_reference": series.unaided_reference,
        "routine_accept_reference": series.routine_accept_reference,
        "accuracy_start": series.accuracies[0],
        "accuracy_stop": series.accuracies[-1],
        "accuracy_min": min(series.accuracies),
        "accuracy_max": max(series.accuracies),
        "out": str(out),
    }
    _emit(_envelope(scenario, summary))


def cmd_breakeven(scenario_file: Path):
    """Smallest symmetric discrimination that matches the better routine policy."""
    scenario = _load_scenario(scenario_file)
    result = breakeven_discrimination(
        scenario.aid, scenario.user, scenario.dependency, mode=scenario.degradation_mode
    )
    notes = ["the scenario's policy section is ignored; discrimination is solved symmetrically"]
    _emit(_envelope(scenario, result.to_dict(), notes))


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags, `--help` without `-h`, and misuse raised as
    `argparse.ArgumentError` (exit 3) instead of printed."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _int_range(lo: int, hi: int):
    def integer(text: str) -> int:  # argparse's message names it: "invalid integer value"
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is not in the range {lo}<=x<={hi}")
        return value

    return integer


_DEFAULT = "(default: %(default)s)"
# command -> its function and options (flag -> add_argument keywords); every option takes a value
_COMMANDS = {
    "eval": (cmd_eval, {
        "--format": dict(dest="fmt", choices=("json", "csv"), default="json", help=f"Output format {_DEFAULT}."),
    }),
    "compare": (cmd_compare, {}),
    "simulate": (cmd_simulate, {
        "--trials": dict(type=_int_range(1, MAX_TRIALS), default=100_000, help=_DEFAULT),
        "--seed": dict(type=int, default=0, help=_DEFAULT),
        "--shards": dict(type=_int_range(1, MAX_SHARDS), default=1, help=_DEFAULT),
    }),
    "sweep": (cmd_sweep, {
        "--param": dict(required=True, help="Dot-path of the swept parameter, e.g. policy.p_accept."),
        "--from": dict(dest="start", type=float, required=True),
        "--to": dict(dest="stop", type=float, required=True),
        "--steps": dict(type=_int_range(2, MAX_STEPS), required=True),
        "--out": dict(type=Path, required=True, help="CSV output file."),
    }),
    "breakeven": (cmd_breakeven, {}),
}
_VALUED = {flag for _, options in _COMMANDS.values() for flag in options}


@functools.cache
def _parser() -> _Parser:
    """The command line's grammar, built on first use; `parse_args` leaves it
    unchanged, so every later call reuses it."""
    parser = _Parser(
        prog="reliance", description="Accuracy of a decision maker who consults a fallible decision aid."
    )
    version = f"reliance, version {__version__}"
    parser.add_argument("--version", action="version", version=version, help="Show the version and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        command.add_argument("scenario_file", metavar="SCENARIO_FILE", type=Path)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the CLI with the exit-code contract; returns the code instead of exiting."""
    # An option's value is the next token, even one argparse would take for a
    # flag (--from -inf): each is passed on as --from=-inf.
    joined, tokens = [], iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUED else None
        joined.append(token if value is None else f"{token}={value}")
    try:
        args = vars(_parser().parse_args(joined))
    except SystemExit as exc:  # --help and --version
        return exc.code
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        args.pop("run")(**args)
    except (ScenarioValidationError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NotJSON as exc:
        print(f"error: scenario file is not valid JSON: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
