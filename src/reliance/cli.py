"""Command-line front end: evaluate, compare, simulate, sweep, break-even.

Every command reads a scenario JSON file (schema in the README), prints a
JSON envelope with the canonicalized scenario and the result payload, and
follows a stable exit-code contract: 0 success, 1 I/O or parse failure,
2 semantic validation failure, 3 flag misuse.

numpy, the simulator and sweeps are imported only by the `simulate` and
`sweep` commands, so `eval`, `compare` and `breakeven` start without them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import click

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


def _load_scenario(path: Path) -> Scenario:
    raw = json.loads(path.read_text())
    return validate_scenario(raw)


def _envelope(scenario: Scenario, result: dict[str, Any], notes=()) -> dict[str, Any]:
    return {
        "tool_version": __version__,
        "scenario": scenario_to_dict(scenario),
        "result": result,
        "notes": list(notes),
    }


def _emit(payload: dict[str, Any]) -> None:
    click.echo(json.dumps(_round_floats(payload), indent=2))


@click.group()
@click.version_option(__version__, prog_name="reliance")
def cli():
    """Accuracy of a decision maker who consults a fallible decision aid."""


@cli.command("eval")
@click.argument("scenario_file", type=click.Path(path_type=Path))
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
    help="Output format.",
)
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
        click.echo("\n".join(lines))
    else:
        _emit(_envelope(scenario, result.to_dict(), result.notes))


@cli.command("compare")
@click.argument("scenario_file", type=click.Path(path_type=Path))
def cmd_compare(scenario_file: Path):
    """Configured policy versus routine acceptance and routine ignoring."""
    scenario = _load_scenario(scenario_file)
    comparison = compare_policies(scenario)
    _emit(_envelope(scenario, comparison.to_dict(), comparison.notes))


@cli.command("simulate")
@click.argument("scenario_file", type=click.Path(path_type=Path))
@click.option(
    "--trials", type=click.IntRange(min=1, max=MAX_TRIALS), default=100_000, show_default=True
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--shards", type=click.IntRange(min=1, max=MAX_SHARDS), default=1, show_default=True
)
def cmd_simulate(scenario_file: Path, trials: int, seed: int, shards: int):
    """Monte Carlo estimate of aided accuracy (deterministic per seed and shards)."""
    from .simulate import estimate_accuracy

    scenario = _load_scenario(scenario_file)
    estimate = estimate_accuracy(scenario, n_trials=trials, seed=seed, shards=shards)
    _emit(_envelope(scenario, estimate.to_dict()))


@cli.command("sweep")
@click.argument("scenario_file", type=click.Path(path_type=Path))
@click.option("--param", required=True, help="Dot-path of the swept parameter, e.g. policy.p_accept.")
@click.option("--from", "start", type=float, required=True)
@click.option("--to", "stop", type=float, required=True)
@click.option("--steps", type=click.IntRange(min=2, max=MAX_STEPS), required=True)
@click.option("--out", type=click.Path(path_type=Path), required=True, help="CSV output file.")
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


@cli.command("breakeven")
@click.argument("scenario_file", type=click.Path(path_type=Path))
def cmd_breakeven(scenario_file: Path):
    """Smallest symmetric discrimination that matches the better routine policy."""
    scenario = _load_scenario(scenario_file)
    result = breakeven_discrimination(
        scenario.aid, scenario.user, scenario.dependency, mode=scenario.degradation_mode
    )
    notes = ["the scenario's policy section is ignored; discrimination is solved symmetrically"]
    _emit(_envelope(scenario, result.to_dict(), notes))


def main(argv: list[str] | None = None) -> int:
    """Run the CLI with the exit-code contract; returns the code instead of exiting."""
    try:
        cli.main(args=argv, prog_name="reliance", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 3
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ScenarioValidationError, SweepError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except json.JSONDecodeError as exc:
        click.echo(f"error: scenario file is not valid JSON: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
