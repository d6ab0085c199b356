"""Command-line interface: payloads, exit codes, file formats, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import reliance.cli
from reliance.analytic import BreakevenResult, PolicyComparison
from reliance.cli import MAX_SHARDS, MAX_STEPS, MAX_TRIALS, main
from reliance.model import DegradedRateWarning, EvalResult, scenario_to_dict, validate_scenario
from reliance.simulate import SimEstimate
from reliance.sweep import _SCALAR_STEPS

from conftest import BASE_RAW

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SELF_GATED_RAW = {
    "aid": {"p_advice_correct": 0.7},
    "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
    "policy": {
        "type": "self_gated",
        "p_ignore_given_user_correct": 0.7,
        "p_use_given_user_wrong": 0.7,
    },
    "dependency": {"type": "independent"},
}


# self_gated under a dependency: p11 = .55, p10 = .15, p01 = .05, so the
# accuracy is p11 + p10 * g_w + p01 * g_c = .635
SELF_GATED_JOINT_RAW = {
    "aid": {"p_advice_correct": 0.7},
    "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
    "policy": {
        "type": "self_gated",
        "p_ignore_given_user_correct": 0.8,
        "p_use_given_user_wrong": 0.3,
    },
    "dependency": {"type": "joint", "p_both_correct": 0.55},
}
SELF_GATED_JOINT_EVAL_SHA = "9470cb6fa0e0648538fa27d265203b6f8ddc116ff295e71785d704e9d0a01c83"


def write_scenario(tmp_path, raw, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Modules the closed-form commands must not import: numpy, the simulator and
# the sweeps. No command imports click.
PROBED_MODULES = ("numpy", "reliance.simulate", "reliance.sweep", "click")


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's package."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def probe_main(argvs) -> tuple[list[int], list[str]]:
    """Exit codes of `main` on each argv in one fresh interpreter, then which
    of PROBED_MODULES it had loaded."""
    probe = (
        "import contextlib, io, json, sys\n"
        "from reliance.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))\n"
    )
    result = run_python("-c", probe, json.dumps(argvs), json.dumps(PROBED_MODULES))
    assert result.returncode == 0, result.stderr
    codes, loaded = json.loads(result.stdout)
    return codes, loaded


class TestEval:
    def test_base_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        envelope = json.loads(out)
        assert envelope["result"]["p_correct_aided"] == 0.55
        assert envelope["tool_version"]

    def test_self_gated_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SELF_GATED_RAW)
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        assert json.loads(out)["result"]["p_correct_aided"] == 0.742

    @pytest.mark.parametrize("dependency", [{"type": "joint", "p_both_correct": 0.55}, {"type": "dominant"}])
    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_self_gated_under_dependency(self, tmp_path, capsys, command, dependency):
        path = write_scenario(tmp_path, {**SELF_GATED_JOINT_RAW, "dependency": dependency})
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 0, err
        result = json.loads(out)["result"]
        if command == "compare":
            result = result["results"]["self_gated"]
        # dominant: p11 = p_u, p10 = p_a - p_u, so p_u + (p_a - p_u) * g_w
        expected = 0.635 if dependency["type"] == "joint" else 0.63
        assert result["p_correct_aided"] == expected

    def test_self_gated_under_joint_dependency_golden_bytes(self, tmp_path, capsys):
        # pinned when the closed form for self_gated under a dependency was added
        path = write_scenario(tmp_path, SELF_GATED_JOINT_RAW)
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SELF_GATED_JOINT_EVAL_SHA

    def test_scenario_echo_round_trips(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        _, out, _ = run_cli(capsys, "eval", str(path))
        echo = json.loads(out)["scenario"]
        assert scenario_to_dict(validate_scenario(echo)) == echo

    def test_out_of_range_probability_exits_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE_RAW))
        raw["aid"]["p_advice_correct"] = 1.3
        path = write_scenario(tmp_path, raw)
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2
        assert "aid.p_advice_correct" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "eval", "/no/such/file.json")
        assert code == 1
        assert err

    def test_unparseable_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "eval", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "content",
        [
            b'{"aid": {"p_advice_correct": 0.7\xff}}',
            b'{"aid": {"p_advice_correct": 1' + b"0" * 5000 + b"}}",
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["not_utf8", "integer_past_digit_limit", "nested_past_recursion_limit"],
    )
    def test_unreadable_json_is_an_error_line(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 1
        assert err.startswith("error: scenario file is not valid JSON: ")

    @pytest.mark.parametrize(
        "section,value,constraint",
        [
            ("aid", {"p_advice_correct": 10**400}, "aid.p_advice_correct: inf not in [0, 1]"),
            ("policy", {"type": ["x"]}, "policy.type: ['x'] not in"),
            ("dependency", {"type": {"x": 1}}, "dependency.type: {'x': 1} not in"),
        ],
        ids=["huge_integer", "list_policy_type", "dict_dependency_type"],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, section, value, constraint):
        path = write_scenario(tmp_path, {**BASE_RAW, section: value})
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2
        assert err.startswith(f"error: invalid scenario:\n  {constraint}")

    def test_csv_format(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, out, _ = run_cli(capsys, "eval", str(path), "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "field,value"
        assert lines[1] == "p_correct_aided,0.55"
        assert len(lines) == 11  # header + 2 headline fields + 8 cells

    def test_result_parses_back_into_eval_result(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        _, out, _ = run_cli(capsys, "eval", str(path))
        payload = json.loads(out)["result"]
        assert EvalResult.from_dict(payload).to_dict() == payload


class TestCompare:
    def test_base_prefers_routine_accept(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, out, _ = run_cli(capsys, "compare", str(path))
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["best_policy"] == "routine_accept"
        assert PolicyComparison.from_dict(payload).to_dict() == payload

    def test_sharp_discrimination_wins(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE_RAW))
        raw["aid"]["p_advice_correct"] = 0.55
        raw["policy"] = {
            "type": "discriminating",
            "p_accept_given_correct": 0.9,
            "p_accept_given_wrong": 0.1,
        }
        path = write_scenario(tmp_path, raw)
        _, out, _ = run_cli(capsys, "compare", str(path))
        assert json.loads(out)["result"]["best_policy"] == "discriminating"

    def test_degenerate_tie_reports_precedence(self, tmp_path, capsys):
        raw = {
            "aid": {"p_advice_correct": 0.5},
            "user": {"p_unaided_correct": 0.5, "p_post_reject_correct": 0.5},
            "policy": {"type": "indiscriminate", "p_accept": 0.5},
            "dependency": {"type": "independent"},
        }
        path = write_scenario(tmp_path, raw)
        _, out, _ = run_cli(capsys, "compare", str(path))
        envelope = json.loads(out)
        assert envelope["result"]["best_policy"] == "routine_ignore"
        assert any("tie" in note for note in envelope["notes"])


class TestSimulate:
    def test_payload_fields(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, out, _ = run_cli(
            capsys, "simulate", str(path), "--trials", "20000", "--seed", "42"
        )
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["n_trials"] == 20000
        assert payload["seed"] == 42
        assert payload["n_shards"] == 1
        assert abs(payload["p_hat"] - 0.55) < 4 * payload["std_err"]
        assert SimEstimate.from_dict(payload).to_dict() == payload

    def test_repeat_runs_are_identical(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        _, first, _ = run_cli(capsys, "simulate", str(path), "--trials", "5000", "--seed", "7")
        _, second, _ = run_cli(capsys, "simulate", str(path), "--trials", "5000", "--seed", "7")
        assert first == second

    def test_zero_trials_exits_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, _, _ = run_cli(capsys, "simulate", str(path), "--trials", "0")
        assert code == 3

    def test_malformed_trials_exits_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, _, _ = run_cli(capsys, "simulate", str(path), "--trials", "plenty")
        assert code == 3

    @pytest.mark.parametrize(
        "flag,limit", [("--trials", MAX_TRIALS), ("--shards", MAX_SHARDS)]
    )
    def test_size_above_limit_exits_3(self, tmp_path, capsys, flag, limit):
        path = write_scenario(tmp_path, BASE_RAW)
        code, _, err = run_cli(capsys, "simulate", str(path), flag, str(limit + 1))
        assert code == 3
        assert flag in err

    def test_shard_limit_with_one_trial_runs(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, out, _ = run_cli(
            capsys, "simulate", str(path), "--trials", "1", "--shards", str(MAX_SHARDS)
        )
        assert code == 0
        assert json.loads(out)["result"]["n_shards"] == MAX_SHARDS

    def test_agrees_with_eval_command(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SELF_GATED_RAW)
        _, eval_out, _ = run_cli(capsys, "eval", str(path))
        analytic = json.loads(eval_out)["result"]["p_correct_aided"]
        _, sim_out, _ = run_cli(capsys, "simulate", str(path), "--trials", "50000", "--seed", "11")
        payload = json.loads(sim_out)["result"]
        assert abs(payload["p_hat"] - analytic) < 4 * payload["std_err"]

    def test_dependent_discriminating_scenario_matches_worked_value(self, tmp_path, capsys):
        raw = {
            "aid": {"p_advice_correct": 0.7},
            "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
            "policy": {
                "type": "discriminating",
                "p_accept_given_correct": 0.7,
                "p_accept_given_wrong": 0.3,
            },
            "dependency": {"type": "dominant"},
        }
        path = write_scenario(tmp_path, raw)
        _, out, _ = run_cli(capsys, "simulate", str(path), "--trials", "200000", "--seed", "3")
        payload = json.loads(out)["result"]
        assert payload["ci95"][0] <= 0.67 <= payload["ci95"][1]


JOINT_CONDITIONAL_RAW = {
    "aid": {"p_advice_correct": 0.7},
    "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
    "policy": {
        "type": "discriminating",
        "p_accept_given_correct": 0.8,
        "p_accept_given_wrong": 0.25,
    },
    "dependency": {"type": "joint", "p_both_correct": 0.48},
    "degradation_mode": "conditional_from_joint",
}

# (scenario, sweep flags) -> sha256 of the CSV and of stdout, computed with
# the per-point sweep; the CSV is written to a relative path so stdout's
# "out" field is the same on every run.
GOLDEN_SWEEP_RUNS = [
    (
        BASE_RAW,
        ["--param", "policy.p_accept", "--from", "0", "--to", "1", "--steps", "101"],
        "e79d4d132987f3853556efb712675038ec588244cbd3ed910e42a89a0c3198e2",
        "54c873a0e0db5edfd118a273e00706f02293663ecadc663536150e63abcbde5f",
    ),
    (
        {
            "aid": {"p_advice_correct": 0.7},
            "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.4},
            "policy": {
                "type": "discriminating",
                "p_accept_given_correct": 0.7,
                "p_accept_given_wrong": 0.3,
            },
            "dependency": {"type": "joint", "p_both_correct": 0.45},
        },
        ["--param", "dependency.p_both_correct", "--from", "0.3", "--to", "0.6", "--steps", "13"],
        "a01f4eb30245d78b3d07a3ca22ab2871d1252c37b3fc56105e2aa914782ade00",
        "24a23305d59649dde4f55d504a1ba06a0772507b406d678615411a6b94dbe068",
    ),
    (
        SELF_GATED_RAW,
        ["--param", "aid.p_advice_correct", "--from", "1", "--to", "0", "--steps", "37"],
        "0379c36037433ee06970c212c0891124b76aae848aad32702ba8245ed71e8c3c",
        "155784c707937d7f907a2936c7d18b474fec4332847cf2d13b38435ddcc7977a",
    ),
    (  # more than _SCALAR_STEPS points: a fresh `reliance sweep` evaluates it on numpy arrays
        JOINT_CONDITIONAL_RAW,
        ["--param", "dependency.p_both_correct", "--from", "0.6", "--to", "0.3", "--steps", "5001"],
        "aa1454fabe1ccf8da31cdc8da82d5b70f3fec0b6668b1fd5400e237cca6efc4f",
        "04e886e54aef8dab7dd0d8182b5270395ccd80a06884f1b4a19ed17277e0f393",
    ),
]


DEGRADED_RAW = {
    "aid": {"p_advice_correct": 0.62},
    "user": {"p_unaided_correct": 0.55, "p_post_reject_correct": 0.7},
    "policy": {
        "type": "self_gated",
        "p_ignore_given_user_correct": 0.35,
        "p_use_given_user_wrong": 0.8,
    },
    "dependency": {"type": "independent"},
}

GOLDEN_SCENARIOS = {
    "base": BASE_RAW,
    "degraded": DEGRADED_RAW,
    "joint_conditional": JOINT_CONDITIONAL_RAW,
}

# (scenario, command and flags) -> sha256 of stdout, computed before the CLI
# loaded numpy lazily; the scenario path never appears in these outputs.
GOLDEN_CLI_RUNS = [
    ("base", ["eval"], "cda8664c0fbb8f0c0d8eceaaa4951f415306b1e887abb448378ea7d86cc208c5"),
    ("base", ["eval", "--format", "csv"], "2a8f85e66780d1d0bb2266a1f8d2019d8e493dab7e9f1d3e0e97e6a6df497699"),
    ("base", ["compare"], "fd21e1799f2a5e1c4ad7d0bd24454736a76e00d85db1d26106848f8a02ee6e20"),
    ("base", ["breakeven"], "4ebfba000b18eed6f77b07e4ee491c25dfe594cf8003aec63fcd079437f4edf4"),
    ("degraded", ["eval"], "8da667253f21e23a4da9925d8839dacf4be15194aa372dc34e074180f2cc0b68"),
    ("degraded", ["eval", "--format", "csv"], "b37a8c666cbee1d986173aa38e01daf26700a279054f09812764224e07425aef"),
    ("degraded", ["compare"], "6cd0e3d56617f30cdc6d98c1c44d6f6f41a18a9accecb56f5cfbd53be912ba20"),
    ("degraded", ["breakeven"], "992c7a185b695eb0be2f9c3bf906779eed7ddb9e901016b1d76fe49dc8adb4d9"),
    ("joint_conditional", ["eval"], "867078677792b1dc170608c7cb9609d5084092e0567e839987b57dd9fb4c603a"),
    ("joint_conditional", ["eval", "--format", "csv"], "4a7a99e5b907712099c4c4975599b95fcfb729dd2fc612b6e2b83796a7278fd2"),
    ("joint_conditional", ["compare"], "83518f338a9250071fdccd451471a27ac069d1b68650c1bd93541e1dfc033007"),
    ("joint_conditional", ["breakeven"], "42b125432204f15e68ef14fa3b9fab2e10f641de83d33e235848469ac710d5bf"),
    ("joint_conditional", ["simulate", "--trials", "20000", "--seed", "5", "--shards", "3"], "78ca803aed81c27c9f58a02df53bbc35539ad1a05d14c5cad39ab59a72d0e94a"),
]


class TestGoldenBytes:
    @pytest.mark.filterwarnings("ignore::reliance.model.DegradedRateWarning")
    @pytest.mark.parametrize("name,args,stdout_sha", GOLDEN_CLI_RUNS)
    def test_stdout(self, tmp_path, capsys, name, args, stdout_sha):
        path = write_scenario(tmp_path, GOLDEN_SCENARIOS[name])
        code, out, _ = run_cli(capsys, args[0], str(path), *args[1:])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


class TestSweep:
    @pytest.mark.usefixtures("either_sweep_path")
    @pytest.mark.parametrize("raw,flags,csv_sha,stdout_sha", GOLDEN_SWEEP_RUNS)
    def test_golden_bytes(self, tmp_path, capsys, monkeypatch, raw, flags, csv_sha, stdout_sha):
        scenario = write_scenario(tmp_path, raw)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", str(scenario), *flags, "--out", "series.csv")
        assert code == 0
        assert hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha

    def test_degraded_scenario_warns_once(self, tmp_path, capsys, monkeypatch):
        # the loaded scenario warns; its degraded grid points add no second warning
        scenario = write_scenario(tmp_path, DEGRADED_RAW)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code, _, _ = run_cli(
                capsys, "sweep", str(scenario), "--param", "policy.p_use_given_user_wrong",
                "--from", "0", "--to", "1", "--steps", "5", "--out", "series.csv",
            )
        assert code == 0
        assert [w.category for w in record] == [DegradedRateWarning]

    def test_degraded_grid_point_warns_at_the_cli(self, tmp_path, capsys, monkeypatch):
        scenario = write_scenario(tmp_path, BASE_RAW)
        monkeypatch.chdir(tmp_path)
        with pytest.warns(DegradedRateWarning) as record:
            code, _, _ = run_cli(
                capsys, "sweep", str(scenario), "--param", "user.p_post_reject_correct",
                "--from", "0", "--to", "1", "--steps", "5", "--out", "series.csv",
            )
        assert code == 0
        assert [w.filename for w in record] == [reliance.cli.__file__]

    def test_csv_contents(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, BASE_RAW)
        out_csv = tmp_path / "series.csv"
        code, out, _ = run_cli(
            capsys, "sweep", str(scenario),
            "--param", "policy.p_accept", "--from", "0", "--to", "1",
            "--steps", "11", "--out", str(out_csv),
        )
        assert code == 0
        text = out_csv.read_text()
        lines = text.splitlines()
        assert len(lines) == 12  # header + 11 rows
        assert lines[0] == "param_value,aided_accuracy,unaided_reference,routine_accept_reference"
        assert lines[1] == "0.0,0.4,0.6,0.7"
        assert lines[-1] == "1.0,0.7,0.6,0.7"
        assert not any(line != line.rstrip() for line in lines)
        assert text.endswith("\n") and not text.endswith("\n\n")
        summary = json.loads(out)["result"]
        assert summary["accuracy_start"] == 0.4
        assert summary["accuracy_stop"] == 0.7

    def test_single_step_exits_3(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, BASE_RAW)
        code, _, _ = run_cli(
            capsys, "sweep", str(scenario),
            "--param", "policy.p_accept", "--from", "0", "--to", "1",
            "--steps", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3

    def test_steps_above_limit_exits_3(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, BASE_RAW)
        out_csv = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", str(scenario),
            "--param", "policy.p_accept", "--from", "0", "--to", "1",
            "--steps", str(MAX_STEPS + 1), "--out", str(out_csv),
        )
        assert code == 3
        assert "--steps" in err
        assert not out_csv.exists()

    def test_bound_crossing_sweep_exits_2_naming_value(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE_RAW))
        raw["dependency"] = {"type": "joint", "p_both_correct": 0.42}
        scenario = write_scenario(tmp_path, raw)
        code, _, err = run_cli(
            capsys, "sweep", str(scenario),
            "--param", "dependency.p_both_correct", "--from", "0", "--to", "0.6",
            "--steps", "7", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "0.0" in err

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag,field", [("--from", "start"), ("--to", "stop")])
    def test_non_finite_bound_exits_2_naming_it(self, tmp_path, capsys, flag, field, bound):
        scenario = write_scenario(tmp_path, BASE_RAW)
        out_csv = tmp_path / "x.csv"
        bounds = {"--from": "0", "--to": "1", flag: bound}
        code, _, err = run_cli(
            capsys, "sweep", str(scenario), "--param", "policy.p_accept",
            "--from", bounds["--from"], "--to", bounds["--to"],
            "--steps", "5", "--out", str(out_csv),
        )
        assert code == 2
        assert f"sweep {field} must be finite, got {float(bound)!r}" in err
        assert "swept value" not in err
        assert not out_csv.exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, BASE_RAW)
        code, _, _ = run_cli(
            capsys, "sweep", str(scenario),
            "--param", "policy.p_accept", "--from", "0", "--to", "1",
            "--steps", "3", "--out", str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 1


class TestBreakeven:
    def test_base_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE_RAW)
        code, out, _ = run_cli(capsys, "breakeven", str(path))
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["d_star"] == pytest.approx(7 / 9, abs=1e-9)
        assert payload["accuracy_at_d_star"] == pytest.approx(0.7, abs=1e-9)
        assert payload["target"] == 0.7
        assert BreakevenResult.from_dict(payload).to_dict() == payload

    def test_unattainable_case(self, tmp_path, capsys):
        raw = {
            "aid": {"p_advice_correct": 0.5},
            "user": {"p_unaided_correct": 0.9, "p_post_reject_correct": 0.1},
            "policy": {"type": "routine_ignore"},
            "dependency": {"type": "independent"},
        }
        path = write_scenario(tmp_path, raw)
        _, out, _ = run_cli(capsys, "breakeven", str(path))
        payload = json.loads(out)["result"]
        assert payload["d_star"] == "unattainable"
        assert payload["accuracy_at_d_star"] is None

    def test_costless_rejection_breaks_even_immediately(self, tmp_path, capsys):
        raw = {
            "aid": {"p_advice_correct": 0.7},
            "user": {"p_unaided_correct": 0.6, "p_post_reject_correct": 0.7},
            "policy": {"type": "routine_accept"},
            "dependency": {"type": "independent"},
        }
        path = write_scenario(tmp_path, raw)
        with pytest.warns(UserWarning):  # post-reject rate above unaided rate
            code, out, _ = run_cli(capsys, "breakeven", str(path))
        assert code == 0
        assert json.loads(out)["result"]["d_star"] == 0.5


SWEEP_ARGV = ["sweep", "{scenario}", "--param", "policy.p_accept", "--from", "0", "--to", "1"]
SWEEP_ARGV += ["--steps", "5", "--out", "{out}"]


def sweep_argv(flag, value):
    """SWEEP_ARGV with `flag`'s value replaced, or the flag dropped if `value` is None."""
    argv = list(SWEEP_ARGV)
    at = argv.index(flag)
    argv[at : at + 2] = [] if value is None else [flag, value]
    return argv


# Flag misuse: (argv, the flag and the offending value stderr must name, in
# that order). Only these tokens are pinned, not the wording around them.
MISUSE_CASES = {
    "bare": ([], ["COMMAND"]),
    "unknown_command": (["frobnicate"], ["frobnicate"]),
    "unknown_option": (["eval", "{scenario}", "--bogus"], ["--bogus"]),
    "missing_scenario_file": (["eval"], ["SCENARIO_FILE"]),
    "format_xml": (["eval", "{scenario}", "--format", "xml"], ["--format", "xml"]),
    "trials_0": (["simulate", "{scenario}", "--trials", "0"], ["--trials", "0"]),
    "trials_abc": (["simulate", "{scenario}", "--trials", "abc"], ["--trials", "abc"]),
    "shards_4097": (["simulate", "{scenario}", "--shards", "4097"], ["--shards", "4097"]),
    "steps_1": (sweep_argv("--steps", "1"), ["--steps", "1"]),
    "steps_1000001": (sweep_argv("--steps", "1000001"), ["--steps", "1000001"]),
    "from_abc": (sweep_argv("--from", "abc"), ["--from", "abc"]),
    "missing_param": (sweep_argv("--param", None), ["--param"]),
}

# A value that starts with "-" is still its flag's value: (argv, exit code,
# a stderr line that starts with this).
DASH_VALUE_CASES = {
    "from_minus_inf": (sweep_argv("--from", "-inf"), 2, "error: sweep start must be finite, got -inf"),
    "from_minus_1e-3": (sweep_argv("--from", "-1e-3"), 2, "error: swept value -0.001 for 'policy.p_accept'"),
    "from_equals_minus_1e-3": (
        [*sweep_argv("--from", None), "--from=-1e-3"], 2, "error: swept value -0.001 for 'policy.p_accept'"
    ),
    "to_minus_0.5": (sweep_argv("--to", "-0.5"), 2, "error: swept value -0.125 for 'policy.p_accept'"),
    "param_dash": (sweep_argv("--param", "-x"), 2, "error: parameter_path '-x' not recognized"),
    "seed_minus_3": (["simulate", "{scenario}", "--trials", "10", "--seed", "-3"], 0, ""),
}

COMMAND_OPTIONS = {
    "eval": ["--format"],
    "compare": [],
    "simulate": ["--trials", "--seed", "--shards"],
    "sweep": ["--param", "--from", "--to", "--steps", "--out"],
    "breakeven": [],
}


def fill(argv, tmp_path) -> list[str]:
    scenario = write_scenario(tmp_path, BASE_RAW)
    paths = {"{scenario}": str(scenario), "{out}": str(tmp_path / "x.csv")}
    return [paths.get(token, token) for token in argv]


class TestCommandLineContract:
    def test_unknown_subcommand_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 3

    @pytest.mark.parametrize("argv,named", MISUSE_CASES.values(), ids=MISUSE_CASES)
    def test_misuse_exits_3_naming_flag_and_value(self, tmp_path, capsys, argv, named):
        code, out, err = run_cli(capsys, *fill(argv, tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ")
        pattern = r"\b.*".join(re.escape(token) for token in named)
        assert re.search(rf"(?<![\w-]){pattern}(?!\w)", err), err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv,expected,line", DASH_VALUE_CASES.values(), ids=DASH_VALUE_CASES)
    def test_value_starting_with_dash_is_the_flags_value(self, tmp_path, capsys, argv, expected, line):
        code, _, err = run_cli(capsys, *fill(argv, tmp_path))
        assert code == expected
        assert err.startswith(line)

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "eval" in out

    @pytest.mark.parametrize("command,options", COMMAND_OPTIONS.items(), ids=COMMAND_OPTIONS)
    def test_command_help_exits_0_naming_its_options(self, capsys, command, options):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert "SCENARIO_FILE" in out
        assert all(option in out for option in options)

    def test_version(self, capsys):
        assert run_cli(capsys, "--version") == (0, "reliance, version 0.1.0\n", "")

    def test_subprocess_output_bytes_are_reproducible(self, tmp_path):
        path = write_scenario(tmp_path, BASE_RAW)
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, "-m", "reliance", "simulate", str(path),
            "--trials", "20000", "--seed", "42", "--shards", "2",
        ]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_cli_import_leaves_the_thread_pool_unloaded(self):
        probe = "import sys, reliance.cli; print('concurrent.futures' in sys.modules)"
        result = run_python("-c", probe)
        assert result.returncode == 0
        assert result.stdout.strip() == "False"

    def test_closed_form_commands_leave_numpy_unloaded(self, tmp_path):
        path = str(write_scenario(tmp_path, BASE_RAW))
        argvs = [["eval", path], ["compare", path], ["breakeven", path], ["--help"], ["--version"]]
        argvs += [[command, "--help"] for command in COMMAND_OPTIONS]
        codes, loaded = probe_main(argvs)
        assert codes == [0] * len(argvs)
        assert loaded == []

    @pytest.mark.parametrize("command", ["eval", "compare", "breakeven"])
    def test_module_entry_point_never_imports_numpy(self, tmp_path, command):
        path = write_scenario(tmp_path, BASE_RAW)
        result = run_python("-X", "importtime", "-m", "reliance", command, str(path))
        assert result.returncode == 0
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert "reliance.cli" in imported
        assert not imported & set(PROBED_MODULES)

    def test_sweep_and_simulate_load_only_their_own_module(self, tmp_path):
        # a sweep of up to _SCALAR_STEPS points is evaluated as floats; a larger one loads numpy
        path = str(write_scenario(tmp_path, BASE_RAW))
        sweep = ["sweep", path, "--param", "policy.p_accept", "--from", "0", "--to", "1"]
        sweep += ["--out", str(tmp_path / "x.csv"), "--steps"]
        assert probe_main([sweep + ["3"], sweep + [str(_SCALAR_STEPS)]]) == ([0, 0], ["reliance.sweep"])
        assert probe_main([sweep + [str(_SCALAR_STEPS + 1)]]) == ([0], ["numpy", "reliance.sweep"])
        simulate = ["simulate", path, "--trials", "100"]
        assert probe_main([simulate]) == ([0], ["numpy", "reliance.simulate"])

    def test_sweep_error_exits_2_before_the_sweep_module_is_loaded(self, tmp_path):
        path = str(write_scenario(tmp_path, BASE_RAW))
        argv = ["sweep", path, "--param", "policy.p_accept", "--from", "nan", "--to", "1"]
        argv += ["--steps", "5", "--out", str(tmp_path / "x.csv")]
        probe = (
            "import json, sys; from reliance.cli import main; "
            "loaded = 'reliance.sweep' in sys.modules; "
            "code = main(json.loads(sys.argv[1])); print(json.dumps([loaded, code]))"
        )
        result = run_python("-c", probe, json.dumps(argv))
        assert json.loads(result.stdout) == [False, 2]
        assert result.stderr == "error: sweep start must be finite, got nan\n"
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_error_is_exported_without_numpy(self):
        import reliance
        import reliance.sweep

        assert reliance.sweep.SweepError is reliance.SweepError
        result = run_python(
            "-c", "import sys; from reliance import SweepError; print('numpy' in sys.modules)"
        )
        assert result.stdout.strip() == "False"

    def test_degraded_rate_warning_names_the_loading_line(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE_RAW))
        raw["user"]["p_post_reject_correct"] = 0.7
        with pytest.warns(DegradedRateWarning) as record:
            code, _, _ = run_cli(capsys, "eval", str(write_scenario(tmp_path, raw)))
        assert code == 0
        assert [w.filename for w in record] == [reliance.cli.__file__]
