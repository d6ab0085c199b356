"""The command-line checks of `tools/bench_pairs.py`, made before any work is done."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pairs(monkeypatch):
    """The pairs tool, reading BENCHMARK.json from this tree and refusing to
    check anything out."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "benchmark_spec", lambda rev: benchmark)

    def checkout(rev, work):
        raise AssertionError(f"checked out {rev}")

    monkeypatch.setattr(tool, "checkout", checkout)
    return tool


def run(tool, monkeypatch, *runs):
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "PARENT", "CHANGE", *runs])
    tool.main()


@pytest.mark.parametrize(
    "runs",
    [
        ["analysis_batch=1"],
        ["analysis_batch=0"],
        ["analysis_batch=-3"],
        ["analysis_batch=2.5"],
        ["analysis_batch=ten"],
        ["analysis_batch="],
        ["analysis_batch"],
        ["analysis_batch=3=4"],
        ["analysis_bach=3"],
        ["=3"],
        ["analysis_batch=10", "cli_sesion=3"],
        ["analysis_batch=10", "cli_session=1"],
    ],
)
def test_a_bad_workload_or_pair_count_exits_2_before_any_checkout(bench_pairs, monkeypatch, capsys, runs):
    with pytest.raises(SystemExit) as refused:
        run(bench_pairs, monkeypatch, *runs)
    assert refused.value.code == 2
    assert repr(runs[-1]) in capsys.readouterr().err


def test_good_arguments_reach_the_checkout(bench_pairs, monkeypatch):
    with pytest.raises(AssertionError, match="^checked out PARENT$"):
        run(bench_pairs, monkeypatch, "analysis_batch=10", "cli_session=2", "monte_carlo=3")
