"""One benchmark family in a fresh process: build its inputs, then run rounds on request.

    python3 perfbench/worker.py --family analysis --seed 1 --trace 0
    python3 perfbench/worker.py --family cli --seed 1 --setup-only

run.py starts one worker per family, with PYTHONPATH pointing at the package
source, and drives them in turn over stdin: `round <r>` runs round r (the
same operations every round, timed, then every output checked against the
oracle) and answers with its timings at the reference host speed
(calibrate.py); `finish` answers with the operation counts, the check
errors and the peak memory of the process and its children.  With
`--trace 1` each round runs twice, untraced and traced in alternating
order; spans come from the traced pass and the ratio of the two passes'
program time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import inputs
from tracing import Tracer

from reliance import cli as reliance_cli
from reliance.analytic import breakeven_discrimination, compare_policies, evaluate, potential_combined
from reliance.model import scenario_to_dict, validate_scenario
from reliance.simulate import estimate_accuracy, sample_trial, shard_rng
from reliance.sweep import SweepSpec, find_reference_crossing, run_sweep, sensitivity

OUT = Path(__file__).resolve().parent / "out"
PROBE_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
UNIFORM_FILL_TRIALS = 1_000_000
SMALL_PASSES = 10
# What op() returns for a call that raised; its output is not checked.
FAILED = object()


class Family:
    """Counts operations, records failures and check errors, and owns the tracer."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tr = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.probe = calibrate.InProcessProbe().slowdown

    def begin_round(self) -> None:
        """Probe the host and clear the round's program time and slowdowns."""
        self.last_slowdown = self.probe()
        self.work_s = 0.0
        self.slowdowns: list[float] = []

    def timed(self, fn):
        """fn(), its wall seconds, and the mean host slowdown of the probes just before and after it."""
        t0 = perf_counter()
        out = fn()
        dt = perf_counter() - t0
        after = self.probe()
        slow, self.last_slowdown = (self.last_slowdown + after) / 2, after
        self.work_s += dt
        self.slowdowns.append(slow)
        return out, dt, slow

    def op(self, name: str, fn, *args, **kwargs):
        """One call into the package: counted, traced, and failed if it raises."""
        self.attempted += 1
        try:
            return self.tr.call(name, fn, *args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return FAILED

    def check(self, what: str, check, *args) -> None:
        """Record check(*args)'s errors; output of the wrong shape is an error too."""
        try:
            errors = check(*args)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            errors = [f"malformed output: {type(exc).__name__}: {exc}"]
        self.errors += [f"{what}: {e}" for e in errors]

    def close(self) -> None:
        pass


class Analysis(Family):
    """Full analysis of a scenario pool, dense sweeps and crossing searches."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        pool = inputs.analysis_pool(seed)
        self.scenarios = pool["scenarios"]
        self.per_chunk = len(inputs.analytic_combos())
        self.sweeps = [(case, SweepSpec(validate_scenario(case[0]), *case[1:])) for case in pool["sweeps"]]
        self.crossings = [(case, SweepSpec(validate_scenario(case[0]), *case[1:])) for case in pool["crossings"]]
        self.traced_steps: list[int] = []

    def analyse(self, raw: dict):
        op = self.op
        sc = op("model.validate_scenario", validate_scenario, raw)
        if sc is FAILED:
            return FAILED
        ev = op("analytic.evaluate", evaluate, sc)
        cmp = op("analytic.compare_policies", compare_policies, sc)
        be = op("analytic.breakeven_discrimination", breakeven_discrimination, sc.aid, sc.user, sc.dependency, sc.degradation_mode)
        pc = op("analytic.potential_combined", potential_combined, sc.aid, sc.user, sc.dependency)
        sens = op("sweep.sensitivity", sensitivity, sc)
        canon = op("model.scenario_to_dict", scenario_to_dict, sc)
        if FAILED in (ev, cmp, be, pc, sens, canon):
            return FAILED
        return op("serialise.to_dict_json", _analysis_json, canon, ev, cmp, be, pc, sens)

    def round(self, r: int) -> dict:
        """Timed samples: each chunk of scenarios and of crossings holds every kind once."""
        (s, path, start, stop, steps), spec = self.sweeps[r % len(self.sweeps)]
        texts: list = []
        found: list = []
        scenario_rates, crossing_rates = [], []
        self.begin_round()
        for i in range(0, len(self.scenarios), self.per_chunk):
            chunk = self.scenarios[i : i + self.per_chunk]
            out, dt, slow = self.timed(lambda: [self.analyse(raw) for raw in chunk])
            texts += out
            scenario_rates.append(len(chunk) / dt * slow)
        series, dt, slow = self.timed(lambda: self.op("sweep.run_sweep", run_sweep, spec))
        sweep_rate = steps / dt * slow
        for i in range(0, len(self.crossings), len(inputs.CROSSINGS)):
            chunk = self.crossings[i : i + len(inputs.CROSSINGS)]
            out, dt, slow = self.timed(lambda: [self.op("sweep.find_reference_crossing", find_reference_crossing, c) for _, c in chunk])
            found += out
            crossing_rates.append(len(chunk) / dt * slow)
        if self.tr.enabled:
            self.traced_steps.append(steps)

        for raw, text in zip(self.scenarios, texts):
            if text is not FAILED:
                self.check("analysis", check_analysis, raw, text)
        if series is not FAILED:
            refs = (series.unaided_reference, series.routine_accept_reference)
            tol = checks.tol_for(s)
            self.check("run_sweep", checks.check_sweep, s, path, start, stop, steps, series.parameter_values, series.accuracies, refs, tol)
        for ((cs, cpath, cstart, cstop, _), _), x in zip(self.crossings, found):
            if x is not FAILED:
                self.check("find_reference_crossing", checks.check_crossing, cs, cpath, cstart, cstop, x)
        return {
            "work_s": self.work_s,
            "slowdown": self.slowdowns,
            "scenarios_per_s": scenario_rates,
            "sweep_points_per_s": sweep_rate,
            "crossings_per_s": crossing_rates,
        }

    def layers(self) -> dict:
        tr = self.tr
        per_point = [d / steps for d, steps in zip(tr.durations_us("sweep.run_sweep"), self.traced_steps)]
        return {
            "model.validate_scenario_us": tr.median_us("model.validate_scenario"),
            "model.scenario_to_dict_us": tr.median_us("model.scenario_to_dict"),
            "analytic.evaluate_us": tr.median_us("analytic.evaluate"),
            "analytic.compare_policies_us": tr.median_us("analytic.compare_policies"),
            "analytic.breakeven_discrimination_us": tr.median_us("analytic.breakeven_discrimination"),
            "analytic.potential_combined_us": tr.median_us("analytic.potential_combined"),
            "sweep.run_sweep_us_per_point": statistics.median(per_point),
            "sweep.find_reference_crossing_us": tr.median_us("sweep.find_reference_crossing"),
            "sweep.sensitivity_us": tr.median_us("sweep.sensitivity"),
        }


def check_analysis(raw: dict, text: str) -> list[str]:
    data = json.loads(text)
    tol = checks.tol_for(raw)
    return (
        checks.check_scenario_dict(raw, data["scenario"])
        + checks.check_eval(raw, data["eval"], tol)
        + checks.check_compare(raw, data["compare"], tol)
        + checks.check_breakeven(raw, data["breakeven"], tol)
        + checks.check_potential(raw, data["potential_combined"], tol)
        + checks.check_sensitivity(raw, data["sensitivity"])
    )


def _analysis_json(canon, ev, cmp, be, pc, sens) -> str:
    return json.dumps(
        {
            "scenario": canon,
            "eval": ev.to_dict(),
            "compare": cmp.to_dict(),
            "breakeven": be.to_dict(),
            "potential_combined": pc,
            "sensitivity": sens,
        }
    )


class MonteCarlo(Family):
    """Many small runs over every policy x dependency; large runs on 1 and 4 shards."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        pool = inputs.mc_pool(seed)
        self.small = [(s, validate_scenario(s), sim_seed) for s, sim_seed in pool["small"]]
        self.large = [(s, validate_scenario(s), sim_seed) for s, sim_seed in pool["large"]]

    def round(self, r: int) -> dict:
        """Timed samples: SMALL_PASSES passes over the small runs, then each large run."""
        n, big = inputs.SMALL_TRIALS, inputs.LARGE_TRIALS
        s_big, sc_big, seed_big = self.large[r % len(self.large)]
        small_rates, small, large_rates = [], [], []
        self.begin_round()
        for k in range(SMALL_PASSES):
            out, dt, slow = self.timed(lambda: [self.op("simulate.small_run", estimate_accuracy, sc, n, sim_seed + SMALL_PASSES * r + k) for _, sc, sim_seed in self.small])
            small += out
            small_rates.append(len(self.small) / dt * slow)
        one, dt, slow = self.timed(lambda: self.op("simulate.large_run.shards1", estimate_accuracy, sc_big, big, seed_big + r, 1))
        large_rates.append(big / dt * slow)
        four, dt, slow = self.timed(lambda: self.op("simulate.large_run.shards4", estimate_accuracy, sc_big, big, seed_big + r, 4))
        large_rates.append(big / dt * slow)

        for (s, sc, sim_seed), est in zip(self.small * SMALL_PASSES, small):
            if est is not FAILED:
                self.check("small run", checks.check_sim, s, est.to_dict(), n)
        for s, sc, sim_seed in self.small:
            # One trial of the estimator is sample_trial on shard 0's stream.
            single = self.op("check.one_trial", estimate_accuracy, sc, 1, sim_seed + r)
            trial = self.op("check.sample_trial", sample_trial, sc, shard_rng(sim_seed + r, 0))
            if single is not FAILED and trial is not FAILED:
                self.check("one-trial estimate", checks.check_one_trial, single.to_dict(), trial)
        for est in (one, four):
            if est is not FAILED:
                self.check("large run", checks.check_sim, s_big, est.to_dict(), big)
        # A repeat with the same (seed, shards) gives an identical estimate.
        _, sc, sim_seed = self.small[r % len(self.small)]
        for shards in (1, 4):
            first = self.op("check.repeat", estimate_accuracy, sc, n, sim_seed, shards)
            again = self.op("check.repeat", estimate_accuracy, sc, n, sim_seed, shards)
            if FAILED not in (first, again) and first != again:
                self.errors.append(f"repeat with seed {sim_seed}, {shards} shards: {first} != {again}")
        return {
            "work_s": self.work_s,
            "slowdown": self.slowdowns,
            "mc_small_runs_per_s": small_rates,
            "mc_trials_per_s": large_rates,
        }

    def layers(self) -> dict:
        big = inputs.LARGE_TRIALS
        rng = shard_rng(self.seed, 0)
        fills = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            rng.random((UNIFORM_FILL_TRIALS, 3))
            fills.append(UNIFORM_FILL_TRIALS / (perf_counter() - t0))
        return {
            "simulate.trials_per_s.shards1": big / (self.tr.median_us("simulate.large_run.shards1") / 1e6),
            "simulate.trials_per_s.shards4": big / (self.tr.median_us("simulate.large_run.shards4") / 1e6),
            "simulate.small_run_us": self.tr.median_us("simulate.small_run"),
            "simulate.uniform_fill_trials_per_s": statistics.median(fills),
        }


class Cli(Family):
    """`python -m reliance` in a subprocess, one call after another."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        pool = inputs.cli_pool(seed)
        self.scenarios = pool["scenarios"]
        self.sim_seed = pool["sim_seed"]
        self.tmp = OUT / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i, s in enumerate(self.scenarios):
            path = self.tmp / f"scenario{i}.json"
            path.write_text(json.dumps(s))
            self.files.append(str(path))
        self.stdout_bytes: list[int] = []
        self.probe = functools.partial(calibrate.process_slowdown, self.tmp)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def calls(self, r: int) -> list[tuple[str, int, list[str]]]:
        """(kind, scenario index, arguments) of round r: three scenarios per round."""
        i, j, k = ((3 * r + d) % len(self.scenarios) for d in range(3))
        fmt = ["--format", "csv"] if r % 2 else []
        sweep = ["--param", inputs.sweep_path(self.scenarios[i]), "--from", "0", "--to", "1"]
        sweep += ["--steps", str(inputs.CLI_SWEEP_STEPS), "--out", str(self.tmp / "sweep.csv")]
        simulate = ["--trials", str(inputs.CLI_TRIALS), "--seed", str(self.sim_seed + r), "--shards", str(inputs.CLI_SHARDS)]
        return [
            ("eval", i, ["eval", self.files[i], *fmt]),
            ("compare", j, ["compare", self.files[j]]),
            ("breakeven", k, ["breakeven", self.files[k]]),
            ("sweep", i, ["sweep", self.files[i], *sweep]),
            ("simulate", j, ["simulate", self.files[j], *simulate]),
        ]

    def round(self, r: int) -> dict:
        times: dict[str, list[float]] = {"cli_analytic_call_ms": [], "cli_sweep_call_ms": [], "cli_simulate_call_ms": []}
        self.begin_round()
        for kind, idx, args in self.calls(r):
            cmd = [sys.executable, "-m", "reliance", *args]
            proc, dt, slow = self.timed(lambda: self.op(f"cli.subprocess.{kind}", subprocess.run, cmd, capture_output=True, text=True, cwd=self.tmp))
            if proc is FAILED:
                continue
            if proc.returncode != 0:
                self.failures.append(f"reliance {' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            times[f"cli_{'analytic' if kind in ('eval', 'compare', 'breakeven') else kind}_call_ms"].append(dt * 1e3 / slow)
            self.stdout_bytes.append(len(proc.stdout.encode()))
            self.check(f"reliance {kind}", self.check_output, kind, self.scenarios[idx], args, proc.stdout)
        return {"work_s": self.work_s, "slowdown": self.slowdowns, **times}

    @staticmethod
    def check_output(kind: str, s: dict, args: list[str], stdout: str) -> list[str]:
        tol = checks.tol_for(s, cli=True)
        if "csv" in args:
            return checks.check_eval(s, checks.parse_eval_csv(stdout), tol)
        envelope = json.loads(stdout)
        res = envelope["result"]
        errors = checks.check_scenario_dict(s, envelope["scenario"], checks.CLI)
        if kind == "eval":
            return errors + checks.check_eval(s, res, tol)
        if kind == "compare":
            return errors + checks.check_compare(s, res, tol)
        if kind == "breakeven":
            return errors + checks.check_breakeven(s, res, tol)
        if kind == "simulate":
            return errors + checks.check_sim(s, res, inputs.CLI_TRIALS)
        path = args[args.index("--param") + 1]
        values, accs, refs = checks.parse_sweep_csv(Path(args[args.index("--out") + 1]).read_text())
        errors += checks.check_sweep(s, path, 0.0, 1.0, inputs.CLI_SWEEP_STEPS, values, accs, refs, tol)
        ends = (res["accuracy_start"], res["accuracy_stop"], res["accuracy_min"], res["accuracy_max"])
        want = (accs[0], accs[-1], min(accs), max(accs))
        return errors + ([] if ends == want else [f"summary {ends} disagrees with its CSV {want}"])

    def layers(self) -> dict:
        out = {
            "cli.interpreter_start_ms": statistics.median(self._probe(["-c", "pass"])) * 1e3,
            "cli.import_ms": statistics.median(self._probe(["-c", IMPORT_PROBE.format("reliance.cli")], own_clock=True)) * 1e3,
            "cli.import_numpy_ms": statistics.median(self._probe(["-c", IMPORT_PROBE.format("numpy")], own_clock=True)) * 1e3,
        }
        # cli.main in-process, after the imports, on the first round's calls.
        self.tr.enabled = True
        for _ in range(PROBE_REPEATS):
            for kind, idx, args in self.calls(0):
                with contextlib.redirect_stdout(io.StringIO()) as buf:
                    code = self.op(f"cli.main_{kind}", reliance_cli.main, args)
                if code is FAILED:
                    continue
                if code != 0:
                    self.failures.append(f"cli.main {' '.join(args)}: exit {code}")
                    continue
                self.check(f"cli.main {kind}", self.check_output, kind, self.scenarios[idx], args, buf.getvalue())
        for kind in ("eval", "compare", "breakeven", "sweep", "simulate"):
            out[f"cli.main_{kind}_ms"] = self.tr.median_us(f"cli.main_{kind}") / 1e3
        out["cli.stdout_bytes"] = statistics.mean(self.stdout_bytes)
        return out

    def _probe(self, args: list[str], own_clock: bool = False) -> list[float]:
        """Seconds per fresh interpreter: wall time, or the time the child printed."""
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True, cwd=self.tmp)
            times.append(float(proc.stdout) if own_clock else perf_counter() - t0)
        return times


FAMILIES = {"cli": Cli, "analysis": Analysis, "monte_carlo": MonteCarlo}


def serve(name: str, family: Family, trace: bool) -> None:
    """Answer `round <r>` and `finish` commands on stdin, one JSON line each."""
    print(json.dumps({"ready": True}), flush=True)
    overhead: list[float] = []
    for line in sys.stdin:
        cmd, *arg = line.split()
        if cmd == "round":
            r = int(arg[0])
            if not trace:
                print(json.dumps(family.round(r)), flush=True)
                continue
            passes = {}
            for enabled in ((False, True) if r % 2 == 0 else (True, False)):
                family.tr.enabled = enabled
                with family.tr.span(f"round.{name}"):
                    passes[enabled] = family.round(r)
            family.tr.enabled = False
            overhead.append((passes[True]["work_s"] / passes[False]["work_s"] - 1.0) * 100.0)
            print(json.dumps(passes[False]), flush=True)
        elif cmd == "finish":
            out = {}
            if trace:
                out["layers"] = {**family.layers(), "trace.overhead_pct": statistics.median(overhead)}
                OUT.mkdir(parents=True, exist_ok=True)
                trace_file = OUT / f"trace-{name}-seed{family.seed}.json"
                family.tr.write(trace_file)
                out["trace_file"] = str(trace_file)
            peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            out.update(
                attempted=family.attempted,
                failed=len(family.failures),
                failures=family.failures[:10],
                errors=family.errors[:10],
                n_errors=len(family.errors),
                peak_rss_mb=peak_kb / 1024.0,
            )
            print(json.dumps(out), flush=True)
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=sorted(FAMILIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    family = FAMILIES[args.family](args.seed)
    try:
        if not args.setup_only:
            serve(args.family, family, bool(args.trace))
    finally:
        family.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
