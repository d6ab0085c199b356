"""Benchmark of the reliance package, one workload per invocation.

    python3 perfbench/run.py --workload analysis_batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The run is a closed loop: this process is the only client and
waits for each call to finish.  Three families of operations (CLI
subprocesses, in-process analysis, Monte Carlo) each live in a fresh worker
process (worker.py).  Their rounds are interleaved over `--seconds`, each
family with a fixed SHARE of the time; the workload names the family whose
set-up time and worker's peak memory the run reports.  Every run thus
reports every end-to-end metric, each the median of its samples.  Every
timing is reported at the reference host speed: each timed unit is
bracketed by probes of fixed work (calibrate.py), so that the drift of a
shared host cancels out.  Set-up time is the median of SETUP_REPEATS fresh
processes that import the package and build the workload's inputs, each
bracketed by probe processes.  Every output is checked against an oracle
that shares no code with the package (oracle.py).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` they are the per-layer ones, from spans recorded around each
call, and the span files are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"cli_session": "cli", "analysis_batch": "analysis", "monte_carlo": "monte_carlo"}
# Share of every run's time per family, whatever the workload: the CLI calls
# and the large Monte Carlo runs give the fewest samples per second, and every
# workload reports every family's metrics.
SHARE = {"cli": 0.45, "monte_carlo": 0.35, "analysis": 0.20}
SETUP_REPEATS = 5
MIN_ROUNDS = 3  # measured rounds per family, after one warm-up round
WATCHDOG_S = 160
STOP_TIMEOUT_S = 10

# Metric names and units, as BENCHMARK.json at the root of the checkout lists them.
SPEC = ROOT / "BENCHMARK.json"


class Worker:
    """One family's worker process, answering one command at a time."""

    def __init__(self, family: str, seed: int, trace: int, env: dict) -> None:
        self.family = family
        cmd = [sys.executable, str(HERE / "worker.py"), "--family", family, "--seed", str(seed), "--trace", str(trace)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self._reply()

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.family} worker stopped with exit code {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> None:
        """Let the worker exit and clean up after itself; kill it if it does not."""
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_seconds(family: str, seed: int, env: dict) -> tuple[float, float]:
    """Median wall time of fresh processes that import the package and build the inputs.

    Returns the median at the reference host speed, each process scaled by
    the mean slowdown of the probe processes run just before and after it,
    and the median slowdown.
    """
    times, slowdowns = [], []
    slow_before = calibrate.process_slowdown(ROOT)
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "worker.py"), "--family", family, "--seed", str(seed), "--setup-only"]
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=WATCHDOG_S)
        dt = perf_counter() - t0
        slow_after = calibrate.process_slowdown(ROOT)
        slowdowns.append((slow_before + slow_after) / 2)
        times.append(dt / slowdowns[-1])
        slow_before = slow_after
    return statistics.median(times), statistics.median(slowdowns)


def measure(workers: dict[str, Worker], seconds: float) -> tuple[dict, dict]:
    """Interleave measured rounds of every family until `seconds` have passed.

    The next round goes to the family furthest below its share of the time
    spent so far, so each family's samples span the whole run.  Returns the
    samples per family and metric, and the number of measured rounds; each
    family's host slowdowns are among its samples, under "slowdown".
    """
    spent = dict.fromkeys(workers, 0.0)
    rounds = dict.fromkeys(workers, 0)
    samples: dict[str, dict[str, list[float]]] = {f: {} for f in workers}
    for w in workers.values():
        w.ask("round 0")  # warm-up, checked but not timed
    start = perf_counter()
    while perf_counter() - start < seconds or min(rounds.values()) < MIN_ROUNDS:
        short = [f for f in workers if rounds[f] < MIN_ROUNDS] if perf_counter() - start >= seconds else list(workers)
        family = min(short, key=lambda f: spent[f] / SHARE[f])
        rounds[family] += 1
        t0 = perf_counter()
        result = workers[family].ask(f"round {rounds[family]}")
        spent[family] += perf_counter() - t0
        for key, value in result.items():
            if key != "work_s":
                samples[family].setdefault(key, []).extend(value if isinstance(value, list) else [value])
    return samples, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the reliance package")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "reliance" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'reliance'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    primary = WORKLOADS[args.workload]
    setup_s, setup_slowdown = setup_seconds(primary, args.seed, env)

    workers: dict[str, Worker] = {}
    watchdog = threading.Timer(WATCHDOG_S, lambda: [w.proc.kill() for w in list(workers.values())])
    watchdog.start()
    try:
        for family in [primary] + [f for f in WORKLOADS.values() if f != primary]:
            workers[family] = Worker(family, args.seed, args.trace, env)
        samples, rounds = measure(workers, args.seconds)
        final = {f: w.ask("finish") for f, w in workers.items()}
    finally:
        watchdog.cancel()
        for w in workers.values():
            w.stop()

    n_errors = sum(r["n_errors"] for r in final.values())
    for family, r in final.items():
        for line in r["failures"] + r["errors"]:
            print(f"{family}: {line}", file=sys.stderr)
        slow = statistics.median(samples[family]["slowdown"])
        print(f"{family}: {rounds[family]} rounds, {r['attempted']} operations, {r['failed']} failed, {r['n_errors']} wrong outputs, host slowdown {slow:.3f}")
    print(f"setup: host slowdown {setup_slowdown:.3f}")
    if args.trace:
        merged = {k: v for r in final.values() for k, v in r["layers"].items()}
        merged["trace.overhead_pct"] = final[primary]["layers"]["trace.overhead_pct"]
        kind = "per_layer"
        for r in final.values():
            print(f"spans: {r['trace_file']}")
    else:
        merged = {k: statistics.median(v) for s in samples.values() for k, v in s.items()}
        merged["setup_s"] = setup_s
        merged["peak_rss_mb"] = final[primary]["peak_rss_mb"]
        kind = "end_to_end"
    metrics = {m["name"]: {"value": merged[m["name"]], "unit": m["unit"]} for m in json.loads(SPEC.read_text())[kind]}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    attempted = sum(r["attempted"] for r in final.values())
    failed = sum(r["failed"] for r in final.values())
    print(json.dumps({"correct": n_errors == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
