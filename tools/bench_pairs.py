"""Alternated parent/change pairs of the benchmark, each side from its own `git archive`.

    python3 tools/bench_pairs.py PARENT CHANGE analysis_batch=10 cli_session=3 --seed 2 --out BENCH.json

PARENT and CHANGE are git tree-ishes (`$(git write-tree)` for staged work).
Each WORKLOAD=PAIRS (at least 2) runs `perfbench/run.py` for BENCHMARK.json's
run_seconds in both checkouts, the parent first in even pairs.  Per metric it
prints each side's median and quartiles (statistics.quantiles, n=4, inclusive),
the medians' ratio, the pair ratios' range and the pairs won, ties counting for
neither; `--out` writes them and every pair as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile


def checkout(rev: str, work: str) -> str:
    dest = tempfile.mkdtemp(dir=work)
    subprocess.run(["git", "archive", "-o", f"{dest}.tar", rev], check=True)
    subprocess.run(["tar", "-xf", f"{dest}.tar", "-C", dest], check=True)
    return dest


def bench(tree: str, workload: str, flags: list) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, *flags]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # no .pyc: every run compiles the package
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(pairs: list, higher: bool) -> dict:
    q = [statistics.quantiles(values, n=4, method="inclusive") for values in zip(*pairs)]
    won = sum(c > p if higher else c < p for p, c in pairs)
    return {**{side: dict(zip(("q1", "median", "q3"), q[k])) for k, side in enumerate(("parent", "change"))},
            "change_over_parent": q[1][1] / q[0][1], "pairs_won": f"{won}/{len(pairs)}",
            "pair_ratios": [c / p for p, c in pairs], "pairs": pairs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD=PAIRS")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    machine = {"cpus": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version()}
    record = {"parent": args.parent, "change": args.change, "machine": machine, "runs": {}}
    spec = json.loads(subprocess.check_output(["git", "show", f"{args.change}:BENCHMARK.json"]))
    higher = {m["name"]: m["better"] == "higher" for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    flags = ["--seed", str(args.seed), "--seconds", str(spec["run_seconds"])]
    with tempfile.TemporaryDirectory() as work:
        trees = {side: checkout(getattr(args, side), work) for side in ("parent", "change")}
        for run in args.runs:
            workload, pairs = run.split("=")
            runs = [{s: bench(trees[s], workload, flags) for s in list(trees)[:: (-1) ** i]} for i in range(int(pairs))]
            rec = {key: {side: sum(r[side][key] for r in runs) for side in trees} for key in ("attempted", "failed")}
            rec.update(correct=all(r[side]["correct"] for r in runs for side in trees), metrics={})
            print(f"{workload} seed {args.seed}, {pairs} pairs: correct {rec['correct']}, failed {rec['failed']}")
            for name in runs[0]["parent"]["metrics"]:
                values = [tuple(r[side]["metrics"][name]["value"] for side in trees) for r in runs]
                m = rec["metrics"][name] = summary(values, higher[name])
                sides = " -> ".join(f"{m[s]['median']:.6g} [{m[s]['q1']:.6g}, {m[s]['q3']:.6g}]" for s in trees)
                print(f"  {name:34s} {sides} x{m['change_over_parent']:.3f}, pairs x{min(m['pair_ratios']):.3f}"
                      f"-{max(m['pair_ratios']):.3f}, won {m['pairs_won']}")
            record["runs"][f"{workload} seed {args.seed}"] = rec
    if args.out:
        with open(args.out, "w") as out:
            json.dump(record, out, indent=1)


if __name__ == "__main__":
    main()
