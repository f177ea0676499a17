"""Alternating pairs of benchmark runs over two checkouts, summed up in one JSON file.

PARENT and CHANGE are two checkouts of fpx, the one a change starts from and
the one it makes. For each seed the script runs

    PYTHONDONTWRITEBYTECODE=1 python3 fpxbench/run.py --workload W --seed S --seconds N --trace 0

once in each checkout, with the checkout as the working directory: the
parent first for an odd seed, the change first for an even one. Of each
run's stdout it reads only the `env` line, which names the tree's commit
and src_sha256, and the last line, the JSON result. Per end-to-end metric of
BENCHMARK.json (per workload with `--workload all`) the file gives each
side's median and quartiles, the pairs the change won by the metric's
`better` direction, and whether the change's median is inside the metric's
bound of the parent's. It also lists every run's `correct` flag.

Run it from anywhere:

    python3 scripts/pairs.py PARENT CHANGE --workload all --seeds 11-20 --seconds 5 \\
        --out BENCH_<n>.json

Exit 0 when every run was correct, 1 when one was not or gave no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text) -> list:
    """'11-20' or '3,5,8' or '7' as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def read_run(stdout) -> tuple:
    """(env, result) of one run.py stdout: the `env` line and the last line."""
    lines = stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values) -> dict:
    """Median and quartiles, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, spec) -> dict:
    """Per metric, from pairs of (parent result, change result) of one seed
    each and the end-to-end list of BENCHMARK.json: each side's median and
    quartiles, the pairs the change won, and the bound test of the medians."""
    metrics = {}
    for name in pairs[0][0]["metrics"]:
        rule = next(m for m in spec if name.rsplit(".", 1)[-1] == m["name"])
        sides = [[result["metrics"][name]["value"] for result in pair] for pair in zip(*pairs)]
        parent, change = (quartiles(values) for values in sides)
        higher = rule["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(*sides))
        limit = parent["median"] * (1 - rule["bound"] if higher else 1 + rule["bound"])
        metrics[name] = {
            "unit": rule["unit"], "better": rule["better"], "bound": rule["bound"],
            "parent": parent, "change": change,
            "change_wins": wins, "pairs": len(pairs),
            "change_over_parent": change["median"] / parent["median"],
            "within_bound": change["median"] >= limit if higher else change["median"] <= limit,
        }
    return metrics


def run_once(checkout, workload, seed, seconds) -> tuple:
    out = subprocess.run(
        [sys.executable, "fpxbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    try:
        return read_run(out.stdout)
    except (StopIteration, IndexError, ValueError):
        sys.stderr.write(out.stderr)
        return None, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    envs, runs, pairs = {}, [], []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        results = {}
        for side in order:
            env, result = run_once(sides[side], args.workload, seed, args.seconds)
            correct = result is not None and result["correct"] is True
            print(f"seed {seed} {side}: {'correct' if correct else 'NOT CORRECT'}", flush=True)
            runs.append({"seed": seed, "side": side, "correct": correct})
            if env is not None:
                envs.setdefault(side, {k: env[k] for k in ("commit", "src_sha256")})
            results[side] = result
        if all(r is not None for r in results.values()):
            pairs.append((results["parent"], results["change"]))

    document = {
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
        "parent": envs.get("parent", {}),
        "change": envs.get("change", {}),
        "metrics": summarize(pairs, spec) if pairs else {},
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
