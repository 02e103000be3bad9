#!/usr/bin/env python3
"""Alternating perfbench pairs of two source checkouts, summarised as JSON.

    python scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        --runs estimator-sweep:401:10 --runs entangle-opt:501:5

Per ``--runs WORKLOAD:FIRST_SEED:PAIRS`` seed, perfbench runs ``run_seconds``
(BENCHMARK.json) in both checkouts, parent first on even pairs; then a traced pair.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def perfbench(root, workload, seed, seconds, trace):
    """The final JSON line of one run, and the environment its header names."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout.splitlines()
    header = next(line for line in out if line.startswith("# "))
    return json.loads(out[-1]), json.loads(header.split(" env=", 1)[1])


def summarize(pairs, better):
    """Per workload and metric (``better`` maps each to "higher" or "lower"):
    each side's q25, median and q75, and the pairs the change won."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        for name, sense in better.items():
            vals = {s: np.array([r[s]["metrics"][name]["value"] for r in rows]) for s in SIDES}
            gain = (vals["change"] - vals["parent"]) * (1 if sense == "higher" else -1)
            entry = {s: dict(zip(("q25", "median", "q75"), np.quantile(v, [0.25, 0.5, 0.75])
                                 .tolist())) for s, v in vals.items()}
            entry["change_better_pairs"] = f"{int(np.sum(gain > 0))}/{len(rows)}"
            summary.setdefault(workload, {})[name] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("--parent", "--change", "--out"):
        parser.add_argument(name, type=Path, required=True)
    parser.add_argument("--runs", action="append", required=True)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    pairs, env = [], {}
    for run in args.runs:
        workload, first, count = run.split(":")
        for i, seed in enumerate(range(int(first), int(first) + int(count))):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "pair": i, "first": order[0]}
            for side in order:
                pair[side], env = perfbench(getattr(args, side), workload, seed, seconds, 0)
            pairs.append(pair)
            print(json.dumps(pair), file=sys.stderr)
    workload = args.runs[0].split(":")[0]
    traced = {"command": f"python3 perfbench/run.py --workload {workload} --seed 0 "
                         "--seconds 2 --trace 1"}
    traced.update({side: perfbench(getattr(args, side), workload, 0, 2, 1)[0] for side in SIDES})
    cmd = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
    host = ", ".join(f"{key} {value}" for key, value in env.items())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    result = {"description": args.description, "command": cmd, "host": host,
              "summary": summarize(pairs, better), "pairs": pairs, "traced": traced}
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
