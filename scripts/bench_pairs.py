#!/usr/bin/env python3
"""Alternating perfbench pairs of two source checkouts, summarised as JSON.

    python scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        --runs estimator-sweep:401:10 --runs entangle-opt:501:5

Per ``--runs WORKLOAD:FIRST_SEED:PAIRS`` seed, perfbench runs ``run_seconds``
(BENCHMARK.json) in both checkouts, parent first on even pairs; then a traced pair.
A run that exits non-zero stops the pairs: the finished ones are written with a
``failed_run`` entry, and the script exits 1.
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
    """The final JSON line of one run with the run's notes added under
    ``notes`` (name -> text, such as ``op_p50_ms[su2]``), and the environment
    its header names."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout.splitlines()
    header = next(line for line in out if line.startswith("# "))
    result = json.loads(out[-1])
    fields = (line.split(None, 1) for line in out[:-1] if line.startswith("  "))
    result["notes"] = {f[0]: f[1] for f in fields if len(f) == 2 and f[0] not in result["metrics"]
                       and f[0] != "ERROR"}
    return result, json.loads(header.split(" env=", 1)[1])


def compare(vals, sense):
    """Each side's q25, median and q75 of ``vals`` (side -> values per pair),
    and the pairs the change won in the direction ``sense``."""
    gain = (vals["change"] - vals["parent"]) * (1 if sense == "higher" else -1)
    entry = {s: dict(zip(("q25", "median", "q75"), np.quantile(v, [0.25, 0.5, 0.75]).tolist()))
             for s, v in vals.items()}
    entry["change_better_pairs"] = f"{int(np.sum(gain > 0))}/{len(gain)}"
    return entry


def summarize(pairs, better):
    """Per workload, each side's failed share of ops (sum failed / sum attempted)
    and whether every run was correct; per metric (``better`` maps each to
    "higher" or "lower"), each side's q25, median and q75, and the pairs the
    change won; the same for each per-kind ``op_p50_ms[kind]`` in the runs'
    notes (lower is better)."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        runs = {s: [r[s] for r in rows] for s in SIDES}
        summary[workload] = {
            "failed_share": {s: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                             for s, v in runs.items()},
            "all_correct": {s: all(r["correct"] for r in v) for s, v in runs.items()}}
        for name, sense in better.items():
            vals = {s: np.array([r[s]["metrics"][name]["value"] for r in rows]) for s in SIDES}
            summary[workload][name] = compare(vals, sense)
        for name in rows[0]["parent"].get("notes", {}):
            if name.startswith("op_p50_ms["):  # the note reads "<median> over <count> ops"
                vals = {s: np.array([float(r[s]["notes"][name].split()[0]) for r in rows])
                        for s in SIDES}
                summary[workload][name] = compare(vals, "lower")
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
    pairs, env, traced, current, failed_run = [], {}, {}, {}, None
    try:
        for run in args.runs:
            workload, first, count = run.split(":")
            for i, seed in enumerate(range(int(first), int(first) + int(count))):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"workload": workload, "seed": seed, "pair": i, "first": order[0]}
                for side in order:
                    current = {"workload": workload, "seed": seed, "side": side}
                    pair[side], env = perfbench(getattr(args, side), workload, seed, seconds, 0)
                pairs.append(pair)
                print(json.dumps(pair), file=sys.stderr)
        workload = args.runs[0].split(":")[0]
        traced["command"] = (f"python3 perfbench/run.py --workload {workload} --seed 0 "
                             "--seconds 2 --trace 1")
        for side in SIDES:
            current = {"workload": workload, "seed": 0, "side": side, "trace": 1}
            traced[side] = perfbench(getattr(args, side), workload, 0, 2, 1)[0]
    except subprocess.CalledProcessError as exc:
        failed_run = {**current, "exit_code": exc.returncode, "stderr_tail": exc.stderr[-2000:]}
    cmd = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
    host = ", ".join(f"{key} {value}" for key, value in env.items())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    result = {"description": args.description, "command": cmd, "host": host,
              "summary": summarize(pairs, better), "pairs": pairs, "traced": traced}
    if failed_run is not None:
        result["failed_run"] = failed_run
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 1 if failed_run is not None else 0


if __name__ == "__main__":
    sys.exit(main())
