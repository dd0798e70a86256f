#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end metric's
median and spread (interquartile distance as a share of the median).

    python3 perfbench/steady.py --workload <name> [--seeds 1,2,3,4,5] [--seconds <s>]

Compare every spread against a third of the metric's bound in
BENCHMARK.json; `setup_s` has no spread requirement.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import median, quartiles

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", seed, "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run failed\n{out.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    for name, vals in values.items():
        med = median(vals)
        q1, _, q3 = quartiles(vals) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  TOO WIDE"
        print(f"{name:14s} median {med:.6g}  spread {spread:.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
