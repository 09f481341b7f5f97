"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S

Runs run.py once per seed (untraced), then prints, per metric, the median
and the distance between the first and third quartiles as a share of the
median, next to the metric's bound. Exits nonzero if a run fails, is
incorrect, or the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from metrics import END_TO_END

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, required=True)
    args = ap.parse_args()
    if len(seeds(args.seeds)) < 2:
        ap.error("quartiles need at least two seeds")
    values: dict[str, list[float]] = {m[0]: [] for m in END_TO_END}
    shares = set()
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(out["failed"] / out["attempted"])
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
        print(f"seed {seed}: attempted={out['attempted']} failed={out['failed']} {line}", flush=True)
        for k, v in out["metrics"].items():
            values[k].append(v["value"])
    for name, _, _, bound in END_TO_END:
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        print(f"{args.workload} {name}: median {med:.6g}, IQR/median {(q3 - q1) / med:.4f} (bound {bound})")
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
