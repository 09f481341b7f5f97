"""Runs one workload's rounds in a fresh process and writes what it saw.

Started by run.py with the program's sources on PYTHONPATH and BLAS pinned
to one thread. After an untimed warm-up round, it repeats the workload's
round of ``percband.cli.main`` calls until the time is up; with ``--trace 1``
it alternates untraced and traced rounds. Every round must write the same
CSV bytes as the first, traced or not.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out-dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import time

from percband import cli

from workloads import WORKLOADS


def run_round(calls: list[list[str]]) -> dict:
    """One timed pass over the workload's CLI calls."""
    outcomes = []
    start = time.perf_counter()
    for argv in calls:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
            error = None
        except (Exception, SystemExit) as exc:
            rc, error = None, repr(exc)
        outcomes.append({"rc": rc, "error": error})
    return {"wall": time.perf_counter() - start, "calls": outcomes}


def peak_rss_mb() -> float:
    """High-water resident set of this process image. Unlike ru_maxrss, it
    does not carry over the parent's peak from before the exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    seed = workload.program_seed(args.seed)
    outs = [os.path.join(args.out_dir, f"{args.workload}-{c.tag}.csv") for c in workload.calls]
    calls = [c.argv(seed, out) for c, out in zip(workload.calls, outs)]
    warm_out = os.path.join(args.out_dir, f"{args.workload}-warmup.csv")
    run_round([c.warmup().argv(seed, warm_out) for c in workload.calls])

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds, layers, flips, reference, bad_updates = [], [], None, None, 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        # Alternate which of the pair goes first, so drift hits both alike.
        order = (False, True) if len(rounds) % 4 == 0 else (True, False)
        for traced in order if tracer else (False,):
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    r = run_round(calls)
                finally:
                    tracer.uninstall()
                layers.append(tracer.summary())
                bad_updates += tracer.counts["bad_updates"]
                if flips is None:
                    flips = {k: {**v, "slabs": sorted(v["slabs"])} for k, v in tracer.flips.items()}
                    tracer.save(os.path.join(args.out_dir, f"{args.workload}-spans.npz"))
            else:
                r = run_round(calls)
            r["traced"] = traced
            hashes = [digest(p) for p in outs]
            reference = reference or hashes
            r["same_csv"] = hashes == reference
            rounds.append(r)

    result = {
        "rounds": rounds,
        "csv": outs,
        "peak_rss_mb": peak_rss_mb(),
        "flips": flips,
        "bad_updates": bad_updates,
        "layers": {k: statistics.median(v[k] for v in layers) for k in layers[0]} if layers else None,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
