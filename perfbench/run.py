"""percband performance benchmark: one workload, timed end to end, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src``. With
``--trace 0`` a run prints the end-to-end metrics (wall_s, us_per_step,
setup_s, peak_rss_mb); with ``--trace 1`` it prints the per-layer metrics
of a traced run instead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. ``all`` runs every
workload in turn and prints every end-to-end metric of each.

Every workload runs in fresh processes with BLAS and OpenMP pinned to one
thread: a few set-up probes, then one worker that repeats the workload's
round of CLI calls for the given seconds. Outputs and a JSON record (machine,
sources, seeds, every round) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import checks
from metrics import END_TO_END, PER_LAYER, UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
# Fresh interpreters timed for setup_s: a single cold import varies by ~25%,
# and the first one in a new checkout also compiles the bytecode.
SETUP_PROBES = 3


class RunFailed(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{os.path.basename(argv[0])} timed out") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{os.path.basename(argv[0])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def measure_setup(name: str, seed: int, deadline: float) -> list[dict]:
    argv = [os.path.join(HERE, "setup_probe.py"), "--workload", name, "--seed", str(seed)]
    return [json.loads(spawn(argv, deadline).stdout.strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def run_worker(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    result = os.path.join(OUT, f"{name}-worker.json")
    if os.path.exists(result):
        os.remove(result)
    spawn([os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--out-dir", OUT,
           "--result", result], deadline)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def evaluate(name: str, result: dict) -> tuple[list[str], int, int, int]:
    """Output checks over all rounds: (errors, attempted, failed, steps per round)."""
    workload = WORKLOADS[name]
    rounds = result["rounds"]
    errors = [f"round {i} wrote other CSV bytes than round 0" for i, r in enumerate(rounds)
              if not r["same_csv"]]
    attempted = failed = steps = 0
    misses = []
    for k, (call, path) in enumerate(zip(workload.calls, result["csv"])):
        outcomes = [r["calls"][k] for r in rounds]
        broken = [o for o in outcomes if o["error"] is not None]
        if broken and len(broken) < len(outcomes):
            errors.append(f"{call.tag}: failed in {len(broken)} of {len(outcomes)} rounds: {broken[0]['error']}")
        read = checks.read_verify_rows if call.command == "verify" else checks.read_rows
        rows = read(path) if not broken and os.path.exists(path) else []
        if call.command == "verify":
            row_errors, bad = checks.check_verify_rows(rows) if rows else ([], 0)
            errors += row_errors
            ops = max(len(rows), 1)
            attempted += ops * len(outcomes)
            failed += (bad if rows else ops) * len(outcomes)
            if rows and any((o["rc"] == 0) != (bad == 0) for o in outcomes):
                errors.append("verify: exit status disagrees with the check rows")
            steps += checks.verify_samples(rows, call.samples)
            continue
        attempted += call.trials * len(outcomes)
        failed += call.trials * sum(o["rc"] != 0 for o in outcomes)
        steps += checks.expectation(call).steps * call.trials
        if not broken:
            row_errors, missed = checks.check_trial_rows(call, rows)
            errors += row_errors
            misses.append((call, missed))
    miss = checks.miss_error(misses)
    errors += [miss] if miss else []
    if result["flips"] is not None:
        errors += checks.flip_errors(result["flips"])
    if result["bad_updates"]:
        errors.append(f"{result['bad_updates']} Perceptron steps differ from the reflection update")
    return errors, attempted, failed, steps


def machine_record(name: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "program_seed": WORKLOADS[name].program_seed(seed),
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "machine": {"platform": platform.platform(), "cpu": cpu, "cores": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "scipy": scipy.__version__},
    }


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    probes = measure_setup(name, seed, deadline)
    result = run_worker(name, seed, seconds, trace, deadline)
    errors, attempted, failed, steps = evaluate(name, result)
    if not steps:
        raise RunFailed(f"{name}: no call completed, nothing was measured")
    untraced = [r["wall"] for r in result["rounds"] if not r["traced"]]
    if trace:
        values = dict(result["layers"])
        values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        traced = [r["wall"] for r in result["rounds"] if r["traced"]]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        names = [m[0] for m in PER_LAYER]
    else:
        wall = statistics.median(untraced)
        values = {
            "wall_s": wall,
            "us_per_step": wall / steps * 1e6,
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        names = [m[0] for m in END_TO_END]
    record = machine_record(name, seed, seconds, trace)
    record.update(errors=errors, probes=probes, steps_per_round=steps,
                  rounds=[{"wall": r["wall"], "traced": r["traced"]} for r in result["rounds"]])
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values[n]), "unit": UNITS[n]} for n in names},
        "errors": errors,
        "rounds": len(result["rounds"]),
    }


def report(name: str, out: dict) -> None:
    print(f"{name}: {out['rounds']} rounds, {out['attempted']} operations, "
          f"{out['failed']} failed, output checks {'passed' if out['correct'] else 'FAILED'}")
    for err in out["errors"]:
        print(f"  error: {err}")
    for metric, v in out["metrics"].items():
        print(f"  {metric:36s} {v['value']:14.6g} {v['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "percband", "cli.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outs = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for n, out in outs.items():
        report(n, out)
    if len(outs) == 1:
        (out,) = outs.values()
        metrics = out["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, out in outs.items() for m, v in out["metrics"].items()}
    summary = {
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
