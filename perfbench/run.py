"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-multirange --seed 1 --seconds 20 --trace 0

Workloads: train-multirange, train-baseline, ablate-sweep (see README.md).
The workload runs in one child process (``workload.py``) with OpenBLAS
held to one thread; before it, four more children set up the same workload
and stop at its first training step, so ``setup_s`` is a median of five.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details of the
run go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-multirange", "train-baseline", "ablate-sweep")
SETUP_PROBES = 4
BLAS_THREADS = 1
DEADLINE_S = 170.0


def child(args, probe: bool, index: int, deadline: float) -> dict:
    work = HERE / "work" / f"{args.workload}-{os.getpid()}-{index}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work", str(work)]
    if probe:
        cmd.append("--probe")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload}: child {index} overran the deadline")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"{args.workload}: child {index} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few steps at 12x12, for the self-test")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "depthreg" / "__init__.py").is_file():
        print(f"no depthreg package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    probes = []
    if args.trace == 0:
        probes = [child(args, True, i, deadline) for i in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    result = child(args, False, SETUP_PROBES, deadline)
    details = result.pop("details")
    if args.trace == 0 and result["metrics"]:
        setups.append(details["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        details["setup_samples_s"] = setups
        details["raw_setup_samples_s"] = [p["raw_s"] for p in probes] + [details["raw_setup_s"]]

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**details, **result}, indent=2), encoding="utf-8")
    print(f"{args.workload}: {details['rounds']} rounds, {details['steps']} steps, "
          f"{details['step_samples']} timed, blas_threads={details['blas_threads']}, "
          f"failures={details['failures']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
