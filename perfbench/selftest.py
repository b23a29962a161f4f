"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload, untraced and traced, at the tiny scale (12x12
   scenes, a few steps) through ``run.py`` and requires a correct result
   that carries every metric ``BENCHMARK.json`` names.
2. Canaries: trains one tiny round in this process, checks it clean, then
   feeds corrupted values to the same checks and requires each to fail:
   a perturbed ``r_p`` in the recomputation (a), a sign-flipped gradient
   coordinate (b), an altered byte of a written AbsRel (c, d) and a
   non-standard JSON constant in a written file (e).
3. A hook whose target is gone reports its layer absent, and the layer's
   metrics are left out of the metrics line.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402


def tiny_passes() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{name} trace={trace}"
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}: {out.stderr.strip()[-300:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: checks failed: {out.stderr.strip()[-300:]}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ wanted[trace])}"
                                " missing or unexpected")
    return problems


def train_once(work: Path):
    """One tiny train-multirange round with the capture hooks in place."""
    from depthreg import cli
    from depthreg.toybench import train as train_module

    command, config, expected = workload.workload_spec("train-multirange", "tiny")
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out_dir = work / "out"
    recorder = workload.Recorder(probe=False, tracer=None)
    objective = train_module.batch_objective
    _, undo = tracing.install({layer: f for layer, f in recorder.capture.items()})
    recorder.begin_round()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([command, "--config", str(work / "config.json"), "--out", str(out_dir)])
    tracing.uninstall(undo)
    if rc != 0:
        raise RuntimeError(f"depthreg {command} returned {rc}")
    return config, expected, out_dir, recorder.runs, objective


def failures_of(config, expected, out_dir, runs, objective, reference) -> list[str]:
    tally = workload.Tally()
    workload.check_round(tally, runs, expected, out_dir, 7, config, objective, reference)
    return tally.failures


def canaries() -> list[str]:
    work = HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    problems = []
    try:
        config, expected, out_dir, runs, objective = train_once(work)
        tally = workload.Tally()
        reference = workload.check_round(tally, runs, expected, out_dir, 7, config, objective, None)
        if tally.failures:
            return [f"clean round fails its checks: {tally.failures}"]

        def expect(label: str, failures: list[str]) -> None:
            if not any(label in f for f in failures):
                problems.append(f"canary {label} not caught; failures were {failures}")

        # (a) the recomputation classifies with a perturbed positive threshold.
        bent = copy.deepcopy(expected)
        bent[0]["reg"]["r_p"] += 0.05
        expect("(a) first step", failures_of(config, bent, out_dir, runs, objective, reference))

        # (b) one checked gradient coordinate with its sign flipped.
        args, result = runs[0]["last"]
        n_params = checks.flatten(checks.weights_of(args["model"])).size
        coords = checks.fd_coordinates(7 * 1000, n_params)
        grad = np.array(result[4])
        flip = max(coords, key=lambda i: abs(grad[i]))
        grad[flip] = -grad[flip]
        flipped = [dict(runs[0], last=(args, result[:4] + (grad,) + result[5:]))]
        expect("(b) gradient",
               failures_of(config, expected, out_dir, flipped, objective, reference))

        # (c), (d) one altered byte in the written AbsRel.
        summary = out_dir / "run" / f"seed_{expected[0]['seed']}" / "summary.json"
        text = summary.read_text(encoding="utf-8")
        at = text.index('"abs_rel": ') + len('"abs_rel": 0.') + 2
        summary.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:],
                           encoding="utf-8")
        found = failures_of(config, expected, out_dir, runs, objective, reference)
        expect("(c) AbsRel", found)
        expect("(d) tree", found)
        summary.write_text(text, encoding="utf-8")

        # (e) a non-standard constant in a written JSON file.
        summary.write_text(text.replace('"final_eval": {', '"final_eval": {"x": NaN, ', 1),
                           encoding="utf-8")
        expect("(e) run/seed_", failures_of(config, expected, out_dir, runs, objective, reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def absent_hook() -> list[str]:
    """A hook whose target is gone marks its layer absent instead of failing,
    and the metrics drawn from an absent layer are left out, not reported as 0."""
    hooks = tracing.HOOKS
    tracing.HOOKS = hooks + (("depthreg.sampling", "no_such_function", "gone.layer"),)
    try:
        absent, undo = tracing.install({"gone.layer": lambda fn: fn})
        tracing.uninstall(undo)
    finally:
        tracing.HOOKS = hooks
    problems = [] if absent == ["gone.layer"] else [f"missing hook reported as {absent}"]
    tracer = tracing.Tracer()
    tracer.close(tracer.open(tracing.ROOT))
    metrics, _ = workload.traced_metrics(tracer, workload.Recorder(False, tracer), [1.0],
                                         1, 1, 1, ["sampling.collect"])
    leaked = {"sampling.collect_ms", "sampling.samples_per_step",
              "sampling.bytes_per_step"} & set(metrics)
    if leaked or "losses.reg_ms" not in metrics:
        problems.append(f"absent layer sampling.collect gave metrics {sorted(metrics)}")
    return problems


def main() -> int:
    problems = absent_hook() + canaries() + tiny_passes()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
