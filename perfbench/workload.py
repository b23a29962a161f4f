"""One workload in one process: rounds of a seeded CLI call, checks, metrics.

Run by ``run.py``; not meant to be started by hand.  The process imports
the package from the checkout's ``src``, runs whole rounds of the
workload until ``--seconds`` of round wall time have passed (at least two,
so that check (d) can compare them), checks every round apart from the
package, and prints one JSON line with its metrics.  With ``--probe`` it
stops at the first training step and reports only the set-up time.

Times are reported at reference speed.  On a 2-vCPU host shared with other
tenants, speed moved by up to 2x in plateaus of 20-30 s, so raw wall
times of two runs of the same code differed by more than any useful
bound.  A fixed numpy kernel (``Reference``) is therefore timed before
and after every training step, outside the timed spans, and every
stretch of time between two kernel timings is multiplied by
``REF_NOMINAL_S`` over their mean.  A round's scale is its scaled wall
over its wall; traced spans and the measured process's set-up time take
the scale of their round, so traced and untraced figures are scaled the
same way.  Raw figures go to the results file.  Step-time percentiles
are taken over the distinct steps of a round, each at the fastest of its
repetitions across rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent

# Training data and model initialisation are fixed per workload, so the
# held-out AbsRel repeats exactly: at 150 steps it swings from 0.24 to 0.87
# between neighbouring training seeds, far wider than any useful bound.
# The seeds are disjoint from the acceptance gate seeds {101, ..., 505}.
TRAIN_SEED = 606
ABLATE_SEEDS = [707, 808]

MULTI_RANGE = {"kind": "multi_range",
               "ranges": [[0.5, 1.0, 3.0], [1.0, 1.5, 6.0], [1.5, 2.0, 8.0]]}
UNIFORM = {"kind": "uniform", "r_n": 0.5, "m_u": 4.0}
DISABLED = {"kind": "disabled"}
SWEEP_STRATEGY = {"kind": "multi_range", "ranges": [[0.5, 1.0, 2.0]]}
SWEEP = {"n_within": [2, 6], "n_across": [1, 3]}

SCALES = {
    "full": {
        "train": {"height": 64, "width": 64, "steps": 200, "eval_every": 50,
                  "train_scenes": 40, "eval_scenes": 10},
        "ablate": {"height": 32, "width": 32, "steps": 40, "eval_every": 10,
                   "train_scenes": 16, "eval_scenes": 4},
    },
    "tiny": {
        "train": {"height": 12, "width": 12, "steps": 4, "eval_every": 2,
                  "train_scenes": 8, "eval_scenes": 2},
        "ablate": {"height": 8, "width": 8, "steps": 3, "eval_every": 1,
                   "train_scenes": 4, "eval_scenes": 2},
    },
}

REF_NOMINAL_S = 1.0e-3  # scaled figures read as on a host where the kernel takes this long

STEP_LAYERS = ("sampling.collect", "losses.reg", "identify.classify", "toybench.train.route",
               "toybench.model.forward", "toybench.model.backward", "toybench.train.update",
               "losses.si")
EVAL_LAYERS = ("toybench.train.eval", "metrics.compute", "toybench.train.separation")
RUN_LAYERS = ("toybench.scenes.pool", "experiment.write")


class FirstStep(Exception):
    """Raised by a set-up probe to stop at the first training step."""


def reg_section(strategy: dict, n_within: int = 10, n_across: int = 4) -> dict:
    return {"r_p": 0.1, "strategy": strategy, "n_within": n_within, "n_across": n_across,
            "loss_reduction": "mean_contributing", "depth_loss_weight": 1.0}


def make_config(shape: dict, strategy: dict, seeds: list[int]) -> dict:
    return {
        "scene": {"height": shape["height"], "width": shape["width"], "d_min": 0.5, "d_max": 10.0},
        "regularization": reg_section(strategy),
        "depth_loss": {"variance_focus": 0.85, "output_scale": 10.0},
        "schedule": {"steps": shape["steps"], "batch_size": 4, "learning_rate": 0.003,
                     "seeds": seeds, "train_scenes": shape["train_scenes"],
                     "eval_scenes": shape["eval_scenes"], "eval_every": shape["eval_every"]},
        "separation": {"near": 0.1, "far": 0.5},
        "output_dir": "unused",
    }


def workload_spec(name: str, scale: str) -> tuple[str, dict, list[dict]]:
    """(CLI subcommand, config, expected runs in the order the CLI trains them)."""
    if name in ("train-multirange", "train-baseline"):
        strategy = MULTI_RANGE if name == "train-multirange" else DISABLED
        config = make_config(SCALES[scale]["train"], strategy, [TRAIN_SEED])
        return "train", config, [{"label": "run", "seed": TRAIN_SEED, "reg": reg_section(strategy)}]
    if name == "ablate-sweep":
        config = make_config(SCALES[scale]["ablate"], MULTI_RANGE, ABLATE_SEEDS)
        strategies = {"baseline": DISABLED, "uniform": UNIFORM, "multi_range": MULTI_RANGE}
        config["ablation"] = {"strategies": strategies, "sweep": SWEEP,
                              "sweep_strategy": SWEEP_STRATEGY}
        runs = [{"label": label, "seed": s, "reg": reg_section(strat)}
                for label, strat in strategies.items() for s in ABLATE_SEEDS]
        for axis in ("n_within", "n_across"):
            for count in SWEEP[axis]:
                counts = {"n_within": 0, "n_across": 0, axis: count}
                runs += [{"label": f"sweep_{axis}_{count}", "seed": s,
                          "reg": reg_section(SWEEP_STRATEGY, **counts)} for s in ABLATE_SEEDS]
        return "ablate", config, runs
    raise SystemExit(f"unknown workload {name!r}")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Reference:
    """Fixed numpy work of the kind a training step does, to track host speed."""

    def __init__(self):
        rng = np.random.default_rng(20261018)
        self.x = rng.random((4096, 3))
        self.w1 = rng.random((12, 3))
        self.w2 = rng.random((12, 12))
        self.f = rng.random((64, 64, 6))
        self.d = 4.0 * rng.random((64, 64))

    def time_once(self) -> float:
        t0 = time.perf_counter()
        h = np.tanh(np.tanh(self.x @ self.w1.T) @ self.w2.T)
        acc = float((h.T @ h).sum())
        for s in range(1, 4):
            diff = self.f - np.roll(self.f, (s, 2 * s), axis=(0, 1))
            dist = np.sqrt(np.einsum("hwc,hwc->hw", diff, diff))
            dd = np.abs(self.d - np.roll(self.d, (s, 2 * s), axis=(0, 1)))
            acc += float(np.maximum(0.0, 3.0 - dist)[(dd > 0.5) & (dd < 1.0)].sum())
            acc += float(dist[dd < 0.1].sum())
        return time.perf_counter() - t0

    def scale(self, samples: list[float]) -> float:
        """Scale of a set-up probe, which runs no round."""
        return REF_NOMINAL_S / statistics.median(samples)


class Recorder:
    """Wrappers that time each training step and capture what the checks need."""

    OBJECTIVE_ARGS = ("model", "scenes", "reg_cfg", "depth_params", "sample_seed")

    def __init__(self, probe: bool, tracer):
        self.probe = probe
        self.tracer = tracer
        self.reference = Reference()
        self.first_step_at: float | None = None
        self.rounds: list[dict] = []
        self.runs: list[dict] = []
        self.samples = self.sample_bytes = self.pairs = self.contributing = 0
        self.capture = {"toybench.train.route": self.objective, "toybench.train.update": self.run}
        if tracer is not None:
            self.capture["sampling.collect"] = self.sample_set
            self.capture["losses.reg"] = self.reg

    def begin_round(self) -> None:
        """Starts a round; the previous round's captures are let go."""
        self.runs = []
        self.rounds.append({"step_s": [], "step_ref_s": [], "ref_s": [], "marks": []})
        self.calibrate()

    def end_round(self) -> tuple[float, float]:
        """(wall, wall at reference speed) of the round, kernel timings excluded.

        Each stretch between two kernel timings is scaled by the mean of
        the two.
        """
        self.calibrate()
        marks = self.rounds[-1]["marks"]
        wall = scaled = 0.0
        for (_, end, ref0), (start, _, ref1) in zip(marks, marks[1:]):
            wall += start - end
            scaled += (start - end) * REF_NOMINAL_S / (0.5 * (ref0 + ref1))
        return wall, scaled

    def calibrate(self) -> None:
        """One reference timing, marked so that round walls can leave it out."""
        t0 = time.perf_counter()
        idx = self.tracer.open(tracing.CALIBRATION) if self.tracer else None
        current = self.rounds[-1]
        ref = self.reference.time_once()
        current["ref_s"].append(ref)
        if idx is not None:
            self.tracer.close(idx)
        current["marks"].append((t0, time.perf_counter(), ref))

    def objective(self, fn):
        def wrapped(*args, **kwargs):
            if self.first_step_at is None:
                self.first_step_at = time.clock_gettime(time.CLOCK_MONOTONIC)
                if self.probe:
                    raise FirstStep
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            current = self.rounds[-1]
            before = current["ref_s"][-1]
            self.calibrate()
            current["step_s"].append(t1 - t0)
            current["step_ref_s"].append(0.5 * (before + current["ref_s"][-1]))
            run = self.runs[-1]
            call = ({**dict(zip(self.OBJECTIVE_ARGS, args)), **kwargs}, result)
            run["first"] = run["first"] or call
            run["last"] = call
            return result
        return wrapped

    def run(self, fn):
        signature = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            entry = {"seed": bound["seed"], "first": None, "last": None, "record": None}
            self.runs.append(entry)
            entry["record"] = fn(*args, **kwargs)
            return entry["record"]
        return wrapped

    def sample_set(self, fn):
        """Counts samples and the bytes of sample maps not shared with the batch."""
        def wrapped(f_a, d_a, batch, *args, **kwargs):
            result = fn(f_a, d_a, batch, *args, **kwargs)
            shared = {id(a) for f, d in batch.items for a in (f.data, d.values, d.valid)}
            fresh = {}
            for pair in result:
                for a in (pair.feature.data, pair.depth.values, pair.depth.valid):
                    if id(a) not in shared:
                        fresh[id(a)] = a.nbytes
            self.samples += len(result)
            self.sample_bytes += sum(fresh.values())
            return result
        return wrapped

    def reg(self, fn):
        def wrapped(f_a, d_a, samples, *args, **kwargs):
            result = fn(f_a, d_a, samples, *args, **kwargs)
            self.pairs += len(samples) * f_a.height * f_a.width
            self.contributing += result.contributing_count
            return result
        return wrapped


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, result: tuple[bool, str], what: str) -> None:
        ok, detail = result
        self.op(ok, f"{what}: {detail}")


def check_round(tally, runs, expected, out_dir, bench_seed, config, objective, reference):
    """Checks (a), (b), (c) and (e) on one round; (d) against ``reference``.

    ``objective`` is the unwrapped ``batch_objective``, so the extra calls of
    the gradient check are neither timed nor captured.
    """
    from depthreg.toybench.scenes import scene_pool

    scene = config["scene"]
    tally.op(len(runs) == len(expected), f"{len(runs)} runs trained, {len(expected)} expected")
    losses = []
    for index, (run, want) in enumerate(zip(runs, expected)):
        record = run["record"]
        what = f"{want['label']}/seed_{want['seed']}"
        tally.op(run["seed"] == want["seed"] and record is not None, f"{what}: run order")
        if record is None:
            continue
        for _ in record.steps:
            tally.op(True)
        if record.diverged:
            tally.op(False, f"{what}: step {record.diverged_step} diverged")
        for _ in record.evals:
            tally.op(True)
        losses.append([(s.l_re, s.l_depth, s.l_final) for s in record.steps])
        if run["first"] is None or record.diverged:
            continue
        for name in ("first", "last"):
            tally.check(checks.check_step(run[name], want["reg"], config["depth_loss"]),
                        f"{what}: (a) {name} step")
        n_params = checks.flatten(checks.weights_of(run["last"][0]["model"])).size
        coords = checks.fd_coordinates(bench_seed * 1000 + index, n_params)
        tally.check(checks.check_gradient(run["last"], objective, coords),
                    f"{what}: (b) gradient")
        pool = scene_pool(checks.eval_pool_seed(want["seed"]), config["schedule"]["eval_scenes"],
                          scene["height"], scene["width"], scene["d_min"], scene["d_max"])
        expected_abs_rel = checks.held_out_abs_rel(
            checks.final_weights(run["last"], config["schedule"]["learning_rate"]), pool)
        summary = json.loads((out_dir / want["label"] / f"seed_{want['seed']}" / "summary.json")
                             .read_text(encoding="utf-8"))
        reported = [record.evals[-1].report.abs_rel, summary["final_eval"]["abs_rel"]]
        tally.check(checks.check_abs_rel(expected_abs_rel, reported), f"{what}: (c) AbsRel")
    for path in sorted(out_dir.rglob("*.json")):
        tally.check(checks.check_strict_json(path), f"(e) {path.relative_to(out_dir)}")
    digest = checks.tree_hash(out_dir)
    if reference is not None:
        tally.check(checks.check_same(reference["losses"], losses, "step losses"), "(d) losses")
        tally.check(checks.check_same(reference["hash"], digest, "output tree"), "(d) tree")
    return {"losses": losses, "hash": digest}


def traced_metrics(tracer, recorder, scales, steps, evals, runs, absent):
    """Per-layer metrics at reference speed, and the scaled self-time totals in ms.

    Layers in ``absent`` have no hooked function, and the metrics drawn from
    them are left out rather than reported as 0.
    """
    selfs = tracer.self_times(scales)
    if any(v < -1e-9 for v in selfs.values()):
        raise RuntimeError(f"spans do not nest: negative self time in {selfs}")
    # Self times partition the rounds' spans; the kernel timings are not workload.
    wall = sum(selfs.values()) - selfs.pop(tracing.CALIBRATION, 0.0)
    metrics = {}
    for layers, base in ((STEP_LAYERS, steps), (EVAL_LAYERS, evals), (RUN_LAYERS, runs)):
        for layer in layers:
            if layer not in absent:
                metrics[f"{layer}_ms"] = (1e3 * selfs.get(layer, 0.0) / base, "ms")
    metrics["trace.unattributed_ms"] = (1e3 * selfs.get(tracing.ROOT, 0.0) / steps, "ms")
    metrics["trace.wall_ms"] = (1e3 * wall / steps, "ms")
    metrics["trace.steps_per_s"] = (steps / wall, "1/s")
    if "sampling.collect" not in absent:
        metrics["sampling.samples_per_step"] = (recorder.samples / steps, "count")
        metrics["sampling.bytes_per_step"] = (recorder.sample_bytes / steps, "B_computed")
    if "losses.reg" not in absent:
        metrics["losses.pixel_pairs_per_step"] = (recorder.pairs / steps, "count")
        metrics["losses.contributing_frac"] = (
            recorder.contributing / recorder.pairs if recorder.pairs else 0.0, "fraction")
    return metrics, {name: 1e3 * v for name, v in selfs.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(SCALES), default="full")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    import depthreg
    from depthreg import cli
    from depthreg.toybench import train as train_module

    if not Path(depthreg.__file__).resolve().is_relative_to(HERE.parent / "src"):
        raise SystemExit(f"imported depthreg from {depthreg.__file__}, not from this checkout")

    command, config, expected = workload_spec(args.workload, args.scale)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    out_dir = work / "out"
    argv_cli = [command, "--config", str(config_path), "--out", str(out_dir)]

    tracer = tracing.Tracer() if args.trace and not args.probe else None
    recorder = Recorder(args.probe, tracer)

    def factory(layer, capture):
        def make(fn):
            inner = tracer.wrap(layer, fn) if tracer else fn
            return capture(inner) if capture else inner
        return make

    layers = {layer for _, _, layer in tracing.HOOKS}
    factories = {layer: factory(layer, recorder.capture.get(layer)) for layer in layers
                 if tracer is not None or layer in recorder.capture}
    objective = train_module.batch_objective

    if args.probe:
        tracing.install(factories)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv_cli)
        except FirstStep:
            raw = recorder.first_step_at - args.spawned_at
            ref = [recorder.reference.time_once() for _ in range(6)][1:]
            print(json.dumps({"setup_s": raw * recorder.reference.scale(ref), "raw_s": raw}))
            return 0
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print("set-up probe never reached a training step", file=sys.stderr)
        return 1

    tally = Tally()
    reference, abs_rels = None, []
    round_s, scaled_round_s, steps, evals, n_runs = [], [], 0, 0, 0
    while len(round_s) < 2 or sum(round_s) < args.seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        root = tracer.open(tracing.ROOT) if tracer else None
        # Hooks are in place only while a round runs, so the checks see the
        # package unwrapped and add no spans or counts.
        absent, undo = tracing.install(factories)
        recorder.begin_round()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv_cli)
        except Exception as exc:  # a crash of the program is a failed run, reported below
            rc = f"{type(exc).__name__}: {exc}"
        wall, scaled = recorder.end_round()
        round_s.append(wall)
        scaled_round_s.append(scaled)
        tracing.uninstall(undo)
        if tracer:
            tracer.close(root)
        runs = recorder.runs
        if rc != 0:
            tally.op(False, f"round {len(round_s)}: depthreg {command} returned {rc}")
            break
        steps += sum(len(r["record"].steps) for r in runs if r["record"] is not None)
        evals += sum(len(r["record"].evals) for r in runs if r["record"] is not None)
        n_runs += len(runs)
        state = check_round(tally, runs, expected, out_dir, args.seed, config, objective,
                            reference)
        if reference is None:
            reference = state
            abs_rels = [r["record"].evals[-1].report.abs_rel for r in runs
                        if r["record"] is not None and r["record"].evals]

    scales = [s / w for w, s in zip(round_s, scaled_round_s)]
    step_ms = np.concatenate([np.array(r["step_s"]) * 1e3 for r in recorder.rounds])
    scaled = [1e3 * REF_NOMINAL_S * np.array(r["step_s"]) / r["step_ref_s"]
              for r in recorder.rounds]
    # Every round repeats the same steps on the same inputs, so a step's time
    # is the fastest of its repetitions: contention that hit one round only
    # drops out, a slow step that recurs stays.
    per_step = np.min([t for t in scaled if t.size == scaled[0].size], axis=0)
    raw_setup = recorder.first_step_at and recorder.first_step_at - args.spawned_at
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "rounds": len(round_s), "round_s": round_s, "round_scale": scales, "steps": steps,
        "evaluations": evals, "runs": n_runs, "step_samples": int(per_step.size),
        "step_repetitions": len(round_s),
        "blas_threads": blas_threads(), "numpy": np.__version__, "nproc": os.cpu_count(),
        "failures": tally.failures[:20], "raw_setup_s": raw_setup,
        "setup_s": raw_setup and raw_setup * scales[0],
        "raw_steps_per_s": steps / sum(round_s),
        "raw_step_ms_p50": float(np.percentile(step_ms, 50)) if step_ms.size else None,
        "warmup_ratio": float(np.median(scaled[0][:40]) / np.median(scaled[0][40:]))
        if scaled[0].size > 80 else None,
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed}
    if steps == 0:
        result["metrics"] = {}
    elif tracer:
        metrics, totals = traced_metrics(tracer, recorder, scales, steps, max(evals, 1), n_runs,
                                         absent)
        bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        metrics["experiment.bytes_written"] = (bytes_written * len(round_s) / n_runs, "B")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        details.update(absent_layers=absent, self_ms_total=totals)
        spans_path = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    else:
        result["metrics"] = {
            "steps_per_s": {"value": steps / sum(scaled_round_s), "unit": "1/s"},
            "step_ms_p50": {"value": float(np.percentile(per_step, 50)), "unit": "ms"},
            "step_ms_p95": {"value": float(np.percentile(per_step, 95)), "unit": "ms"},
            "abs_rel": {"value": statistics.fmean(abs_rels) if abs_rels else 0.0, "unit": "1"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"details": details, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
