"""Experiment driver.

Subcommands: gradcheck, oracle, ablate, train, eval, gen-scenes.
All randomness comes from seeds in configs or flags; identical invocations
rewrite byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DepthRegError
from .experiment import (
    _dump_json,
    ablation_runs,
    config_from_dict,
    load_config_file,
    run_ablation,
    run_experiment,
    scene_config_from_dict,
    train_plan,
)
from .grid import SeedRng, roll_into
from .identify import identify
from .metrics import CSV_HEADER, compute_metrics
from .pfmio import read_pfm_g1, write_pfm_g1, write_pfm_g3, write_pgm_labels
from .toybench.scenes import gen_scene
from .verification import (
    run_metrics_oracle,
    run_model_gradcheck,
    run_regloss_gradcheck,
    run_regloss_oracle,
    run_siloss_gradcheck,
)


def _vacuous(suite: str, trials: int) -> bool:
    if trials == 0:
        print(f"WARN {suite} suite: trials=0, vacuously passing")
    return trials == 0


def cmd_gradcheck(args) -> int:
    if _vacuous("gradcheck", args.trials):
        return 0
    results = [
        run_regloss_gradcheck(args.trials, args.tolerance, seed=args.seed),
        run_siloss_gradcheck(args.trials, args.tolerance, seed=args.seed + 1),
        run_model_gradcheck(args.tolerance * 10, seed=args.seed + 2),
    ]
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_oracle(args) -> int:
    if _vacuous("oracle", args.trials):
        return 0
    results = [
        run_regloss_oracle(args.trials, seed=args.seed),
        run_metrics_oracle(args.trials, seed=args.seed + 1),
    ]
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def _fmt(value: float | None, spec: str) -> str:
    """A summary value for a console line; null (non-finite) prints as n/a."""
    return "n/a" if value is None else format(value, spec)


def _progress(total: int):
    """An ``on_run`` callback printing one line to stderr per finished run of ``total``.

    The line holds no wall-clock time, so a rerun prints the same lines.
    """
    done = itertools.count(1)

    def on_run(label: str, seed: int, summary: dict) -> None:
        if summary["diverged"]:
            result = "DIVERGED"
        else:
            result = f"abs_rel={_fmt(summary['final_eval']['abs_rel'], '.6f')}"
        print(f"[{next(done)}/{total}] {label} seed {seed}: "
              f"{summary['steps_completed']} steps, {result}", file=sys.stderr, flush=True)

    return on_run


def cmd_train(args) -> int:
    cfg = config_from_dict(load_config_file(args.config))
    if args.seed is not None:
        cfg = replace(cfg, schedule=replace(cfg.schedule, seeds=(args.seed,)))
    plan = train_plan(cfg)  # a run the schedule cannot train fails before anything is written
    out = Path(args.out if args.out is not None else cfg.output_dir)
    runs = run_experiment(cfg, plan, out, on_run=_progress(len(cfg.schedule.seeds)))
    for seed, s in runs["run"].items():
        final = s["final_eval"]
        if s["diverged"]:
            print(f"seed {seed}: DIVERGED at step {s['diverged_step']}")
        else:
            print(f"seed {seed}: abs_rel={_fmt(final['abs_rel'], '.6f')} "
                  f"separation={_fmt(final['separation'], '.4f')}")
    return 0


def cmd_ablate(args) -> int:
    raw = load_config_file(args.config)
    cfg = config_from_dict(raw)
    # a bad section fails before anything is written
    plan = ablation_runs(cfg, raw.get("ablation", {}))
    out = Path(args.out if args.out is not None else cfg.output_dir)
    summary = run_ablation(cfg, plan, out, on_run=_progress(len(plan) * len(cfg.schedule.seeds)))
    for name, s in summary["strategies"].items():
        print(f"{name}: mean_abs_rel={_fmt(s['mean_abs_rel'], '.6f')} "
              f"mean_separation={_fmt(s['mean_separation'], '.4f')}")
    print(f"wrote {out / 'ablation_summary.json'}")
    return 0


def cmd_eval(args) -> int:
    pred = read_pfm_g1(args.pred).values  # a checked file; its mask plays no part
    gt = read_pfm_g1(args.gt)
    report = compute_metrics(pred, gt)
    text = f"{CSV_HEADER}\n{report.csv_row()}\n"
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_gen_scenes(args) -> int:
    raw = load_config_file(args.config)
    scene, reg_cfg = scene_config_from_dict(raw)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seq = SeedRng(args.seed)
    seeds = [seq.next_u64() for _ in range(args.count)]
    for i, s in enumerate(seeds):
        sc = gen_scene(s, scene.height, scene.width, scene.d_min, scene.d_max)
        write_pfm_g3(out / f"scene_{i:04d}.image.pfm", sc.image)
        write_pfm_g1(out / f"scene_{i:04d}.depth.pfm", sc.depth)
        if reg_cfg is not None and reg_cfg.enabled:
            # inspection aid: sample-type map of the scene against its own
            # depth rolled by one pixel (sharp bands at discontinuities)
            plane = sc.depth.plane
            rolled = roll_into(plane, 1, 1, np.empty_like(plane))
            labels = identify(np.abs(plane - rolled), reg_cfg)
            write_pgm_labels(out / f"scene_{i:04d}.selfdiff.pgm", labels)
    _dump_json(out / "manifest.json", {"base_seed": args.seed, "count": args.count,
                                       "scene": raw["scene"], "scene_seeds": seeds})
    print(f"wrote {args.count} scenes to {out}")
    return 0


def out_path(text: str) -> str:
    """A non-empty path, for argparse: an empty one would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def count(text: str) -> int:
    """An integer >= 0, for argparse."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def positive_finite(text: str) -> float:
    """A finite float > 0, for argparse."""
    x = float(text)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return x


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="depthreg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    g.add_argument("--trials", type=count, default=100)
    g.add_argument("--tolerance", type=positive_finite, default=1e-5,
                   help="max relative error; the full-model check runs at 10x this")
    g.add_argument("--seed", type=int, default=20260801)
    g.set_defaults(func=cmd_gradcheck)

    o = sub.add_parser("oracle", help="vectorized paths vs scalar-loop references")
    o.add_argument("--trials", type=count, default=100)
    o.add_argument("--seed", type=int, default=20260804)
    o.set_defaults(func=cmd_oracle)

    t = sub.add_parser("train", help="seeded training runs from a config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", type=out_path, default=None)
    t.add_argument("--seed", type=int, default=None,
                   help="override the config seed list with this single seed")
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("ablate", help="strategy comparison and sample-count sweeps")
    a.add_argument("--config", required=True)
    a.add_argument("--out", type=out_path, default=None)
    a.set_defaults(func=cmd_ablate)

    e = sub.add_parser("eval", help="metrics for a prediction PFM against a ground-truth PFM")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--out", type=out_path, default=None)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("gen-scenes", help="dump synthetic scenes as PFM files")
    s.add_argument("--config", required=True)
    s.add_argument("--out", type=out_path, required=True)
    s.add_argument("--count", type=count, default=4)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_gen_scenes)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DepthRegError, OSError) as exc:  # bad input, or a file that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
