"""Declarative experiment configs and the ablation driver.

Config files are JSON.  Schema (defaults in parentheses):

    {
      "scene":    {"height", "width", "d_min", "d_max"},
      "regularization": {
          "r_p", "strategy", "n_within" (10), "n_across" (4),
          "loss_reduction" ("mean_contributing"), "depth_loss_weight" (1.0)
      },
      "depth_loss": {"variance_focus" (0.85), "output_scale" (10.0)},
      "schedule": {"steps", "batch_size", "learning_rate", "seeds",
                   "train_scenes" (40), "eval_scenes" (10), "eval_every" (500)},
      "separation": {"near" (0.1), "far" (0.5)},
      "output_dir"
    }

where "strategy" is one of

    {"kind": "uniform", "r_n": ..., "m_u": ...}
    {"kind": "multi_range", "ranges": [[low, high, margin], ...]}
    {"kind": "disabled"}

and any key outside this schema is rejected.  An ablation config adds an
"ablation" section: a "strategies" name->strategy map, plus an optional
"sweep" with "n_within"/"n_across" count lists (the sweep varies one
collecting means with the other disabled).  All randomness roots in the
explicit seed list; rerunning a command overwrites byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import InvalidConfig
from .identify import MultiRange, NegativeRange, RegConfig, Uniform
from .losses import DepthLossParams
from .metrics import CSV_HEADER
from .toybench.train import Schedule, TrainRecord, train_run


@dataclass(frozen=True)
class SceneParams:
    height: int
    width: int
    d_min: float
    d_max: float


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneParams
    reg: RegConfig
    depth_loss: DepthLossParams
    schedule: Schedule
    separation_near: float
    separation_far: float
    output_dir: str

    def __post_init__(self):
        if not 0 < self.separation_near <= self.separation_far:
            raise InvalidConfig("separation thresholds need 0 < near <= far")


CONFIG_KEYS = ("scene", "regularization", "depth_loss", "schedule", "separation",
               "output_dir", "ablation")
STRATEGY_KEYS = {"disabled": (), "uniform": ("r_n", "m_u"), "multi_range": ("ranges",)}


def check_keys(d, where: str, required: tuple[str, ...], allowed: tuple[str, ...] = ()) -> dict:
    """``d``, once it is an object holding every required key and no other key than allowed."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be a JSON object")
    for key in required:
        if key not in d:
            raise InvalidConfig(f"missing config key: {key!r}")
    for key in d:
        if key not in required and key not in allowed:
            raise InvalidConfig(f"unknown config key {key!r} in {where}")
    return d


def scene_from_dict(d: dict) -> SceneParams:
    check_keys(d, "scene", ("height", "width", "d_min", "d_max"))
    return SceneParams(int(d["height"]), int(d["width"]), float(d["d_min"]), float(d["d_max"]))


def strategy_from_dict(d: dict):
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in STRATEGY_KEYS:
        raise InvalidConfig(f"unknown strategy kind {kind!r}")
    check_keys(d, f"{kind} strategy", ("kind",) + STRATEGY_KEYS[kind])
    if kind == "disabled":
        return None
    if kind == "uniform":
        return Uniform(r_n=float(d["r_n"]), m_u=float(d["m_u"]))
    return MultiRange(
        tuple(NegativeRange(float(lo), float(hi), float(m)) for lo, hi, m in d["ranges"])
    )


def strategy_to_dict(s) -> dict:
    if s is None:
        return {"kind": "disabled"}
    if isinstance(s, Uniform):
        return {"kind": "uniform", "r_n": s.r_n, "m_u": s.m_u}
    return {"kind": "multi_range", "ranges": [[r.low, r.high, r.margin] for r in s.ranges]}


def reg_config_from_dict(d: dict) -> RegConfig:
    check_keys(d, "regularization", ("r_p", "strategy"),
               ("n_within", "n_across", "loss_reduction", "depth_loss_weight"))
    return RegConfig(
        r_p=float(d["r_p"]),
        strategy=strategy_from_dict(d["strategy"]),
        n_within=int(d.get("n_within", 10)),
        n_across=int(d.get("n_across", 4)),
        loss_reduction=d.get("loss_reduction", "mean_contributing"),
        depth_loss_weight=float(d.get("depth_loss_weight", 1.0)),
    )


def reg_config_to_dict(cfg: RegConfig) -> dict:
    return {
        "r_p": cfg.r_p,
        "strategy": strategy_to_dict(cfg.strategy),
        "n_within": cfg.n_within,
        "n_across": cfg.n_across,
        "loss_reduction": cfg.loss_reduction,
        "depth_loss_weight": cfg.depth_loss_weight,
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    check_keys(d, "config", ("scene", "regularization", "schedule"), CONFIG_KEYS)
    sched = check_keys(d["schedule"], "schedule",
                       ("steps", "batch_size", "learning_rate", "seeds"),
                       ("train_scenes", "eval_scenes", "eval_every"))
    depth = check_keys(d.get("depth_loss", {}), "depth_loss", (),
                       ("variance_focus", "output_scale"))
    sep = check_keys(d.get("separation", {}), "separation", (), ("near", "far"))
    return ExperimentConfig(
        scene=scene_from_dict(d["scene"]),
        reg=reg_config_from_dict(d["regularization"]),
        depth_loss=DepthLossParams(
            variance_focus=float(depth.get("variance_focus", 0.85)),
            output_scale=float(depth.get("output_scale", 10.0)),
        ),
        schedule=Schedule(
            steps=int(sched["steps"]),
            batch_size=int(sched["batch_size"]),
            learning_rate=float(sched["learning_rate"]),
            seeds=tuple(int(s) for s in sched["seeds"]),
            train_scenes=int(sched.get("train_scenes", 40)),
            eval_scenes=int(sched.get("eval_scenes", 10)),
            eval_every=int(sched.get("eval_every", 500)),
        ),
        separation_near=float(sep.get("near", 0.1)),
        separation_far=float(sep.get("far", 0.5)),
        output_dir=str(d.get("output_dir", "runs")),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "scene": {
            "height": cfg.scene.height,
            "width": cfg.scene.width,
            "d_min": cfg.scene.d_min,
            "d_max": cfg.scene.d_max,
        },
        "regularization": reg_config_to_dict(cfg.reg),
        "depth_loss": {
            "variance_focus": cfg.depth_loss.variance_focus,
            "output_scale": cfg.depth_loss.output_scale,
        },
        "schedule": {
            "steps": cfg.schedule.steps,
            "batch_size": cfg.schedule.batch_size,
            "learning_rate": cfg.schedule.learning_rate,
            "seeds": list(cfg.schedule.seeds),
            "train_scenes": cfg.schedule.train_scenes,
            "eval_scenes": cfg.schedule.eval_scenes,
            "eval_every": cfg.schedule.eval_every,
        },
        "separation": {"near": cfg.separation_near, "far": cfg.separation_far},
        "output_dir": cfg.output_dir,
    }


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InvalidConfig(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(
            f"config parse error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc


# ---------------------------------------------------------------------------
# Run output writers
# ---------------------------------------------------------------------------

def _dump_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _put_finite(obj: dict, name: str, value: float, reason: str) -> None:
    """``obj[name] = value``; a non-finite value is stored as null plus ``<name>_reason``."""
    if math.isfinite(value):
        obj[name] = value
    else:
        obj[name] = None
        obj[f"{name}_reason"] = f"{value!r}: {reason}"


def write_run_outputs(run_dir: Path, record: TrainRecord, seed: int) -> dict:
    """record.csv, eval.csv and summary.json for one run; returns the summary."""
    run_dir.mkdir(parents=True, exist_ok=True)
    step_lines = ["step,l_re,l_depth,l_final,contributing,ignored_fraction"]
    for s in record.steps:
        step_lines.append(
            f"{s.step},{s.l_re!r},{s.l_depth!r},{s.l_final!r},"
            f"{s.contributing},{s.ignored_fraction!r}"
        )
    (run_dir / "record.csv").write_text("\n".join(step_lines) + "\n", encoding="utf-8")

    eval_lines = [f"step,{CSV_HEADER},separation"]
    for e in record.evals:
        eval_lines.append(f"{e.step},{e.report.csv_row()},{e.separation!r}")
    (run_dir / "eval.csv").write_text("\n".join(eval_lines) + "\n", encoding="utf-8")

    final_eval = None
    if record.evals:
        last = record.evals[-1]
        final_eval = {"step": last.step}
        for name, value in asdict(last.report).items():
            _put_finite(final_eval, name, value, "the model predicts non-finite depths")
        _put_finite(final_eval, "separation", last.separation,
                    "no held-out scene has both near and far pairs at nonzero near distance")
    summary = {
        "seed": seed,
        "diverged": record.diverged,
        "diverged_step": record.diverged_step,
        "steps_completed": len(record.steps),
        "final_regularization_breakdown": record.final_breakdown,
        "final_eval": final_eval,
    }
    _dump_json(run_dir / "summary.json", summary)
    return summary


def run_experiment(cfg: ExperimentConfig, out_dir: Path, reg_override: RegConfig | None = None,
                   label: str = "run") -> dict:
    """All seeds of one configuration; returns {seed: summary}."""
    reg = cfg.reg if reg_override is None else reg_override
    summaries = {}
    for seed in cfg.schedule.seeds:
        record = train_run(
            (cfg.scene.height, cfg.scene.width),
            (cfg.scene.d_min, cfg.scene.d_max),
            reg,
            cfg.depth_loss,
            cfg.schedule,
            seed,
            (cfg.separation_near, cfg.separation_far),
        )
        summaries[seed] = write_run_outputs(out_dir / label / f"seed_{seed}", record, seed)
    return summaries


def _means(runs: dict, **values: list) -> dict:
    """Mean and count (``<name>_n``) of the finite values in each named list.

    ``n_diverged`` counts the diverged runs; a diverged run's last
    evaluation, if it reached one, is averaged like any other.
    """
    out = {"n_diverged": sum(r["diverged"] for r in runs.values())}
    for name, xs in values.items():
        finite = [x for x in xs if x is not None and math.isfinite(x)]
        mean = sum(finite) / len(finite) if finite else math.nan
        _put_finite(out, name, mean, "no seed has a finite value to average")
        out[f"{name}_n"] = len(finite)
    return out


def run_ablation(cfg: ExperimentConfig, ablation: dict, out_dir: Path) -> dict:
    """Strategy comparison plus optional sample-count sweeps.

    Writes one run directory per (strategy, seed), a JSON comparison summary,
    and two-column plot-data files for any sweep grids.
    """
    strategies = ablation.get("strategies")
    if not strategies:
        raise InvalidConfig("ablation config needs a non-empty 'strategies' map")

    summary: dict = {"seeds": list(cfg.schedule.seeds), "strategies": {}}
    for name, strat_dict in strategies.items():
        strat = strategy_from_dict(strat_dict)
        reg = RegConfig(
            r_p=cfg.reg.r_p,
            strategy=strat,
            n_within=cfg.reg.n_within,
            n_across=cfg.reg.n_across,
            loss_reduction=cfg.reg.loss_reduction,
            depth_loss_weight=cfg.reg.depth_loss_weight,
        )
        runs = run_experiment(cfg, out_dir, reg_override=reg, label=name)
        per_seed = []
        for seed in cfg.schedule.seeds:
            final = runs[seed]["final_eval"] or {}
            entry = {"seed": seed, "diverged": runs[seed]["diverged"],
                     "abs_rel": final.get("abs_rel"), "separation": final.get("separation")}
            entry.update((k, final[k]) for k in ("abs_rel_reason", "separation_reason")
                         if k in final)
            per_seed.append(entry)
        summary["strategies"][name] = {
            "per_seed": per_seed,
            **_means(runs, mean_abs_rel=[p["abs_rel"] for p in per_seed],
                     mean_separation=[p["separation"] for p in per_seed]),
        }

    sweep = ablation.get("sweep", {})
    sweep_base = ablation.get(
        "sweep_strategy", {"kind": "multi_range", "ranges": [[0.5, 1.0, 2.0]]}
    )
    for axis, counts in (("n_within", sweep.get("n_within", [])),
                         ("n_across", sweep.get("n_across", []))):
        if not counts:
            continue
        points = []
        for count in counts:
            reg = RegConfig(
                r_p=cfg.reg.r_p,
                strategy=strategy_from_dict(sweep_base),
                n_within=count if axis == "n_within" else 0,
                n_across=count if axis == "n_across" else 0,
                loss_reduction=cfg.reg.loss_reduction,
                depth_loss_weight=cfg.reg.depth_loss_weight,
            )
            runs = run_experiment(cfg, out_dir, reg_override=reg,
                                  label=f"sweep_{axis}_{count}")
            abs_rels = [
                r["final_eval"]["abs_rel"] for r in runs.values() if r["final_eval"]
            ]
            points.append({"count": count, **_means(runs, mean_abs_rel=abs_rels)})
        # plot data keeps "nan" where the summary writes null
        data = "".join(
            f"{p['count']} {'nan' if p['mean_abs_rel'] is None else repr(p['mean_abs_rel'])}\n"
            for p in points
        )
        (out_dir / f"sweep_{axis}.dat").write_text(data, encoding="utf-8")
        summary[f"sweep_{axis}"] = points

    _dump_json(out_dir / "ablation_summary.json", summary)
    return summary
