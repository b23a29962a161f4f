"""Declarative experiment configs and the ablation driver.

A config file is a JSON object of sections, each read into the frozen
dataclass that states its schema: "scene" (``SceneParams``),
"regularization" (``RegConfig``), "depth_loss" (``DepthLossParams``),
"schedule" (``Schedule``), "separation" (``Separation``), "output_dir"
(a non-empty string, default "runs") and, for ``depthreg ablate``, "ablation"
(``Ablation``, with "sweep" read into ``Sweep``).  A section's keys are
its dataclass's fields, the fields without a default are the required
keys and the field defaults are the defaults.  A strategy is one of

    {"kind": "uniform", "r_n": ..., "m_u": ...}
    {"kind": "multi_range", "ranges": [[low, high, margin], ...]}
    {"kind": "disabled"}

A missing or unknown key, or a value that is not of its field's type,
raises ``InvalidConfig`` naming ``section.key``; nothing is coerced (an
integer field rejects 2.7, "12" and true, a number field strings, bools,
NaN and the infinities, a string field anything but a string, null
included); a top-level key is named ``config.<key>``.  The seed list and
each sweep list take no repeated entry.  An ablation's run plan trains
every (strategy, seed) pair of its "strategies" map, then, for each count
in the "sweep" lists, the "sweep_strategy" with that count on its axis
("n_within" or "n_across") and 0 on the other; the plan, every run's
regularizer included, is built and checked before the first run.  A run
whose loss or held-out evaluation diverges is recorded as diverged at
that step and the other runs go on.  All randomness roots in the explicit
seed list; rerunning a command overwrites byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .errors import InvalidConfig
from .identify import NegativeRange, RegConfig
from .losses import DepthLossParams
from .metrics import CSV_HEADER
from .toybench.scenes import check_scene
from .toybench.train import Schedule, TrainRecord, check_batch, train_run


@dataclass(frozen=True)
class SceneParams:
    height: int
    width: int
    d_min: float
    d_max: float

    def __post_init__(self):
        check_scene(self.height, self.width, self.d_min, self.d_max)


@dataclass(frozen=True)
class Separation:
    """Depth-differential thresholds of the feature-separation statistic."""

    near: float = 0.1
    far: float = 0.5

    def __post_init__(self):
        if not 0 < self.near <= self.far:
            raise InvalidConfig("separation thresholds need 0 < near <= far")


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneParams
    reg: RegConfig
    depth_loss: DepthLossParams
    schedule: Schedule
    separation: Separation
    output_dir: str = "runs"


@dataclass(frozen=True)
class Sweep:
    n_within: tuple[int, ...] = ()
    n_across: tuple[int, ...] = ()


@dataclass(frozen=True)
class Ablation:
    strategies: dict[str, tuple[NegativeRange, ...] | None]
    sweep: Sweep = Sweep()
    sweep_strategy: tuple[NegativeRange, ...] | None = (NegativeRange(0.5, 1.0, 2.0),)


CONFIG_KEYS = ("scene", "regularization", "depth_loss", "schedule", "separation",
               "output_dir", "ablation")


def _int(x) -> int:
    """A JSON integer; an integral number such as 3.0 passes, a bool or string does not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or (
            isinstance(x, float) and not x.is_integer()):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


def _float(x) -> float:
    """A finite JSON number; a bool, a string, NaN or an infinity does not pass."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    if not math.isfinite(x := float(x)):
        raise ValueError(f"expected a finite number, got {x!r}")
    return x


def _str(x) -> str:
    """A JSON string; null, a number or a bool does not pass."""
    if not isinstance(x, str):
        raise TypeError(f"expected a string, got {x!r}")
    return x


def _dir(x) -> str:
    """A non-empty JSON string: an empty path would name the working directory."""
    if not _str(x):
        raise ValueError("expected a non-empty path, got ''")
    return x


# field types are annotation strings: every config module postpones annotations
_SCALARS = {"int": _int, "float": _float, "str": _str}


def _converted(to, x, name: str):
    """``to(x)``; a ``TypeError``, ``ValueError`` or ``OverflowError`` becomes ``InvalidConfig``."""
    try:
        return to(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{name}: {exc}") from exc


def check_keys(d, where: str, required: tuple[str, ...], allowed: tuple[str, ...] = ()) -> dict:
    """``d``, once it is an object holding every required key and no other key than allowed."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be a JSON object")
    for key in required:
        if key not in d:
            raise InvalidConfig(f"missing config key: {key!r} in {where}")
    for key in d:
        if key not in required and key not in allowed:
            raise InvalidConfig(f"unknown config key {key!r} in {where}")
    return d


def from_section(cls, d, where: str, **convert):
    """``cls`` built from the JSON object ``d``, whose keys are ``cls``'s fields.

    A field without a default is a required key.  Each value goes through
    ``convert[key]`` if given, else through its field's type when that is
    int, float or str, taking only JSON integers, finite JSON numbers and
    JSON strings; a ``TypeError``, ``ValueError`` or ``OverflowError`` on the
    way becomes ``InvalidConfig("<where>.<key>: ...")``.
    """
    fs = fields(cls)
    check_keys(d, where, tuple(f.name for f in fs if f.default is MISSING),
               tuple(f.name for f in fs))
    values = {}
    for f in fs:
        if f.name in d:
            to = convert.get(f.name) or _SCALARS.get(f.type)
            values[f.name] = _converted(to, d[f.name], f"{where}.{f.name}") if to else d[f.name]
    return cls(**values)


def _ints(xs) -> tuple[int, ...]:
    """Distinct JSON integers: a repeated seed or sweep count would train one run twice."""
    out = tuple(_int(x) for x in xs)
    if len(set(out)) < len(out):
        raise ValueError(f"repeated entry in {list(out)}")
    return out


def strategy_from_dict(d, where: str):
    """The negative ranges a ``{"kind": ...}`` object names; ``None`` for "disabled"."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind not in ("disabled", "uniform", "multi_range"):
        raise InvalidConfig(f"unknown strategy kind {kind!r} in {where}")
    rest = {k: v for k, v in d.items() if k != "kind"}
    if kind == "uniform":  # the one range (r_n, inf) with margin m_u
        check_keys(rest, where, ("r_n", "m_u"))
        r_n, m_u = (_converted(_float, rest[k], f"{where}.{k}") for k in ("r_n", "m_u"))
        return (NegativeRange(r_n, math.inf, m_u),)
    if kind == "multi_range":
        check_keys(rest, where, ("ranges",))
        return _converted(lambda rows: tuple(NegativeRange(*map(_float, row)) for row in rows),
                          rest["ranges"], f"{where}.ranges")
    check_keys(rest, where, ())
    return None


def strategy_to_dict(s) -> dict:
    """``s`` in config form; a config's bounds are finite, so an infinite one is uniform's."""
    if s is None:
        return {"kind": "disabled"}
    if len(s) == 1 and s[0].high == math.inf:
        return {"kind": "uniform", "r_n": s[0].low, "m_u": s[0].margin}
    return {"kind": "multi_range", "ranges": [list(astuple(r)) for r in s]}


def reg_config_from_dict(d: dict) -> RegConfig:
    return from_section(RegConfig, d, "regularization",
                        strategy=partial(strategy_from_dict, where="regularization.strategy"))


def scene_config_from_dict(d: dict) -> tuple[SceneParams, RegConfig | None]:
    """``gen-scenes``' scene and, if given, regularizer; no other section is read."""
    check_keys(d, "config", ("scene",), CONFIG_KEYS)
    scene = from_section(SceneParams, d["scene"], "scene")
    return scene, reg_config_from_dict(d["regularization"]) if "regularization" in d else None


def config_from_dict(d: dict) -> ExperimentConfig:
    """The experiment a config describes; its "ablation" section is ``ablation_from_dict``'s."""
    check_keys(d, "config", ("scene", "regularization", "schedule"), CONFIG_KEYS)
    return ExperimentConfig(
        scene=from_section(SceneParams, d["scene"], "scene"),
        reg=reg_config_from_dict(d["regularization"]),
        depth_loss=from_section(DepthLossParams, d.get("depth_loss", {}), "depth_loss"),
        schedule=from_section(Schedule, d["schedule"], "schedule", seeds=_ints),
        separation=from_section(Separation, d.get("separation", {}), "separation"),
        output_dir=_converted(_dir, d.get("output_dir", ExperimentConfig.output_dir),
                              "config.output_dir"),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "scene": asdict(cfg.scene),
        "regularization": {**asdict(cfg.reg), "strategy": strategy_to_dict(cfg.reg.strategy)},
        "depth_loss": asdict(cfg.depth_loss),
        "schedule": {**asdict(cfg.schedule), "seeds": list(cfg.schedule.seeds)},
        "separation": asdict(cfg.separation),
        "output_dir": cfg.output_dir,
    }


def _strategies(d) -> dict:
    if not isinstance(d, dict) or not d:
        raise InvalidConfig("ablation.strategies must be a non-empty name->strategy map")
    return {name: strategy_from_dict(s, f"ablation.strategies.{name}") for name, s in d.items()}


def ablation_from_dict(d: dict) -> Ablation:
    return from_section(
        Ablation, d, "ablation",
        strategies=_strategies,
        sweep=lambda s: from_section(Sweep, s, "ablation.sweep", n_within=_ints, n_across=_ints),
        sweep_strategy=partial(strategy_from_dict, where="ablation.sweep_strategy"),
    )


def _checked(cfg: ExperimentConfig, where: str, base: RegConfig, **changes) -> RegConfig:
    """``replace(base, **changes)``, once ``cfg.schedule`` can train it; errors name ``where``."""
    try:
        built = replace(base, **changes)
        check_batch(built, cfg.schedule)
        return built
    except InvalidConfig as exc:
        raise InvalidConfig(f"{where}: {exc}") from exc


def train_plan(cfg: ExperimentConfig) -> list[tuple[str, RegConfig, None]]:
    """``depthreg train``'s run plan: the one run ``run`` of ``cfg.reg``, checked up front."""
    return [("run", _checked(cfg, "regularization", cfg.reg), None)]


def ablation_runs(cfg: ExperimentConfig, d: dict) -> list[tuple[str, RegConfig, tuple | None]]:
    """The run plan of the "ablation" section ``d``, every run checked up front.

    The plan lists ``(label, RegConfig, point)`` in training order: each
    strategy by name with ``point`` None, then each ``sweep_<axis>_<count>``
    with ``point`` ``(axis, count)``; every regularizer is built from
    ``cfg.reg``.  A strategy ``cfg.reg`` rejects (ranges starting below
    ``r_p``, say), or one ``cfg.schedule`` cannot train (cross-batch samples
    with ``batch_size`` 1), raises ``InvalidConfig`` naming
    ``ablation.strategies.<name>`` before any run trains.  So does a name
    that is not one path component other than ``.`` and ``..``, or that
    equals another top-level path the ablation writes: its run directory
    would escape the output directory or be overwritten.
    """
    ab = ablation_from_dict(d)
    build = partial(_checked, cfg)
    plan = [(name, build(f"ablation.strategies.{name}", cfg.reg, strategy=s), None)
            for name, s in ab.strategies.items()]
    taken = {"", ".", "..", "config.json", "ablation_summary.json"}
    for axis, counts in asdict(ab.sweep).items():
        if counts:
            swept = build("ablation.sweep_strategy", cfg.reg, strategy=ab.sweep_strategy,
                          n_within=0, n_across=0)
            plan += [(f"sweep_{axis}_{count}", build(f"ablation.sweep.{axis}", swept,
                                                     **{axis: count}), (axis, count))
                     for count in counts]
            taken |= {f"sweep_{axis}.dat", *(f"sweep_{axis}_{count}" for count in counts)}
    for name in ab.strategies:
        if name in taken or "/" in name or "\0" in name:
            raise InvalidConfig(f"ablation.strategies.{name}: a run directory name must be one "
                                "path component, not '.', '..' or another output's name")
    return plan


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a repeated key would silently keep only its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidConfig(f"repeated config key: {key!r}")
        obj[key] = value
    return obj


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InvalidConfig(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise InvalidConfig(
            f"config file {path} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(
            f"config parse error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # the parser recurses once per level of nesting
        raise InvalidConfig(f"config file {path} nests too deeply to parse") from exc


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


def run_experiment(cfg: ExperimentConfig, plan: list, out_dir: Path, on_run=None) -> dict:
    """Every (label, seed) run of ``plan``, label-major; returns {label: {seed: summary}}.

    ``out_dir/config.json`` echoes ``cfg`` first.  ``plan`` lists checked
    ``(label, RegConfig, point)`` entries, each trained on every seed of
    ``cfg.schedule`` into ``out_dir/<label>/seed_<seed>``.
    ``on_run(label, seed, summary)``, if given, is called once each run's
    outputs are written.  Every run takes its scene pools from one store
    that lives as long as this call, so each seed's pools are generated
    once, not once per run.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "config.json", config_to_dict(cfg))
    shape, depths = (cfg.scene.height, cfg.scene.width), (cfg.scene.d_min, cfg.scene.d_max)
    pools: dict = {}
    runs: dict = {}
    for label, reg, _ in plan:
        runs[label] = {}
        for seed in cfg.schedule.seeds:
            record = train_run(shape, depths, reg, cfg.depth_loss, cfg.schedule, seed,
                               astuple(cfg.separation), pools=pools)
            summary = runs[label][seed] = write_run_outputs(out_dir / label / f"seed_{seed}",
                                                            record, seed)
            if on_run is not None:
                on_run(label, seed, summary)
    return runs


def _means(rows: list, *keys: str) -> dict:
    """``n_diverged`` over ``rows``, and per key ``mean_<key>`` with its count ``mean_<key>_n``.

    Each mean is over the rows' finite values of its key; a diverged run's
    last evaluation, if it reached one, is averaged like any other.
    """
    out = {"n_diverged": sum(r["diverged"] for r in rows)}
    for key in keys:
        finite = [r[key] for r in rows if r[key] is not None and math.isfinite(r[key])]
        mean = sum(finite) / len(finite) if finite else math.nan
        _put_finite(out, f"mean_{key}", mean, "no seed has a finite value to average")
        out[f"mean_{key}_n"] = len(finite)
    return out


def run_ablation(cfg: ExperimentConfig, plan: list, out_dir: Path, on_run=None) -> dict:
    """Strategy comparison plus optional sample-count sweeps, from ``ablation_runs``'s plan.

    Trains the plan (``run_experiment``, with its ``on_run``), then writes a
    JSON comparison summary and a two-column plot-data file per sweep axis.
    Each label's per-seed rows are read as a strategy entry or, for a sweep
    label, as the point ``(axis, count)`` of that axis, in plan and seed
    order.
    """
    runs = run_experiment(cfg, plan, out_dir, on_run)
    summary: dict = {"seeds": list(cfg.schedule.seeds), "strategies": {}}
    for label, _, point in plan:
        rows = []
        for seed in cfg.schedule.seeds:
            run = runs[label][seed]
            final = run["final_eval"] or {}
            row = {"seed": seed, "diverged": run["diverged"], "abs_rel": final.get("abs_rel"),
                   "separation": final.get("separation")}
            row.update((k, final[k]) for k in ("abs_rel_reason", "separation_reason")
                       if k in final)
            rows.append(row)
        if point is None:
            summary["strategies"][label] = {"per_seed": rows,
                                            **_means(rows, "abs_rel", "separation")}
        else:
            axis, count = point
            summary.setdefault(f"sweep_{axis}", []).append({"count": count,
                                                            **_means(rows, "abs_rel")})
    for key, points in summary.items():
        if key.startswith("sweep_"):
            # plot data keeps "nan" where the summary writes null
            data = "".join(f"{p['count']} "
                           f"{'nan' if p['mean_abs_rel'] is None else repr(p['mean_abs_rel'])}\n"
                           for p in points)
            (out_dir / f"{key}.dat").write_text(data, encoding="utf-8")
    _dump_json(out_dir / "ablation_summary.json", summary)
    return summary
