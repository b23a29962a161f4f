"""End-to-end trainer: combined loss, manual gradients, plain SGD.

One training step forwards a batch of K scenes, treats every item as the
anchor of its own sample set, and descends the mean (over anchors) of the
regularization total plus the weighted mean scale-invariant depth loss.
``reg_loss`` adds each sample's feature-space gradient into the batch item
it came from, in that item's own frame, before the shared parameters are
updated.  Everything is a pure function of (config, seeds).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, EmptyEvaluation, InvalidConfig
from ..grid import Grid1, Grid3, Scratch, SeedRng
from ..identify import RegConfig
from ..losses import DepthLossParams, reg_loss, si_loss
from ..metrics import MetricReport, compute_metrics, mean_report
from ..sampling import Batch, build_sample_set
from .model import ToyModel, model_backward, model_forward
from .scenes import SyntheticScene, scene_pool


@dataclass
class StepStats:
    step: int
    l_re: float
    l_depth: float
    l_final: float
    contributing: int
    ignored_fraction: float


@dataclass
class EvalStats:
    step: int
    report: MetricReport
    separation: float


@dataclass
class TrainRecord:
    steps: list[StepStats] = field(default_factory=list)
    evals: list[EvalStats] = field(default_factory=list)
    final_breakdown: dict = field(default_factory=dict)
    diverged_step: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None


@functools.lru_cache(maxsize=8)
def _separation_pairs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat pixel indices ``(i1, i2)`` of ``feature_separation``'s 4096 pairs.

    The draw, from the fixed seed 2026, depends only on the map size, so it
    is made once per pixel count and shared by every later evaluation.
    """
    idx = np.minimum((SeedRng(2026).uniforms(2 * 4096) * p).astype(np.int64), p - 1)
    idx.setflags(write=False)
    return idx[:4096], idx[4096:]


def _pair_sq_distances(feats: np.ndarray, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Squared distances of the pixel pairs ``(i1, i2)`` of planar ``(C, P)`` ``feats``.

    The channels are added one after another, each along a contiguous row:
    the bits of ``np.sum((f[i1] - f[i2]) ** 2, axis=1)`` over the ``(P, C)``
    layout below 8 channels, where numpy sums each short row sequentially.
    From 8 on numpy keeps 8 partial sums per row, and the two differ in the
    last bits.
    """
    sq = np.take(feats, i1, axis=1)
    sq -= np.take(feats, i2, axis=1)
    sq *= sq
    return np.sum(sq, axis=0)


def feature_separation(features: Grid3, depth: Grid1, near: float, far: float) -> float:
    """Mean feature distance of far-depth pairs over that of near-depth pairs.

    The 4096 pairs are pixel positions from a fixed seed; a pair is "near" when
    its depth differential is below ``near`` and "far" when it is above
    ``far``.  Returns 1.0 when both means vanish (constant features), +inf
    when no near pair exists or near pairs sit at distance zero, and NaN
    when near pairs exist but no far pair does.
    """
    h, w = features.height, features.width
    p = h * w
    i1, i2 = _separation_pairs(p)
    plane = depth.plane.reshape(p)
    dd = np.abs(plane[i1] - plane[i2])  # NaN, so neither near nor far, unless both are valid
    planar = features.data.transpose(2, 0, 1).reshape(-1, p)  # a view when the features are planar
    fd = np.sqrt(_pair_sq_distances(planar, i1, i2))
    near_fd = fd[dd < near]
    far_fd = fd[dd > far]
    if near_fd.size == 0:
        return math.inf
    if far_fd.size == 0:
        return math.nan
    mean_near = float(near_fd.mean())
    mean_far = float(far_fd.mean())
    if mean_near == 0.0:
        return 1.0 if mean_far == 0.0 else math.inf
    return mean_far / mean_near


# The training step's work arrays, reused from step to step.  Private to
# ``batch_objective``: nothing taken from it is returned, and it is not
# reentrant (one step at a time per process).
_ARENA = Scratch()


def batch_objective(model: ToyModel, scenes: list[SyntheticScene], reg_cfg: RegConfig,
                    depth_params: DepthLossParams, sample_seed: int):
    """Loss and flat parameter gradient for one batch, sampling from a seed.

    Returns (l_re, l_depth, l_final, contributing_count, grad_vec, breakdown).
    Rerunning with identical inputs (including ``sample_seed``) is bit-exact,
    which is what makes finite-difference checks through the whole model
    possible.  Work arrays come from the module's arena; everything
    returned is freshly allocated.
    """
    k = len(scenes)
    items = [_ARENA.child(a) for a in range(k)]
    feats, preds, caches = [], [], []
    for sc, arena in zip(scenes, items):
        f, p, cache = model_forward(model, sc.image, arena)
        feats.append(f)
        preds.append(p)
        caches.append(cache)
    depths = [sc.depth for sc in scenes]

    h, w, c = feats[0].data.shape
    d_pred = [arena.take("d_pred", (h, w)) for arena in items]
    for g in d_pred:
        g.fill(0.0)

    l_re = 0.0
    contributing = 0
    breakdown: dict[str, float] = {}
    use_reg = reg_cfg.enabled and (reg_cfg.n_within + reg_cfg.n_across) > 0
    # Off, every feature gradient is one read-only zero view: nothing to fill.
    d_feat = [np.broadcast_to(0.0, (c, h, w))] * k
    if use_reg:
        d_feat = [arena.take("d_feat", (c, h, w)) for arena in items]  # channel-planar
        for g in d_feat:
            g.fill(0.0)
        rng = SeedRng(sample_seed)
        batch = Batch(tuple(zip(feats, depths)))
        for a in range(k):
            ss = build_sample_set(
                feats[a], depths[a], batch, a, reg_cfg.n_within, reg_cfg.n_across, rng
            )
            res = reg_loss(feats[a], depths[a], ss, reg_cfg,
                           d_feat[a], [d_feat[(a + p.s_k) % k] for p in ss], _ARENA)
            l_re += res.total / k
            contributing += res.contributing_count
            for key, val in res.breakdown.items():
                breakdown[key] = breakdown.get(key, 0.0) + val / k
        for a in range(k):
            d_feat[a] *= 1.0 / k

    l_depth = 0.0
    for a in range(k):
        l_a, g_a = si_loss(preds[a], depths[a], depth_params)
        l_depth += l_a / k
        d_pred[a] += reg_cfg.depth_loss_weight * g_a / k

    l_final = l_re + reg_cfg.depth_loss_weight * l_depth
    grad = np.zeros(model.param_count)
    for a in range(k):
        grad += model_backward(model, caches[a], d_feat[a], d_pred[a], _ARENA)
    return l_re, l_depth, l_final, contributing, grad, breakdown


@dataclass(frozen=True)
class Schedule:
    steps: int
    batch_size: int
    learning_rate: float
    seeds: tuple[int, ...]
    train_scenes: int = 40
    eval_scenes: int = 10
    eval_every: int = 500

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise InvalidConfig("steps and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise InvalidConfig("learning_rate must be >= 0")
        if not self.seeds:
            raise InvalidConfig("seed list must not be empty")
        if self.train_scenes < self.batch_size:
            raise InvalidConfig("train pool smaller than one batch")
        if self.eval_scenes < 1 or self.eval_every < 1:
            raise InvalidConfig("eval settings must be >= 1")


def check_batch(reg_cfg: RegConfig, schedule: Schedule) -> None:
    """Cross-batch samples come from the other items of a batch: ask for two items.

    A disabled regularizer draws no samples, so it trains on any batch size.
    """
    if reg_cfg.enabled and reg_cfg.n_across > 0 and schedule.batch_size < 2:
        raise InvalidConfig("cross-batch sampling needs batch_size >= 2")


def _pool(pools: dict, *key) -> list[SyntheticScene]:
    """``scene_pool(*key)``, taken from the store ``pools``; a miss generates and stores it."""
    if key not in pools:
        pools[key] = scene_pool(*key)
    return pools[key]


def train_run(scene_shape: tuple[int, int], depth_range: tuple[float, float],
              reg_cfg: RegConfig, depth_params: DepthLossParams, schedule: Schedule,
              seed: int, separation: tuple[float, float], pools: dict) -> TrainRecord:
    """One seeded training run of a checked plan entry; bit-identical when repeated.

    The scene pools and model initialization derive from ``seed`` alone (not
    from the strategy), so runs differing only in ``reg_cfg`` are paired:
    same scenes, same initial weights, same held-out set.  A non-finite loss
    or a model overflow, in a step or in an evaluation, ends the run,
    recorded as diverged at that step.

    ``pools`` is a store of scene pools shared by the runs of one plan:
    each pool is keyed by its ``scene_pool`` arguments (pool seed, count,
    h, w, d_min, d_max), generated on a miss and reused, unchanged, by every
    later run that asks for it.  Scenes are frozen, so sharing them changes
    no output.
    """
    h, w = scene_shape
    d_min, d_max = depth_range

    master = SeedRng(seed)
    model_rng = master.split()
    train_pool_rng = master.split()
    eval_pool_rng = master.split()
    sample_rng = master.split()

    train_pool = _pool(pools, train_pool_rng.next_u64(), schedule.train_scenes, h, w, d_min, d_max)
    eval_pool = _pool(pools, eval_pool_rng.next_u64(), schedule.eval_scenes, h, w, d_min, d_max)
    model = ToyModel.init(model_rng)

    record = TrainRecord()
    params = model.param_vector()
    k = schedule.batch_size

    # A diverging run overflows in the model, the losses or the metrics; it
    # is recorded as diverged, or its metric as null with a reason, so
    # numpy's warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(schedule.steps):
            scenes = [train_pool[(step * k + i) % len(train_pool)] for i in range(k)]
            sample_seed = sample_rng.next_u64()
            try:
                l_re, l_depth, l_final, contributing, grad, breakdown = batch_objective(
                    model, scenes, reg_cfg, depth_params, sample_seed
                )
                if not math.isfinite(l_final):
                    raise DomainError("non-finite loss")
                slots = k * (reg_cfg.n_within + reg_cfg.n_across) * h * w
                ignored = 1.0 - contributing / slots if (reg_cfg.enabled and slots) else 1.0
                record.steps.append(
                    StepStats(step, l_re, l_depth, l_final, contributing, ignored)
                )
                record.final_breakdown = breakdown
                params = params - schedule.learning_rate * grad
                model = model.with_params(params)
                if (step + 1) % schedule.eval_every == 0 or step == schedule.steps - 1:
                    report, sep = evaluate_model(model, eval_pool, separation)
                    record.evals.append(EvalStats(step, report, sep))
            except (DomainError, EmptyEvaluation):
                record.diverged_step = step
                break
    return record


def evaluate_model(model: ToyModel, scenes: list[SyntheticScene],
                   separation: tuple[float, float]) -> tuple[MetricReport, float]:
    """Held-out metrics (per-scene averaged) and mean separation statistic."""
    reports, seps = [], []
    for sc in scenes:
        f, p, _ = model_forward(model, sc.image)
        reports.append(compute_metrics(p, sc.depth))
        seps.append(feature_separation(f, sc.depth, *separation))
    finite = [s for s in seps if math.isfinite(s)]
    sep = sum(finite) / len(finite) if finite else math.inf
    return mean_report(reports), sep
