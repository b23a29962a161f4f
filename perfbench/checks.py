"""Correctness checks computed apart from the package.

Nothing here imports ``depthreg``.  The recomputation re-derives, from the
model weights and the documented conventions alone:

* the per-pixel forward pass ``tanh -> tanh -> affine feature -> exp``;
* the SplitMix64 sample draw: per anchor, vertical shift seed before the
  horizontal one, within-samples before across-samples, each seed drawn by
  rejection into ``[1, n-1]``; shifts roll content down/right;
* strict-inequality classification, Euclidean distance, hinge and the
  ``mean_contributing`` / ``sum`` reductions;
* the scale-invariant log-depth loss and AbsRel.

Each check returns ``(ok, detail)``.  The canaries in ``selftest.py`` feed
corrupted values into these same functions.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
FD_STEP = 1e-6
FD_REL_TOL = 1e-4
FD_ABS_TOL = 1e-6
PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")

_M64 = (1 << 64) - 1


class SplitMix64:
    """Steele/Lea/Flood SplitMix64 over Python integers."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def in_range(self, n: int) -> int:
        """Uniform integer in [1, n-1] by rejection sampling."""
        span = n - 1
        limit = (1 << 64) // span * span
        while True:
            z = self.next()
            if z < limit:
                return 1 + z % span

    def child(self) -> "SplitMix64":
        return SplitMix64(self.next())


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b)) or a == b


def negative_bands(strategy: dict) -> list[tuple[float, float, float]]:
    """(low, high, margin) per negative group from a config strategy dict."""
    if strategy["kind"] == "uniform":
        return [(float(strategy["r_n"]), math.inf, float(strategy["m_u"]))]
    if strategy["kind"] == "multi_range":
        return [(float(lo), float(hi), float(m)) for lo, hi, m in strategy["ranges"]]
    return []


# ---------------------------------------------------------------------------
# Model weights and the forward pass
# ---------------------------------------------------------------------------

def weights_of(model) -> dict:
    return {name: np.array(getattr(model, name), dtype=np.float64) for name in PARAM_ORDER}


def flatten(weights: dict) -> np.ndarray:
    return np.concatenate([np.ravel(weights[n]) for n in PARAM_ORDER])


def unflatten(vec: np.ndarray, like: dict) -> dict:
    out, i = {}, 0
    for name in PARAM_ORDER:
        size = np.size(like[name])
        out[name] = np.reshape(vec[i:i + size], np.shape(like[name]))
        i += size
    return out


def forward(weights: dict, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features (H, W, C), prediction (H, W)) of the per-pixel model."""
    h1 = np.tanh(np.einsum("hwi,ji->hwj", image, weights["w1"]) + weights["b1"])
    h2 = np.tanh(np.einsum("hwi,ji->hwj", h1, weights["w2"]) + weights["b2"])
    f = np.einsum("hwi,ji->hwj", h2, weights["w3"]) + weights["b3"]
    z = np.einsum("hwc,c->hw", f, weights["w4"]) + float(weights["b4"])
    return f, np.exp(z)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def si_log(pred: np.ndarray, gt: np.ndarray, valid: np.ndarray, focus: float,
           scale: float) -> float:
    mask = valid & (gt > 0)
    if not mask.any():
        return 0.0
    g = np.log(pred[mask]) - np.log(gt[mask])
    v = float(np.mean(g * g)) - focus * float(np.mean(g)) ** 2
    return scale * math.sqrt(max(v, 0.0))


def anchor_reg(f_a, d_a, v_a, samples, r_p: float, bands, reduction: str) -> float:
    """Regularization total of one anchor against its (feature, depth, valid) samples."""
    pos_sum, neg_sums, contributing = 0.0, [0.0] * len(bands), 0
    for f_s, d_s, v_s in samples:
        ok = v_a & v_s
        diff = np.abs(d_a - d_s)
        dist = np.sqrt(np.sum((f_a - f_s) ** 2, axis=-1))
        pos = ok & (diff < r_p)
        pos_sum += float(dist[pos].sum())
        contributing += int(pos.sum())
        for j, (low, high, margin) in enumerate(bands):
            neg = ok & (diff > low) & (diff < high)
            neg_sums[j] += float(np.maximum(0.0, margin - dist[neg]).sum())
            contributing += int(neg.sum())
    if reduction == "mean_contributing":
        scale = 1.0 / contributing if contributing else 0.0
    else:
        scale = 1.0
    return scale * (pos_sum + sum(neg_sums))


def recompute_step(weights: dict, images, depths, valids, sample_seed: int, reg: dict,
                   depth_loss: dict) -> tuple[float, float]:
    """(l_re, l_depth) of one training batch, recomputed from scratch."""
    k = len(images)
    feats, preds = zip(*(forward(weights, im) for im in images))
    l_depth = sum(
        si_log(p, d, v, depth_loss["variance_focus"], depth_loss["output_scale"])
        for p, d, v in zip(preds, depths, valids)
    ) / k
    bands = negative_bands(reg["strategy"])
    n_within, n_across = reg["n_within"], reg["n_across"]
    if not bands or n_within + n_across == 0:
        return 0.0, l_depth
    rng = SplitMix64(sample_seed)
    l_re = 0.0
    for a in range(k):
        h, w = depths[a].shape
        samples = []
        for _ in range(n_within):
            shift = (rng.in_range(h), rng.in_range(w))
            samples.append(tuple(np.roll(x, shift, axis=(0, 1))
                                 for x in (feats[a], depths[a], valids[a])))
        for _ in range(n_across):
            b = (a + rng.in_range(k)) % k
            samples.append((feats[b], depths[b], valids[b]))
        l_re += anchor_reg(feats[a], depths[a], valids[a], samples, reg["r_p"], bands,
                           reg["loss_reduction"]) / k
    return l_re, l_depth


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def check_step(call, reg: dict, depth_loss: dict):
    """(a) l_re and l_depth of one captured batch_objective call."""
    args, result = call
    model, scenes, sample_seed = args["model"], args["scenes"], args["sample_seed"]
    images = [np.asarray(sc.image.data) for sc in scenes]
    depths = [np.asarray(sc.depth.values) for sc in scenes]
    valids = [np.asarray(sc.depth.valid) for sc in scenes]
    l_re, l_depth = recompute_step(weights_of(model), images, depths, valids, sample_seed,
                                   reg, depth_loss)
    ok = close(l_re, result[0]) and close(l_depth, result[1])
    return ok, f"l_re {result[0]!r} vs {l_re!r}, l_depth {result[1]!r} vs {l_depth!r}"


def fd_coordinates(seed: int, n_params: int, count: int = 3) -> list[int]:
    rng = SplitMix64(seed)
    return sorted({rng.next() % n_params for _ in range(count)})


def check_gradient(call, objective, coords):
    """(b) Central differences of l_final against the returned gradient.

    ``objective(model, scenes, reg_cfg, depth_params, sample_seed)`` is the
    package's batch objective; its third output is l_final.
    """
    args, result = call
    model = args["model"]
    grad = np.asarray(result[4])
    weights = weights_of(model)
    base = flatten(weights)
    worst = []
    for i in coords:
        vals = []
        for sign in (1.0, -1.0):
            vec = base.copy()
            vec[i] += sign * FD_STEP
            perturbed = unflatten(vec, weights)
            perturbed["b4"] = float(perturbed["b4"])
            m = type(model)(**perturbed)
            vals.append(objective(m, args["scenes"], args["reg_cfg"], args["depth_params"],
                                  args["sample_seed"])[2])
        fd = (vals[0] - vals[1]) / (2.0 * FD_STEP)
        g = float(grad[i])
        if abs(fd - g) > FD_REL_TOL * max(abs(fd), abs(g)) + FD_ABS_TOL:
            worst.append(f"coord {i}: analytic {g!r} vs central difference {fd!r}")
    return not worst, "; ".join(worst) or f"{len(coords)} coordinates agree"


def final_weights(last_call, learning_rate: float) -> dict:
    """Weights after the SGD update that follows the last step."""
    args, result = last_call
    weights = weights_of(args["model"])
    vec = flatten(weights) - learning_rate * np.asarray(result[4])
    return unflatten(vec, weights)


def held_out_abs_rel(weights: dict, eval_scenes) -> float:
    per_scene = []
    for sc in eval_scenes:
        _, pred = forward(weights, np.asarray(sc.image.data))
        gt = np.asarray(sc.depth.values)
        mask = np.asarray(sc.depth.valid) & (gt > 0) & (pred > 0)
        per_scene.append(float(np.mean(np.abs(pred[mask] - gt[mask]) / gt[mask])))
    return sum(per_scene) / len(per_scene)


def eval_pool_seed(run_seed: int) -> int:
    """Base seed of a run's held-out pool: the third child stream's first draw."""
    master = SplitMix64(run_seed)
    master.child()  # model init
    master.child()  # training pool
    return master.child().next()


def check_abs_rel(expected: float, reported: list[float]):
    """(c) Every reported final AbsRel against the recomputed one."""
    ok = all(close(expected, r) for r in reported)
    return ok, f"recomputed {expected!r}, reported {reported!r}"


def check_same(reference, observed, what: str):
    """(d) Repeated rounds give identical values."""
    return reference == observed, f"{what} {'repeats' if reference == observed else 'differs'}"


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_strict_json(path: Path):
    """(e) One written file parses as strict JSON (no NaN/Infinity)."""
    try:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        return False, f"{path.name}: {exc}"
    return True, f"{path.name} is strict JSON"
