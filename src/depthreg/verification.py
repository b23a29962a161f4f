"""Independent oracles and gradient checks.

The reference implementations here deliberately avoid every vectorized code
path they verify: classification is re-derived pixel by pixel with scalar
comparisons, distances with explicit channel loops, accumulation with
``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .grid import Grid1, Grid3, SeedRng
from .identify import NegativeRange, RegConfig
from .losses import DepthLossParams, LossResult, reg_loss, si_loss
from .metrics import MetricReport, compute_metrics
from .sampling import SamplePair

KINK_MARGIN = 1e-4  # coordinates this close to a hinge kink or zero distance are skipped
FD_STEP = 1e-5
REL_FLOOR = 1e-6
# Central differences carry rounding noise of roughly eps * |loss| / step
# (~2e-11 per unit of loss).  Scaling the relative-error denominator floor
# with the loss keeps that noise around 2e-6 "relative", independent of how
# large the loss happens to be.
DENOM_SCALE = 1e-5


# ---------------------------------------------------------------------------
# Reference (oracle) implementations
# ---------------------------------------------------------------------------

def _oracle_label(diff: float, valid: bool, config: RegConfig) -> tuple[int, float]:
    """Scalar reclassification of one pixel: (label, margin of negative group j).

    Label -1 is ignored, 0 positive, j negative; non-negatives get margin 0.0.
    """
    if not valid:
        return -1, 0.0
    if diff < config.r_p:
        return 0, 0.0
    for j, r in enumerate(config.strategy, start=1):
        if r.low < diff < r.high:
            return j, r.margin
    return -1, 0.0


def _oracle_pixels(f_a: Grid3, d_a: Grid1, pair: SamplePair, config: RegConfig):
    """``((i, j), src, label, margin, distance)`` of each non-ignored pixel of ``pair``'s map.

    The map shows ``pair``'s grid pixel ``src = ((i - s_h) % H, (j - s_w) % W)``
    at (i, j); it is read by scalar index, the distance by a channel loop.
    """
    h, w = d_a.height, d_a.width
    for i in range(h):
        for j in range(w):
            src = (i - pair.s_h) % h, (j - pair.s_w) % w
            valid = bool(d_a.valid[i, j]) and bool(pair.depth.valid[src])
            diff = abs(float(d_a.values[i, j]) - float(pair.depth.values[src]))
            label, margin = _oracle_label(diff, valid, config)
            if label < 0:
                continue
            acc = 0.0
            for c in range(f_a.channels):
                delta = float(f_a.data[i, j, c]) - float(pair.feature.data[src + (c,)])
                acc += delta * delta
            yield (i, j), src, label, margin, math.sqrt(acc)


def oracle_reg_loss(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...],
                    config: RegConfig) -> tuple[float, int]:
    """Triple loop over (sample, pixel, channel); returns (total, contributing)."""
    terms = [dist if label == 0 else max(0.0, margin - dist)
             for pair in samples
             for _, _, label, margin, dist in _oracle_pixels(f_a, d_a, pair, config)]
    total = math.fsum(terms)
    if config.loss_reduction == "mean_contributing":
        total = total / len(terms) if terms else 0.0
    return total, len(terms)


def oracle_metrics(pred: np.ndarray, gt: Grid1) -> MetricReport:
    """Scalar-loop recomputation of the seven evaluation metrics."""
    abs_rel, sq_rel, sq, sq_log, l10 = [], [], [], [], []
    d1 = d2 = d3 = 0
    n = 0
    for i in range(gt.height):
        for j in range(gt.width):
            g = float(gt.values[i, j])
            p = float(pred[i, j])
            if not (bool(gt.valid[i, j]) and g > 0 and p > 0):
                continue
            n += 1
            abs_rel.append(abs(p - g) / g)
            sq_rel.append((p - g) ** 2 / g)
            sq.append((p - g) ** 2)
            sq_log.append((math.log(p) - math.log(g)) ** 2)
            l10.append(abs(math.log10(p) - math.log10(g)))
            ratio = max(p / g, g / p)
            d1 += ratio < 1.25
            d2 += ratio < 1.25**2
            d3 += ratio < 1.25**3
    return MetricReport(
        abs_rel=math.fsum(abs_rel) / n,
        sq_rel=math.fsum(sq_rel) / n,
        rmse=math.sqrt(math.fsum(sq) / n),
        rmse_log=math.sqrt(math.fsum(sq_log) / n),
        log10=math.fsum(l10) / n,
        delta1=d1 / n,
        delta2=d2 / n,
        delta3=d3 / n,
        pixel_count=n,
    )


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

GENERIC_GAP = 2e-2  # instance generator keeps contributing pixels this far from kinks


def random_instance(rng: SeedRng, max_h: int = 4, max_w: int = 4, max_c: int = 5,
                    max_samples: int = 3):
    """Seeded (f_a, d_a, samples, config); alternates uniform and two-range strategies.

    Contributing pixels whose feature distance lands degenerately close to a
    kink (zero distance or a hinge margin) are redrawn: central differences
    say nothing there, and the checker would only skip them anyway.
    """
    h = 2 + int(rng.uniforms(1)[0] * (max_h - 1))
    w = 2 + int(rng.uniforms(1)[0] * (max_w - 1))
    c = 1 + int(rng.uniforms(1)[0] * max_c)
    n = 1 + int(rng.uniforms(1)[0] * max_samples)
    h, w, c, n = min(h, max_h), min(w, max_w), min(c, max_c), min(n, max_samples)

    if rng.uniforms(1)[0] < 0.5:
        strategy = (NegativeRange(0.5, math.inf, 2.0),)
    else:
        strategy = (NegativeRange(0.5, 1.0, 1.5), NegativeRange(1.0, 2.0, 3.0))
    reduction = "sum" if rng.uniforms(1)[0] < 0.5 else "mean_contributing"
    config = RegConfig(r_p=0.2, strategy=strategy, n_within=0, n_across=0,
                       loss_reduction=reduction)

    f_a = Grid3(rng.normals(h * w * c).reshape(h, w, c))
    d_a = Grid1(rng.uniforms(h * w).reshape(h, w) * 2.2,
                rng.uniforms(h * w).reshape(h, w) > 0.1)
    pairs = []
    for _ in range(n):
        f_s = rng.normals(h * w * c).reshape(h, w, c)
        d_s = Grid1(rng.uniforms(h * w).reshape(h, w) * 2.2,
                    rng.uniforms(h * w).reshape(h, w) > 0.1)
        for i in range(h):
            for j in range(w):
                valid = bool(d_a.valid[i, j]) and bool(d_s.valid[i, j])
                diff = abs(float(d_a.values[i, j]) - float(d_s.values[i, j]))
                label, margin = _oracle_label(diff, valid, config)
                if label < 0:
                    continue
                kinks = [0.0] + ([margin] if label > 0 else [])
                while True:
                    dist = math.sqrt(float(np.sum((f_a.data[i, j] - f_s[i, j]) ** 2)))
                    if all(abs(dist - k) > GENERIC_GAP for k in kinks):
                        break
                    f_s[i, j] = rng.normals(c)
        pairs.append(SamplePair(Grid3(f_s), d_s, 1, 0, 0))
    return f_a, d_a, tuple(pairs), config


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def central_difference(func, x: np.ndarray, index: int, step: float = FD_STEP) -> float:
    xp = x.copy()
    xp[index] += step
    fp = func(xp)
    xp[index] -= 2 * step
    fm = func(xp)
    return (fp - fm) / (2 * step)


def rel_error(a: float, b: float, floor: float = REL_FLOOR) -> float:
    denom = max(abs(a), abs(b), floor)
    return abs(a - b) / denom


def noise_floor(loss_scale: float) -> float:
    return max(REL_FLOOR, DENOM_SCALE * max(1.0, abs(loss_scale)))


def worst_fd_error(loss_of, x0: np.ndarray, grad: np.ndarray, loss: float,
                   keep: np.ndarray | None = None) -> float:
    """Max relative error of ``grad[k]`` against the central difference of ``loss_of`` along
    ``x0[k]``, over every coordinate ``k`` that ``keep`` (all, if None) flags.

    The error floor scales with ``loss``, the value of ``loss_of(x0)``.
    """
    floor = noise_floor(loss)
    worst = 0.0
    for k in range(x0.size):
        if keep is None or keep[k]:
            worst = max(worst, rel_error(grad[k], central_difference(loss_of, x0, k), floor))
    return worst


def reg_loss_with_gradients(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...],
                            config: RegConfig) -> tuple[LossResult, np.ndarray]:
    """``reg_loss`` adding into fresh zeros: its result and the (N + 1, C, H, W) gradients.

    Row 0 is the anchor's gradient, row s + 1 sample s's, in its grid's frame.
    """
    h, w, c = f_a.data.shape
    grads = np.zeros((len(samples) + 1, c, h, w))
    return reg_loss(f_a, d_a, samples, config, grads[0], grads[1:]), grads


def _kink_free_mask(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...],
                    config: RegConfig):
    """(N + 1, H, W) flags, True where a grid pixel is safely away from kinks.

    Row 0 flags the anchor's pixels, row s + 1 those of sample s's grid: a
    kink at a pair flags the anchor pixel and the sample grid pixel it reads.
    """
    good = np.ones((len(samples) + 1, f_a.height, f_a.width), dtype=bool)
    for s_idx, pair in enumerate(samples, start=1):
        for at, src, label, margin, dist in _oracle_pixels(f_a, d_a, pair, config):
            if dist < KINK_MARGIN or (label > 0 and abs(dist - margin) < KINK_MARGIN):
                good[0][at] = good[s_idx][src] = False
    return good


def check_reg_loss_gradient(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...],
                            config: RegConfig) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The gradient is checked jointly over the anchor and all sample feature
    maps, each sample's grid as its own variable; coordinates of
    kink-adjacent pixels are excluded.
    """
    res, grads = reg_loss_with_gradients(f_a, d_a, samples, config)
    good = _kink_free_mask(f_a, d_a, samples, config)

    shape = f_a.data.shape
    size = f_a.data.size

    def total_of(x: np.ndarray) -> float:
        fa = Grid3(x[:size].reshape(shape))
        new_pairs = tuple(
            replace(p, feature=Grid3(x[size * (i + 1) : size * (i + 2)].reshape(shape)))
            for i, p in enumerate(samples)
        )
        return reg_loss_with_gradients(fa, d_a, new_pairs, config)[0].total

    x0 = np.concatenate([f_a.data.ravel()] + [p.feature.data.ravel() for p in samples])
    # x0 holds each grid's features in (H, W, C) order
    return worst_fd_error(total_of, x0, grads.transpose(0, 2, 3, 1).ravel(), res.total,
                          np.repeat(good.ravel(), shape[2]))


def check_si_loss_gradient(rng: SeedRng, h: int = 3, w: int = 4) -> float:
    """Max relative FD error of the depth-loss gradient on a random instance."""
    params = DepthLossParams()
    gt_vals = 0.5 + rng.uniforms(h * w).reshape(h, w) * 4.0
    valid = rng.uniforms(h * w).reshape(h, w) > 0.15
    gt = Grid1(gt_vals, valid)
    pred_vals = 0.5 + rng.uniforms(h * w).reshape(h, w) * 4.0

    def loss_of(x: np.ndarray) -> float:
        return si_loss(x.reshape(h, w), gt, params)[0]

    loss0, grad = si_loss(pred_vals, gt, params)
    return worst_fd_error(loss_of, pred_vals.ravel(), grad.ravel(), loss0)


# ---------------------------------------------------------------------------
# Suites (shared by the CLI and the test suite)
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    trials: int
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.trials == 0 or self.worst < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: worst={self.worst:.3e} "
                f"tolerance={self.tolerance:.1e} trials={self.trials}")


def _suite(name: str, trials: int, tolerance: float, seed: int, trial) -> SuiteResult:
    """The worst of ``trials`` runs of ``trial(rng)``, all drawing from one ``SeedRng(seed)``."""
    rng = SeedRng(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, trial(rng))
    return SuiteResult(name, trials, worst, tolerance)


def run_regloss_gradcheck(trials: int, tolerance: float, seed: int = 20260801) -> SuiteResult:
    return _suite("reg-loss gradient vs central differences", trials, tolerance, seed,
                  lambda rng: check_reg_loss_gradient(*random_instance(rng)))


def run_siloss_gradcheck(trials: int, tolerance: float, seed: int = 20260802) -> SuiteResult:
    return _suite("si-loss gradient vs central differences", trials, tolerance, seed,
                  check_si_loss_gradient)


def run_model_gradcheck(tolerance: float, seed: int = 20260803) -> SuiteResult:
    """Full-pipeline parameter gradient on an 8x8 two-scene batch."""
    from .toybench.model import ToyModel
    from .toybench.scenes import gen_scene
    from .toybench.train import batch_objective

    def trial(rng: SeedRng) -> float:
        scenes = [gen_scene(rng.next_u64(), 8, 8, 0.5, 10.0) for _ in range(2)]
        model = ToyModel.init(rng)
        reg_cfg = RegConfig(
            r_p=0.1,
            strategy=(NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 2.0, 6.0)),
            n_within=2, n_across=1,
        )
        depth_params = DepthLossParams()
        sample_seed = rng.next_u64()

        _, _, l_final, _, grad, _ = batch_objective(model, scenes, reg_cfg, depth_params,
                                                    sample_seed)

        def loss_of(vec: np.ndarray) -> float:
            m = model.with_params(vec)
            return batch_objective(m, scenes, reg_cfg, depth_params, sample_seed)[2]

        return worst_fd_error(loss_of, model.param_vector(), grad, l_final)
    return _suite("toy-model parameter gradient vs central differences", 1, tolerance, seed,
                  trial)


def run_regloss_oracle(trials: int, seed: int = 20260804) -> SuiteResult:
    def trial(rng: SeedRng) -> float:
        f_a, d_a, samples, config = random_instance(rng, max_h=8, max_w=8, max_samples=4)
        config = RegConfig(config.r_p, config.strategy, loss_reduction="sum")
        got = reg_loss_with_gradients(f_a, d_a, samples, config)[0].total
        return rel_error(got, oracle_reg_loss(f_a, d_a, samples, config)[0])
    return _suite("reg-loss vs triple-loop reference", trials, 1e-12, seed, trial)


def run_metrics_oracle(trials: int, seed: int = 20260805) -> SuiteResult:
    def trial(rng: SeedRng) -> float:
        h, w = 8, 8
        gt = Grid1(rng.uniforms(h * w).reshape(h, w) * 9.5 + 0.5,
                   rng.uniforms(h * w).reshape(h, w) > 0.1)
        pred = rng.uniforms(h * w).reshape(h, w) * 9.5 + 0.5
        got, want = compute_metrics(pred, gt), oracle_metrics(pred, gt)
        return max(rel_error(a, b) for a, b in zip(astuple(got), astuple(want)))
    return _suite("evaluation metrics vs scalar-loop reference", trials, 1e-12, seed, trial)
