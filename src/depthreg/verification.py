"""Independent oracles and gradient checks.

The reference implementations here deliberately avoid every vectorized code
path they verify: classification is re-derived pixel by pixel with scalar
comparisons, distances with explicit channel loops, accumulation with
``math.fsum``.  The mutation flags corrupt one side on purpose so the test
suite can prove these checks would catch a real bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid1, Grid3, SeedRng
from .identify import MultiRange, NegativeRange, RegConfig, Uniform
from .losses import DepthLossParams, reg_loss, si_loss
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

def _oracle_label(diff: float, valid: bool, config: RegConfig,
                  r_p_override=None) -> tuple[int, float]:
    """Scalar reclassification of one pixel: (label, margin of negative group j).

    Label -1 is ignored, 0 positive, j negative; non-negatives get margin 0.0.
    """
    if not valid:
        return -1, 0.0
    r_p = config.r_p if r_p_override is None else r_p_override
    if diff < r_p:
        return 0, 0.0
    s = config.strategy
    if isinstance(s, Uniform):
        return (1, s.m_u) if diff > s.r_n else (-1, 0.0)
    for j, r in enumerate(s.ranges, start=1):
        if r.low < diff < r.high:
            return j, r.margin
    return -1, 0.0


def oracle_reg_loss(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...], config: RegConfig,
                    mutate_classifier: bool = False) -> tuple[float, int]:
    """Triple loop over (sample, pixel, channel); returns (total, contributing).

    ``mutate_classifier`` perturbs the positive threshold by 10% to emulate a
    classification bug, for canary tests only.
    """
    r_p = config.r_p * 1.1 if mutate_classifier else None
    terms = []
    contributing = 0
    for n, pair in enumerate(samples):
        for i in range(f_a.height):
            for j in range(f_a.width):
                valid = bool(d_a.valid[i, j]) and bool(pair.depth.valid[i, j])
                diff = abs(float(d_a.values[i, j]) - float(pair.depth.values[i, j]))
                label, margin = _oracle_label(diff, valid, config, r_p)
                if label < 0:
                    continue
                contributing += 1
                acc = 0.0
                for c in range(f_a.channels):
                    delta = float(f_a.data[i, j, c]) - float(pair.feature.data[i, j, c])
                    acc += delta * delta
                dist = math.sqrt(acc)
                if label == 0:
                    terms.append(dist)
                else:
                    terms.append(max(0.0, margin - dist))
    total = math.fsum(terms)
    if config.loss_reduction == "mean_contributing":
        total = total / contributing if contributing else 0.0
    return total, contributing


def oracle_metrics(pred: Grid1, gt: Grid1) -> MetricReport:
    """Scalar-loop recomputation of the seven evaluation metrics."""
    abs_rel, sq_rel, sq, sq_log, l10 = [], [], [], [], []
    d1 = d2 = d3 = 0
    n = 0
    for i in range(gt.height):
        for j in range(gt.width):
            g = float(gt.values[i, j])
            p = float(pred.values[i, j])
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
    """Seeded (f_a, d_a, samples, config); alternates the two strategies.

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
        strategy = Uniform(r_n=0.5, m_u=2.0)
    else:
        strategy = MultiRange(
            (NegativeRange(0.5, 1.0, 1.5), NegativeRange(1.0, 2.0, 3.0))
        )
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


def _kink_free_mask(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...],
                    config: RegConfig):
    """Per-(sample, pixel) flag: True when safely away from kinks."""
    n = len(samples)
    good = np.ones((n, f_a.height, f_a.width), dtype=bool)
    for s_idx, pair in enumerate(samples):
        for i in range(f_a.height):
            for j in range(f_a.width):
                valid = bool(d_a.valid[i, j]) and bool(pair.depth.valid[i, j])
                diff = abs(float(d_a.values[i, j]) - float(pair.depth.values[i, j]))
                label, margin = _oracle_label(diff, valid, config)
                if label < 0:
                    continue
                dist = math.sqrt(
                    float(np.sum((f_a.data[i, j] - pair.feature.data[i, j]) ** 2))
                )
                if dist < KINK_MARGIN:
                    good[s_idx, i, j] = False
                elif label > 0 and abs(dist - margin) < KINK_MARGIN:
                    good[s_idx, i, j] = False
    return good


def check_reg_loss_gradient(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...],
                            config: RegConfig, mutate_hinge_sign: bool = False) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The gradient is checked jointly over the anchor and all sample feature
    maps; coordinates of kink-adjacent pixels are excluded.  With
    ``mutate_hinge_sign`` the negative-pair gradient contributions are
    sign-flipped first (canary: the check must then fail).
    """
    res = reg_loss(f_a, d_a, samples, config)
    grads = [res.grad_anchor.data] + [g.data for g in res.grad_samples]
    if mutate_hinge_sign:
        # Positive-only gradients via hinge margins too small to activate;
        # classification is untouched, so the reduction scale is identical.
        pos_strategy = MultiRange(
            tuple(NegativeRange(r.low, r.high, 1e-300) for r in config.strategy.ranges)
        )
        res_pos = reg_loss(f_a, d_a, samples, replace(config, strategy=pos_strategy))
        pos_grads = [res_pos.grad_anchor.data] + [g.data for g in res_pos.grad_samples]
        grads = [2.0 * p - g for p, g in zip(pos_grads, grads)]

    good = _kink_free_mask(f_a, d_a, samples, config)
    anchor_good = good.all(axis=0)

    shape = f_a.data.shape
    size = f_a.data.size

    def total_of(x: np.ndarray) -> float:
        fa = Grid3(x[:size].reshape(shape))
        new_pairs = tuple(
            replace(p, feature=Grid3(x[size * (i + 1) : size * (i + 2)].reshape(shape)))
            for i, p in enumerate(samples)
        )
        return reg_loss(fa, d_a, new_pairs, config).total

    x0 = np.concatenate([f_a.data.ravel()] + [p.feature.data.ravel() for p in samples])
    floor = noise_floor(res.total)
    worst = 0.0
    for flat in range(x0.size):
        block, offset = divmod(flat, size)
        i, j, c = np.unravel_index(offset, shape)
        if block == 0:
            if not anchor_good[i, j]:
                continue
            analytic = grads[0][i, j, c]
        else:
            if not good[block - 1, i, j]:
                continue
            analytic = grads[block][i, j, c]
        fd = central_difference(total_of, x0, flat)
        worst = max(worst, rel_error(analytic, fd, floor))
    return worst


def check_si_loss_gradient(rng: SeedRng, h: int = 3, w: int = 4) -> float:
    """Max relative FD error of the depth-loss gradient on a random instance."""
    params = DepthLossParams()
    gt_vals = 0.5 + rng.uniforms(h * w).reshape(h, w) * 4.0
    valid = rng.uniforms(h * w).reshape(h, w) > 0.15
    gt = Grid1(gt_vals, valid)
    pred_vals = 0.5 + rng.uniforms(h * w).reshape(h, w) * 4.0

    def loss_of(x: np.ndarray) -> float:
        return si_loss(Grid1(x.reshape(h, w)), gt, params)[0]

    loss0, grad = si_loss(Grid1(pred_vals), gt, params)
    floor = noise_floor(loss0)
    x0 = pred_vals.ravel().copy()
    worst = 0.0
    for flat in range(x0.size):
        i, j = divmod(flat, w)
        fd = central_difference(loss_of, x0, flat)
        worst = max(worst, rel_error(grad[i, j], fd, floor))
    return worst


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


def run_regloss_gradcheck(trials: int, tolerance: float, seed: int = 20260801,
                          mutate_hinge_sign: bool = False) -> SuiteResult:
    rng = SeedRng(seed)
    worst = 0.0
    for _ in range(trials):
        f_a, d_a, samples, config = random_instance(rng)
        worst = max(worst, check_reg_loss_gradient(
            f_a, d_a, samples, config, mutate_hinge_sign=mutate_hinge_sign))
    return SuiteResult("reg-loss gradient vs central differences", trials, worst, tolerance)


def run_siloss_gradcheck(trials: int, tolerance: float, seed: int = 20260802) -> SuiteResult:
    rng = SeedRng(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, check_si_loss_gradient(rng))
    return SuiteResult("si-loss gradient vs central differences", trials, worst, tolerance)


def run_model_gradcheck(tolerance: float, seed: int = 20260803) -> SuiteResult:
    """Full-pipeline parameter gradient on an 8x8 two-scene batch."""
    from .toybench.model import ToyModel
    from .toybench.scenes import gen_scene
    from .toybench.train import batch_objective

    rng = SeedRng(seed)
    scenes = [gen_scene(rng.next_u64(), 8, 8, 0.5, 10.0) for _ in range(2)]
    model = ToyModel.init(rng)
    reg_cfg = RegConfig(
        r_p=0.1,
        strategy=MultiRange((NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 2.0, 6.0))),
        n_within=2, n_across=1,
    )
    depth_params = DepthLossParams()
    sample_seed = rng.next_u64()

    _, _, l_final, _, grad, _ = batch_objective(model, scenes, reg_cfg, depth_params, sample_seed)

    def loss_of(vec: np.ndarray) -> float:
        m = model.with_params(vec)
        return batch_objective(m, scenes, reg_cfg, depth_params, sample_seed)[2]

    x0 = model.param_vector()
    floor = noise_floor(l_final)
    worst = 0.0
    for flat in range(x0.size):
        fd = central_difference(loss_of, x0, flat)
        worst = max(worst, rel_error(grad[flat], fd, floor))
    return SuiteResult("toy-model parameter gradient vs central differences",
                       1, worst, tolerance)


def run_regloss_oracle(trials: int, seed: int = 20260804,
                       mutate_classifier: bool = False) -> SuiteResult:
    rng = SeedRng(seed)
    worst = 0.0
    for _ in range(trials):
        f_a, d_a, samples, config = random_instance(rng, max_h=8, max_w=8, max_samples=4)
        config = RegConfig(config.r_p, config.strategy, loss_reduction="sum")
        got = reg_loss(f_a, d_a, samples, config).total
        want, _ = oracle_reg_loss(f_a, d_a, samples, config,
                                  mutate_classifier=mutate_classifier)
        worst = max(worst, rel_error(got, want))
    return SuiteResult("reg-loss vs triple-loop reference", trials, worst, 1e-12)


def run_metrics_oracle(trials: int, seed: int = 20260805) -> SuiteResult:
    rng = SeedRng(seed)
    worst = 0.0
    for _ in range(trials):
        h, w = 8, 8
        gt = Grid1(rng.uniforms(h * w).reshape(h, w) * 9.5 + 0.5,
                   rng.uniforms(h * w).reshape(h, w) > 0.1)
        pred = Grid1(rng.uniforms(h * w).reshape(h, w) * 9.5 + 0.5)
        got = compute_metrics(pred, gt)
        want = oracle_metrics(pred, gt)
        for name in ("abs_rel", "sq_rel", "rmse", "rmse_log", "log10",
                     "delta1", "delta2", "delta3"):
            worst = max(worst, rel_error(getattr(got, name), getattr(want, name)))
        if got.pixel_count != want.pixel_count:
            worst = max(worst, 1.0)
    return SuiteResult("evaluation metrics vs scalar-loop reference", trials, worst, 1e-12)
