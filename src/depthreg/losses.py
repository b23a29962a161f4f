"""Contrastive regularization loss and scale-invariant depth loss.

Per sample map and pixel, the pair term is the Euclidean feature distance
for positives and the hinge ``max(0, margin - distance)`` for negatives;
ignored pixels contribute nothing.  Gradients flow to the anchor feature
and, with opposite sign, to the sample feature.  The distance subgradient
at zero distance and the hinge subgradient at the kink are both taken as
zero (the most stable members of the subdifferential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfig, ShapeError
from .grid import Grid1, Grid3, Scratch, _view, take
from .identify import RegConfig, identify
from .sampling import SamplePair


@dataclass(frozen=True)
class LossResult:
    """Regularization total with per-type breakdown and feature gradients.

    ``breakdown`` keys are ``"positive"`` and ``"negative_<j>"``; the values
    carry the configured reduction, so they sum to ``total``.
    ``contributing_count`` is the number of non-ignored (sample, pixel)
    pairs, including inactive hinges.
    """

    total: float
    breakdown: dict[str, float]
    contributing_count: int
    grad_anchor: Grid3
    grad_samples: tuple[Grid3, ...]


@dataclass(frozen=True)
class DepthLossParams:
    """Scale-invariant log-depth loss constants."""

    variance_focus: float = 0.85
    output_scale: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.variance_focus <= 1.0:
            raise InvalidConfig("variance_focus must lie in [0, 1]")
        if not self.output_scale > 0:
            raise InvalidConfig("output_scale must be > 0")


def _zero_result(f_a: Grid3, n_samples: int) -> LossResult:
    zero = _view(Grid3, data=np.zeros_like(f_a.data))
    return LossResult(0.0, {}, 0, grad_anchor=zero, grad_samples=(zero,) * n_samples)


def _squared_distance(diff: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Per-pixel squared norm of a channel-planar (N, C, H, W) array, into ``out``.

    Summed in the order numpy's ``einsum("nhwc,nhwc->nhw")`` sums a pixel's
    C <= 7 contiguous channels in two SIMD lanes: the even channels in turn,
    the odd channels in turn (in ``work``), then the two partial sums.  The
    bits are einsum's on numpy 2.4.6 (x86-64), which the step digests pin;
    from C = 8 einsum's unrolled loop sums in another order.
    """
    np.einsum("nchw,nchw->nhw", diff[:, 0::2], diff[:, 0::2], out=out)
    np.einsum("nchw,nchw->nhw", diff[:, 1::2], diff[:, 1::2], out=work)
    return np.add(out, work, out=out)


def reg_loss(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...], config: RegConfig,
             scratch: Scratch | None = None) -> LossResult:
    """Regularization loss of an anchor against its sample set, with gradients.

    Every sample pixel is classified from the depth-differential map of the
    anchor depth against that sample's depth, then accumulated per the pair
    term.  Reduction follows ``config.loss_reduction``.  Per-sample partials
    are reduced in sample order, so results are reproducible bit-for-bit.
    A sample whose feature or depth map differs in shape from the anchor's
    raises ``ShapeError``.  With a ``scratch`` the work arrays, and the
    gradients returned, are its buffers, valid until the next call with
    that arena.
    """
    if (d_a.height, d_a.width) != (f_a.height, f_a.width):
        raise ShapeError("anchor feature and depth shapes disagree")
    if len(samples) == 0 or not config.enabled:
        return _zero_result(f_a, len(samples))

    n = len(samples)
    h, w, c = f_a.data.shape
    nhw = (n, h, w)
    fa = f_a.data.transpose(2, 0, 1)  # (C, H, W); contiguous when f_a views planar storage

    # One classification pass over every (sample, pixel): the differentials
    # form an (N*H, W) map, classified through the public identify path (it
    # is purely per-pixel, so the reshape is transparent).  The buffers are
    # filled sample by sample, channel-planar: each sample is copied into
    # its slot and the anchor subtracted there in place, so every ufunc of
    # the pass runs on contiguous operands (on row-strided windows or an
    # inner axis of length C it runs several times slower).  Each sample's
    # shape is checked before its slot is written: np.copyto would
    # broadcast a (1, W) depth map silently.
    diff = take(scratch, "diff", (n, c, h, w))  # f_a - f_s; becomes the f_s gradient
    dd = take(scratch, "dd", nhw)  # |d_a - d_s|; becomes the per-pixel margin
    mask = take(scratch, "mask", nhw, bool)  # joint validity; then one label group at a time
    for i, p in enumerate(samples):
        if p.feature.data.shape != (h, w, c) or p.depth.values.shape != (h, w):
            raise ShapeError(f"sample {i} disagrees in shape with the anchor")
        np.copyto(diff[i], p.feature.data.transpose(2, 0, 1))
        np.subtract(fa, diff[i], out=diff[i])
        np.copyto(dd[i], p.depth.values)
        np.subtract(d_a.values, dd[i], out=dd[i])
        np.copyto(mask[i], p.depth.valid)
        np.logical_and(d_a.valid, mask[i], out=mask[i])
    # |d_a - d_s| of two checked depth maps: finite and >= 0 where both are valid
    dr = _view(Grid1, values=np.abs(dd, out=dd).reshape(n * h, w), valid=mask.reshape(n * h, w))
    labels = identify(dr, config).labels.reshape(nhw)

    hinge = take(scratch, "hinge", nhw)  # holds the odd-channel partial sums first
    dist = _squared_distance(diff, take(scratch, "dist", nhw), hinge)
    np.sqrt(dist, out=dist)

    ranges = config.strategy.ranges
    pos = np.equal(labels, 0, out=take(scratch, "pos", nhw, bool))
    neg = np.greater(labels, 0, out=take(scratch, "neg", nhw, bool))
    m = dd
    m.fill(0.0)
    for j, r in enumerate(ranges, start=1):
        np.copyto(m, r.margin, where=np.equal(labels, j, out=mask))
    np.subtract(m, dist, out=hinge)
    np.maximum(0.0, hinge, out=hinge)

    contributing = int(np.count_nonzero(pos) + np.count_nonzero(neg))
    if config.loss_reduction == "mean_contributing":
        scale = 1.0 / contributing if contributing else 0.0
    else:
        scale = 1.0

    breakdown: dict[str, float] = {"positive": scale * float(np.sum(dist, where=pos))}
    for j in range(1, len(ranges) + 1):
        np.equal(labels, j, out=mask)
        breakdown[f"negative_{j}"] = scale * float(np.sum(hinge, where=mask))
    total = math.fsum(breakdown.values())

    # Gradient coefficient per (sample, pixel): d(term)/d(dist) toward the
    # sample, zero at dist = 0 and on inactive hinges.  Built in the hinge
    # buffer as scale * (1 / dist), with 1 / dist read as 0 at dist = 0,
    # negated on positives and +0.0 off the active pixels: the bits of
    # (scale * (1 / dist)) * (active - positive).  The reciprocal comes
    # first, so these are not the bits of scale / dist.
    coef = hinge
    coef.fill(np.inf)
    np.copyto(coef, dist, where=np.greater(dist, 0.0, out=mask))
    np.divide(1.0, coef, out=coef)
    np.multiply(scale, coef, out=coef)
    active = np.logical_and(neg, np.less(dist, m, out=mask), out=mask)
    np.negative(coef, out=coef, where=pos)
    idle = np.logical_not(np.logical_or(active, pos, out=neg), out=neg)
    np.copyto(coef, 0.0, where=idle)

    # Each entry is ``scale`` times a feature difference over its norm (so at
    # most about ``scale``) or NaN where the difference overflowed: the anchor
    # gradient, minus their sum, is finite exactly when all are.  Its check
    # covers the sample gradients.  Both are handed out as read-only
    # (H, W, C) views of frozen channel-planar buffers.
    per_sample = np.multiply(diff, coef[:, None], out=diff)  # gradient wrt each f_s
    per_sample.setflags(write=False)
    grad_samples = tuple(_view(Grid3, data=g.transpose(1, 2, 0)) for g in per_sample)
    grad_anchor = np.sum(per_sample, axis=0, out=take(scratch, "grad_anchor", (c, h, w)))
    np.negative(grad_anchor, out=grad_anchor)
    grad_anchor.setflags(write=False)
    grad_anchor = Grid3._owned(grad_anchor.transpose(1, 2, 0))

    return LossResult(
        total=total,
        breakdown=breakdown,
        contributing_count=contributing,
        grad_anchor=grad_anchor,
        grad_samples=grad_samples,
    )


def si_loss(pred: Grid1, gt: Grid1, params: DepthLossParams) -> tuple[float, np.ndarray]:
    """Scale-invariant log error and its exact gradient wrt the prediction.

    With g_i = ln pred_i - ln gt_i over the T jointly valid pixels (gt > 0
    required), returns ``scale * sqrt(mean(g^2) - focus * mean(g)^2)``.
    The gradient is returned as an (H, W) array, zero off the valid mask
    and zero everywhere when the sqrt argument vanishes.
    """
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise ShapeError("prediction and ground-truth shapes disagree")
    mask = pred.valid & gt.valid & (gt.values > 0)
    grad = np.zeros((pred.height, pred.width))
    t = int(np.count_nonzero(mask))
    if t == 0:
        return 0.0, grad
    p = pred.values[mask]
    if np.any(p <= 0):
        raise DomainError("prediction must be positive on evaluated pixels")
    g = np.log(p) - np.log(gt.values[mask])
    s1 = float(np.sum(g))
    s2 = float(np.sum(g * g))
    v = s2 / t - params.variance_focus * (s1 / t) ** 2
    v = max(v, 0.0)
    loss = params.output_scale * math.sqrt(v)
    if v > 0.0:
        dg = params.output_scale * (g - params.variance_focus * s1 / t) / (t * math.sqrt(v))
        grad[mask] = dg / p
    return loss, grad

