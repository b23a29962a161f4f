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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidConfig, ShapeError
from .grid import Grid1, Grid3, Scratch, _check_finite, roll_into, take
from .identify import POSITIVE, RegConfig, identify
from .sampling import SamplePair


@dataclass(frozen=True)
class LossResult:
    """Regularization total with its per-type breakdown.

    ``breakdown`` keys are ``"positive"`` and ``"negative_<j>"``; the values
    carry the configured reduction, so they sum to ``total``.
    ``contributing_count`` is the number of non-ignored (sample, pixel)
    pairs, including inactive hinges.
    """

    total: float
    breakdown: dict[str, float]
    contributing_count: int


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


def _margins(labels: np.ndarray, ranges, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-pixel margin into ``out``: ``ranges[j - 1].margin`` on negative group j, 0 elsewhere.

    One lookup of the table ``[0, 0, m_1, ..., m_J]`` (ignored, positive,
    then each group) at ``labels + 1``, held in the intp buffer ``index``.
    ``mode="clip"`` writes straight into ``out``; ``"raise"`` would buffer it.
    """
    table = np.array([0.0, 0.0] + [r.margin for r in ranges])
    return np.take(table, np.add(labels, 1, out=index, dtype=np.intp), out=out, mode="clip")


def _coefficient(dist: np.ndarray, m: np.ndarray, pos: np.ndarray, scale: float,
                 mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(scale * (1 / dist)) * ((dist < m) - pos)`` into ``out``, 1 / dist read as 0 at dist = 0.

    The gradient coefficient d(term)/d(dist) toward the sample.  Only a
    negative's margin lets ``dist < m`` hold (``m`` is 0 elsewhere), so the
    sign is +1 on active hinges, -1 on positives and 0 on every other pixel;
    it is cast into ``m``, which is overwritten.  ``1 / dist`` is finite
    (a non-zero ``dist`` is a square root, at least 1e-162), so idle pixels
    get +0.0 and a positive at dist = 0 gets -0.0.  The reciprocal comes
    first, so these are not the bits of ``scale / dist``.
    """
    out.fill(0.0)
    np.divide(1.0, dist, out=out, where=np.greater(dist, 0.0, out=mask))
    np.multiply(scale, out, out=out)
    sign = np.subtract(np.less(dist, m, out=mask), pos, out=m, dtype=np.float64)
    return np.multiply(out, sign, out=out)


def reg_loss(f_a: Grid3, d_a: Grid1, samples: tuple[SamplePair, ...], config: RegConfig,
             grad_anchor: np.ndarray, grad_samples: Sequence[np.ndarray],
             scratch: Scratch | None = None) -> LossResult:
    """Regularization loss of an anchor against its sample set; adds its gradients.

    Every sample pixel is classified from the depth-differential map of the
    anchor depth against that sample's depth, then accumulated per the pair
    term.  A sample's maps are its grids rolled by its ``(s_h, s_w)``.
    Reduction follows ``config.loss_reduction``.  Per-sample partials are
    reduced in sample order, so results are reproducible bit-for-bit.
    The anchor's gradient is added into ``grad_anchor``, then each sample's,
    in order, into its entry of ``grad_samples``, rolled back to its grid's
    frame.  All are channel-planar (C, H, W); entries may be one array, or
    ``grad_anchor``.  A call that raises adds nothing: a sample whose
    feature or depth map differs in shape from the anchor's raises
    ``ShapeError``, an overflowing gradient ``DomainError``.  With a
    ``scratch`` the work arrays are its buffers.
    """
    if (d_a.height, d_a.width) != (f_a.height, f_a.width):
        raise ShapeError("anchor feature and depth shapes disagree")
    if len(samples) == 0 or not config.enabled:
        return LossResult(0.0, {}, 0)

    n = len(samples)
    h, w, c = f_a.data.shape
    nhw = (n, h, w)
    fa = f_a.data.transpose(2, 0, 1)  # (C, H, W); contiguous when f_a views planar storage

    # One classification pass over every (sample, pixel) of the (N, H, W)
    # differentials.  The buffers are filled sample by sample,
    # channel-planar: a shifted sample is rolled into its slot and the anchor
    # subtracted there in place, an unshifted one subtracted straight from
    # its source, so every ufunc of the pass runs on contiguous operands when
    # the features view planar storage (on row-strided blocks or an inner
    # axis of length C it runs several times slower).  Each sample's shape is
    # checked before its slot is written: a ufunc's ``out=`` would broadcast
    # a (1, W) depth map silently.  Depth enters as each grid's NaN-marked
    # plane, which a shifted sample rolls; NaN survives the subtraction and
    # ``abs``, so ``identify`` ignores every pixel that is not jointly valid.
    diff = take(scratch, "diff", (n, c, h, w))  # f_a - f_s; becomes the f_s gradient
    dd = take(scratch, "dd", nhw)  # |d_a - d_s|; then the margins; then the coefficient's sign
    for i, p in enumerate(samples):
        if p.feature.data.shape != (h, w, c) or p.depth.values.shape != (h, w):
            raise ShapeError(f"sample {i} disagrees in shape with the anchor")
        f_s, d_s = p.feature.data.transpose(2, 0, 1), p.depth.plane
        if p.s_h or p.s_w:
            f_s = roll_into(f_s, p.s_h, p.s_w, diff[i])
            d_s = roll_into(d_s, p.s_h, p.s_w, dd[i])
        np.subtract(fa, f_s, out=diff[i])
        np.subtract(d_a.plane, d_s, out=dd[i])
    labels = identify(np.abs(dd, out=dd), config)

    mask = take(scratch, "mask", nhw, bool)  # one pixel test at a time
    hinge = take(scratch, "hinge", nhw)  # first the odd-channel partial sums
    dist = _squared_distance(diff, take(scratch, "dist", nhw), hinge)
    np.sqrt(dist, out=dist)

    ranges = config.strategy.ranges
    m = _margins(labels, ranges, hinge.view(np.intp), dd)
    np.subtract(m, dist, out=hinge)
    np.maximum(0.0, hinge, out=hinge)

    pos = np.equal(labels, POSITIVE, out=take(scratch, "pos", nhw, bool))
    contributing = int(np.count_nonzero(np.greater_equal(labels, POSITIVE, out=mask)))
    if config.loss_reduction == "mean_contributing":
        scale = 1.0 / contributing if contributing else 0.0
    else:
        scale = 1.0

    # The masked sums fix the breakdown's bits.  numpy reduces each maximal
    # run of True pixels by its pairwise sum and adds the runs left to right
    # to 0.0 (an emulation of that order matches all four sums of a 64x64
    # step).  The order follows where the runs fall, so no cheaper op (a
    # multiply then a plain sum, a bincount) gives the same bits.
    breakdown: dict[str, float] = {"positive": scale * float(np.sum(dist, where=pos))}
    for j in range(1, len(ranges) + 1):
        np.equal(labels, j, out=mask)
        breakdown[f"negative_{j}"] = scale * float(np.sum(hinge, where=mask))
    total = math.fsum(breakdown.values())

    coef = _coefficient(dist, m, pos, scale, mask, hinge)

    # Each entry is ``scale`` times a feature difference over its norm (so at
    # most about ``scale``) or NaN where the difference overflowed: the anchor
    # gradient, minus their sum, is finite exactly when all are.  Its check
    # covers the sample gradients, before anything is added.
    grad = np.multiply(diff, coef[:, None], out=diff)  # wrt each rolled sample map
    anchor = np.sum(grad, axis=0, out=take(scratch, "grad_anchor", (c, h, w)))
    np.negative(anchor, out=anchor)
    _check_finite(anchor)
    grad_anchor += anchor
    for p, g, acc in zip(samples, grad, grad_samples):
        if p.s_h or p.s_w:  # back to its grid's pixels, then one contiguous add
            g = roll_into(g, -p.s_h, -p.s_w, take(scratch, "unshifted", (c, h, w)))
        acc += g

    return LossResult(total=total, breakdown=breakdown, contributing_count=contributing)


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

