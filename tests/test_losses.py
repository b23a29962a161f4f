import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthreg.errors import DomainError, ShapeError
from depthreg.grid import Grid1, Grid3, SeedRng, _check_depth, _view
from depthreg.experiment import strategy_from_dict
from depthreg.identify import (POSITIVE, MultiRange, NegativeRange, RegConfig, differential_map,
                               identify)
from depthreg.losses import DepthLossParams, _coefficient, _margins, _squared_distance, si_loss
from depthreg.sampling import Batch, SamplePair, build_sample_set
from depthreg.verification import oracle_reg_loss, random_instance, reg_loss_with_gradients

UNIFORM_NYU = RegConfig(r_p=0.1, strategy=MultiRange((NegativeRange(0.5, np.inf, 4.0),)))
MULTI_NYU = RegConfig(
    r_p=0.1,
    strategy=MultiRange((NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 2.0, 6.0))),
)


def single_pixel_instance(anchor_feat, sample_feat, anchor_depth, sample_depth):
    f_a = Grid3(np.array(anchor_feat, dtype=float).reshape(1, 1, -1))
    f_s = Grid3(np.array(sample_feat, dtype=float).reshape(1, 1, -1))
    d_a = Grid1(np.array([[anchor_depth]], dtype=float))
    d_s = Grid1(np.array([[sample_depth]], dtype=float))
    return f_a, d_a, (SamplePair(f_s, d_s, 1, 0, 0),)


class TestRegLoss:
    def test_empty_sample_set(self):
        f_a = Grid3(np.ones((2, 2, 3)))
        d_a = Grid1(np.ones((2, 2)))
        res, grads = reg_loss_with_gradients(f_a, d_a, (), UNIFORM_NYU)
        assert res.total == 0.0
        assert res.breakdown == {}
        assert res.contributing_count == 0
        assert (grads == 0).all()

    def test_identical_positive_pair_is_zero(self):
        f_a, d_a, ss = single_pixel_instance([1.0, 2.0], [1.0, 2.0], 3.0, 3.0)
        res, _ = reg_loss_with_gradients(f_a, d_a, ss, UNIFORM_NYU)
        assert res.total == 0.0
        assert res.contributing_count == 1

    def test_positive_pair_distance_and_gradient(self):
        f_a, d_a, ss = single_pixel_instance([3.0, 4.0], [0.0, 0.0], 1.0, 1.05)
        res, grads = reg_loss_with_gradients(f_a, d_a, ss, UNIFORM_NYU)
        assert res.total == pytest.approx(5.0)
        # d dist / d f_a = (f_a - f_s) / dist
        assert grads[0, :, 0, 0].tolist() == pytest.approx([0.6, 0.8])
        assert grads[1, :, 0, 0].tolist() == pytest.approx([-0.6, -0.8])

    @pytest.mark.parametrize("config, sample_depth, total, group", [
        (UNIFORM_NYU, 2.0, 3.0, "negative_1"),  # max(0, 4 - 1)
        (MULTI_NYU, 2.5, 5.0, "negative_2"),  # differential 1.5: max(0, 6 - 1)
    ])
    def test_negative_pair_hinge_gradient_pushes_apart(self, config, sample_depth, total,
                                                       group):
        f_a, d_a, ss = single_pixel_instance([1.0, 0.0], [0.0, 0.0], 1.0, sample_depth)
        res, grads = reg_loss_with_gradients(f_a, d_a, ss, config)
        assert res.total == pytest.approx(total)
        assert res.breakdown[group] == pytest.approx(total)
        assert grads[0, :, 0, 0].tolist() == pytest.approx([-1.0, 0.0])
        assert grads[1, :, 0, 0].tolist() == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize("config, sample_depth, dist", [
        (UNIFORM_NYU, 2.0, 9.0),
        (MULTI_NYU, 2.5, 7.0),  # group 2, margin 6
    ])
    def test_inactive_hinge_contributes_count_but_nothing_else(self, config, sample_depth,
                                                               dist):
        f_a, d_a, ss = single_pixel_instance([dist, 0.0], [0.0, 0.0], 1.0, sample_depth)
        res, grads = reg_loss_with_gradients(f_a, d_a, ss, config)
        assert res.total == 0.0
        assert res.contributing_count == 1
        assert (grads == 0).all()

    @pytest.mark.parametrize("config", [UNIFORM_NYU, MULTI_NYU])
    def test_overflowing_feature_difference_raises(self, config):
        """Features of +-1e308 differ by inf: the gradients would be NaN, so the call raises."""
        f_a = Grid3(np.full((2, 3, 2), 1e308))
        d_a = Grid1(np.full((2, 3), 2.0))
        samples = tuple(
            SamplePair(Grid3(np.full((2, 3, 2), -1e308)), Grid1(np.full((2, 3), depth)), 1, 0, 0)
            for depth in (2.0, 2.7))  # one positive sample, one negative
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            reg_loss_with_gradients(f_a, d_a, samples, config)

    def test_channel_mismatch_rejected(self):
        f_a, d_a, _ = single_pixel_instance([1.0], [1.0], 1.0, 1.0)
        _, _, ss = single_pixel_instance([1.0, 2.0], [1.0, 2.0], 1.0, 1.0)
        with pytest.raises(ShapeError):
            reg_loss_with_gradients(f_a, d_a, ss, UNIFORM_NYU)

    # Each sample is checked in the fill loop, before its slot is written.
    def test_second_sample_with_other_feature_shape_rejected(self):
        f_a, d_a = Grid3(np.ones((2, 3, 2))), Grid1(np.ones((2, 3)))
        samples = (SamplePair(Grid3(np.zeros((2, 3, 2))), Grid1(np.ones((2, 3))), 1, 0, 0),
                   SamplePair(Grid3(np.zeros((2, 3, 3))), Grid1(np.ones((2, 3))), 1, 0, 0))
        with pytest.raises(ShapeError, match="sample 1"):
            reg_loss_with_gradients(f_a, d_a, samples, UNIFORM_NYU)

    @pytest.mark.parametrize("depth_shape", [(1, 3), (2, 1), (3, 3)])
    def test_sample_depth_map_alone_of_other_shape_rejected(self, depth_shape):
        """A (1, W) or (H, 1) map would broadcast into the depth buffer unnoticed."""
        f_a, d_a = Grid3(np.ones((2, 3, 2))), Grid1(np.ones((2, 3)))
        samples = (SamplePair(Grid3(np.zeros((2, 3, 2))), Grid1(np.full(depth_shape, 3.0)),
                              1, 0, 0),)
        with pytest.raises(ShapeError, match="sample 0"):
            reg_loss_with_gradients(f_a, d_a, samples, UNIFORM_NYU)

    def test_breakdown_sums_to_total(self):
        rng = SeedRng(404)
        for _ in range(20):
            f_a, d_a, samples, config = random_instance(rng)
            res, _ = reg_loss_with_gradients(f_a, d_a, samples, config)
            assert sum(res.breakdown.values()) == pytest.approx(res.total, rel=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = SeedRng(505)
        for _ in range(100):
            f_a, d_a, samples, config = random_instance(rng, max_h=8, max_w=8)
            res, _ = reg_loss_with_gradients(f_a, d_a, samples, config)
            want, count = oracle_reg_loss(f_a, d_a, samples, config)
            assert res.total == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert res.contributing_count == count

    def test_matches_oracle_2x2_indoor_uniform(self):
        # 2x2 random features, two samples, the indoor-style uniform config
        rng = SeedRng(2468)
        cfg = replace(UNIFORM_NYU, loss_reduction="sum")
        f_a = Grid3(rng.normals(2 * 2 * 3).reshape(2, 2, 3))
        d_a = Grid1(rng.uniforms(4).reshape(2, 2) * 2.0)
        samples = tuple(
            SamplePair(
                Grid3(rng.normals(2 * 2 * 3).reshape(2, 2, 3)),
                Grid1(rng.uniforms(4).reshape(2, 2) * 2.0),
                1, 0, 0,
            )
            for _ in range(2)
        )
        res, _ = reg_loss_with_gradients(f_a, d_a, samples, cfg)
        want, _ = oracle_reg_loss(f_a, d_a, samples, cfg)
        assert res.total == pytest.approx(want, rel=1e-12)

    def test_mean_reduction_divides_sum(self):
        rng = SeedRng(606)
        f_a, d_a, samples, config = random_instance(rng)
        total_sum, _ = reg_loss_with_gradients(
            f_a, d_a, samples,
            RegConfig(config.r_p, config.strategy, loss_reduction="sum"),
        )
        total_mean, _ = reg_loss_with_gradients(
            f_a, d_a, samples,
            RegConfig(config.r_p, config.strategy, loss_reduction="mean_contributing"),
        )
        assert total_mean.total == pytest.approx(
            total_sum.total / total_sum.contributing_count, rel=1e-12
        )

    def test_permutation_invariance_sum_mode(self):
        rng = SeedRng(707)
        f_a, d_a, samples, config = random_instance(rng, max_h=4, max_w=4)
        config = RegConfig(config.r_p, config.strategy, loss_reduction="sum")
        h, w = f_a.height, f_a.width
        perm = np.argsort(SeedRng(3).uniforms(h * w))

        def permute3(g):
            flat = g.data.reshape(h * w, -1)[perm]
            return Grid3(flat.reshape(h, w, -1))

        def permute1(g):
            return Grid1(g.values.reshape(-1)[perm].reshape(h, w),
                         g.valid.reshape(-1)[perm].reshape(h, w))

        permuted = tuple(
            replace(p, feature=permute3(p.feature), depth=permute1(p.depth)) for p in samples
        )
        a = reg_loss_with_gradients(f_a, d_a, samples, config)[0].total
        b = reg_loss_with_gradients(permute3(f_a), permute1(d_a), permuted, config)[0].total
        assert b == pytest.approx(a, rel=1e-12)

    def test_translation_invariance(self):
        rng = SeedRng(808)
        f_a, d_a, samples, config = random_instance(rng)
        shift = rng.normals(f_a.channels) * 10
        shifted = tuple(replace(p, feature=Grid3(p.feature.data + shift)) for p in samples)
        a = reg_loss_with_gradients(f_a, d_a, samples, config)[0].total
        b = reg_loss_with_gradients(Grid3(f_a.data + shift), d_a, shifted, config)[0].total
        assert b == pytest.approx(a, rel=1e-9)

    def test_zero_iff_optimum(self):
        # total is zero exactly when positives coincide and negatives clear margins
        f_a, d_a, ss = single_pixel_instance([1.0, 1.0], [1.0, 1.0], 2.0, 2.0)
        assert reg_loss_with_gradients(f_a, d_a, ss, UNIFORM_NYU)[0].total == 0.0
        f_a, d_a, ss = single_pixel_instance([5.0, 0.0], [0.0, 0.0], 1.0, 9.0)
        assert reg_loss_with_gradients(f_a, d_a, ss, UNIFORM_NYU)[0].total == 0.0
        f_a, d_a, ss = single_pixel_instance([3.0, 0.0], [0.0, 0.0], 1.0, 9.0)
        assert reg_loss_with_gradients(f_a, d_a, ss, UNIFORM_NYU)[0].total > 0.0


# reg_loss checks neither the differential map nor the sample gradients:
# both follow from checks that stay.  These properties pin the implications.

VALID_DEPTHS = st.one_of(st.floats(0.0, 1e308), st.sampled_from([-0.0, 5e-324, 1e308]))
HOLES = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e308, 1e308])
VALID_NEAR = st.sampled_from([0.0, 1.0, 1.05, 1.3, 1.8, 2.5, 4.0])  # every group of both configs


def checked_depth_map(data, h, w, depths=VALID_DEPTHS):
    """A ``Grid1`` with valid ``depths`` (up to 1e308) and NaN, +-inf or negatives in its holes."""
    valid = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    values = [data.draw(depths if ok else HOLES) for ok in valid]
    return Grid1(np.array(values).reshape(h, w), np.array(valid).reshape(h, w))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), h=st.integers(1, 4), w=st.integers(1, 4))
def test_differential_of_checked_depth_maps_passes_the_depth_check(data, h, w):
    d_a, d_s = checked_depth_map(data, h, w), checked_depth_map(data, h, w)
    joint = d_a.valid & d_s.valid
    with np.errstate(over="ignore", invalid="ignore"):  # only in the holes
        _check_depth(np.abs(d_a.values - d_s.values), joint)
    d_r = differential_map(d_a, d_s)  # as reg_loss computes it, from the planes
    assert np.array_equal(d_r == d_r, joint)
    _check_depth(d_r, joint)


HUGE_FEATURES = [1e308, -1e308, 1.7e308, -1.7e308, 1e200, -1e160, 1e154, -1e-160, 5e-324]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), n=st.integers(1, 4), c=st.integers(1, 2),
       config=st.sampled_from([UNIFORM_NYU, MULTI_NYU]),
       reduction=st.sampled_from(["sum", "mean_contributing"]))
def test_anchor_gradient_check_covers_every_sample_gradient(data, seed, n, c, config,
                                                            reduction):
    """Features mixing normal and huge entries: reg_loss raises, or all its gradients are finite."""
    h, w = 1, 3
    rng = SeedRng(seed)

    def features():
        x = rng.normals(h * w * c)
        for i, v in data.draw(st.lists(st.tuples(st.integers(0, x.size - 1),
                                                 st.sampled_from(HUGE_FEATURES)), max_size=3)):
            x[i] = v
        return Grid3(x.reshape(h, w, c))

    def depths():  # positives, both negative groups and ignored pixels
        return Grid1(np.array(data.draw(st.lists(st.sampled_from([1.0, 1.05, 1.3, 1.8, 2.5, 4.0]),
                                                 min_size=h * w, max_size=h * w))).reshape(h, w))

    f_a, d_a = features(), depths()
    samples = tuple(SamplePair(features(), depths(), 1, 0, 0) for _ in range(n))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _, grads = reg_loss_with_gradients(f_a, d_a, samples,
                                               replace(config, loss_reduction=reduction))
        except DomainError:
            return
    assert np.isfinite(grads).all()


# Holes in a depth map are NaN-marked before anything reads them, so no
# value a hole holds is a depth, and no arithmetic on one warns (pyproject
# turns warnings into errors).

@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), h=st.integers(2, 4), w=st.integers(2, 4),
       n_within=st.integers(0, 3), n_across=st.integers(0, 3),
       config=st.sampled_from([UNIFORM_NYU, MULTI_NYU]))
def test_depth_holes_of_any_value_are_ignored(data, seed, h, w, n_within, n_across, config):
    """Holes of NaN, +-inf or negatives: the oracle's count, and the bits of zero-filled holes."""
    rng = SeedRng(seed)
    items = [(Grid3(rng.normals(h * w * 2).reshape(h, w, 2)),
              checked_depth_map(data, h, w, VALID_NEAR)) for _ in range(3)]
    plain = [(f, Grid1(np.where(d.valid, d.values, 0.0), d.valid)) for f, d in items]
    runs = []
    for pairs in (items, plain):
        batch = Batch(tuple(pairs))
        f_a, d_a = batch.items[0]
        ss = build_sample_set(f_a, d_a, batch, 0, n_within, n_across, SeedRng(seed + 1))
        runs.append((*reg_loss_with_gradients(f_a, d_a, ss, config),
                     oracle_reg_loss(f_a, d_a, ss, config)))
    (got, grads, (want, count)), (zero_filled, zero_filled_grads, _) = runs
    assert got.contributing_count == count == zero_filled.contributing_count
    assert got.total == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert (got.total, got.breakdown) == (zero_filled.total, zero_filled.breakdown)
    assert grads.tobytes() == zero_filled_grads.tobytes()


# Margins and gradient coefficients: the formulations they replaced, kept
# here as references.  Margins were written one range at a time; the
# coefficient was built from an inf-filled reciprocal, negated on positives
# and zeroed off the active pixels.

def margins_by_copyto(labels, ranges):
    m = np.zeros(labels.shape)
    for j, r in enumerate(ranges, start=1):
        np.copyto(m, r.margin, where=labels == j)
    return m


def coefficient_by_negation(labels, dist, m, scale):
    pos, neg = labels == POSITIVE, labels > POSITIVE
    coef = np.full(dist.shape, np.inf)
    np.copyto(coef, dist, where=dist > 0.0)
    np.divide(1.0, coef, out=coef)
    np.multiply(scale, coef, out=coef)
    active = neg & (dist < m)
    np.negative(coef, out=coef, where=pos)
    np.copyto(coef, 0.0, where=~(active | pos))
    return coef


MARGINS = st.sampled_from([0.5, 1.0, 3.0, 4.0, 1e-300, 1e300])


@st.composite
def multi_range_configs(draw):
    """1-4 ranges from r_p = 0.1, each touching its predecessor or after a gap; maybe open-ended."""
    bounds, low = [], 0.1
    for _ in range(draw(st.integers(1, 4))):
        low += draw(st.sampled_from([0.0, 0.25]))  # touching or gapped
        high = low + draw(st.sampled_from([0.5, 1.0]))
        bounds.append((low, high))
        low = high
    if draw(st.booleans()):
        bounds[-1] = (bounds[-1][0], np.inf)
    ranges = tuple(NegativeRange(lo, hi, draw(MARGINS)) for lo, hi in bounds)
    return RegConfig(r_p=0.1, strategy=MultiRange(ranges))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), config=multi_range_configs(),
       reduction=st.sampled_from(["sum", "mean_contributing"]))
def test_margin_lookup_and_coefficient_equal_the_per_range_passes(data, config, reduction):
    """Bit for bit, on labels of every group, with dist = 0 and inf on each group."""
    ranges = config.strategy.ranges
    # one pixel per group and one hole at dist 0, the same at inf, then drawn
    # pixels: group interiors, exact bounds, gaps, beyond the last range, holes
    points = [0.05] + [(r.low + min(r.high, r.low + 1.0)) / 2 for r in ranges] + [np.nan]
    edges = [0.1] + [b for r in ranges for b in (r.low, r.high) if b < np.inf]
    diffs = 2 * points + data.draw(st.lists(
        st.sampled_from(points + edges + [e + 0.1 for e in edges]), max_size=30))
    kinks = [b for r in ranges for b in (np.nextafter(r.margin, 0.0), r.margin,
                                         np.nextafter(r.margin, np.inf))]
    smallest = np.sqrt(5e-324)  # the least non-zero square root reg_loss can take
    dists = [0.0] * len(points) + [np.inf] * len(points) + data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, smallest, np.inf] + kinks), st.floats(smallest, 1e4)),
        min_size=len(diffs) - 2 * len(points), max_size=len(diffs) - 2 * len(points)))
    labels = identify(np.array(diffs).reshape(1, 1, -1), config)
    dist = np.array(dists).reshape(labels.shape)
    assert set(np.unique(labels)) == set(range(-1, len(ranges) + 1))
    count = int(np.count_nonzero(labels >= POSITIVE))
    scale = 1.0 if reduction == "sum" else 1.0 / count

    want_m = margins_by_copyto(labels, ranges)
    m = _margins(labels, ranges, np.empty(labels.shape, np.intp), np.empty(labels.shape))
    assert m.tobytes() == want_m.tobytes()
    want = coefficient_by_negation(labels, dist, want_m, scale)
    coef = _coefficient(dist, m, labels == POSITIVE, scale, np.empty(labels.shape, bool),
                        np.empty(labels.shape))
    assert coef.tobytes() == want.tobytes()


# reg_loss works on channel-planar (N, C, H, W) copies of the samples, and
# sums a pixel's squared channel differences in einsum's order on the
# (H, W, C) layout the step digests were recorded with.

NUMPY_VERSION = "2.4.6"  # the numpy tests/test_step_digest.py pins


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 3), h=st.integers(1, 5),
       w=st.integers(1, 5), c=st.integers(1, 12))
def test_planar_distance_sums_channels_in_einsum_order(seed, n, h, w, c):
    rng = SeedRng(seed)
    size = n * h * w * c
    x = (rng.normals(size) * 10.0 ** np.floor(rng.uniforms(size) * 7 - 3)).reshape(n, h, w, c)
    want = np.einsum("nhwc,nhwc->nhw", x, x)
    planar = np.ascontiguousarray(x.transpose(0, 3, 1, 2))
    got = _squared_distance(planar, np.empty((n, h, w)), np.empty((n, h, w)))
    if c <= 7 and np.__version__ == NUMPY_VERSION:
        assert got.tobytes() == want.tobytes()
    else:  # einsum's 4-way unrolled loop sums C >= 8 channels in another order
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def planar_backed(f: Grid3) -> Grid3:
    """``f``'s values as an (H, W, C) view of (C, H, W) storage, as in the training step."""
    return _view(Grid3, data=np.ascontiguousarray(f.data.transpose(2, 0, 1)).transpose(1, 2, 0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), h=st.integers(2, 5), w=st.integers(2, 5),
       c=st.integers(1, 9), k=st.integers(2, 3), n_within=st.integers(0, 3),
       n_across=st.integers(0, 3), config=st.sampled_from([UNIFORM_NYU, MULTI_NYU]),
       reduction=st.sampled_from(["sum", "mean_contributing"]))
def test_reg_loss_is_independent_of_feature_storage_order(seed, h, w, c, k, n_within, n_across,
                                                          config, reduction):
    rng = SeedRng(seed)
    items = []
    for _ in range(k):
        f = Grid3(rng.normals(h * w * c).reshape(h, w, c))
        valid = rng.uniforms(h * w).reshape(h, w) > 0.2
        items.append((f, Grid1(np.where(valid, rng.uniforms(h * w).reshape(h, w) * 3.0, np.nan),
                               valid)))
    config = replace(config, loss_reduction=reduction)
    results = []
    for wrap in (lambda f: f, planar_backed):
        batch = Batch(tuple((wrap(f), d) for f, d in items))
        f_a, d_a = batch.items[0]
        ss = build_sample_set(f_a, d_a, batch, 0, n_within, n_across, SeedRng(seed + 1))
        results.append(reg_loss_with_gradients(f_a, d_a, ss, config))
    (hwc, hwc_grads), (planar, planar_grads) = results
    assert (planar.total, planar.breakdown, planar.contributing_count) == (
        hwc.total, hwc.breakdown, hwc.contributing_count)
    assert len(planar_grads) == len(hwc_grads) == 1 + n_within + n_across
    assert planar_grads.tobytes() == hwc_grads.tobytes()


class TestSubsumption:
    def test_single_covering_range_equals_uniform(self):
        rng = SeedRng(909)
        uniform = strategy_from_dict({"kind": "uniform", "r_n": 0.5, "m_u": 2.0}, "strategy")
        for _ in range(50):
            f_a, d_a, samples, _ = random_instance(rng, max_h=5, max_w=5)
            for reduction in ("sum", "mean_contributing"):
                uni = RegConfig(r_p=0.2, strategy=uniform, loss_reduction=reduction)
                multi = RegConfig(
                    r_p=0.2,
                    strategy=MultiRange((NegativeRange(0.5, 1e9, 2.0),)),
                    loss_reduction=reduction,
                )
                a, a_grads = reg_loss_with_gradients(f_a, d_a, samples, uni)
                b, b_grads = reg_loss_with_gradients(f_a, d_a, samples, multi)
                assert b.total == pytest.approx(a.total, rel=1e-12, abs=1e-15)
                assert b.contributing_count == a.contributing_count
                np.testing.assert_allclose(b_grads, a_grads, rtol=1e-12, atol=1e-15)


class TestSiLoss:
    def params(self, lam=0.85, alpha=10.0):
        return DepthLossParams(variance_focus=lam, output_scale=alpha)

    def test_perfect_prediction_zero(self):
        gt = Grid1(np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss, grad = si_loss(gt, gt, self.params())
        assert loss == 0.0
        assert (grad == 0).all()

    def test_full_scale_invariance(self):
        gt = Grid1(np.array([[1.0, 2.0], [3.0, 4.0]]))
        pred = Grid1(gt.values * 2.0)
        loss, _ = si_loss(pred, gt, self.params(lam=1.0))
        # the sqrt amplifies variance-cancellation roundoff to ~alpha*sqrt(eps)
        assert abs(loss) < 1e-6

    def test_constant_log_ratio_golden(self):
        # pred = e * gt makes every log difference exactly 1:
        # loss = alpha * sqrt(1 - lam) = 10 * sqrt(0.15)
        gt = Grid1(np.array([[1.0, 2.0], [0.5, 4.0]]))
        pred = Grid1(gt.values * math.e)
        loss, _ = si_loss(pred, gt, self.params())
        assert loss == pytest.approx(10.0 * math.sqrt(0.15), rel=1e-12)
        assert loss == pytest.approx(3.872983346207417, rel=1e-12)

    def test_invalid_and_zero_gt_pixels_excluded(self):
        gt = Grid1(np.array([[1.0, 0.0], [2.0, 5.0]]),
                   np.array([[True, True], [True, False]]))
        pred = Grid1(np.array([[1.0, 3.0], [2.0, 7.0]]))
        loss, grad = si_loss(pred, gt, self.params())
        assert loss == 0.0  # surviving pixels predict exactly
        assert grad[0, 1] == 0.0 and grad[1, 1] == 0.0

    def test_no_valid_pixels(self):
        gt = Grid1(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
        loss, grad = si_loss(Grid1(np.ones((2, 2))), gt, self.params())
        assert loss == 0.0 and (grad == 0).all()

    def test_nonpositive_prediction_rejected(self):
        gt = Grid1(np.ones((1, 2)))
        with pytest.raises(DomainError):
            si_loss(Grid1(np.array([[1.0, 0.0]]), np.array([[True, True]])), gt,
                    self.params())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            si_loss(Grid1(np.ones((1, 2))), Grid1(np.ones((2, 1))), self.params())

