import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthreg.errors import InvalidConfig, ShapeError
from depthreg.grid import Grid1, SeedRng
from depthreg.identify import (
    IGNORED,
    POSITIVE,
    MultiRange,
    NegativeRange,
    RegConfig,
    Uniform,
    differential_map,
    identify,
    identify_multirange,
    identify_uniform,
)

NYU_RANGES = MultiRange(
    (NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 1.5, 6.0), NegativeRange(1.5, 2.0, 8.0))
)


def grid(values, valid=None):
    return Grid1(np.asarray(values, dtype=float), valid)


class TestDifferentialMap:
    def test_arithmetic(self):
        d = differential_map(grid([[2.0]]), grid([[1.2]]))
        assert d.values[0, 0] == pytest.approx(0.8)

    def test_identical_maps_give_zero(self):
        a = grid([[1.0, 2.0], [3.0, 4.0]])
        d = differential_map(a, a)
        assert (d.values == 0).all()

    def test_mask_conjunction(self):
        a = Grid1(np.ones((1, 2)), np.array([[True, True]]))
        b = Grid1(np.ones((1, 2)), np.array([[True, False]]))
        d = differential_map(a, b)
        assert d.valid.tolist() == [[True, False]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            differential_map(grid([[1.0]]), grid([[1.0, 2.0]]))

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        rng = SeedRng(seed)
        a = Grid1(rng.uniforms(12).reshape(3, 4) * 5)
        b = Grid1(rng.uniforms(12).reshape(3, 4) * 5)
        assert np.array_equal(differential_map(a, b).values,
                              differential_map(b, a).values)


class TestUniform:
    def test_positive_below_rp(self):
        m = identify_uniform(grid([[0.05]]), 0.1, 0.5)
        assert m.labels[0, 0] == POSITIVE

    def test_between_thresholds_ignored(self):
        m = identify_uniform(grid([[0.3]]), 0.1, 0.5)
        assert m.labels[0, 0] == IGNORED

    def test_negative_above_rn(self):
        m = identify_uniform(grid([[0.7]]), 0.1, 0.5)
        assert m.labels[0, 0] == 1

    def test_boundary_equalities_ignored(self):
        m = identify_uniform(grid([[0.1, 0.5]]), 0.1, 0.5)
        assert m.labels.tolist() == [[IGNORED, IGNORED]]

    def test_invalid_pixels_ignored(self):
        m = identify_uniform(Grid1(np.array([[0.05]]), np.array([[False]])), 0.1, 0.5)
        assert m.labels[0, 0] == IGNORED

    def test_rp_above_rn_rejected(self):
        with pytest.raises(InvalidConfig):
            identify_uniform(grid([[0.0]]), 0.6, 0.5)


class TestMultiRange:
    def cfg(self):
        return RegConfig(r_p=0.1, strategy=NYU_RANGES)

    def test_nyu_style_grouping(self):
        cfg = RegConfig(
            r_p=0.1,
            strategy=MultiRange((NegativeRange(0.5, 1.0, 5.0), NegativeRange(1.0, 1.5, 9.0))),
        )
        m = identify_multirange(grid([[0.8, 1.2, 1.8]]), cfg)
        assert m.labels.tolist() == [[1, 2, IGNORED]]

    def test_gap_below_first_range_ignored(self):
        m = identify_multirange(grid([[0.3]]), self.cfg())
        assert m.labels[0, 0] == IGNORED

    def test_range_boundaries_ignored(self):
        m = identify_multirange(grid([[0.5, 1.0, 1.5, 2.0]]), self.cfg())
        assert m.labels.tolist() == [[IGNORED] * 4]

    def test_invalid_ranges_rejected(self):
        with pytest.raises(InvalidConfig):
            MultiRange_bad = MultiRange((NegativeRange(1.0, 0.5, 1.0),))
            RegConfig(r_p=0.1, strategy=MultiRange_bad)
        with pytest.raises(InvalidConfig):
            RegConfig(r_p=0.1, strategy=MultiRange(()))
        with pytest.raises(InvalidConfig):
            # overlap
            RegConfig(r_p=0.1, strategy=MultiRange(
                (NegativeRange(0.5, 1.2, 1.0), NegativeRange(1.0, 1.5, 2.0))))
        with pytest.raises(InvalidConfig):
            # first lower bound below r_p
            RegConfig(r_p=0.6, strategy=MultiRange((NegativeRange(0.5, 1.0, 1.0),)))


def brute_force_uniform(d_r, r_p, r_n):
    h, w = d_r.height, d_r.width
    out = np.empty((h, w), dtype=int)
    for i in range(h):
        for j in range(w):
            v = d_r.values[i, j]
            if not d_r.valid[i, j]:
                out[i, j] = IGNORED
            elif v < r_p:
                out[i, j] = POSITIVE
            elif v > r_n:
                out[i, j] = 1
            else:
                out[i, j] = IGNORED
    return out


def brute_force_multirange(d_r, cfg):
    h, w = d_r.height, d_r.width
    out = np.empty((h, w), dtype=int)
    for i in range(h):
        for j in range(w):
            v = d_r.values[i, j]
            if not d_r.valid[i, j]:
                out[i, j] = IGNORED
            elif v < cfg.r_p:
                out[i, j] = POSITIVE
            else:
                out[i, j] = IGNORED
                for g, r in enumerate(cfg.strategy.ranges, start=1):
                    if r.low < v < r.high:
                        out[i, j] = g
                        break
    return out


def random_differential_map(rng, h=8, w=8):
    """Random map salted with exact boundary values."""
    vals = rng.uniforms(h * w).reshape(h, w) * 2.4
    boundaries = np.array([0.1, 0.5, 1.0, 1.5, 2.0])
    picks = (rng.uniforms(h * w).reshape(h, w) * 5).astype(int)
    use_boundary = rng.uniforms(h * w).reshape(h, w) < 0.2
    vals = np.where(use_boundary, boundaries[picks], vals)
    valid = rng.uniforms(h * w).reshape(h, w) > 0.08
    return Grid1(vals, valid)


def test_partition_matches_brute_force_uniform():
    rng = SeedRng(1001)
    for _ in range(200):
        d_r = random_differential_map(rng)
        got = identify_uniform(d_r, 0.1, 0.5).labels
        assert np.array_equal(got, brute_force_uniform(d_r, 0.1, 0.5))


def test_partition_matches_brute_force_multirange():
    rng = SeedRng(1002)
    cfg = RegConfig(r_p=0.1, strategy=NYU_RANGES)
    for _ in range(200):
        d_r = random_differential_map(rng)
        got = identify_multirange(d_r, cfg).labels
        assert np.array_equal(got, brute_force_multirange(d_r, cfg))


@st.composite
def threshold_cases(draw):
    """A valid config (ranges touching r_p or each other, or not; the last maybe
    open-ended) and a map whose valid pixels sit on every threshold, between
    them and beyond, and whose invalid pixels hold NaN, +-inf or negatives."""
    r_p = draw(st.sampled_from([0.1, 0.25, 1.0]))
    ranges, edge = [], r_p
    for _ in range(draw(st.integers(1, 4))):
        low = edge + draw(st.sampled_from([0.0, 0.2, 0.5]))
        edge = low + draw(st.sampled_from([0.1, 0.5, 1.0]))
        ranges.append(NegativeRange(low, edge, 1.0))
    if draw(st.booleans()):
        ranges[-1] = NegativeRange(ranges[-1].low, np.inf, 1.0)
    cfg = RegConfig(r_p=r_p, strategy=MultiRange(tuple(ranges)))
    cuts = sorted({r_p} | {b for r in ranges for b in (r.low, r.high) if np.isfinite(b)})
    between = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + [cuts[-1] + 1.0, 1e300]
    on_valid = st.sampled_from([0.0, r_p / 2] + cuts + between)
    on_invalid = st.sampled_from([np.nan, np.inf, -np.inf, -1.0] + cuts)
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    valid = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
    vals = np.array([draw(on_valid if ok else on_invalid) for ok in valid])
    return cfg, Grid1(vals.reshape(h, w), valid.reshape(h, w))


@settings(max_examples=300, deadline=None)
@given(case=threshold_cases())
def test_labels_match_brute_force_on_thresholds_and_bad_invalid_pixels(case):
    cfg, d_r = case
    assert np.array_equal(identify(d_r, cfg).labels, brute_force_multirange(d_r, cfg))
    r_n = cfg.strategy.ranges[0].low  # may equal r_p
    assert np.array_equal(identify_uniform(d_r, cfg.r_p, r_n).labels,
                          brute_force_uniform(d_r, cfg.r_p, r_n))


def test_raising_rp_never_creates_negatives():
    rng = SeedRng(1003)
    for _ in range(50):
        d_r = random_differential_map(rng)
        lo = identify_uniform(d_r, 0.1, 0.5).labels
        hi = identify_uniform(d_r, 0.3, 0.5).labels
        was_positive = lo == POSITIVE
        assert not np.any(hi[was_positive] > 0)
        # negatives are untouched by r_p
        assert np.array_equal(lo > 0, hi > 0)


def test_single_range_subsumes_uniform_classification():
    rng = SeedRng(1004)
    bound = 100.0  # beyond every differential in these maps
    cfg = RegConfig(r_p=0.1, strategy=MultiRange((NegativeRange(0.5, bound, 1.0),)))
    for _ in range(50):
        d_r = random_differential_map(rng)
        multi = identify_multirange(d_r, cfg).labels
        uni = identify_uniform(d_r, 0.1, 0.5).labels
        assert np.array_equal(multi, uni)

