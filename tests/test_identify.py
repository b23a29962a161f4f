import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthreg.errors import InvalidConfig, ShapeError
from depthreg.experiment import strategy_from_dict
from depthreg.grid import Grid1, SeedRng
from depthreg.identify import (
    IGNORED,
    POSITIVE,
    MultiRange,
    NegativeRange,
    RegConfig,
    differential_map,
    identify,
)

NYU_RANGES = MultiRange(
    (NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 1.5, 6.0), NegativeRange(1.5, 2.0, 8.0))
)


def grid(values, valid=None):
    return Grid1(np.asarray(values, dtype=float), valid)


def uniform(r_p, r_n):
    """The uniform strategy read from its config form: positive below r_p, negative above r_n."""
    return RegConfig(r_p=r_p, strategy=strategy_from_dict(
        {"kind": "uniform", "r_n": r_n, "m_u": 1.0}, "regularization.strategy"))


def plane(values, valid=None):
    """The NaN-marked plane of a ``Grid1``: what ``identify`` classifies."""
    return grid(values, valid).plane


class TestDifferentialMap:
    def test_arithmetic(self):
        d = differential_map(grid([[2.0]]), grid([[1.2]]))
        assert d[0, 0] == pytest.approx(0.8)

    def test_identical_maps_give_zero(self):
        a = grid([[1.0, 2.0], [3.0, 4.0]])
        d = differential_map(a, a)
        assert (d == 0).all()

    def test_mask_conjunction(self):
        a = Grid1(np.ones((1, 3)), np.array([[True, True, False]]))
        b = Grid1(np.ones((1, 3)), np.array([[True, False, True]]))
        d = differential_map(a, b)
        assert (d == d).tolist() == [[True, False, False]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            differential_map(grid([[1.0]]), grid([[1.0, 2.0]]))

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        rng = SeedRng(seed)
        a = Grid1(rng.uniforms(12).reshape(3, 4) * 5)
        b = Grid1(rng.uniforms(12).reshape(3, 4) * 5)
        assert np.array_equal(differential_map(a, b), differential_map(b, a))


class TestUniform:
    def test_positive_below_rp(self):
        m = identify(plane([[0.05]]), uniform(0.1, 0.5))
        assert m[0, 0] == POSITIVE

    def test_between_thresholds_ignored(self):
        m = identify(plane([[0.3]]), uniform(0.1, 0.5))
        assert m[0, 0] == IGNORED

    def test_negative_above_rn(self):
        m = identify(plane([[0.7]]), uniform(0.1, 0.5))
        assert m[0, 0] == 1

    def test_boundary_equalities_ignored(self):
        m = identify(plane([[0.1, 0.5]]), uniform(0.1, 0.5))
        assert m.tolist() == [[IGNORED, IGNORED]]

    def test_invalid_pixels_ignored(self):
        m = identify(plane([[0.05]], [[False]]), uniform(0.1, 0.5))
        assert m[0, 0] == IGNORED

    def test_rp_above_rn_rejected(self):
        with pytest.raises(InvalidConfig):
            uniform(0.6, 0.5)


class TestMultiRange:
    def cfg(self):
        return RegConfig(r_p=0.1, strategy=NYU_RANGES)

    def test_nyu_style_grouping(self):
        cfg = RegConfig(
            r_p=0.1,
            strategy=MultiRange((NegativeRange(0.5, 1.0, 5.0), NegativeRange(1.0, 1.5, 9.0))),
        )
        m = identify(plane([[0.8, 1.2, 1.8]]), cfg)
        assert m.tolist() == [[1, 2, IGNORED]]

    def test_gap_below_first_range_ignored(self):
        m = identify(plane([[0.3]]), self.cfg())
        assert m[0, 0] == IGNORED

    def test_range_boundaries_ignored(self):
        m = identify(plane([[0.5, 1.0, 1.5, 2.0]]), self.cfg())
        assert m.tolist() == [[IGNORED] * 4]

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
        got = identify(d_r.plane, uniform(0.1, 0.5))
        assert np.array_equal(got, brute_force_uniform(d_r, 0.1, 0.5))


def test_partition_matches_brute_force_multirange():
    rng = SeedRng(1002)
    cfg = RegConfig(r_p=0.1, strategy=NYU_RANGES)
    for _ in range(200):
        d_r = random_differential_map(rng)
        got = identify(d_r.plane, cfg)
        assert np.array_equal(got, brute_force_multirange(d_r, cfg))


@st.composite
def threshold_configs(draw):
    """A valid config (ranges touching r_p or each other, or not; the last maybe
    open-ended), the differentials on every threshold, between them and beyond,
    and its finite thresholds."""
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
    return cfg, [0.0, r_p / 2] + cuts + between, cuts


@st.composite
def threshold_cases(draw):
    """A config and a map whose valid pixels sit on every threshold, between
    them and beyond, and whose invalid pixels hold NaN, +-inf, negatives or a bound."""
    cfg, on_valid, cuts = draw(threshold_configs())
    on_invalid = st.sampled_from([np.nan, np.inf, -np.inf, -1.0] + cuts)
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    valid = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
    vals = np.array([draw(st.sampled_from(on_valid) if ok else on_invalid) for ok in valid])
    return cfg, Grid1(vals.reshape(h, w), valid.reshape(h, w))


@settings(max_examples=300, deadline=None)
@given(case=threshold_cases())
def test_labels_match_brute_force_on_thresholds_and_bad_invalid_pixels(case):
    cfg, d_r = case
    assert np.array_equal(identify(d_r.plane, cfg), brute_force_multirange(d_r, cfg))
    r_n = cfg.strategy.ranges[0].low  # may equal r_p
    assert np.array_equal(identify(d_r.plane, uniform(cfg.r_p, r_n)),
                          brute_force_uniform(d_r, cfg.r_p, r_n))


def classify_masked(values, valid, r_p, bounds):
    """``identify``'s classifier as it was before differentials were NaN-marked:
    labels of every pixel, holes included, then ``labels *= valid``."""
    labels = np.zeros(values.shape, np.int16)
    later = np.zeros(values.shape, bool)
    test = np.empty(values.shape, bool)
    for low, high in reversed(bounds):
        np.logical_or(np.less(values, high, out=test), later, out=later)
        np.logical_and(later, np.greater(values, low, out=test), out=later)
        labels += later
    labels += np.logical_or(np.less(values, r_p, out=test), later, out=later)
    labels *= valid
    labels += IGNORED
    return labels


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 3), h=st.integers(1, 4), w=st.integers(1, 5),
       holes=st.sampled_from(["drawn", "drawn", "all"]))
def test_nan_marked_labels_equal_the_masked_formulation(data, n, h, w, holes):
    """(N, H, W) differentials, all-NaN ones too, with holes that held a bound,
    an in-range value or a bad one before NaN-marking, and valid pixels on every bound."""
    cfg, on_valid, cuts = data.draw(threshold_configs())
    size = n * h * w
    valid = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), bool)
    if holes == "all":
        valid[:] = False
    in_holes = st.sampled_from(on_valid + [np.nan, np.inf, -np.inf, -1.0])
    values = np.array([data.draw(st.sampled_from(on_valid) if ok else in_holes)
                       for ok in valid]).reshape(n, h, w)
    valid = valid.reshape(n, h, w)
    bounds = [(r.low, r.high) for r in cfg.strategy.ranges]
    labels = identify(np.where(valid, values, np.nan), cfg)
    assert labels.shape == (n, h, w) and not labels.flags.writeable
    assert labels.tobytes() == classify_masked(values, valid, cfg.r_p, bounds).tobytes()


def test_raising_rp_never_creates_negatives():
    rng = SeedRng(1003)
    for _ in range(50):
        d_r = random_differential_map(rng)
        lo = identify(d_r.plane, uniform(0.1, 0.5))
        hi = identify(d_r.plane, uniform(0.3, 0.5))
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
        multi = identify(d_r.plane, cfg)
        uni = identify(d_r.plane, uniform(0.1, 0.5))
        assert np.array_equal(multi, uni)

