import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthreg import losses, sampling
from depthreg.errors import InvalidDimension
from depthreg.grid import Grid1, Grid3, SeedRng, roll_into
from depthreg.identify import NegativeRange, RegConfig
from depthreg.sampling import Batch, SamplePair, build_sample_set
from depthreg.verification import oracle_reg_loss, reg_loss_with_gradients

UNIFORM = (NegativeRange(0.5, np.inf, 2.0),)


def make_pair(seed, h=4, w=5, c=3):
    rng = SeedRng(seed)
    f = Grid3(rng.normals(h * w * c).reshape(h, w, c))
    d = Grid1(rng.uniforms(h * w).reshape(h, w) * 5.0)
    return f, d


def within_samples(f_a, d_a, n_within, rng):
    """The within-samples of ``build_sample_set`` alone, on a batch of the anchor."""
    return sampling.build_sample_set(f_a, d_a, Batch(((f_a, d_a),)), 0, n_within, 0, rng)


def across_samples(batch, anchor_index, n_across, rng):
    """The across-samples of ``build_sample_set`` alone."""
    f_a, d_a = batch.items[anchor_index]
    return sampling.build_sample_set(f_a, d_a, batch, anchor_index, 0, n_across, rng)


def test_within_zero_is_empty():
    f, d = make_pair(1)
    assert len(within_samples(f, d, 0, SeedRng(0))) == 0


def test_within_count_and_provenance():
    f, d = make_pair(2)
    ss = within_samples(f, d, 10, SeedRng(3))
    assert len(ss) == 10
    for p in ss:
        assert p.s_k == 0
        assert 1 <= p.s_h < f.height
        assert 1 <= p.s_w < f.width


def filled(p):
    """A plan entry's (C, H, W) feature, depth and mask maps, rolled by its shift."""
    return tuple(roll_into(a, p.s_h, p.s_w, np.empty_like(a))
                 for a in (p.feature.data.transpose(2, 0, 1), p.depth.values, p.depth.valid))


def test_within_unshift_recovers_anchor_depth():
    f, d = make_pair(4)
    for p in within_samples(f, d, 6, SeedRng(5)):
        _, values, valid = filled(p)
        assert np.array_equal(np.roll(values, (-p.s_h, -p.s_w), axis=(0, 1)), d.values)
        assert np.array_equal(np.roll(valid, (-p.s_h, -p.s_w), axis=(0, 1)), d.valid)


def test_within_locational_consistency():
    # sample depth at i equals anchor depth at the pre-shift source of i,
    # because feature and depth move with the same seeds
    f, d = make_pair(6)
    for p in within_samples(f, d, 5, SeedRng(7)):
        s_h, s_w = p.s_h, p.s_w
        feature, values, _ = filled(p)
        for i in range(d.height):
            for j in range(d.width):
                src = ((i - s_h) % d.height, (j - s_w) % d.width)
                assert values[i, j] == d.values[src]
                assert np.array_equal(feature[:, i, j], f.data[src])


def test_within_needs_2x2():
    rng = SeedRng(0)
    f = Grid3(rng.normals(3).reshape(1, 1, 3))
    d = Grid1(np.ones((1, 1)))
    with pytest.raises(InvalidDimension):
        within_samples(f, d, 1, SeedRng(1))


def test_within_determinism():
    f, d = make_pair(8)
    a = within_samples(f, d, 8, SeedRng(99))
    b = within_samples(f, d, 8, SeedRng(99))
    for pa, pb in zip(a, b):
        assert (pa.s_k, pa.s_h, pa.s_w) == (pb.s_k, pb.s_h, pb.s_w)
        assert np.array_equal(pa.feature.data, pb.feature.data)


class TestAcross:
    def make_batch(self, k, seed=10):
        return Batch(tuple(make_pair(seed + i) for i in range(k)))

    def test_k2_always_the_other(self):
        batch = self.make_batch(2)
        ss = across_samples(batch, 0, 5, SeedRng(1))
        for p in ss:
            assert (p.s_k, p.s_h, p.s_w) == (1, 0, 0)
            assert p.feature is batch.items[1][0]

    def test_never_aliases_anchor(self):
        batch = self.make_batch(8)
        for anchor in range(8):
            for p in across_samples(batch, anchor, 20, SeedRng(anchor)):
                assert p.feature is not batch.items[anchor][0]

    def test_insufficient_batch(self):
        batch = self.make_batch(1)
        with pytest.raises(InvalidDimension):
            across_samples(batch, 0, 2, SeedRng(0))

    def test_zero_from_single_item_batch_ok(self):
        batch = self.make_batch(1)
        assert len(across_samples(batch, 0, 0, SeedRng(0))) == 0

    def test_maps_without_a_shift_take_across_samples_only(self):
        """Shift dimensions are checked only when within-samples are drawn."""
        batch = Batch(tuple(make_pair(seed, h=1, w=3) for seed in (1, 2)))
        assert [p.s_k for p in across_samples(batch, 0, 3, SeedRng(4))] == [1, 1, 1]
        with pytest.raises(InvalidDimension):
            build_sample_set(*batch.items[0], batch, 0, 1, 3, SeedRng(4))


def test_build_sample_set_order_and_counts():
    f, d = make_pair(20)
    batch = Batch(tuple(make_pair(30 + i) for i in range(4)))
    # anchor pair is independent of the batch entries here; shapes agree
    ss = build_sample_set(f, d, batch, 0, 10, 4, SeedRng(5))
    assert len(ss) == 14
    assert all(p.s_k == 0 and p.s_h > 0 and p.s_w > 0 for p in ss[:10])
    assert all(p.s_k > 0 and p.s_h == p.s_w == 0 for p in ss[10:])


def test_build_sample_set_within_only():
    f, d = make_pair(21)
    batch = Batch(((f, d),))
    ss = build_sample_set(f, d, batch, 0, 10, 0, SeedRng(5))
    assert len(ss) == 10


def test_build_sample_set_empty():
    f, d = make_pair(23)
    batch = Batch(((f, d),))
    assert len(build_sample_set(f, d, batch, 0, 0, 0, SeedRng(5))) == 0


def test_build_sample_set_deterministic():
    f, d = make_pair(22)
    batch = Batch(tuple(make_pair(40 + i) for i in range(3)))
    a = build_sample_set(f, d, batch, 1, 4, 3, SeedRng(77))
    b = build_sample_set(f, d, batch, 1, 4, 3, SeedRng(77))
    for pa, pb in zip(a, b):
        assert (pa.s_k, pa.s_h, pa.s_w) == (pb.s_k, pb.s_h, pb.s_w)
        assert np.array_equal(pa.depth.values, pb.depth.values)


# ---------------------------------------------------------------------------
# Within-samples are plan entries: the anchor's grids plus a shift, each a
# window onto the anchor's periodic extension that ``reg_loss`` rolls into
# its buffers.  Oracle and rolled-copy equivalence.
# ---------------------------------------------------------------------------

CONFIGS = [
    RegConfig(r_p=0.2, strategy=UNIFORM, loss_reduction=reduction)
    for reduction in ("sum", "mean_contributing")
] + [
    RegConfig(r_p=0.2, strategy=(NegativeRange(0.5, 1.0, 1.5), NegativeRange(1.0, 2.0, 3.0)),
              loss_reduction=reduction)
    for reduction in ("sum", "mean_contributing")
]


def masked_pair(seed, h, w, c, invalid):
    """Anchor pair whose depth is valid everywhere, on ~30% of pixels or nowhere.

    Invalid entries hold NaN or, on about half of them, a depth in range:
    nothing may read them as depths, and a fill that ignored the mask would
    classify the in-range ones.
    """
    rng = SeedRng(seed)
    f = Grid3(rng.normals(h * w * c).reshape(h, w, c))
    vals = rng.uniforms(h * w).reshape(h, w) * 2.2
    valid = {"none": np.ones((h, w), bool), "partial": rng.uniforms(h * w).reshape(h, w) > 0.3,
             "all": np.zeros((h, w), bool)}[invalid]
    holes = np.where(rng.uniforms(h * w).reshape(h, w) > 0.5, vals, np.nan)
    return f, Grid1(np.where(valid, vals, holes), valid)


def fill_one_row_off(src, s_h, s_w, out):
    """``roll_into`` one row short on the fill's shifts: the mutant of the fill in ``reg_loss``.

    Its routing rolls by the negated shift, which is left as it is.
    """
    return roll_into(src, s_h - 1 if s_h > 0 else s_h, s_w, out)


def rolled_copy(p):
    """``p`` as a zero-shift pair of ``np.roll``ed copies of its grids."""
    def roll(a):
        return np.roll(a, (p.s_h, p.s_w), axis=(0, 1))
    return SamplePair(Grid3(roll(p.feature.data)),
                      Grid1(roll(p.depth.values), roll(p.depth.valid)), p.s_k, 0, 0)


def check_within_against_oracle(seed, h, w, c, n_within, invalid, config):
    f, d = masked_pair(seed, h, w, c, invalid)
    ss = within_samples(f, d, n_within, SeedRng(seed + 1))
    assert len(ss) == n_within
    got, grads = reg_loss_with_gradients(f, d, ss, config)
    want, want_count = oracle_reg_loss(f, d, ss, config)
    assert got.total == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert got.contributing_count == want_count
    # plan entries and rolled copies are the same inputs: same bits out, a
    # copy's gradient in the frame of the copy
    copies, copy_grads = reg_loss_with_gradients(f, d, tuple(rolled_copy(p) for p in ss), config)
    assert copies.total == got.total
    assert copies.contributing_count == got.contributing_count
    assert np.array_equal(copy_grads[0], grads[0])
    for p, g, copy_g in zip(ss, grads[1:], copy_grads[1:]):
        assert np.array_equal(np.roll(copy_g, (-p.s_h, -p.s_w), axis=(1, 2)), g)


WITHIN_CASES = dict(
    seed=st.integers(0, 2**32), h=st.integers(2, 6), w=st.integers(2, 6), c=st.integers(1, 4),
    n_within=st.integers(0, 4), invalid=st.sampled_from(["none", "partial", "all"]),
    config=st.sampled_from(CONFIGS),
)


@settings(max_examples=80, deadline=None)
@given(**WITHIN_CASES)
def test_within_windows_equal_shifts_and_match_oracle(seed, h, w, c, n_within, invalid,
                                                      config):
    check_within_against_oracle(seed, h, w, c, n_within, invalid, config)


@pytest.mark.parametrize("h, w, c", [(2, 2, 1), (3, 5, 2), (8, 8, 6)])
def test_within_window_one_row_off_is_caught(monkeypatch, h, w, c):
    monkeypatch.setattr(losses, "roll_into", fill_one_row_off)
    with pytest.raises(AssertionError):
        check_within_against_oracle(11, h, w, c, 3, "partial", CONFIGS[2])


def test_within_samples_are_the_anchor_grids():
    f, d = make_pair(9)
    for p in within_samples(f, d, 6, SeedRng(1)):
        assert p.feature is f and p.depth is d


def test_reg_loss_leaves_inputs_unchanged():
    f, d = masked_pair(3, 6, 7, 3, "partial")
    batch = Batch((masked_pair(4, 6, 7, 3, "partial"), masked_pair(5, 6, 7, 3, "none")))
    ss = build_sample_set(f, d, batch, 0, 4, 3, SeedRng(2))
    arrays = [f.data, d.values, d.valid] + [
        a for p in ss for a in (p.feature.data, p.depth.values, p.depth.valid)]
    before = [a.tobytes() for a in arrays]
    res, grads = reg_loss_with_gradients(f, d, ss, CONFIGS[3])
    assert res.contributing_count > 0 and grads.any()
    assert [a.tobytes() for a in arrays] == before
