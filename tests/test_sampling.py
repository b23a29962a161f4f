import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthreg import sampling
from depthreg.errors import InsufficientBatch, InvalidDimension
from depthreg.grid import Grid1, Grid3, SeedRng, _view, gen_shift_seed, shift2d_g1, shift2d_g3
from depthreg.identify import MultiRange, NegativeRange, RegConfig, Uniform
from depthreg.losses import reg_loss
from depthreg.sampling import (
    Batch,
    SamplePair,
    build_sample_set,
    collect_across,
    collect_within,
)
from depthreg.verification import oracle_reg_loss


def make_pair(seed, h=4, w=5, c=3):
    rng = SeedRng(seed)
    f = Grid3(rng.normals(h * w * c).reshape(h, w, c))
    d = Grid1(rng.uniforms(h * w).reshape(h, w) * 5.0)
    return f, d


def test_within_zero_is_empty():
    f, d = make_pair(1)
    assert len(collect_within(f, d, 0, SeedRng(0))) == 0


def test_within_count_and_provenance():
    f, d = make_pair(2)
    ss = collect_within(f, d, 10, SeedRng(3))
    assert len(ss) == 10
    for p in ss:
        assert p.s_k == 0
        assert 1 <= p.s_h < f.height
        assert 1 <= p.s_w < f.width


def test_within_unshift_recovers_anchor_depth():
    f, d = make_pair(4)
    for p in collect_within(f, d, 6, SeedRng(5)):
        h, w = d.height, d.width
        back = shift2d_g1(p.depth, (h - p.s_h) % h, (w - p.s_w) % w)
        assert np.array_equal(back.values, d.values)
        assert np.array_equal(back.valid, d.valid)


def test_within_locational_consistency():
    # sample depth at i equals anchor depth at the pre-shift source of i,
    # because feature and depth moved with the same seeds
    f, d = make_pair(6)
    for p in collect_within(f, d, 5, SeedRng(7)):
        s_h, s_w = p.s_h, p.s_w
        for i in range(d.height):
            for j in range(d.width):
                src = ((i - s_h) % d.height, (j - s_w) % d.width)
                assert p.depth.values[i, j] == d.values[src]
                assert np.array_equal(p.feature.data[i, j], f.data[src])


def test_within_needs_2x2():
    rng = SeedRng(0)
    f = Grid3(rng.normals(3).reshape(1, 1, 3))
    d = Grid1(np.ones((1, 1)))
    with pytest.raises(InvalidDimension):
        collect_within(f, d, 1, SeedRng(1))


def test_within_determinism():
    f, d = make_pair(8)
    a = collect_within(f, d, 8, SeedRng(99))
    b = collect_within(f, d, 8, SeedRng(99))
    for pa, pb in zip(a, b):
        assert (pa.s_k, pa.s_h, pa.s_w) == (pb.s_k, pb.s_h, pb.s_w)
        assert np.array_equal(pa.feature.data, pb.feature.data)


class TestAcross:
    def make_batch(self, k, seed=10):
        return Batch(tuple(make_pair(seed + i) for i in range(k)))

    def test_k2_always_the_other(self):
        batch = self.make_batch(2)
        ss = collect_across(batch, 0, 5, SeedRng(1))
        for p in ss:
            assert (p.s_k, p.s_h, p.s_w) == (1, 0, 0)
            assert p.feature is batch.items[1][0]

    def test_never_aliases_anchor(self):
        batch = self.make_batch(8)
        for anchor in range(8):
            for p in collect_across(batch, anchor, 20, SeedRng(anchor)):
                assert p.feature is not batch.items[anchor][0]

    def test_insufficient_batch(self):
        batch = self.make_batch(1)
        with pytest.raises(InsufficientBatch):
            collect_across(batch, 0, 2, SeedRng(0))

    def test_zero_from_single_item_batch_ok(self):
        batch = self.make_batch(1)
        assert len(collect_across(batch, 0, 0, SeedRng(0))) == 0


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
# Within-samples are windows into a wrap tile: oracle equivalence
# ---------------------------------------------------------------------------

CONFIGS = [
    RegConfig(r_p=0.2, strategy=Uniform(r_n=0.5, m_u=2.0), loss_reduction=reduction)
    for reduction in ("sum", "mean_contributing")
] + [
    RegConfig(r_p=0.2, strategy=MultiRange((NegativeRange(0.5, 1.0, 1.5),
                                            NegativeRange(1.0, 2.0, 3.0))),
              loss_reduction=reduction)
    for reduction in ("sum", "mean_contributing")
]


def masked_pair(seed, h, w, c, invalid):
    """Anchor pair whose depth is valid everywhere, on ~30% of pixels or nowhere.

    Invalid entries hold NaN: nothing may read them as depths.
    """
    rng = SeedRng(seed)
    f = Grid3(rng.normals(h * w * c).reshape(h, w, c))
    vals = rng.uniforms(h * w).reshape(h, w) * 2.2
    valid = {"none": np.ones((h, w), bool), "partial": rng.uniforms(h * w).reshape(h, w) > 0.3,
             "all": np.zeros((h, w), bool)}[invalid]
    return f, Grid1(np.where(valid, vals, np.nan), valid)


def windows_one_row_off(f_a, d_a, n_within, rng):
    """``collect_within`` with every window one row too low: the canary's mutant."""
    h, w = f_a.height, f_a.width
    ft, dt, mt = (sampling._wrap_tile(a, None, "")
                  for a in (f_a.data.transpose(2, 0, 1), d_a.values, d_a.valid))
    pairs = []
    for _ in range(n_within):
        s_h, s_w = gen_shift_seed(rng, h), gen_shift_seed(rng, w)
        rows, cols = slice(h - s_h + 1, 2 * h - s_h + 1), slice(w - s_w, 2 * w - s_w)
        pairs.append(SamplePair(_view(Grid3, data=ft[:, rows, cols].transpose(1, 2, 0)),
                                _view(Grid1, values=dt[rows, cols], valid=mt[rows, cols]),
                                0, s_h, s_w))
    return tuple(pairs)


def read_only(a):
    return not a.flags.writeable and (a.base is None or not a.base.flags.writeable)


def check_within_against_oracle(collect, seed, h, w, c, n_within, invalid, config):
    f, d = masked_pair(seed, h, w, c, invalid)
    ss = collect(f, d, n_within, SeedRng(seed + 1))
    assert len(ss) == n_within
    rolled = []
    for p in ss:
        s_h, s_w = p.s_h, p.s_w
        want_f, want_d = shift2d_g3(f, s_h, s_w), shift2d_g1(d, s_h, s_w)
        assert np.array_equal(p.feature.data, want_f.data)
        assert np.array_equal(p.depth.values, want_d.values, equal_nan=True)
        assert np.array_equal(p.depth.valid, want_d.valid)
        assert all(read_only(a) for a in (p.feature.data, p.depth.values, p.depth.valid))
        rolled.append(SamplePair(want_f, want_d, p.s_k, s_h, s_w))
    got = reg_loss(f, d, ss, config)
    want, want_count = oracle_reg_loss(f, d, ss, config)
    assert got.total == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert got.contributing_count == want_count
    # windows and rolled copies are the same inputs: same bits out
    copies = reg_loss(f, d, tuple(rolled), config)
    assert copies.total == got.total
    assert np.array_equal(copies.grad_anchor.data, got.grad_anchor.data)
    for a, b in zip(copies.grad_samples, got.grad_samples):
        assert np.array_equal(a.data, b.data)


WITHIN_CASES = dict(
    seed=st.integers(0, 2**32), h=st.integers(2, 6), w=st.integers(2, 6), c=st.integers(1, 4),
    n_within=st.integers(0, 4), invalid=st.sampled_from(["none", "partial", "all"]),
    config=st.sampled_from(CONFIGS),
)


@settings(max_examples=80, deadline=None)
@given(**WITHIN_CASES)
def test_within_windows_equal_shifts_and_match_oracle(seed, h, w, c, n_within, invalid,
                                                      config):
    check_within_against_oracle(collect_within, seed, h, w, c, n_within, invalid, config)


@pytest.mark.parametrize("h, w, c", [(2, 2, 1), (3, 5, 2), (8, 8, 6)])
def test_within_window_one_row_off_is_caught(h, w, c):
    with pytest.raises(AssertionError):
        check_within_against_oracle(windows_one_row_off, 11, h, w, c, 3, "partial",
                                    CONFIGS[2])


def test_within_windows_share_one_tile():
    f, d = make_pair(9)
    ss = collect_within(f, d, 6, SeedRng(1))
    for p in ss:
        assert np.shares_memory(p.feature.data, ss[0].feature.data)
        assert not np.shares_memory(p.feature.data, f.data)


def test_reg_loss_leaves_inputs_unchanged_and_gradients_read_only():
    f, d = masked_pair(3, 6, 7, 3, "partial")
    batch = Batch((masked_pair(4, 6, 7, 3, "partial"), masked_pair(5, 6, 7, 3, "none")))
    ss = build_sample_set(f, d, batch, 0, 4, 3, SeedRng(2))
    arrays = [f.data, d.values, d.valid] + [
        a for p in ss for a in (p.feature.data, p.depth.values, p.depth.valid)]
    before = [a.tobytes() for a in arrays]
    res = reg_loss(f, d, ss, CONFIGS[3])
    assert res.contributing_count > 0
    assert [a.tobytes() for a in arrays] == before
    grads = (res.grad_anchor,) + res.grad_samples
    assert len(grads) == 1 + len(ss)
    assert all(read_only(g.data) for g in grads)
    with pytest.raises(ValueError):
        res.grad_samples[0].data[0, 0, 0] = 1.0


# The wrap tiles are copies of the checked anchor and their windows are
# wrapped unchecked, so a tile that is not an exact copy is caught only by
# comparing the windows with rolled copies.  The mutant writes a bad entry
# into the tile at (h, w), a pixel every window reads, on an all-valid anchor
# (channel 0 of the (C, 2H, 2W) feature tile).
@pytest.mark.parametrize("key, bad", [("tile_f", np.nan), ("tile_f", -np.inf),
                                      ("tile_d", np.nan), ("tile_d", -1.0),
                                      ("tile_d", np.inf)])
def test_bad_entry_written_into_a_wrap_tile_is_caught(monkeypatch, key, bad):
    wrap = sampling._wrap_tile

    def spoiled(a, scratch, tile_key):
        t = wrap(a, scratch, tile_key)
        if tile_key == key:
            t = t.copy()
            h, w = t.shape[-2] // 2, t.shape[-1] // 2
            t[(0,) * (t.ndim - 2) + (h, w)] = bad
            t.setflags(write=False)
        return t

    monkeypatch.setattr(sampling, "_wrap_tile", spoiled)
    with pytest.raises(AssertionError):
        check_within_against_oracle(collect_within, 13, 5, 6, 2, 3, "none", CONFIGS[2])
