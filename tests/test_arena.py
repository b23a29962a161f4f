"""The training step's reused work arrays: routing, escape and allocation checks.

``batch_objective`` takes its large arrays from one module arena and hands
``reg_loss`` its feature-gradient buffers, into which ``reg_loss`` adds each
channel-planar gradient in its grid's own frame: a shifted sample's by one
``roll_into`` back and one add.  These tests pin that routing against
materialized rolled copies bit for bit, that no arena buffer leaves a step
or a call made without an arena, that no step makes a planar feature
copy, that a step without the regularizer fills no feature gradient, and
that a steady-state step allocates little.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthreg import losses
from depthreg.errors import DomainError
from depthreg.grid import Grid1, Grid3, Scratch, SeedRng
from depthreg.identify import NegativeRange, RegConfig
from depthreg.losses import DepthLossParams, reg_loss
from depthreg.sampling import Batch, build_sample_set
from depthreg.toybench import train
from depthreg.toybench.model import ToyModel, model_forward
from depthreg.toybench.scenes import scene_pool
from depthreg.toybench.train import batch_objective
from depthreg.verification import reg_loss_with_gradients
from test_sampling import CONFIGS, masked_pair, rolled_copy

MULTI = RegConfig(
    r_p=0.1,
    strategy=(NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 1.5, 6.0),
              NegativeRange(1.5, 2.0, 8.0)),
    n_within=10,
    n_across=4,
)


# ---------------------------------------------------------------------------
# Gradient routing: reg_loss adds each gradient in its grid's own frame
# ---------------------------------------------------------------------------

def routed_further_on(roll_into):
    """``roll_into`` with negative shifts made positive: the canary's mutant.

    ``reg_loss`` rolls a sample's maps in by its shift, at least 1 on each
    axis, and its gradient back by the negated shift; this rolls the
    gradient further on instead.
    """
    return lambda src, s_h, s_w, out: roll_into(src, abs(s_h), abs(s_w), out)


def seeded(shape, seed):
    """Finite, non-zero accumulator values."""
    x = SeedRng(seed).normals(int(np.prod(shape))).reshape(shape)
    x[x == 0.0] = 1.0
    return x


def check_routing(seed, h, w, c, n_within=3, n_across=1, invalid="partial"):
    """``reg_loss`` on plan entries against materialized rolled copies, bit for bit.

    A within-sample's accumulated gradient is the copy's rolled back by
    ``(-s_h, -s_w)``; the anchor's and an across-sample's are the copy's.
    Accumulators seeded with other values end at seed plus that result.
    """
    items = (masked_pair(seed, h, w, c, invalid), masked_pair(seed + 1, h, w, c, "partial"))
    f, d = items[0]
    ss = build_sample_set(f, d, Batch(items), 0, n_within, n_across, SeedRng(seed + 2))
    got, grads = reg_loss_with_gradients(f, d, ss, CONFIGS[3])
    copies, copy_grads = reg_loss_with_gradients(f, d, tuple(map(rolled_copy, ss)), CONFIGS[3])
    assert got == copies
    assert grads[0].tobytes() == copy_grads[0].tobytes()
    for p, g, copy_g in zip(ss, grads[1:], copy_grads[1:]):
        assert g.tobytes() == np.roll(copy_g, (-p.s_h, -p.s_w), axis=(1, 2)).tobytes(), p

    acc = seeded(grads.shape, seed + 3)
    want = acc + grads
    reg_loss(f, d, ss, CONFIGS[3], acc[0], acc[1:])
    assert acc.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), h=st.integers(2, 9), w=st.integers(2, 9),
       c=st.integers(1, 6), n_within=st.integers(0, 4), n_across=st.integers(0, 2),
       invalid=st.sampled_from(["none", "partial", "all"]))
@example(seed=1, h=2, w=3, c=1, n_within=4, n_across=1, invalid="partial")
def test_reg_loss_adds_each_gradient_in_its_grids_frame(seed, h, w, c, n_within, n_across,
                                                        invalid):
    check_routing(seed, h, w, c, n_within, n_across, invalid)


@pytest.mark.parametrize("h, w, c", [(2, 3, 1), (5, 4, 2), (9, 9, 6)])
def test_routing_with_wrong_shift_sign_is_caught(monkeypatch, h, w, c):
    monkeypatch.setattr(losses, "roll_into", routed_further_on(losses.roll_into))
    with pytest.raises(AssertionError):
        check_routing(3, h, w, c)


def overflowing_pair(h, w, c, value):
    return Grid3(np.full((h, w, c), value)), Grid1(np.full((h, w), 2.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), h=st.integers(2, 5), w=st.integers(2, 5),
       c=st.integers(1, 3), case=st.sampled_from(["no samples", "all invalid", "overflow"]))
@example(seed=1, h=2, w=2, c=1, case="no samples")
@example(seed=1, h=2, w=2, c=1, case="all invalid")
@example(seed=1, h=2, w=2, c=1, case="overflow")
def test_reg_loss_without_a_finite_gradient_adds_nothing(seed, h, w, c, case):
    """No samples, all-invalid masks and an overflowing gradient leave every accumulator alone."""
    if case == "overflow":  # +-1e308 differ by inf: a positive pair's gradient is NaN
        items = (overflowing_pair(h, w, c, 1e308), overflowing_pair(h, w, c, -1e308))
    else:
        invalid = "all" if case == "all invalid" else "partial"
        items = (masked_pair(seed, h, w, c, invalid), masked_pair(seed + 1, h, w, c, "partial"))
    f, d = items[0]
    n = 0 if case == "no samples" else 3
    ss = build_sample_set(f, d, Batch(items), 0, n, min(n, 1), SeedRng(seed + 2))
    acc = seeded((len(ss) + 1, c, h, w), seed + 3)
    before = acc.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            res = reg_loss(f, d, ss, CONFIGS[3], acc[0], acc[1:])
        except DomainError:
            assert case == "overflow"
        else:
            assert case != "overflow" and res.total == 0.0
    assert acc.tobytes() == before


# ---------------------------------------------------------------------------
# No arena buffer escapes
# ---------------------------------------------------------------------------

def arena_arrays(scratch: Scratch) -> list:
    out = list(scratch._buffers.values())
    for sub in scratch._children.values():
        out += arena_arrays(sub)
    return out


def step(scene_seed, sample_seed, h=16, w=12):
    scenes = scene_pool(scene_seed, 4, h, w, 0.5, 10.0)
    model = ToyModel.init(SeedRng(scene_seed))
    model = model.with_params(model.param_vector() + 0.01 * SeedRng(1).normals(model.param_count))
    return batch_objective(model, scenes, MULTI, DepthLossParams(), sample_seed)


def test_steps_return_fresh_arrays_and_repeat_bit_for_bit():
    a1 = step(606, 2026)
    grad_a1 = a1[4].tobytes()
    b = step(707, 99)
    a2 = step(606, 2026)
    assert a1[4].tobytes() == grad_a1  # B and the repeat of A left A's gradient alone
    assert a2[:4] == a1[:4] and a2[5] == a1[5]
    assert a2[4].tobytes() == a1[4].tobytes()
    assert b[4].tobytes() != a1[4].tobytes()
    buffers = arena_arrays(train._ARENA)
    assert buffers
    for grad in (a1[4], b[4], a2[4]):
        assert not any(np.shares_memory(grad, buf) for buf in buffers)


def test_calls_without_scratch_share_nothing_with_the_arena():
    step(606, 2026)
    buffers = arena_arrays(train._ARENA)
    before = [buf.tobytes() for buf in buffers]
    scenes = scene_pool(606, 2, 16, 12, 0.5, 10.0)
    model = ToyModel.init(SeedRng(606))
    feats, preds, caches = zip(*(model_forward(model, sc.image) for sc in scenes))
    depths = [sc.depth for sc in scenes]
    ss = build_sample_set(feats[0], depths[0], Batch(tuple(zip(feats, depths))), 0, 3, 1,
                          SeedRng(5))
    reg_loss_with_gradients(feats[0], depths[0], ss, MULTI)
    assert [buf.tobytes() for buf in buffers] == before
    fresh = [f.data for f in feats] + list(preds)
    fresh += [a for c in caches for a in (c["h1"], c["h2"], c["f"], c["pred"])]
    fresh += [a for p in ss[:3] for a in (p.feature.data, p.depth.values, p.depth.valid)]
    for a in fresh:
        assert not any(np.shares_memory(a, buf) for buf in buffers)


def arena_keys(scratch: Scratch) -> set:
    keys = set(scratch._buffers)
    for sub in scratch._children.values():
        keys |= arena_keys(sub)
    return keys


def test_disabled_regularizer_makes_no_planar_feature_copy(monkeypatch):
    """No step copies its features: the model's own planar block is what the regularizer reads."""
    for reg_cfg in (replace(MULTI, strategy=None), MULTI):
        monkeypatch.setattr(train, "_ARENA", Scratch())
        scenes = scene_pool(606, 4, 16, 12, 0.5, 10.0)
        batch_objective(ToyModel.init(SeedRng(606)), scenes, reg_cfg, DepthLossParams(), 1)
        assert "planar" not in arena_keys(train._ARENA)


def test_disabled_regularizer_fills_no_feature_gradient(monkeypatch):
    """Without the regularizer every item's feature gradient is one read-only zero view."""
    monkeypatch.setattr(train, "_ARENA", Scratch())
    seen = []
    monkeypatch.setattr(train, "model_backward",
                        lambda m, cache, d_feat, *rest: seen.append(d_feat) or np.zeros(1))
    scenes = scene_pool(606, 4, 16, 12, 0.5, 10.0)
    batch_objective(ToyModel.init(SeedRng(606)), scenes, replace(MULTI, strategy=None),
                    DepthLossParams(), 1)
    assert "d_feat" not in arena_keys(train._ARENA)
    assert len(seen) == 4
    for d_feat in seen:
        assert d_feat.shape == (6, 16, 12) and not d_feat.flags.writeable
        assert not np.any(d_feat) and not np.any(np.signbit(d_feat))


# ---------------------------------------------------------------------------
# A steady-state step allocates little
# ---------------------------------------------------------------------------

def steady_state_step_peak() -> int:
    """Bytes a 64x64 multi-range step's traced peak rises above its start, after three warm-ups."""
    scenes = scene_pool(606, 4, 64, 64, 0.5, 10.0)
    model = ToyModel.init(SeedRng(7))
    for seed in range(3):
        batch_objective(model, scenes, MULTI, DepthLossParams(), seed)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batch_objective(model, scenes, MULTI, DepthLossParams(), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start


def test_steady_state_step_allocates_under_2_mib():
    """Without the arena the step's arrays peak near 16 MiB above the start."""
    assert steady_state_step_peak() <= 2 * 2**20


def test_steady_state_step_allocates_no_step_sized_temporary():
    """Nor does a step make one new array the size of its gradient buffer.

    Shifted samples are rolled into arena buffers, unshifted ones read in
    place, and the anchor gradient's finiteness check covers the sample
    gradients without a temporary of their size.  The peak, 0.25 MiB, is
    the label map and the two masks ``identify`` allocates per call; one
    fresh 344 KB bool temporary for the gradient check lifts it to 0.46 MiB,
    past this bound (3/8 MiB).
    """
    assert steady_state_step_peak() <= 3 * 2**17
