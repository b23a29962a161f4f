"""The training step's reused work arrays: routing, escape and allocation checks.

``batch_objective`` takes its large arrays from one module arena and routes
channel-planar sample gradients back by four quadrant copies and one add
(a plain add at zero shift).  These tests pin that the routing equals the
``np.roll`` it replaced bit for bit, that no arena buffer leaves a step or a
call made without an arena, that only the regularizer makes planar feature
copies, and that a steady-state step allocates little.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthreg.grid import Scratch, SeedRng
from depthreg.identify import MultiRange, NegativeRange, RegConfig
from depthreg.losses import DepthLossParams, reg_loss
from depthreg.sampling import Batch, build_sample_set
from depthreg.toybench import train
from depthreg.toybench.model import ToyModel, model_forward
from depthreg.toybench.scenes import scene_pool
from depthreg.toybench.train import add_unshifted, batch_objective

MULTI = RegConfig(
    r_p=0.1,
    strategy=MultiRange((NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 1.5, 6.0),
                         NegativeRange(1.5, 2.0, 8.0))),
    n_within=10,
    n_across=4,
)


# ---------------------------------------------------------------------------
# Gradient routing: quadrant copies plus one add equal np.roll plus add
# ---------------------------------------------------------------------------

def wrong_sign(acc, g, s_h, s_w):
    """``add_unshifted`` with the shift's sign flipped: the canary's mutant."""
    add_unshifted(acc, g, g.shape[-2] - s_h, g.shape[-1] - s_w)


def check_routing(route, seed, h, w, c, first=1):
    """On (C, H, W) maps ``route`` adds like ``acc += np.roll(g, (-s_h, -s_w))``, bit for bit.

    Shifts run from ``first`` to n - 1 on each axis; ``first=0`` adds the
    zero shifts of across-samples, alone and on one axis.
    """
    rng = SeedRng(seed)
    for s_h in range(first, h):
        for s_w in range(first, w):
            acc = rng.normals(c * h * w).reshape(c, h, w)
            g = rng.normals(c * h * w).reshape(c, h, w)
            want = acc.copy()
            want += np.roll(g, (-s_h, -s_w), axis=(1, 2))
            route(acc, g, s_h, s_w)
            assert acc.tobytes() == want.tobytes(), (s_h, s_w)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), h=st.integers(2, 9), w=st.integers(2, 9),
       c=st.integers(1, 6), first=st.sampled_from([0, 1]))
def test_quadrant_routing_equals_roll(seed, h, w, c, first):
    check_routing(add_unshifted, seed, h, w, c, first)


@pytest.mark.parametrize("h, w, c", [(2, 3, 1), (5, 4, 2), (9, 9, 6)])
def test_routing_with_wrong_shift_sign_is_caught(h, w, c):
    with pytest.raises(AssertionError):
        check_routing(wrong_sign, 3, h, w, c)


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
    scenes = scene_pool(606, 2, 16, 12, 0.5, 10.0)
    model = ToyModel.init(SeedRng(606))
    feats, preds, caches = zip(*(model_forward(model, sc.image) for sc in scenes))
    depths = [sc.depth for sc in scenes]
    ss = build_sample_set(feats[0], depths[0], Batch(tuple(zip(feats, depths))), 0, 3, 1,
                          SeedRng(5))
    res = reg_loss(feats[0], depths[0], ss, MULTI)
    fresh = [f.data for f in feats] + [p.values for p in preds] + [p.valid for p in preds]
    fresh += [a for c in caches for a in (c["h1"], c["h2"], c["f"], c["pred"])]
    fresh += [a for p in ss[:3] for a in (p.feature.data, p.depth.values, p.depth.valid)]
    fresh += [res.grad_anchor.data] + [g.data for g in res.grad_samples]
    for a in fresh:
        assert not any(np.shares_memory(a, buf) for buf in buffers)


def arena_keys(scratch: Scratch) -> set:
    keys = set(scratch._buffers)
    for sub in scratch._children.values():
        keys |= arena_keys(sub)
    return keys


def test_disabled_regularizer_makes_no_planar_feature_copy(monkeypatch):
    """Only the regularizer reads the channel-planar feature copies; a baseline step makes none."""
    for reg_cfg, copied in ((replace(MULTI, strategy=None), False), (MULTI, True)):
        monkeypatch.setattr(train, "_ARENA", Scratch())
        scenes = scene_pool(606, 4, 16, 12, 0.5, 10.0)
        batch_objective(ToyModel.init(SeedRng(606)), scenes, reg_cfg, DepthLossParams(), 1)
        assert ("planar" in arena_keys(train._ARENA)) == copied


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

    The finiteness checks of the wrap tiles and of the (N, H, W, C) sample
    gradients write into arena buffers.  The peak, 0.25 MiB, is the label
    map and the two masks ``identify`` allocates per call; one fresh 344 KB
    bool temporary for the gradient check lifts it to 0.46 MiB, past this
    bound (3/8 MiB).
    """
    assert steady_state_step_peak() <= 3 * 2**17
