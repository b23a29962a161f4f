"""Mutation canaries: every check in the table catches the bug it guards against.

Each row of ``CANARIES`` is a target (a module and the name of one of its
attributes), a mutant (a function of the original attribute returning its
corrupted replacement) and a guard (a check or test of the suite, called
without arguments).  The guard must pass on the real code and fail once
the mutant is patched in.  Code under check looks its target up in that
module at call time, so the patch reaches it.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import test_losses
import test_sampling
import test_verification
from depthreg import losses, sampling, verification
from depthreg.grid import Grid1, Grid3, _view
from depthreg.identify import MultiRange
from depthreg.toybench import train


def classifier_threshold_high(oracle_reg_loss):
    """The oracle with its positive threshold 10% too high."""
    def mutant(f_a, d_a, samples, config):
        return oracle_reg_loss(f_a, d_a, samples, replace(config, r_p=config.r_p * 1.1))
    return mutant


def hinge_sign_flipped(reg_loss):
    """``reg_loss`` with the negative pairs' share of every gradient sign-flipped.

    Margins too small to activate a hinge leave the positives' gradients
    alone (classification and the reduction scale are unchanged), so
    ``2 * positive - full`` flips the negatives' share.
    """
    def mutant(f_a, d_a, samples, config, scratch=None):
        res = reg_loss(f_a, d_a, samples, config)
        tiny = MultiRange(tuple(replace(r, margin=1e-300) for r in config.strategy.ranges))
        pos = reg_loss(f_a, d_a, samples, replace(config, strategy=tiny))
        return replace(res, grad_anchor=2.0 * pos.grad_anchor - res.grad_anchor,
                       grad_samples=2.0 * pos.grad_samples - res.grad_samples)
    return mutant


def shift_sign_flipped(add_unshifted):
    """Routing that rolls a sample's gradient further on instead of back."""
    def mutant(acc, g, s_h, s_w, scratch=None):
        h, w = g.shape[-2:]
        add_unshifted(acc, g, (h - s_h) % h, (w - s_w) % w, scratch)
    return mutant


def windows_one_row_low(build_sample_set):
    """Sampling whose within-sample windows start one tile row too low."""
    def roll(a):
        return np.roll(a, -1, axis=0)

    def mutant(*args, **kwargs):
        return tuple(p if p.s_k else replace(
            p, feature=_view(Grid3, data=roll(p.feature.data)),
            depth=_view(Grid1, values=roll(p.depth.values), valid=roll(p.depth.valid)))
            for p in build_sample_set(*args, **kwargs))
    return mutant


def depth_tile_spoiled(wrap_tile):
    """Wrap tiles whose depth tile holds a negative depth at (h, w), a pixel every window reads."""
    def mutant(a, scratch, key):
        t = wrap_tile(a, scratch, key)
        if key == "tile_d":
            t = t.copy()
            t[t.shape[0] // 2, t.shape[1] // 2] = -1.0
            t.setflags(write=False)
        return t
    return mutant


def does_nothing(check):
    return lambda *args: None


CANARIES = [
    pytest.param((verification, "oracle_reg_loss"), classifier_threshold_high,
                 test_verification.test_regloss_oracle_passes, id="classifier"),
    pytest.param((verification, "reg_loss"), hinge_sign_flipped,
                 test_verification.test_regloss_gradcheck_passes, id="hinge-sign"),
    pytest.param((train, "add_unshifted"), shift_sign_flipped,
                 test_verification.test_model_gradcheck_passes, id="routing-shift-sign"),
    pytest.param((train, "build_sample_set"), windows_one_row_low,
                 test_verification.test_model_gradcheck_passes, id="window-one-row-off"),
    pytest.param((sampling, "_wrap_tile"), depth_tile_spoiled,
                 partial(test_sampling.check_within_against_oracle, test_sampling.within_samples,
                         13, 5, 6, 2, 3, "none", test_sampling.CONFIGS[2]), id="spoiled-tile"),
    pytest.param((losses, "_check_finite"), does_nothing,
                 partial(test_losses.TestRegLoss().test_overflowing_feature_difference_raises,
                         test_losses.MULTI_NYU), id="anchor-gradient-finiteness"),
]


@pytest.mark.parametrize("target, mutant, guard", CANARIES)
def test_guard_fails_on_its_mutant(monkeypatch, target, mutant, guard):
    guard()
    module, name = target
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        guard()
