"""Mutation canaries: every check in the table catches the bug it guards against.

Each row of ``CANARIES`` is a target (a module or class and the name of one
of its attributes), a mutant (a function of the original attribute
returning its corrupted replacement) and a guard (a check or test of the
suite, called without arguments).  The guard must pass on the real code
and fail once the mutant is patched in.  Code under check looks its target
up in that module or class at call time, so the patch reaches it.
"""

import contextlib
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import test_arena
import test_cli
import test_grid
import test_identify
import test_losses
import test_sampling
import test_step_digest
import test_toybench
import test_verification
from depthreg import cli, experiment, grid, identify, losses, sampling, verification
from depthreg.errors import InvalidConfig
from depthreg.grid import Grid1
from depthreg.identify import POSITIVE, NegativeRange, RegConfig
from depthreg.toybench import model, train


def classifier_threshold_high(oracle_reg_loss):
    """The oracle with its positive threshold 10% too high."""
    def mutant(f_a, d_a, samples, config):
        return oracle_reg_loss(f_a, d_a, samples, replace(config, r_p=config.r_p * 1.1))
    return mutant


def hinge_sign_flipped(reg_loss):
    """``reg_loss`` adding every gradient with the negative pairs' share sign-flipped.

    Margins too small to activate a hinge leave the positives' gradients
    alone (classification and the reduction scale are unchanged), so
    ``2 * positive - full`` flips the negatives' share.
    """
    def gradients(f_a, d_a, samples, config):
        h, w, c = f_a.data.shape
        grads = np.zeros((len(samples) + 1, c, h, w))
        return reg_loss(f_a, d_a, samples, config, grads[0], grads[1:]), grads

    def mutant(f_a, d_a, samples, config, grad_anchor, grad_samples, scratch=None):
        res, full = gradients(f_a, d_a, samples, config)
        tiny = tuple(replace(r, margin=1e-300) for r in config.strategy)
        _, pos = gradients(f_a, d_a, samples, replace(config, strategy=tiny))
        for acc, g in zip([grad_anchor, *grad_samples], 2.0 * pos - full):
            acc += g
        return res
    return mutant


def fill_one_row_off(roll_into):
    """The fill in ``reg_loss`` rolling shifted samples one row short; routing stays right."""
    return test_sampling.fill_one_row_off


def quadrant_from_wrong_block(roll_into):
    """``roll_into`` whose largest quadrant copies the source's unshifted block instead."""
    def mutant(src, s_h, s_w, out):
        roll_into(src, s_h, s_w, out)
        h, w = src.shape[-2:]
        out[..., s_h % h:, s_w % w:] = src[..., s_h % h:, s_w % w:]
        return out
    return mutant


def wrapped_columns_from_neighbouring_row(roll_into):
    """``roll_into`` stopping at its flat roll: the wrapped columns come from the row above."""
    def mutant(src, s_h, s_w, out):
        h, w = src.shape[-2:]
        np.copyto(out.reshape(-1, h * w), np.roll(src.reshape(-1, h * w), s_h * w + s_w, axis=-1))
        return out
    return mutant


def plane_without_mask(post_init):
    """``Grid1`` whose plane holds every depth value, the holes' included, with no NaN marking."""
    def mutant(self):
        post_init(self)
        object.__setattr__(self, "plane", self.values)
    return mutant


def margin_table_shifted(margins):
    """``_margins`` reading the table one group on: a positive gets m_1, group j m_(j+1)."""
    return lambda labels, ranges, index, out: margins(labels + 1, ranges, index, out)


def sign_without_positive_term(coefficient):
    """``_coefficient`` whose sign is ``dist < m`` alone, without its ``- pos`` term."""
    def mutant(dist, m, pos, scale, mask, out):
        return coefficient(dist, m, np.zeros_like(pos), scale, mask, out)
    return mutant


def bias_sums_by_einsum(affine_grads):
    """Bias gradients summed by ``einsum("cp->c")``, in another order than ``sum(axis=1)``."""
    return lambda dy, x: (affine_grads(dy, x)[0], np.einsum("cp->c", dy))


def features_with_h_and_w_swapped(model_forward):
    """``model_forward`` viewing its planar features as ``(C, W, H)`` blocks: pixels misplaced."""
    def mutant(m, image, scratch=None):
        features, pred, cache = model_forward(m, image, scratch)
        c, h, w = m.c_feat, image.height, image.width
        swapped = grid._view(grid.Grid3, data=cache["f"].reshape(c, w, h).transpose(2, 1, 0))
        return swapped, pred, cache
    return mutant


def feature_gradient_read_as_hwc(model_backward):
    """``model_backward`` reading the planar feature gradient's memory in ``(H, W, C)`` order."""
    def mutant(m, cache, d_feat, d_pred, scratch=None):
        c, h, w = d_feat.shape
        return model_backward(m, cache, d_feat.reshape(h, w, c).transpose(2, 0, 1), d_pred, scratch)
    return mutant


def channels_in_sequence(squared_distance):
    """``_squared_distance`` adding the channels one after another, not in two lanes."""
    def mutant(diff, out, work):
        np.square(diff[:, 0], out=out)
        for j in range(1, diff.shape[1]):
            out += np.square(diff[:, j], out=work)
        return out
    return mutant


def roll_sign_flipped(roll_into):
    """``roll_into`` rolling up and left where down and right is asked."""
    return lambda src, s_h, s_w, out: roll_into(src, -s_h, -s_w, out)


def pair_distance_in_two_lanes(pair_sq_distances):
    """``_pair_sq_distances`` adding the even channels, the odd channels, then the two sums."""
    def mutant(feats, i1, i2):
        sq = (feats[:, i1] - feats[:, i2]) ** 2
        return np.sum(sq[0::2], axis=0) + np.sum(sq[1::2], axis=0)
    return mutant


def depth_check_excludes_zero(check_depth):
    """``_check_depth`` asking ``v > 0`` where ``v >= 0`` is meant."""
    return lambda values, valid: check_depth(np.where(values == 0.0, -1.0, values), valid)


def ranges_closed_above(classify):
    """``_classify`` with each negative range closed above (``<= high``)."""
    def mutant(v, r_p, bounds):
        return classify(v, r_p, [(low, np.nextafter(high, np.inf)) for low, high in bounds])
    return mutant


def nan_as_positive(classify):
    """``_classify`` testing the positive group as ``~(v >= r_p)``, which holds on NaN."""
    def mutant(v, r_p, bounds):
        return np.where(~(v >= r_p), POSITIVE, classify(v, r_p, bounds))
    return mutant


def batch_check_ignores_enabled(check_batch):
    """``check_batch`` asking two items of a disabled regularizer too."""
    def mutant(reg_cfg, schedule):
        if reg_cfg.n_across > 0 and schedule.batch_size < 2:
            raise InvalidConfig("cross-batch sampling needs batch_size >= 2")
    return mutant


def plan_entry_unchecked(train_plan):
    """``train_plan`` handing out ``cfg.reg`` as it is, never asking ``check_batch``."""
    return lambda cfg: [("run", cfg.reg, None)]


def empty_range_answers_one(gen_shift_seed):
    """``gen_shift_seed`` answering 1 where its range [1, n-1] is empty (n < 2)."""
    return lambda rng, n: 1 if n < 2 else gen_shift_seed(rng, n)


def planar_copy_on_every_path(model_forward):
    """``model_forward`` also making a frozen channel-planar copy of its features in the arena."""
    def mutant(model, image, scratch=None):
        f, pred, cache = model_forward(model, image, scratch)
        h, w, c = f.data.shape
        copy = scratch.take("planar", (c, h, w))
        np.copyto(copy, f.data.transpose(2, 0, 1))
        copy.setflags(write=False)
        return f, pred, cache
    return mutant


def recursion_error_let_through(load_config_file):
    """``load_config_file`` re-raising the parser's ``RecursionError``, not ``InvalidConfig``."""
    def mutant(path):
        try:
            return load_config_file(path)
        except InvalidConfig as exc:
            if isinstance(exc.__cause__, RecursionError):
                raise exc.__cause__
            raise
    return mutant


def errstate_sets_nothing(errstate):
    """numpy's ``errstate`` leaving every error setting as it is: a cast under it warns."""
    return lambda **kwargs: contextlib.nullcontext()


def bias_column_dropped(affine):
    """``_affine`` multiplying ``[w | 0]``: the augmented weights without their bias column."""
    return lambda w, b, x, bare, out: affine(w, np.zeros_like(b), x, bare, out)


def zero_view_of_minus_zero(broadcast_to):
    """numpy's ``broadcast_to`` viewing the negated array: the zero feature view holds -0.0."""
    return lambda array, shape, subok=False: broadcast_to(np.negative(array), shape, subok)


def does_nothing(check):
    return lambda *args: None


def in_a_fresh_directory(test):
    """A guard running ``test(tmp_path, capsys)``, a test that writes files but reads no output."""
    def guard():
        with tempfile.TemporaryDirectory() as tmp:
            test(Path(tmp), None)
    return guard


def with_monkeypatch(test):
    """A guard running ``test(monkeypatch)``, undoing its patches afterwards."""
    def guard():
        with pytest.MonkeyPatch.context() as mp:
            test(mp)
    return guard


# Hypothesis guards, fed the falsifying inputs recorded for their mutants.
PAIR_DISTANCES = partial(
    test_toybench.TestFeatureSeparation.test_pair_distances_equal_numpy_row_sums.hypothesis
    .inner_test, test_toybench.TestFeatureSeparation(), p=10, c=3, n_pairs=10, seed=0, decades=0)
VALID_ZERO_DEPTH = partial(test_grid.check_depth_against_where_check, np.array([[0.0]]),
                           np.array([[True]]))
LABELS_AGAINST_BRUTE_FORCE = (
    test_identify.test_labels_match_brute_force_on_thresholds_and_bad_invalid_pixels.hypothesis
    .inner_test)
ONE_RANGE = RegConfig(r_p=0.1, strategy=(NegativeRange(0.5, 1.0, 1.0),))
PIXEL_AT_A_BOUND = partial(LABELS_AGAINST_BRUTE_FORCE, (ONE_RANGE, Grid1(np.array([[1.0]]))))
PIXEL_IN_A_HOLE = partial(LABELS_AGAINST_BRUTE_FORCE,
                          (ONE_RANGE, Grid1(np.array([[0.05]]), np.array([[False]]))))
DEEP_CONFIG_THROUGH_ABLATE = in_a_fresh_directory(
    lambda tmp, capsys: test_cli.test_deeply_nested_config_exits_2_without_outputs(tmp, "ablate"))
SIGNALLING_NAN_THROUGH_EVAL = partial(
    test_cli.test_eval_of_any_pfm_bytes_exits_0_or_2_with_at_most_one_error_line.hypothesis
    .inner_test, files=(test_cli.SIGNALLING_NAN_PFM, None))
SEPARATION_WITH_FILLED_HOLES = partial(
    test_toybench.TestFeatureSeparation.test_equals_the_uncached_sum_bit_for_bit.hypothesis
    .inner_test, test_toybench.TestFeatureSeparation(), h=24, w=24, c=3, seed=7,
    features="random", levels=4, valid="part")

CANARIES = [
    pytest.param((verification, "oracle_reg_loss"), classifier_threshold_high,
                 test_verification.test_regloss_oracle_passes, id="classifier"),
    pytest.param((verification, "reg_loss"), hinge_sign_flipped,
                 test_verification.test_regloss_gradcheck_passes, id="hinge-sign"),
    pytest.param((losses, "roll_into"), test_arena.routed_further_on,
                 test_verification.test_model_gradcheck_passes, id="routing-shift-sign"),
    pytest.param((losses, "roll_into"), fill_one_row_off,
                 test_verification.test_model_gradcheck_passes, id="window-one-row-off"),
    pytest.param((losses, "roll_into"), quadrant_from_wrong_block,
                 partial(test_sampling.check_within_against_oracle, 13, 5, 6, 2, 3, "none",
                         test_sampling.CONFIGS[2]), id="roll-quadrant-from-wrong-block"),
    pytest.param((losses, "roll_into"), wrapped_columns_from_neighbouring_row,
                 partial(test_sampling.check_within_against_oracle, 13, 5, 6, 2, 3, "none",
                         test_sampling.CONFIGS[2]), id="roll-wrapped-columns-one-row-off"),
    pytest.param((Grid1, "__post_init__"), plane_without_mask,
                 test_verification.test_regloss_oracle_passes, id="depth-plane-without-mask"),
    pytest.param((Grid1, "__post_init__"), plane_without_mask, SEPARATION_WITH_FILLED_HOLES,
                 id="separation-plane-without-mask"),
    pytest.param((losses, "_margins"), margin_table_shifted,
                 test_verification.test_regloss_oracle_passes, id="margin-table-one-group-on"),
    pytest.param((losses, "_coefficient"), sign_without_positive_term,
                 test_verification.test_regloss_gradcheck_passes,
                 id="coefficient-sign-without-positives"),
    pytest.param((losses, "_check_finite"), does_nothing,
                 partial(test_losses.TestRegLoss().test_overflowing_feature_difference_raises,
                         test_losses.MULTI_NYU), id="anchor-gradient-finiteness"),
    pytest.param((model, "_affine_grads"), bias_sums_by_einsum,
                 partial(test_step_digest.test_step_matches_golden_digest,
                         ("multi_range", 12, 9)),
                 marks=test_step_digest.pytestmark, id="bias-sums-by-einsum"),
    pytest.param((train, "model_forward"), features_with_h_and_w_swapped,
                 test_verification.test_model_gradcheck_passes,
                 id="features-with-h-and-w-swapped"),
    pytest.param((train, "model_backward"), feature_gradient_read_as_hwc,
                 test_verification.test_model_gradcheck_passes,
                 id="feature-gradient-read-as-hwc"),
    pytest.param((losses, "_squared_distance"), channels_in_sequence,
                 partial(test_step_digest.test_step_matches_golden_digest,
                         ("multi_range", 64, 64)),
                 marks=test_step_digest.pytestmark, id="squared-distance-channels-in-sequence"),
    pytest.param((cli, "roll_into"), roll_sign_flipped,
                 in_a_fresh_directory(
                     test_cli.TestEvalAndScenes().test_selfdiff_labels_match_np_roll),
                 id="selfdiff-roll-sign"),
    pytest.param((train, "_pair_sq_distances"), pair_distance_in_two_lanes, PAIR_DISTANCES,
                 id="pair-distance-in-two-lanes"),
    pytest.param((grid, "_check_depth"), depth_check_excludes_zero, VALID_ZERO_DEPTH,
                 id="depth-check-excludes-zero"),
    pytest.param((identify, "_classify"), ranges_closed_above, PIXEL_AT_A_BOUND,
                 id="classify-closed-above"),
    pytest.param((identify, "_classify"), nan_as_positive, PIXEL_IN_A_HOLE,
                 id="classify-nan-as-positive"),
    pytest.param((experiment, "check_batch"), batch_check_ignores_enabled,
                 in_a_fresh_directory(
                     test_cli.TestTrainCommand().test_disabled_strategy_with_batch_of_one_trains),
                 id="batch-check-ignores-enabled"),
    pytest.param((cli, "train_plan"), plan_entry_unchecked,
                 in_a_fresh_directory(lambda tmp, capsys: test_cli.TestTrainCommand()
                                      .test_across_samples_with_batch_of_one_exits_2(tmp)),
                 id="train-plan-entry-unchecked"),
    pytest.param((sampling, "gen_shift_seed"), empty_range_answers_one,
                 test_sampling.test_within_needs_2x2, id="shift-seed-empty-range-within"),
    pytest.param((sampling, "gen_shift_seed"), empty_range_answers_one,
                 test_sampling.TestAcross().test_insufficient_batch,
                 id="shift-seed-empty-range-across"),
    pytest.param((train, "model_forward"), planar_copy_on_every_path,
                 with_monkeypatch(
                     test_arena.test_disabled_regularizer_makes_no_planar_feature_copy),
                 id="planar-copy-on-the-off-path"),
    pytest.param((cli, "load_config_file"), recursion_error_let_through,
                 DEEP_CONFIG_THROUGH_ABLATE, id="deep-config-recursion-error"),
    pytest.param((np, "errstate"), errstate_sets_nothing, SIGNALLING_NAN_THROUGH_EVAL,
                 id="pfm-cast-warns-on-signalling-nan"),
    pytest.param((model, "_affine"), bias_column_dropped,
                 partial(test_step_digest.test_step_matches_golden_digest, ("disabled", 64, 64)),
                 marks=test_step_digest.pytestmark, id="augmented-weights-without-bias"),
    pytest.param((np, "broadcast_to"), zero_view_of_minus_zero,
                 test_toybench.test_zero_feature_view_gives_the_bytes_of_a_zero_array,
                 id="zero-feature-view-of-minus-zero"),
]


@pytest.mark.parametrize("target, mutant, guard", CANARIES)
def test_guard_fails_on_its_mutant(monkeypatch, target, mutant, guard):
    guard()
    module, name = target
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        guard()
