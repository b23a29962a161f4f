"""The checking machinery itself: suites pass on the real code.

tests/test_canaries.py shows that they catch deliberately corrupted variants.
"""

from depthreg.grid import Grid1, Grid3, SeedRng
from depthreg.identify import NegativeRange, RegConfig
from depthreg.sampling import Batch, build_sample_set
from depthreg.verification import (
    check_reg_loss_gradient,
    run_metrics_oracle,
    run_model_gradcheck,
    run_regloss_gradcheck,
    run_regloss_oracle,
    run_siloss_gradcheck,
)


def test_regloss_gradcheck_passes():
    assert run_regloss_gradcheck(30, 1e-5).passed


def test_regloss_gradcheck_passes_on_shifted_plan_entries():
    """Within-samples are the anchor's grids plus a shift; each gradient row is read rolled."""
    rng = SeedRng(5)
    f_a = Grid3(rng.normals(4 * 5 * 3).reshape(4, 5, 3))
    d_a = Grid1(rng.uniforms(20).reshape(4, 5) * 2.2, rng.uniforms(20).reshape(4, 5) > 0.1)
    samples = build_sample_set(f_a, d_a, Batch(((f_a, d_a),)), 0, 3, 0, SeedRng(6))
    config = RegConfig(r_p=0.2, strategy=(NegativeRange(0.5, 1.0, 1.5),
                                          NegativeRange(1.0, 2.0, 3.0)))
    assert check_reg_loss_gradient(f_a, d_a, samples, config) < 1e-5


def test_siloss_gradcheck_passes():
    assert run_siloss_gradcheck(30, 1e-5).passed


def test_model_gradcheck_passes():
    assert run_model_gradcheck(1e-4).passed


def test_regloss_oracle_passes():
    assert run_regloss_oracle(30).passed


def test_metrics_oracle_passes():
    assert run_metrics_oracle(30).passed


def test_zero_trials_pass_vacuously():
    assert run_regloss_oracle(0).passed
    assert run_regloss_gradcheck(0, 1e-5).passed


def test_zero_tolerance_fails_on_noise():
    assert not run_regloss_gradcheck(5, 0.0).passed
