"""The checking machinery itself: suites pass on the real code.

tests/test_canaries.py shows that they catch deliberately corrupted variants.
"""

from depthreg.verification import (
    run_metrics_oracle,
    run_model_gradcheck,
    run_regloss_gradcheck,
    run_regloss_oracle,
    run_siloss_gradcheck,
)


def test_regloss_gradcheck_passes():
    assert run_regloss_gradcheck(30, 1e-5).passed


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
