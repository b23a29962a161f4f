import math

import numpy as np
import pytest

from depthreg.errors import EmptyEvaluation, ShapeError
from depthreg.grid import Grid1, SeedRng
from depthreg.metrics import CSV_HEADER, compute_metrics, mean_report
from depthreg.verification import oracle_metrics

FIELDS = ("abs_rel", "sq_rel", "rmse", "rmse_log", "log10", "delta1", "delta2", "delta3")


def test_perfect_prediction():
    gt = Grid1(np.array([[1.0, 2.0], [3.0, 4.0]]))
    r = compute_metrics(gt.values, gt)
    assert (r.abs_rel, r.sq_rel, r.rmse, r.rmse_log, r.log10) == (0, 0, 0, 0, 0)
    assert (r.delta1, r.delta2, r.delta3) == (1.0, 1.0, 1.0)
    assert r.pixel_count == 4


def test_single_pixel_pred2_gt1():
    r = compute_metrics(np.array([[2.0]]), Grid1(np.array([[1.0]])))
    assert r.abs_rel == pytest.approx(1.0, abs=1e-12)
    assert r.sq_rel == pytest.approx(1.0, abs=1e-12)
    assert r.rmse == pytest.approx(1.0, abs=1e-12)
    assert r.rmse_log == pytest.approx(math.log(2.0), abs=1e-12)
    assert r.log10 == pytest.approx(math.log10(2.0), abs=1e-12)
    assert (r.delta1, r.delta2, r.delta3) == (0.0, 0.0, 0.0)


def test_delta_strict_at_factor_125():
    gt = Grid1(np.full((3, 3), 2.0))
    r = compute_metrics(gt.values * 1.25, gt)
    assert r.delta1 == 0.0
    assert r.delta2 == 1.0


def test_delta_monotone_and_bounded():
    rng = SeedRng(42)
    for _ in range(20):
        gt = Grid1(rng.uniforms(64).reshape(8, 8) * 9 + 0.5)
        pred = rng.uniforms(64).reshape(8, 8) * 9 + 0.5
        r = compute_metrics(pred, gt)
        assert 0.0 <= r.delta1 <= r.delta2 <= r.delta3 <= 1.0


def test_scale_property():
    rng = SeedRng(7)
    gt = Grid1(rng.uniforms(64).reshape(8, 8) * 9 + 0.5)
    pred = rng.uniforms(64).reshape(8, 8) * 9 + 0.5
    a = compute_metrics(pred, gt)
    s = 3.7
    b = compute_metrics(pred * s, Grid1(gt.values * s))
    for name in ("abs_rel", "rmse_log", "log10", "delta1", "delta2", "delta3"):
        assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-9)
    assert b.rmse == pytest.approx(a.rmse * s, rel=1e-9)
    assert b.sq_rel == pytest.approx(a.sq_rel * s, rel=1e-9)


def test_nonpositive_pixels_excluded():
    # gt == 0 and pred == 0 pixels both drop out of the evaluation set
    gt = Grid1(np.array([[1.0, 0.0], [2.0, 3.0]]))
    pred = np.array([[1.0, 5.0], [0.0, 3.0]])
    r = compute_metrics(pred, gt)
    assert r.pixel_count == 2
    assert r.abs_rel == 0.0


def test_invalid_gt_pixels_excluded():
    gt = Grid1(np.array([[1.0, 9.0]]), np.array([[True, False]]))
    r = compute_metrics(np.array([[1.0, 1.0]]), gt)
    assert r.pixel_count == 1


def test_empty_evaluation():
    gt = Grid1(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
    with pytest.raises(EmptyEvaluation):
        compute_metrics(np.ones((2, 2)), gt)


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        compute_metrics(np.ones((1, 2)), Grid1(np.ones((2, 2))))


def test_matches_scalar_oracle():
    rng = SeedRng(99)
    for _ in range(100):
        gt = Grid1(rng.uniforms(64).reshape(8, 8) * 9.5 + 0.5,
                   rng.uniforms(64).reshape(8, 8) > 0.1)
        pred = rng.uniforms(64).reshape(8, 8) * 9.5 + 0.5
        got = compute_metrics(pred, gt)
        want = oracle_metrics(pred, gt)
        for name in FIELDS:
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-15)
        assert got.pixel_count == want.pixel_count


def test_csv_row_shape():
    r = compute_metrics(np.ones((2, 2)), Grid1(np.ones((2, 2))))
    row = r.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.endswith(",4")


def test_mean_report_averages():
    a = compute_metrics(np.full((1, 1), 2.0), Grid1(np.ones((1, 1))))
    b = compute_metrics(np.ones((1, 1)), Grid1(np.ones((1, 1))))
    m = mean_report([a, b])
    assert m.abs_rel == pytest.approx(0.5)
    assert m.pixel_count == 2
