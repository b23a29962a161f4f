import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthreg.errors import InvalidConfig
from depthreg.grid import Grid1, Grid3, SeedRng
from depthreg.identify import MultiRange, NegativeRange, RegConfig
from depthreg.losses import DepthLossParams
from depthreg.toybench import model as model_module
from depthreg.toybench import train as train_module
from depthreg.toybench.model import ToyModel, _column_sums, model_backward, model_forward
from depthreg.toybench.scenes import gen_scene
from depthreg.toybench.train import (
    Schedule,
    _separation_pairs,
    batch_objective,
    feature_separation,
    train_run,
)

SEP = (0.1, 0.5)
SMALL_MULTI = RegConfig(
    r_p=0.1,
    strategy=MultiRange((NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 2.0, 6.0))),
    n_within=2,
    n_across=1,
)


class TestScenes:
    def test_determinism(self):
        a = gen_scene(777, 16, 16, 0.5, 10.0)
        b = gen_scene(777, 16, 16, 0.5, 10.0)
        assert np.array_equal(a.image.data, b.image.data)
        assert np.array_equal(a.depth.values, b.depth.values)

    def test_depth_in_range_and_valid_1000_seeds(self):
        seq = SeedRng(31)
        for _ in range(1000):
            sc = gen_scene(seq.next_u64(), 16, 16, 0.5, 10.0)
            assert sc.depth.valid.all()
            assert sc.depth.values.min() >= 0.5
            assert sc.depth.values.max() <= 10.0

    def test_image_in_unit_interval(self):
        sc = gen_scene(5, 32, 32, 0.5, 10.0)
        assert sc.image.data.min() >= 0.0 and sc.image.data.max() <= 1.0
        assert sc.image.channels == 3

    def test_histogram_span_covers_half_range_on_average(self):
        # measured over 1000 seeded scenes: the generator must populate the
        # differential bands or the whole benchmark is vacuous
        seq = SeedRng(314159)
        spans = []
        for _ in range(1000):
            sc = gen_scene(seq.next_u64(), 32, 32, 0.5, 10.0)
            spans.append((sc.depth.values.max() - sc.depth.values.min()) / 9.5)
        assert sum(spans) / len(spans) >= 0.5

    def test_rejects_tiny_scene(self):
        with pytest.raises(InvalidConfig):
            gen_scene(0, 4, 16, 0.5, 10.0)
        with pytest.raises(InvalidConfig):
            gen_scene(0, 16, 16, 2.0, 1.0)


class TestModel:
    def test_zero_head_predicts_one(self):
        m = ToyModel.init(SeedRng(1))
        sc = gen_scene(2, 8, 8, 0.5, 10.0)
        _, pred, _ = model_forward(m, sc.image)
        assert (pred.values == 1.0).all()

    def test_forward_deterministic(self):
        m = ToyModel.init(SeedRng(1))
        sc = gen_scene(2, 8, 8, 0.5, 10.0)
        f1, p1, _ = model_forward(m, sc.image)
        f2, p2, _ = model_forward(m, sc.image)
        assert np.array_equal(f1.data, f2.data)
        assert np.array_equal(p1.values, p2.values)

    def test_param_count_under_budget(self):
        assert ToyModel.init(SeedRng(0)).param_count < 10000

    def test_param_vector_round_trip(self):
        m = ToyModel.init(SeedRng(3))
        vec = m.param_vector()
        m2 = m.with_params(vec)
        assert np.array_equal(m2.param_vector(), vec)

    def test_backward_matches_directional_derivative(self):
        # quick independent check aside from the full-model FD suite
        rng = SeedRng(4)
        m = ToyModel.init(rng)
        sc = gen_scene(5, 8, 8, 0.5, 10.0)
        f, p, cache = model_forward(m, sc.image)
        d_feat = rng.normals(f.data.size).reshape(f.data.transpose(2, 0, 1).shape)  # planar
        d_pred = rng.normals(p.values.size).reshape(p.values.shape)
        grad = model_backward(m, cache, d_feat, d_pred)
        direction = rng.normals(grad.size)
        eps = 1e-6
        def value(vec):
            f2, p2, _ = model_forward(m.with_params(vec), sc.image)
            return float(np.sum(f2.data.transpose(2, 0, 1) * d_feat)
                         + np.sum(p2.values * d_pred))
        x0 = m.param_vector()
        fd = (value(x0 + eps * direction) - value(x0 - eps * direction)) / (2 * eps)
        assert fd == pytest.approx(float(grad @ direction), rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 5000), c=st.integers(1, 16),
       zeros=st.sampled_from([0.0, 0.3, 1.0]), decades=st.integers(0, 16))
def test_column_sums_equal_numpy_sum(seed, p, c, zeros, decades):
    """Bit-equal to ``sum(axis=0)``, with signed zeros and magnitudes over ``decades``."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, c)) * 10.0 ** rng.uniform(-decades / 2, decades / 2, (p, c))
    a[rng.random((p, c)) < zeros] = 0.0
    np.copysign(a, rng.standard_normal((p, c)), out=a)
    assert _column_sums(a).tobytes() == a.sum(axis=0).tobytes()


@pytest.mark.parametrize("hidden, c_feat", [((12, 12), 6), ((1, 1), 1)],
                         ids=["default", "one-column"])
def test_backward_bytes_equal_with_plain_column_sums(monkeypatch, hidden, c_feat):
    """``model_backward`` gives the same bytes when its bias sums are ``sum(axis=0)``.

    With ``hidden=(1, 1)`` and ``c_feat=1`` every bias sum takes the
    one-column path.
    """
    rng = SeedRng(11)
    m = ToyModel.init(rng, hidden=hidden, c_feat=c_feat)
    m = m.with_params(m.param_vector() + 0.01 * rng.normals(m.param_count))
    sc = gen_scene(5, 64, 64, 0.5, 10.0)
    f, p, cache = model_forward(m, sc.image)
    d_feat = rng.normals(f.data.size).reshape(f.data.transpose(2, 0, 1).shape)  # planar
    d_pred = rng.normals(p.values.size).reshape(p.values.shape)
    got = model_backward(m, cache, d_feat, d_pred)
    monkeypatch.setattr(model_module, "_column_sums", lambda a: a.sum(axis=0))
    assert got.tobytes() == model_backward(m, cache, d_feat, d_pred).tobytes()


def separation_reference(features, depth, near, far, n_pairs=4096, seed=2026):
    """``feature_separation`` as it was before its pair draw was cached:
    a fresh draw per call and one ``sum(axis=1)`` over the squared differences."""
    h, w = features.height, features.width
    p = h * w
    rng = SeedRng(seed)
    idx = np.minimum((rng.uniforms(2 * n_pairs) * p).astype(np.int64), p - 1)
    i1, i2 = idx[:n_pairs], idx[n_pairs:]
    feats = features.data.reshape(p, -1)
    dvals = depth.values.reshape(p)
    dvalid = depth.valid.reshape(p)
    ok = dvalid[i1] & dvalid[i2]
    dd = np.abs(dvals[i1] - dvals[i2])[ok]
    fd = np.sqrt(np.sum((feats[i1] - feats[i2]) ** 2, axis=1))[ok]
    near_fd = fd[dd < near]
    far_fd = fd[dd > far]
    if near_fd.size == 0:
        return math.inf
    if far_fd.size == 0:
        return math.nan
    mean_near = float(near_fd.mean())
    mean_far = float(far_fd.mean())
    if mean_near == 0.0:
        return 1.0 if mean_far == 0.0 else math.inf
    return mean_far / mean_near


def separation_case(h, w, c, seed, features, levels, valid):
    """Features and depth for a separation test.

    ``features`` is "random" (normals times one power of ten from 1e-3 to
    1e3), "constant" or "zero"; depth takes ``levels`` values 0.3 m apart, so one
    level leaves no far pair; ``valid`` is "all", "part" or "none", with an
    in-range depth on about half the invalid pixels and NaN on the rest.
    """
    rng = np.random.default_rng(seed)
    if features == "random":
        data = rng.standard_normal((h, w, c)) * 10.0 ** rng.integers(-3, 4)
    else:
        data = np.full((h, w, c), 0.0 if features == "zero" else rng.normal())
    values = 1.0 + 0.3 * rng.integers(0, levels, (h, w))
    mask = {"all": np.ones((h, w), bool), "none": np.zeros((h, w), bool),
            "part": rng.random((h, w)) < 0.5}[valid]
    kept = mask | (rng.random((h, w)) < 0.5)  # an in-range depth on about half the holes
    return Grid3(data), Grid1(np.where(kept, values, np.nan), mask)


class TestFeatureSeparation:
    def test_constant_features_give_one(self):
        feats = Grid3(np.ones((8, 8, 3)))
        depth = gen_scene(1, 8, 8, 0.5, 10.0).depth
        assert feature_separation(feats, depth, *SEP) == 1.0

    def test_depth_proportional_features_exceed_one(self):
        depth = gen_scene(2, 16, 16, 0.5, 10.0).depth
        feats = Grid3(np.repeat(depth.values[:, :, None], 3, axis=2))
        assert feature_separation(feats, depth, *SEP) > 1.0

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(2, 40), w=st.integers(2, 40), c=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1),
           features=st.sampled_from(["random", "random", "constant", "zero"]),
           levels=st.integers(1, 4), valid=st.sampled_from(["all", "part", "none"]))
    def test_equals_the_uncached_sum_bit_for_bit(self, h, w, c, seed, features, levels, valid):
        # columns summed one by one below 8 channels, sum(axis=1) from 8 on
        feats, depth = separation_case(h, w, c, seed, features, levels, valid)
        got = feature_separation(feats, depth, *SEP)
        assert repr(got) == repr(separation_reference(feats, depth, *SEP))

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 300), c=st.integers(1, 12), n_pairs=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), decades=st.integers(0, 12))
    def test_pair_distances_equal_numpy_row_sums(self, p, c, n_pairs, seed, decades):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((p, c)) * 10.0 ** rng.uniform(-decades, decades, (p, c))
        i1, i2 = rng.integers(0, p, (2, n_pairs))
        want = np.sum((feats[i1] - feats[i2]) ** 2, axis=1)
        got = train_module._pair_sq_distances(feats, i1, i2)  # patchable by a canary
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("features, levels, valid, want", [
        ("constant", 4, "all", "1.0"),
        ("zero", 4, "part", "1.0"),
        ("random", 1, "all", "nan"),   # near pairs but no far pair
        ("random", 4, "none", "inf"),  # no near pair
        ("zero", 1, "all", "nan"),
    ])
    def test_special_returns(self, features, levels, valid, want):
        for c in (3, 9):
            feats, depth = separation_case(24, 24, c, 7, features, levels, valid)
            assert repr(feature_separation(feats, depth, *SEP)) == want
            assert repr(separation_reference(feats, depth, *SEP)) == want

    def test_pairs_are_drawn_once_and_read_only(self):
        i1, i2 = _separation_pairs(64 * 64, 4096, 2026)
        assert _separation_pairs(64 * 64, 4096, 2026)[0] is i1
        for idx in (i1, i2):
            assert idx.shape == (4096,) and not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0] = 0


class TestTraining:
    def schedule(self, **kw):
        base = dict(steps=6, batch_size=2, learning_rate=0.01, seeds=(1,),
                    train_scenes=4, eval_scenes=2, eval_every=3)
        base.update(kw)
        return Schedule(**base)

    def test_zero_learning_rate_freezes_losses(self):
        # pool size equals batch size, so every step sees the same batch, and
        # frozen parameters must reproduce the same depth loss; the reg term
        # still fluctuates with the per-step shift draws, so pin it off
        sched = self.schedule(steps=5, learning_rate=0.0, train_scenes=2)
        cfg = RegConfig(r_p=0.1, strategy=None)
        rec = train_run((16, 16), (0.5, 10.0), cfg, DepthLossParams(), sched, 7, SEP)
        assert len({s.l_final for s in rec.steps}) == 1
        assert len({s.l_depth for s in rec.steps}) == 1

        rec2 = train_run((16, 16), (0.5, 10.0), SMALL_MULTI, DepthLossParams(),
                         sched, 7, SEP)
        assert len({s.l_depth for s in rec2.steps}) == 1

    def test_bit_identical_reruns(self):
        sched = self.schedule(steps=8)
        a = train_run((16, 16), (0.5, 10.0), SMALL_MULTI, DepthLossParams(), sched, 11, SEP)
        b = train_run((16, 16), (0.5, 10.0), SMALL_MULTI, DepthLossParams(), sched, 11, SEP)
        assert [s.__dict__ for s in a.steps] == [s.__dict__ for s in b.steps]
        assert [e.report for e in a.evals] == [e.report for e in b.evals]
        assert [e.separation for e in a.evals] == [e.separation for e in b.evals]

    def test_baseline_records_zero_reg(self):
        cfg = RegConfig(r_p=0.1, strategy=None, n_within=10, n_across=4)
        rec = train_run((16, 16), (0.5, 10.0), cfg, DepthLossParams(),
                        self.schedule(), 3, SEP)
        assert all(s.l_re == 0.0 for s in rec.steps)
        assert all(s.contributing == 0 for s in rec.steps)
        assert all(s.l_final == s.l_depth for s in rec.steps)

    def test_reg_engages_and_is_not_vacuous(self):
        rec = train_run((16, 16), (0.5, 10.0), SMALL_MULTI, DepthLossParams(),
                        self.schedule(), 3, SEP)
        for s in rec.steps:
            assert s.ignored_fraction < 0.95
            assert s.contributing > 0
            assert s.l_re > 0.0

    def test_across_needs_batch_of_two(self):
        with pytest.raises(InvalidConfig):
            train_run((16, 16), (0.5, 10.0), SMALL_MULTI, DepthLossParams(),
                      self.schedule(batch_size=1), 3, SEP)

    def test_eval_cadence(self):
        rec = train_run((16, 16), (0.5, 10.0), SMALL_MULTI, DepthLossParams(),
                        self.schedule(steps=7, eval_every=3), 3, SEP)
        assert [e.step for e in rec.evals] == [2, 5, 6]

    @pytest.mark.parametrize("weight", [1.0, 0.5, 0.0])
    def test_batch_objective_loss_composition(self, weight):
        scenes = [gen_scene(s, 16, 16, 0.5, 10.0) for s in (1, 2)]
        model = ToyModel.init(SeedRng(5))
        cfg = RegConfig(SMALL_MULTI.r_p, SMALL_MULTI.strategy, SMALL_MULTI.n_within,
                        SMALL_MULTI.n_across, depth_loss_weight=weight)
        l_re, l_depth, l_final, contributing, grad, breakdown = batch_objective(
            model, scenes, cfg, DepthLossParams(), sample_seed=9
        )
        assert l_depth > 0.0
        assert l_final == l_re + weight * l_depth
        assert grad.shape == (model.param_count,)
        assert contributing > 0
        assert set(breakdown) <= {"positive", "negative_1", "negative_2"}
        assert sum(breakdown.values()) == pytest.approx(l_re, rel=1e-9)
