"""Golden digests of single training steps.

``batch_objective``'s outputs (losses, contributing count, the flat
gradient and the breakdown) for multi-range, uniform and across-only
regularizers on 64x64 and 12x9 scenes must hash to the digests below,
recorded when within-samples were still rolled copies and unchanged since
(through wrap-tile windows and plan entries).  A model
with ``hidden=(1, 1)`` and ``c_feat=1``, whose bias gradients each sum one
column, has its own multi-range 12x9 digest, recorded before those sums
became einsums.  Float results depend on numpy's kernels, so the digests
hold only for the numpy version they were recorded with.
"""

import hashlib

import numpy as np
import pytest

from depthreg.grid import SeedRng
from depthreg.identify import MultiRange, NegativeRange, RegConfig
from depthreg.losses import DepthLossParams
from depthreg.toybench.model import ToyModel
from depthreg.toybench.scenes import scene_pool
from depthreg.toybench.train import batch_objective

NUMPY_VERSION = "2.4.6"
pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests recorded with numpy {NUMPY_VERSION}, running {np.__version__}")

MULTI = MultiRange((NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 1.5, 6.0),
                    NegativeRange(1.5, 2.0, 8.0)))
CONFIGS = {
    "multi_range": RegConfig(r_p=0.1, strategy=MULTI, n_within=10, n_across=4),
    "uniform": RegConfig(r_p=0.1, strategy=MultiRange((NegativeRange(0.5, np.inf, 4.0),)),
                         n_within=10, n_across=4),
    "across_only": RegConfig(r_p=0.1, strategy=MultiRange((NegativeRange(0.5, 1.0, 2.0),)),
                             n_within=0, n_across=3),
}

DIGESTS = {
    ("multi_range", 64, 64): "0770dbe2f8ac5f817b9c0e2450fbfe27e4accd802fb32ea4206457f5f951f520",
    ("multi_range", 12, 9): "13affc33c9a8768d87ca085539f9be18622dc1b4b338a0c3c612c7f7247876bd",
    ("uniform", 64, 64): "5336f73941932aff65c20f40d5aff70fe9d1e19f716c58ca2d9238aae1e8961a",
    ("uniform", 12, 9): "ca92f84acdd017b898a5ef0d34053adc141659dfc1303db53928fb9baf5e1941",
    ("across_only", 64, 64): "b470f02528dca04aaf22f2fbbb8a1baa6d0987403884345b89f01e3733ae57a9",
    ("across_only", 12, 9): "9ebc944fc30614d962d8a9f5821af33a56b1fbe6b3dbb91677beb63bd493a6cf",
}
ONE_COLUMN_DIGEST = "01c0c67f9c05c1a351664dd23298cd8349f84157678daa44c63c576ec9ebc4b9"


def step_digest(name: str, h: int, w: int, hidden=(12, 12), c_feat=6) -> str:
    """sha256 of one ``batch_objective`` step on four seeded scenes."""
    scenes = scene_pool(606, 4, h, w, 0.5, 10.0)
    model = ToyModel.init(SeedRng(7), hidden=hidden, c_feat=c_feat)
    # move the depth head off its zero init so every parameter's gradient is live
    model = model.with_params(model.param_vector() + 0.01 * SeedRng(8).normals(model.param_count))
    l_re, l_depth, l_final, contributing, grad, breakdown = batch_objective(
        model, scenes, CONFIGS[name], DepthLossParams(), sample_seed=2026)
    h_ = hashlib.sha256()
    h_.update(repr((l_re, l_depth, l_final, contributing, sorted(breakdown.items()))).encode())
    h_.update(np.ascontiguousarray(grad, dtype="<f8").tobytes())
    return h_.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: "%s-%dx%d" % k)
def test_step_matches_golden_digest(key):
    assert step_digest(*key) == DIGESTS[key]


def test_one_column_step_matches_golden_digest():
    assert step_digest("multi_range", 12, 9, hidden=(1, 1), c_feat=1) == ONE_COLUMN_DIGEST
