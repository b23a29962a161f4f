"""Golden digests of single training steps.

``batch_objective``'s outputs (losses, contributing count, the flat
gradient and the breakdown) for multi-range, uniform and across-only
regularizers and for a disabled one (the baseline step, model and depth
loss alone) on 64x64 and 12x9 scenes must hash to the digests below.
They were re-recorded once when the model became channel-planar: its
hidden activations and features kept their bits, but ``z`` and ``dw4`` go
through BLAS gemv with the matrix in the other orientation, and the
``k = P`` weight-gradient products and the bias-gradient sums add in
another order, so the gradient moved in its last bits (at most 1.1e-12
relative, against the previous digests' code).  A model with
``hidden=(1, 1)`` and ``c_feat=1``, each of whose layers has one channel,
has its own multi-range 12x9 digest, recorded before the bias sums became
einsums and unchanged by the planar layout.  Float results depend on
numpy's kernels, so the digests hold only for the numpy version they were
recorded with.
"""

import hashlib

import numpy as np
import pytest

from depthreg.grid import SeedRng
from depthreg.identify import NegativeRange, RegConfig
from depthreg.losses import DepthLossParams
from depthreg.toybench.model import ToyModel
from depthreg.toybench.scenes import scene_pool
from depthreg.toybench.train import batch_objective

NUMPY_VERSION = "2.4.6"
pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests recorded with numpy {NUMPY_VERSION}, running {np.__version__}")

MULTI = (NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 1.5, 6.0),
         NegativeRange(1.5, 2.0, 8.0))
CONFIGS = {
    "multi_range": RegConfig(r_p=0.1, strategy=MULTI, n_within=10, n_across=4),
    "uniform": RegConfig(r_p=0.1, strategy=(NegativeRange(0.5, np.inf, 4.0),),
                         n_within=10, n_across=4),
    "across_only": RegConfig(r_p=0.1, strategy=(NegativeRange(0.5, 1.0, 2.0),),
                             n_within=0, n_across=3),
    "disabled": RegConfig(r_p=0.1, strategy=None),
}

DIGESTS = {
    ("multi_range", 64, 64): "1d10066ebd2714c69e5e4ef7d7fef065d91aa215e06cacef354df58cd2b2338c",
    ("multi_range", 12, 9): "a5d997508624abf03987899c430430da7b19be6aa9521ad629fe1d85b412c18f",
    ("uniform", 64, 64): "481a8fc7af8b1b4d2ded1a83cc69b145567b61bd1167d0f36f214d53de7c7824",
    ("uniform", 12, 9): "9e31b8425eb1f94dfa45a91c6e30f0825ef5d34539661b6013fb1c4aa4239d17",
    ("across_only", 64, 64): "ab9ebde042d4fd6264bb6b5c544abe0ab7ed9fc33007ff07b1312d98720ca88c",
    ("across_only", 12, 9): "c7342b94643746762004dc096f27a7db04728229c6d265f4266aa1aebc037b30",
    ("disabled", 64, 64): "e3386e9374e705bf085dcbf722734cf18da0277d6ae5272626bf41b160956d92",
    ("disabled", 12, 9): "45597657925524a8e145c68d6173181eec8050e7fd0de3ba87703740018c92d7",
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
