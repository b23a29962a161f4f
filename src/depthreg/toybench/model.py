"""Tiny per-pixel depth model with hand-written backprop.

Pipeline, applied independently at every pixel:

    h1 = tanh(W1 x + b1)
    h2 = tanh(W2 h1 + b2)
    f  = W3 h2 + b3          <- feature map exposed for regularization
    z  = w4 . f + b4
    pred = exp(z)            <- strictly positive depth

The feature head is affine (unbounded) so hinge margins of a few units are
reachable; the prediction head is zero-initialized, so a fresh model
predicts exp(0) = 1 everywhere.  Parameters and gradients travel as one
flat vector in a fixed order, which keeps SGD updates and the
finite-difference checks one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ShapeError
from ..grid import Grid1, Grid3, Scratch, SeedRng, _view, take


@dataclass
class ToyModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: float

    @classmethod
    def init(cls, rng: SeedRng, c_in: int = 3, hidden: tuple[int, int] = (12, 12),
             c_feat: int = 6, feat_scale: float = 16.0) -> "ToyModel":
        """Seeded init.

        ``feat_scale`` sets the spread of the feature head so that initial
        cross-pixel feature distances are commensurate with the hinge margins
        (a few units), the regime the margins were designed for; with unit
        scale every hinge starts deeply active and the regularizer spends the
        whole run inflating the feature space instead of shaping it.
        """
        h1, h2 = hidden
        w1 = rng.normals(h1 * c_in).reshape(h1, c_in) / np.sqrt(c_in)
        w2 = rng.normals(h2 * h1).reshape(h2, h1) / np.sqrt(h1)
        w3 = rng.normals(c_feat * h2).reshape(c_feat, h2) * (feat_scale / np.sqrt(h2))
        return cls(
            w1=w1, b1=np.zeros(h1),
            w2=w2, b2=np.zeros(h2),
            w3=w3, b3=np.zeros(c_feat),
            w4=np.zeros(c_feat), b4=0.0,
        )

    @property
    def c_in(self) -> int:
        return self.w1.shape[1]

    @property
    def c_feat(self) -> int:
        return self.w3.shape[0]

    def param_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2,
             self.w3.ravel(), self.b3, self.w4, [self.b4]]
        )

    def with_params(self, vec: np.ndarray) -> "ToyModel":
        out, i = {}, 0
        for name in ("w1", "b1", "w2", "b2", "w3", "b3", "w4"):
            ref = getattr(self, name)
            out[name] = vec[i : i + ref.size].reshape(ref.shape).copy()
            i += ref.size
        return ToyModel(b4=float(vec[i]), **out)

    @property
    def param_count(self) -> int:
        return self.param_vector().size


def model_forward(model: ToyModel, image: Grid3, scratch: Scratch | None = None):
    """Forward pass; returns (features, prediction, cache for backward).

    ``features`` and ``prediction`` are read-only views of the cached
    activations.  With a ``scratch`` every array returned is one of its
    buffers, valid until the next call with that arena.
    """
    if image.channels != model.c_in:
        raise ShapeError(f"model expects {model.c_in} input channels, got {image.channels}")
    h, w = image.height, image.width
    p = h * w
    x = image.data.reshape(-1, model.c_in)
    h1 = np.matmul(x, model.w1.T, out=take(scratch, "h1", (p, model.w1.shape[0])))
    h1 += model.b1
    np.tanh(h1, out=h1)
    h2 = np.matmul(h1, model.w2.T, out=take(scratch, "h2", (p, model.w2.shape[0])))
    h2 += model.b2
    np.tanh(h2, out=h2)
    f = np.matmul(h2, model.w3.T, out=take(scratch, "f", (p, model.c_feat)))
    f += model.b3
    z = np.matmul(f, model.w4, out=take(scratch, "z", (p,)))
    z += model.b4
    if not np.all(np.isfinite(z)):
        raise DomainError("model output diverged (non-finite pre-activation)")
    pred = np.exp(z, out=z)
    if not np.all(np.isfinite(pred)):
        raise DomainError("model output diverged (prediction overflow)")
    f.setflags(write=False)  # the returned grids are views of these cached arrays
    pred.setflags(write=False)
    valid = take(scratch, "valid", (h, w), bool)
    valid.fill(True)
    cache = {"x": x, "h1": h1, "h2": h2, "f": f, "pred": pred}
    features = Grid3._owned(f.reshape(h, w, model.c_feat))
    prediction = _view(Grid1, values=pred.reshape(h, w), valid=valid)  # exp: finite, >= 0
    return features, prediction, cache


def model_backward(model: ToyModel, cache, d_feat: np.ndarray, d_pred: np.ndarray,
                   scratch: Scratch | None = None) -> np.ndarray:
    """Parameter gradient (flat, param_vector order) from upstream gradients.

    ``d_feat`` is (H, W, C) against the feature map, ``d_pred`` (H, W)
    against the prediction.  The returned vector is freshly allocated; a
    ``scratch`` lends only the per-pixel work arrays.
    """
    h1, h2, f = cache["h1"], cache["h2"], cache["f"]
    p = f.shape[0]
    df = take(scratch, "df", f.shape)
    np.copyto(df, d_feat.reshape(-1, model.c_feat))
    dz = np.multiply(d_pred.reshape(-1), cache["pred"], out=take(scratch, "dz", (p,)))
    wz = take(scratch, "wz", f.shape)
    df += np.multiply(dz[:, None], model.w4[None, :], out=wz)

    dw4 = f.T @ dz
    db4 = float(np.sum(dz))

    dw3 = df.T @ h2
    db3 = df.sum(axis=0)
    dh2 = _tanh_grad(np.matmul(df, model.w3, out=take(scratch, "dh2", h2.shape)), h2,
                     take(scratch, "g2", h2.shape))

    dw2 = dh2.T @ h1
    db2 = dh2.sum(axis=0)
    dh1 = _tanh_grad(np.matmul(dh2, model.w2, out=take(scratch, "dh1", h1.shape)), h1,
                     take(scratch, "g1", h1.shape))

    dw1 = dh1.T @ cache["x"]
    db1 = dh1.sum(axis=0)

    return np.concatenate(
        [dw1.ravel(), db1, dw2.ravel(), db2, dw3.ravel(), db3, dw4, [db4]]
    )


def _tanh_grad(upstream: np.ndarray, act: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``upstream * (1 - act**2)`` in place in ``upstream``, ``work`` holding the factor."""
    np.square(act, out=work)
    np.subtract(1.0, work, out=work)
    return np.multiply(upstream, work, out=upstream)
