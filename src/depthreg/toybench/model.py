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

Every activation and every gradient against one is channel-planar, one
row of P pixels per channel: the features are the ``(C, H, W)`` block the
regularizer reads, and the backward pass takes the planar feature gradient
as it is.  A ``(P, C)`` layout would run each bias add, bias-gradient sum
and ``w4`` product along rows only 6-12 values wide and need a transposing
copy each way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ShapeError
from ..grid import Grid3, Scratch, SeedRng, _check_finite, _view, take


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
    def init(cls, rng: SeedRng, hidden: tuple[int, int] = (12, 12), c_feat: int = 6) -> "ToyModel":
        """Seeded init for an RGB image."""
        h1, h2 = hidden
        w1 = rng.normals(h1 * 3).reshape(h1, 3) / np.sqrt(3)
        w2 = rng.normals(h2 * h1).reshape(h2, h1) / np.sqrt(h1)
        # A feature-head spread of 16 puts initial cross-pixel feature distances
        # at the hinge margins' scale (a few units); at unit scale every hinge
        # starts deeply active and the regularizer spends the whole run
        # inflating the feature space instead of shaping it.
        w3 = rng.normals(c_feat * h2).reshape(c_feat, h2) * (16.0 / np.sqrt(h2))
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

    Every activation is channel-planar, ``(channels, P)`` over the P pixels
    in row-major order, so each ufunc runs along a row P values long.  The
    input (a planar copy of the image) and both hidden layers carry a last
    row of ones, so a layer is one gemm of ``[w | b]`` against its input.
    ``features`` is an ``(H, W, C)`` read-only view of the planar
    ``(C, H, W)`` feature block, the layout ``reg_loss`` reads, and
    ``prediction`` the read-only ``(H, W)`` view of ``exp(z)``, finite and
    >= 0.
    With a ``scratch`` every array returned is one of its buffers, valid
    until the next call with that arena.
    """
    if image.channels != model.c_in:
        raise ShapeError(f"model expects {model.c_in} input channels, got {image.channels}")
    h, w = image.height, image.width
    p = h * w
    c_in, n1, n2 = model.c_in, model.w1.shape[0], model.w2.shape[0]
    rows = image.data.reshape(p, c_in)
    x = take(scratch, "x", (c_in + 1, p))
    x[:c_in] = rows.T
    h1 = take(scratch, "h1", (n1 + 1, p))
    h2 = take(scratch, "h2", (n2 + 1, p))
    x[c_in] = h1[n1] = h2[n2] = 1.0
    np.tanh(_affine(model.w1, model.b1, x, rows.T, h1[:n1]), out=h1[:n1])
    np.tanh(_affine(model.w2, model.b2, h1, h1[:n1], h2[:n2]), out=h2[:n2])
    f = _affine(model.w3, model.b3, h2, h2[:n2], take(scratch, "f", (model.c_feat, p)))
    z = np.matmul(model.w4, f, out=take(scratch, "z", (p,)))
    z += model.b4
    if not np.all(np.isfinite(z)):
        raise DomainError("model output diverged (non-finite pre-activation)")
    pred = np.exp(z, out=z)
    if not np.all(np.isfinite(pred)):
        raise DomainError("model output diverged (prediction overflow)")
    f.setflags(write=False)  # both outputs are views of these cached arrays
    pred.setflags(write=False)
    cache = {"x": rows, "h1": h1[:n1], "h2": h2[:n2], "f": f, "pred": pred}
    _check_finite(f)
    features = _view(Grid3, data=f.reshape(model.c_feat, h, w).transpose(1, 2, 0))
    return features, pred.reshape(h, w), cache


def model_backward(model: ToyModel, cache, d_feat: np.ndarray, d_pred: np.ndarray,
                   scratch: Scratch | None = None) -> np.ndarray:
    """Parameter gradient (flat, param_vector order) from upstream gradients.

    ``d_feat`` is channel-planar (C, H, W) against the feature map,
    ``d_pred`` (H, W) against the prediction.  The returned vector is freshly
    allocated; a ``scratch`` lends only the planar work arrays.
    """
    h1, h2, f = cache["h1"], cache["h2"], cache["f"]
    p = f.shape[1]
    dz = np.multiply(d_pred.reshape(-1), cache["pred"], out=take(scratch, "dz", (p,)))
    df = np.multiply(model.w4[:, None], dz, out=take(scratch, "df", f.shape))
    df += d_feat.reshape(f.shape)

    dw4 = f @ dz
    db4 = float(np.sum(dz))

    dw3, db3 = _affine_grads(df, h2)
    dh2 = _tanh_grad(np.matmul(model.w3.T, df, out=take(scratch, "dh2", h2.shape)), h2,
                     take(scratch, "g2", h2.shape))

    dw2, db2 = _affine_grads(dh2, h1)
    dh1 = _tanh_grad(np.matmul(model.w2.T, dh2, out=take(scratch, "dh1", h1.shape)), h1,
                     take(scratch, "g1", h1.shape))

    dw1, db1 = _affine_grads(dh1, cache["x"].T)

    return np.concatenate(
        [dw1.ravel(), db1, dw2.ravel(), db2, dw3.ravel(), db3, dw4, [db4]]
    )


def _affine(w: np.ndarray, b: np.ndarray, x: np.ndarray, bare: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """``w @ bare + b`` into ``out``, ``x`` being ``bare`` over a last row of ones.

    The bias rides in the gemm as the last column of ``[w | b]``, with the
    bits of a separate bias add.  A layer of one output channel keeps that
    add: numpy hands ``(1, k) @ (k, P)`` to BLAS gemv, which rounds a folded
    bias differently.
    """
    if w.shape[0] == 1:
        np.matmul(w, bare, out=out)
        out += b[:, None]
        return out
    return np.matmul(np.column_stack([w, b]), x, out=out)


def _affine_grads(dy: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of ``w @ x + b`` from its planar upstream ``dy``.

    The bias gradient sums each contiguous row of ``dy``, pairwise.
    """
    return dy @ x.T, dy.sum(axis=1)


def _tanh_grad(upstream: np.ndarray, act: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``upstream * (1 - act**2)`` in place in ``upstream``, ``work`` holding the factor."""
    np.square(act, out=work)
    np.subtract(1.0, work, out=work)
    return np.multiply(upstream, work, out=upstream)
