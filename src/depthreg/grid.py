"""Dense grid containers, circular shifts, and the seeded integer generator.

Conventions pinned here so every golden file and test stays reproducible:

* Storage is row-major float64; grids are immutable after construction.
* A ``Scratch`` arena lends the training step its large work arrays; a
  function taking ``scratch=None`` allocates them fresh instead.
* A shift rolls content DOWN by ``s_h`` and RIGHT by ``s_w``:
  ``out[i, j] = in[(i - s_h) mod H, (j - s_w) mod W]``, as ``roll_into``
  does.
* ``SeedRng`` is SplitMix64 (Steele/Lea/Flood 2014): state advances by the
  additive constant 0x9E3779B97F4A7C15 and each output is the mix
  ``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
  z ^= z>>31`` of the advanced state, all modulo 2**64.  Pure integer
  arithmetic, identical on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidDimension, ShapeError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


class SeedRng:
    """SplitMix64 stream; identical seed implies identical output sequence.

    Single-owner mutable.  For concurrent use, ``split()`` off independent
    child streams instead of sharing one instance.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix64(self.state)

    def next_u64_block(self, n: int) -> np.ndarray:
        """Vectorized equivalent of ``n`` sequential ``next_u64`` calls.

        SplitMix64's state walk is affine, so the k-th output is
        ``mix(state + (k+1)*gamma)`` in closed form.
        """
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GAMMA) & _MASK64
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53-bit resolution."""
        return (self.next_u64_block(n) >> np.uint64(11)) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:m]))  # 1-u in (0,1] keeps log finite
        t = 2.0 * math.pi * u[m:]
        out = np.concatenate([r * np.cos(t), r * np.sin(t)])
        return out[:n]

    def split(self) -> "SeedRng":
        """Child stream seeded from one draw of this stream."""
        return SeedRng(self.next_u64())


def gen_shift_seed(rng: SeedRng, n: int) -> int:
    """Uniform integer in the closed interval [1, n-1]; advances ``rng``.

    Uses rejection so the distribution is exactly uniform regardless of n.
    """
    if n < 2:
        raise InvalidDimension(f"seed range [1, n-1] is empty for n={n}")
    span = n - 1
    limit = (1 << 64) // span * span
    while True:
        z = rng.next_u64()
        if z < limit:
            return 1 + z % span


@dataclass(frozen=True)
class Grid3:
    """H x W x C real-valued feature map, immutable, all entries finite."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"expected 3 axes, got {arr.ndim}")
        if min(arr.shape) < 1:
            raise InvalidDimension(f"degenerate shape {arr.shape}")
        _check_finite(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def _view(cls, **arrays: np.ndarray):
    """A ``cls`` over ``arrays`` as given, frozen: the one path that checks nothing.

    Checks sit only where arithmetic can break an invariant: grid
    construction, the model's output and the anchor gradient.  ``_view``
    wraps what those checks cover: the model's features, an ``(H, W, C)``
    view of its planar block.  It derives nothing either.
    """
    obj = object.__new__(cls)
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return obj


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DomainError("feature grid contains non-finite entries")


def _check_depth(values: np.ndarray, valid: np.ndarray) -> None:
    """Valid entries finite and >= 0: ``0 <= v < inf`` is false on NaN, every negative and +inf."""
    if (valid > ((values >= 0) & (values < np.inf))).any():  # valid and not good
        raise DomainError("valid depth entries must be finite and >= 0")


@dataclass(frozen=True)
class Grid1:
    """H x W depth map (meters) with a validity mask.

    Valid entries must be finite and >= 0; invalid entries are unconstrained
    (sensor holes carry whatever the source wrote there).  ``plane`` is the
    read-only values with NaN off the mask, whatever the holes hold: the one
    form of depth validity past the grid.  NaN fails every comparison and
    survives differences and ``abs``, so a differential of two planes is
    NaN wherever either is invalid.  It is built with the grid, not on first
    read: built lazily, the planes land mid-run among a step's temporaries,
    which sped up perfbench's host-speed reference kernel and so read as a
    16% slower scaled step (see CHANGES.md).
    """

    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ShapeError(f"expected 2 axes, got {vals.ndim}")
        if min(vals.shape) < 1:
            raise InvalidDimension(f"degenerate shape {vals.shape}")
        mask = self.valid
        if mask is None:
            mask = np.ones(vals.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != vals.shape:
                raise ShapeError(f"mask shape {mask.shape} != values shape {vals.shape}")
        _check_depth(vals, mask)
        vals = vals.copy()
        mask = mask.copy()
        plane = np.where(mask, vals, np.nan)
        for name, arr in (("values", vals), ("valid", mask), ("plane", plane)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


class Scratch:
    """Named work buffers reused from call to call.

    ``take(key, shape, dtype)`` returns the buffer last handed out under
    ``key``, allocating a new one only when the shape or dtype differs, so a
    loop over same-shaped inputs allocates its large arrays once.  Contents
    are left as the previous user wrote them.  Not reentrant: a buffer stays
    valid only until ``key`` is taken again, so nothing taken may outlive the
    call that took it, and two calls running at once must not share an
    arena.  ``child(key)`` is a nested arena, for a callee that takes the
    same keys once per item.
    """

    def __init__(self):
        self._buffers: dict = {}
        self._children: dict = {}

    def take(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(shape, dtype)
        buf.setflags(write=True)  # a previous user may have frozen it
        return buf

    def child(self, key) -> "Scratch":
        sub = self._children.get(key)
        if sub is None:
            sub = self._children[key] = Scratch()
        return sub


def take(scratch: Scratch | None, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """``scratch.take(key, shape, dtype)``, or a fresh ``np.empty`` without an arena."""
    if scratch is None:
        return np.empty(shape, dtype)
    return scratch.take(key, shape, dtype)


def roll_into(src: np.ndarray, s_h: int, s_w: int, out: np.ndarray) -> np.ndarray:
    """``out[...] = np.roll(src, (s_h, s_w), axis=(-2, -1))``: a flat roll, then wrapped columns.

    Rolling each flattened (H*W) plane by ``s_h * W + s_w`` (two contiguous
    copies) puts every column ``j >= s_w`` in place; the columns ``j < s_w``
    come from one row too far up, and two narrow copies fix them.  Past
    ``W / 2`` the plane is rolled one row less, which puts the left columns
    in place and leaves the narrower right side to fix.
    Shifts are taken modulo the map size (``-s_h, -s_w`` rolls back); ``out``
    is C-contiguous, has ``src``'s shape and does not overlap it.
    """
    h, w = src.shape[-2:]
    s_h, s_w = s_h % h, s_w % w
    if 2 * s_w <= w:
        k, fix, keep = s_h * w + s_w, slice(None, s_w), slice(w - s_w, None)
    else:
        k, fix, keep = (s_h - 1) * w + s_w, slice(s_w, None), slice(None, w - s_w)
    n = h * w
    k %= n
    flat_src, flat_out = src.reshape(-1, n), out.reshape(-1, n)
    flat_out[:, k:] = flat_src[:, :n - k]
    flat_out[:, :k] = flat_src[:, n - k:]
    out[..., s_h:, fix] = src[..., :h - s_h, keep]
    out[..., :s_h, fix] = src[..., h - s_h:, keep]
    return out
