"""Sample-set construction for an anchor feature map.

A sample is a whole feature/depth map: batch item ``(a + s_k) % K`` rolled
down ``s_h`` and right ``s_w`` (the shift convention of ``grid.py``), for
anchor ``a`` of a K-item batch.  Two collecting means draw samples, used
together by default: circular shifts of the anchor's own pair (``s_k = 0``,
shifts in [1, n-1]; feature and depth share the shift, keeping each sample
pixel locationally consistent with its depth), and whole pairs of other
batch items (``s_k`` in [1, K-1], ``s_h = s_w = 0``).  Draws are independent
per iteration, so repeats can occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBatch, InvalidDimension, ShapeError
from .grid import Grid1, Grid3, Scratch, SeedRng, _view, gen_shift_seed, take


@dataclass(frozen=True)
class SamplePair:
    """Batch item ``(anchor + s_k) % K`` rolled down ``s_h`` and right ``s_w``."""

    feature: Grid3
    depth: Grid1
    s_k: int
    s_h: int
    s_w: int


@dataclass(frozen=True)
class Batch:
    """K co-trained (feature, depth) pairs sharing one shape."""

    items: tuple[tuple[Grid3, Grid1], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 1:
            raise InvalidDimension("batch must contain at least one item")
        shape = self.items[0][0].data.shape
        for f, d in self.items:
            if f.data.shape != shape or (d.height, d.width) != shape[:2]:
                raise ShapeError("batch items disagree in shape")

    def __len__(self) -> int:
        return len(self.items)


def _wrap_tile(a: np.ndarray, scratch: Scratch | None, key: str) -> np.ndarray:
    """Read-only 2x2 tiling of ``a`` over its last two axes, quadrant by quadrant.

    The tile owns its memory (or is an arena buffer) and is frozen whole, so
    no window into it can be written through ``.base``.
    """
    h, w = a.shape[-2:]
    t = take(scratch, key, a.shape[:-2] + (2 * h, 2 * w), a.dtype)
    for rows in (slice(None, h), slice(h, None)):
        for cols in (slice(None, w), slice(w, None)):
            t[..., rows, cols] = a
    t.setflags(write=False)
    return t


def build_sample_set(
    f_a: Grid3,
    d_a: Grid1,
    batch: Batch,
    anchor_index: int,
    n_within: int,
    n_across: int,
    rng: SeedRng,
    scratch: Scratch | None = None,
) -> tuple[SamplePair, ...]:
    """n_within circular shifts of the anchor pair, then n_across other batch items.

    Each within-sample draws its vertical seed, then its horizontal one, and
    is a read-only window into one 2x2 wrap tile of the anchor:
    ``tile[h - s_h : 2h - s_h, w - s_w : 2w - s_w]`` equals
    ``shift2d_*(anchor, s_h, s_w)`` without copying it.  The feature tile is
    channel-planar, (C, 2H, 2W), and each feature window an (H, W, C) view
    of it, so a sample's channels are contiguous row blocks whatever the
    anchor's storage order.  The tiles are copies of the checked anchor, so
    the windows are wrapped unchecked.  With a ``scratch`` the tiles are its
    buffers, valid until the next call with that arena.

    Each across-sample is a whole, unshifted pair of the batch: the drawn
    value acts as an offset in [1, K-1] from the anchor index, so a sample
    can never alias the anchor itself.
    """
    pairs = []
    if n_within > 0:
        h, w = f_a.height, f_a.width
        if h < 2 or w < 2:
            raise InvalidDimension("shift sampling needs height and width >= 2")
        if (d_a.height, d_a.width) != (h, w):
            raise ShapeError("anchor feature and depth shapes disagree")
        ft, dt, mt = (_wrap_tile(a, scratch, key) for a, key in
                      ((f_a.data.transpose(2, 0, 1), "tile_f"), (d_a.values, "tile_d"),
                       (d_a.valid, "tile_m")))
        for _ in range(n_within):
            s_h = gen_shift_seed(rng, h)
            s_w = gen_shift_seed(rng, w)
            rows, cols = slice(h - s_h, 2 * h - s_h), slice(w - s_w, 2 * w - s_w)
            pairs.append(SamplePair(_view(Grid3, data=ft[:, rows, cols].transpose(1, 2, 0)),
                                    _view(Grid1, values=dt[rows, cols], valid=mt[rows, cols]),
                                    0, s_h, s_w))

    k = len(batch)
    if not 0 <= anchor_index < k:
        raise InvalidDimension(f"anchor index {anchor_index} outside batch of {k}")
    if n_across > 0 and k < 2:
        raise InsufficientBatch("cross-batch sampling needs at least two items")
    for _ in range(n_across):
        s_k = gen_shift_seed(rng, k)
        f, d = batch.items[(anchor_index + s_k) % k]
        pairs.append(SamplePair(f, d, s_k, 0, 0))
    return tuple(pairs)
