"""Sample-set construction for an anchor feature map.

Two collecting means, used together by default: circular shifts of the
anchor's own feature/depth pair (feature and depth always share the same
shift seeds, keeping each sample pixel locationally consistent with its
depth), and whole feature/depth pairs taken from other items of the
training batch.  Draws are independent per iteration, so repeats can occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBatch, InvalidDimension, ShapeError
from .grid import Grid1, Grid3, Scratch, SeedRng, _view, gen_shift_seed, take


@dataclass(frozen=True)
class Within:
    """Provenance of a shift-collected sample: the shift seeds used."""

    s_h: int
    s_w: int


@dataclass(frozen=True)
class Across:
    """Provenance of a batch-collected sample: offset from the anchor index."""

    s_k: int


@dataclass(frozen=True)
class SamplePair:
    feature: Grid3
    depth: Grid1
    origin: Within | Across


@dataclass(frozen=True)
class SampleSet:
    """Ordered (feature, depth) sample pairs, within-collected first."""

    pairs: tuple[SamplePair, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            return
        f0 = self.pairs[0].feature
        for p in self.pairs:
            if p.feature.data.shape != f0.data.shape:
                raise ShapeError("sample feature maps disagree in shape")
            if (p.depth.height, p.depth.width) != (f0.height, f0.width):
                raise ShapeError("sample depth maps disagree with feature shape")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


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


def collect_within(f_a: Grid3, d_a: Grid1, n_within: int, rng: SeedRng,
                   scratch: Scratch | None = None) -> SampleSet:
    """n_within circular-shift samples of the anchor pair, fresh seeds each.

    Vertical seed is drawn before the horizontal one on every iteration.
    Each sample is a read-only window into one 2x2 wrap tile of the anchor:
    ``tile[h - s_h : 2h - s_h, w - s_w : 2w - s_w]`` equals
    ``shift2d_*(anchor, s_h, s_w)`` without copying it.  The feature tile is
    channel-planar, (C, 2H, 2W), and each feature window an (H, W, C) view
    of it, so a sample's channels are contiguous row blocks whatever the
    anchor's storage order.  The tiles are copies of the checked anchor, so
    the windows are wrapped unchecked.  With a ``scratch`` the tiles are its
    buffers, valid until the next call with that arena.
    """
    h, w = f_a.height, f_a.width
    if h < 2 or w < 2:
        raise InvalidDimension("shift sampling needs height and width >= 2")
    if (d_a.height, d_a.width) != (h, w):
        raise ShapeError("anchor feature and depth shapes disagree")
    if n_within == 0:
        return SampleSet(())
    ft, dt, mt = (_wrap_tile(a, scratch, key) for a, key in
                  ((f_a.data.transpose(2, 0, 1), "tile_f"), (d_a.values, "tile_d"),
                   (d_a.valid, "tile_m")))
    pairs = []
    for _ in range(n_within):
        s_h = gen_shift_seed(rng, h)
        s_w = gen_shift_seed(rng, w)
        rows, cols = slice(h - s_h, 2 * h - s_h), slice(w - s_w, 2 * w - s_w)
        pairs.append(SamplePair(_view(Grid3, data=ft[:, rows, cols].transpose(1, 2, 0)),
                                _view(Grid1, values=dt[rows, cols], valid=mt[rows, cols]),
                                Within(s_h, s_w)))
    return SampleSet(tuple(pairs))


def collect_across(batch: Batch, anchor_index: int, n_across: int, rng: SeedRng) -> SampleSet:
    """n_across whole pairs from other batch items.

    The drawn value acts as an offset in [1, K-1] from the anchor index, so a
    sample can never alias the anchor itself.
    """
    k = len(batch)
    if not 0 <= anchor_index < k:
        raise InvalidDimension(f"anchor index {anchor_index} outside batch of {k}")
    if n_across > 0 and k < 2:
        raise InsufficientBatch("cross-batch sampling needs at least two items")
    pairs = []
    for _ in range(n_across):
        s_k = gen_shift_seed(rng, k)
        f, d = batch.items[(anchor_index + s_k) % k]
        pairs.append(SamplePair(f, d, Across(s_k)))
    return SampleSet(tuple(pairs))


def build_sample_set(
    f_a: Grid3,
    d_a: Grid1,
    batch: Batch,
    anchor_index: int,
    n_within: int,
    n_across: int,
    rng: SeedRng,
    scratch: Scratch | None = None,
) -> SampleSet:
    """Concatenate both collecting means, within-samples first."""
    within = collect_within(f_a, d_a, n_within, rng, scratch)
    across = collect_across(batch, anchor_index, n_across, rng)
    return SampleSet(within.pairs + across.pairs)
