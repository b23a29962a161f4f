"""Sample-set construction for an anchor feature map.

A sample is a whole feature/depth map: batch item ``(a + s_k) % K`` rolled
down ``s_h`` and right ``s_w`` (the shift convention of ``grid.py``), for
anchor ``a`` of a K-item batch, kept as that plan entry: the item's own
grids plus the shift, never a rolled copy.  Two collecting means draw
samples, used together by default: circular shifts of the anchor's own pair
(``s_k = 0``, shifts in [1, n-1]; feature and depth share the shift,
keeping each sample pixel locationally consistent with its depth), and
whole pairs of other batch items (``s_k`` in [1, K-1], ``s_h = s_w = 0``).
Draws are independent per iteration, so repeats can occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import Grid1, Grid3, SeedRng, gen_shift_seed


@dataclass(frozen=True)
class SamplePair:
    """Batch item ``(anchor + s_k) % K`` rolled down ``s_h`` and right ``s_w``.

    ``feature`` and ``depth`` are the item's grids as they are, unrolled.
    """

    feature: Grid3
    depth: Grid1
    s_k: int
    s_h: int
    s_w: int


@dataclass(frozen=True)
class Batch:
    """K co-trained (feature, depth) pairs sharing one shape."""

    items: tuple[tuple[Grid3, Grid1], ...]


def build_sample_set(
    f_a: Grid3,
    d_a: Grid1,
    batch: Batch,
    anchor_index: int,
    n_within: int,
    n_across: int,
    rng: SeedRng,
) -> tuple[SamplePair, ...]:
    """n_within circular shifts of the anchor pair, then n_across other batch items.

    Samples are plan entries: no map is copied.  Each within-sample draws its
    vertical seed, then its horizontal one, and is ``(f_a, d_a, 0, s_h,
    s_w)``, the anchor's own grids plus the shift that consumers apply
    (``losses.reg_loss`` rolls it in as it fills its buffers).

    Each across-sample is a whole, unshifted pair of the batch: the drawn
    value acts as an offset in [1, K-1] from the anchor index, so a sample
    can never alias the anchor itself.  Nothing else is checked here: a
    side or batch below 2 leaves ``gen_shift_seed`` an empty range, and
    ``reg_loss`` checks every shape.
    """
    pairs = []
    for _ in range(n_within):
        s_h = gen_shift_seed(rng, f_a.height)
        s_w = gen_shift_seed(rng, f_a.width)
        pairs.append(SamplePair(f_a, d_a, 0, s_h, s_w))
    k = len(batch.items)
    for _ in range(n_across):
        s_k = gen_shift_seed(rng, k)
        f, d = batch.items[(anchor_index + s_k) % k]
        pairs.append(SamplePair(f, d, s_k, 0, 0))
    return tuple(pairs)
