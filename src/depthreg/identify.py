"""Per-pixel sample-type identification from depth differentials.

A sample pixel is classified relative to the anchor by the absolute depth
difference at that position: below ``r_p`` it is a positive, inside a
negative range it belongs to that negative subgroup, anywhere else
(threshold gaps, boundary equalities, invalid depth) it is ignored.
All threshold comparisons are strict; equality never classifies.  A
differential is NaN where either depth is invalid, and NaN fails every
strict comparison, so it is ignored with no mask.

Label codes in ``identify``'s int16 array: 0 = positive, j >= 1
= negative subgroup j, -1 = ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

POSITIVE = 0
IGNORED = -1


@dataclass(frozen=True)
class NegativeRange:
    low: float
    high: float
    margin: float


@dataclass(frozen=True)
class RegConfig:
    """Thresholds, margins and sample counts driving the regularizer.

    ``strategy`` is the ascending tuple of negative ranges, one margin each
    (a list is stored as a tuple); the uniform strategy is the one range
    ``(r_n, inf, m_u)``.  ``strategy=None`` disables regularization entirely
    (baseline runs); an empty tuple is rejected, so "off" is explicit.
    ``loss_reduction`` is ``"sum"`` (literal double sum over samples and
    pixels) or ``"mean_contributing"`` (divide by the number of non-ignored
    sample pixels, resolution-independent; the default).
    """

    r_p: float
    strategy: tuple[NegativeRange, ...] | None
    n_within: int = 10
    n_across: int = 4
    loss_reduction: str = "mean_contributing"
    depth_loss_weight: float = 1.0

    def __post_init__(self):
        if not self.r_p > 0:
            raise InvalidConfig(f"r_p must be > 0, got {self.r_p}")
        if self.n_within < 0 or self.n_across < 0:
            raise InvalidConfig("sample counts must be >= 0")
        if self.loss_reduction not in ("sum", "mean_contributing"):
            raise InvalidConfig(f"unknown loss_reduction {self.loss_reduction!r}")
        if self.depth_loss_weight < 0:
            raise InvalidConfig("depth_loss_weight must be >= 0")
        if self.strategy is None:
            return
        object.__setattr__(self, "strategy", tuple(self.strategy))
        if not self.strategy:
            raise InvalidConfig("multi-range strategy needs at least one range")
        prev_high = self.r_p
        for r in self.strategy:
            if not r.low < r.high:
                raise InvalidConfig(f"range ({r.low}, {r.high}) is empty")
            if not r.margin > 0:
                raise InvalidConfig("margins must be > 0")
            if r.low < prev_high:
                raise InvalidConfig("ranges must start at >= r_p, ascending, non-overlapping")
            prev_high = r.high

    @property
    def enabled(self) -> bool:
        return self.strategy is not None


def _classify(v: np.ndarray, r_p: float, bounds: list[tuple[float, float]]) -> np.ndarray:
    """Read-only int16 labels of ``v``'s shape, built by adding masks in two reused bool buffers.

    The groups (positive, then each negative range) are disjoint and
    ascending: ``RegConfig`` checks every bound pair and ``r_p`` below the
    first.  So a pixel of group j lies in the union "group k or a
    later one" for exactly k = 0..j, and summing those j + 1 unions, from
    ``IGNORED``, gives its label.  A NaN pixel lies in none of them.
    """
    labels = np.zeros(v.shape, np.int16)
    later = np.zeros(v.shape, bool)  # the union of the groups processed so far
    test = np.empty(v.shape, bool)
    for low, high in reversed(bounds):
        # a pixel below ``high`` or in a later group, and above ``low``
        np.logical_or(np.less(v, high, out=test), later, out=later)
        np.logical_and(later, np.greater(v, low, out=test), out=later)
        labels += later
    labels += np.logical_or(np.less(v, r_p, out=test), later, out=later)
    labels += IGNORED
    labels.setflags(write=False)
    return labels


def identify(d_r: np.ndarray, config: RegConfig) -> np.ndarray:
    """Read-only int16 labels of a NaN-marked differential array of any shape.

    Positive below r_p, negative group j in the j-th range, ignored elsewhere
    and on NaN.
    """
    if not config.enabled:
        raise InvalidConfig("regularization disabled; nothing to identify")
    bounds = [(r.low, r.high) for r in config.strategy]
    return _classify(d_r, config.r_p, bounds)
