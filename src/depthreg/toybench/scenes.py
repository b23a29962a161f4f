"""Procedural synthetic depth scenes.

A scene is a background depth ramp with 2-6 rectangles/disks pasted on top
at independent depths, so depth discontinuities are sharp and differentials
cover the whole working range.  The 3 image channels are fixed functions of
normalized depth plus seeded Gaussian noise, which keeps depth learnable
from the image while leaving the regression genuinely noisy.

Regeneration is bit-exact for a given (seed, GENERATOR_VERSION).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig
from ..grid import Grid1, Grid3, SeedRng

GENERATOR_VERSION = 1

# Indoor-style statistics: a gentle local ramp plus objects sitting close to
# their background, with an occasional far outlier.  Depth differentials
# concentrate below ~2 m (where the negative bands live) while the scene
# still spans over half the depth range on average; constants re-measured
# over 1000 seeded scenes in the test suite.
MIN_OBJECTS = 2
MAX_OBJECTS = 6
RAMP_LEN_LO = 0.2  # ramp depth extent, fraction of the range
RAMP_LEN_HI = 0.55
OBJ_SIZE_LO = 0.08  # object half-size, fraction of min(H, W)
OBJ_SIZE_HI = 0.28
OBJ_NEAR_LO = 0.15  # near-background object offset, meters
OBJ_NEAR_HI = 1.2
OBJ_FAR_LO = 1.2  # far-outlier offset, meters
OBJ_FAR_HI = 6.0
OBJ_FAR_PROB = 1.0 / 3.0
# Image nuisance: one smooth low-frequency bias field per scene, added to
# every channel alike (an illumination analog), plus white noise.  The
# shared component of the channels is deliberately dominant: depth is only
# identifiable from the small BETWEEN-channel differences, which live in the
# subspace the bias cannot reach.  Plain depth-loss SGD finds that subspace
# slowly (most gradient energy chases the confounded shared direction),
# whereas same-depth sample pairs under different bias point straight at it.
BIAS_AMP = 0.2
BIAS_WAVES = 2
BIAS_FREQ = 1.5  # max cycles per image side
MIX_SQUARE = 0.4  # weight of t^2 in channel 2; the rest is the shared ramp t
MIX_EXP = 0.15  # weight of exp(-2t) in channel 3 (difference monotone in t)
NOISE_SIGMA = 0.01


@dataclass(frozen=True)
class SyntheticScene:
    image: Grid3
    depth: Grid1
    seed: int


def check_scene(h: int, w: int, d_min: float, d_max: float) -> None:
    """Scenes need height and width >= 8 and depths 0 < d_min < d_max."""
    if h < 8 or w < 8:
        raise InvalidConfig("scenes need height and width >= 8")
    if not 0 < d_min < d_max:
        raise InvalidConfig("need 0 < d_min < d_max")


def gen_scene(seed: int, h: int, w: int, d_min: float, d_max: float) -> SyntheticScene:
    """Deterministic scene from a 64-bit seed."""
    check_scene(h, w, d_min, d_max)

    rng = SeedRng(seed ^ GENERATOR_VERSION)
    span = d_max - d_min
    head = rng.uniforms(4)

    # Background: a gentle affine ramp along a random direction, anywhere in
    # the working range.
    theta = 2.0 * math.pi * head[0]
    ramp_len = (RAMP_LEN_LO + (RAMP_LEN_HI - RAMP_LEN_LO) * head[1]) * span
    lo = d_min + head[2] * (span - ramp_len)
    ys, xs = np.meshgrid(
        np.arange(h) / (h - 1), np.arange(w) / (w - 1), indexing="ij"
    )
    proj = math.cos(theta) * xs + math.sin(theta) * ys
    proj = (proj - proj.min()) / (proj.max() - proj.min())
    depth = lo + ramp_len * proj

    # Objects: painter's order, later objects occlude earlier ones.  Depth is
    # an offset from the background under the object's center, usually small,
    # sometimes a far outlier.
    n_obj = MIN_OBJECTS + int(head[3] * (MAX_OBJECTS - MIN_OBJECTS + 1))
    n_obj = min(n_obj, MAX_OBJECTS)
    size_base = min(h, w)
    for _ in range(n_obj):
        q = rng.uniforms(8)
        cy = (0.1 + 0.8 * q[1]) * (h - 1)
        cx = (0.1 + 0.8 * q[2]) * (w - 1)
        half = (OBJ_SIZE_LO + (OBJ_SIZE_HI - OBJ_SIZE_LO) * q[3]) * size_base
        aspect = 0.5 + 1.5 * q[4]
        if q[5] < OBJ_FAR_PROB:
            offset = OBJ_FAR_LO + (OBJ_FAR_HI - OBJ_FAR_LO) * q[7]
        else:
            offset = OBJ_NEAR_LO + (OBJ_NEAR_HI - OBJ_NEAR_LO) * q[7]
        if q[6] < 0.5:
            offset = -offset
        base = depth[int(round(cy)), int(round(cx))]
        obj_depth = min(max(base + offset, d_min), d_max)
        if q[0] < 0.5:
            mask = (np.abs(ys * (h - 1) - cy) <= half * aspect) & (
                np.abs(xs * (w - 1) - cx) <= half / aspect
            )
        else:
            mask = ((ys * (h - 1) - cy) / aspect) ** 2 + (
                (xs * (w - 1) - cx) * aspect
            ) ** 2 <= half**2
        depth[mask] = obj_depth

    depth = np.clip(depth, d_min, d_max)

    # Image: three renderings of normalized depth, all corrupted by one
    # shared smooth bias field plus white noise.  Channel differences stay
    # injective in depth (the exp-mix difference is strictly monotone), so
    # depth is identifiable from the bias-free subspace alone.
    t = (depth - d_min) / span
    clean = np.stack(
        [
            t,
            (1.0 - MIX_SQUARE) * t + MIX_SQUARE * t * t,
            (1.0 - MIX_EXP) * t + MIX_EXP * np.exp(-2.0 * t),
        ],
        axis=-1,
    )
    bias = np.zeros((h, w))
    for _ in range(BIAS_WAVES):
        q = rng.uniforms(4)
        fy = BIAS_FREQ * (2.0 * q[0] - 1.0)
        fx = BIAS_FREQ * (2.0 * q[1] - 1.0)
        phase = 2.0 * math.pi * q[2]
        amp = (0.5 + 0.5 * q[3]) * BIAS_AMP / BIAS_WAVES
        bias += amp * np.cos(2.0 * math.pi * (fy * ys + fx * xs) + phase)
    noise = rng.normals(3 * h * w).reshape(h, w, 3)
    image = np.clip(clean + bias[:, :, None] + NOISE_SIGMA * noise, 0.0, 1.0)

    return SyntheticScene(image=Grid3(image), depth=Grid1(depth), seed=seed)


def scene_pool(base_seed: int, count: int, h: int, w: int, d_min: float, d_max: float):
    """``count`` scenes with seeds drawn from one SplitMix64 stream."""
    seq = SeedRng(base_seed)
    return [gen_scene(seq.next_u64(), h, w, d_min, d_max) for _ in range(count)]
