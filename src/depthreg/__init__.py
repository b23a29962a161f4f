"""Depth-differential contrastive feature regularization.

Feature samples for an anchor feature map are gathered by circular shifts
of the map itself and from other items of the training batch, classified
as positive / negative-by-range / ignored from ground-truth depth
differentials, and pulled or hinge-pushed in feature space.  A synthetic
per-pixel depth benchmark, analytic-gradient verification suites, and an
ablation CLI sit on top.
"""

from .errors import (
    DepthRegError,
    DomainError,
    EmptyEvaluation,
    InsufficientBatch,
    InvalidConfig,
    InvalidDimension,
    InvalidShift,
    ShapeError,
)
from .grid import Grid1, Grid3, SeedRng, gen_shift_seed, shift2d_g1, shift2d_g3
from .identify import (
    IGNORED,
    POSITIVE,
    IdentMap,
    MultiRange,
    NegativeRange,
    RegConfig,
    Uniform,
    differential_map,
    identify,
    identify_multirange,
    identify_uniform,
)
from .losses import (
    DepthLossParams,
    LossResult,
    reg_loss,
    si_loss,
)
from .metrics import MetricReport, compute_metrics
from .sampling import Batch, SamplePair, build_sample_set, collect_across, collect_within

__version__ = "0.1.0"
