"""Depth-differential contrastive feature regularization.

Feature samples for an anchor feature map are gathered by circular shifts
of the map itself and from other items of the training batch, classified
as positive / negative-by-range / ignored from ground-truth depth
differentials, and pulled or hinge-pushed in feature space.  A synthetic
per-pixel depth benchmark, analytic-gradient verification suites, and an
ablation CLI sit on top.
"""

__version__ = "0.1.0"
