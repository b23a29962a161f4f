"""Standard monocular depth evaluation metrics.

Evaluation runs over pixels valid in the ground truth with gt > 0 and
pred > 0.  Threshold accuracies use strict '<' against 1.25**j.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import EmptyEvaluation, ShapeError
from .grid import Grid1

CSV_HEADER = "abs_rel,sq_rel,rmse,rmse_log,log10,d1,d2,d3,n"


@dataclass(frozen=True)
class MetricReport:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    log10: float
    delta1: float
    delta2: float
    delta3: float
    pixel_count: int

    def csv_row(self) -> str:
        return ",".join(map(repr, astuple(self)))


def compute_metrics(pred: np.ndarray, gt: Grid1) -> MetricReport:
    """The seven depth metrics of the (H, W) prediction array over the valid evaluation pixels."""
    if pred.shape != gt.values.shape:
        raise ShapeError("prediction and ground-truth shapes disagree")
    mask = (gt.plane > 0) & (pred > 0)  # NaN off the mask is not > 0
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise EmptyEvaluation("no valid pixel to evaluate")
    p = pred[mask]
    g = gt.plane[mask]

    err = np.abs(p - g)
    thresh = np.maximum(p / g, g / p)
    log_err = np.log(p) - np.log(g)

    return MetricReport(
        abs_rel=float(np.mean(err / g)),
        sq_rel=float(np.mean(err**2 / g)),
        rmse=float(np.sqrt(np.mean(err**2))),
        rmse_log=float(np.sqrt(np.mean(log_err**2))),
        log10=float(np.mean(np.abs(np.log10(p) - np.log10(g)))),
        delta1=float(np.mean(thresh < 1.25)),
        delta2=float(np.mean(thresh < 1.25**2)),
        delta3=float(np.mean(thresh < 1.25**3)),
        pixel_count=n,
    )


def mean_report(reports: list[MetricReport]) -> MetricReport:
    """Unweighted per-scene average, the usual benchmark aggregation."""
    if not reports:
        raise EmptyEvaluation("no reports to average")
    k = len(reports)
    sums = [sum(getattr(r, f.name) for r in reports) for f in fields(MetricReport)]
    # each rate is averaged; the pixel count (the one int field) is summed
    return MetricReport(*(s if f.type == "int" else s / k
                          for f, s in zip(fields(MetricReport), sums)))
