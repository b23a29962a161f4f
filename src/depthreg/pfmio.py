"""PFM / PGM serialization for grids and label maps.

PFM (portable float map) stores float32 scanlines bottom-to-top; we always
write little-endian (negative scale).  ``Pf`` holds a depth map (1
channel), read back and checked as a ``Grid1``; ``PF`` a scene image (3
channels), written only.

The validity sidecar is a bare byte file of '0'/'1', row-major,
top-to-bottom (natural array order, unlike the PFM payload).

PGM dumps of label maps use binary P5 with maxval 255.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .grid import Grid1, Grid3


def _write_plane(fh, plane: np.ndarray, color: bool) -> None:
    h, w = plane.shape[:2]
    fh.write(b"PF\n" if color else b"Pf\n")
    fh.write(f"{w} {h}\n".encode("ascii"))
    fh.write(b"-1.0\n")
    fh.write(np.ascontiguousarray(plane[::-1], dtype="<f4").tobytes())


def _read_plane(fh):
    magic = fh.readline().strip()
    if magic != b"Pf":
        raise ShapeError(f"not a single-channel PFM (Pf): magic {magic!r}")
    size = fh.readline().split()
    if len(size) != 2 or not all(t.isdigit() and int(t) > 0 for t in size):
        raise ShapeError(f"PFM size line must be two positive integers, got {size!r}")
    w, h = (int(t) for t in size)
    scale_line = fh.readline()
    try:
        scale = float(scale_line)
    except ValueError:
        scale = math.nan
    if scale == 0.0 or not math.isfinite(scale):
        raise ShapeError(f"PFM scale must be a nonzero finite number, got {scale_line!r}")
    # checked before reading: a huge claimed size would overflow or exhaust memory
    if 4 * h * w > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ShapeError(f"truncated PFM payload: {w}x{h} floats claimed")
    raw = np.frombuffer(fh.read(4 * h * w), dtype="<f4" if scale < 0 else ">f4")
    # a signalling NaN would warn in the cast; the depth check rejects or ignores it
    with np.errstate(invalid="ignore"):
        return raw.astype(np.float64).reshape(h, w)[::-1].copy()


def write_pfm_g1(path: str | Path, grid: Grid1) -> None:
    """Depth map to ``path`` (Pf) plus '0'/'1' mask bytes to ``path + '.mask'``."""
    path = Path(path)
    with open(path, "wb") as fh:
        _write_plane(fh, grid.values, color=False)
    mask_bytes = np.where(grid.valid, ord("1"), ord("0")).astype(np.uint8)
    Path(str(path) + ".mask").write_bytes(mask_bytes.tobytes())


def read_pfm_g1(path: str | Path) -> Grid1:
    path = Path(path)
    with open(path, "rb") as fh:
        vals = _read_plane(fh)
        if fh.read(1):
            raise ShapeError("bytes after the PFM payload")
    mask_path = Path(str(path) + ".mask")
    if mask_path.exists():
        raw = np.frombuffer(mask_path.read_bytes(), dtype=np.uint8)
        if raw.size != vals.size:
            raise ShapeError("mask sidecar length mismatch")
        valid = raw == ord("1")
        if not (valid | (raw == ord("0"))).all():
            raise ShapeError("mask sidecar holds a byte other than '0' or '1'")
        valid = valid.reshape(vals.shape)
    else:
        valid = None
    return Grid1(vals, valid)


def write_pfm_g3(path: str | Path, grid: Grid3) -> None:
    """A 3-channel scene image to PFM (PF)."""
    with open(path, "wb") as fh:
        _write_plane(fh, grid.data, color=True)


def write_pgm_labels(path: str | Path, labels: np.ndarray) -> None:
    """Label map to binary PGM: positive=0, negative group j=j, ignored=255."""
    h, w = labels.shape
    pixels = np.where(labels < 0, 255, labels).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
