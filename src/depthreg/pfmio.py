"""PFM / PGM serialization for grids and label maps.

PFM (portable float map) stores float32 scanlines bottom-to-top; we always
write little-endian (negative scale).  ``Pf`` covers 1 channel and ``PF``
3 channels; any other channel count is written as C consecutive ``Pf``
planes in one file, which plain PFM readers see as the first channel.

The validity sidecar is a bare byte file of '0'/'1', row-major,
top-to-bottom (natural array order, unlike the PFM payload).

PGM dumps of label maps use binary P5 with maxval 255.
"""

from __future__ import annotations

import math
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
    if magic not in (b"PF", b"Pf"):
        raise ShapeError(f"not a PFM plane: magic {magic!r}")
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
    channels = 3 if magic == b"PF" else 1
    count = h * w * channels
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise ShapeError("truncated PFM payload")
    dt = "<f4" if scale < 0 else ">f4"
    arr = np.frombuffer(raw, dtype=dt).astype(np.float64)
    arr = arr.reshape(h, w, channels) if channels == 3 else arr.reshape(h, w)
    return arr[::-1].copy()


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
    if vals.ndim != 2:
        raise ShapeError("expected a single-channel PFM for depth")
    mask_path = Path(str(path) + ".mask")
    if mask_path.exists():
        raw = np.frombuffer(mask_path.read_bytes(), dtype=np.uint8)
        if raw.size != vals.size:
            raise ShapeError("mask sidecar length mismatch")
        valid = (raw == ord("1")).reshape(vals.shape)
    else:
        valid = None
    return Grid1(vals, valid)


def write_pfm_g3(path: str | Path, grid: Grid3) -> None:
    """Feature map to PFM: PF for C=3, Pf for C=1, else C stacked Pf planes."""
    with open(path, "wb") as fh:
        if grid.channels == 3:
            _write_plane(fh, grid.data, color=True)
        else:
            for c in range(grid.channels):
                _write_plane(fh, grid.data[:, :, c], color=False)


def read_pfm_g3(path: str | Path) -> Grid3:
    planes = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            planes.append(_read_plane(fh))
    if len(planes) == 1 and planes[0].ndim == 3:
        return Grid3(planes[0])
    for p in planes:
        if p.ndim != 2 or p.shape != planes[0].shape:
            raise ShapeError("inconsistent planes in stacked PFM")
    return Grid3(np.stack(planes, axis=-1))


def write_pgm_labels(path: str | Path, labels: np.ndarray) -> None:
    """Label map to binary PGM: positive=0, negative group j=j, ignored=255."""
    h, w = labels.shape
    pixels = np.where(labels < 0, 255, labels).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
