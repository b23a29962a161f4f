import numpy as np
import pytest

from depthreg.errors import ShapeError
from depthreg.grid import Grid1, Grid3, SeedRng
from depthreg.pfmio import (
    read_pfm_g1,
    read_pfm_g3,
    write_pfm_g1,
    write_pfm_g3,
    write_pgm_labels,
)


def f32_exact(arr):
    """Values that survive the PFM float32 payload unchanged."""
    return arr.astype(np.float32).astype(np.float64)


def test_g1_round_trip_with_mask(tmp_path):
    rng = SeedRng(11)
    vals = f32_exact(rng.uniforms(12).reshape(3, 4) * 9.0)
    valid = rng.uniforms(12).reshape(3, 4) > 0.3
    path = tmp_path / "depth.pfm"
    write_pfm_g1(path, Grid1(vals, valid))
    back = read_pfm_g1(path)
    assert np.array_equal(back.values, vals)
    assert np.array_equal(back.valid, valid)


def test_g1_without_sidecar_is_all_valid(tmp_path):
    path = tmp_path / "depth.pfm"
    write_pfm_g1(path, Grid1(np.ones((2, 2))))
    (tmp_path / "depth.pfm.mask").unlink()
    assert read_pfm_g1(path).valid.all()


@pytest.mark.parametrize("channels", [1, 3, 6])
def test_g3_round_trip(tmp_path, channels):
    rng = SeedRng(channels)
    data = f32_exact(rng.normals(4 * 5 * channels).reshape(4, 5, channels))
    path = tmp_path / "feat.pfm"
    write_pfm_g3(path, Grid3(data))
    back = read_pfm_g3(path)
    assert back.data.shape == (4, 5, channels)
    assert np.array_equal(back.data, data)


def test_pfm_header_is_little_endian(tmp_path):
    path = tmp_path / "x.pfm"
    write_pfm_g1(path, Grid1(np.ones((2, 2))))
    head = path.read_bytes()[:16]
    assert head.startswith(b"Pf\n2 2\n-1.0\n")


def test_write_is_deterministic(tmp_path):
    vals = f32_exact(SeedRng(3).uniforms(16).reshape(4, 4))
    g = Grid1(vals)
    write_pfm_g1(tmp_path / "a.pfm", g)
    write_pfm_g1(tmp_path / "b.pfm", g)
    assert (tmp_path / "a.pfm").read_bytes() == (tmp_path / "b.pfm").read_bytes()


def test_pgm_label_dump(tmp_path):
    labels = np.array([[0, 1], [2, -1]], dtype=np.int16)
    path = tmp_path / "labels.pgm"
    write_pgm_labels(path, labels)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert raw[-4:] == bytes([0, 1, 2, 255])


@pytest.mark.parametrize("header", [
    b"Pf\n-2 -2\n-1.0\n",
    b"Pf\n0 2\n-1.0\n",
    b"Pf\n2\n-1.0\n",
    b"Pf\n2 2 2\n-1.0\n",
    b"Pf\n2 x\n-1.0\n",
    b"Pf\n2 2\n0.0\n",
    b"Pf\n2 2\nnan\n",
    b"Pf\n2 2\n-inf\n",
    b"Pf\n2 2\noops\n",
])
def test_bad_header_rejected(tmp_path, header):
    path = tmp_path / "bad.pfm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ShapeError):
        read_pfm_g1(path)


def test_g1_bytes_after_payload_rejected(tmp_path):
    path = tmp_path / "depth.pfm"
    write_pfm_g1(path, Grid1(np.ones((2, 2))))
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(ShapeError):
        read_pfm_g1(path)


@pytest.mark.parametrize("tail", [b"Pf\n", b"Pf\n5 4\n-1.0\n" + bytes(8)])
def test_g3_trailing_partial_plane_rejected(tmp_path, tail):
    path = tmp_path / "feat.pfm"
    write_pfm_g3(path, Grid3(np.ones((4, 5, 6))))
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ShapeError):
        read_pfm_g3(path)
