"""Golden output trees of a tiny in-process ``depthreg ablate`` and of ``gen-scenes``.

The ablation covers baseline, uniform and multi-range strategies plus one
point of each sample-count sweep on 12x12 scenes with two seeds.  Every
written file but ``ablation_summary.json`` must hash to the digests below,
which were recorded before the strategy types were folded into one
negative-range representation.  The ``gen-scenes`` tree is three 64x64
scenes of ``configs/benchmark.json``; its ``selfdiff.pgm`` label maps are
the only files written straight from ``differential_map`` and ``identify``.
Its digests were recorded before depth validity became one NaN-marked plane
per grid.  Float results depend on numpy's kernels, so the digests hold
only for the numpy version they were recorded with.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from depthreg.cli import main

NUMPY_VERSION = "2.4.6"

GOLDEN_CONFIG = {
    "scene": {"height": 12, "width": 12, "d_min": 0.5, "d_max": 10.0},
    "regularization": {
        "r_p": 0.1,
        "strategy": {"kind": "multi_range", "ranges": [[0.5, 1.0, 3.0], [1.0, 2.0, 6.0]]},
        "n_within": 2,
        "n_across": 1,
    },
    "depth_loss": {"variance_focus": 0.85, "output_scale": 10.0},
    "schedule": {"steps": 4, "batch_size": 2, "learning_rate": 0.01, "seeds": [5, 6],
                 "train_scenes": 4, "eval_scenes": 2, "eval_every": 2},
    "separation": {"near": 0.1, "far": 0.5},
    "output_dir": "golden",
    "ablation": {
        "strategies": {
            "baseline": {"kind": "disabled"},
            "uniform": {"kind": "uniform", "r_n": 0.5, "m_u": 4.0},
            "multi_range": {"kind": "multi_range",
                            "ranges": [[0.5, 1.0, 3.0], [1.0, 2.0, 6.0]]},
        },
        "sweep": {"n_within": [2], "n_across": [1]},
    },
}

DIGESTS = {
    "baseline/seed_5/eval.csv": "3fda0d04c3e9ca13d1fb00c8ecda85c0fd03b401a371638c8c68959fc7ace8f0",
    "baseline/seed_5/record.csv": "22a155cfeff1bebc83ab1cd19a8a30c4f6bed35d61aaf9a444af617d2696c1e4",
    "baseline/seed_5/summary.json": "01bc59c77919adbf62d7a93416a5205ba1fe1f6915462317ad1d7226a177f4f4",
    "baseline/seed_6/eval.csv": "53498a8a760ed9206d5799940d13ebb731febcad55ba60e53a45cec4e872456e",
    "baseline/seed_6/record.csv": "2fe9e947ec35fa33a4658cf5226235ac8764b92a72628aee3d7396e8c5b6aaa8",
    "baseline/seed_6/summary.json": "9e695e5349ae1dcc2085ae94ad0e0b30ae20b7758c3335747d207564f31a4e60",
    "config.json": "31be6c2dec609c7ebfd80102c33ed38f49a01879a1bc0c4b395ea0714c4a4ea4",
    "multi_range/seed_5/eval.csv": "2567a95fc90512c6381e3d7e430d467673cb5b91514eeb1f191ee144793163bc",
    "multi_range/seed_5/record.csv": "7b632601f0b05e8bbd83ba10b429ad17d3abaf95748e8544c12a985e5e6ab8ab",
    "multi_range/seed_5/summary.json": "77f0f2b6daff753ffb9421a67c75e5fd7fe296f72cd7282a33cb67f16c98785c",
    "multi_range/seed_6/eval.csv": "1f0f0f199e6c2e15a8789544996376f080e496f8c98cdc6e574cd3a0e48cd973",
    "multi_range/seed_6/record.csv": "3933bfd7c6b7072df360e4e73e873e72a3c40d945f21effa7d2178a2fcdc9009",
    "multi_range/seed_6/summary.json": "0535c04e3469f676db023a51f8392e149c45fb04f9e4412b5715b16421a00ee2",
    "sweep_n_across.dat": "cb96ba2d4748fca67fc77888637c62ccbfa34faa64344c3ce5a7b4cb6fb4ea4f",
    "sweep_n_across_1/seed_5/eval.csv": "714fcf7dbf6c80b6413b040d8e05fac5876658461ecff6c6a84fcda2204031ad",
    "sweep_n_across_1/seed_5/record.csv": "ca18d95c06f0962d5b2197115b11528d566401042f0fc46f6633c0d8fdbcf6b9",
    "sweep_n_across_1/seed_5/summary.json": "e75d821977c3e3234c15242b82d8d35d81a0f735aa4c2910a6ee057c02552fb6",
    "sweep_n_across_1/seed_6/eval.csv": "400f566be46728529c557446cdf7b3675c7da4d80867cdbc3ea20e71aadbe24d",
    "sweep_n_across_1/seed_6/record.csv": "65d86a921d56b2c945ed7456cc2cb229052d01f188d5b596c998741ec2b363b1",
    "sweep_n_across_1/seed_6/summary.json": "c7daf1d3dcd6cc3874c84610adec7ef144d1036fcbd39ddbc4736bace6ca5a80",
    "sweep_n_within.dat": "83f6e6708be7a930f8e71a7b5be61f906808d17d367fbdee5eab934f3b38d03d",
    "sweep_n_within_2/seed_5/eval.csv": "220594851b21007c9d192cb0ffd57d66010ecd9a0da1e1e01eb810ce4c1aa250",
    "sweep_n_within_2/seed_5/record.csv": "5e2763a6dfe4dc890e90b99a2ed1406589be5d0693122e11d25d0b3dd1a74357",
    "sweep_n_within_2/seed_5/summary.json": "135784fd602e000e828c44f02233092a57f4e19d5c794d7dea401268a4fdda76",
    "sweep_n_within_2/seed_6/eval.csv": "91bc518e403bc1bd726cc5ec00522d6e9efbd5971a0c743fc092893c3be4e587",
    "sweep_n_within_2/seed_6/record.csv": "1ca0b44100cdfa0683e0edb736f0ae1258454144177f512d420bf97e272d5118",
    "sweep_n_within_2/seed_6/summary.json": "628edcc6bf9bc464bf6c7ae8cc3d55a352d362dac9e459f22eacaf01acbf60d0",
    "uniform/seed_5/eval.csv": "599efcb4433e7dda31b48a25d20d4ec536cd94d7fd90902a531d95ff3fe061c4",
    "uniform/seed_5/record.csv": "781df33a92b39a1e43fa3c05c9abec13b685d0ed639491ff08962e9876d8be96",
    "uniform/seed_5/summary.json": "3a826102e66a9155fb8315ecd3b77c081f01677c38e50d411455675bfc6a83a5",
    "uniform/seed_6/eval.csv": "34092432c423b91dd127ce20630345276e5a3b1d0a7f933e21471469a874c87e",
    "uniform/seed_6/record.csv": "be95d32c049f31615de225a57f841aaaf1aab2e93b0d118c4159edbba852e37a",
    "uniform/seed_6/summary.json": "90404a3104e2aa817eb4c3f5640cea9cf25696f9f5cbe3a149ba8414047ed594",
}


SCENE_DIGESTS = {
    "manifest.json": "42b4be9bdc8e01402d95c04bffc8c550588ccb7ec9fd2625699f28acb9aa44dc",
    "scene_0000.depth.pfm": "a86d0b5b8e3cd68ae472800187cbdace132c411e59563635d34713be663efc20",
    "scene_0000.depth.pfm.mask": "4fdd600892f7d61608383a6f94b6b68a8630b65c0976dea3f5e410d4c4ff0bbd",
    "scene_0000.image.pfm": "a45e84beeaaf0f4d63aa2ad8ae1f13e1cb6d415eb7caff32126b9aa2c080986f",
    "scene_0000.selfdiff.pgm": "640d4ed0a55eb93731e4c5b35504773cf6a89487270c63cec92f6d528d34e14d",
    "scene_0001.depth.pfm": "55dcda780a45e5d223699b50472863d7df28ca4d95d91a149034b94e9010a3fb",
    "scene_0001.depth.pfm.mask": "4fdd600892f7d61608383a6f94b6b68a8630b65c0976dea3f5e410d4c4ff0bbd",
    "scene_0001.image.pfm": "421f398140fce7a1a553a2fbbca511abc97c333680f1a8e249478a60ff75e524",
    "scene_0001.selfdiff.pgm": "2f93e57f818a12ec79d33445fb35eb06ff0df70c5c843b87491ae4ca2f0511b8",
    "scene_0002.depth.pfm": "102e6ba59076160fbac9a4420af9cdf67f63858b2031b9f78d202d4a4f0f7548",
    "scene_0002.depth.pfm.mask": "4fdd600892f7d61608383a6f94b6b68a8630b65c0976dea3f5e410d4c4ff0bbd",
    "scene_0002.image.pfm": "f9a7c0b2d1b63febe0d2e2fccb2bc9b93dc0a900086ab97352c40c41f269c0fb",
    "scene_0002.selfdiff.pgm": "56cc80345fc52aafd593d19a27742de5654dd5a30a5e82f10695b66e107d9780",
}

BENCHMARK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests recorded with numpy {NUMPY_VERSION}, running {np.__version__}")


def digests(out, skip=()):
    """sha256 of every file under ``out`` but those named in ``skip``, by relative path."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def test_ablate_tree_matches_golden_digests(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(config), "--out", str(out)]) == 0
    assert digests(out, skip=("ablation_summary.json",)) == DIGESTS


def test_gen_scenes_tree_matches_golden_digests(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--config", str(BENCHMARK_CONFIG), "--out", str(out),
                 "--count", "3", "--seed", "5"]) == 0
    assert digests(out) == SCENE_DIGESTS
