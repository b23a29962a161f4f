"""Golden output trees of a tiny in-process ``depthreg ablate`` and of ``gen-scenes``.

The ablation covers baseline, uniform and multi-range strategies plus one
point of each sample-count sweep on 12x12 scenes with two seeds.  Every
written file must hash to the digests below.  ``ablation_summary.json``'s
was added last, recorded from the code before the summary came to be
reduced from a run plan; the reducer reproduces it byte for byte.  The
others were re-recorded once when the model became channel-planar, which
sums its prediction, its last-layer weight gradient and its ``k = P``
weight-gradient products and bias-gradient sums in another order: every
value of the tree agreed with the previous code's within 7e-14 relative,
but most files changed in their last printed digits.  The ``gen-scenes`` tree is three 64x64
scenes of ``configs/benchmark.json``; its ``selfdiff.pgm`` label maps are
the only files written straight from a depth-plane differential and ``identify``.
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
    "ablation_summary.json": "da5b3dc79d38e3f8df4ff64b868ff7ba7cf9d2c89ec8ee570fd0a020c367ed70",
    "baseline/seed_5/eval.csv": "240d5415015cb4944add0e5c5a9f43a0d7ae0d3173dd8d49b9eef83d346a12cb",
    "baseline/seed_5/record.csv": "2456e06710a01c93b006f9a157eeb06ed860fb7c823abab2eb7968f83064fc1d",
    "baseline/seed_5/summary.json": "9951b79553bf10956078398c7a53e027a9940bba4aa2623b4cc61e8769f08dbe",
    "baseline/seed_6/eval.csv": "73843db3f99e02b00e9d10b97cf281cb2180445b0898c76d2dfe5b6de97ed247",
    "baseline/seed_6/record.csv": "2dd0c8a0f536b90d8e7fca9598d7594d81dc1d38306de09d983efca6d0131e1a",
    "baseline/seed_6/summary.json": "1bc4b6dcf6271191f08f6122f1447a2d082bf9c45bd42c667a189bf1ea88d05d",
    "config.json": "31be6c2dec609c7ebfd80102c33ed38f49a01879a1bc0c4b395ea0714c4a4ea4",
    "multi_range/seed_5/eval.csv": "8f1d1bdc44426768dab532ef5f03724b59742e51862f1eee58eff567b4aca894",
    "multi_range/seed_5/record.csv": "0c79ef190cc87388d3b92ad41ef603cad5fd9d6ea64d02118c920365c951488b",
    "multi_range/seed_5/summary.json": "c9b618757cf26865ec4835abce2d85c5d799ddcfe617e102f2bcc23f7221cba0",
    "multi_range/seed_6/eval.csv": "4acbb611701c00ad32d24e7323601f790c669f894dd51ada2b224eddebbbd783",
    "multi_range/seed_6/record.csv": "bc80129299c7010c26d190e95a74cc3a0e3c7da38168748a0c527d69ba731548",
    "multi_range/seed_6/summary.json": "d2d51b03e2661312676ddba4cbda2c8efa5cd0863143225c161d1cd9046b91ce",
    "sweep_n_across.dat": "f8fa9c94bfeeb27684e24f6e74f356687ebed76ea93895aec8989601692f0f7b",
    "sweep_n_across_1/seed_5/eval.csv": "5ca76c2e4df152649379daa3bf6eea2b6e348e538636fbc989d5ba3767923d68",
    "sweep_n_across_1/seed_5/record.csv": "babc5ae707ac78bbce7c9205766c803ff939ed07afa666204f88e5709d775cef",
    "sweep_n_across_1/seed_5/summary.json": "ec5163fa146abadaf3f1d3bc4aa73940f30da4f127ce8bbfa6b8b87558ba7163",
    "sweep_n_across_1/seed_6/eval.csv": "2aaeeffe59be4c4f9beb110c231e2ebb2c19b3295600f9d6fe189e21c598a3f6",
    "sweep_n_across_1/seed_6/record.csv": "f2b93ff82211873b5821929f22d298d65a27e8938cfdfcf19d6ce558b09762d0",
    "sweep_n_across_1/seed_6/summary.json": "ca3ed84fc7a9ad0737fd80964ab243f3a8e96dcc0505385ff3bed9790198728e",
    "sweep_n_within.dat": "83f6e6708be7a930f8e71a7b5be61f906808d17d367fbdee5eab934f3b38d03d",
    "sweep_n_within_2/seed_5/eval.csv": "c025d68742e033b4b1f4ea45296349b8fa21204e199ee958437cfd804a2d303c",
    "sweep_n_within_2/seed_5/record.csv": "eab900f33f58e377e06db5b164df7f4d8ab6833ccdafbe59283e71d2a3fb6ae9",
    "sweep_n_within_2/seed_5/summary.json": "cbd3eafd19b1c9a84f6c4961efdde0aae33ad5cd1a6caee5d634ac38654b675b",
    "sweep_n_within_2/seed_6/eval.csv": "503e6b05d4e2629ffa4ca917c0b6d0adcea15318a5965403508fa9d10aa2057e",
    "sweep_n_within_2/seed_6/record.csv": "6bb48c199111f8aa1aa58833d225e6e46909e7b6259c1418684e1e5ef7f848dc",
    "sweep_n_within_2/seed_6/summary.json": "887b47d9e7023a3c7fa110c4026a51c73361e02c2de62968cdd3f0f1c124cfcb",
    "uniform/seed_5/eval.csv": "704d423571597d338b2c97d29f52a9fd4403bee4853d0c1e82f8315a5264eb5d",
    "uniform/seed_5/record.csv": "ca8e0830a5078ee1442291f601db851414f7db1a80c73626e49879fbcdc9dbe4",
    "uniform/seed_5/summary.json": "6cdea7f6933788ad8f9544f452e836b2ceaf11d89018d767d01f8a20d4b871ba",
    "uniform/seed_6/eval.csv": "7677dca89b4cb35244b52297f90a78cb1e2c1237cb7ecaa4216b2dc8c47fc804",
    "uniform/seed_6/record.csv": "d5aba541b8698ed966a4f72f2a1ce458b1426ca5e9e6e21ebf3f7d5e98fd1b02",
    "uniform/seed_6/summary.json": "3b6df19eb30ebcdfe55551d5c66ecf5bf419d4c6bf24dbb4fdc61b66839a8eb9",
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


def digests(out):
    """sha256 of every file under ``out``, by relative path."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_ablate_tree_matches_golden_digests(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(config), "--out", str(out)]) == 0
    assert digests(out) == DIGESTS


def test_gen_scenes_tree_matches_golden_digests(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--config", str(BENCHMARK_CONFIG), "--out", str(out),
                 "--count", "3", "--seed", "5"]) == 0
    assert digests(out) == SCENE_DIGESTS
