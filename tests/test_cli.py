import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depthreg import experiment
from depthreg.cli import main
from depthreg.experiment import (
    ablation_from_dict,
    config_from_dict,
    config_to_dict,
    load_config_file,
    run_ablation,
)
from depthreg.errors import InvalidConfig
from depthreg.grid import Grid1
from depthreg.pfmio import write_pfm_g1
from depthreg.toybench import train as train_module

ROOT = Path(__file__).parents[1]


def tiny_config(out_dir, **overrides):
    cfg = {
        "scene": {"height": 16, "width": 16, "d_min": 0.5, "d_max": 10.0},
        "regularization": {
            "r_p": 0.1,
            "strategy": {"kind": "multi_range", "ranges": [[0.5, 1.0, 3.0], [1.0, 2.0, 6.0]]},
            "n_within": 2,
            "n_across": 1,
        },
        "depth_loss": {"variance_focus": 0.85, "output_scale": 10.0},
        "schedule": {
            "steps": 4,
            "batch_size": 2,
            "learning_rate": 0.01,
            "seeds": [5, 6],
            "train_scenes": 4,
            "eval_scenes": 2,
            "eval_every": 2,
        },
        "separation": {"near": 0.1, "far": 0.5},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg_dict = tiny_config(tmp_path / "out")
        cfg = config_from_dict(cfg_dict)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_round_trip_uniform_and_disabled(self, tmp_path):
        for strat in ({"kind": "uniform", "r_n": 0.5, "m_u": 4.0}, {"kind": "disabled"}):
            cfg_dict = tiny_config(tmp_path, regularization={
                "r_p": 0.1, "strategy": strat, "n_within": 2, "n_across": 0})
            cfg = config_from_dict(cfg_dict)
            assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_missing_file(self):
        with pytest.raises(InvalidConfig):
            load_config_file("/nonexistent/config.json")

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "scene": oops\n}')
        with pytest.raises(InvalidConfig, match=r":2:"):
            load_config_file(path)

    def test_missing_key(self, tmp_path):
        with pytest.raises(InvalidConfig, match="missing config key"):
            config_from_dict({"scene": {"height": 16}})

    @pytest.mark.parametrize("section, key", [
        (None, "outputdir"),
        ("scene", "depth"),
        ("regularization", "n_whithin"),
        ("depth_loss", "focus"),
        ("schedule", "step"),
        ("separation", "nearr"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        cfg = tiny_config(tmp_path)
        (cfg if section is None else cfg.setdefault(section, {}))[key] = 3
        with pytest.raises(InvalidConfig, match=repr(key)):
            config_from_dict(cfg)

    @pytest.mark.parametrize("strategy, key", [
        ({"kind": "uniform", "r_n": 0.5, "m_u": 4.0, "ranges": []}, "ranges"),
        ({"kind": "multi_range", "ranges": [[0.5, 1.0, 3.0]], "m_u": 4.0}, "m_u"),
        ({"kind": "disabled", "r_n": 0.5}, "r_n"),
    ])
    def test_unknown_strategy_key_rejected(self, tmp_path, strategy, key):
        cfg = tiny_config(tmp_path)
        cfg["regularization"]["strategy"] = strategy
        with pytest.raises(InvalidConfig, match=repr(key)):
            config_from_dict(cfg)

    def test_misspelt_key_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = tiny_config(out)
        cfg["regularization"]["n_whithin"] = 3
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert "n_whithin" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_numbers_pass_as_ints(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg["scene"]["height"] = 16.0
        cfg["schedule"]["seeds"] = [5.0, 6]
        parsed = config_from_dict(cfg)
        assert parsed.scene.height == 16 and type(parsed.scene.height) is int
        assert parsed.schedule.seeds == (5, 6)
        assert all(type(s) is int for s in parsed.schedule.seeds)

    @pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("configs/*.json")))
    def test_shipped_configs_load(self, path):
        config_from_dict(load_config_file(path))

    @pytest.mark.parametrize("section, key, value, name", [
        ("regularization", "r_p", "abc", "regularization.r_p"),
        ("regularization", "strategy", {"kind": "multi_range", "ranges": [[0.5, 1.0]]},
         "regularization.strategy.ranges"),
        ("schedule", "seeds", 5, "schedule.seeds"),
        ("scene", "height", "x", "scene.height"),
        # no silent coercion: truncation, strings, bools, non-finite numbers
        ("schedule", "steps", 2.7, "schedule.steps"),
        ("schedule", "seeds", "12", "schedule.seeds"),
        ("schedule", "seeds", [5, 6.5], "schedule.seeds"),
        ("schedule", "batch_size", True, "schedule.batch_size"),
        ("scene", "height", "16", "scene.height"),
        ("scene", "d_min", float("nan"), "scene.d_min"),
        ("scene", "d_max", float("inf"), "scene.d_max"),
        pytest.param("scene", "d_max", 10 ** 400, "scene.d_max", id="scene-d_max-huge-int"),
        ("regularization", "r_p", "0.1", "regularization.r_p"),
        ("regularization", "r_p", True, "regularization.r_p"),
        ("regularization", "strategy",
         {"kind": "multi_range", "ranges": [[0.5, 1.0, float("nan")]]},
         "regularization.strategy.ranges"),
        ("depth_loss", "output_scale", float("-inf"), "depth_loss.output_scale"),
        # string fields take only strings: null is not "None", 5 is not "5"
        ("config", "output_dir", None, "config.output_dir"),
        ("config", "output_dir", 5, "config.output_dir"),
        # an empty path is the working directory
        ("config", "output_dir", "", "config.output_dir"),
        ("regularization", "loss_reduction", None, "regularization.loss_reduction"),
    ])
    def test_bad_value_names_section_key_and_exits_2(self, tmp_path, capsys, monkeypatch,
                                                    section, key, value, name):
        monkeypatch.chdir(tmp_path)  # a coerced output_dir would land here
        out = tmp_path / "runs"
        cfg = tiny_config(out)
        (cfg if section == "config" else cfg[section])[key] = value
        with pytest.raises(InvalidConfig, match=name):
            config_from_dict(cfg)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert name in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    # The benchmark under perfbench/ builds its configs in workload_spec; a
    # parser that rejected one of them would fail every benchmark run.
    @pytest.mark.parametrize("scale", ["full", "tiny"])
    @pytest.mark.parametrize("workload", [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ])
    def test_benchmark_configs_load(self, monkeypatch, workload, scale):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        _, config, _ = importlib.import_module("workload").workload_spec(workload, scale)
        config_from_dict(config)
        if "ablation" in config:
            ablation_from_dict(config["ablation"])

    # The benchmark times each layer by replacing the functions in its HOOKS;
    # a hook whose target is gone drops that layer from every benchmark run.
    def test_benchmark_hook_targets_exist(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        hooks = importlib.import_module("tracing").HOOKS
        assert hooks
        missing = [(module, attr) for module, attr, _ in hooks
                   if not callable(getattr(importlib.import_module(module), attr, None))]
        assert missing == []

    # The benchmark's self-test recomputes classification, losses and
    # gradients independently of the package and checks its hooks; a change
    # that breaks either fails here, not first in a benchmark run.  It writes
    # only under perfbench/work and perfbench/results, both git-ignored.
    def test_benchmark_selftest_passes(self):
        out = subprocess.run([sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]

    def test_separation_thresholds_validated(self, tmp_path):
        with pytest.raises(InvalidConfig, match="separation"):
            config_from_dict(tiny_config(tmp_path, separation={"near": 0.6, "far": 0.5}))


class TestVerificationCommands:
    def test_gradcheck_passes_quick(self, capsys):
        assert main(["gradcheck", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_gradcheck_tiny_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--trials", "3", "--tolerance", "1e-300"]) == 1
        assert capsys.readouterr().out.count("FAIL") == 3

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
    def test_gradcheck_tolerance_not_finite_and_positive_exits_2(self, capsys, tolerance):
        with pytest.raises(SystemExit) as exc:  # argparse rejects the flag value
            main(["gradcheck", "--trials", "1", "--tolerance", tolerance])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith("usage: depthreg gradcheck")
        assert "argument --tolerance: must be finite and > 0" in err
        assert "FAIL" not in out

    def test_oracle_passes_quick(self, capsys):
        assert main(["oracle", "--trials", "5"]) == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_oracle_zero_trials_warns(self, capsys):
        assert main(["oracle", "--trials", "0"]) == 0
        assert "WARN" in capsys.readouterr().out

    def test_gradcheck_zero_trials_warns(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 0
        assert capsys.readouterr().out == "WARN gradcheck suite: trials=0, vacuously passing\n"


class TestTrainCommand:
    def test_train_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "runs"
        path = write_config(tmp_path, tiny_config(out))
        assert main(["train", "--config", path]) == 0
        for seed in (5, 6):
            run = out / "run" / f"seed_{seed}"
            assert (run / "record.csv").exists()
            assert (run / "eval.csv").exists()
            summary = json.loads((run / "summary.json").read_text())
            assert summary["seed"] == seed
            assert summary["final_eval"]["abs_rel"] > 0

    def test_single_seed_override(self, tmp_path, capsys):
        out = tmp_path / "runs"
        path = write_config(tmp_path, tiny_config(out))
        assert main(["train", "--config", path, "--seed", "9"]) == 0
        assert (out / "run" / "seed_9").exists()
        assert not (out / "run" / "seed_5").exists()

    def test_record_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "runs"
        path = write_config(tmp_path, tiny_config(out))
        main(["train", "--config", path, "--seed", "5"])
        lines = (out / "run" / "seed_5" / "record.csv").read_text().splitlines()
        assert lines[0] == "step,l_re,l_depth,l_final,contributing,ignored_fraction"
        assert len(lines) == 1 + 4  # header + one row per step

    def test_disabled_strategy_with_batch_of_one_trains(self, tmp_path, capsys):
        """A disabled regularizer draws no cross-batch samples, so one scene per batch is enough."""
        out = tmp_path / "runs"
        cfg = tiny_config(out)
        cfg["regularization"].update(strategy={"kind": "disabled"}, n_across=4)
        cfg["schedule"].update(batch_size=1, seeds=[5])
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        assert (out / "run" / "seed_5" / "record.csv").exists()

    def test_missing_config_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "gen-scenes"])
def test_config_not_utf8_exits_2_without_outputs(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and "not UTF-8" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", ["train", "ablate", "gen-scenes"])
@pytest.mark.parametrize("scene", [{"height": 4}, {"d_min": 5.0, "d_max": 1.0}],
                         ids=["height-4", "d_min-above-d_max"])
def test_bad_scene_exits_2_without_outputs(tmp_path, capsys, command, scene):
    cfg = tiny_config(tmp_path / "out")
    cfg["scene"].update(scene)
    cfg["ablation"] = {"strategies": {"baseline": {"kind": "disabled"}}}
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "gen-scenes":
        argv += ["--out", str(tmp_path / "scenes")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestEvalAndScenes:
    def test_gen_scenes_then_eval(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        scene_dir = tmp_path / "scenes"
        assert main(["gen-scenes", "--config", cfg_path, "--out", str(scene_dir),
                     "--count", "2", "--seed", "3"]) == 0
        files = sorted(p.name for p in scene_dir.iterdir())
        assert "scene_0000.depth.pfm" in files
        assert "scene_0000.depth.pfm.mask" in files
        assert "scene_0000.image.pfm" in files
        assert "scene_0000.selfdiff.pgm" in files
        assert "manifest.json" in files

        capsys.readouterr()
        assert main(["eval", "--pred", str(scene_dir / "scene_0000.depth.pfm"),
                     "--gt", str(scene_dir / "scene_0000.depth.pfm")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("abs_rel,")
        first = [float(x) for x in out[1].split(",")[:5]]
        assert first == [0.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("drop", ["scene", "width"])
    def test_gen_scenes_missing_scene_key_exits_2(self, tmp_path, capsys, drop):
        cfg = tiny_config(tmp_path / "out")
        cfg["scene"].pop(drop) if drop != "scene" else cfg.pop("scene")
        assert main(["gen-scenes", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "scenes")]) == 2
        assert f"missing config key: '{drop}'" in capsys.readouterr().err

    def test_eval_rejects_negative_pfm_size(self, tmp_path, capsys):
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(b"Pf\n-2 -2\n-1.0\n" + bytes(16))
        assert main(["eval", "--pred", str(bad), "--gt", str(bad)]) == 2
        assert "positive integers" in capsys.readouterr().err

    def test_gen_scenes_deterministic(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-scenes", "--config", cfg_path, "--out", str(a), "--count", "2"])
        main(["gen-scenes", "--config", cfg_path, "--out", str(b), "--count", "2"])
        for name in ("scene_0001.image.pfm", "scene_0001.depth.pfm", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


# Each case gets tmp_path and the paths of a valid config and depth map in it.
BAD_INVOCATIONS = {
    "eval-missing-pred": lambda t, cfg, gt: ["eval", "--pred", t / "nope.pfm", "--gt", gt],
    "eval-directory-pred": lambda t, cfg, gt: ["eval", "--pred", t, "--gt", gt],
    "eval-out-in-missing-dir": lambda t, cfg, gt: ["eval", "--pred", gt, "--gt", gt,
                                                   "--out", t / "nodir" / "m.csv"],
    "train-directory-config": lambda t, cfg, gt: ["train", "--config", t],
    "train-out-is-file": lambda t, cfg, gt: ["train", "--config", cfg, "--out", gt],
    "gen-scenes-out-is-file": lambda t, cfg, gt: ["gen-scenes", "--config", cfg, "--out", gt],
    "eval-empty-out": lambda t, cfg, gt: ["eval", "--pred", gt, "--gt", gt, "--out", ""],
    "oracle-negative-trials": lambda t, cfg, gt: ["oracle", "--trials", "-3"],
    "gradcheck-negative-trials": lambda t, cfg, gt: ["gradcheck", "--trials", "-2"],
    "gen-scenes-negative-count": lambda t, cfg, gt: ["gen-scenes", "--config", cfg,
                                                     "--out", t / "scenes", "--count", "-2"],
}


@pytest.mark.parametrize("case", BAD_INVOCATIONS)
def test_unusable_file_or_negative_count_exits_2_without_outputs(tmp_path, capsys, case):
    cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
    gt = tmp_path / "gt.pfm"
    write_pfm_g1(gt, Grid1(np.ones((4, 4))))
    before = sorted(tmp_path.rglob("*"))
    argv = [str(a) for a in BAD_INVOCATIONS[case](tmp_path, cfg, gt)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["train", "ablate", "gen-scenes"])
def test_empty_out_exits_2_without_outputs(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # an empty path names the working directory
    cfg = tiny_config(tmp_path / "out")
    cfg["ablation"] = {"strategies": {"baseline": {"kind": "disabled"}}}
    with pytest.raises(SystemExit) as exc:  # argparse rejects the flag value
        main([command, "--config", write_config(tmp_path, cfg), "--out", ""])
    assert exc.value.code == 2
    assert "argument --out: must be a non-empty path" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestAblateCommand:
    def ablate_config(self, out_dir):
        cfg = tiny_config(out_dir)
        cfg["schedule"]["seeds"] = [5, 6]
        cfg["ablation"] = {
            "strategies": {
                "baseline": {"kind": "disabled"},
                "uniform": {"kind": "uniform", "r_n": 0.5, "m_u": 4.0},
                "multi_range": {"kind": "multi_range",
                                "ranges": [[0.5, 1.0, 3.0], [1.0, 2.0, 6.0]]},
            },
            "sweep": {"n_within": [1, 2]},
        }
        return cfg

    def test_ablate_layout_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ablation"
        path = write_config(tmp_path, self.ablate_config(out))
        assert main(["ablate", "--config", path]) == 0

        run_dirs = [p for p in out.rglob("record.csv")]
        # 3 strategies x 2 seeds + sweep: 2 counts x 2 seeds
        assert len(run_dirs) == 3 * 2 + 2 * 2

        summary = json.loads((out / "ablation_summary.json").read_text())
        assert set(summary["strategies"]) == {"baseline", "uniform", "multi_range"}
        for s in summary["strategies"].values():
            assert len(s["per_seed"]) == 2
            assert s["mean_abs_rel"] > 0
            assert (s["mean_abs_rel_n"], s["mean_separation_n"], s["n_diverged"]) == (2, 2, 0)
        assert [(p["count"], p["mean_abs_rel_n"], p["n_diverged"])
                for p in summary["sweep_n_within"]] == [(1, 2, 0), (2, 2, 0)]

        sweep = (out / "sweep_n_within.dat").read_text().splitlines()
        assert len(sweep) == 2
        assert sweep[0].split()[0] == "1"

    def test_ablate_prints_one_progress_line_per_run(self, tmp_path, capsys):
        out = tmp_path / "ablation"
        cfg = self.ablate_config(out)
        cfg["ablation"] = {"strategies": {"baseline": {"kind": "disabled"},
                                          "uniform": {"kind": "uniform", "r_n": 0.5, "m_u": 4.0}}}
        assert main(["ablate", "--config", write_config(tmp_path, cfg)]) == 0
        want = []
        for i, (name, seed) in enumerate([("baseline", 5), ("baseline", 6),
                                          ("uniform", 5), ("uniform", 6)], 1):
            summary = json.loads((out / name / f"seed_{seed}" / "summary.json").read_text())
            abs_rel = summary["final_eval"]["abs_rel"]
            want.append(f"[{i}/4] {name} seed {seed}: 4 steps, abs_rel={abs_rel:.6f}")
        assert capsys.readouterr().err.splitlines() == want

    @pytest.mark.parametrize("edit, name", [
        (lambda ab: ab.update(sweeps=ab.pop("sweep")), "'sweeps'"),
        (lambda ab: ab.update(sweep={"n_whithin": [1]}), "'n_whithin'"),
        (lambda ab: ab.update(sweep={"n_within": 3}), "ablation.sweep.n_within"),
        (lambda ab: ab.update(strategies={}), "ablation.strategies"),
        (lambda ab: ab.update(sweep_strategy={"kind": "uniform"}), "'r_n'"),
        (lambda ab: ab.update(sweep={"n_within": [1.5]}), "ablation.sweep.n_within"),
        (lambda ab: ab.update(sweep={"n_within": [1, -1]}), "ablation.sweep.n_within"),
        # ranges are checked against r_p (0.1) for every run before the first
        (lambda ab: ab["strategies"].update(low={"kind": "multi_range",
                                                 "ranges": [[0.05, 1.0, 3.0]]}),
         "ablation.strategies.low"),
        (lambda ab: ab.update(sweep_strategy={"kind": "uniform", "r_n": 0.05, "m_u": 4.0}),
         "ablation.sweep_strategy"),
    ])
    def test_bad_ablation_section_exits_2(self, tmp_path, capsys, edit, name):
        out = tmp_path / "ablation"
        cfg = self.ablate_config(out)
        edit(cfg["ablation"])
        assert main(["ablate", "--config", write_config(tmp_path, cfg)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    # One scene per batch leaves no other item to draw cross-batch samples
    # from: every run that would draw them is rejected before the first trains.
    @pytest.mark.parametrize("n_across, sweep, name", [
        (0, {"n_across": [1]}, "ablation.sweep.n_across"),
        (0, {"n_within": [1], "n_across": [0, 2]}, "ablation.sweep.n_across"),
        # the disabled baseline draws no samples, so the first strategy rejected is uniform
        (1, {"n_within": [1]}, "ablation.strategies.uniform"),
    ])
    def test_across_samples_with_batch_of_one_exits_2(self, tmp_path, capsys, n_across, sweep,
                                                      name):
        out = tmp_path / "ablation"
        cfg = self.ablate_config(out)
        cfg["schedule"]["batch_size"] = 1
        cfg["regularization"]["n_across"] = n_across
        cfg["ablation"]["sweep"] = sweep
        assert main(["ablate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert name in err and "batch_size >= 2" in err
        assert not out.exists()

    def test_batch_of_one_without_across_samples_ablates(self, tmp_path, capsys):
        out = tmp_path / "ablation"
        cfg = self.ablate_config(out)
        cfg["schedule"].update(batch_size=1, seeds=[5])
        cfg["regularization"]["n_across"] = 0
        assert main(["ablate", "--config", write_config(tmp_path, cfg)]) == 0
        assert len(list(out.rglob("record.csv"))) == 3 + 2

    @staticmethod
    def spy(monkeypatch, module, name, record):
        """Replace ``module.name`` by a wrapper that calls ``record`` with its arguments first."""
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            record(*args, **kwargs)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    def test_ablation_generates_each_pool_once_per_call(self, tmp_path, capsys, monkeypatch):
        calls = []
        self.spy(monkeypatch, train_module, "scene_pool", lambda *key: calls.append(key))
        path = write_config(tmp_path, self.ablate_config(tmp_path / "ablation"))
        assert main(["ablate", "--config", path]) == 0
        # 10 runs over seeds 5 and 6: one train and one held-out pool per seed
        assert len(calls) == 2 * 2 and len(set(calls)) == 4
        # the store lives for one call only: a second ablation generates them again
        assert main(["ablate", "--config", path]) == 0
        assert calls[4:] == calls[:4]

    def test_train_generates_pools_per_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        self.spy(monkeypatch, train_module, "scene_pool", lambda *key: calls.append(key))
        assert main(["train", "--config", write_config(tmp_path, tiny_config(tmp_path / "o"))]) == 0
        assert len(calls) == 2 * 2

    def test_runs_of_one_seed_share_scene_objects(self, tmp_path, capsys, monkeypatch):
        runs = []  # (seed, training scenes, held-out scenes) per run, in training order
        self.spy(monkeypatch, experiment, "train_run", lambda *a, **k: runs.append((a[5], [], [])))
        self.spy(monkeypatch, train_module, "batch_objective",
                 lambda model, scenes, *a: runs[-1][1].extend(scenes))
        self.spy(monkeypatch, train_module, "evaluate_model",
                 lambda model, scenes, *a: runs[-1][2].extend(scenes))
        path = write_config(tmp_path, self.ablate_config(tmp_path / "ablation"))
        assert main(["ablate", "--config", path]) == 0
        seen = {}
        for seed, train, held_out in runs:
            seen.setdefault(seed, []).append(([id(s) for s in train], [id(s) for s in held_out]))
        assert sorted(seen) == [5, 6] and [len(v) for v in seen.values()] == [5, 5]
        for per_run in seen.values():
            assert all(ids == per_run[0] for ids in per_run)
        assert not set(seen[5][0][0]) & set(seen[6][0][0])

    def test_ablate_byte_identical_rerun(self, tmp_path, capsys):
        out = tmp_path / "ablation"
        cfg = self.ablate_config(out)
        cfg["ablation"].pop("sweep")
        cfg["schedule"]["seeds"] = [5]
        path = write_config(tmp_path, cfg)
        main(["ablate", "--config", path])
        first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        main(["ablate", "--config", path])
        second = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert first == second


def strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestNonFiniteOutputs:
    # A near threshold below every nonzero depth differential and a far one
    # above every differential leave each held-out scene without far pairs,
    # so the separation statistic is not finite.
    NO_FAR_PAIRS = {"near": 1e-12, "far": 1e9}

    def test_train_writes_null_separation_with_reason(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = tiny_config(out, separation=self.NO_FAR_PAIRS)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        assert "separation=n/a" in capsys.readouterr().out
        final = strict_json(out / "run" / "seed_5" / "summary.json")["final_eval"]
        assert final["separation"] is None
        assert final["separation_reason"].startswith("inf: ")
        assert final["abs_rel"] > 0 and "abs_rel_reason" not in final

    def test_finite_summary_has_no_reason_fields(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["train", "--config", write_config(tmp_path, tiny_config(out))]) == 0
        final = strict_json(out / "run" / "seed_5" / "summary.json")["final_eval"]
        assert not [k for k in final if k.endswith("_reason")]

    def test_ablate_null_mean_separation_with_counts(self, tmp_path, capsys):
        out = tmp_path / "ablation"
        cfg = TestAblateCommand().ablate_config(out)
        cfg["separation"] = self.NO_FAR_PAIRS
        cfg["ablation"]["sweep"] = {"n_across": [1]}
        assert main(["ablate", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.count("mean_separation=n/a") == 3
        summary = strict_json(out / "ablation_summary.json")
        for s in summary["strategies"].values():
            assert s["mean_separation"] is None and s["mean_separation_n"] == 0
            assert s["mean_separation_reason"].startswith("nan: ")
            assert s["mean_abs_rel"] > 0 and s["mean_abs_rel_n"] == 2
            assert "mean_abs_rel_reason" not in s
            assert s["n_diverged"] == 0
            for p in s["per_seed"]:
                assert p["separation"] is None and p["separation_reason"].startswith("inf: ")
        [point] = summary["sweep_n_across"]
        assert point["mean_abs_rel_n"] == 2 and point["n_diverged"] == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_ablate_counts_diverged_seeds(self, tmp_path, capsys):
        # lr 0.1 overflows the depth head before the only evaluation, at the
        # last step, in every run but one uniform seed
        out = tmp_path / "ablation"
        cfg = TestAblateCommand().ablate_config(out)
        cfg["schedule"].update(learning_rate=0.1, eval_every=100)
        assert main(["ablate", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.count("mean_abs_rel=n/a") == 2
        summary = strict_json(out / "ablation_summary.json")
        strategies = summary["strategies"]
        for s in [strategies["baseline"], strategies["multi_range"]] + summary["sweep_n_within"]:
            assert s["n_diverged"] == 2
            assert s["mean_abs_rel"] is None and s["mean_abs_rel_n"] == 0
            assert s["mean_abs_rel_reason"].startswith("nan: ")
        uniform = strategies["uniform"]
        assert (uniform["n_diverged"], uniform["mean_abs_rel_n"]) == (1, 1)
        [finite] = [p["abs_rel"] for p in uniform["per_seed"] if not p["diverged"]]
        assert uniform["mean_abs_rel"] == finite
        assert (out / "sweep_n_within.dat").read_text().splitlines()[0] == "1 nan"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_at_evaluation_is_recorded(self, tmp_path, capsys):
        # lr 0.3 overflows the depth head's prediction in the only
        # evaluation, after the last step of seed 5
        out = tmp_path / "runs"
        cfg = tiny_config(out)
        cfg["schedule"].update(learning_rate=0.3, eval_every=100)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        out_text, err = capsys.readouterr()
        assert "seed 5: DIVERGED at step 3" in out_text
        assert err.splitlines()[0] == "[1/2] run seed 5: 4 steps, DIVERGED"
        summary = strict_json(out / "run" / "seed_5" / "summary.json")
        assert summary["diverged"] and summary["diverged_step"] == 3
        assert summary["steps_completed"] == 4 and summary["final_eval"] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ablate_counts_divergence_at_evaluation(self, tmp_path, capsys):
        # lr 0.05 makes the model overflow in the baseline's seed-5 evaluation
        out = tmp_path / "ablation"
        cfg = TestAblateCommand().ablate_config(out)
        cfg["schedule"].update(learning_rate=0.05, eval_every=100)
        assert main(["ablate", "--config", write_config(tmp_path, cfg)]) == 0
        baseline = strict_json(out / "ablation_summary.json")["strategies"]["baseline"]
        assert (baseline["n_diverged"], baseline["mean_abs_rel_n"]) == (1, 1)
