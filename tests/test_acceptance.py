"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criteria 6 and 7 share the full directional benchmark (3 strategies x 5
seeds x 2000 steps at 64x64); it is session-scoped and marked ``slow``.
Run ``pytest -m "not slow"`` to skip it during development.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from depthreg.cli import main
from depthreg.experiment import (
    config_from_dict,
    load_config_file,
    run_ablation,
    strategy_from_dict,
)
from depthreg.grid import Grid1, Grid3, SeedRng
from depthreg.identify import (
    IGNORED,
    POSITIVE,
    MultiRange,
    NegativeRange,
    RegConfig,
    identify,
)
from depthreg.metrics import compute_metrics
from depthreg.verification import (
    rel_error,
    random_instance,
    reg_loss_with_gradients,
    run_metrics_oracle,
    run_model_gradcheck,
    run_regloss_gradcheck,
    run_regloss_oracle,
    run_siloss_gradcheck,
)

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} [{criterion}] {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_gradient_suite():
    t0 = time.time()
    reg = run_regloss_gradcheck(100, 1e-5)
    si = run_siloss_gradcheck(100, 1e-5)
    model = run_model_gradcheck(1e-4)
    elapsed = time.time() - t0
    ok = reg.passed and si.passed and model.passed and elapsed < 60
    report(
        "criterion 1: gradients vs central differences",
        ok,
        f"reg={reg.worst:.2e} si={si.worst:.2e} model={model.worst:.2e} "
        f"tolerances 1e-5/1e-5/1e-4, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_2_oracle_suite():
    t0 = time.time()
    reg = run_regloss_oracle(100)
    met = run_metrics_oracle(100)
    elapsed = time.time() - t0
    ok = reg.passed and met.passed and elapsed < 30
    report(
        "criterion 2: triple-loop oracle equivalence",
        ok,
        f"reg={reg.worst:.2e} metrics={met.worst:.2e} vs 1e-12, "
        f"runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_3_subsumption():
    rng = SeedRng(30303)
    uniform = strategy_from_dict({"kind": "uniform", "r_n": 0.5, "m_u": 2.0}, "strategy")
    worst = 0.0
    for _ in range(50):
        f_a, d_a, samples, base_cfg = random_instance(rng, max_h=5, max_w=5)
        uni = RegConfig(r_p=0.2, strategy=uniform, loss_reduction=base_cfg.loss_reduction)
        multi = RegConfig(r_p=0.2, strategy=MultiRange((NegativeRange(0.5, 1e12, 2.0),)),
                          loss_reduction=base_cfg.loss_reduction)
        a, a_grads = reg_loss_with_gradients(f_a, d_a, samples, uni)
        b, b_grads = reg_loss_with_gradients(f_a, d_a, samples, multi)
        worst = max(worst, rel_error(a.total, b.total, 1e-300))
        for ga, gb in zip(a_grads, b_grads):
            if ga.size:
                num = float(np.max(np.abs(ga - gb)))
                den = max(float(np.max(np.abs(ga))), float(np.max(np.abs(gb))), 1e-300)
                if num:
                    worst = max(worst, num / den)
    ok = worst <= 1e-12
    report(
        "criterion 3: multi-range subsumes uniform",
        ok,
        f"worst loss+gradient relative deviation {worst:.2e} <= 1e-12 over 50 instances",
    )


def test_criterion_4_identification_partition():
    rng = SeedRng(40404)
    boundaries = np.array([0.1, 0.5, 1.0, 1.5, 2.0])
    cfg = RegConfig(
        r_p=0.1,
        strategy=MultiRange(
            (NegativeRange(0.5, 1.0, 3.0), NegativeRange(1.0, 1.5, 6.0),
             NegativeRange(1.5, 2.0, 8.0))
        ),
    )
    uniform = RegConfig(r_p=0.1, strategy=strategy_from_dict(
        {"kind": "uniform", "r_n": 0.5, "m_u": 1.0}, "regularization.strategy"))
    mismatches = 0
    for _ in range(1000):
        vals = rng.uniforms(64).reshape(8, 8) * 2.4
        picks = (rng.uniforms(64).reshape(8, 8) * 5).astype(int)
        vals = np.where(rng.uniforms(64).reshape(8, 8) < 0.25, boundaries[picks], vals)
        valid = rng.uniforms(64).reshape(8, 8) > 0.08
        d_r = Grid1(vals, valid).plane

        got_u = identify(d_r, uniform)
        got_m = identify(d_r, cfg)
        for i in range(8):
            for j in range(8):
                v = vals[i, j]
                if not valid[i, j]:
                    want_u = want_m = IGNORED
                else:
                    want_u = POSITIVE if v < 0.1 else (1 if v > 0.5 else IGNORED)
                    want_m = POSITIVE if v < 0.1 else IGNORED
                    if valid[i, j] and v >= 0.1:
                        for g, r in enumerate(cfg.strategy.ranges, start=1):
                            if r.low < v < r.high:
                                want_m = g
                                break
                mismatches += (got_u[i, j] != want_u) + (got_m[i, j] != want_m)
    ok = mismatches == 0
    report(
        "criterion 4: identification partition",
        ok,
        f"{mismatches} mismatches against brute-force reclassification on 1000 maps "
        "(boundary equalities ignored)",
    )


def test_criterion_5_metric_unit_values():
    r = compute_metrics(Grid1(np.array([[2.0]])), Grid1(np.array([[1.0]])))
    errs = [
        abs(r.abs_rel - 1.0),
        abs(r.sq_rel - 1.0),
        abs(r.rmse - 1.0),
        abs(r.rmse_log - math.log(2.0)),
        abs(r.log10 - math.log10(2.0)),
        abs(r.delta1), abs(r.delta2), abs(r.delta3),
    ]
    perfect = compute_metrics(Grid1(np.array([[3.0, 4.0]])), Grid1(np.array([[3.0, 4.0]])))
    exact = (
        perfect.abs_rel == 0 and perfect.sq_rel == 0 and perfect.rmse == 0
        and perfect.rmse_log == 0 and perfect.log10 == 0
        and perfect.delta1 == 1 and perfect.delta2 == 1 and perfect.delta3 == 1
    )
    ok = max(errs) <= 1e-12 and exact
    report(
        "criterion 5: metric unit values",
        ok,
        f"single-pixel worst deviation {max(errs):.2e} <= 1e-12; perfect-prediction "
        f"report exact: {exact}",
    )


@pytest.fixture(scope="session")
def benchmark_summary(tmp_path_factory):
    raw = load_config_file(BENCHMARK_CONFIG)
    cfg = config_from_dict(raw)
    out = tmp_path_factory.mktemp("benchmark")
    t0 = time.time()
    summary = run_ablation(cfg, raw["ablation"], out)
    summary["_elapsed"] = time.time() - t0
    return summary


@pytest.mark.slow
def test_criterion_6_directional_ablation(benchmark_summary):
    s = benchmark_summary["strategies"]
    base = s["baseline"]
    uni = s["uniform"]
    multi = s["multi_range"]
    per_seed_base = {p["seed"]: p["abs_rel"] for p in base["per_seed"]}
    per_seed_multi = {p["seed"]: p["abs_rel"] for p in multi["per_seed"]}
    wins = sum(
        per_seed_multi[k] < per_seed_base[k] for k in per_seed_base
    )
    mean_order = multi["mean_abs_rel"] <= uni["mean_abs_rel"] <= base["mean_abs_rel"]
    elapsed = benchmark_summary["_elapsed"]
    ok = wins >= 4 and mean_order and elapsed < 1800
    report(
        "criterion 6: directional ablation ordering",
        ok,
        f"multi<base in {wins}/5 seeds; means multi={multi['mean_abs_rel']:.4f} "
        f"<= uniform={uni['mean_abs_rel']:.4f} <= baseline={base['mean_abs_rel']:.4f}: "
        f"{mean_order}; runtime {elapsed/60:.1f} min < 30 min",
    )


@pytest.mark.slow
def test_criterion_7_feature_separation(benchmark_summary):
    s = benchmark_summary["strategies"]
    base = {p["seed"]: p["separation"] for p in s["baseline"]["per_seed"]}
    multi = {p["seed"]: p["separation"] for p in s["multi_range"]["per_seed"]}
    wins = sum(multi[k] > base[k] for k in base)
    ok = wins >= 4
    report(
        "criterion 7: feature-separation effect",
        ok,
        f"multi-range separation exceeds baseline in {wins}/5 seeds "
        f"(means {s['multi_range']['mean_separation']:.2f} vs "
        f"{s['baseline']['mean_separation']:.2f})",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "scene": {"height": 16, "width": 16, "d_min": 0.5, "d_max": 10.0},
        "regularization": {
            "r_p": 0.1,
            "strategy": {"kind": "multi_range", "ranges": [[0.5, 1.0, 3.0]]},
            "n_within": 2,
            "n_across": 1,
        },
        "schedule": {"steps": 5, "batch_size": 2, "learning_rate": 0.01,
                     "seeds": [3, 4], "train_scenes": 4, "eval_scenes": 2,
                     "eval_every": 2},
        "output_dir": str(tmp_path / "unused"),
        "ablation": {"strategies": {"baseline": {"kind": "disabled"},
                                    "reg": {"kind": "uniform", "r_n": 0.5, "m_u": 4.0}}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_all(root):
        main(["train", "--config", str(cfg_path), "--out", str(root / "train")])
        main(["ablate", "--config", str(cfg_path), "--out", str(root / "ablate")])
        main(["gen-scenes", "--config", str(cfg_path), "--out", str(root / "scenes"),
              "--count", "2", "--seed", "5"])
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    ok = first == second and len(first) > 10
    report(
        "criterion 8: byte-identical reruns",
        ok,
        f"{len(first)} output files identical across independent reruns "
        "(train, ablate, gen-scenes)",
    )
