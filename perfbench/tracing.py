"""Spans around calls into the package's layers.

Each hook replaces a function in the module namespace it is looked up from
(``train_run`` calls ``batch_objective``, ``model_forward``... through
``depthreg.toybench.train``; ``reg_loss`` calls ``identify`` through
``depthreg.losses``), so the wrapper sees every call without any change to
the package.  A hook whose target no longer exists marks its layer absent.

Spans are ``[layer, start, end, parent]`` rows kept in memory; a layer's
self time is its span minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, layer).  One layer may own several hooks.
HOOKS = (
    ("depthreg.toybench.train", "batch_objective", "toybench.train.route"),
    ("depthreg.toybench.train", "build_sample_set", "sampling.collect"),
    ("depthreg.toybench.train", "reg_loss", "losses.reg"),
    ("depthreg.losses", "identify", "identify.classify"),
    ("depthreg.toybench.train", "si_loss", "losses.si"),
    ("depthreg.toybench.train", "model_forward", "toybench.model.forward"),
    ("depthreg.toybench.train", "model_backward", "toybench.model.backward"),
    ("depthreg.experiment", "train_run", "toybench.train.update"),
    ("depthreg.toybench.train", "evaluate_model", "toybench.train.eval"),
    ("depthreg.toybench.train", "compute_metrics", "metrics.compute"),
    ("depthreg.toybench.train", "feature_separation", "toybench.train.separation"),
    ("depthreg.toybench.train", "scene_pool", "toybench.scenes.pool"),
    ("depthreg.experiment", "write_run_outputs", "experiment.write"),
    ("depthreg.experiment", "_dump_json", "experiment.write"),
)
ROOT = "unattributed"
CALIBRATION = "calibration"
# The held-out forward pass belongs to the evaluation, not to training.
FOLD_INTO_PARENT = {"toybench.model.forward": "toybench.train.eval"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, layer: str, fn):
        fold_under = FOLD_INTO_PARENT.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold_under is not None and self.current() == fold_under:
                return fn(*args, **kwargs)
            idx = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def self_times(self, round_scale: list[float]) -> dict[str, float]:
        """Seconds of self time per layer, ROOT included.

        Top-level spans are the rounds; every span's time is multiplied by
        ``round_scale`` of the round it belongs to.
        """
        child = [0.0] * len(self.spans)
        scale = [0.0] * len(self.spans)
        rounds = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                scale[i] = scale[parent]
            else:
                scale[i] = round_scale[rounds]
                rounds += 1
        out: dict[str, float] = {}
        for (name, start, end, _), c, k in zip(self.spans, child, scale):
            out[name] = out.get(name, 0.0) + k * ((end - start) - c)
        return out


def install(wrappers: dict) -> tuple[list[str], list[tuple]]:
    """Replace each hooked function by ``wrappers[layer](original)``.

    Returns the layers whose target is missing and the undo list.
    """
    found: dict[str, bool] = {}
    undo = []
    for module_name, attr, layer in HOOKS:
        if layer not in wrappers:
            continue
        found.setdefault(layer, False)
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        setattr(module, attr, wrappers[layer](original))
        undo.append((module, attr, original))
        found[layer] = True
    return sorted(layer for layer, ok in found.items() if not ok), undo


def uninstall(undo: list[tuple]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
