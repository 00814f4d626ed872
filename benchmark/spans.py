"""Span tracer that times hazlab's layers from outside the package.

`install` replaces public functions at every name a hazlab module binds them
to (``hazlab.tensor.conv2d``, ``hazlab.unet.batchnorm_train``,
``hazlab.harness.pretrain``, ...), so a caller that looks the name up at call
time runs the timing wrapper. The backward time of an op comes from wrapping
the ``_backward_fn`` of the tensor the wrapped op returns. Spans stay in
memory; `layer_metrics` turns them into the per-layer metrics when the run
ends.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# (metric prefix, module, attribute, kind). The kind selects what a span
# records beside its interval.
TENSOR_OPS = ("relu", "sigmoid", "add", "sub", "mul", "div", "maxpool2", "upsample2",
              "concat_channels", "slice_channels", "scale_channels", "global_avg",
              "mean_all", "sum_axes")
# wrapped so that their time is not charged to the caller's self time, but
# not reported as metrics of their own (no workload calls sum_all)
QUIET_TENSOR_OPS = ("neg", "exp", "log", "power", "max_scalar", "min_scalar", "sum_all")

TARGETS = (
    [("tensor.conv2d", "hazlab.tensor", "conv2d", "conv"),
     ("tensor.backward", "hazlab.tensor", "backward", "plain")]
    + [(f"tensor.{op}", "hazlab.tensor", op, "op") for op in TENSOR_OPS + QUIET_TENSOR_OPS]
    + [("layers.batchnorm_train", "hazlab.layers", "batchnorm_train", "op"),
       ("layers.batchnorm_eval", "hazlab.layers", "batchnorm_eval", "plain"),
       ("layers.batch_moments", "hazlab.layers", "batch_moments", "plain"),
       ("layers.se_gate", "hazlab.layers", "se_gate", "plain"),
       ("unet.forward", "hazlab.unet", "forward", "forward"),
       ("unet.save_checkpoint", "hazlab.unet", "save_checkpoint", "plain"),
       ("unet.load_checkpoint", "hazlab.unet", "load_checkpoint", "plain"),
       ("training.pretrain", "hazlab.training", "pretrain", "plain"),
       ("training.adamw_step", "hazlab.training", "adamw_step", "plain"),
       ("training.combined_loss", "hazlab.training", "combined_loss", "plain"),
       ("adaptation.adapt_bn", "hazlab.adaptation", "adapt_bn", "adapt"),
       ("adaptation.threshold_batch", "hazlab.adaptation", "threshold_batch", "plain"),
       ("evaluation.evaluate_masks", "hazlab.evaluation", "evaluate_masks", "plain"),
       ("evaluation.baseline_masks", "hazlab.evaluation", "baseline_masks", "plain"),
       ("evaluation.paired_significance", "hazlab.evaluation", "paired_significance", "plain"),
       ("datasets.generate", "hazlab.datasets", "generate", "generate"),
       ("datasets.write_dataset", "hazlab.datasets", "write_dataset", "write"),
       ("harness.render_report", "hazlab.harness", "render_report", "plain")])


class Tracer:
    """Collects spans as tuples (name, start, end, parent index, extra)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True  # once False, wrappers call straight through

    def open(self, name: str, extra=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, extra])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, extra_of=None):
        """Wrap `fn`; `extra_of(args, kwargs)` runs after the call returns."""
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if extra_of:
                self.spans[idx][4] = extra_of(args, kwargs)
            return out
        return wrapper

    def timed_op(self, name: str, fn, flops_of=None):
        """Wrap a tensor op; its result's backward closure gets a span too."""
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            extra = flops_of(args, kwargs) if flops_of else None
            idx = self.open(name + ".forward", extra)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            out_t = out[0] if isinstance(out, tuple) else out
            bw = getattr(out_t, "_backward_fn", None)
            if bw is not None:
                out_t._backward_fn = self.timed(name + ".backward", bw, lambda a, k: extra)
            return out
        return wrapper


def _conv_flops(args, kwargs):
    """(forward FLOPs, whether the input needs no gradient) from the shapes."""
    x, w = args[0], args[1]
    xs, ws = np.shape(getattr(x, "data", x)), np.shape(getattr(w, "data", w))
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    pad = kwargs.get("pad", args[4] if len(args) > 4 else 0)
    n, _, h, wd = xs
    cout, cin_g, kh, kw = ws
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    return (2.0 * n * cout * cin_g * kh * kw * ho * wo, not getattr(x, "requires_grad", False))


def _forward_extra(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return (mode, args[1].data.shape[0])


def _write_extra(args, kwargs):
    return os.path.getsize(args[1])


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target at every `hazlab.*` module attribute bound to it;
    returns the (module, name, original) of each replacement."""
    import importlib
    for mod in ("hazlab.tensor", "hazlab.layers", "hazlab.unet", "hazlab.training",
                "hazlab.adaptation", "hazlab.evaluation", "hazlab.datasets", "hazlab.harness",
                "hazlab.cli"):
        importlib.import_module(mod)
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "hazlab" or name.startswith("hazlab."))]
    replaced = []
    for prefix, mod_name, attr, kind in TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        if kind == "conv":
            wrapper = tracer.timed_op(prefix, original, _conv_flops)
        elif kind == "op":
            wrapper = tracer.timed_op(prefix, original)
        elif kind == "forward":
            wrapper = tracer.timed(prefix, original, _forward_extra)
        elif kind == "adapt":
            wrapper = tracer.timed(prefix, original, lambda a, k: len(a[1]))
        elif kind == "generate":
            wrapper = tracer.timed(prefix, original, lambda a, k: a[0].n_samples)
        elif kind == "write":
            wrapper = tracer.timed(prefix, original, _write_extra)
        else:
            wrapper = tracer.timed(prefix, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    replaced.append((m, name, original))
                    setattr(m, name, wrapper)
    return replaced


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric `layer_metrics` reports, with its unit."""
    names = [("tensor.conv2d.calls", "count"), ("tensor.conv2d.forward_s", "s"),
             ("tensor.conv2d.backward_s", "s"), ("tensor.conv2d.gflop", "GFLOP"),
             ("tensor.conv2d.gflop_per_s", "GFLOP/s"),
             ("tensor.conv2d.discarded_dx_gflop", "GFLOP"),
             ("tensor.backward.calls", "count"), ("tensor.backward.s", "s"),
             ("tensor.backward.self_s", "s")]
    for op in TENSOR_OPS:
        names += [(f"tensor.{op}.calls", "count"), (f"tensor.{op}.forward_s", "s"),
                  (f"tensor.{op}.backward_s", "s")]
    names += [("layers.batchnorm_train.forward_s", "s"), ("layers.batchnorm_train.backward_s", "s"),
              ("layers.batchnorm_eval.s", "s"), ("layers.batch_moments.s", "s"),
              ("layers.se_gate.s", "s")]
    for mode in ("train", "eval", "adapt"):
        names += [(f"unet.forward.{mode}.images", "count"), (f"unet.forward.{mode}.s", "s")]
    names += [("unet.save_checkpoint.s", "s"), ("unet.load_checkpoint.s", "s"),
              ("training.pretrain.s", "s"), ("training.steps", "count"),
              ("training.adamw_step.s", "s"), ("training.combined_loss.s", "s"),
              ("training.validation_s", "s"),
              ("adaptation.adapt_bn.calls", "count"), ("adaptation.adapt_bn.images", "count"),
              ("adaptation.adapt_bn.s", "s"), ("adaptation.threshold_batch.s", "s"),
              ("evaluation.evaluate_masks.s", "s"), ("evaluation.baseline_masks.s", "s"),
              ("evaluation.paired_significance.s", "s"),
              ("datasets.generate.samples", "count"), ("datasets.generate.s", "s"),
              ("datasets.write_dataset.bytes", "B"), ("datasets.write_dataset.s", "s"),
              ("harness.render_report.s", "s")]
    return names


# measured by the benchmark around the program, not from spans
OUTSIDE_NAMES = [("harness.cores_busy", "cores"), ("harness.artifact_files", "count"),
                 ("harness.artifact_bytes", "B"), ("cli.import_s", "s")]


_NEEDS_EXTRA = {"tensor.conv2d.forward", "tensor.conv2d.backward", "unet.forward",
                "adaptation.adapt_bn", "datasets.generate", "datasets.write_dataset"}


def layer_metrics(spans) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics named by `per_layer_names`."""
    m = {name: 0.0 for name, _ in per_layer_names()}
    selfs = self_times(spans)
    for i, (name, t0, t1, parent, extra) in enumerate(spans):
        dur = t1 - t0
        if extra is None and name in _NEEDS_EXTRA:
            continue  # the call raised before its extra could be read
        if name == "tensor.conv2d.forward":
            m["tensor.conv2d.calls"] += 1
            m["tensor.conv2d.forward_s"] += dur
            m["tensor.conv2d.gflop"] += extra[0] / 1e9
        elif name == "tensor.conv2d.backward":
            m["tensor.conv2d.backward_s"] += dur
            m["tensor.conv2d.gflop"] += 2.0 * extra[0] / 1e9
            if extra[1]:
                m["tensor.conv2d.discarded_dx_gflop"] += extra[0] / 1e9
        elif name == "tensor.backward":
            m["tensor.backward.calls"] += 1
            m["tensor.backward.s"] += dur
            m["tensor.backward.self_s"] += selfs[i]
        elif name.startswith("tensor."):
            op, phase = name[len("tensor."):].rsplit(".", 1)
            if op in TENSOR_OPS:
                if phase == "forward":
                    m[f"tensor.{op}.calls"] += 1
                m[f"tensor.{op}.{phase}_s"] += dur
        elif name.startswith("layers.batchnorm_train."):
            m[name + "_s"] += dur
        elif name == "unet.forward":
            mode, images = extra
            m[f"unet.forward.{mode}.images"] += images
            m[f"unet.forward.{mode}.s"] += dur
            if mode == "eval" and _has_ancestor(spans, i, "training.pretrain"):
                m["training.validation_s"] += dur
        elif name == "training.adamw_step":
            m["training.steps"] += 1
            m["training.adamw_step.s"] += dur
        elif name == "adaptation.adapt_bn":
            m["adaptation.adapt_bn.calls"] += 1
            m["adaptation.adapt_bn.images"] += extra
            m["adaptation.adapt_bn.s"] += dur
        elif name == "datasets.generate":
            m["datasets.generate.samples"] += extra
            m["datasets.generate.s"] += dur
        elif name == "datasets.write_dataset":
            m["datasets.write_dataset.bytes"] += extra
            m["datasets.write_dataset.s"] += dur
        elif name + ".s" in m:
            m[name + ".s"] += dur
    busy = m["tensor.conv2d.forward_s"] + m["tensor.conv2d.backward_s"]
    m["tensor.conv2d.gflop_per_s"] = m["tensor.conv2d.gflop"] / busy if busy else 0.0
    return m
