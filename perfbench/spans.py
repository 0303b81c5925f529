"""Per-layer tracing from outside the package.

The tracer replaces each traced function with a wrapper that records a span
(phase, layer, start, end, parent span) in memory. Functions that other
modules imported by value are replaced in every ``rorokit`` module that
holds them, so each call site is covered; methods are replaced on their
class. Self time is a span's duration minus the durations of its direct
children. Nothing is recorded while ``phase`` is None, so the benchmark's
own output checks stay out of the figures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import workloads

# (module, attribute or Class.method, extra count name, count from result)
TARGETS: list[tuple[str, str, Optional[str], Optional[Callable]]] = [
    ("cli", "main", None, None),
    ("autodiff", "Tensor.backward", None, None),
    ("autodiff", "layer_norm", None, None),
    ("autodiff", "softmax_lastdim", None, None),
    ("nn", "embed", None, None),
    ("nn", "encoder_forward", "tokens", lambda out: out.shape[0]),
    ("nn", "attention", None, None),
    ("nn", "optimizer_step", None, None),
    ("nn", "save_checkpoint", None, None),
    ("nn", "load_checkpoint", None, None),
    ("rop", "train", None, None),
    ("rop", "pool_elements", None, None),
    ("rop", "GlobalPointerHead.scores", None, None),
    ("rop", "gp_loss", None, None),
    ("rop", "ROPModel.predict", None, None),
    ("rop", "decode", "pairs_kept", len),
    ("relations", "is_acyclic", None, None),
    ("relations", "transitive_closure", None, None),
    ("relations", "best_permutation_recall", None, None),
    ("layout", "validate_annotation", None, None),
    ("layout", "derive_word_level", None, None),
    ("layout", "corpus_stats", None, None),
    ("layout", "load_corpus", None, None),
    ("layout", "save_corpus", None, None),
    ("metrics", "heuristic_relation", None, None),
    ("metrics", "corpus_f1", None, None),
    ("rore", "build_relation_matrix", None, None),
    ("rore", "rore_demo_entity_linking", None, None),
    ("synth", "synth_generate", None, None),
    ("synth", "synth_forms", None, None),
]

LAYERS = [f"{module}.{attr}" for module, attr, _, _ in TARGETS]
COUNTERS = [f"{module}.{attr}.{count}" for module, attr, count, _ in TARGETS if count]

# Layers whose work belongs to set-up (corpus generation and writing, the
# set-up model train, checkpoint and corpus I/O) are also reported for the
# set-up phase, under a "setup." prefix.
SETUP_LAYERS = [
    "cli.main",
    "rop.train",
    "synth.synth_generate",
    "synth.synth_forms",
    "layout.save_corpus",
    "layout.load_corpus",
    "nn.save_checkpoint",
    "nn.load_checkpoint",
]


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order.

    Calls, self times and counts are per measured step (one train call, one
    pass over the predict corpus or the eval chunk, one demo call), so they
    compare across commits even though the number of steps in a run depends
    on speed. Set-up figures are per set-up.
    """
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.calls", "count/step", "lower"),
                  (f"{layer}.self_s", "s/step", "lower")]
    specs += [(name, "count/step", "higher") for name in COUNTERS]
    for layer in SETUP_LAYERS:
        specs += [(f"setup.{layer}.calls", "count/setup", "lower"),
                  (f"setup.{layer}.self_s", "s/setup", "lower")]
    specs += [
        ("trace.step_wall_s", "s/step", "lower"),
        ("trace.self_share", "ratio", "higher"),
        ("trace.steps", "count", "higher"),
    ]
    return specs


# Which workloads must call each layer during the measured phase, and which
# must not. A layer missing from a workload's side stays unchecked there.
TRAINING = {"rop-train", "rore-link"}
ENCODER = {"rop-train", "rop-predict", "rore-link"}
NOT_MODEL = {"relations-eval"}
ALL = set(workloads.WORKLOADS)

EXPECT_MEASURED: dict[str, tuple[set, set]] = {
    "cli.main": (ALL - {"rop-predict"}, {"rop-predict"}),
    "autodiff.Tensor.backward": (TRAINING, {"rop-predict", "relations-eval"}),
    "autodiff.layer_norm": (ENCODER, NOT_MODEL),
    "autodiff.softmax_lastdim": (ENCODER, NOT_MODEL),
    "nn.embed": (ENCODER, NOT_MODEL),
    "nn.encoder_forward": (ENCODER, NOT_MODEL),
    "nn.attention": (ENCODER, NOT_MODEL),
    "nn.optimizer_step": (TRAINING, {"rop-predict", "relations-eval"}),
    "rop.train": ({"rop-train"}, ALL - {"rop-train"}),
    "rop.pool_elements": (ENCODER, NOT_MODEL),
    "rop.GlobalPointerHead.scores": (ENCODER, NOT_MODEL),
    "rop.gp_loss": (TRAINING, {"rop-predict", "relations-eval"}),
    "rop.ROPModel.predict": ({"rop-train", "rop-predict"}, {"relations-eval", "rore-link"}),
    "rop.decode": (ENCODER, NOT_MODEL),
    "relations.is_acyclic": (ALL, set()),
    "relations.transitive_closure": ({"relations-eval"}, set()),
    "relations.best_permutation_recall": (
        {"relations-eval"}, {"rop-train", "rop-predict", "rore-link"}
    ),
    "layout.validate_annotation": ({"relations-eval"}, ENCODER),
    "layout.derive_word_level": ({"relations-eval"}, set()),
    "layout.corpus_stats": ({"relations-eval"}, ENCODER),
    "metrics.heuristic_relation": ({"relations-eval"}, ENCODER),
    "metrics.corpus_f1": (ALL - {"rop-predict"}, set()),
    "rore.build_relation_matrix": ({"rore-link"}, ALL - {"rore-link"}),
    "rore.rore_demo_entity_linking": ({"rore-link"}, ALL - {"rore-link"}),
    "layout.load_corpus": ({"rop-train", "relations-eval"}, set()),
    "layout.save_corpus": ({"relations-eval"}, set()),
    "nn.save_checkpoint": ({"rop-train"}, set()),
    "synth.synth_forms": ({"rore-link"}, set()),
}

# Set-up work: each workload's set-up must call these layers. rore-link's
# set-up only draws the forms; demo-rore builds its own corpus in each call.
EXPECT_SETUP: dict[str, set] = {
    "synth.synth_generate": {"rop-train", "rop-predict", "relations-eval"},
    "synth.synth_forms": {"rore-link"},
    "layout.save_corpus": ALL - {"rore-link"},
    "layout.load_corpus": ALL - {"rore-link"},
    "nn.save_checkpoint": {"rop-predict"},
    "nn.load_checkpoint": {"rop-predict"},
    "rop.train": {"rop-predict"},
}

# Layer self times must account for the measured wall time to within this share.
SELF_SUM_TOLERANCE = 0.10


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.phase: Optional[str] = None
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, count_name, count_fn in TARGETS:
            layer = f"{module_name}.{attr}"
            module = sys.modules.get(f"rorokit.{module_name}")
            if module is None:
                self.missing.append(layer)
                continue
            owner, _, name = attr.rpartition(".")
            owner = getattr(module, owner, None) if owner else module
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original, count_name, count_fn)
            if owner is not module:
                self._patch(owner, name, wrapper)  # a method, looked up on its class
                continue
            # Replace the name wherever it is looked up: every rorokit module
            # that imported the function by value holds its own binding.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "rorokit" and not mod_name.startswith("rorokit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, layer: str, fn, count_name, count_fn):
        tracer = self
        counter = f"{layer}.{count_name}" if count_name else None
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (phase, layer, start, end, parent)
            if counter is not None:
                tracer.counts[(phase, counter)] += int(count_fn(result))
            return result

        return functools.wraps(fn)(traced)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """{(phase, layer): [calls, self_s]} from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for phase, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0])
        for index, (phase, layer, start, end, parent) in enumerate(self.spans):
            entry = out[(phase, layer)]
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return out


def per_layer_metrics(tracer: Tracer, measured_s: float, steps: int, setups: int) -> dict:
    """Every per-layer metric, zeros included, as {name: value}."""
    summary = tracer.summary()
    values = {}
    for layer in LAYERS:
        calls, self_s = summary.get(("measure", layer), (0, 0.0))
        values[f"{layer}.calls"] = calls / steps
        values[f"{layer}.self_s"] = self_s / steps
    for name in COUNTERS:
        values[name] = tracer.counts.get(("measure", name), 0) / steps
    for layer in SETUP_LAYERS:
        calls, self_s = summary.get(("setup", layer), (0, 0.0))
        values[f"setup.{layer}.calls"] = calls / setups
        values[f"setup.{layer}.self_s"] = self_s / setups
    self_sum = sum(self_s for (phase, _), (_, self_s) in summary.items() if phase == "measure")
    values["trace.step_wall_s"] = measured_s / steps
    values["trace.self_share"] = self_sum / measured_s if measured_s > 0 else 0.0
    values["trace.steps"] = steps
    return values


def self_test(workload: str, tracer: Tracer, values: dict) -> list[str]:
    """Problems with the trace of one workload; empty when it is sound."""
    problems = [f"layer {layer} not found to wrap" for layer in tracer.missing]
    summary = tracer.summary()
    for layer, (called, silent) in EXPECT_MEASURED.items():
        calls = values[f"{layer}.calls"]
        if workload in called and calls == 0:
            problems.append(f"{layer}: no calls in the measured phase")
        if workload in silent and calls != 0:
            problems.append(f"{layer}: {calls} calls in the measured phase, expected none")
    for layer, called in EXPECT_SETUP.items():
        if workload in called and summary.get(("setup", layer), (0, 0.0))[0] == 0:
            problems.append(f"{layer}: no calls during set-up")
    share = values["trace.self_share"]
    if abs(share - 1.0) > SELF_SUM_TOLERANCE:
        problems.append(
            f"layer self times sum to {share:.3f} of the measured wall time "
            f"(allowed 1 +/- {SELF_SUM_TOLERANCE})"
        )
    return problems
