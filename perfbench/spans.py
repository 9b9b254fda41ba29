"""Span recording around the public functions of the acsp modules.

The recorder wraps module attributes from outside the program: each call
through a wrapped attribute becomes a span with its name, start, end and
parent (the span that was open when it started). Spans stay in memory;
`module_metrics` turns them into per-module seconds and counts afterwards.
Counts come from the arguments and return values seen at the boundary,
plus the size of each file a tensio writer wrote, never from inside the
program.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from dataclasses import dataclass, field

from acsp import cluster, data, knee, planner, sepspace, tensio, toynet

# Attributes the pipeline calls through, per module. Callers look these up
# on the module at call time (`toynet.train`, `cluster.mss` from inside
# `sweep_detailed`), so replacing the attribute reaches every call.
TARGETS = {
    planner: ["prune_model", "prune_layer"],
    toynet: ["capture_activations", "finetune", "train", "accuracy", "apply_prune"],
    sepspace: ["build_space"],
    cluster: ["sweep_detailed", "mss"],
    knee: ["find_knee"],
    tensio: sorted(n for n in vars(tensio)
                   if n.startswith(("read_", "write_")) and callable(getattr(tensio, n))),
    data: sorted(n for n in vars(data) if n.startswith("make_") and callable(getattr(data, n))),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, None for a root
    layer: int | None = None    # network layer of the enclosing prune_layer call
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sweep_counts(result, args):
    curve, results = result
    swaps = [len(r.cost_history) - 1 for r in results.values()]
    return {"ks": len(curve.entries), "swaps": sum(swaps),
            "capped": sum(s >= cluster.MAX_SWAP_PASSES for s in swaps)}


def _layer_counts(result, args):
    _, report = result
    found = report.knee is not None and report.knee.k_prime is not None
    return {"knee_found": int(found),
            "keep_all": int(report.k_selected == report.n_components)}


# span name -> counter(return value, bound arguments) -> {count name: value}
COUNTERS = {
    "toynet.capture_activations": lambda r, a: {"bytes": r.values.nbytes},
    "sepspace.build_space": lambda r, a: {"cells": r.values.size},
    "cluster.sweep_detailed": _sweep_counts,
    "planner.prune_layer": _layer_counts,
    "toynet.train": lambda r, a: {"sample_epochs": a["ds"].n_samples * a["epochs"]},
}
COUNTERS.update({f"tensio.{n}": lambda r, a: {"bytes": os.path.getsize(a["path"])}
                 for n in TARGETS[tensio] if n.startswith("write_")})


# Metrics that also make sense for one network layer, as `<name>.layer<i>`.
PER_NETWORK_LAYER = (
    "cluster.sweep_s", "cluster.mss_s", "cluster.pam_s", "cluster.ks", "cluster.swaps",
    "cluster.pam_capped", "toynet.capture_s", "toynet.capture_bytes", "toynet.finetune_s",
    "toynet.finetune_sample_epochs", "toynet.apply_prune_s", "sepspace.build_space_s",
    "sepspace.cells", "knee.find_knee_s", "planner.self_s",
)


class Recorder:
    """Collects spans of one process; not thread-safe (the pipeline is serial)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if layer is None and parent is not None:
            layer = self.spans[parent].layer
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, layer))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            idx = self._open(name, bound.get("layer_id") if name == "planner.prune_layer"
                             else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx].counts.update(counter(result, bound))
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, root: str):
        """Wrap every target attribute and open a root span; restore on exit."""
        saved = []
        try:
            for module, attrs in TARGETS.items():
                prefix = module.__name__.rpartition(".")[2]
                for attr in attrs:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(f"{prefix}.{attr}", original))
            with self.span(root):
                yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus its children's. The recorder is a serial
    stack, so children never overlap."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent is not None:
        i = spans[i].parent
    return i


def module_metrics(spans: list[Span], selves: list[float], keep) -> dict[str, float]:
    """Per-module totals over the spans whose index passes `keep`.

    Times are summed durations (`_s`) or summed self times (`self_s`,
    `cluster.pam_s`); counts are summed from the span counters. Training
    inside a fine-tune counts as fine-tuning, not as `toynet.train_s`.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    train_s = 0.0
    fine_tune_samples = 0
    n_layers = 0
    for i, s in enumerate(spans):
        if not keep(i):
            continue
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selves[i]
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
        n_layers += s.name == "planner.prune_layer"
        if s.name == "toynet.train":
            if s.parent is not None and spans[s.parent].name == "toynet.finetune":
                fine_tune_samples += s.counts["sample_epochs"]
            else:
                train_s += s.duration

    def summed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    return {
        "cluster.sweep_s": total.get("cluster.sweep_detailed", 0.0),
        "cluster.mss_s": total.get("cluster.mss", 0.0),
        "cluster.pam_s": own.get("cluster.sweep_detailed", 0.0),
        "cluster.ks": counts.get("cluster.sweep_detailed.ks", 0),
        "cluster.swaps": counts.get("cluster.sweep_detailed.swaps", 0),
        "cluster.pam_capped": counts.get("cluster.sweep_detailed.capped", 0),
        "toynet.capture_s": total.get("toynet.capture_activations", 0.0),
        "toynet.capture_bytes": counts.get("toynet.capture_activations.bytes", 0),
        "toynet.finetune_s": total.get("toynet.finetune", 0.0),
        "toynet.finetune_sample_epochs": fine_tune_samples,
        "toynet.accuracy_s": total.get("toynet.accuracy", 0.0),
        "toynet.apply_prune_s": total.get("toynet.apply_prune", 0.0),
        "toynet.train_s": train_s,
        "data.make_s": summed(total, "data.make_"),
        "sepspace.build_space_s": total.get("sepspace.build_space", 0.0),
        "sepspace.cells": counts.get("sepspace.build_space.cells", 0),
        "knee.find_knee_s": total.get("knee.find_knee", 0.0),
        "knee.found_ratio": (counts.get("planner.prune_layer.knee_found", 0) / n_layers
                             if n_layers else 0.0),
        "planner.prune_model_s": total.get("planner.prune_model", 0.0),
        "planner.self_s": own.get("planner.prune_model", 0.0)
        + own.get("planner.prune_layer", 0.0),
        "planner.keep_all_layers": counts.get("planner.prune_layer.keep_all", 0),
        "tensio.read_s": summed(total, "tensio.read_"),
        "tensio.write_s": summed(total, "tensio.write_"),
        "tensio.bytes_written": summed(counts, "tensio.write_"),
        "cli.self_s": own.get("cli.main", 0.0),
    }
