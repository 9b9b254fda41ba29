"""Layer-wise pruning pipeline: analyze, select, cut, fine-tune, report.

Layers are processed front to back over the prunable layers of the model
(everything parametric but the output layer), and every layer after the
first sees the network as already pruned and fine-tuned up to that point.
A layer with fewer than 2 components cannot be clustered: it keeps all
its components and records a warning instead of failing the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cluster, knee, sepspace, toynet
from .errors import BadParams
from .rng import derive_seed
from .tensio import SELECTION_MODES, PlanEntry, PruningPlan, is_int, is_real

DEFAULT_FT_LR_SCALE = 0.1  # fine-tune lr defaults to a tenth of the training lr


@dataclass(frozen=True)
class PruneConfig:
    knee_degree: int = 2
    selection: str = "weighted"      # "weighted" or "regular"
    stride: int = 1
    ft_fraction: float = 0.25
    ft_epochs: int = 2
    ft_lr: float | None = None       # None: DEFAULT_FT_LR_SCALE * model training lr
    seed: int = 0
    pre_activation: bool = False
    freeze_upstream: bool = False

    def __post_init__(self):
        if self.selection not in SELECTION_MODES:
            raise BadParams(f"selection must be one of {SELECTION_MODES}")
        knee.check_degree(self.knee_degree)
        rules = {  # field: (whether it holds, what the field must be)
            "stride": (is_int(self.stride) and self.stride >= 1, "an integer >= 1"),
            "ft_fraction": (is_real(self.ft_fraction) and 0.0 < self.ft_fraction <= 1.0,
                            "a real number in (0, 1]"),
            "ft_epochs": (is_int(self.ft_epochs) and self.ft_epochs >= 0, "an integer >= 0"),
            "ft_lr": (self.ft_lr is None or is_real(self.ft_lr) and 0.0 < self.ft_lr < np.inf,
                      "None or a finite real number > 0"),
            "seed": (is_int(self.seed), "an integer"),
            "pre_activation": (isinstance(self.pre_activation, (bool, np.bool_)), "a bool"),
            "freeze_upstream": (isinstance(self.freeze_upstream, (bool, np.bool_)), "a bool"),
        }
        for name, (holds, need) in rules.items():
            if not holds:
                raise BadParams(f"{name} must be {need}, got {getattr(self, name)!r}")


@dataclass
class LayerReport:
    layer_id: int
    n_components: int
    k_selected: int
    mss_curve: cluster.MssCurve | None
    knee: knee.KneeResult | None
    entry: PlanEntry | None  # the layer's decision; None when it could not be swept
    flops_before: int  # whole-model totals around this layer's step
    flops_after: int
    warning: str | None = None


def component_norms(model: toynet.ToyModel, layer_id: int) -> np.ndarray:
    """L2 norm of each component's incoming weights (bias excluded)."""
    layer = model.layers[layer_id]
    if not layer.parametric:
        raise BadParams(f"layer {layer_id} ({layer.kind}) has no weights")
    w = layer.w
    return np.sqrt((w.reshape(w.shape[0], -1) ** 2).sum(axis=1))


def compose(result: cluster.ClusterResult, mode: str, norms: np.ndarray) -> list[int]:
    """Pick one component per cluster.

    "regular" keeps the medoids themselves; "weighted" keeps, per cluster,
    the member with the largest incoming-weight norm. Ties go to the lowest
    index, and the result is sorted, so both modes are deterministic.
    """
    if mode == "regular":
        return sorted(int(m) for m in result.medoid_indices)
    if mode != "weighted":
        raise BadParams(f"unknown selection mode {mode!r}")
    # a medoid whose row repeats a lower one's owns no point, not even
    # itself; give every medoid itself so each cluster has a member
    owner = result.assignment.copy()
    owner[result.medoid_indices] = result.medoid_indices
    kept = []
    for m in result.medoid_indices:
        members = np.flatnonzero(owner == m)
        best = members[int(np.argmax(norms[members]))]  # argmax: first max wins
        kept.append(int(best))
    return sorted(kept)


def _resolve_ft_lr(config: PruneConfig, model: toynet.ToyModel) -> PruneConfig:
    if config.ft_lr is not None:
        return config
    lr = DEFAULT_FT_LR_SCALE * model.train_lr
    if lr <= 0.0:
        lr = 0.01  # untrained input model; any small positive step works
    return replace(config, ft_lr=lr)


def prune_layer(model: toynet.ToyModel, ds, layer_id: int,
                config: PruneConfig | None = None):
    """Prune one layer and fine-tune the result.

    Returns (model, LayerReport). The incoming model is never mutated.
    When the layer keeps all components (no knee, or too few to cluster)
    the model passes through unchanged and no fine-tuning runs: there is
    nothing for the rest of the network to adjust to.
    """
    config = _resolve_ft_lr(config or PruneConfig(), model)
    if layer_id not in (prunable := model.prunable_ids()):
        raise BadParams(f"layer {layer_id} is not prunable; prunable ids: {prunable}")
    flops_before = toynet.count_flops(model).total
    n_comp = model.layers[layer_id].n_components
    if n_comp < 2:
        return model.copy(), LayerReport(layer_id, n_comp, n_comp, None, None, None,
                                         flops_before, flops_before,
                                         "fewer than 2 components, too few to cluster")
    acts = toynet.capture_activations(model, ds, layer_id, pre_activation=config.pre_activation)
    space = sepspace.build_space(acts)
    curve, results = cluster.sweep_detailed(space.values, stride=config.stride)
    k_selected, knee_result = knee.select_k(curve, n_comp, config.knee_degree)
    kept = (compose(results[k_selected], config.selection, component_norms(model, layer_id))
            if k_selected < n_comp else list(range(n_comp)))
    entry = PlanEntry(layer_id, n_comp, kept, k_selected, config.selection,
                      config.knee_degree, mss_curve_ref=f"mss_layer{layer_id}.csv",
                      knee=knee_result.to_dict() if knee_result is not None else None)
    if k_selected == n_comp:
        out = model.copy()
    else:
        out = toynet.finetune(toynet.apply_prune(model, PruningPlan([entry])), ds,
                              config.ft_fraction, config.ft_epochs, config.ft_lr,
                              derive_seed(config.seed, f"finetune{layer_id}"),
                              trainable_from=layer_id if config.freeze_upstream else 0)
    return out, LayerReport(layer_id, n_comp, k_selected, curve, knee_result, entry,
                            flops_before, toynet.count_flops(out).total)


def prune_model(model: toynet.ToyModel, ds, config: PruneConfig | None = None):
    """Run the layer loop over every prunable layer, front to back.

    Returns (model, [LayerReport]). A model with no prunable layer is
    passed through unchanged with an empty report list. A dataset that the
    model cannot read, or with a class id beyond the model's output width,
    fails before the first layer.
    """
    config = _resolve_ft_lr(config or PruneConfig(), model)
    toynet.check_fit(model, ds)
    reports: list[LayerReport] = []
    current = model.copy()
    for layer_id in model.prunable_ids():
        current, report = prune_layer(current, ds, layer_id, config)
        reports.append(report)
    return current, reports

