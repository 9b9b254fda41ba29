"""Automatic complementary separation pruning on a small numpy network engine.

The pipeline per prunable layer: capture activations, build the per-class
separability space, sweep k-medoids over every subset size, score each
partition with the mean simplified silhouette, pick the knee of that curve,
keep one representative component per cluster, cut the rest structurally,
and fine-tune before moving to the next layer.
"""

from .cluster import ClusterResult, MssCurve, mss, sweep_detailed
from .data import make_blobs, make_rings
from .errors import AcspError
from .knee import KneeResult, find_knee, select_k
from .planner import LayerReport, PruneConfig, compose, prune_layer, prune_model
from .sepspace import SeparabilityMatrix, build_space
from .tensio import (
    ActivationTensor,
    LabeledDataset,
    PlanEntry,
    PruningPlan,
    read_dataset,
    read_model,
    read_plan,
    write_dataset,
    write_model,
    write_plan,
)
from .toynet import (
    ToyModel,
    accuracy,
    apply_prune,
    capture_activations,
    count_flops,
    finetune,
    forward,
    from_arch,
    train,
)

__version__ = "0.1.0"
