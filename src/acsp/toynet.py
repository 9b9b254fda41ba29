"""Minimal feedforward network engine on numpy.

Strictly sequential stacks of Linear, Conv (square maps only), ReLU,
AvgPool and Flatten, trained with plain SGD on softmax cross-entropy.
Weights live in float64; average pooling is used instead of max pooling so
that removing a channel and zeroing it are numerically interchangeable.

Everything here is deterministic given the seeds: fixed batch order per
seed, no momentum, no regularization, float64 throughout.

For one `train` call the parameters of every layer live in one flat
float64 buffer, each layer's `w` and `b` a view into it, and the
gradients of the layers that learn, which are the last parametric ones,
in a second buffer laid out as their parameters are at the first one's
tail. Each backward writes the parameter gradients it is given buffers
for, and the SGD update is two ufunc calls: scale the gradient buffer by
the rate, subtract it from that tail. Beyond that a step writes in place
only into arrays it made itself: a linear layer adds its bias into its
new product and ReLU masks the gradient it is handed; `_Layer` states
what this asks of every backward. Each in-place form runs the same float operation as the
expression it replaces, so the results are the same to the bit. The
caller's batch, labels and model are never written.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import data
from .errors import (
    BadParams,
    Divergence,
    MalformedPlan,
    ParseError,
    ShapeMismatch,
)
from .rng import derive_seed
from .tensio import ActivationTensor, LabeledDataset, PruningPlan, is_int, is_real

_CAPTURE_CHUNK = 256  # fixed so chunking never depends on the environment


# ---------------------------------------------------------------- layers

class _Layer:
    """What every layer kind shares.

    A kind names its integer container fields in FIELDS, in constructor
    order; a parametric kind's first field is its input width, and its
    constructor takes `w` and `b` after them, `w` shaped by its
    `weight_shape(*fields)`.
    `out_shape` maps a per-sample input shape to the output shape, raising
    ShapeMismatch when the kind cannot take that input. `forward` checks
    its input with it; `forward_cache(x)`, which returns the output and
    what `backward` needs, trusts the caller to have checked the shapes.

    `backward(gy, cache)` returns (input gradient, parameter gradients or
    None). A parametric kind also takes `input_grad` (False: the input
    gradient is not computed and comes back as None) and `out`, a dict of
    "w" and "b" arrays shaped like its own, into which it writes the
    parameter gradients and which it returns; without `out` it makes new
    ones. Each other array it returns must be new, or a view into an array
    of this backward pass that nothing else holds (Flatten reshapes its
    `gy`), and no two may share memory: ReLU.backward overwrites the `gy`
    it is handed and `train` scales the gradient buffer in place, so a view
    of a cache, of the weights or of another returned array is written
    through.
    """

    parametric = False
    FIELDS: tuple[str, ...] = ()

    @property
    def fields(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def copy(self):
        params = (self.w.copy(), self.b.copy()) if self.parametric else ()
        return type(self)(*self.fields, *params)

    def out_shape(self, in_shape: tuple) -> tuple:
        return in_shape

    def flops(self, out_shape: tuple) -> int:
        """Multiply-adds for one sample: two per weight per output value."""
        return 2 * self.w[0].size * math.prod(out_shape) if self.parametric else 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.out_shape(x.shape[1:])
        return self.forward_cache(x)[0]

    def _set_params(self, w, b, fields: tuple) -> None:
        """Store `w` and `b` as float64, or raise ShapeMismatch unless they fit `fields`."""
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        shape = self.weight_shape(*fields)
        if 0 in shape:
            raise ShapeMismatch(f"{self.kind} weight shape {shape} has a zero dimension")
        if self.w.shape != shape or self.b.shape != shape[:1]:
            raise ShapeMismatch(f"{self.kind} weights {self.w.shape} do not match {shape}")


class Linear(_Layer):
    kind = "linear"
    parametric = True
    FIELDS = ("n_in", "n_out")

    def __init__(self, n_in: int, n_out: int, w: np.ndarray, b: np.ndarray):
        self._set_params(w, b, (n_in, n_out))

    @staticmethod
    def weight_shape(n_in: int, n_out: int) -> tuple:
        return (n_out, n_in)

    @property
    def n_in(self) -> int:
        return self.w.shape[1]

    @property
    def n_out(self) -> int:
        return self.w.shape[0]

    n_components = n_out

    def out_shape(self, in_shape):
        if in_shape != (self.n_in,):
            raise ShapeMismatch(f"linear expects ({self.n_in},), got {in_shape}")
        return (self.n_out,)

    def forward_cache(self, x):
        y = x @ self.w.T
        y += self.b
        return y, x

    def backward(self, gy, x, input_grad=True, out=None):
        """(input gradient or None when not `input_grad`, parameter gradients
        written into `out` when given)."""
        out = out or {"w": None, "b": None}
        return gy @ self.w if input_grad else None, {
            "w": np.matmul(gy.T, x, out=out["w"]),
            "b": np.add.reduce(gy, axis=0, out=out["b"]),
        }


class Conv(_Layer):
    """2-D convolution over square maps; symmetric zero padding."""

    kind = "conv"
    parametric = True
    FIELDS = ("c_in", "c_out", "kernel", "stride", "pad")

    def __init__(self, c_in, c_out, kernel, stride, pad, w, b):
        self.stride = stride
        self.pad = pad
        self._set_params(w, b, (c_in, c_out, kernel, stride, pad))
        if stride < 1 or pad < 0 or kernel < 1:
            raise BadParams("conv needs kernel >= 1, stride >= 1, pad >= 0")

    @staticmethod
    def weight_shape(c_in, c_out, kernel, stride, pad) -> tuple:
        return (c_out, c_in, kernel, kernel)

    @property
    def c_in(self) -> int:
        return self.w.shape[1]

    @property
    def c_out(self) -> int:
        return self.w.shape[0]

    @property
    def kernel(self) -> int:
        return self.w.shape[2]

    n_components = c_out

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.c_in:
            raise ShapeMismatch(f"conv expects ({self.c_in}, h, w), got {in_shape}")
        if in_shape[1] != in_shape[2]:
            raise ShapeMismatch(f"conv requires square maps, got {in_shape}")
        span = in_shape[1] + 2 * self.pad - self.kernel
        if span < 0:
            raise ShapeMismatch(f"conv kernel {self.kernel} too large for input {in_shape}")
        out = span // self.stride + 1
        return (self.c_out, out, out)

    def forward_cache(self, x):
        p, k, s = self.pad, self.kernel, self.stride
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        y = np.einsum("ncxyij,ocij->noxy", win, self.w, optimize=True)
        y += self.b[None, :, None, None]
        return y, (win, xp.shape, x.shape)

    def backward(self, gy, cache, input_grad=True, out=None):
        """(input gradient or None when not `input_grad`, parameter gradients
        written into `out` when given)."""
        win, xp_shape, x_shape = cache
        out = out or {"w": None, "b": None}
        pg = {"w": np.einsum("ncxyij,noxy->ocij", win, gy, optimize=True, out=out["w"]),
              "b": np.add.reduce(gy, axis=(0, 2, 3), out=out["b"])}
        if not input_grad:
            return None, pg
        gxp = np.zeros(xp_shape)
        ho, wo = gy.shape[2], gy.shape[3]
        s, k = self.stride, self.kernel
        for i in range(k):
            for j in range(k):
                patch = np.einsum("noxy,oc->ncxy", gy, self.w[:, :, i, j], optimize=True)
                gxp[:, :, i : i + s * ho : s, j : j + s * wo : s] += patch
        p = self.pad
        h, w = x_shape[2], x_shape[3]
        return gxp[:, :, p : p + h, p : p + w], pg


class ReLU(_Layer):
    kind = "relu"

    def forward_cache(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, gy, x):
        """Mask `gy` where the input was not positive; overwrites `gy` (see _Layer)."""
        return np.multiply(gy, x > 0.0, out=gy), None


class AvgPool(_Layer):
    """Non-overlapping average pooling; map size must divide evenly."""

    kind = "avgpool"
    FIELDS = ("size",)

    def __init__(self, size: int):
        if size < 1:
            raise BadParams("pool size must be >= 1")
        self.size = size

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatch(f"avgpool expects (c, h, w), got {in_shape}")
        c, h, w = in_shape
        if h % self.size or w % self.size:
            raise ShapeMismatch(f"pool {self.size} does not divide {in_shape}")
        return (c, h // self.size, w // self.size)

    def forward_cache(self, x):
        n, c, h, w = x.shape
        s = self.size
        return x.reshape(n, c, h // s, s, w // s, s).mean(axis=(3, 5)), None

    def backward(self, gy, _cache):
        s = self.size
        gx = np.repeat(np.repeat(gy, s, axis=2), s, axis=3)
        gx /= s * s
        return gx, None


class Flatten(_Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        if not in_shape:
            raise ShapeMismatch("flatten expects at least one dimension per sample")
        return (math.prod(in_shape),)

    def forward_cache(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, gy, x_shape):
        return gy.reshape(x_shape), None


LAYER_TYPES = {cls.kind: cls for cls in (Linear, Conv, ReLU, AvgPool, Flatten)}


# ----------------------------------------------------------------- model

@dataclass(eq=False)
class ToyModel:
    """Sequential layer stack plus init seed and last-training metadata."""

    layers: list
    input_shape: tuple
    rng_seed: int = 0
    train_epochs: int = 0
    train_lr: float = 0.0

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if len(out := self.output_shape()) != 1:  # fails fast on an inconsistent stack too
            raise ShapeMismatch(f"model output must be a vector of logits, got {out}")

    def copy(self) -> "ToyModel":
        return ToyModel([l.copy() for l in self.layers], self.input_shape,
                        self.rng_seed, self.train_epochs, self.train_lr)

    def output_shape(self) -> tuple:
        return layer_shapes(self)[-1][1] if self.layers else self.input_shape

    def parametric_ids(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.parametric]

    def prunable_ids(self) -> list[int]:
        """Every parametric layer except the last, whose outputs are the logits."""
        return self.parametric_ids()[:-1]


def layer_shapes(model: ToyModel) -> list[tuple[tuple, tuple]]:
    """(input_shape, output_shape) per layer, propagated from the model input."""
    shapes = []
    cur = tuple(model.input_shape)
    for i, layer in enumerate(model.layers):
        try:
            nxt = layer.out_shape(cur)
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"layer {i}: {exc}") from None
        shapes.append((cur, nxt))
        cur = nxt
    return shapes


def forward(model: ToyModel, x: np.ndarray, stop: int | None = None) -> np.ndarray:
    """Output of `model.layers[:stop]` for a batch in float64, by default the
    logits; raises ShapeMismatch on a wrong input shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != model.input_shape:
        raise ShapeMismatch(f"model expects [n, {model.input_shape}], got {x.shape}")
    for layer in model.layers[:stop]:
        x = layer.forward(x)
    return x


def _run_chunked(model: ToyModel, ds: LabeledDataset, dtype: np.typing.DTypeLike,
                 stop: int | None = None) -> np.ndarray:
    """`forward` over the whole dataset, in chunks of _CAPTURE_CHUNK samples,
    each cast into its rows of one array of `dtype` allocated once.

    A float64 value beyond a narrower dtype's range is stored as Inf without
    a warning; the caller's finiteness check refuses it.
    """
    out = None
    for start in range(0, ds.n_samples, _CAPTURE_CHUNK):
        chunk = forward(model, ds.samples[start : start + _CAPTURE_CHUNK], stop)
        if out is None:
            out = np.empty((ds.n_samples, *chunk.shape[1:]), dtype)
        with np.errstate(over="ignore"):
            out[start : start + len(chunk)] = chunk
    return out


def check_fit(model: ToyModel, ds: LabeledDataset) -> None:
    """Raise ShapeMismatch unless `model` reads the samples of `ds` and has a
    logit for each of its class ids."""
    if ds.samples.shape[1:] != model.input_shape:
        raise ShapeMismatch(f"model expects samples of shape {model.input_shape}, "
                            f"dataset has {ds.samples.shape[1:]}")
    if ds.labels.max(initial=0) >= model.output_shape()[0]:
        raise ShapeMismatch("dataset class id exceeds model output width")


# -------------------------------------------------------------- training

def softmax_xent(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray | None = None):
    """Mean cross-entropy and its gradient w.r.t. the logits; `rows` is
    np.arange(len(logits)) when the caller has it at hand."""
    # the ufuncs' own reductions: the bits of .max(), .sum() and .mean()
    # without their Python wrappers
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logp = z - np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
    n = logits.shape[0]
    if rows is None:
        rows = np.arange(n)
    loss = -(np.add.reduce(logp[rows, labels]) / n)
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def _first_learning(model: ToyModel, trainable_from: int) -> int:
    """Id of the first parametric layer at or after `trainable_from`, or the
    layer count when there is none."""
    return next((i for i in model.parametric_ids() if i >= trainable_from), len(model.layers))


def _backprop(model: ToyModel, x: np.ndarray, labels: np.ndarray, first: int,
              grads: list, rows: np.ndarray) -> tuple[float, int]:
    """Loss and hit count of one float64 batch that fits `model`, `rows`
    being np.arange(len(x)); writes the parameter gradients of each layer
    from `first` on into its `grads` entry."""
    layers = model.layers
    h = x
    caches = []
    for layer in layers:
        h, cache = layer.forward_cache(h)
        caches.append(cache)
    hits = np.count_nonzero(h.argmax(axis=1) == labels)
    loss, g = softmax_xent(h, labels, rows)
    # nothing reads the input gradient of the first layer that learns, so
    # the backward pass stops there without computing it
    for i in range(len(layers) - 1, first, -1):
        pg = grads[i]
        g = (layers[i].backward(g, caches[i]) if pg is None
             else layers[i].backward(g, caches[i], out=pg))[0]
    if first < len(layers):
        layers[first].backward(g, caches[first], input_grad=False, out=grads[first])
    return loss, hits


def loss_and_grads(model: ToyModel, x: np.ndarray, labels: np.ndarray, trainable_from: int = 0):
    """Cross-entropy loss, per-layer parameter gradients (None below
    `trainable_from`) and the number of samples whose largest logit is
    their label's. The samples must fit the model (see `check_fit`)."""
    first = _first_learning(model, trainable_from)
    grads = [{"w": np.empty_like(l.w), "b": np.empty_like(l.b)} if l.parametric and i >= first
             else None for i, l in enumerate(model.layers)]
    x = np.asarray(x, dtype=np.float64)
    loss, hits = _backprop(model, x, np.asarray(labels), first, grads, np.arange(len(x)))
    return loss, grads, hits


def accuracy(model: ToyModel, ds: LabeledDataset) -> float:
    return float((_run_chunked(model, ds, np.float64).argmax(axis=1) == ds.labels).mean())


def check_train_settings(epochs: int, lr: float, batch_size: int) -> None:
    """Raise BadParams unless epochs is an integer >= 0, lr a finite real
    number > 0 and batch_size an integer >= 1; a bool is none of these."""
    if not (is_int(epochs) and epochs >= 0 and is_real(lr) and 0.0 < lr < math.inf
            and is_int(batch_size) and batch_size >= 1):  # also rejects nan
        raise BadParams("need epochs >= 0, finite lr > 0, batch_size >= 1")


def _flat_copy(model: ToyModel, first: int):
    """(copy, params, grad_buf, grads): a copy of `model` whose parametric
    layers' `w` and `b` are views into one new float64 vector `params`, in
    layer order; a vector `grad_buf` for the gradients of the layers from
    `first` on, laid out as their parameters are at the tail of `params`;
    and per layer a dict of "w" and "b" views into `grad_buf` (None below
    `first` and for a layer without parameters)."""
    sizes = [l.w.size + l.b.size if l.parametric else 0 for l in model.layers]
    params = np.empty(sum(sizes))
    grad_buf = np.empty(sum(sizes[first:]))
    lo = params.size - grad_buf.size
    layers, grads, off = [], [], 0
    for i, layer in enumerate(model.layers):
        if not layer.parametric:
            layers.append(layer.copy())
            grads.append(None)
            continue
        p, g = {}, {}
        for name in ("w", "b"):
            a = getattr(layer, name)
            end = off + a.size
            p[name] = params[off:end].reshape(a.shape)
            p[name][...] = a
            if i >= first:
                g[name] = grad_buf[off - lo : end - lo].reshape(a.shape)
            off = end
        layers.append(type(layer)(*layer.fields, p["w"], p["b"]))
        grads.append(g or None)
    copy = ToyModel(layers, model.input_shape, model.rng_seed, model.train_epochs, model.train_lr)
    return copy, params, grad_buf, grads


def train(model: ToyModel, ds: LabeledDataset, epochs: int, lr: float, seed: int,
          batch_size: int = 64, trainable_from: int = 0, on_epoch=None) -> ToyModel:
    """SGD on shuffled mini-batches; returns a new model, input untouched.

    Only layers with id >= `trainable_from` are updated (0 = all).
    After each epoch `on_epoch(epoch, loss, accuracy)` receives the epoch
    number from 1 and two running figures over that epoch's batches, each
    taken at the weights before the batch's update: the mean cross-entropy
    and the share of samples whose largest logit was their label's. No
    extra pass over the data is made for them; `accuracy` gives the
    trained model's.
    Raises ShapeMismatch up front when the model cannot read the samples or
    a class id has no logit, and Divergence when the epoch loss or any
    weight goes non-finite.
    The returned model's parameters are views into one buffer of its own.
    """
    check_train_settings(epochs, lr, batch_size)
    check_fit(model, ds)
    first = _first_learning(model, trainable_from)
    out, params, grad_buf, grads = _flat_copy(model, first)
    if epochs == 0:
        return out
    # the layers that learn are a tail of the parametric ones
    learning = params[params.size - grad_buf.size :]
    y = ds.labels
    n = ds.n_samples
    rows = np.arange(min(batch_size, n))
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total, hits = 0.0, 0
        # blow-ups surface as non-finite values and are reported below,
        # so the intermediate overflow warnings carry no information
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                # widened one batch at a time: a float64 copy of the whole
                # dataset would hold twice its bytes for the whole run
                x = ds.samples[idx].astype(np.float64)
                loss, batch_hits = _backprop(out, x, y[idx], first, grads, rows[: len(idx)])
                total += loss * len(idx)
                hits += batch_hits
                grad_buf *= lr
                learning -= grad_buf
        epoch_loss = total / n
        if not math.isfinite(epoch_loss) or not np.isfinite(params).all():
            raise Divergence(f"non-finite state at epoch {epoch + 1} (lr={lr})")
        if on_epoch is not None:
            on_epoch(epoch + 1, epoch_loss, hits / n)
    out.train_epochs = epochs
    out.train_lr = lr
    return out


def stratified_subset(labels: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted sample indices covering ceil(fraction * n), at least two per class.

    Quotas follow largest-remainder apportionment of the class counts, then
    get bumped so no class drops below two (the dataset invariant).
    """
    if not (is_real(fraction) and 0.0 < fraction <= 1.0):
        raise BadParams(f"fraction must be in (0, 1], got {fraction}")
    n = len(labels)
    counts = np.bincount(labels)
    c = len(counts)
    m = min(n, max(math.ceil(fraction * n), 2 * c))
    raw = m * counts / n
    quota = np.floor(raw).astype(int)
    order = np.argsort(-(raw - quota), kind="stable")
    quota[order[: m - quota.sum()]] += 1
    for cls in range(c):  # floor of two per class; donors shed one at a time
        while quota[cls] < 2:
            donor = int(np.argmax(quota))
            quota[donor] -= 1
            quota[cls] += 1
    picked = [rng.choice(np.flatnonzero(labels == cls), size=int(q), replace=False)
              for cls, q in enumerate(quota)]
    return np.sort(np.concatenate(picked))


def finetune(model: ToyModel, ds: LabeledDataset, fraction: float, epochs: int,
             lr: float, seed: int, trainable_from: int = 0) -> ToyModel:
    """Train on a seeded stratified subset; fraction = 1 reduces to `train`."""
    idx = stratified_subset(ds.labels, fraction,
                            np.random.default_rng(derive_seed(seed, "subset")))
    sub = LabeledDataset(ds.samples[idx], ds.labels[idx])
    return train(model, sub, epochs, lr, seed, trainable_from=trainable_from)


# ------------------------------------------------------------- capture

def check_capture(model: ToyModel, ds: LabeledDataset, layer_id: int) -> None:
    """Raise BadParams unless the layer is prunable, its maps over the
    dataset hold at most `data.MAX_VALUES` values, and so does the
    separability space built from them: prod(output shape) x C(C-1)/2
    cells for C = the largest label + 1, as `sepspace.build_space` takes it."""
    if layer_id not in (prunable := model.prunable_ids()):
        raise BadParams(f"layer {layer_id} is not prunable; prunable ids: {prunable}")
    flat = math.prod(layer_shapes(model)[layer_id][1])
    size = ds.n_samples * flat
    if size > data.MAX_VALUES:
        raise BadParams(f"layer {layer_id}: n x prod(output shape) = {size} values; "
                        f"the limit is {data.MAX_VALUES}")
    cells = flat * math.comb(ds.num_classes, 2)
    if cells > data.MAX_VALUES:
        raise BadParams(f"layer {layer_id}: prod(output shape) x class pairs = {cells} "
                        f"separability cells; the limit is {data.MAX_VALUES}")


def capture_activations(model: ToyModel, ds: LabeledDataset, layer_id: int,
                        pre_activation: bool = False) -> ActivationTensor:
    """Component activations of one prunable layer over the whole dataset.

    By default the maps are taken after the ReLU that follows the layer,
    because that is what the next layer consumes; `pre_activation` skips it.
    `check_capture` runs before any value is computed.
    """
    check_capture(model, ds, layer_id)
    # a prunable layer is never the last: the output layer follows it
    take_relu = not pre_activation and isinstance(model.layers[layer_id + 1], ReLU)
    stop = layer_id + 2 if take_relu else layer_id + 1
    values = _run_chunked(model, ds, "<f4", stop)
    if values.ndim == 2:
        values = values[:, :, None, None]
    return ActivationTensor(values, ds.labels)


# -------------------------------------------------------------- surgery

def apply_prune(model: ToyModel, plan: PruningPlan) -> ToyModel:
    """Structurally remove components listed in the plan; returns a new model.

    For each entry the layer keeps only `kept_indices` (rows of its weight
    matrix or filters), and the next parametric layer drops the matching
    input columns or channels. Across a Flatten, a conv channel maps to a
    contiguous block of columns under row-major [channel][row][col] order.
    The network output shape never changes.
    """
    out = model.copy()
    shapes = layer_shapes(model)  # widths before surgery
    prunable = set(model.prunable_ids())
    for entry in sorted(plan.entries, key=lambda e: e.layer_id):
        lid = entry.layer_id
        if lid not in prunable:
            raise MalformedPlan(f"layer {lid} is not a prunable layer of this model")
        layer = out.layers[lid]
        if entry.n_components != layer.n_components:
            raise MalformedPlan(f"layer {lid}: plan says {entry.n_components} components, "
                                f"model has {layer.n_components}")
        kept = np.asarray(entry.kept_indices, dtype=np.int64)
        if len(kept) == layer.n_components:
            continue
        j = lid + 1
        while not out.layers[j].parametric:  # the output layer at the latest
            j += 1
        # each component feeds a block of the next layer's input axis: one
        # channel, one feature, or h*w flattened columns
        block = shapes[j][0][0] // layer.n_components
        cols = (kept[:, None] * block + np.arange(block)).ravel()
        layer.w = layer.w[kept]
        layer.b = layer.b[kept]
        nxt = out.layers[j]
        nxt.w = nxt.w[:, cols]
    layer_shapes(out)  # sanity: the pruned stack must still compose
    return out


# ---------------------------------------------------------------- flops

@dataclass
class FlopsReport:
    per_layer: list[tuple[int, int]]
    total: int


def count_flops(model: ToyModel) -> FlopsReport:
    """Multiply-add count for one sample, biases excluded.

    Linear: 2 * n_in * n_out. Conv: 2 * k^2 * c_in * c_out * h_out * w_out.
    Activations, pooling and flatten count zero.
    """
    per_layer = [(i, layer.flops(out))
                 for i, (layer, (_, out)) in enumerate(zip(model.layers, layer_shapes(model)))]
    return FlopsReport(per_layer, sum(f for _, f in per_layer))


# ----------------------------------------------------- architecture specs

_CONV_TOKEN = re.compile(r"^c(\d+)k(\d+)(?:s(\d+))?(?:p(\d+))?$")
_POOL_TOKEN = re.compile(r"^p(\d+)$")
_SHAPE_TOKEN = re.compile(r"^(\d+)x(\d+)x(\d+)$")


def _tokens(body: str, base: int):
    """Split on '-' while keeping each token's offset in the full string."""
    pos = base
    for tok in body.split("-"):
        yield tok, pos
        pos += len(tok) + 1


def _int_token(tok: str, off: int) -> int:
    if not tok.isdecimal():
        raise ParseError(f"expected a positive integer, got {tok!r}", off)
    val = int(tok)
    if val < 1:
        raise ParseError("sizes must be >= 1", off)
    return val


def parse_arch(spec: str):
    """Parse an architecture string into (input_shape, layer builders).

    Grammar:
      mlp:IN-H1-...-OUT               linear stage only
      cnn:CxHxW-<conv|pool>...-f-...  conv stage, one flatten, linear stage
    The linear stage lists widths, with a ReLU between layers. Conv tokens
    are c<out>k<kernel> with optional s<stride> (default 1) and p<pad>
    (default kernel // 2), each followed by a ReLU; pool tokens are p<size>.

    A builder is a layer kind, then its fields after the input width, which
    `from_arch` takes from the shape flowing in: ("linear", n_out), ("conv",
    c_out, kernel, stride, pad), ("avgpool", size), ("relu",), ("flatten",).
    """
    cnn = spec.startswith("cnn:")
    if not cnn and not spec.startswith("mlp:"):
        raise ParseError("expected 'mlp:' or 'cnn:' prefix", 0)
    (head, off), *toks = _tokens(spec[4:], 4)
    if not cnn:
        input_shape = (_int_token(head, off),)
    elif head == "":
        raise ParseError("cnn needs a CxHxW input shape", off)
    elif not (m := _SHAPE_TOKEN.match(head)):
        raise ParseError(f"bad input shape {head!r}, expected CxHxW", off)
    else:
        input_shape = tuple(int(g) for g in m.groups())
        if min(input_shape) < 1:
            raise ParseError("input dimensions must be >= 1", off)
        if input_shape[1] != input_shape[2]:
            raise ParseError("input maps must be square", off)
    builders, widths = [], []
    linear_stage = not cnn  # an mlp spec starts where a cnn spec's 'f' leads
    for tok, off in toks:
        if cnn and tok == "f":
            if linear_stage:
                raise ParseError("only one flatten allowed", off)
            linear_stage = True
            builders.append(("flatten",))
        elif linear_stage:
            widths.append(_int_token(tok, off))
        elif cm := _CONV_TOKEN.match(tok):
            out, k, stride = int(cm[1]), int(cm[2]), int(cm[3] or 1)
            pad = int(cm[4]) if cm[4] else k // 2
            if min(out, k, stride) < 1:
                raise ParseError("conv sizes must be >= 1", off)
            builders += [("conv", out, k, stride, pad), ("relu",)]
        elif pm := _POOL_TOKEN.match(tok):
            builders.append(("avgpool", _int_token(pm.group(1), off)))
        else:
            raise ParseError(f"unrecognized token {tok!r}", off)
    if not linear_stage:
        raise ParseError("cnn spec needs an 'f' flatten token", len(spec))
    if not widths:
        raise ParseError("cnn spec needs at least one linear size after 'f'" if cnn
                         else "mlp needs at least input and output sizes", len(spec))
    for i, width in enumerate(widths):
        if i:
            builders.append(("relu",))
        builders.append(("linear", width))
    return input_shape, builders


def from_arch(spec: str, seed: int) -> ToyModel:
    """Build and initialize a model from an architecture string.

    A parametric layer's fields are the input width, then its builder's.
    Weights draw from uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), with fan_in
    = prod(weight_shape[1:]); biases start at zero.
    """
    input_shape, builders = parse_arch(spec)
    rng = np.random.default_rng(seed)
    layers = []
    cur = input_shape
    for kind, *fields in builders:
        cls = LAYER_TYPES[kind]
        params = ()
        if cls.parametric:
            fields = (cur[0], *fields)  # a linear layer only sees 1-D shapes
            shape = cls.weight_shape(*fields)
            bound = 1.0 / math.sqrt(math.prod(shape[1:]))
            params = (rng.uniform(-bound, bound, size=shape), np.zeros(shape[0]))
        layers.append(cls(*fields, *params))
        cur = layers[-1].out_shape(cur)
    return ToyModel(layers, input_shape, rng_seed=seed)
