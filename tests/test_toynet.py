"""Network engine: forward/backward, training, capture, surgery, FLOPs, grammar."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from acsp import data, sepspace, toynet
from acsp.errors import (
    BadParams,
    Divergence,
    MalformedPlan,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
)
from acsp.tensio import LabeledDataset, PlanEntry, PruningPlan, read_model, write_model
from acsp.toynet import (
    AvgPool,
    Conv,
    Flatten,
    Linear,
    ReLU,
    ToyModel,
    accuracy,
    apply_prune,
    capture_activations,
    count_flops,
    finetune,
    forward,
    from_arch,
    layer_shapes,
    loss_and_grads,
    parse_arch,
    softmax_xent,
    stratified_subset,
    train,
)

from conftest import balanced_labels, tiny_dataset


# ---------------------------------------------------------- layer forward

def test_linear_forward_hand_values():
    layer = Linear(2, 2, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([10.0, 20.0]))
    out = layer.forward(np.array([[1.0, 1.0]]))
    np.testing.assert_array_equal(out, [[13.0, 27.0]])


def test_relu_clamps_negatives():
    out = ReLU().forward(np.array([[-1.0, 0.0, 2.5]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.5]])


def _naive_conv(x, w, b, stride, pad):
    n, ci, h, _ = x.shape
    co, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    out = np.zeros((n, co, ho, ho))
    for s in range(n):
        for o in range(co):
            for i in range(ho):
                for j in range(ho):
                    patch = xp[s, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[s, o, i, j] = (patch * w[o]).sum() + b[o]
    return out


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv_forward_matches_naive_loops(stride, pad):
    gen = np.random.default_rng(0)
    x = gen.normal(size=(3, 2, 6, 6))
    w = gen.normal(size=(4, 2, 3, 3))
    b = gen.normal(size=4)
    layer = Conv(2, 4, 3, stride, pad, w, b)
    np.testing.assert_allclose(
        layer.forward(x), _naive_conv(x, w, b, stride, pad), atol=1e-12
    )


def test_avgpool_forward():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = AvgPool(2).forward(x)
    np.testing.assert_array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_flatten_is_row_major_channel_first():
    x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
    np.testing.assert_array_equal(Flatten().forward(x)[0], np.arange(8))


def test_forward_rejects_wrong_width():
    model = from_arch("mlp:3-4-2", seed=0)
    with pytest.raises(ShapeMismatch):
        forward(model, np.zeros((2, 5)))


def test_layer_shapes_propagation():
    model = from_arch("cnn:1x8x8-c4k3-p2-f-10-3", seed=0)
    shapes = layer_shapes(model)
    assert shapes[0] == ((1, 8, 8), (4, 8, 8))   # conv, same pad
    assert shapes[2][1] == (4, 4, 4)             # pooled
    assert shapes[3][1] == (64,)                 # flattened
    assert shapes[-1][1] == (3,)


@pytest.mark.parametrize("make, fields, w_shape, b_shape", [
    (Linear, (5, 4), (4, 5), (5,)),
    (Linear, (5, 4), (5, 4), (4,)),
    (Conv, (2, 3, 3, 1, 1), (3, 2, 3, 3), (2,)),
    (Conv, (2, 3, 3, 1, 1), (3, 2, 3, 2), (3,)),
])
def test_layer_refuses_weights_or_bias_of_the_wrong_shape(make, fields, w_shape, b_shape):
    with pytest.raises(ShapeMismatch, match=f"{make.kind} weights"):
        make(*fields, np.zeros(w_shape), np.zeros(b_shape))
    layer = make(*fields, np.zeros(make.weight_shape(*fields), np.float32),
                 np.zeros(make.weight_shape(*fields)[0], np.int64))
    assert layer.w.dtype == layer.b.dtype == np.float64


@pytest.mark.parametrize("make, fields", [
    (Linear, (2, 0)),
    (Linear, (0, 3)),
    (Conv, (1, 0, 3, 1, 1)),
    (Conv, (0, 2, 3, 1, 1)),
    (Conv, (1, 2, 0, 1, 1)),
])
def test_layer_refuses_a_weight_shape_with_a_zero_dimension(make, fields):
    # a 0-wide linear layer read from a file once ended in an IndexError
    # when its FLOPs were counted
    shape = make.weight_shape(*fields)
    with pytest.raises(ShapeMismatch, match="has a zero dimension"):
        make(*fields, np.zeros(shape), np.zeros(shape[0]))


@pytest.mark.parametrize("layers, input_shape", [
    ([Conv(1, 4, 3, 1, 1, np.zeros((4, 1, 3, 3)), np.zeros(4))], (1, 4, 4)),
    ([ReLU()], (1, 4, 4)),
    ([], (1, 4, 4)),
])
def test_model_refuses_an_output_that_is_not_a_vector(layers, input_shape):
    # a conv map as the output once ended accuracy in a broadcast ValueError
    with pytest.raises(ShapeMismatch, match="must be a vector of logits"):
        ToyModel(layers, input_shape)


def test_forward_stops_before_the_given_layer():
    model = from_arch("mlp:3-5-4-2", seed=2)
    x = np.random.default_rng(0).normal(size=(6, 3))
    np.testing.assert_array_equal(forward(model, x, stop=1), model.layers[0].forward(x))
    np.testing.assert_array_equal(forward(model, x, stop=0), x)
    np.testing.assert_array_equal(forward(model, x, stop=None),
                                  forward(model, x, stop=len(model.layers)))
    assert forward(model, x).shape == (6, 2)


def test_layer_shapes_rejects_bad_stack():
    layer = Linear(5, 4, np.zeros((4, 5)), np.zeros(4))
    model = ToyModel.__new__(ToyModel)
    model.layers = [layer]
    model.input_shape = (3,)
    model.rng_seed = 0
    model.train_epochs = 0
    model.train_lr = 0.0
    with pytest.raises(ShapeMismatch):
        layer_shapes(model)


# ---------------------------------------------------------------- losses

def test_softmax_xent_uniform_logits():
    logits = np.zeros((2, 4))
    loss, grad = softmax_xent(logits, np.array([0, 1]))
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)
    assert grad.shape == (2, 4)
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_softmax_xent_is_shift_invariant():
    gen = np.random.default_rng(1)
    logits = gen.normal(size=(5, 3))
    labels = np.array([0, 1, 2, 0, 1])
    base, _ = softmax_xent(logits, labels)
    shifted, _ = softmax_xent(logits + 1000.0, labels)
    assert shifted == pytest.approx(base, rel=1e-12)


def _fd(model, x, labels, flat, pos, eps):
    orig = flat[pos]
    flat[pos] = orig + eps
    up, _, _ = loss_and_grads(model, x, labels)
    flat[pos] = orig - eps
    dn, _, _ = loss_and_grads(model, x, labels)
    flat[pos] = orig
    return (up - dn) / (2 * eps)


def _grad_check(model, n=6, tol=1e-3):
    gen = np.random.default_rng(0)
    x = gen.normal(size=(n, *model.input_shape))
    width = model.layers[-1].n_out if hasattr(model.layers[-1], "n_out") else 2
    labels = (np.arange(n) % width).astype(np.int64)
    _, grads, _ = loss_and_grads(model, x, labels)
    for lid, pg in enumerate(grads):
        if pg is None:
            continue
        layer = model.layers[lid]
        for name in ("w", "b"):
            flat = getattr(layer, name).reshape(-1)
            probe = np.linspace(0, flat.size - 1, num=min(10, flat.size), dtype=int)
            for pos in probe:
                an = pg[name].reshape(-1)[pos]
                fd = _fd(model, x, labels, flat, pos, 1e-4)
                err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                if err > tol:
                    # a perturbation that crosses a relu kink breaks the
                    # two-sided estimate; a genuine gradient bug survives
                    # the retry at a smaller step, a crossing does not
                    fd = _fd(model, x, labels, flat, pos, 1e-6)
                    err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert err <= tol, f"layer {lid} {name}[{pos}]: rel err {err}"


def test_gradients_mlp():
    _grad_check(from_arch("mlp:3-6-4-2", seed=1))


def test_gradients_cnn_with_pool_and_stride():
    _grad_check(from_arch("cnn:2x6x6-c3k3-p2-c4k3s2-f-5-2", seed=2))


def _recording(method, calls):
    def wrapper(self, gy, cache, *out):
        calls.append((method.__name__, id(self)))
        return method(self, gy, cache, *out)
    return wrapper


@pytest.mark.parametrize("spec", ["mlp:3-6-4-2", "cnn:2x6x6-c3k3-p2-c4k3s2-f-5-2"])
def test_backward_skips_only_the_unread_input_gradient(monkeypatch, spec):
    # each layer that learns writes its parameter gradients, each but the
    # first also passes its input gradient down, every parameter gradient
    # equals the full backward pass's bit for bit and a frozen layer's stay
    # zero
    model = from_arch(spec, seed=2)
    x = np.random.default_rng(0).normal(size=(6, *model.input_shape))
    labels = np.arange(6) % 2
    h, caches = x, []
    for layer in model.layers:
        h, cache = layer.forward_cache(h)
        caches.append(cache)
    _, g = softmax_xent(h, labels)
    full = [None] * len(model.layers)
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        if layer.parametric:
            full[i] = {"w": np.zeros(layer.w.shape), "b": np.zeros(layer.b.shape)}
            layer.param_grads(g, caches[i], full[i])
        g = layer.backward(g, caches[i])
    calls = []
    for cls in (toynet.Linear, toynet.Conv):
        for name in ("backward", "param_grads"):
            monkeypatch.setattr(cls, name, _recording(getattr(cls, name), calls))
    ids = model.parametric_ids()
    # with `trainable_from`, the pass stops at the first layer at or after
    # it, and the layers below it get zero gradients
    for cut in (None, 1, ids[1] + 1):
        calls.clear()
        if cut is None:
            _, grads, _ = loss_and_grads(model, x, labels)
            learning = ids
        else:
            _, grads, _ = loss_and_grads(model, x, labels, trainable_from=cut)
            learning = [i for i in ids if i >= cut]
        expected = []
        for i in reversed(learning):
            expected.append(("param_grads", id(model.layers[i])))
            if i != learning[0]:
                expected.append(("backward", id(model.layers[i])))
        assert calls == expected
        for i, layer in enumerate(model.layers):
            assert (grads[i] is None) == (i not in ids)
            if i in learning:
                assert (grads[i]["w"] == full[i]["w"]).all()
                assert (grads[i]["b"] == full[i]["b"]).all()
            elif i in ids:  # +0.0 to the bit
                assert all(a.tobytes() == bytes(a.nbytes) for a in grads[i].values())


# -------------------------------------------------------------- training

def test_train_zero_epochs_returns_copy():
    model = from_arch("mlp:4-6-3", seed=3)
    ds = tiny_dataset(n=12, num_classes=3, dims=(4,), seed=0)
    out = train(model, ds, epochs=0, lr=0.1, seed=0)
    assert out is not model
    for a, b in zip(model.layers, out.layers):
        if hasattr(a, "w"):
            np.testing.assert_array_equal(a.w, b.w)


def test_train_reduces_loss_and_separates_blobs():
    ds = data.make_blobs(400, 2, (2,), seed=1)
    model = from_arch("mlp:2-16-2", seed=4)
    losses = []
    trained = train(model, ds, epochs=50, lr=0.1, seed=5,
                    on_epoch=lambda e, loss, acc: losses.append(loss))
    assert losses[-1] < losses[0]
    assert accuracy(trained, ds) >= 0.95


def test_train_divergence_on_absurd_lr():
    # softmax gradients saturate, so the weights blow up multiplicatively
    # across layers rather than in one step; give the explosion room
    ds = data.make_blobs(200, 2, (2,), seed=2)
    model = from_arch("mlp:2-8-2", seed=5)
    with pytest.raises(Divergence):
        train(model, ds, epochs=60, lr=1e6, seed=0)


def test_train_rejects_bad_params():
    ds = tiny_dataset()
    model = from_arch("mlp:4-4-3", seed=0)
    with pytest.raises(BadParams):
        train(model, ds, epochs=-1, lr=0.1, seed=0)
    with pytest.raises(BadParams):
        train(model, ds, epochs=1, lr=0.0, seed=0)
    for lr in (np.inf, np.nan):
        with pytest.raises(BadParams, match="finite lr"):
            train(model, ds, epochs=1, lr=lr, seed=0)
    # refused by type: 2.5 epochs or a batch of 2.5 ended in numpy's own
    # TypeError, and True passed for 1; 2**32 epochs trained, and then the
    # model could not be written, since its header's train_epochs is a u32
    for settings in ({"epochs": 2.5}, {"batch_size": 2.5}, {"epochs": True},
                     {"batch_size": True}, {"lr": True}, {"lr": "0.1"},
                     {"epochs": 2**32}):
        with pytest.raises(BadParams, match="need epochs >= 0"):
            train(model, ds, seed=0, **{"epochs": 1, "lr": 0.1, **settings})


def test_train_rejects_samples_of_another_shape():
    # refused up front, also with no epochs to run
    model = from_arch("mlp:3-4-3", seed=0)
    for epochs in (0, 1):
        with pytest.raises(ShapeMismatch, match=r"expects samples of shape \(3,\), dataset has \(4,\)"):
            train(model, tiny_dataset(), epochs=epochs, lr=0.1, seed=0)


def test_train_rejects_labels_beyond_output_width():
    ds = tiny_dataset(n=12, num_classes=3, dims=(4,))
    model = from_arch("mlp:4-4-2", seed=0)  # only 2 logits
    for epochs in (0, 1):
        with pytest.raises(ShapeMismatch):
            train(model, ds, epochs=epochs, lr=0.1, seed=0)


def test_train_is_deterministic():
    ds = data.make_blobs(200, 2, (2,), seed=3)
    model = from_arch("mlp:2-8-2", seed=6)
    a = train(model, ds, epochs=5, lr=0.1, seed=7)
    b = train(model, ds, epochs=5, lr=0.1, seed=7)
    for la, lb in zip(a.layers, b.layers):
        if hasattr(la, "w"):
            np.testing.assert_array_equal(la.w, lb.w)


def test_train_widens_one_batch_at_a_time():
    # one epoch's peak beyond the float32 dataset is the batch's forward and
    # backward state, about 7.4 bytes per sample value here; a float64 copy
    # of the whole dataset held for the run added 8 more (15.4)
    ds = data.make_blobs(2000, 4, (3, 16, 16), seed=7)
    model = from_arch("cnn:3x16x16-c16k3p1-p2-f-4", seed=7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(model, ds, epochs=1, lr=0.01, seed=7)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / ds.samples.size < 11.0, f"{peak / ds.samples.size:.1f} bytes per sample value"


def test_train_respects_trainable_subset():
    # a frozen layer's gradient entries stay +0.0 and the update subtracts
    # them too: x - (+0.0) keeps every bit of x, the sign of -0.0 included
    for spec, dims, trainable_from in [("mlp:2-8-8-2", (2,), 2),
                                       ("cnn:1x8x8-c8k3-p2-c16k3s2p1-f-32-4", (1, 8, 8), 6)]:
        ds = data.make_blobs(200, 2, dims, seed=4)
        model = from_arch(spec, seed=8)
        model.layers[0].w.flat[0] = -0.0
        model.layers[0].b[0] = -0.0
        before = [(l.w.tobytes(), l.b.tobytes()) if l.parametric else None for l in model.layers]
        out = train(model, ds, epochs=2, lr=0.1, seed=0, trainable_from=trainable_from)
        for i in model.parametric_ids():
            layer = out.layers[i]
            if i < trainable_from:
                assert (layer.w.tobytes(), layer.b.tobytes()) == before[i], (spec, i)
            else:
                assert layer.w.tobytes() != before[i][0], (spec, i)
        assert np.signbit(out.layers[0].w.flat[0]) and np.signbit(out.layers[0].b[0]), spec


def test_train_records_metadata():
    ds = data.make_blobs(100, 2, (2,), seed=5)
    model = from_arch("mlp:2-4-2", seed=9)
    out = train(model, ds, epochs=3, lr=0.25, seed=0)
    assert out.train_epochs == 3 and out.train_lr == 0.25
    assert model.train_epochs == 0  # input untouched


# A reference SGD loop in plain expressions: a new array for every bias
# add, ReLU mask, gradient division and update. Its conv contractions are
# the engine's own np.einsum calls, so what the oracle pins is that each
# in-place step gives the bits of the expression it replaced.

def _ref_forward(layer, h):
    if isinstance(layer, Linear):
        return h @ layer.w.T + layer.b, h
    if isinstance(layer, Conv):
        p, k, s = layer.pad, layer.kernel, layer.stride
        xp = np.pad(h, ((0, 0), (0, 0), (p, p), (p, p)))
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        y = np.einsum("ncxyij,ocij->noxy", win, layer.w, optimize=True)
        return y + layer.b[None, :, None, None], (win, xp.shape, h.shape)
    if isinstance(layer, ReLU):
        return np.maximum(h, 0.0), h
    if isinstance(layer, AvgPool):
        n, c, hh, ww = h.shape
        s = layer.size
        return h.reshape(n, c, hh // s, s, ww // s, s).mean(axis=(3, 5)), None
    return h.reshape(h.shape[0], -1), h.shape  # Flatten


def _ref_backward(layer, gy, cache):
    """(input gradient, parameter gradients or None)."""
    if isinstance(layer, Linear):
        return gy @ layer.w, {"w": gy.T @ cache, "b": gy.sum(axis=0)}
    if isinstance(layer, Conv):
        win, xp_shape, x_shape = cache
        dw = np.einsum("ncxyij,noxy->ocij", win, gy, optimize=True)
        gxp = np.zeros(xp_shape)
        ho, wo = gy.shape[2], gy.shape[3]
        s, k, p = layer.stride, layer.kernel, layer.pad
        for i in range(k):
            for j in range(k):
                patch = np.einsum("noxy,oc->ncxy", gy, layer.w[:, :, i, j], optimize=True)
                gxp[:, :, i : i + s * ho : s, j : j + s * wo : s] += patch
        gx = gxp[:, :, p : p + x_shape[2], p : p + x_shape[3]]
        return gx, {"w": dw, "b": gy.sum(axis=(0, 2, 3))}
    if isinstance(layer, ReLU):
        return gy * (cache > 0.0), None
    if isinstance(layer, AvgPool):
        s = layer.size
        return np.repeat(np.repeat(gy, s, axis=2), s, axis=3) / (s * s), None
    return gy.reshape(cache), None  # Flatten


def _ref_softmax_xent(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    loss = -logp[np.arange(n), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def _ref_train(model, ds, epochs, lr, seed, batch_size=64, trainable_from=0):
    out = model.copy()
    rng = np.random.default_rng(seed)
    losses, accuracies = [], []
    for _ in range(epochs):
        perm = rng.permutation(ds.n_samples)
        total, hits = 0.0, 0
        for start in range(0, ds.n_samples, batch_size):
            idx = perm[start : start + batch_size]
            h = ds.samples[idx].astype(np.float64)
            caches = []
            for layer in out.layers:
                h, cache = _ref_forward(layer, h)
                caches.append(cache)
            loss, g = _ref_softmax_xent(h, ds.labels[idx])
            total += loss * len(idx)
            hits += sum(int(np.argmax(row) == label) for row, label in zip(h, ds.labels[idx]))
            grads = []
            for layer, cache in zip(reversed(out.layers), reversed(caches)):
                g, pg = _ref_backward(layer, g, cache)
                grads.append(pg)
            for i, (layer, pg) in enumerate(zip(out.layers, reversed(grads))):
                if pg is not None and i >= trainable_from:
                    layer.w -= lr * pg["w"]
                    layer.b -= lr * pg["b"]
        losses.append(total / ds.n_samples)
        accuracies.append(hits / ds.n_samples)
    return out, losses, accuracies


# the third spec runs a padded conv's input gradient, a view into its
# padded array, through the ReLU below it, and ends on a 1x1 map
_ORACLE_CASES = [
    ("mlp:3-6-4-2", (3,)),
    ("cnn:2x6x6-c3k3-p2-c4k3s2-f-5-2", (2, 6, 6)),
    ("cnn:2x5x5-c3k3-c4k3s2-c2k3s2p0-f-2", (2, 5, 5)),
]


@pytest.mark.parametrize("spec, dims", _ORACLE_CASES)
@pytest.mark.parametrize("learns_from", [False, True, "logits", "nothing"])
def test_train_equals_the_plain_reference_bit_for_bit(spec, dims, learns_from):
    # 129 samples: two full batches of 64 and a one-sample batch
    ds = data.make_blobs(129, 2, dims, seed=21)
    model = from_arch(spec, seed=22)
    ids = model.parametric_ids()
    # learning starts at the first layer (False) or past the first
    # parametric one (True); with "logits" only the last layer learns, the
    # tail of the parameter buffer, and with "nothing" no layer does
    cut = {False: 0, True: ids[0] + 1, "logits": ids[-1],
           "nothing": len(model.layers)}[learns_from]
    logged = []
    got = train(model, ds, epochs=2, lr=0.1, seed=23, trainable_from=cut,
                on_epoch=lambda *row: logged.append(row))
    want, want_losses, want_accuracies = _ref_train(model, ds, 2, 0.1, 23, trainable_from=cut)
    # both logged columns are running figures over the epoch's own batches,
    # each taken at the weights before the batch's update
    assert logged == list(zip([1, 2], want_losses, want_accuracies))
    for i, (a, b) in enumerate(zip(got.layers, want.layers)):
        if a.parametric:
            assert (a.w == b.w).all() and (a.b == b.b).all(), f"layer {i}"
    for i in ids:  # the layers below the cut kept their initial weights
        if i < cut:
            assert (got.layers[i].w == model.layers[i].w).all()
            assert (got.layers[i].b == model.layers[i].b).all()


def _param_bytes(model):
    return [(l.w.tobytes(), l.b.tobytes()) for l in model.layers if l.parametric]


def test_train_logs_without_a_pass_over_the_whole_dataset(monkeypatch):
    # the logged accuracy comes from the batches' own logits: neither the
    # chunked forward pass nor `accuracy` may run, and the callback leaves
    # the trained weights as they are without it
    ds = data.make_blobs(129, 3, (2,), seed=27)
    model = from_arch("mlp:2-8-3", seed=28)
    quiet = train(model, ds, epochs=3, lr=0.1, seed=29)

    def no_full_pass(*args, **kwargs):
        raise AssertionError("a full-data pass ran during training")

    monkeypatch.setattr(toynet, "_run_chunked", no_full_pass)
    monkeypatch.setattr(toynet, "accuracy", no_full_pass)
    logged = []
    got = train(model, ds, epochs=3, lr=0.1, seed=29,
                on_epoch=lambda *row: logged.append(row))
    assert len(logged) == 3 and all(0.0 <= acc <= 1.0 for _, _, acc in logged)
    assert _param_bytes(got) == _param_bytes(quiet)


def test_oracle_specs_use_every_layer_kind():
    kinds = {layer.kind for spec, _ in _ORACLE_CASES for layer in from_arch(spec, 0).layers}
    assert kinds == set(toynet.LAYER_TYPES)


@pytest.mark.parametrize("spec, dims", _ORACLE_CASES)
def test_step_writes_only_into_arrays_it_owns(spec, dims):
    # the in-place bias, ReLU-mask and update steps leave the caller's
    # batch, labels and model as they were, to the bit
    ds = data.make_blobs(150, 2, dims, seed=24)
    model = from_arch(spec, seed=25)
    x = ds.samples[:40].astype(np.float64)
    labels = ds.labels[:40].copy()
    x0, labels0, params0 = x.tobytes(), labels.tobytes(), _param_bytes(model)
    _, grads, _ = loss_and_grads(model, x, labels)
    assert x.tobytes() == x0 and labels.tobytes() == labels0
    # train scales each gradient in place: none may alias another array
    held = [x] + [a for l in model.layers if l.parametric for a in (l.w, l.b)]
    for g in [a for pg in grads if pg is not None for a in pg.values()]:
        assert not any(np.shares_memory(g, a) for a in held)
        held.append(g)
    assert _param_bytes(model) == params0
    samples0 = ds.samples.tobytes()
    trained = train(model, ds, epochs=2, lr=0.1, seed=26)
    assert _param_bytes(model) == params0
    assert ds.samples.tobytes() == samples0
    assert _param_bytes(trained) != params0


def _params(model):
    return [a for l in model.layers if l.parametric for a in (l.w, l.b)]


def _grad_arrays(grads):
    return [a for pg in grads if pg is not None for a in pg.values()]


def _share_nothing(arrays, others=()):
    """True when no two of `arrays`, and none of them and one of `others`,
    share memory."""
    return not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                   for b in [*arrays[i + 1 :], *others])


@pytest.mark.parametrize("spec, dims", _ORACLE_CASES)
def test_trained_parameters_alias_nothing(spec, dims):
    # train's parameters are views into one buffer and its gradients views
    # into a second: a view left shared across layers, with the input
    # model or with a copy would let a later fine-tune write through it
    ds = data.make_blobs(150, 2, dims, seed=24)
    model = from_arch(spec, seed=25)
    trained = train(model, ds, epochs=2, lr=0.1, seed=26)
    assert _share_nothing(_params(trained), _params(model))
    lid = trained.prunable_ids()[0]
    plan = PruningPlan([_entry(trained, lid, range(1, trained.layers[lid].n_components))])
    for derived in (trained.copy(), apply_prune(trained, plan)):
        assert _share_nothing(_params(derived), _params(trained))
    # no gradient aliases a weight, in train's buffers or in new ones
    (copy, params), (grad_buf, grads) = toynet._flat_copy(trained), toynet._layout(trained)
    assert not np.shares_memory(params, grad_buf)
    assert _share_nothing(_params(copy) + _grad_arrays(grads), _params(trained))
    x = ds.samples[:40].astype(np.float64)
    _, fresh, _ = loss_and_grads(trained, x, ds.labels[:40])
    assert _share_nothing(_params(trained) + _grad_arrays(fresh))


# ---------------------------------------------------- subsets & finetune

def test_stratified_subset_balanced_quota():
    labels = balanced_labels(2000, 4)
    idx = stratified_subset(labels, 0.1, np.random.default_rng(0))
    assert len(idx) == 200
    counts = np.bincount(labels[idx])
    np.testing.assert_array_equal(counts, [50, 50, 50, 50])
    assert np.all(np.diff(idx) > 0)


def test_stratified_subset_keeps_two_per_class():
    labels = np.array([0] * 96 + [1] * 2 + [2] * 2, dtype=np.int64)
    idx = stratified_subset(labels, 0.06, np.random.default_rng(1))
    counts = np.bincount(labels[idx], minlength=3)
    assert counts[1] >= 2 and counts[2] >= 2


def test_stratified_subset_proportional_on_skew():
    labels = np.array([0] * 150 + [1] * 50, dtype=np.int64)
    idx = stratified_subset(labels, 0.2, np.random.default_rng(2))
    counts = np.bincount(labels[idx])
    assert len(idx) == 40
    np.testing.assert_array_equal(counts, [30, 10])


def test_stratified_subset_rejects_bad_fraction():
    with pytest.raises(BadParams):
        stratified_subset(balanced_labels(10, 2), 0.0, np.random.default_rng(0))
    with pytest.raises(BadParams):
        stratified_subset(balanced_labels(10, 2), 1.5, np.random.default_rng(0))
    for fraction in (True, "0.5"):  # True once passed for 1, "0.5" ended in a TypeError
        with pytest.raises(BadParams, match="fraction must be in"):
            stratified_subset(balanced_labels(10, 2), fraction, np.random.default_rng(0))
    with pytest.raises(BadParams, match="fraction must be in"):
        finetune(from_arch("mlp:4-4-3", seed=0), tiny_dataset(), fraction=True, epochs=1,
                 lr=0.1, seed=0)


@pytest.mark.parametrize("epochs", [0, 3])
def test_finetune_keeps_the_training_record(epochs):
    # train_epochs and train_lr record the model's own training; a fine-tune
    # at another rate leaves them as they were
    ds = data.make_blobs(120, 3, (2,), seed=6)
    model = train(from_arch("mlp:2-8-3", seed=10), ds, epochs=2, lr=0.125, seed=1)
    tuned = finetune(model, ds, fraction=0.5, epochs=epochs, lr=0.05, seed=11)
    assert (tuned.train_epochs, tuned.train_lr) == (2, 0.125)


def test_finetune_full_fraction_equals_train():
    ds = data.make_blobs(120, 3, (2,), seed=6)
    model = from_arch("mlp:2-8-3", seed=10)
    a = finetune(model, ds, fraction=1.0, epochs=3, lr=0.05, seed=11)
    b = train(model, ds, epochs=3, lr=0.05, seed=11)
    for la, lb in zip(a.layers, b.layers):
        if hasattr(la, "w"):
            np.testing.assert_array_equal(la.w, lb.w)


def test_finetune_subset_is_seed_stable():
    ds = data.make_blobs(200, 2, (2,), seed=7)
    model = from_arch("mlp:2-8-2", seed=12)
    a = finetune(model, ds, fraction=0.25, epochs=2, lr=0.05, seed=13)
    b = finetune(model, ds, fraction=0.25, epochs=2, lr=0.05, seed=13)
    for la, lb in zip(a.layers, b.layers):
        if hasattr(la, "w"):
            np.testing.assert_array_equal(la.w, lb.w)


# --------------------------------------------------------------- capture

def test_capture_post_relu_is_nonnegative():
    ds = tiny_dataset(n=20, num_classes=2, dims=(4,), seed=8)
    model = from_arch("mlp:4-6-5-2", seed=14)
    act = capture_activations(model, ds, 0)
    assert act.values.shape == (20, 6, 1)
    assert (act.values >= 0.0).all()


def test_capture_pre_activation_differs():
    ds = tiny_dataset(n=20, num_classes=2, dims=(4,), seed=9)
    model = from_arch("mlp:4-6-2", seed=15)
    post = capture_activations(model, ds, 0)
    pre = capture_activations(model, ds, 0, pre_activation=True)
    assert (pre.values < 0.0).any()
    np.testing.assert_array_equal(np.maximum(pre.values, 0.0), post.values)


def test_capture_conv_map_is_one_row_of_cells():
    ds = tiny_dataset(n=8, num_classes=2, dims=(1, 8, 8), seed=10)
    model = from_arch("cnn:1x8x8-c4k3-p2-f-6-2", seed=16)
    act = capture_activations(model, ds, 0)
    assert act.values.shape == (8, 4, 64)  # each 8 x 8 map as 64 cells


_CHUNK_EDGE_N = 2 * toynet._CAPTURE_CHUNK + 3  # two full chunks and a partial one


def test_capture_chunking_is_invisible():
    # each chunk is cast into its own rows; the capture must equal one
    # unchunked forward pass cast to float32, for linear and conv layers,
    # after and before the ReLU
    for arch, dims in (("mlp:3-5-2", (3,)), ("cnn:1x6x6-c3k3-p2-f-2", (1, 6, 6))):
        ds = tiny_dataset(n=_CHUNK_EDGE_N, num_classes=2, dims=dims, seed=11)
        model = from_arch(arch, seed=17)
        for pre_activation, stop in ((False, 2), (True, 1)):
            act = capture_activations(model, ds, 0, pre_activation=pre_activation)
            want = forward(model, ds.samples, stop).astype(np.float32)
            assert act.values.dtype == np.float32
            np.testing.assert_array_equal(act.values.reshape(want.shape), want)


def test_accuracy_chunking_is_invisible():
    ds = tiny_dataset(n=_CHUNK_EDGE_N, num_classes=3, dims=(4,), seed=12)
    model = from_arch("mlp:4-6-3", seed=18)
    logits = np.concatenate([forward(model, ds.samples[start : start + toynet._CAPTURE_CHUNK])
                             for start in range(0, ds.n_samples, toynet._CAPTURE_CHUNK)])
    assert accuracy(model, ds) == float((logits.argmax(axis=1) == ds.labels).mean())


def test_capture_beyond_float32_is_refused_without_a_warning():
    # float64 activations past float32's range become Inf in the chunk cast,
    # with no "overflow encountered in cast" warning, and are then refused
    ds = tiny_dataset(n=20, num_classes=2, dims=(4,), seed=8)
    model = from_arch("mlp:4-6-2", seed=14)
    model.layers[0].w[...] = 1e38
    assert (forward(model, ds.samples, 2) > np.finfo(np.float32).max).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for pre_activation in (False, True):
            with pytest.raises(NonFiniteValue, match="beyond float32's range"):
                capture_activations(model, ds, 0, pre_activation=pre_activation)


def test_capture_and_build_space_peak_under_12_bytes_per_value():
    # the layer is held once in float32 and widened to float64 one class at
    # a time; a float64 copy of the whole layer alone would be 8 bytes more
    ds = tiny_dataset(n=8 * toynet._CAPTURE_CHUNK, num_classes=4, dims=(1, 8, 8), seed=13)
    model = from_arch("cnn:1x8x8-c8k3p1-p2-f-4", seed=19)
    values = ds.n_samples * 8 * 8 * 8
    tracemalloc.start()
    try:
        space = sepspace.build_space(capture_activations(model, ds, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.values.shape == (8, 64 * 6)
    assert peak / values < 12.0, f"{peak / values:.1f} bytes per captured value"


def test_capture_rejects_non_prunable_layers():
    ds = tiny_dataset(n=12, num_classes=2, dims=(4,), seed=12)
    model = from_arch("mlp:4-6-2", seed=18)
    with pytest.raises(BadParams):
        capture_activations(model, ds, 1)  # the relu
    with pytest.raises(BadParams):
        capture_activations(model, ds, 2)  # the output layer


def test_capture_refuses_a_layer_too_large_before_computing_it(monkeypatch):
    ds = tiny_dataset(n=12, num_classes=2, dims=(4,), seed=12)
    model = from_arch("mlp:4-6-2", seed=18)  # layer 0: 12 x 6 = 72 values
    monkeypatch.setattr(data, "MAX_VALUES", 72)
    assert capture_activations(model, ds, 0).values.shape == (12, 6, 1)
    monkeypatch.setattr(data, "MAX_VALUES", 71)

    def no_forward(*args):
        raise AssertionError("a refused layer must not be computed")

    monkeypatch.setattr(toynet, "_run_chunked", no_forward)
    with pytest.raises(BadParams, match=r"layer 0: n x prod\(output shape\) = 72 values; "
                                        r"the limit is 71"):
        capture_activations(model, ds, 0)


def test_capture_refuses_a_layer_whose_space_is_too_large(monkeypatch):
    ds = tiny_dataset(n=12, num_classes=6, dims=(4,), seed=12)
    model = from_arch("mlp:4-6-6", seed=18)  # layer 0: 12 x 6 = 72 values, 6 x 15 = 90 cells
    monkeypatch.setattr(data, "MAX_VALUES", 90)
    assert sepspace.build_space(capture_activations(model, ds, 0)).values.shape == (6, 15)
    monkeypatch.setattr(data, "MAX_VALUES", 89)

    def no_forward(*args):
        raise AssertionError("a refused layer must not be computed")

    monkeypatch.setattr(toynet, "_run_chunked", no_forward)
    with pytest.raises(BadParams, match=r"layer 0: prod\(output shape\) x class pairs = 90 "
                                        r"separability cells; the limit is 89"):
        capture_activations(model, ds, 0)


# ----------------------------------------------------------- batch bound

# a conv padded by 3000 makes a (b, 1, 6008, 6008) padded input, 17.2 GiB at
# b = 64, and one padded by 700 a 1.98M-value map per sample, 968 MiB per
# array at b = 64; each has only a few parameters
_BIG_BATCH_SPECS = ["cnn:1x8x8-c4k3p3000-p6006-f-4", "cnn:1x8x8-c1k1p700-f-4"]


@pytest.mark.parametrize("spec", _BIG_BATCH_SPECS)
def test_train_and_accuracy_refuse_a_batch_too_large_before_allocating(spec):
    ds = data.make_blobs(64, 4, (1, 8, 8), seed=0)
    model = from_arch(spec, seed=0)
    with pytest.raises(BadParams, match=r"^layer 0: a batch of 64 samples .* limit is 67108864$"):
        train(model, ds, epochs=1, lr=0.1, seed=0)
    with pytest.raises(BadParams, match=r"^layer 0: a batch of 64 samples .* limit is 67108864$"):
        accuracy(model, ds)


@pytest.mark.parametrize("spec", ["cnn:1x8x8-c4k3p3000-p6006-c2k1-f-4",
                                  "cnn:1x8x8-c1k1p700-p1408-c2k1-f-4"])
def test_capture_refuses_a_batch_too_large_before_allocating(spec):
    # the wide conv of each spec above, pooled down to 1x1 and followed by a
    # narrow conv: `check_capture` lets that layer through
    model = from_arch(spec, seed=0)
    ds = data.make_blobs(64, 4, (1, 8, 8), seed=0)
    toynet.check_capture(model, ds, 3)
    with pytest.raises(BadParams, match=r"^layer 0: a batch of 64 samples .* limit is 67108864$"):
        capture_activations(model, ds, 3)


def test_batch_bound_is_inclusive_and_counts_samples(monkeypatch):
    # mlp:2-8-4 makes at most 8 values per sample, in its hidden layer
    model = from_arch("mlp:2-8-4", seed=0)
    monkeypatch.setattr(data, "MAX_VALUES", 32)
    toynet.check_batch(model, 4)
    with pytest.raises(BadParams, match="layer 0: a batch of 5 samples makes an array of 40 "
                                        "values; the limit is 32"):
        toynet.check_batch(model, 5)
    ds = data.make_blobs(5, 2, (2,), seed=0)
    train(model, ds, epochs=1, lr=0.1, seed=0, batch_size=4)
    with pytest.raises(BadParams):
        train(model, ds, epochs=1, lr=0.1, seed=0, batch_size=5)


# on 2x6x6 the windows, the padded input and the output are largest in turn
@pytest.mark.parametrize("token", ["c4k3s1p1", "c4k1s3p6", "c32k1s1p0"])
def test_conv_sample_values_is_its_largest_forward_array(token):
    conv = from_arch(f"cnn:2x6x6-{token}-f-2", seed=0).layers[0]
    x = np.zeros((3, 2, 6, 6))
    y, (win, xp_shape, _) = conv.forward_cache(x)
    largest = max(y[0].size, math.prod(xp_shape[1:]), win[0].size)
    assert conv.sample_values((2, 6, 6), y.shape[1:]) == largest


# --------------------------------------------------------------- surgery

def _mask_forward(model, x, layer_id, kept):
    """Oracle: zero the dropped components' activations, keep the full stack."""
    h = x.astype(np.float64)
    mask = np.zeros(model.layers[layer_id].n_components)
    mask[kept] = 1.0
    for i, layer in enumerate(model.layers):
        h = layer.forward(h)
        if i == layer_id:
            h = h * (mask[:, None, None] if h.ndim == 4 else mask)
    return h


def _entry(model, layer_id, kept):
    kept = sorted(kept)
    return PlanEntry(layer_id, model.layers[layer_id].n_components,
                     list(kept), len(kept), "regular", 2)


def test_empty_plan_is_identity():
    model = from_arch("mlp:3-6-2", seed=19)
    out = apply_prune(model, PruningPlan([]))
    x = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(forward(out, x), forward(model, x))


def test_prune_equals_masking_linear():
    model = from_arch("mlp:4-10-8-3", seed=20)
    x = np.random.default_rng(1).normal(size=(6, 4))
    kept = [0, 2, 3, 7, 9]
    pruned = apply_prune(model, PruningPlan([_entry(model, 0, kept)]))
    np.testing.assert_allclose(
        forward(pruned, x), _mask_forward(model, x, 0, kept), atol=1e-9
    )
    assert pruned.layers[0].n_out == 5
    assert pruned.layers[2].n_in == 5


def test_prune_equals_masking_two_layers():
    model = from_arch("mlp:4-10-8-3", seed=21)
    x = np.random.default_rng(2).normal(size=(6, 4))
    plan = PruningPlan([_entry(model, 0, [1, 4, 5]), _entry(model, 2, [0, 2, 6, 7])])
    pruned = apply_prune(model, plan)
    masked = _mask_forward(model, x, 0, [1, 4, 5])
    # chain the second mask by hand
    h = x.astype(np.float64)
    m0 = np.zeros(10); m0[[1, 4, 5]] = 1.0
    m2 = np.zeros(8); m2[[0, 2, 6, 7]] = 1.0
    for i, layer in enumerate(model.layers):
        h = layer.forward(h)
        if i == 0:
            h = h * m0
        if i == 2:
            h = h * m2
    np.testing.assert_allclose(forward(pruned, x), h, atol=1e-9)


def test_prune_conv_across_flatten_equals_masking():
    model = from_arch("cnn:1x6x6-c5k3-p2-f-7-2", seed=22)
    x = np.random.default_rng(3).normal(size=(4, 1, 6, 6))
    kept = [0, 3, 4]
    pruned = apply_prune(model, PruningPlan([_entry(model, 0, kept)]))
    np.testing.assert_allclose(
        forward(pruned, x), _mask_forward(model, x, 0, kept), atol=1e-9
    )
    # flatten block bookkeeping: 3 channels * 3x3 pooled maps
    assert pruned.layers[4].n_in == 27


def test_prune_conv_to_conv():
    model = from_arch("cnn:2x6x6-c4k3-c3k3-f-2", seed=23)
    x = np.random.default_rng(4).normal(size=(3, 2, 6, 6))
    kept = [1, 2]
    pruned = apply_prune(model, PruningPlan([_entry(model, 0, kept)]))
    np.testing.assert_allclose(
        forward(pruned, x), _mask_forward(model, x, 0, kept), atol=1e-9
    )
    assert pruned.layers[2].c_in == 2


def test_prune_keep_all_entry_is_noop():
    model = from_arch("mlp:3-6-2", seed=24)
    pruned = apply_prune(model, PruningPlan([_entry(model, 0, range(6))]))
    x = np.random.default_rng(5).normal(size=(4, 3))
    np.testing.assert_array_equal(forward(pruned, x), forward(model, x))


def test_prune_rejects_foreign_layer():
    model = from_arch("mlp:3-6-2", seed=25)
    entry = PlanEntry(2, 2, [0, 1], 2, "regular", 2)  # the output layer
    with pytest.raises(MalformedPlan):
        apply_prune(model, PruningPlan([entry]))


def test_prune_rejects_component_count_mismatch():
    model = from_arch("mlp:3-6-2", seed=26)
    entry = PlanEntry(0, 7, [0, 1], 2, "regular", 2)
    with pytest.raises(MalformedPlan):
        apply_prune(model, PruningPlan([entry]))


def test_random_models_prune_equals_masking():
    gen = np.random.default_rng(6)
    for trial in range(25):
        width = int(gen.integers(4, 12))
        hidden2 = int(gen.integers(3, 9))
        model = from_arch(f"mlp:3-{width}-{hidden2}-2", seed=int(gen.integers(1e6)))
        lid = int(gen.choice(model.prunable_ids()))
        n = model.layers[lid].n_components
        size = int(gen.integers(2, n + 1))
        kept = sorted(gen.choice(n, size=size, replace=False).tolist())
        pruned = apply_prune(model, PruningPlan([_entry(model, lid, kept)]))
        x = gen.normal(size=(5, 3))
        np.testing.assert_allclose(
            forward(pruned, x), _mask_forward(model, x, lid, kept),
            atol=1e-6, err_msg=f"trial {trial}"
        )


# ----------------------------------------------------------------- flops

def test_flops_linear_hand_value():
    model = from_arch("mlp:4-3-2", seed=27)
    report = count_flops(model)
    assert report.per_layer[0] == (0, 24)   # 2 * 4 * 3
    assert report.per_layer[2] == (2, 12)
    assert report.total == 36


def test_flops_conv_hand_value():
    model = from_arch("cnn:2x8x8-c3k3-f-2", seed=28)
    report = count_flops(model)
    # 2 * 3^2 * 2 * 3 * 8 * 8
    assert report.per_layer[0] == (0, 6912)


def test_flops_respect_stride():
    model = from_arch("cnn:1x8x8-c2k3s2p1-f-2", seed=29)
    report = count_flops(model)
    # output 4x4: 2 * 9 * 1 * 2 * 16
    assert report.per_layer[0] == (0, 576)


# --------------------------------------------------------------- grammar

def test_parse_mlp():
    shape, layers = parse_arch("mlp:2-16-2")
    assert shape == (2,)
    assert layers == [("linear", 16), ("relu",), ("linear", 2)]  # widths after the input


def test_parse_cnn_tokens():
    shape, layers = parse_arch("cnn:1x8x8-c4k3s2p1-p2-f-10-3")
    assert shape == (1, 8, 8)
    assert layers[0] == ("conv", 4, 3, 2, 1)  # c_out, kernel, stride, pad
    assert ("avgpool", 2) in layers
    assert ("flatten",) in layers
    assert layers[-1] == ("linear", 3)  # input width resolved at build time


def test_parse_conv_defaults():
    _, layers = parse_arch("cnn:1x8x8-c4k3-f-2")
    assert layers[0] == ("conv", 4, 3, 1, 1)  # stride 1, pad k//2


def test_wide_model_prunable_ids():
    model = from_arch("mlp:2-64-64-32-4", seed=30)
    assert model.prunable_ids() == [0, 2, 4]
    assert model.layers[0].n_components == 64
    assert model.layers[4].n_components == 32


@pytest.mark.parametrize(
    "text,offset",
    [
        ("mlp:2-", 6),
        ("mlp:", 4),
        ("mlp:2-x-3", 6),
        ("foo:2-3", 0),
        ("cnn:1x8x8-c4k3-f", 16),
        ("cnn:8x8-c4k3-f-2", 4),
        ("mlp:2", 5),
        ("cnn:1x8x8-zz", 10),
        ("cnn:1x8x8-f-x-f", 12),
        ("mlp:2-f-3", 6),
        ("cnn:1x8x8-f-2-f-3", 14),
        ("cnn:1x8x8-c4k3-f-", 17),
        ("cnn:1x8x8-p0-f-2", 10),
        ("cnn:1x8x9-f-2", 4),
        ("cnn:", 4),
        ("cnn:0x8x8-f-2", 4),
        ("cnn:1x8x8-c0k3-f-2", 10),
        ("cnn:1x8x8-c4k3", 14),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_arch(text)
    assert exc.value.offset == offset


def test_from_arch_is_seed_deterministic():
    a = from_arch("mlp:3-8-2", seed=31)
    b = from_arch("mlp:3-8-2", seed=31)
    np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)
    c = from_arch("mlp:3-8-2", seed=32)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0])
def test_from_arch_refuses_a_seed_the_model_header_cannot_store(seed):
    # rng_seed is a u64: -1 ended in numpy's ValueError, and 2**64 built a
    # model that write_model could not write
    with pytest.raises(BadParams, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        from_arch("mlp:3-8-2", seed=seed)


def test_from_arch_seeds_at_the_ends_of_the_range_write_and_read_back(tmp_path):
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        path = str(tmp_path / "m.acsp")
        write_model(from_arch("mlp:3-8-2", seed=seed), path)
        assert read_model(path).rng_seed == seed


def test_from_arch_draws_each_layer_in_order_from_one_generator():
    # the fit and size checks come first and draw nothing, so every
    # buildable model keeps its bytes
    model = from_arch("cnn:1x6x6-c3k3-p2-f-5-2", seed=34)
    rng = np.random.default_rng(34)
    for i in model.parametric_ids():
        w = model.layers[i].w
        bound = 1.0 / np.sqrt(np.prod(w.shape[1:]))
        assert w.tobytes() == rng.uniform(-bound, bound, size=w.shape).tobytes(), i
        assert model.layers[i].b.tobytes() == np.zeros(w.shape[0]).tobytes(), i


# Every spec below asks for weights of a TiB or more: a check that came
# after the draw would end in numpy's MemoryError, not in the error class.

@pytest.mark.parametrize("spec", [
    "cnn:1x8x8-c4k600000p0-f-4",  # the kernel is wider than the padded map
    "cnn:1x8x8-c400000k3-c400000k3-p3-f-4",  # a misfit after a TiB layer
])
def test_from_arch_refuses_a_layer_that_does_not_fit_before_drawing(spec):
    with pytest.raises(ShapeMismatch):
        from_arch(spec, seed=0)


@pytest.mark.parametrize("spec", [
    "mlp:64-1000000-1000000-4",
    "cnn:1x8x8-c4k600000-f-4",  # fits: the default pad is half the kernel
    "mlp:2-10000000000-10000000000-4",  # more elements than numpy can index
])
def test_from_arch_refuses_more_parameters_than_the_limit_before_drawing(spec):
    with pytest.raises(BadParams, match="too large|the limit is"):
        from_arch(spec, seed=0)


def test_from_arch_parameter_limit_is_inclusive(monkeypatch):
    # mlp:2-3-4 has 2 * 3 + 3 + 3 * 4 + 4 = 25 parameters
    monkeypatch.setattr(data, "MAX_VALUES", 25)
    from_arch("mlp:2-3-4", seed=0)
    monkeypatch.setattr(data, "MAX_VALUES", 24)
    with pytest.raises(BadParams, match="25 parameters; the limit is 24"):
        from_arch("mlp:2-3-4", seed=0)


def test_init_bounds_follow_fan_in():
    model = from_arch("mlp:100-50-2", seed=33)
    w = model.layers[0].w
    assert np.abs(w).max() <= 1.0 / np.sqrt(100)
    np.testing.assert_array_equal(model.layers[0].b, 0.0)
