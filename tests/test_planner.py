"""Pipeline orchestration: selection, per-layer loop, plans, reports."""

import dataclasses
import functools
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acsp import cluster, data, planner, rng, toynet
from acsp.errors import BadParams, ShapeMismatch
from acsp.planner import (
    PruneConfig,
    component_norms,
    compose,
    prune_layer,
    prune_model,
)
from acsp.tensio import LabeledDataset, PruningPlan, read_plan, write_plan
from acsp.toynet import apply_prune, forward, from_arch

from conftest import tiny_dataset


def _trained_blob_setup(seed=0, arch="mlp:2-12-8-3", n=300, classes=3, epochs=25):
    from acsp.rng import derive_seed

    ds = data.make_blobs(n, classes, (2,), derive_seed(seed, "data"))
    model = from_arch(arch, seed=derive_seed(seed, "init"))
    trained = toynet.train(model, ds, epochs=epochs, lr=0.1,
                           seed=derive_seed(seed, "train"))
    return ds, trained


# ------------------------------------------------------------- selection

def test_component_norm_hand_value():
    model = from_arch("mlp:2-2-2", seed=0)
    model.layers[0].w = np.array([[3.0, 4.0], [1.0, 0.0]])
    np.testing.assert_allclose(component_norms(model, 0), [5.0, 1.0], rtol=0, atol=1e-12)


def test_component_norms_zero_row():
    model = from_arch("mlp:3-3-2", seed=1)
    model.layers[0].w[1] = 0.0
    assert component_norms(model, 0)[1] == 0.0


def test_component_norms_conv_filters():
    model = from_arch("cnn:1x6x6-c2k3-f-2", seed=2)
    model.layers[0].w[0] = 0.5  # 9 entries of 0.5
    assert component_norms(model, 0)[0] == pytest.approx(1.5, abs=1e-12)


def test_component_norms_rejects_relu():
    model = from_arch("mlp:3-3-2", seed=3)
    with pytest.raises(BadParams):
        component_norms(model, 1)


def test_the_sweep_and_the_layer_functions_refuse_bad_arguments_as_badparams():
    # each once raised a class of its own, BadRange or NotPrunableLayer,
    # with these messages
    model = from_arch("mlp:3-3-2", seed=3)
    ds = tiny_dataset(n=12, num_classes=2, dims=(3,))
    rows = np.random.default_rng(6).normal(size=(5, 2))
    with pytest.raises(BadParams, match=r"need integers 2 <= k_min <= k_max <= 5"):
        cluster.sweep_detailed(rows, k_min=1)
    with pytest.raises(BadParams, match=r"layer 1 \(relu\) has no weights"):
        component_norms(model, 1)
    # 0.0 and False are `in [0]`: 0.0 once ended in a TypeError indexing the
    # layers, and False stood for layer 0
    for call in (toynet.capture_activations, prune_layer):
        for layer_id in (2, 0.0, False):
            with pytest.raises(BadParams, match=re.escape(
                    f"layer {layer_id} is not prunable; prunable ids: [0]")):
                call(model, ds, layer_id)


def test_compose_regular_keeps_medoids():
    rows = np.array([[0.0], [1.0], [10.0], [11.0]])
    res = cluster.sweep_detailed(rows, 2, 2)[1][2]
    kept = compose(res, "regular", np.zeros(4))
    assert kept == sorted(int(m) for m in res.medoid_indices)


def test_compose_weighted_picks_heaviest_member():
    res = cluster.ClusterResult(np.array([0, 2]), np.array([0, 0, 2, 2]))
    norms = np.array([1.0, 5.0, 2.0, 2.0])  # tie in second cluster
    assert compose(res, "weighted", norms) == [1, 2]  # first max wins the tie


def test_compose_weighted_medoid_without_points_keeps_itself():
    # rows 0 and 1 are identical, so every tie, row 1's own included, goes
    # to medoid 0 and medoid 1 owns no point
    res = cluster.ClusterResult(np.array([0, 1]), np.array([0, 0, 0]))
    assert compose(res, "weighted", np.array([1.0, 5.0, 2.0])) == [1, 2]


def test_compose_same_k_both_modes():
    rows = np.random.default_rng(4).normal(size=(9, 3))
    res = cluster.sweep_detailed(rows, 4, 4)[1][4]
    norms = np.random.default_rng(5).uniform(1, 2, size=9)
    assert len(compose(res, "regular", norms)) == 4
    assert len(compose(res, "weighted", norms)) == 4


def test_compose_rejects_unknown_mode():
    res = cluster.ClusterResult(np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(BadParams):
        compose(res, "best", np.zeros(2))


def test_weighted_kept_indices_live_in_their_cluster():
    rows = np.random.default_rng(6).normal(size=(12, 4))
    res = cluster.sweep_detailed(rows, 3, 3)[1][3]
    norms = np.random.default_rng(7).uniform(size=12)
    kept = compose(res, "weighted", norms)
    clusters = {int(m): set(np.flatnonzero(res.assignment == m)) for m in res.medoid_indices}
    for medoid, members in clusters.items():
        assert len(members & set(kept)) == 1


# ------------------------------------------------------------ PruneConfig

def test_config_rejects_unknown_selection():
    with pytest.raises(BadParams):
        PruneConfig(selection="all")


@pytest.mark.parametrize("field, value", [("ft_epochs", -1)])
def test_config_rejects_fields_the_cli_cannot_set_badly(field, value):
    # argparse already refuses negative --ft-epochs
    with pytest.raises(BadParams):
        PruneConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("stride", 2.0), ("stride", True), ("stride", "2"),
    ("ft_epochs", 1.5), ("ft_epochs", np.float64(2.0)),
    ("seed", 1.5), ("seed", "7"),
    ("ft_fraction", "0.5"), ("ft_fraction", True), ("ft_fraction", None),
    ("ft_lr", "0.1"), ("ft_lr", np.bool_(True)),
    ("pre_activation", 1), ("pre_activation", "yes"), ("freeze_upstream", None),
    ("ft_epochs", 2**32),  # train refuses it, once only after layer 0's sweep
])
def test_config_refuses_mistyped_fields(field, value):
    # each of these built a config that ended mid-run in a bare TypeError,
    # or ran with a float where the sweep and the training loop count
    with pytest.raises(BadParams, match=f"^{field} must be"):
        PruneConfig(**{field: value})


@pytest.mark.parametrize("value", [np.inf, float("inf"), np.nan],
                         ids=["numpy inf", "float inf", "nan"])
def test_config_refuses_a_non_finite_ft_lr(value):
    # an infinite rate once diverged only after the first layer's sweep
    with pytest.raises(BadParams, match="^ft_lr must be None or a finite real number > 0"):
        PruneConfig(ft_lr=value)


@pytest.mark.parametrize("field, value", [
    ("stride", np.int64(2)), ("ft_epochs", np.int32(1)), ("seed", np.uint8(3)),
    ("ft_fraction", 1), ("ft_fraction", np.float32(0.5)), ("ft_lr", 1),
    ("pre_activation", np.bool_(True)),
])
def test_config_takes_numpy_numbers(field, value):
    assert getattr(PruneConfig(**{field: value}), field) == value


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1), np.uint8(3)])
def test_numpy_integer_seed_derives_the_python_seeds_streams(seed):
    # a config takes numpy integer seeds; `%` on one once overflowed mid-prune
    from acsp.rng import derive_seed

    assert derive_seed(seed, "finetune2") == derive_seed(int(seed), "finetune2")


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
@pytest.mark.parametrize("take", [
    lambda seed: rng.derive_seed(seed, "data"),
    lambda seed: from_arch("mlp:3-3-2", seed),
    lambda seed: PruneConfig(seed=seed),
    # epochs 0: the seed is checked before the early return
    lambda seed: toynet.train(from_arch("mlp:3-3-2", 0), tiny_dataset(n=12, num_classes=2,
                                                                       dims=(3,)), 0, 0.1, seed),
    lambda seed: data.make_blobs(40, 2, (2,), seed),
    lambda seed: data.make_rings(40, 2, seed),
], ids=["derive_seed", "from_arch", "PruneConfig", "train", "make_blobs", "make_rings"])
def test_every_seed_taker_refuses_a_seed_outside_the_u64_range(take, seed):
    # derive_seed folded these onto seeds in [0, 2**63), PruneConfig took
    # them, and numpy refused some of them in train and the generators
    # with a ValueError or TypeError of its own, and took True
    with pytest.raises(BadParams, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        take(seed)


def test_config_fields_cannot_be_assigned():
    # a field set after validation would skip it: stride 0 used to reach the
    # sweep and be caught there as a degenerate layer, keeping every layer
    cfg = PruneConfig(ft_lr=0.01)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.stride = 0
    assert cfg.stride == 1


def test_ft_lr_defaults_to_tenth_of_training_lr():
    ds, trained = _trained_blob_setup(seed=1, epochs=2)
    assert trained.train_lr == 0.1
    resolved = planner._resolve_ft_lr(PruneConfig(), trained)
    assert resolved.ft_lr == pytest.approx(0.01)


def test_ft_lr_fallback_for_untrained_model():
    model = from_arch("mlp:2-4-2", seed=8)
    resolved = planner._resolve_ft_lr(PruneConfig(), model)
    assert resolved.ft_lr == 0.01


def test_ft_lr_explicit_wins():
    model = from_arch("mlp:2-4-2", seed=9)
    resolved = planner._resolve_ft_lr(PruneConfig(ft_lr=0.5), model)
    assert resolved.ft_lr == 0.5


# ------------------------------------------------------------ layer loop

def test_prune_layer_rejects_output_layer():
    ds, trained = _trained_blob_setup(seed=2, epochs=2)
    cfg = planner._resolve_ft_lr(PruneConfig(), trained)
    with pytest.raises(BadParams):
        prune_layer(trained, ds, 4, cfg)


def test_prune_layer_shrinks_and_reports(rng):
    ds, trained = _trained_blob_setup(seed=3)
    cfg = planner._resolve_ft_lr(PruneConfig(seed=3), trained)
    out, report = prune_layer(trained, ds, 0, cfg)
    assert report.layer_id == 0
    assert report.n_components == 12
    assert report.k_selected == len(report.entry.kept_indices)
    assert report.warning is None
    assert report.mss_curve is not None and report.knee is not None
    assert out.layers[0].n_out == report.k_selected
    assert report.flops_after <= report.flops_before


def test_prune_layer_flat_curve_keeps_all():
    # constant duplicated rows make every component identical: MSS curve is
    # flat, no knee, keep everything, warn nothing, still fine-tunes nothing
    ds = tiny_dataset(n=30, num_classes=2, dims=(3,), seed=13)
    model = from_arch("mlp:3-6-2", seed=10)
    model.layers[0].w[:] = model.layers[0].w[0]
    model.layers[0].b[:] = model.layers[0].b[0]
    cfg = planner._resolve_ft_lr(PruneConfig(seed=4), model)
    out, report = prune_layer(model, ds, 0, cfg)
    assert report.k_selected == 6
    assert report.entry.kept_indices == tuple(range(6))
    np.testing.assert_array_equal(out.layers[0].w, model.layers[0].w)


def test_prune_layer_short_curve_keeps_all_silently():
    # a 2-wide layer sweeps only k=2: the curve is too short to fit, and the
    # fallback keeps everything without treating it as an error
    ds = tiny_dataset(n=20, num_classes=2, dims=(3,), seed=14)
    model = from_arch("mlp:3-2-2", seed=11)
    cfg = planner._resolve_ft_lr(PruneConfig(seed=5), model)
    out, report = prune_layer(model, ds, 0, cfg)
    assert report.warning is None
    assert report.entry.kept_indices == (0, 1)
    np.testing.assert_array_equal(out.layers[0].w, model.layers[0].w)


def test_prune_layer_degenerate_sweep_warns_and_keeps_all():
    # a 1-wide layer cannot sweep at all; the layer is kept and flagged
    ds = tiny_dataset(n=20, num_classes=2, dims=(3,), seed=14)
    model = from_arch("mlp:3-1-2", seed=11)
    cfg = planner._resolve_ft_lr(PruneConfig(seed=5), model)
    out, report = prune_layer(model, ds, 0, cfg)
    assert report.warning == "fewer than 2 components, too few to cluster"
    assert report.entry is None and report.k_selected == 1
    np.testing.assert_array_equal(out.layers[0].w, model.layers[0].w)


def test_prune_layer_raises_on_mismatched_samples():
    # 3-dim samples for a 2-input model are bad input, not a degenerate layer
    ds = tiny_dataset(n=20, num_classes=2, dims=(3,), seed=14)
    model = from_arch("mlp:2-8-2", seed=11)
    cfg = planner._resolve_ft_lr(PruneConfig(seed=5), model)
    with pytest.raises(ShapeMismatch):
        prune_layer(model, ds, 0, cfg)


@pytest.mark.parametrize("stride", [1, 100], ids=["cut", "keeps all"])
def test_prune_layer_refuses_classes_beyond_output_width_before_any_capture(monkeypatch,
                                                                             stride):
    # such a dataset once failed only in the fine-tune, after capture and
    # sweep, or not at all when the layer kept every component
    ds = data.make_blobs(80, 4, (2,), seed=0)
    model = from_arch("mlp:2-8-8-2", seed=0)

    def fail(*args, **kwargs):
        pytest.fail("prune_layer captured a layer")

    monkeypatch.setattr(toynet, "capture_activations", fail)
    with pytest.raises(ShapeMismatch, match="class id exceeds model output width"):
        prune_layer(model, ds, 0, PruneConfig(stride=stride))


def test_prune_layer_freeze_upstream():
    ds, trained = _trained_blob_setup(seed=4)
    cfg = planner._resolve_ft_lr(PruneConfig(seed=6, freeze_upstream=True), trained)
    out, report = prune_layer(trained, ds, 2, cfg)
    assert report.k_selected < report.n_components  # the layer was cut and fine-tuned
    for before, after in zip(trained.layers[:2], out.layers[:2]):
        if before.parametric:
            assert before.w.tobytes() == after.w.tobytes()
            assert before.b.tobytes() == after.b.tobytes()
    # fine-tuning moved every layer from the cut on, away from the cut alone
    cut = apply_prune(trained, PruningPlan([report.entry]))
    for i in trained.parametric_ids()[1:]:
        assert (cut.layers[i].w != out.layers[i].w).any()


def test_prune_model_runs_front_to_back():
    ds, trained = _trained_blob_setup(seed=5)
    pruned, reports = prune_model(trained, ds, PruneConfig(seed=7))
    assert [r.layer_id for r in reports] == trained.prunable_ids()
    assert toynet.count_flops(pruned).total <= toynet.count_flops(trained).total
    for r in reports:
        assert r.k_selected <= r.n_components


@pytest.mark.parametrize("ft_lr", [0.01, None])
def test_prune_model_is_a_prune_layer_loop(ft_lr):
    # a hand-written loop fine-tunes every layer at the same rate, as
    # prune_model does; with ft_lr=None the rate once shrank tenfold at each
    # cut layer, because every fine-tune overwrote the model's train_lr
    ds, trained = _trained_blob_setup(seed=1, arch="mlp:2-12-12-3")
    cfg = PruneConfig(ft_lr=ft_lr, seed=3)
    pruned, reports = prune_model(trained, ds, cfg)
    looped, entries = trained, []
    for layer_id in trained.prunable_ids():
        looped, report = prune_layer(looped, ds, layer_id, cfg)
        entries.append(report.entry)
    assert [r.entry for r in reports] == entries
    assert all(r.k_selected < r.n_components for r in reports)  # each layer was fine-tuned
    for a, b in zip(pruned.layers, looped.layers):
        if a.parametric:
            assert a.w.tobytes() == b.w.tobytes() and a.b.tobytes() == b.b.tobytes()


def test_prune_model_keeps_the_training_record():
    # a re-prune of the pruned model fine-tunes at the first prune's rate,
    # not at a tenth of it
    ds, trained = _trained_blob_setup(seed=1, arch="mlp:2-12-12-3")
    pruned, reports = prune_model(trained, ds, PruneConfig(seed=3))
    assert all(r.k_selected < r.n_components for r in reports)  # each layer was fine-tuned
    assert (pruned.train_epochs, pruned.train_lr) == (trained.train_epochs, trained.train_lr)
    assert (planner._resolve_ft_lr(PruneConfig(), pruned)
            == planner._resolve_ft_lr(PruneConfig(), trained))


def test_prune_model_without_prunable_layers_is_identity():
    ds = tiny_dataset(n=16, num_classes=2, dims=(3,), seed=15)
    model = from_arch("mlp:3-2", seed=12)  # single parametric layer
    pruned, reports = prune_model(model, ds, PruneConfig(seed=8))
    assert reports == []
    np.testing.assert_array_equal(pruned.layers[0].w, model.layers[0].w)


def test_prune_model_sequential_semantics(monkeypatch):
    # each layer's activations must be captured on the model as pruned and
    # tuned so far, not on the original
    ds, trained = _trained_blob_setup(seed=6)
    seen = []
    original = toynet.capture_activations

    def spy(model, dataset, layer_id, pre_activation=False):
        seen.append((layer_id, tuple(l.n_components for l in model.layers if l.parametric)))
        return original(model, dataset, layer_id, pre_activation)

    monkeypatch.setattr(planner.toynet, "capture_activations", spy)
    _, reports = prune_model(trained, ds, PruneConfig(seed=9))
    assert [lid for lid, _ in seen] == trained.prunable_ids()
    widths_at_second = seen[1][1]
    assert widths_at_second[0] == reports[0].k_selected  # layer 0 already cut


def test_prune_model_refuses_an_oversized_layer_before_the_first_capture(monkeypatch):
    # layer 0's maps fit under the limit and layer 2's do not: the refusal
    # comes before layer 0 is captured, swept and fine-tuned
    ds = data.make_blobs(40, 2, (1, 8, 8), 3)
    model = from_arch("cnn:1x8x8-c2k3-c16k3-f-4", seed=0)
    shapes = toynet.layer_shapes(model)
    sizes = [ds.n_samples * int(np.prod(shapes[i][1])) for i in model.prunable_ids()]
    assert model.prunable_ids() == [0, 2] and sizes[0] < sizes[1]
    monkeypatch.setattr(data, "MAX_VALUES", (sizes[0] + sizes[1]) // 2)
    calls = []
    original = toynet.capture_activations

    def spy(model, dataset, layer_id, pre_activation=False):
        calls.append(layer_id)
        return original(model, dataset, layer_id, pre_activation)

    monkeypatch.setattr(planner.toynet, "capture_activations", spy)
    with pytest.raises(BadParams, match=rf"^layer 2: n x prod\(output shape\) = {sizes[1]} "):
        prune_model(model, ds, PruneConfig())
    assert calls == []


def test_prune_model_accuracy_survives_on_easy_data():
    ds, trained = _trained_blob_setup(seed=7, n=600, epochs=40)
    base = toynet.accuracy(trained, ds)
    pruned, _ = prune_model(trained, ds, PruneConfig(seed=10))
    assert toynet.accuracy(pruned, ds) >= base - 0.05


# ------------------------------------------------------- plans & reports

def _build_plan(reports):
    """The plan `acsp prune` writes: the entry of every layer that has one."""
    return PruningPlan([r.entry for r in reports if r.entry is not None])


def test_build_plan_round_trips_through_apply(tmp_path):
    ds, trained = _trained_blob_setup(seed=8)
    cfg = PruneConfig(seed=11, ft_epochs=0)  # no tuning: surgery only
    pruned, reports = prune_model(trained, ds, cfg)
    plan = _build_plan(reports)
    replayed = apply_prune(trained, plan)
    for a, b in zip(replayed.layers, pruned.layers):
        if hasattr(a, "w"):
            np.testing.assert_array_equal(a.w, b.w)


@given(st.integers(3, 12), st.integers(3, 12), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
@example(a=3, b=6, classes=2, seed=114)  # dead units: a medoid owns no point
def test_plan_json_replays_to_the_pruned_model(a, b, classes, seed):
    ds, trained = _trained_blob_setup(seed=seed, arch=f"mlp:2-{a}-{b}-{classes}",
                                      n=120, classes=classes, epochs=5)
    pruned, reports = prune_model(trained, ds, PruneConfig(seed=seed, ft_epochs=0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plan.json")
        write_plan(_build_plan(reports), path)
        replayed = apply_prune(trained, read_plan(path))
    assert [l.kind for l in replayed.layers] == [l.kind for l in pruned.layers]
    for r, p in zip(replayed.layers, pruned.layers):
        if r.parametric:
            np.testing.assert_array_equal(r.w, p.w)
            np.testing.assert_array_equal(r.b, p.b)


_INVARIANCE_ARCHS = ("mlp:2-12-8-3", "mlp:2-16-4", "mlp:2-10-10-6-4")


@functools.lru_cache(maxsize=None)  # shared safely: prune_model copies the model
def _kept_on_reference_order(arch_id):
    arch = _INVARIANCE_ARCHS[arch_id]
    classes = int(arch.rsplit("-", 1)[1])
    ds, trained = _trained_blob_setup(seed=arch_id, arch=arch, n=160, classes=classes,
                                      epochs=10)
    _, reports = prune_model(trained, ds, PruneConfig(seed=3, ft_epochs=0))
    return ds, trained, [r.entry.kept_indices for r in reports]


@given(st.integers(0, len(_INVARIANCE_ARCHS) - 1), st.integers(0, 10_000), st.data())
@settings(max_examples=30, deadline=None)
def test_kept_indices_ignore_sample_order_and_class_ids(arch_id, perm_seed, draw):
    ds, trained, kept = _kept_on_reference_order(arch_id)
    order = np.random.default_rng(perm_seed).permutation(ds.n_samples)
    class_map = np.array(draw.draw(st.permutations(range(ds.num_classes))))
    cfg = PruneConfig(seed=3, ft_epochs=0)
    for variant in (LabeledDataset(ds.samples[order], ds.labels[order]),
                    LabeledDataset(ds.samples, class_map[ds.labels])):
        _, reports = prune_model(trained, variant, cfg)
        assert [r.entry.kept_indices for r in reports] == kept


def test_build_plan_skips_warned_layers():
    ds = tiny_dataset(n=20, num_classes=2, dims=(3,), seed=16)
    model = from_arch("mlp:3-1-2", seed=13)
    _, reports = prune_model(model, ds, PruneConfig(seed=12))
    assert any(r.warning for r in reports)
    plan = _build_plan(reports)
    assert plan.entries == ()


def test_build_plan_holds_the_entries_the_reports_carry():
    # the 1-wide layer aborts with no entry; the 4-wide one is analysed
    ds = tiny_dataset(n=20, num_classes=2, dims=(3,), seed=16)
    model = from_arch("mlp:3-1-4-2", seed=13)
    _, reports = prune_model(model, ds, PruneConfig(seed=12))
    assert reports[0].entry is None and reports[1].entry is not None
    plan = _build_plan(reports)
    assert len(plan.entries) == 1 and plan.entries[0] is reports[1].entry


def test_build_plan_carries_curve_refs_and_knee():
    ds, trained = _trained_blob_setup(seed=9)
    pruned, reports = prune_model(trained, ds, PruneConfig(seed=13))
    plan = _build_plan(reports)
    pruned_entries = [r for r in reports if r.warning is None and r.k_selected < r.n_components]
    assert len(plan.entries) == len(pruned_entries)
    for entry in plan.entries:
        assert entry.mss_curve_ref == f"mss_layer{entry.layer_id}.csv"
        assert entry.knee is not None and entry.knee["degree"] == 2


def test_numpy_integer_layer_id_and_degree_write_a_json_plan(tmp_path):
    ds, trained = _trained_blob_setup(seed=8)
    cfg = PruneConfig(knee_degree=np.int64(2), seed=11, ft_epochs=0)
    _, report = prune_layer(trained, ds, np.int64(0), cfg)
    path = str(tmp_path / "plan.json")
    write_plan(PruningPlan([report.entry]), path)
    back = read_plan(path).entries[0]
    assert type(back.layer_id) is int and type(back.knee["degree"]) is int
    assert (back.layer_id, back.knee_degree, back.kept_indices) == (
        0, 2, report.entry.kept_indices)


def test_speedup_is_ratio_of_totals():
    # each layer starts from the FLOPs the one before left, so the first
    # layer's before over the last layer's after is the whole-run speedup
    ds, trained = _trained_blob_setup(seed=10)
    pruned, reports = prune_model(trained, ds, PruneConfig(seed=14))
    assert reports[0].flops_before == toynet.count_flops(trained).total
    for a, b in zip(reports, reports[1:]):
        assert a.flops_after == b.flops_before
    assert reports[-1].flops_after == toynet.count_flops(pruned).total
    assert reports[0].flops_before / reports[-1].flops_after >= 1.0


def test_selection_modes_share_k_but_not_members():
    ds, trained = _trained_blob_setup(seed=11, n=400, epochs=30)
    pw, rw = prune_model(trained, ds, PruneConfig(seed=15, selection="weighted"))
    pr, rr = prune_model(trained, ds, PruneConfig(seed=15, selection="regular"))
    assert [r.k_selected for r in rw] == [r.k_selected for r in rr]
    assert any(a.entry.kept_indices != b.entry.kept_indices for a, b in zip(rw, rr))
