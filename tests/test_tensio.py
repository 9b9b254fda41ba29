"""Container round-trips and corruption handling."""

import dataclasses
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from acsp import tensio, toynet
from acsp.errors import (
    BadMagic,
    BadParams,
    InvalidDataset,
    MalformedPlan,
    NonFiniteValue,
    TruncatedFile,
    VersionMismatch,
    WrongKind,
)
from acsp.tensio import ActivationTensor, LabeledDataset, PlanEntry, PruningPlan

from conftest import balanced_labels, overflowing_dataset_bytes, tiny_dataset


# ------------------------------------------------------------ validation

def test_dataset_requires_samples():
    with pytest.raises(InvalidDataset):
        LabeledDataset(np.zeros((0, 3), np.float32), np.zeros(0, np.int64))


def test_dataset_rejects_nan():
    samples = np.ones((4, 2), np.float32)
    samples[1, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        LabeledDataset(samples, balanced_labels(4, 2))


def test_dataset_rejects_label_shape():
    with pytest.raises(InvalidDataset):
        LabeledDataset(np.ones((4, 2), np.float32), np.zeros(3, np.int64))


def test_dataset_rejects_singleton_class():
    labels = np.array([0, 0, 1, 2, 2], np.int64)
    with pytest.raises(InvalidDataset):
        LabeledDataset(np.ones((5, 2), np.float32), labels)


def test_dataset_rejects_negative_label():
    with pytest.raises(InvalidDataset):
        LabeledDataset(np.ones((4, 2), np.float32), np.array([0, 0, -1, -1]))


@pytest.mark.parametrize("bad", [0.2, np.nan, np.inf])
def test_dataset_rejects_a_label_that_is_not_a_finite_whole_number(bad):
    # unchecked, 0.2 is cut to class 0 and NaN or Inf warns in the cast
    with pytest.raises(InvalidDataset):
        LabeledDataset(np.zeros((4, 2)), [bad, 0.0, 1.0, 1.0])


def test_dataset_refuses_a_class_id_beyond_the_sample_count_in_small_memory():
    # counting classes would size an array by the largest id: about 160 MB here
    labels = np.array([0, 0, 1, 10**7])
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDataset, match="not below the sample count"):
            LabeledDataset(np.zeros((4, 2)), labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dataset_accepts_whole_float_labels():
    ds = LabeledDataset(np.zeros((4, 2)), [0.0, 1.0, 0.0, 1.0])
    assert ds.labels.dtype == np.int64
    np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])


@pytest.mark.parametrize("shape", [(4, 3), (4, 3, 2, 3), (4, 0, 2), (4, 3, 0)],
                         ids=["2-D", "4-D", "no components", "no cells"])
def test_activation_refuses_values_not_3d_or_empty(shape):
    # maps arrive as rows of cells; only the engine knows they were square
    with pytest.raises(InvalidDataset, match=r"non-empty \[n, components, cells\]"):
        ActivationTensor(np.ones(shape, np.float32), balanced_labels(4, 2))


@pytest.mark.parametrize("make", [
    lambda v: LabeledDataset(v.reshape(4, 1), balanced_labels(4, 2)),
    lambda v: ActivationTensor(v.reshape(4, 1, 1), balanced_labels(4, 2)),
], ids=["dataset", "activations"])
def test_a_finite_value_beyond_float32_is_refused_without_a_warning(make):
    # the cast once stored 1e39 as Inf with an "overflow encountered in
    # cast" RuntimeWarning before the finiteness check refused it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="beyond float32's range"):
            make(np.array([0.0, 1.0, 1e39, 2.0]))


# ----------------------------------------------------------- round trips

def test_dataset_round_trip(tmp_path):
    ds = tiny_dataset(n=10, num_classes=2, dims=(3, 5), seed=4)
    path = str(tmp_path / "d.acsp")
    tensio.write_dataset(ds, path)
    back = tensio.read_dataset(path)
    np.testing.assert_array_equal(back.samples, ds.samples)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_model_round_trip_mlp(tmp_path):
    model = toynet.from_arch("mlp:3-8-5-2", seed=5)
    path = str(tmp_path / "w.acsp")
    tensio.write_model(model, path)
    back = tensio.read_model(path)
    assert back.input_shape == model.input_shape
    assert back.rng_seed == model.rng_seed
    assert [type(l).__name__ for l in back.layers] == [type(l).__name__ for l in model.layers]
    # weights are stored as f32; one quantization, then stable
    for mine, theirs in zip(model.layers, back.layers):
        if hasattr(mine, "w"):
            np.testing.assert_array_equal(mine.w.astype(np.float32), theirs.w.astype(np.float32))
    path2 = str(tmp_path / "w2.acsp")
    tensio.write_model(back, path2)
    with open(path, "rb") as a, open(path2, "rb") as b:
        assert a.read() == b.read()


def test_model_round_trip_cnn(tmp_path):
    model = toynet.from_arch("cnn:1x8x8-c4k3-p2-c6k3s2-f-10-3", seed=6)
    path = str(tmp_path / "w.acsp")
    tensio.write_model(model, path)
    back = tensio.read_model(path)
    x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
    np.testing.assert_allclose(
        toynet.forward(back, x), toynet.forward(model, x), rtol=1e-5, atol=1e-6
    )
    conv = back.layers[0]
    assert (conv.stride, conv.pad) == (model.layers[0].stride, model.layers[0].pad)
    # conv, avgpool and flatten headers survive a second write unchanged
    path2 = str(tmp_path / "w2.acsp")
    tensio.write_model(back, path2)
    with open(path, "rb") as a, open(path2, "rb") as b:
        assert a.read() == b.read()


def test_trained_model_writes_as_its_copy_does(tmp_path):
    # a trained model's weights and biases are views into one buffer; the
    # writer must store the values, not the memory behind them
    ds = tiny_dataset(n=40, num_classes=3, dims=(4,), seed=3)
    trained = toynet.train(toynet.from_arch("mlp:4-6-5-3", seed=4), ds, epochs=2, lr=0.1, seed=5)
    assert not trained.layers[0].w.flags.owndata
    paths = [str(tmp_path / name) for name in ("trained.acsp", "copy.acsp")]
    tensio.write_model(trained, paths[0])
    tensio.write_model(trained.copy(), paths[1])
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()
    back = tensio.read_model(paths[0])
    assert (back.train_epochs, back.train_lr) == (2, 0.1)
    for mine, theirs in zip(trained.layers, back.layers):
        if mine.parametric:
            assert (theirs.w == mine.w.astype(np.float32)).all()
            assert (theirs.b == mine.b.astype(np.float32)).all()


def test_model_metadata_round_trip(tmp_path):
    model = toynet.from_arch("mlp:2-4-2", seed=9)
    model.train_epochs = 17
    model.train_lr = 0.125
    path = str(tmp_path / "w.acsp")
    tensio.write_model(model, path)
    back = tensio.read_model(path)
    assert back.train_epochs == 17
    assert back.train_lr == 0.125


def test_write_model_refuses_a_weight_beyond_float32_before_writing(tmp_path):
    # such a weight was once written as Inf, into a file read_model refuses
    model = toynet.from_arch("mlp:2-3-2", seed=0)
    model.layers[0].w[1, 0] = 1e39
    path = tmp_path / "m.acsp"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match="model weights"):
            tensio.write_model(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("field, value, error", [
    ("train_lr", float("nan"), NonFiniteValue),  # was written, then refused on read
    ("train_lr", float("inf"), NonFiniteValue),
    ("rng_seed", 2**64, BadParams),  # the u64, u32 and f64 header fields:
    ("rng_seed", -1, BadParams),  # these four ended in struct.error
    ("train_epochs", 2**32, BadParams),
    ("train_epochs", -1, BadParams),
])
def test_write_model_refuses_a_record_it_cannot_store_before_writing(tmp_path, field, value,
                                                                       error):
    model = toynet.from_arch("mlp:2-3-2", seed=0)
    setattr(model, field, value)
    path = tmp_path / "m.acsp"
    with pytest.raises(error):
        tensio.write_model(model, str(path))
    assert not path.exists()


def test_a_weight_that_rounds_down_to_the_largest_float32_is_kept(tmp_path):
    # the rule judges the cast's result: this weight is above FLT_MAX in
    # float64 but rounds to it, so it is stored, not refused
    flt_max = float(np.finfo(np.float32).max)
    model = toynet.from_arch("mlp:2-3-2", seed=0)
    model.layers[2].b[1] = flt_max * (1 + 2**-25)
    assert model.layers[2].b[1] > flt_max
    path = str(tmp_path / "m.acsp")
    tensio.write_model(model, path)
    assert tensio.read_model(path).layers[2].b[1] == flt_max


def test_write_is_byte_deterministic(tmp_path):
    ds = tiny_dataset(seed=7)
    p1, p2 = str(tmp_path / "1.acsp"), str(tmp_path / "2.acsp")
    tensio.write_dataset(ds, p1)
    tensio.write_dataset(ds, p2)
    with open(p1, "rb") as a, open(p2, "rb") as b:
        assert a.read() == b.read()


@given(
    n=st.integers(4, 20),
    num_classes=st.integers(2, 4),
    width=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_dataset_round_trip_property(tmp_path_factory, n, num_classes, width, seed):
    n = max(n, 2 * num_classes)
    ds = tiny_dataset(n=n, num_classes=num_classes, dims=(width,), seed=seed)
    path = str(tmp_path_factory.mktemp("rt") / "d.acsp")
    tensio.write_dataset(ds, path)
    back = tensio.read_dataset(path)
    np.testing.assert_array_equal(back.samples, ds.samples)
    np.testing.assert_array_equal(back.labels, ds.labels)


# ------------------------------------------------------- corrupted files

def _valid_dataset_bytes(tmp_path) -> bytes:
    path = str(tmp_path / "ok.acsp")
    tensio.write_dataset(tiny_dataset(seed=3), path)
    with open(path, "rb") as fh:
        return fh.read()


def _read_raw(tmp_path, blob: bytes):
    path = str(tmp_path / "bad.acsp")
    with open(path, "wb") as fh:
        fh.write(blob)
    return tensio.read_dataset(path)


def test_bad_magic(tmp_path):
    blob = _valid_dataset_bytes(tmp_path)
    with pytest.raises(BadMagic):
        _read_raw(tmp_path, b"XXXX" + blob[4:])


def test_version_mismatch(tmp_path):
    blob = _valid_dataset_bytes(tmp_path)
    bumped = blob[:4] + struct.pack("<I", 99) + blob[8:]
    with pytest.raises(VersionMismatch):
        _read_raw(tmp_path, bumped)


def test_wrong_kind(tmp_path):
    blob = _valid_dataset_bytes(tmp_path)
    patched = blob[:8] + struct.pack("<I", tensio.KIND_MODEL) + blob[12:]
    with pytest.raises(WrongKind):
        _read_raw(tmp_path, patched)


def test_truncated_payload(tmp_path):
    blob = _valid_dataset_bytes(tmp_path)
    with pytest.raises(TruncatedFile):
        _read_raw(tmp_path, blob[:-5])


def test_trailing_garbage(tmp_path):
    blob = _valid_dataset_bytes(tmp_path)
    with pytest.raises(TruncatedFile):
        _read_raw(tmp_path, blob + b"\x00")


def test_nan_payload_rejected_on_read(tmp_path):
    blob = _valid_dataset_bytes(tmp_path)
    patched = blob[:-4] + struct.pack("<f", float("nan"))
    with pytest.raises(NonFiniteValue):
        _read_raw(tmp_path, patched)


def test_nan_training_lr_rejected_on_read(tmp_path):
    model = toynet.from_arch("mlp:3-4-2", seed=0)
    path = tmp_path / "m.acsp"
    tensio.write_model(model, str(path))
    blob = bytearray(path.read_bytes())
    # magic+version+kind, input dims, rng_seed u64, train_epochs u32, then train_lr
    lr_at = 12 + 4 + 8 * len(model.input_shape) + 12
    assert struct.unpack_from("<d", blob, lr_at)[0] == model.train_lr
    struct.pack_into("<d", blob, lr_at, float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(NonFiniteValue):
        tensio.read_model(str(path))


def test_empty_file(tmp_path):
    with pytest.raises((BadMagic, TruncatedFile)):
        _read_raw(tmp_path, b"")


def test_overflowing_dims_read_as_truncated(tmp_path):
    # a wrapping product would ask for 0 values and fail later in reshape
    with pytest.raises(TruncatedFile):
        _read_raw(tmp_path, overflowing_dataset_bytes())


def test_unknown_layer_code_rejected(tmp_path):
    model = toynet.from_arch("mlp:3-4-2", seed=0)
    path = str(tmp_path / "w.acsp")
    tensio.write_model(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    # magic+version+kind, input dims, rng_seed/train_epochs/train_lr, n_layers
    first_code = 12 + 4 + 8 * len(model.input_shape) + 20 + 4
    assert struct.unpack_from("<I", blob, first_code)[0] == 1  # linear
    with open(path, "wb") as fh:
        fh.write(blob[:first_code] + struct.pack("<I", 9) + blob[first_code + 4 :])
    with pytest.raises(WrongKind, match="unknown layer code 9"):
        tensio.read_model(path)


# ---------------------------------------------------------------- plans

def _plan():
    return PruningPlan(
        [
            PlanEntry(2, 8, [0, 3, 5], 3, "weighted", 2, "mss_layer2.csv"),
            PlanEntry(4, 6, [1, 2, 3, 4], 4, "regular", 3, None, {"k_prime": 4}),
        ]
    )


def test_plan_round_trip(tmp_path):
    plan = _plan()
    path = str(tmp_path / "plan.json")
    tensio.write_plan(plan, path)
    back = tensio.read_plan(path)
    assert len(back.entries) == 2
    first = back.entries[0]
    assert (first.layer_id, first.kept_indices, first.selection_mode) == (2, (0, 3, 5), "weighted")
    assert back.entries[1].knee == {"k_prime": 4}


def test_plan_json_is_stable():
    text1 = tensio.plan_to_json(_plan())
    text2 = tensio.plan_to_json(_plan())
    assert text1 == text2
    assert text1.endswith("\n")


def test_empty_plan_round_trip(tmp_path):
    path = str(tmp_path / "plan.json")
    tensio.write_plan(PruningPlan([]), path)
    assert tensio.read_plan(path).entries == ()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_plan_entry_refuses_a_knee_that_json_cannot_hold(value):
    # json.dumps once wrote such a knee as the non-JSON token NaN or Infinity
    with pytest.raises(MalformedPlan, match="not writable as JSON"):
        PlanEntry(0, 4, [0, 2], 2, "weighted", 2, knee={"x": value})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_plan_rejects_tokens_that_are_not_json(tmp_path, token):
    text = tensio.plan_to_json(PruningPlan([PlanEntry(0, 4, [0, 2], 2, "weighted", 2,
                                                      knee={"x": 0.5})]))
    assert '"x": 0.5' in text
    path = tmp_path / "plan.json"
    path.write_text(text.replace('"x": 0.5', f'"x": {token}'))
    with pytest.raises(MalformedPlan, match=f"{token} is not a JSON value"):
        tensio.read_plan(str(path))


def test_plan_bytes_are_those_of_plain_json():
    # refusing NaN and Inf changes no plan that holds neither
    knee = {"k_prime": 4, "margin": 0.1, "difference_curve": [0.0, 1e-300, 1.5e308]}
    plan = PruningPlan([PlanEntry(2, 8, [0, 3, 5], 3, "weighted", 2, "mss_layer2.csv", knee)])
    doc = {"format": tensio.PLAN_FORMAT,
           "layers": [{f.name: getattr(e, f.name) for f in dataclasses.fields(e)}
                      for e in plan.entries]}
    assert tensio.plan_to_json(plan) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_plan_rejects_bad_json(tmp_path):
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        fh.write("{nope")
    with pytest.raises(MalformedPlan):
        tensio.read_plan(path)


def test_plan_rejects_wrong_format_tag(tmp_path):
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        fh.write('{"format": "acsp-plan/9", "entries": []}')
    with pytest.raises(MalformedPlan):
        tensio.read_plan(path)


def test_plan_rejects_missing_keys(tmp_path):
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        fh.write('{"format": "acsp-plan/1", "layers": [{"layer_id": 2}]}')
    with pytest.raises(MalformedPlan, match="bad plan entry"):
        tensio.read_plan(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda e: dataclasses.replace(e, k_selected=2),            # count mismatch
        lambda e: dataclasses.replace(e, kept_indices=[3, 0, 5]),  # not increasing
        lambda e: dataclasses.replace(e, kept_indices=[0, 3, 9]),  # out of range
        lambda e: dataclasses.replace(e, selection_mode="best"),   # unknown mode
        lambda e: dataclasses.replace(e, knee_degree=0),
        lambda e: dataclasses.replace(e, kept_indices=[3], k_selected=1),  # one kept index
    ],
)
def test_plan_entry_validation(mutate):
    entry = PlanEntry(2, 8, [0, 3, 5], 3, "weighted", 2)
    with pytest.raises(MalformedPlan, match="layer 2: "):
        mutate(entry)


def test_plan_of_degree_one_still_reads(tmp_path):
    # the prune refuses degree 1, but plans that record it stay readable
    doc = json.loads(tensio.plan_to_json(_plan()))
    doc["layers"][0]["knee_degree"] = 1
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    assert tensio.read_plan(str(path)).entries[0].knee_degree == 1


@pytest.mark.parametrize(
    "field,value",
    [
        ("layer_id", True),
        ("layer_id", np.bool_(True)),
        ("n_components", 8.0),
        ("k_selected", "3"),
        ("kept_indices", np.array([0, 3, 5])),  # a list or a tuple only
        ("kept_indices", [0, 3, 5.0]),
        ("knee_degree", 2.0),
        ("selection_mode", b"weighted"),
    ],
)
def test_plan_entry_built_in_python_rejects_mistyped_fields(field, value):
    entry = PlanEntry(2, 8, [0, 3, 5], 3, "weighted", 2)
    with pytest.raises(MalformedPlan, match="bad plan entry: mistyped " + field):
        dataclasses.replace(entry, **{field: value})


def test_plan_fields_cannot_be_assigned():
    entry = PlanEntry(2, 8, [0, 3, 5], 3, "weighted", 2)
    plan = PruningPlan([entry])
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.k_selected = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.entries = [entry, entry]
    assert entry.k_selected == 3 and plan.entries == (entry,)


def test_plan_of_numpy_integers_writes_json_integers(tmp_path):
    i = np.int64
    entry = PlanEntry(i(2), np.int32(8), [i(0), i(3), i(5)], i(3), "weighted", np.uint8(2))
    path = str(tmp_path / "plan.json")
    tensio.write_plan(PruningPlan([entry]), path)
    same = PruningPlan([PlanEntry(2, 8, [0, 3, 5], 3, "weighted", 2)])
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == tensio.plan_to_json(same)
    assert tensio.read_plan(path) == same
    # stored as Python ints when built, and read back as such
    for e in (entry, tensio.read_plan(path).entries[0]):
        assert {type(v) for v in (e.layer_id, e.n_components, e.k_selected, e.knee_degree,
                                  *e.kept_indices)} == {int}


def test_plan_rejects_non_utf8_text(tmp_path):
    path = tmp_path / "plan.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(MalformedPlan, match="not valid JSON"):
        tensio.read_plan(str(path))


@pytest.mark.parametrize(
    "field,value",
    [
        ("kept_indices", "035"),  # a string of digits, once read as [0, 3, 5]
        ("kept_indices", [0, 3.0, 5]),
        ("n_components", 8.99),
        ("layer_id", True),
        ("k_selected", "3"),
        ("selection_mode", 1),
        ("knee", [1, 2]),
        ("mss_curve_ref", 5),
    ],
)
def test_plan_rejects_mistyped_fields(tmp_path, field, value):
    doc = json.loads(tensio.plan_to_json(_plan()))
    doc["layers"][0][field] = value
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedPlan, match="mistyped " + field):
        tensio.read_plan(str(path))


def test_plan_rejects_duplicate_layer():
    entry = PlanEntry(2, 8, [0, 3], 2, "regular", 2)
    with pytest.raises(MalformedPlan, match="duplicate entry for layer 2"):
        PruningPlan([entry, entry])


@pytest.mark.parametrize("entries", [[{"layer_id": 1}], None, 5, ["entry"]])
def test_plan_refuses_entries_that_are_not_plan_entries(entries):
    with pytest.raises(MalformedPlan):
        PruningPlan(entries)


def test_plan_is_frozen_all_the_way_down():
    # a kept index appended to a checked entry once reached apply_prune as
    # an IndexError; the stored tuple cannot be appended to
    entry = PlanEntry(0, 6, [0, 2, 4], 3, "regular", 2)
    plan = PruningPlan([entry])
    assert entry.kept_indices == (0, 2, 4) and plan.entries == (entry,)
    with pytest.raises(AttributeError):
        entry.kept_indices.append(9)
    pruned = toynet.apply_prune(toynet.from_arch("mlp:3-6-2", seed=1), plan)
    assert pruned.layers[0].w.shape == (3, 3)


def test_plan_json_bytes_do_not_depend_on_the_input_sequence_types():
    as_lists = PruningPlan([PlanEntry(2, 8, [0, 3, 5], 3, "weighted", 2, "mss_layer2.csv")])
    as_tuples = PruningPlan((PlanEntry(2, 8, (0, 3, 5), 3, "weighted", 2, "mss_layer2.csv"),))
    assert as_lists == as_tuples
    assert tensio.plan_to_json(as_lists) == tensio.plan_to_json(as_tuples)
    assert '"kept_indices": [\n        0,\n        3,\n        5\n      ],' in tensio.plan_to_json(as_lists)


def test_plan_entry_keeps_its_own_json_copy_of_the_knee():
    # a value added to the knee after the entry was built once ended the
    # plan write in a bare TypeError
    knee = {"k_prime": 3, "difference_curve": (0.0, 0.5)}
    entry = PlanEntry(0, 6, [0, 2, 4], 3, "regular", 2, knee=knee)
    knee["x"] = object()
    assert entry.knee == {"k_prime": 3, "difference_curve": [0.0, 0.5]}
    assert '"difference_curve": [\n          0.0,\n          0.5\n        ]' in \
        tensio.plan_to_json(PruningPlan([entry]))
    entry.knee["x"] = object()  # the copy is the entry's own dict
    with pytest.raises(MalformedPlan, match="not writable as JSON"):
        tensio.plan_to_json(PruningPlan([entry]))


@pytest.mark.parametrize("value", [{1, 2}, object(), np.int64(3), {"inner": {"s": {1}}}])
def test_plan_entry_refuses_a_knee_that_is_not_json(value):
    with pytest.raises(MalformedPlan, match="not writable as JSON"):
        PlanEntry(0, 6, [0, 2, 4], 3, "regular", 2, knee={"k_prime": value})


def test_plan_entry_refuses_a_circular_knee():
    knee = {"k_prime": 3}
    knee["self"] = knee
    with pytest.raises(MalformedPlan, match="not writable as JSON"):
        PlanEntry(0, 6, [0, 2, 4], 3, "regular", 2, knee=knee)


def test_written_plan_keys_are_the_plan_entry_fields(tmp_path):
    path = str(tmp_path / "plan.json")
    tensio.write_plan(_plan(), path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = {f.name for f in dataclasses.fields(PlanEntry)}
    assert [set(layer) for layer in doc["layers"]] == [names, names]


def test_plan_to_json_refuses_a_knee_made_circular_after_the_entry_was_built():
    # the written dict is shallow: the entry's own knee goes to json.dumps,
    # which names the fault, where a deep copy of the entry would end in a
    # bare RecursionError
    entry = PlanEntry(0, 6, [0, 2, 4], 3, "regular", 2, knee={"k_prime": 3})
    entry.knee["self"] = entry.knee
    with pytest.raises(MalformedPlan, match="not writable as JSON"):
        tensio.plan_to_json(PruningPlan([entry]))


@pytest.mark.parametrize("where, keys", [
    ("entry", {"kept_indice": [1], "knees": 3}),
    ("top level", {"extra": 1}),
], ids=["entry", "top level"])
def test_plan_rejects_unknown_keys(tmp_path, where, keys):
    # a mistyped optional key once read without error and was dropped
    doc = json.loads(tensio.plan_to_json(_plan()))
    (doc["layers"][0] if where == "entry" else doc).update(keys)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedPlan, match="unknown .*" + ", ".join(sorted(keys))):
        tensio.read_plan(str(path))


@pytest.mark.parametrize("layers", [[5], [["layer_id", 2]], [None]])
def test_plan_rejects_entries_that_are_not_objects(tmp_path, layers):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"format": "acsp-plan/1", "layers": layers}))
    with pytest.raises(MalformedPlan, match="must be a list of objects"):
        tensio.read_plan(str(path))
