"""Command-line surface: flows, file outputs, error lines, determinism."""

import dataclasses
import json
import os
import re
import runpy
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import acsp
from acsp import planner, tensio, toynet
from acsp.cli import main
from acsp.planner import PruneConfig
from acsp.rng import derive_seed

from conftest import overflowing_dataset_bytes


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _gen(capsys, path, n=300, classes=3, seed=0, dims="2"):
    code, out, err = _run(
        capsys, "gen-data", "--n", str(n), "--classes", str(classes),
        "--dims", dims, "--seed", str(seed), "--out", path,
    )
    assert code == 0, err
    return out


def _train(capsys, data_path, model_path, arch="mlp:2-8-6-3", epochs=8, seed=0):
    code, out, err = _run(
        capsys, "train", "--arch", arch, "--data", data_path,
        "--epochs", str(epochs), "--seed", str(seed), "--out", model_path,
    )
    assert code == 0, err
    return out


# -------------------------------------------------------------- gen-data

def test_gen_data_writes_balanced_dataset(tmp_path, capsys):
    path = str(tmp_path / "d.acsp")
    out = _gen(capsys, path, n=300, classes=3)
    assert "n=300 classes=3" in out
    ds = tensio.read_dataset(path)
    np.testing.assert_array_equal(np.bincount(ds.labels), [100, 100, 100])


def test_gen_data_rings(tmp_path, capsys):
    path = str(tmp_path / "r.acsp")
    code, out, err = _run(capsys, "gen-data", "--kind", "rings", "--n", "200",
                          "--classes", "2", "--out", path)
    assert code == 0
    ds = tensio.read_dataset(path)
    radii = np.sqrt((ds.samples.astype(np.float64) ** 2).sum(axis=1))
    # class 0 annulus stays inside class 1's
    assert radii[ds.labels == 0].max() < radii[ds.labels == 1].min()


def test_gen_data_is_deterministic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.acsp"), str(tmp_path / "b.acsp")
    _gen(capsys, p1, seed=5)
    _gen(capsys, p2, seed=5)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_gen_data_seed_changes_bytes(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.acsp"), str(tmp_path / "b.acsp")
    _gen(capsys, p1, seed=1)
    _gen(capsys, p2, seed=2)
    assert Path(p1).read_bytes() != Path(p2).read_bytes()


def test_gen_data_seeds_past_2_63_do_not_fold_onto_smaller_ones(tmp_path, capsys):
    # the data stream's seed was once taken modulo 2**63, so --seed 2**63
    # wrote the bytes of --seed 0
    written = set()
    for seed in (0, 2**63, 2**64 - 1):
        _gen(capsys, str(tmp_path / "d.acsp"), n=40, seed=seed)
        written.add((tmp_path / "d.acsp").read_bytes())
    assert len(written) == 3
    code, out, err = _run(capsys, "gen-data", "--n", "40", "--seed", str(2**64),
                          "--out", str(tmp_path / "x.acsp"))
    assert code == 1 and out == "" and not (tmp_path / "x.acsp").exists()
    assert err == ('error code=BadParams message="seed must be an integer in [0, 2**64), '
                   f'got {2**64}"\n')


def test_gen_data_error_line_format(tmp_path, capsys):
    code, out, err = _run(capsys, "gen-data", "--n", "3", "--classes", "4",
                          "--out", str(tmp_path / "x.acsp"))
    assert code == 1
    assert re.fullmatch(r'error code=BadParams message="[^"]*"\n', err)


def test_gen_data_rejects_bad_dims(tmp_path, capsys):
    for dims in ("2x", "\u00b2"):  # '²' passes str.isdigit(), yet int() refuses it
        code, _, err = _run(capsys, "gen-data", "--dims", dims, "--out",
                            str(tmp_path / "x.acsp"))
        assert code == 1 and "code=BadParams" in err


def test_gen_data_rejects_oversized_rings(tmp_path, capsys, monkeypatch):
    from acsp import data

    monkeypatch.setattr(data, "MAX_VALUES", 100)
    path = tmp_path / "x.acsp"
    code, out, err = _run(capsys, "gen-data", "--kind", "rings", "--n", "51",
                          "--classes", "2", "--out", str(path))
    assert code == 1 and out == ""
    assert re.fullmatch(r'error code=BadParams message="n x prod\(dims\) = 102 [^"]*"\n', err)
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    (["--classes", "1"], "need at least 2 classes"),
    (["--kind", "rings", "--dims", "1x8x8"], "rings are planar; use --dims 2"),
])
def test_gen_data_refuses_bad_settings_with_one_error_line(tmp_path, capsys, argv, message):
    path = tmp_path / "x.acsp"
    code, out, err = _run(capsys, "gen-data", *argv, "--out", str(path))
    assert code == 1 and out == ""
    assert err == f'error code=BadParams message="{message}"\n'
    assert not path.exists()


@pytest.mark.parametrize("dims", ["4294967296x4294967296", "4294967297x4294967296"])
def test_gen_data_rejects_oversized_dims(tmp_path, capsys, dims):
    # products past 2**63 once wrapped to 0 or to a small allocation
    path = tmp_path / "x.acsp"
    code, out, err = _run(capsys, "gen-data", "--dims", dims, "--out", str(path))
    assert code == 1 and out == ""
    assert re.fullmatch(r'error code=BadParams message="n x prod\(dims\) = \d+ [^"]*"\n', err)
    assert not path.exists()


# ----------------------------------------------------------------- train

def test_train_logs_epochs_and_writes_model(tmp_path, capsys):
    data_path = str(tmp_path / "d.acsp")
    model_path = str(tmp_path / "m.acsp")
    _gen(capsys, data_path)
    out = _train(capsys, data_path, model_path, epochs=5, seed=3)
    lines = out.splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert len([l for l in lines if re.fullmatch(r"\d+,\d+\.\d{6},\d+\.\d{6}", l)]) == 5
    model = tensio.read_model(model_path)
    assert model.train_epochs == 5
    losses = [float(l.split(",")[1]) for l in lines[1:6]]
    assert losses[-1] <= losses[0]
    # the log changes nothing that is trained: the written bytes are the
    # library's, trained with no callback at the seeds the command derives
    ref_path = str(tmp_path / "ref.acsp")
    tensio.write_model(toynet.train(toynet.from_arch("mlp:2-8-6-3", derive_seed(3, "init")),
                                    tensio.read_dataset(data_path), 5, 0.1,
                                    derive_seed(3, "train")), ref_path)
    assert Path(model_path).read_bytes() == Path(ref_path).read_bytes()


def test_train_whose_model_cannot_be_stored_writes_nothing(tmp_path, capsys, monkeypatch):
    # a weight beyond float32 trains finite in float64 but has no float32 form
    def train_to_a_huge_weight(model, *args, **kwargs):
        model.layers[0].w[0, 0] = 1e39
        return model

    data_path, model_path = str(tmp_path / "d.acsp"), tmp_path / "m.acsp"
    _gen(capsys, data_path)
    monkeypatch.setattr(toynet, "train", train_to_a_huge_weight)
    code, _, err = _run(capsys, "train", "--arch", "mlp:2-8-3", "--data", data_path,
                        "--epochs", "1", "--out", str(model_path))
    assert code == 1
    assert re.fullmatch(r'error code=NonFiniteValue message="[^"\n]*"\n', err)
    assert not model_path.exists()


def test_train_rejects_missing_dataset(tmp_path, capsys):
    code, _, err = _run(capsys, "train", "--arch", "mlp:2-4-2",
                        "--data", str(tmp_path / "nope.acsp"),
                        "--out", str(tmp_path / "m.acsp"))
    assert code == 1 and "error code=" in err


def test_train_bad_arch_offset_in_message(tmp_path, capsys):
    data_path = str(tmp_path / "d.acsp")
    _gen(capsys, data_path)
    for arch in ("mlp:2-", "mlp:2-\u00b2-4"):  # '²' passes str.isdigit()
        code, _, err = _run(capsys, "train", "--arch", arch, "--data", data_path,
                            "--out", str(tmp_path / "m.acsp"))
        assert code == 1
        assert "code=ParseError" in err and "offset 6" in err


@pytest.mark.parametrize("flag, value", [
    ("--batch-size", "0"),
    ("--lr", "0"),
    ("--lr", "nan"),
    ("--lr", "inf"),  # once printed the CSV header, then failed with Divergence
])
def test_train_rejects_bad_settings_before_any_output(tmp_path, capsys, flag, value):
    data_path = str(tmp_path / "d.acsp")
    _gen(capsys, data_path)
    model_path = str(tmp_path / "m.acsp")
    code, out, err = _run(capsys, "train", "--arch", "mlp:2-4-3", "--data", data_path,
                          "--out", model_path, flag, value)
    assert code == 1
    assert re.fullmatch(r'error code=BadParams message="[^"]*"\n', err)
    assert out == ""
    assert not os.path.exists(model_path)


def test_train_rejects_classes_beyond_output_width_before_any_output(tmp_path, capsys):
    data_path = str(tmp_path / "d.acsp")
    _gen(capsys, data_path, classes=3)
    model_path = str(tmp_path / "m.acsp")
    code, out, err = _run(capsys, "train", "--arch", "mlp:2-8-2", "--data", data_path,
                          "--epochs", "0", "--out", model_path)
    assert code == 1
    assert re.fullmatch(r'error code=ShapeMismatch message="[^"]*"\n', err)
    assert out == ""
    assert not os.path.exists(model_path)


def test_train_refuses_an_oversized_architecture_before_any_output(tmp_path, capsys):
    # 1e10 parameters, about 80 GB: once a MemoryError traceback
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, classes=4)
    code, out, err = _run(capsys, "train", "--arch", "mlp:2-100000-100000-4",
                          "--data", data_path, "--out", model_path)
    assert code == 1
    assert re.fullmatch(r'error code=BadParams message="[^"]*the limit is 67108864"\n', err)
    assert out == ""
    assert not os.path.exists(model_path)


def test_train_refuses_epochs_the_model_header_cannot_store(tmp_path, capsys):
    # train_epochs is a u32: 2**32 epochs once started training, and the
    # model write after the last epoch would have ended in a struct.error
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path)
    code, out, err = _run(capsys, "train", "--arch", "mlp:2-8-3", "--data", data_path,
                          "--epochs", str(2**32), "--out", model_path)
    assert code == 1
    assert re.fullmatch(r'error code=BadParams message="need epochs >= 0 and < 2\*\*32[^"]*"\n',
                        err)
    assert out == ""  # no epoch,loss,accuracy header
    assert not os.path.exists(model_path)


@pytest.mark.parametrize("command", ["train --epochs 0", "train --epochs 1", "eval", "prune"])
def test_a_model_that_cannot_read_the_samples_gives_one_error_line(tmp_path, capsys, command):
    # train once printed its CSV header first, or with no epochs wrote the
    # model; eval and prune named the chunk's shape, (256, 2)
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=300, classes=3)
    out_path = str(tmp_path / "out")
    name, *flags = command.split()
    if name == "train":
        argv = ["--arch", "mlp:3-8-3", *flags, "--out", out_path]
    else:
        tensio.write_model(toynet.from_arch("mlp:3-8-3", seed=0), model_path)
        argv = ["--model", model_path] + (["--out", out_path] if name == "prune" else [])
    code, out, err = _run(capsys, name, "--data", data_path, *argv)
    assert code == 1
    assert err == ('error code=ShapeMismatch message="model expects samples of shape (3,), '
                   'dataset has (2,)"\n')
    assert out == ""
    assert not os.path.exists(out_path)


@pytest.mark.parametrize("spec", ["cnn:1x8x8-c4k3p3000-p6006-f-4", "cnn:1x8x8-c1k1p700-f-4"])
@pytest.mark.parametrize("command", ["train", "eval", "prune"])
def test_a_batch_too_large_gives_one_error_line_before_any_output(tmp_path, capsys, command,
                                                                  spec):
    # a few parameters, but arrays of 17.2 GiB and 968 MiB at 64 samples a
    # batch: train once ended in a MemoryError traceback
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=300, classes=4, dims="1x8x8")
    out_path = str(tmp_path / "out")
    if command == "train":
        argv = ["--arch", spec, "--out", out_path]
    else:
        tensio.write_model(toynet.from_arch(spec, seed=0), model_path)
        argv = ["--model", model_path] + (["--out", out_path] if command == "prune" else [])
    code, out, err = _run(capsys, command, "--data", data_path, *argv)
    assert code == 1
    assert re.fullmatch(r'error code=BadParams message="layer 0: [^"\n]*the limit is 67108864"\n',
                        err)
    assert out == ""
    assert not os.path.exists(out_path)


# ----------------------------------------------------------------- prune

@pytest.fixture
def trained(tmp_path, capsys):
    data_path = str(tmp_path / "d.acsp")
    model_path = str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=400, classes=3, seed=3)
    _train(capsys, data_path, model_path, arch="mlp:2-16-10-3", epochs=20, seed=3)
    return data_path, model_path


def test_prune_writes_all_outputs(tmp_path, capsys, trained):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", out_dir, "--seed", "3", "--svg")
    assert code == 0, err
    names = sorted(os.listdir(out_dir))
    assert "pruned_model.acsp" in names
    assert "plan.json" in names
    assert "summary.txt" in names
    assert any(re.fullmatch(r"mss_layer\d+\.csv", n) for n in names)
    assert any(n.endswith(".svg") for n in names)

    assert tensio.read_plan(os.path.join(out_dir, "plan.json")).entries
    pruned = tensio.read_model(os.path.join(out_dir, "pruned_model.acsp"))
    assert toynet.count_flops(pruned).total <= toynet.count_flops(
        tensio.read_model(model_path)).total

    summary = Path(out_dir, "summary.txt").read_text()
    assert summary == out
    assert "flops_before=" in summary and "speedup=" in summary


def test_prune_summary_matches_eval(tmp_path, capsys, trained):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, out, _ = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                        "--out", out_dir, "--seed", "3")
    assert code == 0
    stated = float(re.search(r"pruned_accuracy_pct=([\d.]+)", out).group(1)) / 100.0
    code, eval_out, _ = _run(capsys, "eval",
                             "--model", os.path.join(out_dir, "pruned_model.acsp"),
                             "--data", data_path)
    assert code == 0
    measured = float(re.search(r"accuracy=([\d.]+)", eval_out).group(1))
    assert measured == pytest.approx(stated, abs=5e-7)
    flops = int(re.search(r"flops=(\d+)", eval_out).group(1))
    assert flops == int(re.search(r"flops_after=(\d+)", out).group(1))


def test_prune_custom_plan_path(tmp_path, capsys, trained):
    # the plan is always <out>/plan.json, beside the curves it names; a
    # second path is refused as a usage error before anything is written
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    plan_path = str(tmp_path / "elsewhere.json")
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", out_dir, "--plan", plan_path, "--seed", "3")
    assert code == 1 and out == ""
    assert re.fullmatch(r'error code=BadParams message="[^"\n]*--plan[^"\n]*"\n', err)
    assert not os.path.exists(out_dir) and not os.path.exists(plan_path)


def test_prune_refuses_an_out_that_is_a_file_before_reading_the_model(
        tmp_path, capsys, monkeypatch, trained):
    data_path, model_path = trained
    out_path = tmp_path / "out"
    out_path.write_bytes(b"not a directory")

    def fail(*args, **kwargs):
        pytest.fail("prune read past the --out check")

    monkeypatch.setattr("acsp.planner.prune_model", fail)
    monkeypatch.setattr("acsp.tensio.read_model", fail)
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(out_path))
    assert code == 1 and out == ""
    assert re.fullmatch(r'error code=BadParams message="[^"\n]*not a directory"\n', err)
    assert out_path.read_bytes() == b"not a directory"


@pytest.mark.parametrize("layout, message", [
    ("under a file", "not a directory"),
    ("not empty", "not empty"),
])
def test_prune_refuses_an_out_it_could_not_fill_before_any_layer(
        tmp_path, capsys, monkeypatch, trained, layout, message):
    # a reused directory would keep the last run's curves beside this run's
    data_path, model_path = trained
    if layout == "under a file":
        (tmp_path / "afile").write_bytes(b"a file")
        out_path = tmp_path / "afile" / "sub"
    else:
        out_path = tmp_path / "out"
        out_path.mkdir()
        (out_path / "mss_layer0.svg").write_bytes(b"an older run's drawing")
    before = sorted(p.name for p in tmp_path.rglob("*"))

    def fail(*args, **kwargs):
        pytest.fail("prune captured a layer")

    monkeypatch.setattr("acsp.toynet.capture_activations", fail)
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(out_path))
    assert code == 1 and out == ""
    assert re.fullmatch(rf'error code=BadParams message="--out [^"\n]*{message}"\n', err)
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_prune_refuses_a_separability_space_too_large_before_any_capture(
        tmp_path, capsys, monkeypatch):
    # 200 x 16 x 32 x 32 captured values fit under data.MAX_VALUES, but the
    # space's 16 x 32 x 32 x C(100, 2) cells do not
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=200, classes=100, dims="1x32x32")
    _train(capsys, data_path, model_path, arch="cnn:1x32x32-c16k3p1-f-100", epochs=0)
    out_path = tmp_path / "out"

    def fail(*args, **kwargs):
        pytest.fail("prune captured a layer")

    monkeypatch.setattr("acsp.toynet.capture_activations", fail)
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(out_path))
    assert code == 1 and out == ""
    assert re.fullmatch(r'error code=BadParams message="layer 0: prod\(output shape\) x '
                        r'class pairs = 81100800 [^"\n]*"\n', err)
    assert not out_path.exists()


def test_prune_zero_finetune_epochs(tmp_path, capsys, trained):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, _, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                        "--out", out_dir, "--ft-epochs", "0", "--seed", "3")
    assert code == 0, err
    plan = tensio.read_plan(os.path.join(out_dir, "plan.json"))
    original = tensio.read_model(model_path)
    replayed = toynet.apply_prune(original, plan)
    pruned = tensio.read_model(os.path.join(out_dir, "pruned_model.acsp"))
    for a, b in zip(replayed.layers, pruned.layers):
        if hasattr(a, "w"):
            np.testing.assert_array_equal(
                a.w.astype(np.float32), b.w.astype(np.float32))


def test_prune_stride_thins_the_curve(tmp_path, capsys, trained):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, _, _ = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                      "--out", out_dir, "--stride", "3", "--seed", "3")
    assert code == 0
    curve = Path(out_dir, "mss_layer0.csv").read_text().splitlines()
    ks = [int(l.split(",")[0]) for l in curve[1:]]
    assert ks == list(range(2, 17, 3))


def test_prune_stride_past_the_last_component_keeps_all(tmp_path, capsys):
    # stride 5 over 8 components sweeps k = 2, 7 only: too short to fit, so
    # no knee, and all 8 are kept
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=400, classes=4, seed=3)
    _train(capsys, data_path, model_path, arch="mlp:2-8-4", epochs=30, seed=3)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(out_dir), "--stride", "5", "--seed", "3")
    assert code == 0, err
    [layer] = json.loads((out_dir / "plan.json").read_text())["layers"]
    assert layer["knee"] == {"k_prime": None, "degree": 2, "fitted_coeffs": [],
                             "difference_curve": [0.0, 0.0]}
    assert layer["k_selected"] == 8 and layer["kept_indices"] == list(range(8))
    assert re.search(r"^  0 +8 +8 +96 +96 +kept all \(no knee\)$", out, re.M)
    assert (out_dir / "pruned_model.acsp").read_bytes() == Path(model_path).read_bytes()


def test_prune_survives_a_medoid_without_points(tmp_path, capsys):
    # four units of the 6-wide layer never fire, so their separability rows
    # coincide and every medoid among them but the lowest owns no point
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=120, classes=2, seed=114)
    _train(capsys, data_path, model_path, arch="mlp:2-3-6-2", epochs=5, seed=114)
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                        "--out", str(out_dir), "--seed", "114")
    assert code == 0, err
    plan = tensio.read_plan(str(out_dir / "plan.json"))
    replayed = toynet.apply_prune(tensio.read_model(model_path), plan)
    pruned = tensio.read_model(str(out_dir / "pruned_model.acsp"))
    assert [l.w.shape for l in replayed.layers if l.parametric] == \
        [l.w.shape for l in pruned.layers if l.parametric]


def test_prune_keeps_a_one_wide_layer_out_of_the_plan(tmp_path, capsys):
    # layer 0 has a single unit: too few to cluster, so it is kept with a
    # note, has no decision in the plan and writes no curve
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=300, classes=3, seed=2)
    _train(capsys, data_path, model_path, arch="mlp:2-1-8-3", epochs=10, seed=2)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(out_dir), "--seed", "2", "--svg")
    assert code == 0, err
    assert re.search(r"^  0 +1 +1 +\d+ +\d+ +fewer than 2 components, too few to cluster$",
                     out, re.M)
    assert [l["layer_id"] for l in json.loads((out_dir / "plan.json").read_text())["layers"]] == [2]
    assert not (out_dir / "mss_layer0.csv").exists() and not (out_dir / "mss_layer0.svg").exists()
    assert (out_dir / "mss_layer2.csv").exists()


@pytest.mark.parametrize("layers", [[], [toynet.ReLU()]])
def test_prune_passes_a_model_without_weights_through(tmp_path, capsys, layers):
    # no FLOPs before or after: the summary reports no speedup, not a division by 0
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=60, classes=2, seed=5)
    tensio.write_model(toynet.ToyModel(layers, (2,)), model_path)
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert "flops_after=0" in out and "speedup=1.0000" in out


@pytest.mark.parametrize("warnings_env", [None, "error::RuntimeWarning"])
def test_prune_of_activations_beyond_float32_gives_one_error_line(tmp_path, capsys,
                                                                  warnings_env):
    # the capture's cast once printed an overflow warning before the error
    # line, or ended in a traceback with warnings as errors; a child
    # process shows the stderr a user sees. The refusal comes before any
    # output is written
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=200, classes=2)
    model = toynet.from_arch("mlp:2-4-4-2", seed=0)
    model.layers[0].w[...] = 3e38
    tensio.write_model(model, model_path)
    src = str(Path(acsp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    if warnings_env is not None:
        env["PYTHONWARNINGS"] = warnings_env
    proc = subprocess.run([sys.executable, "-m", "acsp", "prune", "--model", model_path,
                           "--data", data_path, "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 1
    assert re.fullmatch(r'error code=NonFiniteValue message="[^"\n]*"\n', proc.stderr)
    assert not (tmp_path / "out").exists()


def test_prune_at_a_high_degree_writes_nothing_to_stderr(tmp_path, capsys):
    # a degree-30 fit of a 64-wide layer's 63-point curve once printed a
    # RankWarning; a child process shows the stderr a user sees
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=400, classes=4, seed=7)
    _train(capsys, data_path, model_path, arch="mlp:2-64-4", epochs=3, seed=7)
    src = str(Path(acsp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "acsp", "prune", "--model", model_path,
                           "--data", data_path, "--degree", "30", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_prune_regular_selection_flag(tmp_path, capsys, trained):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, out, _ = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                        "--out", out_dir, "--selection", "regular", "--seed", "3")
    assert code == 0
    assert "selection=regular" in out


def test_prune_summary_states_each_setting_once_by_field(tmp_path, capsys, trained):
    # ft_lr is the rate the layers were fine-tuned with, not its default None
    data_path, model_path = trained
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(tmp_path / "out"), "--seed", "3")
    assert code == 0, err
    block = out.split("\nconfig\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert block[0] == f"  model={model_path} data={data_path}"
    names = [f.name for f in dataclasses.fields(PruneConfig)]
    assert [line.split("=", 1)[0].strip() for line in block[1:]] == names
    settings = dict(line.strip().split("=", 1) for line in block[1:])
    resolved = planner._resolve_ft_lr(PruneConfig(), tensio.read_model(model_path))
    assert settings["ft_lr"] == str(resolved.ft_lr)
    assert settings["seed"] == "3"
    assert "svg=" not in out


@pytest.mark.parametrize("flag, value", [
    ("--stride", "0"),
    ("--degree", "0"),
    ("--degree", "1"),  # a line's normalized fit never leaves the diagonal
    ("--ft-fraction", "0"),
    ("--ft-fraction", "1.5"),
    ("--ft-lr", "0"),
    ("--ft-lr", "inf"),  # once swept layer 0, then failed with Divergence
])
def test_prune_rejects_bad_config_before_any_layer(tmp_path, capsys, trained, flag, value):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", out_dir, flag, value)
    assert code == 1
    assert re.fullmatch(r'error code=BadParams message="[^"]*"\n', err)
    assert out == ""
    assert not os.path.exists(os.path.join(out_dir, "plan.json"))


def test_prune_refuses_ft_epochs_the_model_header_cannot_store_before_any_capture(
        tmp_path, capsys, monkeypatch, trained):
    # argparse takes 2**32; the fine-tune's train once refused it only
    # after layer 0 was captured and swept
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")

    def fail(*args, **kwargs):
        pytest.fail("prune captured a layer")

    monkeypatch.setattr("acsp.toynet.capture_activations", fail)
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", out_dir, "--ft-epochs", str(2**32))
    assert code == 1 and out == ""
    assert re.fullmatch(r'error code=BadParams message="ft_epochs must be an integer '
                        r'in \[0, 2\*\*32\)[^"\n]*"\n', err)
    assert not os.path.exists(out_dir)


def test_prune_rejects_classes_beyond_output_width_before_any_layer(tmp_path, capsys):
    two, three = str(tmp_path / "d2.acsp"), str(tmp_path / "d3.acsp")
    model_path = str(tmp_path / "m.acsp")
    _gen(capsys, two, classes=2)
    _gen(capsys, three, classes=3)
    _train(capsys, two, model_path, arch="mlp:2-8-2", epochs=2)
    out_dir = str(tmp_path / "out")
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", three,
                          "--out", out_dir, "--ft-epochs", "0")
    assert code == 1
    assert re.fullmatch(r'error code=ShapeMismatch message="[^"]*"\n', err)
    assert out == ""
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("flag, value", [
    ("--ft-epochs", "-1"),
    ("--stride", "x"),
    ("--selection", "best"),
])
def test_prune_rejects_bad_argument_with_one_error_line(tmp_path, capsys, trained, flag, value):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", out_dir, flag, value)
    assert code == 1
    assert re.fullmatch(rf'error code=BadParams message="argument {flag}: [^"]*"\n', err)
    assert out == ""
    assert not os.path.exists(out_dir)


def test_missing_arguments_give_one_error_line(capsys):
    code, out, err = _run(capsys, "prune", "--model", "m.acsp")
    assert code == 1
    assert re.fullmatch(r'error code=BadParams message="[^"]*--data[^"]*"\n', err)
    assert out == ""


# ------------------------------------------------------------------ eval

def test_eval_output_format(tmp_path, capsys, trained):
    data_path, model_path = trained
    code, out, _ = _run(capsys, "eval", "--model", model_path, "--data", data_path)
    assert code == 0
    assert re.fullmatch(r"accuracy=\d\.\d{6} flops=\d+\n", out)


def test_eval_rejects_classes_beyond_output_width(tmp_path, capsys):
    two, three = str(tmp_path / "d2.acsp"), str(tmp_path / "d3.acsp")
    model_path = str(tmp_path / "m.acsp")
    _gen(capsys, two, classes=2)
    _gen(capsys, three, classes=3)
    _train(capsys, two, model_path, arch="mlp:2-8-2", epochs=2)
    code, out, err = _run(capsys, "eval", "--model", model_path, "--data", three)
    assert code == 1
    assert re.fullmatch(r'error code=ShapeMismatch message="[^"]*"\n', err)
    assert out == ""


def test_eval_rejects_garbage_file(tmp_path, capsys):
    bad = str(tmp_path / "bad.acsp")
    with open(bad, "wb") as fh:
        fh.write(b"garbage")
    data_path = str(tmp_path / "d.acsp")
    _gen(capsys, data_path)
    code, _, err = _run(capsys, "eval", "--model", bad, "--data", data_path)
    assert code == 1
    assert re.fullmatch(r'error code=BadMagic message="[^"]*"\n', err)


def _conv(c_in, c_out, kernel, stride=1, pad=0):
    return SimpleNamespace(kind="conv", fields=(c_in, c_out, kernel, stride, pad), parametric=True,
                           w=np.ones((c_out, c_in, kernel, kernel)), b=np.zeros(c_out))


def _linear(n_in, n_out):
    return SimpleNamespace(kind="linear", fields=(n_in, n_out), parametric=True,
                           w=np.ones((n_out, n_in)), b=np.zeros(n_out))


def _write_unbuildable_model(path, kind):
    """A model file that `from_arch` cannot make: its output is a conv map,
    its first linear layer is 0 wide, a conv has stride 0 or a pool size 0,
    or its stack does not compose (a conv fed the wrong channel count,
    non-square maps, a kernel larger than the padded map, a pool size that
    does not divide the map, a pool after a linear layer, a flatten of 0-d
    samples). write_model only reads attributes, so plain namespaces stand
    in for the layers and the model."""
    ns = SimpleNamespace
    if kind == "zero-width":
        layers = [ns(kind="linear", fields=(2, 0), parametric=True,
                     w=np.zeros((0, 2)), b=np.zeros(0)),
                  ns(kind="relu", fields=(), parametric=False),
                  ns(kind="linear", fields=(0, 3), parametric=True,
                     w=np.zeros((3, 0)), b=np.zeros(3))]
        input_shape = (2,)
    else:
        layers, input_shape = {
            "conv-output": ([_conv(1, 4, 3, 2, 1)], (1, 8, 8)),
            "conv-channels": ([_conv(2, 4, 3)], (1, 8, 8)),
            "non-square": ([_conv(1, 4, 3)], (1, 8, 6)),
            "kernel-too-large": ([_conv(1, 4, 7, 1, 1)], (1, 4, 4)),
            "pool-indivisible": ([_conv(1, 4, 3),
                                  ns(kind="avgpool", fields=(4,), parametric=False)], (1, 8, 8)),
            "conv-stride-0": ([_conv(1, 4, 3, 0)], (1, 8, 8)),
            "pool-size-0": ([_conv(1, 4, 3),
                             ns(kind="avgpool", fields=(0,), parametric=False)], (1, 8, 8)),
            "pool-after-linear": ([_linear(2, 4),
                                   ns(kind="avgpool", fields=(2,), parametric=False)], (2,)),
            "flatten-0d": ([ns(kind="flatten", fields=(), parametric=False), _linear(1, 3)], ()),
        }[kind]
    tensio.write_model(ns(layers=layers, input_shape=input_shape, rng_seed=0,
                          train_epochs=0, train_lr=0.0), path)


@pytest.mark.parametrize("command", ["eval", "prune"])
@pytest.mark.parametrize("kind, dims", [
    ("conv-output", "1x8x8"), ("zero-width", "2"), ("conv-channels", "1x8x8"),
    ("non-square", "1x8x6"), ("kernel-too-large", "1x4x4"), ("pool-indivisible", "1x8x8"),
    ("conv-stride-0", "1x8x8"), ("pool-size-0", "1x8x8"), ("pool-after-linear", "2"),
    ("flatten-0d", "2"),
])
def test_unbuildable_model_gives_one_error_line(tmp_path, capsys, command, kind, dims):
    # the first two once ended in a traceback: a broadcast ValueError in
    # accuracy, and an IndexError counting a 0-wide layer's FLOPs
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=60, classes=3, dims=dims)
    _write_unbuildable_model(model_path, kind)
    argv = ["--model", model_path, "--data", data_path]
    if command == "prune":
        argv += ["--out", str(tmp_path / "out")]
    code, _, err = _run(capsys, command, *argv)
    assert code == 1
    error = {"conv-stride-0": "BadParams", "pool-size-0": "BadParams"}.get(kind, "ShapeMismatch")
    assert re.fullmatch(f'error code={error} message="[^"]*"\n', err)
    assert {"conv-channels": "conv expects (2, h, w)", "non-square": "requires square maps",
            "kernel-too-large": "kernel 7 too large", "pool-indivisible": "pool 4 does not divide",
            "conv-stride-0": "conv needs stride >= 1", "pool-size-0": "pool size must be >= 1",
            "pool-after-linear": "avgpool expects (c, h, w)",
            "flatten-0d": "flatten expects at least one dimension",
            }.get(kind, "") in err


def test_eval_rejects_overflowing_dataset_dims(tmp_path, capsys):
    model_path, bad = str(tmp_path / "m.acsp"), str(tmp_path / "bad.acsp")
    tensio.write_model(toynet.from_arch("mlp:2-4-2", seed=0), model_path)
    with open(bad, "wb") as fh:
        fh.write(overflowing_dataset_bytes())
    code, _, err = _run(capsys, "eval", "--model", model_path, "--data", bad)
    assert code == 1
    assert re.fullmatch(r'error code=TruncatedFile message="[^"]*"\n', err)


def test_eval_rejects_a_dataset_whose_label_count_disagrees_with_its_dims(tmp_path, capsys):
    model_path, bad = str(tmp_path / "m.acsp"), tmp_path / "bad.acsp"
    tensio.write_model(toynet.from_arch("mlp:2-4-2", seed=0), model_path)
    _gen(capsys, str(bad), n=20, classes=2)
    blob = bytearray(bad.read_bytes())
    n_at = 12 + 4 + 8 * 2  # magic+version+kind, then the two dims, then the label count
    assert struct.unpack_from("<Q", blob, n_at)[0] == 20
    struct.pack_into("<Q", blob, n_at, 19)
    bad.write_bytes(bytes(blob))
    code, _, err = _run(capsys, "eval", "--model", model_path, "--data", str(bad))
    assert code == 1
    assert re.fullmatch(r'error code=TruncatedFile message="[^"]*label count 19 disagrees[^"]*"\n',
                        err)


# ---------------------------------------------------------- determinism

def test_identical_flags_produce_identical_bytes(tmp_path, capsys, monkeypatch):
    # same relative flag vector from two working directories
    flags = dict(
        gen=["gen-data", "--n", "300", "--classes", "3", "--seed", "11",
             "--out", "d.acsp"],
        train=["train", "--arch", "mlp:2-12-8-3", "--data", "d.acsp",
               "--epochs", "10", "--seed", "11", "--out", "m.acsp"],
        prune=["prune", "--model", "m.acsp", "--data", "d.acsp", "--out", "run",
               "--seed", "11", "--svg"],
    )
    outputs = {}
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        for step in ("gen", "train", "prune"):
            assert main(list(flags[step])) == 0
        capsys.readouterr()
        outputs[name] = workdir / "run"
    # the same prune into a differently named directory writes the same bytes
    moved = list(flags["prune"])
    moved[moved.index("--out") + 1] = os.path.join("sub", "elsewhere")
    assert main(moved) == 0
    capsys.readouterr()
    outputs["moved"] = tmp_path / "two" / "sub" / "elsewhere"
    # without --svg the same prune writes every file but the drawings, byte for byte
    plain = list(flags["prune"])
    plain.remove("--svg")
    plain[plain.index("--out") + 1] = "plain"
    assert main(plain) == 0
    capsys.readouterr()
    plain_run = tmp_path / "two" / "plain"
    assert sorted(os.listdir(plain_run)) == [f for f in sorted(os.listdir(outputs["one"]))
                                             if not f.endswith(".svg")]
    for fname in os.listdir(plain_run):
        assert (plain_run / fname).read_bytes() == (outputs["one"] / fname).read_bytes(), \
            f"{fname} differs with and without --svg"
    blobs = {name: {f: (run / f).read_bytes() for f in sorted(os.listdir(run))}
             for name, run in outputs.items()}
    for name in ("two", "moved"):
        assert sorted(blobs["one"]) == sorted(blobs[name])
        for fname, blob in blobs["one"].items():
            assert blob == blobs[name][fname], f"{fname} differs between one and {name}"


@pytest.mark.parametrize("degrees", ["1", "x", "2,1", "2,,3"])
def test_degree_trend_refuses_bad_degrees_before_reading_a_model(monkeypatch, capsys, degrees):
    # neither file exists: the list is checked first, as a usage error
    script = Path(__file__).resolve().parents[1] / "scripts" / "degree_trend.py"
    monkeypatch.setattr("sys.argv", [str(script), "--model", "missing.acsp",
                                     "--data", "missing.acsp", "--degrees", degrees])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --degrees" in err and "Traceback" not in err
