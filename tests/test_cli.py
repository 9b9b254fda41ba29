"""Command-line surface: flows, file outputs, error lines, determinism."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from acsp import tensio, toynet
from acsp.cli import main

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
    out = _train(capsys, data_path, model_path, epochs=5)
    lines = out.splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert len([l for l in lines if re.fullmatch(r"\d+,\d+\.\d{6},\d+\.\d{6}", l)]) == 5
    model = tensio.read_model(model_path)
    assert model.train_epochs == 5
    losses = [float(l.split(",")[1]) for l in lines[1:6]]
    assert losses[-1] <= losses[0]


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
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    plan_path = str(tmp_path / "elsewhere.json")
    code, _, _ = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                      "--out", out_dir, "--plan", plan_path, "--seed", "3")
    assert code == 0
    assert os.path.exists(plan_path)
    assert not os.path.exists(os.path.join(out_dir, "plan.json"))
    blob = json.loads(Path(plan_path).read_text())
    assert blob["format"] == "acsp-plan/1"


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
    # stride 5 over 8 components sweeps k = 2, 7 only: no knee, so keep all 8
    data_path, model_path = str(tmp_path / "d.acsp"), str(tmp_path / "m.acsp")
    _gen(capsys, data_path, n=400, classes=4, seed=3)
    _train(capsys, data_path, model_path, arch="mlp:2-8-4", epochs=30, seed=3)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                          "--out", str(out_dir), "--stride", "5", "--seed", "3")
    assert code == 0, err
    [layer] = json.loads((out_dir / "plan.json").read_text())["layers"]
    assert layer["knee"] is None
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


def test_prune_regular_selection_flag(tmp_path, capsys, trained):
    data_path, model_path = trained
    out_dir = str(tmp_path / "out")
    code, out, _ = _run(capsys, "prune", "--model", model_path, "--data", data_path,
                        "--out", out_dir, "--selection", "regular", "--seed", "3")
    assert code == 0
    assert "selection=regular" in out


@pytest.mark.parametrize("flag, value", [
    ("--stride", "0"),
    ("--degree", "0"),
    ("--degree", "1"),  # a line's normalized fit never leaves the diagonal
    ("--ft-fraction", "0"),
    ("--ft-fraction", "1.5"),
    ("--ft-lr", "0"),
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


def test_eval_rejects_overflowing_dataset_dims(tmp_path, capsys):
    model_path, bad = str(tmp_path / "m.acsp"), str(tmp_path / "bad.acsp")
    tensio.write_model(toynet.from_arch("mlp:2-4-2", seed=0), model_path)
    with open(bad, "wb") as fh:
        fh.write(overflowing_dataset_bytes())
    code, _, err = _run(capsys, "eval", "--model", model_path, "--data", bad)
    assert code == 1
    assert re.fullmatch(r'error code=TruncatedFile message="[^"]*"\n', err)


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
        outputs[name] = {
            f: (workdir / "run" / f).read_bytes()
            for f in sorted(os.listdir(workdir / "run"))
        }
    assert sorted(outputs["one"]) == sorted(outputs["two"])
    for fname, blob in outputs["one"].items():
        assert blob == outputs["two"][fname], f"{fname} differs between runs"
