"""Acceptance suite: ten numbered criteria, one [PASS]/[FAIL] line each.

Every criterion carries its own tolerance and wall-clock budget. Run with
`pytest -s tests/test_acceptance.py` to see the lines as they print.
Criteria 8-10 drive the command-line pipeline end to end on the documented
fixed seed (7 for the main run, seeds 0-4 for the mode comparison).
"""

import contextlib
import io
import itertools
import math
import os
import re
import time

import numpy as np
import pytest

from acsp import sepspace, toynet
from acsp.cli import main
from acsp.cluster import MssCurve, mss, sweep_detailed
from acsp.knee import find_knee
from acsp.tensio import ActivationTensor, PlanEntry, PruningPlan

from conftest import two_class_activation

MAIN_SEED = 7                       # end-to-end runs
COMPARE_SEEDS = [0, 1, 2, 3, 4]     # weighted vs regular averaging
TOY_ARCH = "mlp:2-64-64-32-4"


@contextlib.contextmanager
def _criterion(number, label, budget_s, already_spent=0.0):
    """Prints one [PASS]/[FAIL] line and enforces the wall-clock budget."""
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start + already_spent
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    print(f"[PASS] criterion {number}: {label} ({detail} elapsed={elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, f"cli {argv[0]} failed: {err.getvalue()}"
    return out.getvalue()


# ------------------------------------------------ 1: JM cell vs scripted oracle

def _scripted_jm(mean_a, var_a, mean_b, var_b):
    # straight transcription of the two-Gaussian formulas, stdlib math only
    b = ((mean_a - mean_b) ** 2 / (8.0 * (var_a + var_b))
         + 0.5 * math.log((var_a + var_b) / (2.0 * math.sqrt(var_a * var_b))))
    return 2.0 * (1.0 - math.exp(-b))


def _population_stats(xs):
    xs = [float(x) for x in xs]
    mean = sum(xs) / len(xs)
    return mean, sum((x - mean) ** 2 for x in xs) / len(xs)


def test_criterion_01_jm_matches_scripted_oracle():
    with _criterion(1, "build_space JM cell vs scripted oracle", 1.0) as info:
        gen = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            ma, mb = gen.uniform(-50.0, 50.0, size=2)
            va, vb = np.exp(gen.uniform(np.log(1e-6), np.log(1e3), size=2))
            act = two_class_activation(ma, va, mb, vb)
            got = float(sepspace.build_space(act).values[0, 0])
            # the formula on the stats of the float32 samples actually stored
            stored = act.values[:, 0, 0, 0]
            want = _scripted_jm(*_population_stats(stored[:2]),
                                *_population_stats(stored[2:]))
            assert 0.0 <= got < 2.0
            rel = abs(got - want) / max(abs(want), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-10, f"worst relative error {worst}"
        info["pairs"] = 1000
        info["worst_rel"] = f"{worst:.2e}"


# --------------------------------------------------- 2: graph-space oracle

def _scripted_space(values, labels):
    """Group by label, per component, per pixel; scalar math throughout."""
    v = values.astype(np.float64)
    classes = sorted(set(int(c) for c in labels))
    n_comp, p = v.shape[1], v.shape[2]
    pairs = [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]]
    out = np.empty((n_comp, p * p * len(pairs)))
    for comp in range(n_comp):
        col = 0
        for a, b in pairs:
            for px in range(p):
                for py in range(p):
                    xa = v[labels == a, comp, px, py]
                    xb = v[labels == b, comp, px, py]
                    va = max(float(xa.var()), 1e-12)
                    vb = max(float(xb.var()), 1e-12)
                    out[comp, col] = _scripted_jm(
                        float(xa.mean()), va, float(xb.mean()), vb)
                    col += 1
    return out


def test_criterion_02_graph_space_oracle_and_invariances():
    with _criterion(2, "graph space vs brute-force oracle", 10.0) as info:
        gen = np.random.default_rng(202)
        worst = 0.0
        for trial in range(50):
            n_classes = int(gen.integers(2, 5))
            per_class = int(gen.integers(2, 6))
            n_comp = int(gen.integers(1, 7))
            p = int(gen.integers(1, 4))
            if p == 1:
                gen.random()  # once picked a container kind; kept so the trials stay the same
            labels = np.repeat(np.arange(n_classes), per_class)
            values = gen.normal(scale=3.0,
                                size=(len(labels), n_comp, p, p)).astype(np.float32)
            act = ActivationTensor(values, labels)
            space = sepspace.build_space(act)
            want = _scripted_space(act.values, act.labels)
            gap = float(np.abs(space.values - want).max())
            worst = max(worst, gap)
            assert gap <= 1e-9, f"trial {trial}: max abs gap {gap}"

            # sample order must not matter at all
            perm = gen.permutation(len(labels))
            shuffled = sepspace.build_space(
                ActivationTensor(values[perm], labels[perm]))
            np.testing.assert_array_equal(space.values, shuffled.values)

        # class relabeling permutes pair columns, bit for bit
        labels = np.repeat(np.arange(3), 4)
        values = gen.normal(size=(12, 5, 1, 1)).astype(np.float32)
        base = sepspace.build_space(ActivationTensor(values, labels))
        swapped_labels = np.where(labels == 0, 1, np.where(labels == 1, 0, labels))
        swapped = sepspace.build_space(
            ActivationTensor(values, swapped_labels))
        # pairs (0,1),(0,2),(1,2): swapping classes 0 and 1 exchanges the
        # last two columns and fixes the first
        np.testing.assert_array_equal(swapped.values, base.values[:, [0, 2, 1]])
        info["tensors"] = 50
        info["worst_abs"] = f"{worst:.2e}"


# ------------------------------------------------ 3: k-medoids vs exhaustive

def _grouped_instance(gen):
    """Points drawn around k separated centers, every group populated.

    This is the regime the clustering stage actually works in: component
    rows that form distinct groups. On unstructured uniform noise the
    steepest-descent swap can stall in local optima well off the global
    one; that is a property of the algorithm, not a defect, and the
    logging branch below still bounds any such stall at 5%.
    """
    k = int(gen.integers(2, 4))
    dim = int(gen.integers(1, 4))
    while True:
        centers = gen.uniform(-6.0, 6.0, size=(k, dim))
        gaps = [np.linalg.norm(a - b)
                for a, b in itertools.combinations(centers, 2)]
        if min(gaps) >= 4.0:
            break
    n = int(gen.integers(2 * k + 2, 13))
    which = np.concatenate([np.tile(np.arange(k), 2),
                            gen.integers(k, size=n - 2 * k)])
    return centers[which] + 0.6 * gen.normal(size=(n, dim)), k


def test_criterion_03_kmedoids_matches_exhaustive_search():
    with _criterion(3, "PAM cost vs exhaustive minimum", 30.0) as info:
        gen = np.random.default_rng(303)
        misses = 0
        for trial in range(200):
            rows, k = _grouped_instance(gen)
            n = len(rows)
            dist = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=-1)
            best = min(
                dist[:, list(combo)].min(axis=1).sum()
                for combo in itertools.combinations(range(n), k))
            got = sweep_detailed(rows, k, k)[1][k].cost_history[-1]
            assert got >= best - 1e-9, f"trial {trial}: cost below optimum"
            if got > best + 1e-9:
                misses += 1
                rel = (got - best) / best
                print(f"  [log] criterion 3 trial {trial}: pam={got:.6f} "
                      f"opt={best:.6f} rel_gap={rel:.4%}")
                assert rel <= 0.05, f"trial {trial}: gap {rel:.4%} above 5%"
        info["instances"] = 200
        info["local_optima"] = misses


# ------------------------------------------------------- 4: MSS properties

def test_criterion_04_mss_properties():
    with _criterion(4, "MSS identities and monotonicity", 5.0) as info:
        gen = np.random.default_rng(404)
        for _ in range(30):
            n = int(gen.integers(3, 10))
            rows = gen.normal(size=(n, 2))
            assert mss(rows, sweep_detailed(rows, n, n)[1][n].medoid_indices) == 1.0

        # four collinear points, medoids at the extremes:
        # per-point scores (1, 1 - 1/10, 1, 1 - 1/10), mean 0.95
        rows = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert abs(mss(rows, np.array([0, 3])) - 0.95) <= 1e-12

        for trial in range(100):
            n = int(gen.integers(4, 10))
            rows = gen.normal(size=(n, 2))
            k = int(gen.integers(2, min(n, 5) + 1))
            meds = sweep_detailed(rows, k, k)[1][k].medoid_indices
            before = mss(rows, meds)
            dup = int(meds[gen.integers(len(meds))])
            after = mss(np.vstack([rows, rows[dup]]), meds)
            assert after >= before - 1e-12, f"trial {trial}: {after} < {before}"
        info["identity_checks"] = 30
        info["monotonicity_checks"] = 100


# ----------------------------------------------------- 5: knee dense oracle

def _dense_knee(ks, ys, degree=2):
    """Independent re-derivation; the argmax is searched on a dense grid."""
    ks = np.asarray(ks, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if float(ys.max() - ys.min()) <= 1e-9:
        return None
    vand = np.vander(ks, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vand, ys, rcond=None)

    def fit(x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    grid = fit(ks)
    sign = -1.0 if grid[-1] < grid[0] else 1.0
    grid = sign * grid
    y_min, y_rng = grid.min(), grid.max() - grid.min()
    if y_rng <= 0.0:
        return None
    dense = np.linspace(ks[0], ks[-1], 20001)
    diff = ((sign * fit(dense) - y_min) / y_rng) - (dense - ks[0]) / (ks[-1] - ks[0])
    snapped = ks[np.abs(ks - dense[int(np.argmax(diff))]).argmin()]
    at_snap = (((sign * fit(snapped)) - y_min) / y_rng
               - (snapped - ks[0]) / (ks[-1] - ks[0]))
    if at_snap <= 1.0 / (len(ks) - 1):
        return None
    return int(round(snapped))


def test_criterion_05_knee_matches_dense_argmax():
    with _criterion(5, "knee vs dense normalized-difference argmax", 5.0) as info:
        gen = np.random.default_rng(505)
        knees = 0
        for trial in range(20):
            n = int(gen.integers(6, 17))
            ks = np.arange(2, 2 + n)
            a = gen.uniform(0.5, 1.0)
            rate = gen.uniform(0.2, 1.2)
            ys = a * (1.0 - np.exp(-rate * (ks - ks[0] + 1)))
            ys = ys + gen.normal(scale=1e-4, size=n)
            curve = MssCurve({int(k): float(y) for k, y in zip(ks, ys)})
            got = find_knee(curve, degree=2).k_prime
            want = _dense_knee(ks, ys)
            assert got == want, f"trial {trial}: {got} != {want}"
            knees += got is not None

        line = MssCurve({k: 0.1 + 0.08 * i for i, k in enumerate(range(2, 12))})
        assert find_knee(line, 2).k_prime is None
        flat = MssCurve({k: 0.7 for k in range(2, 12)})
        assert find_knee(flat, 2).k_prime is None
        info["curves"] = 20
        info["with_knee"] = knees


# --------------------------------------------------------- 6: prune == mask

def _masked_forward(model, x, layer_id, kept):
    h = x.astype(np.float64)
    mask = np.zeros(model.layers[layer_id].n_components)
    mask[kept] = 1.0
    for i, layer in enumerate(model.layers):
        h = layer.forward(h)
        if i == layer_id:
            h = h * (mask[:, None, None] if h.ndim == 4 else mask)
    return h


def test_criterion_06_prune_equals_masking():
    with _criterion(6, "pruned forward vs masked forward", 30.0) as info:
        gen = np.random.default_rng(606)
        worst = 0.0
        for trial in range(100):
            if trial % 3 == 2:
                arch = (f"cnn:2x6x6-c{int(gen.integers(3, 6))}k3-f"
                        f"-{int(gen.integers(4, 9))}-2")
            else:
                arch = (f"mlp:3-{int(gen.integers(3, 12))}"
                        f"-{int(gen.integers(3, 9))}-2")
            model = toynet.from_arch(arch, seed=int(gen.integers(1 << 20)))
            lid = int(gen.choice(model.prunable_ids()))
            n = model.layers[lid].n_components
            if n < 3:
                continue
            dropped = int(gen.integers(n))  # remove exactly one component
            kept = [i for i in range(n) if i != dropped]
            plan = PruningPlan([PlanEntry(lid, n, kept, len(kept), "regular", 2)])
            pruned = toynet.apply_prune(model, plan)
            x = gen.normal(size=(4, *model.input_shape))
            gap = float(np.abs(toynet.forward(pruned, x)
                               - _masked_forward(model, x, lid, kept)).max())
            worst = max(worst, gap)
            assert gap <= 1e-6, f"trial {trial} ({arch}, layer {lid}): {gap}"
        info["models"] = 100
        info["worst_abs"] = f"{worst:.2e}"


# -------------------------------------------------------- 7: gradient check

def _central_difference(model, x, labels, flat, pos, eps):
    orig = flat[pos]
    flat[pos] = orig + eps
    up, _ = toynet.loss_and_grads(model, x, labels)
    flat[pos] = orig - eps
    dn, _ = toynet.loss_and_grads(model, x, labels)
    flat[pos] = orig
    return (up - dn) / (2.0 * eps)


def _kink_margin(model, x):
    """Smallest |pre-activation| feeding any relu."""
    h = x.astype(np.float64)
    margin = np.inf
    for layer in model.layers:
        if isinstance(layer, toynet.ReLU):
            margin = min(margin, float(np.abs(h).min()))
        h = layer.forward(h)
    return margin


def _batch_off_the_kinks(model, gen, n):
    # exact zeros do happen: a sample whose entire hidden row dies rides the
    # zero bias onto every later relu's kink, where the loss has no gradient
    # and central differences measure the average of the two sides instead.
    # The check is only meaningful at differentiable points, so redraw.
    for _ in range(200):
        x = gen.normal(size=(n, *model.input_shape))
        if _kink_margin(model, x) > 1e-4:
            return x
    raise AssertionError("could not draw a batch clear of relu kinks")


def test_criterion_07_gradients_match_finite_differences():
    with _criterion(7, "analytic gradients vs central differences", 30.0) as info:
        gen = np.random.default_rng(707)
        archs = []
        for i in range(20):
            if i % 4 == 3:
                archs.append(f"cnn:2x6x6-c{int(gen.integers(2, 5))}k3-p2-f"
                             f"-{int(gen.integers(3, 7))}-2")
            else:
                archs.append(f"mlp:3-{int(gen.integers(3, 8))}"
                             f"-{int(gen.integers(3, 6))}-2")
        checked = 0
        for arch in archs:
            model = toynet.from_arch(arch, seed=int(gen.integers(1 << 20)))
            x = _batch_off_the_kinks(model, gen, 5)
            labels = (np.arange(5) % 2).astype(np.int64)
            _, grads = toynet.loss_and_grads(model, x, labels)
            for lid, pg in enumerate(grads):
                if pg is None:
                    continue
                layer = model.layers[lid]
                for name in ("w", "b"):
                    flat = getattr(layer, name).reshape(-1)
                    probe = np.linspace(0, flat.size - 1,
                                        num=min(8, flat.size), dtype=int)
                    for pos in probe:
                        an = pg[name].reshape(-1)[pos]
                        fd = _central_difference(model, x, labels, flat, pos, 1e-4)
                        err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                        if err > 1e-3:
                            # step may straddle a relu kink; a real bug also
                            # fails at the smaller step, a kink does not
                            fd = _central_difference(
                                model, x, labels, flat, pos, 1e-6)
                            err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                        assert err <= 1e-3, f"{arch} layer {lid} {name}[{pos}]: {err}"
                        checked += 1
        info["models"] = 20
        info["coordinates"] = checked


# ------------------------------------------------------ 8-10: end to end

@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """Seed-7 dataset and trained model shared by criteria 8 and 9."""
    root = tmp_path_factory.mktemp("toy7")
    data, model = str(root / "data.acsp"), str(root / "model.acsp")
    start = time.perf_counter()
    _run_cli("gen-data", "--kind", "blobs", "--n", "2000", "--classes", "4",
             "--dims", "2", "--seed", str(MAIN_SEED), "--out", data)
    log = _run_cli("train", "--arch", TOY_ARCH, "--data", data,
                   "--epochs", "60", "--lr", "0.1", "--seed", str(MAIN_SEED),
                   "--out", model)
    rows = [l for l in log.splitlines() if re.fullmatch(r"\d+,[\d.]+,[\d.]+", l)]
    return {
        "root": root, "data": data, "model": model,
        "train_acc": float(rows[-1].split(",")[2]),
        "build_seconds": time.perf_counter() - start,
    }


def _prune_run(toy, out_dir, seed, *extra):
    summary = _run_cli(
        "prune", "--model", toy["model"], "--data", toy["data"],
        "--out", str(out_dir), "--seed", str(seed), *extra)

    def grab(key):
        return re.search(rf"{key}=(-?[\d.]+)", summary).group(1)

    return {
        "flops_before": int(grab("flops_before")),
        "flops_after": int(grab("flops_after")),
        "base_pct": float(grab("base_accuracy_pct")),
        "pruned_pct": float(grab("pruned_accuracy_pct")),
        "delta_pct": float(grab("delta_accuracy_pct")),
    }


def test_criterion_08_end_to_end_toy_pipeline(toy_run, tmp_path):
    with _criterion(8, "end-to-end prune on seed-7 blobs", 300.0,
                    already_spent=toy_run["build_seconds"]) as info:
        assert toy_run["train_acc"] >= 0.95, \
            f"trained accuracy {toy_run['train_acc']} below 95%"
        stats = _prune_run(toy_run, tmp_path / "out", MAIN_SEED,
                           "--degree", "2", "--selection", "weighted")
        reduction = 1.0 - stats["flops_after"] / stats["flops_before"]
        assert reduction >= 0.30, f"flops reduction {reduction:.1%} below 30%"
        assert stats["delta_pct"] >= -2.0, \
            f"accuracy dropped {-stats['delta_pct']:.2f} points"
        info["train_acc"] = f"{toy_run['train_acc']:.4f}"
        info["flops_cut"] = f"{reduction:.1%}"
        info["acc_delta_pts"] = f"{stats['delta_pct']:+.2f}"


def test_criterion_09_degree_trend_and_mode_comparison(toy_run, tmp_path):
    with _criterion(9, "degree trend and selection-mode comparison", 1200.0,
                    already_spent=toy_run["build_seconds"]) as info:
        remaining, accs = [], {}
        for degree in (2, 3, 4, 5):
            stats = _prune_run(toy_run, tmp_path / f"deg{degree}", MAIN_SEED,
                               "--degree", str(degree), "--selection", "weighted")
            remaining.append(stats["flops_after"] / stats["flops_before"])
            accs[degree] = stats["pruned_pct"]
        for lo, hi in zip(remaining[1:], remaining):
            assert lo <= hi + 1e-12, f"remaining flops increased: {remaining}"
        assert accs[2] >= accs[5], f"degree-2 accuracy {accs[2]} below degree-5 {accs[5]}"

        modes = {"weighted": [], "regular": []}
        for seed in COMPARE_SEEDS:
            data = str(tmp_path / f"d{seed}.acsp")
            model = str(tmp_path / f"m{seed}.acsp")
            _run_cli("gen-data", "--n", "2000", "--classes", "4", "--dims", "2",
                     "--seed", str(seed), "--out", data)
            _run_cli("train", "--arch", TOY_ARCH, "--data", data,
                     "--epochs", "60", "--lr", "0.1", "--seed", str(seed),
                     "--out", model)
            per_seed = {"data": data, "model": model}
            for mode in modes:
                stats = _prune_run(per_seed, tmp_path / f"{mode}{seed}", seed,
                                   "--degree", "2", "--selection", mode)
                modes[mode].append(stats["pruned_pct"])
        w_mean = float(np.mean(modes["weighted"]))
        r_mean = float(np.mean(modes["regular"]))
        assert w_mean >= r_mean, \
            f"weighted mean {w_mean:.4f} below regular mean {r_mean:.4f}"
        info["remaining_pct"] = "/".join(f"{r:.1%}" for r in remaining)
        info["weighted_mean"] = f"{w_mean:.4f}"
        info["regular_mean"] = f"{r_mean:.4f}"


def test_criterion_10_identical_flags_identical_bytes(tmp_path, monkeypatch):
    with _criterion(10, "byte-identical repeat run", 600.0) as info:
        steps = (
            ["gen-data", "--n", "2000", "--classes", "4", "--dims", "2",
             "--seed", str(MAIN_SEED), "--out", "data.acsp"],
            ["train", "--arch", TOY_ARCH, "--data", "data.acsp",
             "--epochs", "60", "--lr", "0.1", "--seed", str(MAIN_SEED),
             "--out", "model.acsp"],
            ["prune", "--model", "model.acsp", "--data", "data.acsp",
             "--out", "run", "--degree", "2", "--selection", "weighted",
             "--seed", str(MAIN_SEED), "--svg"],
        )
        captured = {}
        for name in ("first", "second"):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            for argv in steps:
                _run_cli(*argv)
            captured[name] = {
                f: (workdir / "run" / f).read_bytes()
                for f in sorted(os.listdir(workdir / "run"))
            }
        assert sorted(captured["first"]) == sorted(captured["second"])
        for fname, blob in captured["first"].items():
            assert blob == captured["second"][fname], f"{fname} differs"
        info["files"] = len(captured["first"])
