"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys

import pytest

import run  # first: puts the checkout's src/ on sys.path
import checks  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    """The README model (seed-mlp at seed 7), set up and pruned once untraced."""
    m = run.Model(7, str(tmp_path_factory.mktemp("seed7")))
    run.set_up(run.WORKLOADS["seed-mlp"], m)
    assert run.prune_and_check(m) == []
    return m


def test_workloads_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w.models >= 3 for w in run.WORKLOADS.values())


def test_seed7_reproduces_the_readme_run(seed7):
    assert seed7.facts["flops_before"] == 12800
    assert seed7.facts["flops_after"] == 3264
    drop = seed7.facts["base_accuracy_pct"] - seed7.facts["pruned_accuracy_pct"]
    assert round(drop, 4) == 0.15


def test_digests_equal_a_plain_cli_prune(seed7, tmp_path):
    out = str(tmp_path / "plain")
    cmd = [sys.executable, "-m", "acsp", "prune", "--model", seed7.model,
           "--data", seed7.data, *run.PRUNE_FLAGS, "--seed", "7", "--out", out]
    env = dict(os.environ, PYTHONPATH=run.SRC)
    subprocess.run(cmd, check=True, capture_output=True, env=env, timeout=120)
    assert checks.digests(out) == seed7.facts["digests"]


def test_traced_prune_gives_the_same_digests(seed7):
    recorder = spans.Recorder()
    assert run.prune_and_check(seed7, recorder) == []  # includes the digest comparison
    assert checks.digests(seed7.out) == seed7.facts["digests"]
    names = {s.name for s in recorder.spans}
    assert {"prune", "cli.main", "planner.prune_layer", "cluster.sweep_detailed",
            "cluster.mss", "toynet.finetune", "toynet.train"} <= names
    # the wrappers are gone again after the traced command
    assert run.cli.planner.prune_model.__qualname__ == "prune_model"


def test_tampered_plan_fails_the_check(seed7, tmp_path):
    rc, out, err, _ = run.prune(seed7)
    plan_path = os.path.join(seed7.out, "plan.json")
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    layer = plan["layers"][0]
    layer["kept_indices"] = layer["kept_indices"][:-1]  # still a valid plan
    layer["k_selected"] -= 1
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    problems, _ = checks.check_prune(rc, out, err, seed7.model, seed7.data, seed7.out)
    assert problems == ["replaying plan.json does not give the pruned layer shapes"]

    with open(plan_path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    problems, _ = checks.check_prune(rc, out, err, seed7.model, seed7.data, seed7.out)
    assert len(problems) == 1 and "MalformedPlan" in problems[0]


def test_self_times_on_a_hand_built_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("a.child", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("b.x", 5.0, 6.0, 3),
        S("b.y", 6.5, 8.0, 3),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]
    keep_all = lambda i: True  # noqa: E731
    tree[0].name = "cli.main"
    tree[3].name = "cluster.sweep_detailed"
    tree[4].name = tree[5].name = "cluster.mss"
    metrics = spans.module_metrics(tree, spans.self_times(tree), keep_all)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["cluster.sweep_s"] == 4.0
    assert metrics["cluster.mss_s"] == 2.5
    assert metrics["cluster.pam_s"] == 1.5


def test_times_scale_to_the_reference_host_speed():
    ref = run.hostspeed.REFERENCE_S
    # a command measured while the kernel ran at half speed took half as long
    # at the reference speed; one measured at the reference speed is unchanged
    assert run.at_reference_speed([1.0, 2.0], [2 * ref, ref]) == pytest.approx([0.5, 2.0])
    assert run.hostspeed.sample(0.0) and all(t > 0 for t in run.hostspeed.sample(0.02))
