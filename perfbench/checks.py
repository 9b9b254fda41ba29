"""Output check for one `acsp prune` command, and the digests of its artifacts."""

from __future__ import annotations

import glob
import hashlib
import os
import re
import traceback

from acsp import tensio, toynet


def digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of plan.json, pruned_model.acsp and every mss_layer*.csv."""
    paths = [os.path.join(out_dir, "plan.json"), os.path.join(out_dir, "pruned_model.acsp")]
    paths += sorted(glob.glob(os.path.join(out_dir, "mss_layer*.csv")))
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _reported(summary: str, key: str) -> str:
    match = re.search(rf"^\s*{key}=(\S+)$", summary, re.MULTILINE)
    if match is None:
        raise ValueError(f"summary has no {key}= line")
    return match.group(1)


def check_prune(rc: int, stdout: str, stderr: str, model_path: str, data_path: str,
                out_dir: str) -> tuple[list[str], dict]:
    """Problems found in one prune's outputs (empty when it passed), plus facts.

    The command must exit 0 with no error line; `read_plan` must accept the
    plan; replaying the plan on the input model must give the pruned model's
    layer shapes; and the FLOPs and accuracy the summary reports must match
    the written models. Facts hold the recomputed numbers and the digests.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    if "error code=" in stderr:
        problems.append(f"error line: {stderr.strip()}")
    if problems:
        return problems, {}
    facts = {}
    try:
        model = tensio.read_model(model_path)
        pruned = tensio.read_model(os.path.join(out_dir, "pruned_model.acsp"))
        ds = tensio.read_dataset(data_path)
        plan = tensio.read_plan(os.path.join(out_dir, "plan.json"))
        replayed = toynet.apply_prune(model, plan)
        if toynet.layer_shapes(replayed) != toynet.layer_shapes(pruned):
            problems.append("replaying plan.json does not give the pruned layer shapes")
        facts = {
            "flops_before": toynet.count_flops(model).total,
            "flops_after": toynet.count_flops(pruned).total,
            "base_accuracy_pct": 100.0 * toynet.accuracy(model, ds),
            "pruned_accuracy_pct": 100.0 * toynet.accuracy(pruned, ds),
        }
        for key in ("flops_before", "flops_after"):
            if int(_reported(stdout, key)) != facts[key]:
                problems.append(f"reported {key} differs from the written model")
        for key in ("base_accuracy_pct", "pruned_accuracy_pct"):
            if _reported(stdout, key) != f"{facts[key]:.4f}":
                problems.append(f"reported {key} differs from the written model")
        facts["digests"] = digests(out_dir)
    except Exception:  # any failure to read or replay the outputs fails this prune
        problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    return problems, facts
