#!/usr/bin/env python3
"""acsp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload seed-mlp --seed 7 --seconds 45 --trace 0

Runs the user path in this process, one command after another (a closed
loop with one client), through `acsp.cli.main`: `gen-data` + `train` per
model (set-up), then `prune` over the models round by round until
`--seconds` have passed. Every prune's outputs are checked (checks.py).
A workload holds several models, model j built and pruned with pipeline
seed `seed + 1000 * j`, because the sweep's work differs from seed to seed
and one model per run would make the run-to-run spread mostly seed spread.
Model 0 uses `--seed` itself, so seed 7 is the README run. Each set-up
and untraced prune is followed by a short run of a fixed kernel
(hostspeed.py), and the end-to-end times are scaled to the host speed at
which that kernel takes `hostspeed.REFERENCE_S`.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` every prune is repeated with the acsp modules wrapped in span
recorders (spans.py) and the line holds the per-module metrics. The full
result, with machine facts, per-model digests and the spans, is written
to `--results` (default perfbench/out/results).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

try:
    import acsp
    from acsp import cli
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import acsp from {SRC}: {exc}")
if not os.path.abspath(acsp.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: acsp was imported from {acsp.__file__}, not from {SRC}")

import checks  # noqa: E402
import hostspeed  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402

DEFAULT_RESULTS = os.path.join(HERE, "out", "results")
SEED_STRIDE = 1000
PRUNE_FLAGS = ("--degree", "2", "--selection", "weighted")  # the README command
# After each set-up and prune the host-speed kernel runs for this share of
# its time, and for at least PROBE_MIN_S.
PROBE_SHARE = 0.1
PROBE_MIN_S = 0.04


@dataclass(frozen=True)
class Workload:
    gen: tuple[str, ...]
    train: tuple[str, ...]
    models: int  # at least 3, so set-up time is a median of several


BLOBS_2D = ("--kind", "blobs", "--n", "2000", "--classes", "4", "--dims", "2")

# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "seed-mlp": Workload(BLOBS_2D, ("--arch", "mlp:2-64-64-32-4", "--epochs", "60",
                                    "--lr", "0.1"), models=16),
    "wide-mlp": Workload(BLOBS_2D, ("--arch", "mlp:2-96-96-4", "--epochs", "60",
                                    "--lr", "0.1"), models=6),
}


@dataclass
class Model:
    seed: int
    dir: str
    setup_s: list[float] = field(default_factory=list)
    prune_s: list[float] = field(default_factory=list)
    traced_prune_s: list[float] = field(default_factory=list)
    # per set-up and untraced prune, the mean kernel time just before and after it
    setup_kernel_s: list[float] = field(default_factory=list)
    prune_kernel_s: list[float] = field(default_factory=list)
    facts: dict | None = None  # from the first prune that passed its check

    @property
    def data(self) -> str:
        return os.path.join(self.dir, "data.acsp")

    @property
    def model(self) -> str:
        return os.path.join(self.dir, "model.acsp")

    @property
    def out(self) -> str:
        return os.path.join(self.dir, "run")


class SetupFailed(RuntimeError):
    pass


def command(argv: list[str], recorder: spans.Recorder | None = None):
    """One CLI command in this process: (exit status, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    span = recorder.span("cli.main") if recorder else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def set_up(w: Workload, m: Model, recorder: spans.Recorder | None = None) -> None:
    os.makedirs(m.dir, exist_ok=True)
    seed = str(m.seed)
    steps = [["gen-data", *w.gen, "--seed", seed, "--out", m.data],
             ["train", *w.train, "--data", m.data, "--seed", seed, "--out", m.model]]
    gc.collect()
    total = 0.0
    with recorder.recording("setup") if recorder else contextlib.nullcontext():
        for argv in steps:
            rc, _, err, seconds = command(argv, recorder)
            if rc != 0:
                raise SetupFailed(f"{argv[0]} exited {rc}: {err.strip()}")
            total += seconds
    m.setup_s.append(total)


def prune(m: Model, recorder: spans.Recorder | None = None):
    shutil.rmtree(m.out, ignore_errors=True)
    argv = ["prune", "--model", m.model, "--data", m.data, *PRUNE_FLAGS,
            "--seed", str(m.seed), "--out", m.out]
    gc.collect()
    with recorder.recording("prune") if recorder else contextlib.nullcontext():
        return command(argv, recorder)


def prune_and_check(m: Model, recorder: spans.Recorder | None = None) -> list[str]:
    rc, out, err, seconds = prune(m, recorder)
    (m.traced_prune_s if recorder else m.prune_s).append(seconds)
    problems, facts = checks.check_prune(rc, out, err, m.model, m.data, m.out)
    if problems:
        return problems
    if m.facts is None:
        m.facts = facts
    elif facts["digests"] != m.facts["digests"]:
        return ["artifacts differ from the first prune of this model"]
    return []


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def median_mean(times: list[list[float]]) -> float:
    """The mean over models of each model's median prune; models without a
    prune are left out. The mean keeps every model's work in the figure."""
    return statistics.fmean(statistics.median(t) for t in times if t)


def at_reference_speed(times: list[float], kernel_s: list[float]) -> list[float]:
    """Each time scaled to the host speed at which the reference kernel
    takes hostspeed.REFERENCE_S, by the kernel's mean time around it."""
    return [t * hostspeed.REFERENCE_S / k for t, k in zip(times, kernel_s)]


def probe(seconds: float, before: list[float], into: list[float] | None) -> list[float]:
    """Time the kernel after a command of `seconds`; append to `into` the mean
    kernel time around the command. Returns the new kernel times."""
    after = hostspeed.sample(max(PROBE_MIN_S, PROBE_SHARE * seconds))
    if into is not None:
        into.append(statistics.fmean(before + after))
    return after


def end_to_end(models: list[Model]) -> dict[str, float]:
    done = [m.facts for m in models if m.facts is not None]
    before = sum(f["flops_before"] for f in done)
    after = sum(f["flops_after"] for f in done)
    return {
        "prune_s": median_mean([at_reference_speed(m.prune_s, m.prune_kernel_s)
                                for m in models]),
        "setup_s": statistics.median(s for m in models
                                     for s in at_reference_speed(m.setup_s, m.setup_kernel_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "flops_ratio": before / after if after else 0.0,
        # The median over models: one model whose accuracy collapses would
        # move a mean by points, and the per-seed digests catch it anyway.
        "pruned_accuracy_pct": (statistics.median(f["pruned_accuracy_pct"] for f in done)
                                if done else 0.0),
    }


def per_module(rec: spans.Recorder, models: list[Model]):
    """Per-module metrics averaged per traced prune (per set-up for set-up
    metrics), plus the same per network layer for the result file."""
    selves = spans.self_times(rec.spans)
    roots = [rec.spans[spans.root_of(rec.spans, i)].name for i in range(len(rec.spans))]
    n_prunes = sum(s.name == "prune" for s in rec.spans)
    n_setups = sum(s.name == "setup" for s in rec.spans)
    pruning = spans.module_metrics(rec.spans, selves, lambda i: roots[i] == "prune")
    setting_up = spans.module_metrics(rec.spans, selves, lambda i: roots[i] == "setup")
    metrics = {k: v / n_prunes for k, v in pruning.items()}
    for k in ("toynet.train_s", "data.make_s"):
        metrics[k] = setting_up[k] / n_setups
    metrics["knee.found_ratio"] = pruning["knee.found_ratio"]
    both = [m for m in models if m.traced_prune_s]
    traced = median_mean([m.traced_prune_s for m in both])
    plain = median_mean([m.prune_s for m in both])
    metrics["trace.prune_s"] = traced
    metrics["trace.overhead_s"] = traced - plain

    by_layer = {}
    layer_ids = sorted({s.layer for s in rec.spans if s.layer is not None})
    for lid in layer_ids:
        layer = spans.module_metrics(
            rec.spans, selves,
            lambda i: roots[i] == "prune" and rec.spans[i].layer == lid)
        for k in spans.PER_NETWORK_LAYER:
            by_layer[f"{k}.layer{lid}"] = layer[k] / n_prunes
    return metrics, by_layer


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: str):
    w = WORKLOADS[workload]
    models = [Model(seed + SEED_STRIDE * j, os.path.join(work_dir, f"model{j}"))
              for j in range(w.models)]
    recorder = spans.Recorder() if trace else None
    kernel_s = hostspeed.sample(PROBE_MIN_S)
    for m in models:
        set_up(w, m, recorder)
        kernel_s = probe(m.setup_s[-1], kernel_s, m.setup_kernel_s)
    failures = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for m in models:
            for rec in ((None, recorder) if trace else (None,)):
                problems = prune_and_check(m, rec)
                if problems:
                    failures.append({"seed": m.seed, "traced": rec is not None,
                                     "problems": problems})
                pruned_s = (m.traced_prune_s if rec else m.prune_s)[-1]
                kernel_s = probe(pruned_s, kernel_s, None if rec else m.prune_kernel_s)
            # A traced round prunes every model twice; on wide-mlp that alone
            # would outlast the run, so a traced run may stop between models.
            if trace and time.perf_counter() - start >= seconds:
                break
        rounds += 1
    return models, recorder, failures, rounds


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=DEFAULT_RESULTS, help="directory for result files")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    acsp_threads = os.environ.pop("ACSP_THREADS", None)  # measure the default serial sweep
    facts = machine.facts(ROOT, acsp_threads)
    work_dir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    try:
        models, recorder, failures, rounds = run(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(m.prune_s) + len(m.traced_prune_s) for m in models)
    by_layer = {}
    if args.trace:
        values, by_layer = per_module(recorder, models)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(models)
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        sys.exit(f"perfbench: no value for declared metrics {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "machine": facts, **line,
        "prune_wall_s": median_mean([m.prune_s for m in models]),
        "setup_wall_s": statistics.median(s for m in models for s in m.setup_s),
        "failures": failures[:20], "per_network_layer": by_layer,
        "models": [{"seed": m.seed, "setup_s": m.setup_s, "prune_s": m.prune_s,
                    "traced_prune_s": m.traced_prune_s, "setup_kernel_s": m.setup_kernel_s,
                    "prune_kernel_s": m.prune_kernel_s,
                    **(m.facts or {})}
                   for m in models],
        "spans": ([[s.name, s.start, s.end, s.parent, s.layer, s.counts]
                   for s in recorder.spans] if recorder else []),
    }
    os.makedirs(args.results, exist_ok=True)
    path = os.path.join(args.results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh)

    print(f"{args.workload} seed {args.seed}: {len(models)} models, {rounds} rounds, "
          f"{attempted} prunes, {len(failures)} failed; result in {path}")
    kernel_ms = 1e3 * statistics.median(k for m in models for k in m.prune_kernel_s)
    print(f"  as measured, before scaling to the reference speed: prune "
          f"{detail['prune_wall_s']:.4g} s, setup {detail['setup_wall_s']:.4g} s; "
          f"host-speed kernel {kernel_ms:.3g} ms (reference {hostspeed.REFERENCE_S * 1e3:g} ms)")
    for m in models:
        if m.facts:
            f = m.facts
            print(f"  model seed {m.seed}: flops {f['flops_before']} -> {f['flops_after']}, "
                  f"accuracy {f['base_accuracy_pct']:.2f} -> {f['pruned_accuracy_pct']:.2f}%")
    if any(m.facts for m in models):
        drop = statistics.fmean(m.facts["base_accuracy_pct"] - m.facts["pruned_accuracy_pct"]
                                for m in models if m.facts)
        print(f"  accuracy drop {drop:.4g} pts (mean over models)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
