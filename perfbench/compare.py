#!/usr/bin/env python3
"""Summarise one set of benchmark results, or compare two sets.

    python3 perfbench/compare.py RESULTS            # medians, quartiles, spread
    python3 perfbench/compare.py BASE CHANGE        # per workload and metric

A result set is a directory of the files run.py writes. Metrics are read
from the untraced results (`*-trace0.json`); traced ones add per-module
medians to the summary. Spread is the distance between the quartiles as a
share of the median, checked against the bound BENCHMARK.json fixes.
When comparing, runs pair up by seed: a pair win means the change's value
is better than the base's at that seed, and the change/base ratios of the
pairs measure the change (their median) and the run-to-run noise (their
spread) apart from the differences between seeds' inputs. A timing is
unresolved when that paired spread exceeds its bound, unless every change
run beats every base run; it is better when the change wins nine pairs in
ten and the medians differ by more than the base's quartile distance.
Exact metrics (FLOPs ratio, accuracy, the accuracy drop) and the output
digests must be equal at every seed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Metrics fixed by the inputs: at the same seed any difference is real.
EXACT = {"flops_ratio", "pruned_accuracy_pct"}


def load(results_dir: str, trace: int) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}} for one trace setting."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(results_dir, f"*-trace{trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        out.setdefault(res["workload"], {})[res["seed"]] = res
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def values_of(runs: dict[int, dict], metric: str) -> dict[int, float]:
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()}


def digests_of(res: dict) -> list:
    return [m.get("digests") for m in res["models"]]


def accuracy_drop_pts(res: dict) -> float:
    """Dense minus pruned accuracy in points, mean over the run's models."""
    return statistics.fmean(m["base_accuracy_pct"] - m["pruned_accuracy_pct"]
                            for m in res["models"])


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def summarize(results_dir: str, spec: dict) -> None:
    runs = load(results_dir, 0)
    traced = load(results_dir, 1)
    for workload in sorted(set(runs) | set(traced)):
        by_seed = runs.get(workload, {})
        attempted = sum(r["attempted"] for r in by_seed.values())
        failed = sum(r["failed"] for r in by_seed.values())
        print(f"{workload}: {len(by_seed)} untraced runs, seeds {sorted(by_seed)}, "
              f"{failed}/{attempted} prunes failed")
        for m in spec["end_to_end"]:
            if not by_seed:
                break
            vals = list(values_of(by_seed, m["name"]).values())
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            verdict = ("steady" if s <= m["bound"] / 3 else
                       "within bound" if s <= m["bound"] else "WIDER THAN BOUND")
            print(f"  {m['name']:<22} {_fmt(med):>11} {m['unit']:<5} "
                  f"[{_fmt(q1)}, {_fmt(q3)}]  spread {s:.2%} (bound {m['bound']:.1%}) {verdict}")
        if by_seed:
            drops = [accuracy_drop_pts(r) for r in by_seed.values()]
            print(f"  {'accuracy_drop_pts':<22} {_fmt(statistics.median(drops)):>11} pts   "
                  f"[{_fmt(min(drops))}, {_fmt(max(drops))}] over seeds")
        if traced.get(workload):
            t = traced[workload]
            print(f"  per module, median of {len(t)} traced runs:")
            for m in spec["per_layer"]:
                med = statistics.median(values_of(t, m["name"]).values())
                print(f"    {m['name']:<30} {_fmt(med):>11} {m['unit']}")


def compare(base_dir: str, change_dir: str, spec: dict) -> None:
    base, change = load(base_dir, 0), load(change_dir, 0)
    for workload in sorted(set(base) & set(change)):
        a, b = base[workload], change[workload]
        seeds = sorted(set(a) & set(b))
        print(f"{workload}: {len(a)} base runs, {len(b)} change runs, {len(seeds)} pairs")
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            va, vb = values_of(a, name), values_of(b, name)
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            wins = sum(sign * (vb[s] - va[s]) > 0 for s in seeds)
            # Paired by seed, the change/base ratio holds run-to-run noise only:
            # both sides of a pair ran on the same inputs.
            ratios = [vb[s] / va[s] for s in seeds]
            q1, ratio, q3 = quartiles(ratios)
            rel = sign * (ratio - 1.0)
            noise = (q3 - q1) / ratio
            if name in EXACT:
                moved = [s for s in seeds if vb[s] != va[s]]
                verdict = "equal at every seed" if not moved else f"DIFFERS at seeds {moved}"
            elif noise > bound:
                all_better = (min(vb.values()) > max(va.values()) if sign > 0
                              else max(vb.values()) < min(va.values()))
                verdict = "better in every run" if all_better else "unresolved"
            elif rel < -bound:
                verdict = "WORSE beyond bound"
            elif wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            else:
                verdict = "no change beyond bound"
            print(f"  {name:<22} base {_fmt(qa[1])} [{_fmt(qa[0])}, {_fmt(qa[2])}]  "
                  f"change {_fmt(qb[1])} [{_fmt(qb[0])}, {_fmt(qb[2])}] {m['unit']}  "
                  f"{rel:+.2%} better (paired spread {noise:.2%}, bound {bound:.1%})  "
                  f"wins {wins}/{len(seeds)}  {verdict}")
        da = {s: accuracy_drop_pts(a[s]) for s in seeds}
        db = {s: accuracy_drop_pts(b[s]) for s in seeds}
        moved = [s for s in seeds if da[s] != db[s]]
        print(f"  {'accuracy_drop_pts':<22} base {_fmt(statistics.median(da.values()))}  "
              f"change {_fmt(statistics.median(db.values()))} pts  "
              + ("equal at every seed" if not moved else
                 f"DIFFERS at seeds {moved}: change-base "
                 + ", ".join(f"{db[s] - da[s]:+.4g}" for s in moved)))
        moved = [s for s in seeds if digests_of(a[s]) != digests_of(b[s])]
        print(f"  output digests: {'equal' if not moved else f'DIFFER at seeds {moved}'}"
              f" over {len(seeds)} seeds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+", help="one results directory, or base and change")
    args = ap.parse_args(argv)
    if len(args.results) > 2:
        ap.error("give one or two results directories")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if len(args.results) == 1:
        summarize(args.results[0], spec)
    else:
        compare(args.results[0], args.results[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
