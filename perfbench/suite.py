#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads, then summarise.

    python3 perfbench/suite.py --seeds 1-10 --results perfbench/out/sets/a
    python3 perfbench/suite.py --seeds 1-10 --tree ../parent --tree . \\
        --results perfbench/out/sets/pair

Each run is its own process (`run.py`), one after another. With two or more
`--tree` checkouts the runs for each seed go tree by tree, the order turning
with every seed, and each tree's results land in `<results>/tree<i>`; then
compare.py prints the comparison. With one tree the summary is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="7", help="e.g. 7 or 1-10 or 3,5,9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tree", action="append", help="checkout to run (default: this one)")
    ap.add_argument("--results", required=True)
    args = ap.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.tree or [os.path.dirname(HERE)])]
    outs = [os.path.abspath(args.results) if len(trees) == 1
            else os.path.join(os.path.abspath(args.results), f"tree{i}")
            for i in range(len(trees))]

    for n, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads.split(","):
            order = list(range(len(trees)))
            for i in order[n % len(trees):] + order[:n % len(trees)]:
                cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--results", outs[i]]
                proc = subprocess.run(cmd, cwd=trees[i], capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"tree{i} {workload} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                      flush=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
    if len(trees) == 1:
        compare.summarize(outs[0], spec)
    else:
        for out in outs[1:]:
            compare.compare(outs[0], out, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
