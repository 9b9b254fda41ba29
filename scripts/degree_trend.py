#!/usr/bin/env python3
"""Sweep the knee-fit degree on one trained model and tabulate the trade.

Higher fit degrees bend harder toward small k, so remaining FLOPs should
fall as the degree rises while accuracy drifts down. Expects a dataset and
a trained model, e.g. the ones scripts/toy_pipeline.sh leaves behind.
"""

import argparse

import numpy as np

from acsp import planner, tensio, toynet


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--degrees", default="2,3,4,5")
    ap.add_argument("--selection", default="weighted", choices=tensio.SELECTION_MODES)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    model = tensio.read_model(args.model)
    ds = tensio.read_dataset(args.data)
    base_flops = toynet.count_flops(model).total
    base_acc = toynet.accuracy(model, ds)
    print(f"dense: flops={base_flops} accuracy={base_acc:.4f}")
    print(f"{'degree':>6} {'flops':>8} {'remaining':>9} {'accuracy':>8} {'drop_pts':>8}")

    for degree in (int(d) for d in args.degrees.split(",")):
        cfg = planner.PruneConfig(knee_degree=degree, selection=args.selection,
                                  seed=args.seed)
        pruned, reports = planner.prune_model(model, ds, cfg)
        flops = toynet.count_flops(pruned).total
        acc = toynet.accuracy(pruned, ds)
        print(f"{degree:>6} {flops:>8} {flops / base_flops:>9.1%} "
              f"{acc:>8.4f} {100 * (base_acc - acc):>8.2f}")
        widths = [f"{r.n_components}->{r.k_selected}" for r in reports]
        print(f"       layers: {', '.join(widths)}")


if __name__ == "__main__":
    main()
