"""Command line front end.

Subcommands: gen-data, train, prune, eval. One --seed per command fans out
into named sub-streams (data, init, train, finetune), so two invocations
with identical flags write byte-identical files. Failures exit with status
1 and a single machine-parseable line on stderr:

    error code=<ExceptionName> message="..."
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import data, planner, tensio, toynet
from .errors import AcspError, BadParams
from .rng import derive_seed


def _parse_dims(text: str) -> tuple[int, ...]:
    parts = text.split("x")
    if not all(p.isdecimal() and int(p) >= 1 for p in parts):
        raise BadParams(f"bad dims {text!r}; expected forms like '2' or '1x8x8'")
    return tuple(int(p) for p in parts)


def cmd_gen_data(args) -> None:
    dims = _parse_dims(args.dims)
    seed = derive_seed(args.seed, "data")
    if args.kind == "blobs":
        ds = data.make_blobs(args.n, args.classes, dims, seed)
    else:
        if dims != (2,):
            raise BadParams("rings are planar; use --dims 2")
        ds = data.make_rings(args.n, args.classes, seed)
    tensio.write_dataset(ds, args.out)
    print(f"wrote {args.out}: n={ds.n_samples} classes={ds.num_classes} "
          f"dims={'x'.join(map(str, ds.samples.shape[1:]))}")


def cmd_train(args) -> None:
    toynet.check_train_settings(args.epochs, args.lr, args.batch_size)
    ds = tensio.read_dataset(args.data)
    model = toynet.from_arch(args.arch, derive_seed(args.seed, "init"))
    toynet.check_class_ids(model, ds)
    print("epoch,loss,accuracy")

    def log(epoch, loss, acc):
        print(f"{epoch},{loss:.6f},{acc:.6f}")

    model = toynet.train(model, ds, args.epochs, args.lr,
                         derive_seed(args.seed, "train"),
                         batch_size=args.batch_size, on_epoch=log)
    tensio.write_model(model, args.out)
    print(f"wrote {args.out}")


def _format_summary(args, config, reports, base_acc, pruned_acc, base_flops,
                    pruned_flops) -> str:
    ft_lr = config.ft_lr if config.ft_lr is not None else "auto"
    lines = [
        "pruning summary",
        "===============",
        "",
        "config",
        f"  model={args.model} data={args.data} out={args.out}",
        f"  degree={config.knee_degree} selection={config.selection} stride={config.stride}",
        f"  ft_fraction={config.ft_fraction} ft_epochs={config.ft_epochs} ft_lr={ft_lr}",
        f"  seed={config.seed} svg={str(args.svg).lower()} "
        f"pre_activation={str(config.pre_activation).lower()} "
        f"freeze_upstream={str(config.freeze_upstream).lower()}",
        "",
        "layers",
        "  layer  n_comp  k_sel  flops_before  flops_after  note",
    ]
    for r in reports:
        if r.warning:
            note = r.warning
        elif r.k_selected == r.n_components:
            note = "kept all (no knee)"
        else:
            note = "-"
        lines.append(f"  {r.layer_id:<5d}  {r.n_components:<6d}  {r.k_selected:<5d}  "
                     f"{r.flops_before:<12d}  {r.flops_after:<11d}  {note}")
    lines += [
        "",
        "totals",
        f"  flops_before={base_flops}",
        f"  flops_after={pruned_flops}",
        # prune keeps at least two components a layer, so no FLOPs after
        # means none before
        f"  speedup={base_flops / pruned_flops if pruned_flops else 1.0:.4f}",
        f"  base_accuracy_pct={100.0 * base_acc:.4f}",
        f"  pruned_accuracy_pct={100.0 * pruned_acc:.4f}",
        f"  delta_accuracy_pct={100.0 * (pruned_acc - base_acc):.4f}",
        "",
    ]
    return "\n".join(lines)


def _write_curve_svg(layer_id, curve, knee_k, path: str) -> None:
    """Hand-rolled line chart; no plotting dependency for a 30-line picture."""
    width, height, margin = 480, 320, 42
    ks = curve.ks()
    ys = curve.scores()
    x0, x1 = float(ks[0]), float(ks[-1])
    y0, y1 = float(ys.min()), float(ys.max())
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(k):
        return margin + (k - x0) / xspan * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / yspan * (height - 2 * margin)

    points = " ".join(f"{sx(k):.2f},{sy(y):.2f}" for k, y in zip(ks, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">k={ks[0]}</text>',
        f'<text x="{width - margin - 30}" y="{height - margin + 16}" font-size="11">'
        f'k={ks[-1]}</text>',
        f'<text x="4" y="{sy(y1):.2f}" font-size="11">{y1:.4f}</text>',
        f'<text x="4" y="{sy(y0):.2f}" font-size="11">{y0:.4f}</text>',
        f'<text x="{margin}" y="{margin - 10}" font-size="12">layer {layer_id} '
        f'mss curve</text>',
    ]
    if knee_k is not None:
        kx = sx(knee_k)
        parts.append(f'<line x1="{kx:.2f}" y1="{margin}" x2="{kx:.2f}" '
                     f'y2="{height - margin}" stroke="#c23b22" stroke-dasharray="4,3"/>')
        parts.append(f'<circle cx="{kx:.2f}" cy="{sy(curve.entries[knee_k]):.2f}" r="4" '
                     f'fill="#c23b22"/>')
        parts.append(f'<text x="{kx + 5:.2f}" y="{margin + 12}" font-size="11" '
                     f'fill="#c23b22">k\'={knee_k}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_prune(args) -> None:
    model = tensio.read_model(args.model)
    ds = tensio.read_dataset(args.data)
    config = planner.PruneConfig(**{f.name: getattr(args, f.name)
                                    for f in dataclasses.fields(planner.PruneConfig)})
    base_acc = toynet.accuracy(model, ds)
    base_flops = toynet.count_flops(model).total
    pruned, reports = planner.prune_model(model, ds, config)
    pruned_acc = toynet.accuracy(pruned, ds)
    pruned_flops = toynet.count_flops(pruned).total

    os.makedirs(args.out, exist_ok=True)
    tensio.write_model(pruned, os.path.join(args.out, "pruned_model.acsp"))
    plan_path = args.plan or os.path.join(args.out, "plan.json")
    # a layer too narrow to sweep has no decision to replay; a keep-all
    # layer that found no knee stays in the plan as an explicit no-op
    tensio.write_plan(tensio.PruningPlan([r.entry for r in reports if r.entry is not None]),
                      plan_path)
    for r in reports:
        if r.entry is None:
            continue
        csv_path = os.path.join(args.out, r.entry.mss_curve_ref)
        r.mss_curve.to_csv(csv_path)
        if args.svg:
            knee_k = r.knee.k_prime if r.knee is not None else None
            _write_curve_svg(r.layer_id, r.mss_curve, knee_k,
                             os.path.splitext(csv_path)[0] + ".svg")
    summary = _format_summary(args, config, reports, base_acc, pruned_acc,
                              base_flops, pruned_flops)
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(summary)
    print(summary, end="")


def cmd_eval(args) -> None:
    model = tensio.read_model(args.model)
    ds = tensio.read_dataset(args.data)
    toynet.check_class_ids(model, ds)
    acc = toynet.accuracy(model, ds)
    flops = toynet.count_flops(model).total
    print(f"accuracy={acc:.6f} flops={flops}")


def _nonneg_int(text: str) -> int:
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return val


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as BadParams, so it ends in the one error line."""

    def error(self, message):
        raise BadParams(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="acsp",
        description="Automatic complementary separation pruning on a toy network engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic labeled dataset")
    p.add_argument("--kind", choices=("blobs", "rings"), default="blobs")
    p.add_argument("--n", type=int, default=2000, help="sample count")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dims", default="2", help="feature shape, e.g. 2 or 1x8x8")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from an architecture spec")
    p.add_argument("--arch", required=True,
                   help="e.g. mlp:2-64-64-32-4 or cnn:1x8x8-c8k3-p2-c16k3-p2-f-32-4")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=_nonneg_int, default=60)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="prune a trained model layer by layer")
    defaults = planner.PruneConfig()
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--plan", default=None, help="plan path (default <out>/plan.json)")
    p.add_argument("--degree", dest="knee_degree", metavar="DEGREE", type=int,
                   default=defaults.knee_degree, help="knee fit degree, at least 2")
    p.add_argument("--selection", choices=tensio.SELECTION_MODES, default=defaults.selection)
    p.add_argument("--stride", type=int, default=defaults.stride, help="sweep stride over k")
    p.add_argument("--ft-fraction", type=float, default=defaults.ft_fraction)
    p.add_argument("--ft-epochs", type=_nonneg_int, default=defaults.ft_epochs)
    p.add_argument("--ft-lr", type=float, default=defaults.ft_lr,
                   help=f"fine-tune lr (default {planner.DEFAULT_FT_LR_SCALE} x the model's "
                   "training lr)")
    p.add_argument("--seed", type=_nonneg_int, default=defaults.seed)
    p.add_argument("--svg", action="store_true", help="also plot each mss curve")
    p.add_argument("--pre-activation", action="store_true",
                   help="capture activations before the following ReLU")
    p.add_argument("--freeze-upstream", action="store_true",
                   help="fine-tune only the pruned layer and everything after it")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="print accuracy and flops of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (AcspError, OSError) as exc:
        msg = str(exc).replace('"', "'")
        print(f'error code={type(exc).__name__} message="{msg}"', file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
