#!/bin/sh
# Full pipeline on 2-D Gaussian blobs: generate, train, prune, compare.
# Usage: scripts/toy_pipeline.sh [outdir] [seed]
set -e

OUT="${1:-runs/toy}"
SEED="${2:-7}"
mkdir -p "$OUT"

python3 -m acsp gen-data --kind blobs --n 2000 --classes 4 --dims 2 \
    --seed "$SEED" --out "$OUT/data.acsp"

python3 -m acsp train --arch mlp:2-64-64-32-4 --data "$OUT/data.acsp" \
    --epochs 60 --lr 0.1 --seed "$SEED" --out "$OUT/model.acsp" \
    | tail -n 3

rm -rf "$OUT/pruned"  # prune writes only into an absent or empty directory
python3 -m acsp prune --model "$OUT/model.acsp" --data "$OUT/data.acsp" \
    --degree 2 --selection weighted --seed "$SEED" --svg --out "$OUT/pruned"

echo
echo "dense:  $(python3 -m acsp eval --model "$OUT/model.acsp" --data "$OUT/data.acsp")"
echo "pruned: $(python3 -m acsp eval --model "$OUT/pruned/pruned_model.acsp" --data "$OUT/data.acsp")"
echo "artifacts in $OUT/pruned: plan.json, summary.txt, mss_layer*.csv/svg"
