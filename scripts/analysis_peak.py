#!/usr/bin/env python3
"""Peak memory and time of one layer's analysis: capture plus build_space.

Builds an untrained model (seed 7) and a blob dataset of its input shape,
captures the first prunable layer's activations and builds its
separability space, then prints the values captured, the space's cells
(the two counts `data.MAX_VALUES` bounds), the process's peak RSS, the
seconds the two steps took and the SHA-256 of the space. Run it in a
fresh process, since peak RSS only ever grows, e.g.

    scripts/analysis_peak.py --arch cnn:3x16x16-c128k3p1-p2-f-10 \\
        --n 2000 --classes 10
"""

import argparse
import hashlib
import resource
import time

import numpy as np

from acsp import data, sepspace, toynet

SEED = 7


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--arch", required=True, help="e.g. cnn:3x16x16-c128k3p1-p2-f-10")
    ap.add_argument("--n", type=int, required=True, help="sample count")
    ap.add_argument("--classes", type=int, required=True)
    args = ap.parse_args()

    model = toynet.from_arch(args.arch, seed=SEED)
    ds = data.make_blobs(args.n, args.classes, model.input_shape, seed=SEED)
    toynet.check_fit(model, ds)
    layer_id = model.prunable_ids()[0]

    start = time.perf_counter()
    acts = toynet.capture_activations(model, ds, layer_id)
    values = acts.values.size
    space = sepspace.build_space(acts)
    seconds = time.perf_counter() - start

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    digest = hashlib.sha256(np.ascontiguousarray(space.values, "<f8").tobytes()).hexdigest()
    print(f"layer={layer_id} values={values} cells={space.values.size} "
          f"peak_rss_mb={peak_mb:.1f} seconds={seconds:.3f} sha256={digest}")


if __name__ == "__main__":
    main()
