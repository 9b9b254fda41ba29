"""k-medoids partitioning and the mean simplified silhouette (MSS).

The partitioner is PAM: a greedy BUILD phase followed by steepest-descent
SWAP passes. All tie-breaks go to the lowest index, so results are fully
deterministic and need no seed.

Greedy BUILD is nested: BUILD(k+1) is BUILD(k) plus one medoid. A sweep
therefore runs BUILD once up to its largest k and takes the first k picks
for each k.

Each SWAP pass finds PAM's best (medoid, candidate) exchange without
scoring all k x n exchanges exactly. Following FastPAM1 (Schubert and
Rousseeuw, "Faster k-Medoids Clustering", SISAP 2019), it estimates the
cost after swapping medoid m for candidate h, over the n-k non-medoid
candidates only, as

    est[m, h]  = sum_j near[j, h] + sum_j member[m, j] loss[j, h]
    near[j, h] = min(d1_j, d_jh),  loss[j, h] = min(d2_j, d_jh) - near[j, h]

with d1/d2 each point's distance to its nearest/second-nearest medoid and
member[m, j] = 1 when medoid m owns point j, else 0. The per-cluster sums
are one BLAS product: k (n-k) n multiply-adds, yet at default BLAS threads
no slower than grouping points by cluster up to n = 512; grouping won only
with one BLAS thread, at n = 384. A medoid that owns no point (repeated
rows) gets a zero row. These estimates differ from PAM's exact sums by at
most a derived rounding bound `tol`. A pass stops when no estimate comes
within `tol` of improving the cost; otherwise it computes the exact cost
of each (medoid, candidate) pair whose estimate lies within 2 tol of the
lowest one, summing the points in the order PAM does, and applies PAM's
strict-improvement, lowest-index rule to those pairs in PAM's order.
Every pair that could hold the exact minimum is among them, so the chosen
swap is the one full PAM chooses, to the bit. When that window holds a
single pair p and the lowest estimate is below cost - tol, the exact step
is skipped. Then exact_p <= est_p + tol < cost, so p strictly improves;
and every other pair q has est_q > est_p + 2 tol, hence exact_q >= est_q -
tol > est_p + tol >= exact_p, so p is the unique exact minimum: full PAM's
pick. A pass near convergence, whose lowest estimate lies within tol of
the cost, always takes the exact step.

SWAP's state lives across passes. The point-to-medoid distances are a
(k, n) block of medoid rows of `dist` (its columns, as
`pairwise_distances` copies each entry across the diagonal), so d1 and
d2 come from argmin/min along the long axis. The candidates, their
(n-k, n) rows of `dist` and the membership are built once per k;
an accepted swap of medoid position m for candidate slot c writes the old
medoid into slot c, one row copy, and moves n membership entries. The
candidates are therefore not in index order, and the estimates' columns
with them. Which pairs lie in the window, and whether one pair clearly
wins, does not depend on that order; PAM's first-argmin tie rule does, so
a window of several pairs is sorted back into PAM's (position, row index)
order before its exact step.

Each k's MSS is scored by `mss` from the sweep's own distance matrix.

Each k's SWAP and MSS read only the distance matrix, the BUILD order and
the tolerance, so a sweep over SPLIT_MIN_ROWS to SPLIT_MAX_ROWS - 1 rows,
on Linux with at least two usable CPUs, forks one child after computing
those three: the child runs every other k (the second, fourth, ...) and
pickles its results back through a pipe while the parent runs the rest.
Each k runs the same float operations in either process and pickling
keeps every bit, so the curve and the clusterings equal the serial
sweep's exactly. On a 2-vCPU VM
a fork, exit and wait take 2.6-4.4 ms; against the serial sweep the split
took x1.28-1.54 the time at n <= 48, x0.99-1.15 at n = 64, x1.05 at 80 and
x0.62-0.71 at 96 (uniform rows and seed-7 layer spaces), hence the
threshold of 80. The child makes numpy and BLAS calls only and leaves
through os._exit, so it runs no handler and flushes no inherited buffer;
OpenBLAS restarts its thread pool through its own fork handlers. If the
pipe or the fork cannot be made, the sweep runs serially; if the child
fails, the parent runs the child's k itself, so an error raised by a k is
raised in the parent as in a serial sweep.

From SPLIT_MAX_ROWS rows on the sweep stays in one process: there the
split lost whenever BLAS ran multithreaded, the default, likely because
both processes run BLAS threads on the same CPUs. On uniform 6-column
rows, seven runs each, the split took 0.055-0.062 s at n = 128 against
0.070-0.079 s serial, but 0.11-0.86 s at 136 against 0.079-0.103 s, and
up to x31 the serial time at 144 and 160. The bound of 136 was measured
on that one 2-vCPU VM only: where the loss starts likely depends on the
host's CPU count, and no benchmark workload has a layer this wide yet
(ROADMAP item 1), so it is not a general property. Unverified: on Python
3.12 and later, os.fork() in a multi-threaded process, such as one whose
OpenBLAS has started its threads, warns DeprecationWarning.

MSS scores a clustering in [-inf, 1]:

    a(i)   = distance from point i to its nearest medoid
    b(i)   = mean distance from i to the other k-1 medoids
    mss(i) = 1 - a(i) / max(b(i), 1e-12)
    MSS    = mean_i mss(i)

A k-medoids partition assigns each point to its nearest medoid, so MSS
depends on the medoids alone; at k = n_points it is exactly 1.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, NonFiniteValue, ShapeMismatch
from .tensio import is_int

B_FLOOR = 1e-12
MAX_SWAP_PASSES = 100
BLOCK_ELEMENTS = 4 << 20  # cap on each of pairwise_distances' difference arrays
SPLIT_MIN_ROWS = 80  # a sweep over n rows runs in two processes
SPLIT_MAX_ROWS = 136  # when SPLIT_MIN_ROWS <= n < SPLIT_MAX_ROWS


@dataclass(eq=False)
class ClusterResult:
    medoid_indices: np.ndarray  # sorted row indices, k of them
    assignment: np.ndarray      # per point, the row index of its medoid
    cost_history: list[float] = field(default_factory=list)  # BUILD, then per swap; [-1] = cost
    swap_passes: int = 0        # SWAP passes run, the last one included
    converged: bool = True      # False when SWAP stopped at MAX_SWAP_PASSES


@dataclass
class MssCurve:
    entries: dict[int, float]

    def ks(self) -> np.ndarray:
        return np.array(sorted(self.entries), dtype=np.int64)

    def scores(self) -> np.ndarray:
        return np.array([self.entries[k] for k in sorted(self.entries)])

    def to_csv(self, path: str) -> None:
        lines = ["k,mss"] + [f"{k},{self.entries[k]!r}" for k in sorted(self.entries)]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def pairwise_distances(rows: np.ndarray) -> np.ndarray:
    """The (n, n) Euclidean distance matrix of the rows.

    Fills the upper triangle, diagonal included, over blocks of rows: rows
    [s, e) against rows s.. on, so that each (b, n - s, d) difference array
    holds at most BLOCK_ELEMENTS values (one row at least). Each entry sums
    its own d squares along the last axis, whatever the block, so the
    result does not depend on the blocking. Each block's upper-triangle
    entries are then copied below the diagonal, so dist == dist.T holds by
    construction; one-row blocks compute each unordered pair once.
    """
    n = len(rows)
    dist = np.empty((n, n))
    step = max(1, BLOCK_ELEMENTS // max(1, rows.size))
    for s in range(0, n, step):
        e = min(s + step, n)
        diff = rows[s:e, None, :] - rows[None, s:, :]
        diff *= diff
        block = np.sqrt(diff.sum(axis=2))
        del diff  # freed before the next block: one difference array lives at a time
        dist[s:e, s:] = block
        np.copyto(dist[s:, s:e], block.T, where=np.tri(n - s, e - s, -1, dtype=bool))
    return dist


def _assign(dist: np.ndarray, medoids: np.ndarray, ar: np.ndarray):
    """Nearest-medoid position per point; argmin takes the lowest index on ties.

    Returns (pos, d1, dm): dm = dist[medoids] is the (k, n) medoid block,
    one row per medoid (each point's distance to it: `dist` is symmetric by
    construction), and `ar` is np.arange(n). Gathering rows copies
    contiguous memory, and argmin/min run along the long axis.
    """
    dm = dist[medoids]
    pos = dm.argmin(axis=0)
    return pos, dm[pos, ar], dm


def _build(dist: np.ndarray, k_max: int):
    """Greedy BUILD up to k_max medoids: start from the most central point,
    then add the candidate with the largest cost reduction.

    Returns the pick order; BUILD(k) is `sorted(order[:k])`.
    """
    totals = dist.sum(axis=1)
    order = [int(np.argmin(totals))]
    dmin = dist[order[0]].copy()
    while len(order) < k_max:
        gains = np.maximum(dmin[:, None] - dist, 0.0).sum(axis=0)
        gains[order] = -1.0
        best = int(np.argmax(gains))
        order.append(best)
        dmin = np.minimum(dmin, dist[best])
    return order


def _swap_tolerance(dist: np.ndarray) -> float:
    """Largest gap between a FastPAM1 estimate and PAM's exact swap cost.

    Every summand lies in [0, D], D = dist.max(), so a float64 sum of at most
    n of them is off by at most g = gamma_n * n * D, gamma_n = n u / (1 - n u)
    with u = 2^-53, in any summation order. The exact cost and the two parts
    of the estimate are such sums (3 g): the 0/1 membership product too, as
    multiplying by 0 or 1 and adding +0 are exact, whatever order or FMA the
    BLAS uses. The per-point subtractions, the final addition and the
    threshold comparisons each add a few u * n * D, together below another
    2 g for n >= 3. Hence 6 g. The threshold comparisons are `cost + tol`
    (some pair may improve), `low + 2 tol` (the window) and `cost - tol` (a
    single window pair improves without the exact step); each threshold is
    one addition of values below 2 n D, rounded by at most 2 u n D, so the
    third one also fits in those 2 g.
    """
    n = dist.shape[0]
    nu = n * np.finfo(np.float64).eps / 2
    return 6.0 * nu / (1.0 - nu) * n * float(dist.max())


def _swap_estimates(rows, member, d1, d2):
    """FastPAM1's estimated cost of every (medoid position, candidate) swap.

    `rows` holds the candidates' rows of `dist` (their columns, as `dist`
    is symmetric by construction) and `member` the (k, n) 0/1 membership;
    est[m, c] is the cost of swapping medoid position m for the candidate
    of row c.
    """
    near = np.minimum(rows, d1)
    loss = np.minimum(rows, d2)
    loss -= near
    return member @ loss.T + near.sum(axis=1)


def _best_swap(dist, cand, rows, member, pos, d1, d2, cost, tol):
    """PAM's best strictly improving (medoid position, candidate slot), or None.

    `cand` lists the non-medoid rows in no particular order and `rows` their
    rows of `dist`; the returned slot c names candidate cand[c]. Only the
    pairs whose estimate lies within 2 tol of the lowest one can hold the
    exact minimum. A single such pair whose estimate is below cost - tol is
    that minimum and strictly improves (exact <= est + tol < cost, and any
    other pair's exact cost exceeds est + tol), so it is PAM's pick unscored.
    Otherwise the window is scored exactly, at most n pairs at a time, in
    PAM's row-major (position, row index) order: `cand` is unsorted, so the
    window is lexsorted back into that order, and the first argmin, PAM's
    tie rule, is PAM's pick. Each exact cost is the last prefix sum over
    the points of the candidate's row of `dist` (its column, as `dist` is
    symmetric by construction), which adds them in index order as PAM's
    (n, n) axis-0 sum does; a 2-D sum over a subset of the columns may add
    them in another order.
    """
    n = dist.shape[0]
    est = _swap_estimates(rows, member, d1, d2)
    flat = est.argmin()
    low = est.flat[flat]
    if not low < cost + tol:
        return None
    window = est <= low + 2.0 * tol
    if low < cost - tol and np.count_nonzero(window) == 1:
        return divmod(int(flat), len(cand))
    mi, col = divmod(np.flatnonzero(window), len(cand))
    order = np.lexsort((cand[col], mi))
    mi, col = mi[order], col[order]
    h = cand[col]
    exact = np.empty(len(mi))
    for s in range(0, len(mi), n):
        block = slice(s, s + n)
        costs = np.where(pos == mi[block, None], d2, d1)
        np.minimum(costs, dist[h[block]], out=costs)
        exact[block] = np.cumsum(costs, axis=-1, out=costs)[:, -1]
        del costs  # freed before the next block: at most two n x n arrays live
    best = int(np.argmin(exact))
    return (int(mi[best]), int(col[best])) if exact[best] < cost else None


def _swap(dist: np.ndarray, medoids: list[int], tol: float, ar: np.ndarray) -> ClusterResult:
    """SWAP passes from a BUILD medoid set: apply the single best strictly
    improving exchange per pass; stop when none improves.

    The candidates, their rows of `dist` and the membership are built once
    and updated in place by each accepted swap: the old medoid takes the
    incoming candidate's slot, so `cand` is not kept sorted.
    """
    n = dist.shape[0]
    k = len(medoids)
    meds = np.array(sorted(medoids))
    pos, d1, dm = _assign(dist, meds, ar)
    cost = d1.sum()
    history = [float(cost)]
    passes = 0
    converged = k == n
    cand = np.delete(ar, meds)
    rows = dist[cand]
    member = np.zeros((k, n))
    member[pos, ar] = 1.0
    while not converged and passes < MAX_SWAP_PASSES:
        passes += 1
        dm[pos, ar] = np.inf
        best = _best_swap(dist, cand, rows, member, pos, d1, dm.min(axis=0), cost, tol)
        if best is None:
            converged = True
            break
        m, c = best
        candidate = meds.copy()
        candidate[m] = cand[c]
        candidate.sort()
        # the candidate's assignment becomes the next pass's state, so this
        # pass's acceptance test and the next pass's cost are one sum; summed
        # apart they could differ by an ulp and lose strict monotonicity
        state = _assign(dist, candidate, ar)
        exact = state[1].sum()
        if not exact < cost:
            converged = True
            break
        cand[c] = meds[m]
        rows[c] = dist[meds[m]]
        member[pos, ar] = 0.0
        member[state[0], ar] = 1.0
        meds, (pos, d1, dm), cost = candidate, state, exact
        history.append(float(cost))
    return ClusterResult(meds, meds[pos], history, passes, converged)


def mss(dist: np.ndarray, medoids: np.ndarray) -> float:
    """Mean simplified silhouette of the nearest-medoid clustering under the
    (n, n) distance matrix `dist` by the rows `medoids`, listed in any order.

    For 2-D rows pass `pairwise_distances(rows)`. Raises ShapeMismatch
    unless `dist` is square and 2-D, NonFiniteValue if it holds NaN or Inf,
    and BadParams unless `medoids` are a 1-D integer array of k >= 2
    distinct rows in [0, n).
    """
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ShapeMismatch(f"mss needs a square 2-D distance matrix, got shape {dist.shape}")
    if not np.isfinite(dist).all():
        raise NonFiniteValue("distance matrix contains NaN or Inf")
    n = dist.shape[0]
    medoids = np.asarray(medoids)
    k = len(medoids) if medoids.ndim == 1 else 0
    # once the least row is >= 0, bincount counts a repeated row twice and
    # lengthens the counts for a row beyond the last
    if not (k >= 2 and medoids.dtype.kind in "iu" and np.can_cast(medoids.dtype, np.intp)
            and medoids.min() >= 0 and len(counts := np.bincount(medoids, minlength=n)) == n
            and counts.max() == 1):
        raise BadParams(f"mss needs a 1-D integer array of k >= 2 distinct rows in [0, {n})")
    # the (n, k) block as medoid rows (the sweep's matrix is symmetric by
    # construction), in index order whatever order `medoids` lists;
    # `dist[:, medoids]` sums b in another order, an ulp off at some k
    dist_to_meds = dist[np.sort(medoids)].T
    a = dist_to_meds.min(axis=1)
    # contiguous, so each row sums in the same order as a fresh block
    b = (np.ascontiguousarray(dist_to_meds).sum(axis=1) - a) / (k - 1)
    return float(np.mean(1.0 - a / np.maximum(b, B_FLOOR)))


def sweep_detailed(rows: np.ndarray, k_min: int = 2, k_max: int | None = None, stride: int = 1):
    """MSS over k in {k_min, k_min+stride, ...} up to k_max (default n_rows).

    The pairwise distance matrix and one BUILD run are shared by every k.
    Returns (curve, {k: ClusterResult}). Raises ShapeMismatch unless `rows`
    is 2-D, NonFiniteValue if it holds NaN or Inf or its distances overflow,
    and BadParams unless the bounds are integers (not bools) in range.
    """
    if rows.ndim != 2:
        raise ShapeMismatch(f"need 2-D rows, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise NonFiniteValue("rows contain NaN or Inf")
    n = rows.shape[0]
    if k_max is None:
        k_max = n
    if not (all(map(is_int, (k_min, k_max, stride))) and 2 <= k_min <= k_max <= n and stride >= 1):
        raise BadParams(f"need integers 2 <= k_min <= k_max <= {n} and stride >= 1, "
                        f"got [{k_min}, {k_max}] stride {stride}")
    with np.errstate(over="ignore"):
        dist = pairwise_distances(rows)
    if not np.isfinite(dist).all():
        raise NonFiniteValue("pairwise distances of the rows overflow float64")
    ks = range(k_min, k_max + 1, stride)
    order = _build(dist, ks[-1])
    tol = _swap_tolerance(dist)
    split = SPLIT_MIN_ROWS <= n < SPLIT_MAX_ROWS and len(ks) >= 2 and _usable_cpus() >= 2
    done = (_split_sweep if split else _sweep_ks)(dist, order, tol, ks)
    results = {k: done[k][0] for k in ks}
    return MssCurve({k: done[k][1] for k in ks}), results


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell (not Linux)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _sweep_ks(dist: np.ndarray, order: list[int], tol: float, ks) -> dict:
    """{k: (ClusterResult, MSS)} for each k in `ks`, from one shared BUILD order."""
    ar = np.arange(dist.shape[0])
    done = {}
    for k in ks:
        result = _swap(dist, order[:k], tol, ar)
        done[k] = result, mss(dist, result.medoid_indices)
    return done


def _split_sweep(dist: np.ndarray, order: list[int], tol: float, ks) -> dict:
    """`_sweep_ks` over `ks` with a forked child taking ks[1::2].

    The child pickles its results into a pipe and leaves only through
    os._exit. The parent runs ks[0::2], reads the pipe to its end and reaps
    the child; if its own share raises, it kills and reaps the child first.
    No child outlives the call. Without a pipe or a fork the whole range
    runs here; a child that exits non-zero or sends a short pickle has its
    share run here too.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return _sweep_ks(dist, order, tol, ks)
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _sweep_ks(dist, order, tol, ks)
    if pid == 0:
        status = 1
        try:
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_sweep_ks(dist, order, tol, ks[1::2]),
                                        pickle.HIGHEST_PROTOCOL))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        sent = None
        try:
            done = _sweep_ks(dist, order, tol, ks[0::2])
            sent = pipe.read()
        finally:
            if sent is None:  # this share raised: the child's results are not wanted
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    theirs = None
    if status == 0:
        try:
            theirs = pickle.loads(sent)
        except (EOFError, pickle.UnpicklingError):
            pass
    done.update(theirs if theirs is not None else _sweep_ks(dist, order, tol, ks[1::2]))
    return done
