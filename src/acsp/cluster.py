"""k-medoids partitioning and the mean simplified silhouette (MSS).

The partitioner is PAM: a greedy BUILD phase followed by steepest-descent
SWAP passes. All tie-breaks go to the lowest index, so results are fully
deterministic and need no seed.

MSS scores a clustering in [-inf, 1]:

    a(i)   = distance from point i to its assigned medoid
    b(i)   = mean distance from i to the other k-1 medoids
    mss(i) = 1 - a(i) / max(b(i), 1e-12)
    MSS    = mean_i mss(i)

With k = n_points every point is its own medoid and MSS is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadK, BadRange

B_FLOOR = 1e-12
MAX_SWAP_PASSES = 100


@dataclass(eq=False)
class ClusterResult:
    k: int
    medoid_indices: np.ndarray  # sorted row indices
    assignment: np.ndarray      # per point, the row index of its medoid
    total_cost: float
    cost_history: list[float] = field(default_factory=list)  # BUILD cost, then one entry per accepted swap


@dataclass
class MssCurve:
    layer_id: int
    entries: dict[int, float]

    def ks(self) -> np.ndarray:
        return np.array(sorted(self.entries), dtype=np.int64)

    def scores(self) -> np.ndarray:
        return np.array([self.entries[k] for k in sorted(self.entries)])

    def to_csv(self, path: str) -> None:
        lines = ["k,mss"] + [f"{k},{self.entries[k]!r}" for k in sorted(self.entries)]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _rows(space) -> np.ndarray:
    values = getattr(space, "values", space)
    return np.asarray(values, dtype=np.float64)


def pairwise_distances(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row to each target; pass `rows, rows` for the full matrix."""
    diff = rows[:, None, :] - targets[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _assign(dist: np.ndarray, medoids: np.ndarray):
    """Nearest-medoid position per point; argmin takes the lowest index on ties."""
    dm = dist[:, medoids]
    pos = dm.argmin(axis=1)
    d1 = dm[np.arange(len(dist)), pos]
    return pos, d1, dm


def _pam(dist: np.ndarray, k: int):
    n = dist.shape[0]
    # BUILD: start from the most central point, then greedily add the
    # candidate with the largest cost reduction.
    totals = dist.sum(axis=1)
    medoids = [int(np.argmin(totals))]
    dmin = dist[medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(dmin[:, None] - dist, 0.0).sum(axis=0)
        gains[medoids] = -1.0
        best = int(np.argmax(gains))
        medoids.append(best)
        dmin = np.minimum(dmin, dist[best])
    medoids = sorted(medoids)
    history = [float(dmin.sum())]

    # SWAP: apply the single best strictly-improving (medoid, candidate)
    # exchange per pass; stop when none improves.
    for _ in range(MAX_SWAP_PASSES):
        if k == n:
            break
        meds = np.array(medoids)
        pos, d1, dm = _assign(dist, meds)
        dm2 = dm.copy()
        dm2[np.arange(n), pos] = np.inf
        d2 = dm2.min(axis=1)
        cost = d1.sum()
        best_cost = cost
        best_swap = None
        for mi in range(k):  # ascending medoid index, then ascending candidate
            base = np.where(pos == mi, d2, d1)
            new_costs = np.minimum(base[:, None], dist).sum(axis=0)
            new_costs[meds] = np.inf
            h = int(np.argmin(new_costs))
            if new_costs[h] < best_cost:
                best_cost = new_costs[h]
                best_swap = (mi, h)
        if best_swap is None:
            break
        candidate = medoids.copy()
        candidate[best_swap[0]] = best_swap[1]
        candidate.sort()
        # re-evaluate through _assign so this pass's acceptance test and the
        # next pass's starting cost sum in the same order; otherwise the
        # recorded history can wobble by an ulp and lose strict monotonicity
        _, d1_new, _ = _assign(dist, np.array(candidate))
        exact = float(d1_new.sum())
        if not exact < cost:
            break
        medoids = candidate
        history.append(exact)

    meds = np.array(medoids)
    pos, d1, _ = _assign(dist, meds)
    return meds, meds[pos], float(d1.sum()), history


def kmedoids(space, k: int) -> ClusterResult:
    """Partition the rows of `space` into k clusters around medoid rows.

    Accepts a SeparabilityMatrix or a plain [n, d] array.
    """
    rows = _rows(space)
    n = rows.shape[0]
    if not 2 <= k <= n:
        raise BadK(f"k must lie in [2, {n}], got {k}")
    dist = pairwise_distances(rows, rows)
    meds, assignment, cost, history = _pam(dist, k)
    return ClusterResult(k, meds, assignment, cost, history)


def mss(space, result: ClusterResult) -> float:
    """Mean simplified silhouette of a clustering over `space`."""
    rows = _rows(space)
    n = rows.shape[0]
    k = result.k
    if k < 2:
        raise BadK(f"mss needs k >= 2, got {k}")
    if len(result.assignment) != n:
        raise ValueError("clustering does not match the space")
    dist_to_meds = pairwise_distances(rows, rows[result.medoid_indices])
    med_pos = {int(m): i for i, m in enumerate(result.medoid_indices)}
    pos = np.array([med_pos[int(m)] for m in result.assignment])
    a = dist_to_meds[np.arange(n), pos]
    b = (dist_to_meds.sum(axis=1) - a) / (k - 1)
    return float(np.mean(1.0 - a / np.maximum(b, B_FLOOR)))


def sweep_detailed(space, k_min: int = 2, k_max: int | None = None, stride: int = 1):
    """MSS over k in {k_min, k_min+stride, ...} up to k_max (default n_rows).

    The pairwise distance matrix is computed once and shared by every k.
    Returns (curve, {k: ClusterResult}).
    """
    rows = _rows(space)
    n = rows.shape[0]
    if k_max is None:
        k_max = n
    if not (2 <= k_min <= k_max <= n) or stride < 1:
        raise BadRange(f"need 2 <= k_min <= k_max <= {n} and stride >= 1, "
                       f"got [{k_min}, {k_max}] stride {stride}")
    dist = pairwise_distances(rows, rows)
    results = {}
    entries = {}
    for k in range(k_min, k_max + 1, stride):
        meds, assignment, cost, history = _pam(dist, k)
        results[k] = ClusterResult(k, meds, assignment, cost, history)
        entries[k] = mss(space, results[k])
    return MssCurve(getattr(space, "layer_id", -1), entries), results
