"""Automatic subset-size selection on a score curve.

The curve is smoothed with a least-squares polynomial, both axes are
min-max normalized to [0, 1], and the knee is the swept k maximizing the
difference between the normalized fitted curve and the normalized x axis.
A knee only counts when that maximum clears SENSITIVITY times the mean
x spacing; otherwise the result is "no knee" and callers keep everything.
The fit degree must be at least MIN_DEGREE: a fitted line, min-max
normalized, is the normalized x axis itself and never shows a knee.
At the default degree 2, a concave fit that rises over the whole swept
range normalizes to x + c*x*(1 - x), so the difference c*x*(1 - x) peaks at
the middle of the swept k range whatever the data; the knee moves off it
only when the parabola's vertex falls inside the range.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cluster import MssCurve
from .errors import BadParams
from .tensio import is_int

SENSITIVITY = 1.0
FLAT_EPS = 1e-9  # curves with a smaller raw score range are treated as flat
MIN_DEGREE = 2


def check_degree(degree) -> None:
    """Raise BadParams unless `degree` is an integer (Python or numpy, not a
    bool) of at least MIN_DEGREE."""
    if not (is_int(degree) and degree >= MIN_DEGREE):
        raise BadParams(f"knee degree must be an integer >= {MIN_DEGREE}, got {degree!r}")


@dataclass(eq=False)
class KneeResult:
    """`k_prime` is None when no knee clears the threshold."""

    k_prime: int | None
    degree: int
    fitted_coeffs: np.ndarray     # ascending powers
    difference_curve: np.ndarray  # normalized fit minus normalized x, per swept k

    def to_dict(self) -> dict:
        """The fields by name, numpy numbers and arrays as Python ones."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def _column_norms_finite(ks: np.ndarray, degree: int) -> bool:
    """Whether every squared column norm of the degree-`degree` Vandermonde
    matrix of `ks` is finite."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.square(npoly.polyvander(ks, degree)).sum(axis=0)).all())


def find_knee(curve: MssCurve, degree: int = 2) -> KneeResult:
    """Knee of an MSS curve via the normalized-difference rule.

    The fitted curve is expected to rise toward saturation; if it comes out
    decreasing overall it is flipped before normalization. Flat curves
    (raw score range at most FLAT_EPS, or a fit with no range) never
    produce a knee: min-max scaling would only amplify noise. Nor does a
    curve that is not fitted, whose result has no coefficients: one under
    degree + 2 points, or one whose Vandermonde column norms, by which the
    least-squares fit scales its columns, overflow float64 (from degree 64
    on ks = 2..256).
    """
    check_degree(degree)
    ks = curve.ks().astype(np.float64)
    ys = curve.scores()
    if len(ks) < degree + 2 or not _column_norms_finite(ks, degree):
        return KneeResult(None, degree, np.zeros(0), np.zeros(len(ks)))
    # full=True: the same coefficients, and no RankWarning on a high degree
    coeffs = npoly.polyfit(ks, ys, degree, full=True)[0]
    fit = npoly.polyval(ks, coeffs)
    if fit[-1] < fit[0]:
        fit = -fit
    y_range = fit.max() - fit.min()
    if float(ys.max() - ys.min()) <= FLAT_EPS or y_range <= 0.0:
        return KneeResult(None, degree, coeffs, np.zeros(len(ks)))
    x_norm = (ks - ks[0]) / (ks[-1] - ks[0])
    y_norm = (fit - fit.min()) / y_range
    diff = y_norm - x_norm
    best = int(np.argmax(diff))
    threshold = SENSITIVITY / (len(ks) - 1)  # mean spacing of normalized x
    if diff[best] <= threshold:
        return KneeResult(None, degree, coeffs, diff)
    return KneeResult(int(round(ks[best])), degree, coeffs, diff)


def select_k(curve: MssCurve, n_components: int, degree: int = 2) -> tuple[int, KneeResult]:
    """The subset size to keep, and the knee result it came from.

    The knee if one clears the threshold, otherwise `n_components` (keep
    everything; with a stride the last swept k can fall short of it).
    """
    result = find_knee(curve, degree)
    return (n_components if result.k_prime is None else result.k_prime), result
