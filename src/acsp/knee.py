"""Automatic subset-size selection on a score curve.

The curve is smoothed with a least-squares polynomial, both axes are
min-max normalized to [0, 1], and the knee is the swept k maximizing the
difference between the normalized fitted curve and the normalized x axis.
A knee only counts when that maximum clears SENSITIVITY times the mean
x spacing; otherwise the result is "no knee" and callers keep everything.
The fit degree must be at least MIN_DEGREE: a fitted line, min-max
normalized, is the normalized x axis itself and never shows a knee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cluster import MssCurve
from .errors import BadParams, TooFewPoints
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
    curvature_at_knee: float | None = None

    def to_dict(self) -> dict:
        return {
            "k_prime": None if self.k_prime is None else int(self.k_prime),
            "degree": int(self.degree),
            "fitted_coeffs": [float(c) for c in self.fitted_coeffs],
            "difference_curve": [float(d) for d in self.difference_curve],
            "curvature_at_knee": self.curvature_at_knee,
        }


def _curvature(coeffs: np.ndarray, x: float) -> float:
    """Signed curvature of the fitted polynomial at x."""
    d1 = npoly.polyval(x, npoly.polyder(coeffs))
    d2 = npoly.polyval(x, npoly.polyder(coeffs, 2))
    return float(d2 / (1.0 + d1 * d1) ** 1.5)


def find_knee(curve: MssCurve, degree: int = 2) -> KneeResult:
    """Knee of an MSS curve via the normalized-difference rule.

    The fitted curve is expected to rise toward saturation; if it comes out
    decreasing overall it is flipped before normalization. Flat curves
    (raw score range below FLAT_EPS) never produce a knee: min-max scaling
    would only amplify noise.
    """
    check_degree(degree)
    ks = curve.ks().astype(np.float64)
    ys = curve.scores()
    if len(ks) < degree + 2:
        raise TooFewPoints(f"need at least {degree + 2} points for degree {degree}, got {len(ks)}")
    coeffs = npoly.polyfit(ks, ys, degree)
    if float(ys.max() - ys.min()) <= FLAT_EPS:
        return KneeResult(None, degree, coeffs, np.zeros(len(ks)))
    fit = npoly.polyval(ks, coeffs)
    if fit[-1] < fit[0]:
        fit = -fit
    y_range = fit.max() - fit.min()
    if y_range <= 0.0:
        return KneeResult(None, degree, coeffs, np.zeros(len(ks)))
    x_norm = (ks - ks[0]) / (ks[-1] - ks[0])
    y_norm = (fit - fit.min()) / y_range
    diff = y_norm - x_norm
    best = int(np.argmax(diff))
    threshold = SENSITIVITY / (len(ks) - 1)  # mean spacing of normalized x
    if diff[best] <= threshold:
        return KneeResult(None, degree, coeffs, diff)
    k_prime = int(round(ks[best]))
    return KneeResult(k_prime, degree, coeffs, diff, _curvature(coeffs, ks[best]))


def select_k(curve: MssCurve, n_components: int,
             degree: int = 2) -> tuple[int, KneeResult | None]:
    """The subset size to keep, and the knee result it came from.

    The knee if one clears the threshold, otherwise `n_components` (keep
    everything; with a stride the last swept k can fall short of it). A
    curve too short to fit also keeps everything and comes back with no
    knee result.
    """
    try:
        result = find_knee(curve, degree)
    except TooFewPoints:
        return n_components, None
    return (n_components if result.k_prime is None else result.k_prime), result
