"""Piecewise-linear concave payoffs with right-derivative semantics.

The payoff is stored as ascending knots plus a tail slope.  All solver
integrals pair piecewise-constant right derivatives against exponential sums,
so nothing smoother than piecewise-linear is ever needed.

Every payoff passes one concavity rule, _payoff_error: knots ascending from
0, segment slopes nonincreasing and a tail slope no steeper than the last
segment, each within a tolerance.  Payoffs read from a model (make_payoff)
get a tolerance at roundoff scale.  Sampled payoffs (concavify), such as the
regime hat operator's post-switch average of a concave value field, are
concave in exact arithmetic and are used as sampled; a slope rise above
_SAMPLE_TOL there is a fault upstream, not roundoff, and is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, NumericsError

# make_payoff accepts concavity violations up to this (roundoff in the input).
_ACCEPT_TOL = 1e-9
# concavify rejects sampled payoffs whose slopes rise by more than this.
_SAMPLE_TOL = 1e-6


@dataclass(frozen=True)
class ConcavePayoff:
    xs: np.ndarray          # ascending knot abscissae, xs[0] = 0
    vals: np.ndarray        # payoff values at knots
    slope_tail: float       # right derivative beyond the last knot

    def __post_init__(self):    # read-only: no cache of them goes stale
        for name in ("xs", "vals"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def slopes(self) -> np.ndarray:
        """Interior segment slopes (len(xs) - 1 entries), computed once and
        shared read-only by every caller."""
        out = np.diff(self.vals) / np.diff(self.xs)
        out.flags.writeable = False
        return out

    def __call__(self, x):
        return evaluate(self, x)


def _payoff_error(pw: ConcavePayoff, tol: float) -> str | None:
    """The first violated law of a concave payoff: knots ascending from 0,
    slopes nonincreasing within tol, tail slope at most the last slope plus
    tol.  None when pw is concave within tol."""
    if not len(pw.xs) or pw.xs[0] != 0.0 or np.any(np.diff(pw.xs) <= 0):
        return "knots not ascending"
    slopes = pw.slopes
    if np.any(np.diff(slopes) > tol):
        return "not concave"
    last = slopes[-1] if len(slopes) else np.inf
    if pw.slope_tail > last + tol:
        return "bad tail slope"
    return None


def make_payoff(knots, slope_tail: float) -> ConcavePayoff:
    """Validate knots and build a ConcavePayoff.

    Rejects non-ascending knots and concavity violations above roundoff
    scale with ModelError.
    """
    pw = ConcavePayoff(xs=np.asarray([k[0] for k in knots], dtype=float),
                       vals=np.asarray([k[1] for k in knots], dtype=float),
                       slope_tail=float(slope_tail))
    diag = _payoff_error(pw, _ACCEPT_TOL)
    if diag is not None:
        raise ModelError(diag)
    return pw


def evaluate(pw: ConcavePayoff, x):
    """omega(x) for x >= 0: linear interpolation, tail extension beyond."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    core = np.interp(x, pw.xs, pw.vals)
    tail = pw.vals[-1] + pw.slope_tail * (x - pw.xs[-1])
    out = np.where(x > pw.xs[-1], tail, core)
    return float(out) if out.ndim == 0 else out


def right_derivative(pw: ConcavePayoff, x):
    """omega'_+(x): at a knot, the slope of the segment to its right."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    slopes = np.append(pw.slopes, pw.slope_tail)
    out = slopes[np.searchsorted(pw.xs, x, side="right") - 1]
    return float(out) if out.ndim == 0 else out


def concavify(samples, slope_tail: float | None = None) -> ConcavePayoff:
    """The sampled values as a ConcavePayoff, unchanged.

    samples is an (n, 2) array of (x, value) rows or a sequence of pairs;
    slope_tail defaults to the last segment's slope.  The samples must pass
    the concavity rule within _SAMPLE_TOL, the bound above which a slope
    rise is no longer roundoff; otherwise NumericsError names the violation.
    Nothing is projected: a concave input within that bound is used as is.
    """
    xs, vals = np.asarray(samples, dtype=float).reshape(-1, 2).T
    if slope_tail is None:
        slope_tail = ((vals[-1] - vals[-2]) / (xs[-1] - xs[-2])
                      if len(xs) > 1 else 0.0)
    pw = ConcavePayoff(xs=xs, vals=vals, slope_tail=float(slope_tail))
    diag = _payoff_error(pw, _SAMPLE_TOL)
    if diag is not None:
        raise NumericsError(f"sampled payoff: {diag} (tolerance "
                            f"{_SAMPLE_TOL:.0e})")
    return pw
