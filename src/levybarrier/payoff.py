"""Piecewise-linear concave payoffs with right-derivative semantics.

The payoff is stored as ascending knots plus a tail slope, with its right
derivative omega'_+ at each knot.  Every solver integral pairs it against
exponential sums, so nothing smoother than piecewise-linear is ever needed.

The type enforces the concavity rule: no ConcavePayoff can be built that
breaks a law of _checked_slopes by more than _SAMPLE_TOL (ModelError).  Two
constructors stay, one per tolerance.  make_payoff, which config, the demos
and the README use, first checks a model's payoff at roundoff scale.
concavify takes sampled payoffs, such as the regime hat operator's
post-switch average of a concave value field: concave in exact arithmetic
and used as sampled, so a slope rise above _SAMPLE_TOL is a fault upstream,
raised as NumericsError; the benchmark harness times concavify by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NumericsError

# make_payoff accepts concavity violations up to this (roundoff in the input).
_ACCEPT_TOL = 1e-9
# no payoff, sampled ones included, has slopes rising by more than this.
_SAMPLE_TOL = 1e-6


@dataclass(frozen=True)
class ConcavePayoff:
    """Checked when built (ModelError), with read-only copies of its arrays
    and slopes, so no cache of them goes stale."""

    xs: np.ndarray          # ascending knot abscissae, xs[0] = 0
    vals: np.ndarray        # payoff values at knots
    slope_tail: float       # right derivative beyond the last knot
    # omega'_+ at each knot (segment slopes, then slope_tail), by the check
    slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("xs", "vals"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "slopes", _checked_slopes(
            self.xs, self.vals, self.slope_tail, _SAMPLE_TOL))
        self.slopes.flags.writeable = False

    def __call__(self, x):
        return evaluate(self, x)


def _checked_slopes(xs: np.ndarray, vals: np.ndarray, slope_tail: float,
                    tol: float) -> np.ndarray:
    """omega'_+ at each knot, or ModelError naming the first law broken:
    knots ascending from 0 (not NaN), one finite value per knot and a
    finite tail slope, finite slopes, slopes nonincreasing within tol, tail
    slope at most the last slope plus tol."""
    if xs.ndim != 1 or not len(xs) or xs[0] != 0.0 or \
            not (xs[1:] > xs[:-1]).all():
        raise ModelError("knots not ascending")
    if vals.shape != xs.shape or not (np.isfinite(vals).all()
                                      and np.isfinite(slope_tail)):
        raise ModelError("need one finite value per knot and a finite tail "
                         "slope")
    with np.errstate(over="ignore"):      # past float64's range: inf
        slopes = np.diff(vals) / np.diff(xs)
        if not np.isfinite(slopes).all():
            raise ModelError("slopes overflow float64")
        if np.any(np.diff(slopes) > tol):
            raise ModelError("not concave")
    last = slopes[-1] if len(slopes) else np.inf
    if slope_tail > last + tol:
        raise ModelError("bad tail slope")
    return np.append(slopes, slope_tail)


def make_payoff(knots, slope_tail: float) -> ConcavePayoff:
    """Validate knots and build a ConcavePayoff.

    Checks the knots at roundoff scale before the type's own check, so
    ModelError names the first law they break at that scale.
    """
    xs = np.asarray([k[0] for k in knots], dtype=float)
    vals = np.asarray([k[1] for k in knots], dtype=float)
    _checked_slopes(xs, vals, float(slope_tail), _ACCEPT_TOL)
    return ConcavePayoff(xs=xs, vals=vals, slope_tail=float(slope_tail))


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
    out = pw.slopes[np.searchsorted(pw.xs, x, side="right") - 1]
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
        with np.errstate(all="ignore"):     # the type's check names the fault
            slope_tail = ((vals[-1] - vals[-2]) / (xs[-1] - xs[-2])
                          if len(xs) > 1 else 0.0)
    try:
        return ConcavePayoff(xs=xs, vals=vals, slope_tail=float(slope_tail))
    except ModelError as e:
        raise NumericsError(f"sampled payoff: {e} (tolerance "
                            f"{_SAMPLE_TOL:.0e})") from None
