"""Piecewise-linear concave payoffs with right-derivative semantics.

The payoff is stored as ascending knots plus a tail slope.  All solver
integrals pair piecewise-constant right derivatives against exponential sums,
so nothing smoother than piecewise-linear is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError

# Violations above this signal a bug upstream, not roundoff.
_WARN_TOL = 1e-6
# make_payoff accepts concavity violations up to this (absorbed, not rejected).
_ACCEPT_TOL = 1e-9


@dataclass(frozen=True)
class ConcavePayoff:
    xs: np.ndarray          # ascending knot abscissae, xs[0] = 0
    vals: np.ndarray        # payoff values at knots
    slope_tail: float       # right derivative beyond the last knot
    warning: str | None = None

    @cached_property
    def slopes(self) -> np.ndarray:
        """Interior segment slopes (len(xs) - 1 entries), computed once and
        shared read-only by every caller."""
        out = np.diff(self.vals) / np.diff(self.xs)
        out.flags.writeable = False
        return out

    def __call__(self, x):
        return evaluate(self, x)


def make_payoff(knots, slope_tail: float) -> ConcavePayoff:
    """Validate knots and build a ConcavePayoff.

    Rejects non-ascending knots and concavity violations above roundoff scale.
    """
    xs = np.asarray([k[0] for k in knots], dtype=float)
    vals = np.asarray([k[1] for k in knots], dtype=float)
    if xs[0] != 0.0:
        raise ModelError("knots not ascending")  # must start at 0
    if np.any(np.diff(xs) <= 0):
        raise ModelError("knots not ascending")
    slopes = np.diff(vals) / np.diff(xs)
    if len(slopes) and np.any(np.diff(slopes) > _ACCEPT_TOL):
        raise ModelError("not concave")
    last = slopes[-1] if len(slopes) else np.inf
    if slope_tail > last + _ACCEPT_TOL:
        raise ModelError("bad tail slope")
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
    if len(pw.xs) == 1:
        out = np.full_like(x, pw.slope_tail)
        return float(out) if out.ndim == 0 else out
    idx = np.searchsorted(pw.xs, x, side="right") - 1
    idx = np.clip(idx, 0, len(pw.xs) - 2)
    slopes = pw.slopes
    out = np.where(x >= pw.xs[-1], pw.slope_tail, slopes[idx])
    return float(out) if out.ndim == 0 else out


def concavify(samples, slope_tail: float | None = None) -> ConcavePayoff:
    """Project sampled values onto the concave cone by pooling adjacent
    slope violators (PAV on slopes, weighted by segment widths).

    samples is an (n, 2) array of (x, value) rows or a sequence of pairs.
    Idempotent on concave input; the sup-norm distance to the input is
    bounded by the largest pooled violation.  A warning diagnostic is
    attached when the violation exceeds roundoff scale.
    """
    xs, vals = np.asarray(samples, dtype=float).reshape(-1, 2).T.copy()
    if np.any(np.diff(xs) <= 0):
        raise ModelError("knots not ascending")
    widths = np.diff(xs)
    slopes = np.diff(vals) / widths

    max_violation = float(np.max(np.diff(slopes), initial=0.0))
    # Violations at roundoff scale are left alone; this makes the projection
    # exactly idempotent (a second pass sees only its own cumsum roundoff).
    ulp_tol = 1e-13 * max(1.0, float(np.max(np.abs(slopes), initial=0.0)))
    if max_violation <= ulp_tol:
        if slope_tail is None:
            slope_tail = float(slopes[-1]) if len(slopes) else 0.0
        return ConcavePayoff(xs=xs, vals=vals, slope_tail=float(slope_tail))
    # Pool-adjacent-violators for a nonincreasing slope sequence.
    # Each block: [weighted slope sum, weight, segment count].
    pooled: list[list[float]] = []
    for s, w in zip(slopes.tolist(), widths.tolist()):
        pooled.append([s * w, w, 1])
        while len(pooled) > 1 and pooled[-1][0] / pooled[-1][1] > pooled[-2][0] / pooled[-2][1]:
            b = pooled.pop()
            pooled[-1][0] += b[0]
            pooled[-1][1] += b[1]
            pooled[-1][2] += b[2]
    sums, weights, counts = zip(*pooled)
    new_slopes = np.repeat(np.divide(sums, weights), counts)
    new_vals = np.concatenate(([vals[0]], vals[0] + np.cumsum(new_slopes * widths)))

    if slope_tail is None:
        slope_tail = float(new_slopes[-1]) if len(new_slopes) else 0.0
    warning = None
    if max_violation > _WARN_TOL:
        warning = f"concavity violation {max_violation:.3e} exceeds {_WARN_TOL:.0e}"
    return ConcavePayoff(xs=xs, vals=new_vals, slope_tail=float(slope_tail),
                         warning=warning)
