"""The closed-form value function of the single-regime (0, b) strategy.

On [0, b] the value is a closed form in the scale functions W_q, Z_q and
Zbar_q and in the payoff integrals

    K_j(x) = int_x^b omega'_+(y) exp(s_j (y - x)) dy,

one per root s_j of psi(s) = q.  K obeys a backward first-order recurrence
over the merged evaluation points and payoff knots, which _scan solves for
all roots at once by recursive doubling; its terms are nonnegative for a
nondecreasing payoff, so any order of summation is stable.  W_q, Z_q,
Zbar_q and W_q' at b - x come from one direct exp table (scale._scale_sums),
not from the scan's products, which are less accurate.  Below 0 the value
is linear with slope phi, above b with slope 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericsError
from .levy import laplace_exponent_deriv
from .payoff import evaluate, right_derivative
from .scale import ScaleEvaluator, _scale_sums

if TYPE_CHECKING:
    from .auxiliary import AuxProblem


def _scan(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y_m <- a_m y_{m-1} + y_m along axis 0 from y_{-1} = 0, in place, by
    recursive doubling (Kogge & Stone 1973): after the pass with stride d,
    y_m sums the last 2d rows' terms and a_m (also overwritten) is, for
    m >= 2d, the product of their factors; log2(len(y)) passes suffice."""
    d = 1
    while d < len(y):
        y[d:] += a[d:] * y[:-d]
        a[2 * d:] *= a[d:-d]
        d *= 2
    return y


def _k_on_points(payoff, roots: np.ndarray, pts: np.ndarray,
                 b: float) -> np.ndarray:
    """K_j at each of the ascending points pts (all <= b), shape
    (len(pts), len(roots)): the recurrence K(p_m) = e_m K(p_{m+1}) + c_m
    with e_m = exp(s_j h_m), scanned backward for all roots at once."""
    # rows from b down, contiguous: the scan is slow on reversed views
    h = (np.append(pts[1:], b) - pts)[::-1]
    e = np.exp(np.outer(h, roots))
    c = right_derivative(payoff, pts)[::-1, None] * (e - 1.0) / roots
    return _scan(e, c)[::-1]


def _closed_form(problem: AuxProblem, b: float, ev: ScaleEvaluator):
    """The value of the (0, b) strategy as one vectorised function
    (xs, n_second=0) -> (V, V', V'') over any real xs, V'' at xs[:n_second].

    The (problem, b) constants are computed here, once; each call makes one
    K scan over {0}, its points in [0, b], the payoff knots in (0, b) and
    {b}, and one scale table at b - y for y in {0} and those points.  V' at
    0 and b is the one-sided closed form; V'' is the closed form on [0, b)
    and 0 elsewhere.  A float64 overflow raises NumericsError.
    """
    pw, lam, phi, q = problem.payoff, problem.lam, problem.phi, problem.q
    c, d, cs = ev.residues, ev.z_coeffs, ev.w_prime_coeffs
    a0 = 1.0 - float(d.sum())
    psi_p0 = laplace_exponent_deriv(problem.spec, 0.0)
    om0, omb = evaluate(pw, 0.0), evaluate(pw, b)
    knots = pw.xs[(pw.xs > 0) & (pw.xs < b)]

    def at(xs, n_second=0):
        xs = np.asarray(xs, dtype=float)
        inside = (xs >= 0) & (xs <= b)
        # V(0) and V(b) anchor the linear branches; t = b at y = 0
        ys = np.concatenate((xs[inside], [0.0, b]))
        # the points of xs[:n_second] in [0, b] lead ys, in order
        head = np.flatnonzero(inside[:n_second])
        t = b - ys
        # first, so that its overflow guard runs before the K scan
        w_t, z_t, zbar_t, wd_t = _scale_sums(ev, t, len(head))
        w_b, z_b = w_t[-2], z_t[-2]
        pts = np.unique(np.concatenate((ys, knots)))
        kmat = _k_on_points(pw, ev.roots, pts, b)
        k_ys = kmat[np.searchsorted(pts, ys)]
        i2 = float(c @ kmat[0])                 # int_0^b omega' W
        bracket = z_b - phi - lam * i2
        om = evaluate(pw, ys)
        i1 = (om - om0) + a0 * (omb - om) + k_ys @ d   # int_0^b omega' Z(.-x)
        vpp = np.zeros(min(n_second, len(xs)))
        sub = np.flatnonzero(t[:len(head)] > 0)
        try:
            # at the optimal barrier bracket is the rounding of Z_q(b), and
            # Z_q(b - x) times it overflows once Phi(q) b is large
            with np.errstate(over="raise"):
                v = (-zbar_t - psi_p0 / q + (lam / q) * (om0 + i1)
                     + z_t * bracket / (q * w_b))
                vp = (w_t / w_b * (phi + lam * i2 - z_b) + z_t
                      - lam * (k_ys @ c))
                vpp[head[sub]] = (bracket * wd_t[sub] / w_b - q * w_t[sub]
                                  + lam * (k_ys[sub] @ cs))
        except FloatingPointError:
            raise NumericsError(f"closed form overflows float64 at b = "
                                f"{b:.6g}: Phi(q) b = {ev.phi_q * b:.0f}"
                                ) from None

        below = xs < 0
        out = (np.where(below, phi * xs + v[-2], (xs - b) + v[-1]),
               np.where(below, phi, 1.0))
        for o, y in zip(out, (v, vp)):
            o[inside] = y[:-2]
        return out + (vpp,)

    return at


def value_on_grid(problem: AuxProblem, b: float, xs: np.ndarray,
                  evaluator: ScaleEvaluator) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of the (0, b) strategy at every grid point.

    Points outside [0, b] follow the exact linear branches (slope phi below
    0, slope 1 above b).
    """
    vals, derivs, _ = _closed_form(problem, b, evaluator)(xs)
    return vals, derivs
