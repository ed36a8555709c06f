"""The closed-form value function of the single-regime (0, b) strategy.

On [0, b] the value is a closed form in the scale functions W_q, Z_q and
Zbar_q and in the payoff integrals

    K_j(x) = int_x^b omega'_+(y) exp(s_j (y - x)) dy,

one per root s_j of psi(s) = q.  K is propagated through a backward
recursion over the merged evaluation points and payoff knots, so V, V' and
V'' at any set of points cost one pass, linear in points plus knots.  All
terms are nonnegative for a nondecreasing payoff, so the recursion is
forward stable.  Below 0 the value is linear with slope phi, above b with
slope 1.

Every per-segment quantity (the right derivative, the growth factor
exp(s_j h) and the segment increment) is computed as a whole array; only
the first-order recurrence itself is a loop, over Python floats, one root at
a time.  It keeps the point-by-point order of summation: a constant-
coefficient filter would not, because np.linspace spacing is not exactly
constant in floating point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .levy import laplace_exponent_deriv
from .payoff import evaluate, right_derivative
from .scale import W, W_deriv, Z, Zbar, ScaleEvaluator

if TYPE_CHECKING:
    from .auxiliary import AuxProblem


def _first_order(e, c) -> list[float]:
    """y_1, ..., y_M of the recurrence y_m = e_m y_{m-1} + c_m from y_0 = 0,
    over Python floats in index order."""
    y, out = 0.0, []
    for em, cm in zip(e.tolist(), c.tolist()):
        y = em * y + cm
        out.append(y)
    return out


def _k_on_points(payoff, roots: np.ndarray, pts: np.ndarray,
                 b: float) -> np.ndarray:
    """K_j at each of the ascending points pts (all <= b); shape
    (len(pts), len(roots)).

    Segment growth factors e and increments c are whole arrays; only the
    recurrence K(p_m) = e_m K(p_{m+1}) + c_m runs in Python, one root at a
    time over floats, so the order of summation is the scalar one.
    """
    h = np.append(pts[1:], b) - pts
    e = np.exp(np.outer(h, roots))
    c = right_derivative(payoff, pts)[:, None] * (e - 1.0) / roots
    out = np.empty_like(e)
    for j in range(len(roots)):
        out[::-1, j] = _first_order(e[::-1, j], c[::-1, j])
    return out


def _closed_form(problem: AuxProblem, b: float, ev: ScaleEvaluator):
    """The value of the (0, b) strategy as one vectorised function
    (xs, n_second=0) -> (V, V', V'') over any real xs, with V'' at
    xs[:n_second] only: its W_q' pass is paid only where a caller reads it.

    The (problem, b) constants are computed here, once; each call of the
    returned function makes one K pass over {0}, its points in [0, b], the
    payoff knots in (0, b) and {b}.  V' at 0 and b is the one-sided closed
    form; V'' is the closed form on [0, b) and 0 elsewhere.
    """
    pw, lam, phi, q = problem.payoff, problem.lam, problem.phi, problem.q
    c, d, cs = ev.residues, ev.z_coeffs, ev.w_prime_coeffs
    a0 = 1.0 - float(d.sum())
    psi_p0 = laplace_exponent_deriv(problem.spec, 0.0)
    w_b, z_b = float(W(ev, b)), float(Z(ev, b))
    om0, omb = evaluate(pw, 0.0), evaluate(pw, b)
    knots = pw.xs[(pw.xs > 0) & (pw.xs < b)]

    def at(xs, n_second=0):
        xs = np.asarray(xs, dtype=float)
        inside = (xs >= 0) & (xs <= b)
        # V(0) and V(b) anchor the linear branches
        ys = np.concatenate((xs[inside], [0.0, b]))
        pts = np.unique(np.concatenate((ys, knots)))
        kmat = _k_on_points(pw, ev.roots, pts, b)
        k_ys = kmat[np.searchsorted(pts, ys)]
        i2 = float(c @ kmat[0])                 # int_0^b omega' W
        bracket = z_b - phi - lam * i2

        om = evaluate(pw, ys)
        i1 = (om - om0) + a0 * (omb - om) + k_ys @ d   # int_0^b omega' Z(.-x)
        t = b - ys
        z_t, w_t = Z(ev, t), W(ev, t)
        v = (-Zbar(ev, t) - psi_p0 / q + (lam / q) * (om0 + i1)
             + z_t * bracket / (q * w_b))
        vp = w_t / w_b * (phi + lam * i2 - z_b) + z_t - lam * (k_ys @ c)
        vpp = np.zeros(min(n_second, len(xs)))
        if n_second:
            # the points of xs[:n_second] in [0, b] lead ys, in order
            head = np.flatnonzero(inside[:n_second])
            sub = np.flatnonzero(t[:len(head)] > 0)
            vpp[head[sub]] = (bracket * W_deriv(ev, t[sub]) / w_b
                              - q * w_t[sub] + lam * (k_ys[sub] @ cs))

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
