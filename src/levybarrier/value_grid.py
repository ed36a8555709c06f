"""Vectorized evaluation of the single-regime value function on a grid.

The naive closed form costs O(knots) per point, which is quadratic when the
payoff has as many knots as the evaluation grid (the regime iteration case).
This module instead propagates the segment integrals

    K_j(x) = int_x^b omega'_+(y) exp(s_j (y - x)) dy

through a backward recursion over the merged breakpoints, making a full-grid
evaluation linear in the grid size.  All terms are nonnegative for a
nondecreasing payoff, so the recursion is forward stable.

Every per-segment quantity (the right derivative, the growth factor
exp(s_j h) and the segment increment) is computed as a whole array; only
the first-order recurrence itself is a loop, over Python floats, one root at
a time.  It keeps the point-by-point order of summation: a constant-
coefficient filter would not, because np.linspace spacing is not exactly
constant in floating point.
"""

from __future__ import annotations

import numpy as np

from .auxiliary import AuxProblem
from .levy import laplace_exponent_deriv
from .payoff import evaluate, right_derivative
from .scale import W, Z, Zbar, ScaleEvaluator


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
    live = (h > 0).tolist()[::-1]
    out = np.empty_like(e)
    for j in range(len(roots)):
        k = 0.0
        col = []
        for step, em, cm in zip(live, e[::-1, j].tolist(),
                                c[::-1, j].tolist()):
            if step:
                k = em * k + cm
            col.append(k)
        out[::-1, j] = col
    return out


def value_on_grid(problem: AuxProblem, b: float, xs: np.ndarray,
                  evaluator: ScaleEvaluator) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of the (0, b) strategy at every grid point.

    Points above b follow the exact linear branch (slope 1).
    """
    ev = evaluator
    pw, lam, phi, q = problem.payoff, problem.lam, problem.phi, problem.q
    xs = np.asarray(xs, dtype=float)
    psi_p0 = laplace_exponent_deriv(problem.spec, 0.0)

    inner = xs[xs <= b]
    knots = pw.xs[(pw.xs > 0) & (pw.xs < b)]
    pts = np.unique(np.concatenate((inner, knots, [0.0, b])))
    kmat = _k_on_points(pw, ev.roots, pts, b)
    # rows of kmat for the inner grid points
    idx = np.searchsorted(pts, inner)
    k_inner = kmat[idx]

    c = ev.residues
    d = q * c / ev.roots
    a0 = 1.0 - float(d.sum())
    i2 = float(c @ kmat[0])                 # int_0^b omega' W
    w_b = float(W(ev, b))
    z_b = float(Z(ev, b))
    bracket = z_b - phi - lam * i2

    om = evaluate(pw, inner)
    om0 = evaluate(pw, 0.0)
    omb = evaluate(pw, b)
    i1 = (om - om0) + a0 * (omb - om) + k_inner @ d
    h = k_inner @ c

    t = b - inner
    vals_in = (-Zbar(ev, t) - psi_p0 / q
               + (lam / q) * (om0 + i1)
               + Z(ev, t) * bracket / (q * w_b))
    derivs_in = (W(ev, t) / w_b * (phi + lam * i2 - z_b)
                 + Z(ev, t) - lam * h)

    vals = np.empty_like(xs)
    derivs = np.empty_like(xs)
    m = xs <= b
    vals[m] = vals_in
    derivs[m] = derivs_in
    if np.any(~m):
        vb = vals_in[-1] if inner[-1] == b else _value_at_b(
            problem, b, ev, kmat, pts, a0, d, c, i2, psi_p0)
        vals[~m] = (xs[~m] - b) + vb
        derivs[~m] = 1.0
    return vals, derivs


def _value_at_b(problem, b, ev, kmat, pts, a0, d, c, i2, psi_p0):
    pw, lam, phi, q = problem.payoff, problem.lam, problem.phi, problem.q
    om0 = evaluate(pw, 0.0)
    omb = evaluate(pw, b)
    # K at x = b is zero, so i1(b) = omega(b) - omega(0)
    i1_b = omb - om0
    bracket = float(Z(ev, b)) - phi - lam * i2
    return (-0.0 - psi_p0 / q + (lam / q) * (om0 + i1_b)
            + 1.0 * bracket / (q * float(W(ev, b))))
