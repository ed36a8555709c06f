"""The closed-form value function of the single-regime (0, b) strategy.

On [0, b] the value is a closed form in the scale functions and in the
payoff integrals K_j(x) = int_x^b omega'_+(y) exp(s_j (y - x)) dy, one per
root s_j of psi(s) = q.  It is one table per barrier, which the problem
keeps: K (by _scan's recursive doubling, for all roots at once) and omega
at the payoff knots below b and at b, and the (problem, b) constants.  A
point x takes one step from its next knot p >= x, of length 0 on a knot:
K(x) = e^{s (p - x)} K(p) + omega'_+ (e^{s (p - x)} - 1) / s.  All terms are
nonnegative for a nondecreasing payoff, so any order of summation is stable.
W_q, Z_q, Zbar_q and W_q' at b - x come from one exp table per call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelError, NumericsError
from .levy import laplace_exponent_deriv
from .payoff import evaluate
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


class _ClosedForm:
    """The value of the (0, b) strategy as one vectorised function
    (xs, n_second=0) -> (V, V', V'') over any real xs, V'' at xs[:n_second].

    Building one checks b and makes the table; each call steps its points
    in [0, b], 0 and b and makes one scale table at b minus them.  V' at 0
    and b is the one-sided closed form; V'' is the closed form on [0, b)
    and 0 elsewhere.  A float64 overflow raises NumericsError.
    """

    def __init__(self, problem: AuxProblem, b: float, ev: ScaleEvaluator):
        if not 0 < b < np.inf:
            raise ModelError(f"barrier b must be positive and finite, got {b}")
        if b > ev.x_cap:    # before any exp, as in _scale_sums
            raise NumericsError("overflow horizon exceeded")
        pw, roots = problem.payoff, ev.roots
        m = int(np.searchsorted(pw.xs, b))
        self.knots = np.append(pw.xs[:m], b)
        self.slopes = pw.slopes[:m]
        self.om = np.append(pw.vals[:m], evaluate(pw, b))
        # rows from b down, contiguous: the scan is slow on reversed views
        e = np.exp(np.outer(np.diff(self.knots, append=b)[::-1], roots))
        c = np.append(self.slopes, 0.0)[::-1, None] * (e - 1.0) / roots
        self.k = _scan(e, c)[::-1]
        self.b, self.ev, self.lam, self.phi, self.q = (
            b, ev, problem.lam, problem.phi, problem.q)
        self.a0 = 1.0 - float(ev.z_coeffs.sum())
        self.psi_p0 = laplace_exponent_deriv(problem.spec, 0.0)
        self.i2 = float(ev.residues @ self.k[0])     # int_0^b omega' W

    def step(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K and omega at the points ys in [0, b], from their next knots."""
        j = np.searchsorted(self.knots, ys)
        k, om, gap = self.k[j], self.om[j], self.knots[j] - ys
        pos = np.flatnonzero(gap > 0)     # exp only off the knots
        g, s = gap[pos], self.slopes[j[pos] - 1]
        e = np.exp(np.outer(g, self.ev.roots))
        k[pos] = e * k[pos] + s[:, None] * (e - 1.0) / self.ev.roots
        om[pos] -= s * g
        return k, om

    def __call__(self, xs, n_second=0):
        b, ev, lam, phi, q = self.b, self.ev, self.lam, self.phi, self.q
        xs = np.asarray(xs, dtype=float)
        inside = (xs >= 0) & (xs <= b)
        # V(0) and V(b) anchor the linear branches; t = b at y = 0
        ys = np.concatenate((xs[inside], [0.0, b]))
        # the points of xs[:n_second] in [0, b] lead ys, in order
        head = np.flatnonzero(inside[:n_second])
        t = b - ys
        w_t, z_t, zbar_t, wd_t = _scale_sums(ev, t, len(head))
        w_b, z_b = w_t[-2], z_t[-2]
        k_ys, om = self.step(ys)
        om0, bracket = self.om[0], z_b - phi - lam * self.i2
        i1 = (om - om0) + self.a0 * (self.om[-1] - om) + k_ys @ ev.z_coeffs
        vpp = np.zeros(min(n_second, len(xs)))
        sub = np.flatnonzero(t[:len(head)] > 0)
        try:
            # at the optimal barrier bracket is the rounding of Z_q(b), and
            # Z_q(b - x) times it overflows once Phi(q) b is large
            with np.errstate(over="raise"):
                v = (-zbar_t - self.psi_p0 / q + (lam / q) * (om0 + i1)
                     + z_t * bracket / (q * w_b))
                vp = (w_t / w_b * (phi + lam * self.i2 - z_b) + z_t
                      - lam * (k_ys @ ev.residues))
                vpp[head[sub]] = (bracket * wd_t[sub] / w_b - q * w_t[sub]
                                  + lam * (k_ys[sub] @ ev.w_prime_coeffs))
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


def _closed_form(problem: AuxProblem, b: float, ev: ScaleEvaluator):
    """The problem's closed form at (b, ev).  It keeps the last one it built
    in its instance dict, as cached_property does on a frozen class."""
    last = vars(problem).get("_closed_form")
    if last is None or last.b != b or last.ev is not ev:
        last = vars(problem)["_closed_form"] = _ClosedForm(problem, b, ev)
    return last


def value_on_grid(problem: AuxProblem, b: float, xs: np.ndarray,
                  evaluator: ScaleEvaluator) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of the (0, b) strategy at every grid point.

    Points outside [0, b] follow the exact linear branches (slope phi below
    0, slope 1 above b).
    """
    vals, derivs, _ = _closed_form(problem, b, evaluator)(xs)
    return vals, derivs
