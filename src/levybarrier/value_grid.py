"""The closed-form value function of the single-regime (0, b) strategy.

The payoff enters only through the gain g = 1 - (lam/q) omega'_+, as in the
barrier equation.  With K_j(x) = int_x^b g(y) exp(s_j (y - x)) dy, one per
root s_j of psi(s) = q, and d the Z_q coefficients (sum_j d_j = 1 by the
partial fractions of 1/(psi - q) at 0, so Z_q = sum_j d_j exp(s_j x)),

    V(x) = (lam/q) omega(x) - psi'(0)/q - d.K(x) + R Z_q(b - x),
    V'(x) = 1 + (d s).K(x) - ell(b) W_q(b - x) / W_q(b)

on [0, b], with ell(b) = 1 - phi + (d s).K(0) and R = ell(b) / (q W_q(b)):
no sum subtracts two numbers of the size of Z_q(b).  It is one table per
barrier, which the problem keeps, on the knots kappa_0 = 0 < ... < kappa_m
= b (the payoff knots below b, and b): K by _scan's recursive doubling, for
all roots at once, V, V' and V'' on the knots, and two coefficient rows.
On (kappa_{J-1}, kappa_J] every term is affine in h = kappa_J - x and G_j =
exp(s_j h), as K_j(x) = G_j K_j(kappa_J) + g_J (G_j - 1) / s_j, g_J the gain
left of kappa_J.  So V(x) = V(kappa_J) + beta_J h + sum_j gamma_Jj (G_j -
1), and V', V'' add to their rows at kappa_J (V'' from the left) that sum
with gamma_Jj times -s_j, s_j^2:

    beta_J = -(lam/q) omega'_J,
    gamma_Jj = d_j [exp(s_j (b - kappa_J)) R - K_j(kappa_J) - g_J / s_j].

A point call is a searchsorted, a gather and, off the knots, one expm1 row;
it evaluates no scale function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelError, NumericsError
from .levy import laplace_exponent_deriv
from .payoff import evaluate
from .scale import ScaleEvaluator

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
    xs -> (V, V', V'') over any real xs.

    Building one checks b and makes tab (V, V', V'' on the knots), beta and
    gamma, all on the gain g = 1 - (lam/q) omega'_+; a call adds to a
    point's next-knot row the expm1 row off the knots, and outside [0, b]
    takes the row of 0 or b and the linear branch.  V' at 0 and b is
    one-sided; V'' is the closed form on [0, b), from the left where it
    jumps (at a payoff knot when lam > 0 and sigma = 0), and 0 elsewhere.
    A table entry not finite in float64 raises NumericsError.
    """

    def __init__(self, problem: AuxProblem, b: float, ev: ScaleEvaluator):
        if not 0 < b < np.inf:
            raise ModelError(f"barrier b must be positive and finite, got {b}")
        if b > ev.x_cap:    # before any exp, as in _scale_sums
            raise NumericsError("overflow horizon exceeded")
        pw, s, d = problem.payoff, ev.roots, ev.z_coeffs
        m = int(np.searchsorted(pw.xs, b))
        self.knots = kn = np.append(pw.xs[:m], b)
        lq, q, t = problem.lam / problem.q, problem.q, b - kn
        # -(lam/q) omega' and the gain left of each knot; at 0, right
        self.beta = -lq * np.append(pw.slopes[0], pw.slopes[:m])
        gain = 1.0 + self.beta
        # rows from b down, contiguous: the scan is slow on reversed views
        e = np.exp(np.outer(np.diff(kn, append=b)[::-1], s))
        c = np.append(gain[1:], 0.0)[::-1, None] * (e - 1.0) / s
        self.k = k = np.ascontiguousarray(_scan(e, c)[::-1])
        self.b, self.ev, self.phi = b, ev, problem.phi
        with np.errstate(over="ignore", invalid="ignore"):
            # V, V' on the knots term by term as the closed form reads, not
            # from gamma: a call on knots alone (a regime grid) returns it
            e = np.exp(np.outer(t, s))
            w_t, ds = e @ ev.residues, d * s
            bracket = 1.0 - problem.phi + float(k[0] @ ds)     # ell(b)
            r = bracket / (q * w_t[0])
            v = (lq * evaluate(pw, kn) - k @ d + r * (e @ d)
                 - laplace_exponent_deriv(problem.spec, 0.0) / q)
            vp = 1.0 + k @ ds - bracket * w_t / w_t[0]
            self.gamma = d * (e * r - k - gain[:, None] / s)
            self.powers = np.vander(-s, 3, increasing=True)     # 1, -s, s^2
            self.tab = np.column_stack((v, vp, self.gamma @ self.powers[:, 2]))
        if not np.isfinite(self.tab).all():
            raise NumericsError(f"closed form overflows float64 at b = "
                                f"{b:.6g}: Phi(q) b = {ev.phi_q * b:.0f}")

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        b, kn = self.b, self.knots
        y = np.fmin(np.fmax(xs, 0.0), b)
        # on xs, not y: y's run of b past the barrier restarts each search
        j = np.minimum(np.searchsorted(kn, xs), len(kn) - 1)
        h = kn[j] - y
        out = self.tab.take(j, 0)
        off = np.flatnonzero(h)         # expm1 only off the knots
        jo, ho = j[off], h[off]
        row = np.expm1(np.multiply.outer(ho, self.ev.roots)) * self.gamma[jo]
        out[off] += row.dot(self.powers)
        out[off, 0] += self.beta[jo] * ho
        dx = xs - y                     # nonzero below 0 and past b only
        slope = np.where(xs < 0, self.phi, 1.0)
        inside = dx == 0
        return (out[:, 0] + slope * dx, np.where(inside, out[:, 1], slope),
                np.where(inside & (y < b), out[:, 2], 0.0))


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
