"""The closed-form value function of the single-regime (0, b) strategy.

On [0, b] the value is a closed form in the scale functions at b - x and in
the payoff integrals K_j(x) = int_x^b omega'_+(y) exp(s_j (y - x)) dy, one
per root s_j of psi(s) = q.  It is one table per barrier, which the problem
keeps, on the knots kappa_0 = 0 < ... < kappa_m = b (the payoff knots below
b, and b): K by _scan's recursive doubling, for all roots at once, V, V'
and V'' on the knots, and two coefficient rows.  On (kappa_{J-1}, kappa_J]
every term is affine in g = kappa_J - x and G_j = exp(s_j g), as exp(s_j
(b - x)) = exp(s_j (b - kappa_J)) G_j and K_j(x) = G_j K_j(kappa_J) +
omega'_J (G_j - 1) / s_j, omega'_J the slope left of kappa_J.  So V(x) =
V(kappa_J) + beta_J g + sum_j gamma_Jj (G_j - 1), and V', V'' add to their
rows at kappa_J (V'' from the left) that sum with gamma_Jj times -s_j, s_j^2:

    beta_J = -a0 - (lam/q) (1 - a0) omega'_J,
    gamma_Jj = d_j [exp(s_j (b - kappa_J)) (R - 1/s_j)
                    + (lam/q) (K_j(kappa_J) + omega'_J / s_j)],

d the Z_q coefficients, a0 = 1 - sum_j d_j, R = (Z_q(b) - phi - lam int_0^b
omega'_+ W_q) / (q W_q(b)).  A point call is a searchsorted, a gather and,
off the knots, one expm1 row; it evaluates no scale function.  K's terms are
nonnegative for a nondecreasing payoff, so any order of summation is stable.
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
    (xs, n_second=0) -> (V, V', V'') over any real xs, V'' at xs[:n_second].

    Building one checks b and makes tab (V, V', V'' on the knots), beta and
    gamma; a call adds to a point's next-knot row the expm1 row off the
    knots, and outside [0, b] takes the row of 0 or b and the linear branch.
    V' at 0 and b is one-sided; V'' is the closed form on [0, b), from the
    left where it jumps (at a payoff knot when lam > 0 and sigma = 0), and 0
    elsewhere.  A table entry not finite in float64 raises NumericsError.
    """

    def __init__(self, problem: AuxProblem, b: float, ev: ScaleEvaluator):
        if not 0 < b < np.inf:
            raise ModelError(f"barrier b must be positive and finite, got {b}")
        if b > ev.x_cap:    # before any exp, as in _scale_sums
            raise NumericsError("overflow horizon exceeded")
        pw, s, d = problem.payoff, ev.roots, ev.z_coeffs
        m = int(np.searchsorted(pw.xs, b))
        self.knots = kn = np.append(pw.xs[:m], b)
        slopes = pw.slopes[:m]
        # rows from b down, contiguous: the scan is slow on reversed views
        e = np.exp(np.outer(np.diff(kn, append=b)[::-1], s))
        c = np.append(slopes, 0.0)[::-1, None] * (e - 1.0) / s
        self.k = k = np.ascontiguousarray(_scan(e, c)[::-1])
        self.b, self.ev, self.phi = b, ev, problem.phi
        w = np.append(slopes[0], slopes)    # left of each knot; at 0, right
        om = np.append(pw.vals[:m], evaluate(pw, b))
        lam, q, t = problem.lam, problem.q, b - kn
        lq, a0 = lam / q, 1.0 - float(d.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            # V, V' on the knots term by term as the closed form reads, not
            # from gamma: a call on knots alone (a regime grid) returns it
            e = np.exp(np.outer(t, s))
            em1, i2 = e - 1.0, float(ev.residues @ k[0])
            w_t, z_t = e @ ev.residues, 1.0 + em1 @ d
            bracket = z_t[0] - problem.phi - lam * i2
            i1 = (om - om[0]) + a0 * (om[-1] - om) + k @ d
            v = (-t - (em1 / s - t[:, None]) @ d
                 - laplace_exponent_deriv(problem.spec, 0.0) / q
                 + lq * (om[0] + i1) + z_t * bracket / (q * w_t[0]))
            vp = (w_t / w_t[0] * (problem.phi + lam * i2 - z_t[0]) + z_t
                  - lam * (k @ ev.residues))
            self.beta = -a0 - lq * (1.0 - a0) * w
            self.gamma = e * (d * (bracket / (q * w_t[0]) - 1.0 / s))
            self.gamma += k * (lq * d) + np.outer(w, lq * d / s)
            self.powers = np.vander(-s, 3, increasing=True)     # 1, -s, s^2
            self.tab = np.column_stack((v, vp, self.gamma @ self.powers[:, 2]))
        if not np.isfinite(self.tab).all():
            raise NumericsError(f"closed form overflows float64 at b = "
                                f"{b:.6g}: Phi(q) b = {ev.phi_q * b:.0f}")

    def __call__(self, xs, n_second=0):
        xs = np.asarray(xs, dtype=float)
        b, kn = self.b, self.knots
        y = np.fmin(np.fmax(xs, 0.0), b)
        # on xs, not y: y's run of b past the barrier restarts each search
        j = np.minimum(np.searchsorted(kn, xs), len(kn) - 1)
        g = kn[j] - y
        out = self.tab.take(j, 0)
        off = np.flatnonzero(g)         # expm1 only off the knots
        jo, go = j[off], g[off]
        row = np.expm1(np.multiply.outer(go, self.ev.roots)) * self.gamma[jo]
        out[off] += row.dot(self.powers)
        out[off, 0] += self.beta[jo] * go
        dx = xs - y                     # nonzero below 0 and past b only
        slope = np.where(xs < 0, self.phi, 1.0)
        inside = dx == 0
        vpp = out[:n_second, 2]
        return (out[:, 0] + slope * dx, np.where(inside, out[:, 1], slope),
                np.where(inside[:n_second] & (y[:n_second] < b), vpp, 0.0))


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
