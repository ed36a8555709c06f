"""Single-regime barrier solver: optimal barrier, value function,
derivatives, dominance comparisons and generator residuals.

The barrier equation pairs the piecewise-constant right derivative of the
payoff against the exponential sums of the scale functions, segment by
segment, so its root is exact up to roundoff.  The value function and its
derivatives are one-point calls of the closed-form kernel in value_grid.
The generator residual is an independent check of that closed form: it
integrates the jump part numerically, with a fixed Gauss-Legendre rule on
each kink-free segment, over values taken from one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ModelError, NumericsError
from .levy import LevySpec, require_valid
from .payoff import ConcavePayoff, evaluate, right_derivative
from .scale import (W, Z, ScaleEvaluator, _composite_rule,
                    build_scale_evaluator)
from .value_grid import _closed_form, value_on_grid


@dataclass(frozen=True)
class AuxProblem:
    """Single-regime dividend/injection problem with terminal payoff weight.

    The effective discount is q = delta + lam; lam = 0 recovers the classical
    bail-out problem (the payoff never enters).
    """

    spec: LevySpec
    lam: float          # payoff weight (killing rate), >= 0
    delta: float        # discount, > 0
    phi: float          # injection cost, > 1
    payoff: ConcavePayoff

    def __post_init__(self):
        require_valid(self.spec)
        if not self.delta > 0:
            raise ModelError("delta must be positive")
        if not self.lam >= 0:
            raise ModelError("lam must be nonnegative")
        if not self.phi > 1:
            raise ModelError("phi must exceed 1")
        if self.lam > 0 and right_derivative(self.payoff, 0.0) > self.phi + 1e-9:
            raise ModelError("payoff slope at 0+ exceeds phi")

    @property
    def q(self) -> float:
        return self.delta + self.lam

    def evaluator(self) -> ScaleEvaluator:
        return build_scale_evaluator(self.spec, self.q)


@dataclass(frozen=True)
class AuxSolution:
    problem: AuxProblem
    evaluator: ScaleEvaluator
    barrier: float


# ---------------------------------------------------------------------------
# segment-exact payoff integrals

def _segments(pw: ConcavePayoff, lo: float, hi: float):
    """Break [lo, hi] at the payoff knots; return (u, v, slope) arrays with
    slope the right derivative on each open segment."""
    if hi <= lo:
        return (np.empty(0),) * 3
    cuts = pw.xs[(pw.xs > lo) & (pw.xs < hi)]
    edges = np.concatenate(([lo], cuts, [hi]))
    u, v = edges[:-1], edges[1:]
    slope = right_derivative(pw, u)
    return u, v, np.atleast_1d(slope)


def payoff_W_integral(ev: ScaleEvaluator, pw: ConcavePayoff, x: float,
                      b: float) -> float:
    """int_0^b omega'_+(y) W_q(y - x) dy  (only y > x contributes)."""
    u, v, slope = _segments(pw, max(x, 0.0), b)
    if len(u) == 0:
        return 0.0
    return float(np.sum(slope * (Z(ev, v - x) - Z(ev, u - x))) / ev.q)


def ell(ev: ScaleEvaluator, pw: ConcavePayoff, lam: float, phi: float,
        x: float) -> float:
    """Barrier equation left side: Z_q(x) - lam*int_0^x omega'_+ W_q - phi.

    ell(0) = 1 - phi < 0 and ell(inf) = inf; its unique zero is the optimal
    barrier.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(Z(ev, x)) - phi - lam * payoff_W_integral(ev, pw, 0.0, x)


def ell_deriv(ev: ScaleEvaluator, pw: ConcavePayoff, lam: float,
              x: float) -> float:
    """ell'(x) = W_q(x) (q - lam * omega'_+(x))."""
    return float(W(ev, x)) * (ev.q - lam * right_derivative(pw, x))


def z_inverse(ev: ScaleEvaluator, phi: float, xtol: float) -> float:
    """Z_q^{-1}(phi) for phi > 1: bracket by doubling from 1, then Brent."""
    hi = 1.0
    while Z(ev, hi) < phi:
        hi *= 2.0
        if hi > ev.x_cap:
            raise NumericsError("no sign change within overflow horizon")
    return brentq(lambda x: Z(ev, x) - phi, 0.0, hi, xtol=xtol)


def barrier_root(problem: AuxProblem,
                 evaluator: ScaleEvaluator | None = None,
                 warm_start: float | None = None) -> AuxSolution:
    """Unique zero of ell: bracket expansion from Z_q^{-1}(phi) upward, Brent,
    then Newton polish to |ell| below 1e-12."""
    ev = evaluator if evaluator is not None else problem.evaluator()
    pw, lam, phi = problem.payoff, problem.lam, problem.phi

    f = lambda x: ell(ev, pw, lam, phi, x)
    # Z_q^{-1}(phi) is a proven lower bound for the barrier.
    lo = z_inverse(ev, phi, xtol=1e-14)
    hi = max(2.0 * lo, lo + 1.0)
    if warm_start is not None and warm_start > lo and f(warm_start) > 0:
        hi = warm_start
    while f(hi) <= 0:
        lo = hi
        hi *= 2.0
        if hi > ev.x_cap:
            raise NumericsError("no sign change within overflow horizon")
    if f(lo) > 0:
        lo = 0.0
    root = brentq(f, lo, hi, xtol=1e-14)
    for _ in range(5):
        val = f(root)
        if abs(val) < 1e-13:
            break
        d = ell_deriv(ev, pw, lam, root)
        if d <= 0:
            break
        root -= val / d
    if abs(f(root)) > 1e-10:
        raise NumericsError("barrier root did not converge")
    return AuxSolution(problem=problem, evaluator=ev, barrier=float(root))


# ---------------------------------------------------------------------------
# closed-form value function and derivatives (one-point calls of the kernel)

def value(problem: AuxProblem, b: float, x: float,
          evaluator: ScaleEvaluator | None = None) -> float:
    """Expected NPV of the (0, b) double-barrier strategy started at x.

    On [0, b] this is the scale-function closed form; above b the function is
    exactly linear with slope 1, below 0 linear with slope phi.
    """
    ev = evaluator if evaluator is not None else problem.evaluator()
    return float(_closed_form(problem, b, ev)([x])[0][0])


def value_derivative(problem: AuxProblem, b: float, x: float,
                     evaluator: ScaleEvaluator | None = None) -> float:
    """d/dx of the value on [0, b] (one-sided limits at the ends)."""
    if not 0.0 <= x <= b:
        raise ValueError("x must lie in [0, b]")
    ev = evaluator if evaluator is not None else problem.evaluator()
    return float(_closed_form(problem, b, ev)([x])[1][0])


def dominance_gap(problem: AuxProblem, b: float, grid,
                  evaluator: ScaleEvaluator | None = None,
                  solution: AuxSolution | None = None) -> np.ndarray:
    """g(x) = V at the optimal barrier minus V at barrier b, on the grid.

    Nonnegative and nondecreasing for every b != optimal barrier.
    """
    ev = evaluator if evaluator is not None else problem.evaluator()
    sol = solution if solution is not None else barrier_root(problem, ev)
    grid = np.asarray(grid, dtype=float)
    v_opt, _ = value_on_grid(problem, sol.barrier, grid, ev)
    v_b, _ = value_on_grid(problem, b, grid, ev)
    return v_opt - v_b


# ---------------------------------------------------------------------------
# generator residual

# 24-point Gauss-Legendre rule of the jump integral in hjb_residual, and the
# largest rate * width of one of its panels
_GL24 = np.polynomial.legendre.leggauss(24)
_GL_SPAN = 32.0


def hjb_residual(problem: AuxProblem, b: float, x: float,
                 evaluator: ScaleEvaluator | None = None) -> float:
    """(A - q) V + lam*omega at x > 0, x != b, where A is the extended
    generator of the surplus process.

    The jump integral int_0^inf (V(x+z) - V(x)) dF(z) splits at z = b - x,
    where V turns linear with slope 1: the tail beyond it is in closed form.
    On [0, b - x] the integral is cut at the shifted payoff knots, the only
    kinks of z -> V(x+z) there, and each kink-free segment gets the
    24-point Gauss-Legendre rule.  Between kinks the integrand is a sum of
    exponentials e^{a z} (some times a polynomial of degree one) with
    |a| <= max|s_j| + max mu_k over the roots s_j of psi = q and the jump
    rates mu_k.  On a panel with |a| * width <= 32 the rule's truncation
    error on such a term lies below the error of about 1e-14 relative that
    comes from rounding its nodes and weights, so a segment wider than that
    is cut into equal panels.  V(x), V(b), V'(x), V''(x) and V at every
    node come from one call of the closed-form kernel.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    ev = evaluator if evaluator is not None else problem.evaluator()
    spec, lam, q = problem.spec, problem.lam, problem.q
    t0 = b - x
    nodes = wts = np.empty(0)
    if spec.jump_rate > 0 and t0 > 0:
        # kinks of z -> V(x+z): payoff knots shifted by -x, and b - x
        knots = problem.payoff.xs - x
        edges = np.concatenate(([0.0], knots[(knots > 0) & (knots < t0)],
                                [t0]))
        rate = np.abs(ev.roots).max() + max(r for _, r in spec.jump_mix)
        panels = [np.linspace(u, v, 1 + math.ceil((v - u) * rate / _GL_SPAN))
                  [:-1] for u, v in zip(edges[:-1], edges[1:])]
        nodes, wts = _composite_rule(np.concatenate(panels + [edges[-1:]]),
                                     _GL24)
    v, vp, vpp = _closed_form(problem, b, ev)(
        np.concatenate(([x, b], x + nodes)))
    vx, vb, vp, vpp = v[0], v[1], vp[0], vpp[0]
    if x >= b:
        vp = 1.0        # the right derivative; V'' is 0 there already
    out = spec.drift_mu * vp + 0.5 * spec.sigma**2 * vpp
    if spec.jump_rate > 0 and t0 > 0:
        dens = sum(w * r * np.exp(-r * nodes) for w, r in spec.jump_mix)
        jumps = float(wts @ ((v[2:] - vx) * dens))
        # beyond t0, V(x+z) - V(x) = vb - vx + (z - t0): slope 1 above b
        for w, r in spec.jump_mix:
            jumps += w * np.exp(-r * t0) * (vb - vx + 1.0 / r)
        out += spec.jump_rate * jumps
    elif spec.jump_rate > 0:
        # every jump lands on the slope-1 branch above b
        out += spec.jump_rate * sum(w / r for w, r in spec.jump_mix)
    out += -q * vx + lam * evaluate(problem.payoff, x)
    return float(out)
