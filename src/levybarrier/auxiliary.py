"""Single-regime barrier solver: optimal barrier, value function,
derivatives, dominance comparisons and generator residuals.

The optimal barrier is the zero of ell(x) = Z_q(x) - lam int_0^x omega'_+ W_q
- phi.  The payoff's right derivative is constant between knots, so on each
knot segment ell is an exponential sum in closed form: one array call of Z
tabulates it at every knot below the overflow horizon.  On the segment where
it turns positive ell is increasing and convex, so Newton from the right end
of a piece at most 1/Phi(q) wide reaches the root with no bracket.
Z_q^{-1}(phi) is the lam = 0 case of the same solve.  The value function,
its derivatives and the generator residual are point calls of value_grid's
closed form, which builds one table per barrier that all of them share and
takes one step per point.  The residual is an independent check of it: it
integrates the jump part with a fixed Gauss-Legendre rule on each kink-free
segment, over values from one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericsError
from .levy import LevySpec
from .payoff import ConcavePayoff, evaluate, make_payoff
from .scale import Z, ScaleEvaluator, _composite_rule, build_scale_evaluator
from .value_grid import _ClosedForm, _closed_form, value_on_grid


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
    payoff: ConcavePayoff | None    # None, at lam = 0 only: the zero payoff

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ModelError("delta must be positive and finite")
        if not 0 <= self.lam < math.inf:
            raise ModelError("lam must be nonnegative and finite")
        if not self.lam / self.q < 1:       # q = delta + lam
            raise ModelError("delta vanishes next to lam in float64")
        if not 1 < self.phi < math.inf:
            raise ModelError("phi must exceed 1 and be finite")
        if self.payoff is None and self.lam == 0:       # the zero payoff
            object.__setattr__(self, "payoff", make_payoff([(0, 0)], 0))
        if not isinstance(self.payoff, ConcavePayoff):
            raise ModelError("lam > 0 needs a payoff" if self.payoff is None
                             else "payoff must be a ConcavePayoff")
        if self.lam > 0 and self.payoff.slopes[0] > self.phi + 1e-9:
            raise ModelError("payoff slope at 0+ exceeds phi")

    @property
    def q(self) -> float:
        return self.delta + self.lam

    def evaluator(self) -> ScaleEvaluator:
        """The scale evaluator at q, built once and kept in vars(self)."""
        if "_evaluator" not in vars(self):
            vars(self)["_evaluator"] = build_scale_evaluator(self.spec, self.q)
        return vars(self)["_evaluator"]


@dataclass(frozen=True)
class AuxSolution:
    problem: AuxProblem
    evaluator: ScaleEvaluator
    barrier: float


# ---------------------------------------------------------------------------
# the barrier equation, segment by segment

def _first_zero(ev: ScaleEvaluator, phi: float, lam: float, xs: np.ndarray,
                slopes: np.ndarray) -> float:
    """Zero of ell(x) = Z_q(x) - phi - (lam/q) int_0^x omega'_+ dZ_q, with
    omega'_+ = slopes[m] on [xs[m], xs[m+1]) and slopes[-1] beyond xs[-1].

    One array call of Z tabulates ell at the knots below x_cap and at x_cap,
    with the prefix sums S_k = sum_{m<k} s_m (Z(x_{m+1}) - Z(x_m)) from one
    cumsum.  The evaluator keeps its last knot table with those Z values,
    and a call on an equal table reuses them: every step of a regime solve
    asks for the same table, its grid, of the same evaluator.  On the
    segment [x_m, x_{m+1}] that ends at the first positive entry, ell is
    Z - phi - lam (S_m + s_m (Z - Z(x_m))) / q, increasing and convex.  If it is wider than 1/Phi(q), a second array call of Z cuts it
    into pieces at most that wide.  Newton runs from the right end of the
    first piece where ell > 0: on a convex increasing function it falls
    monotonically to the root, so it needs no bracket.  It runs in Python
    floats, one exp per root of psi = q giving both Z and W, and stops once
    a step no longer lowers the iterate by more than a few ulps.
    """
    q = ev.q
    t = np.append(xs[xs < ev.x_cap], ev.x_cap)
    s = slopes[:len(t) - 1]
    # held in the instance dict, as cached_property does on a frozen class
    last = vars(ev).get("_z_table")
    if last is not None and np.array_equal(last[0], t):
        zt = last[1]
    else:
        zt = Z(ev, t)
        zt.flags.writeable = False
        vars(ev)["_z_table"] = (t, zt)
    acc = np.concatenate(([0.0], np.cumsum(s * np.diff(zt))))
    above = np.flatnonzero(zt - phi - lam * acc / q > 0)
    if len(above) == 0:
        raise NumericsError("no sign change within overflow horizon")
    m = above[0] - 1
    lo, hi = t[m], t[m + 1]
    sm, zm, am = float(s[m]), float(zt[m]), float(acc[m])
    n = int(ev.phi_q * (hi - lo))
    if n:
        # the table has ell(hi) > 0; should the segment form round it
        # to <= 0, the last piece stands in
        grid = np.linspace(lo, hi, n + 2)[1:]
        zg = Z(ev, grid)
        pos = zg - phi - lam * (am + sm * (zg - zm)) / q > 0
        pos[-1] = True
        hi = grid[pos.argmax()]
    terms = list(zip(ev.roots.tolist(), ev.z_coeffs.tolist(),
                     ev.residues.tolist()))
    gain = q - lam * sm     # ell' = W_q gain on the segment
    x = float(hi)
    for _ in range(100):
        z, w = 1.0, 0.0
        for r, zc, c in terms:
            e = math.exp(r * x)
            z += zc * (e - 1.0)
            w += c * e
        val = z - phi - lam * (am + sm * (z - zm)) / q
        nxt = x - val / (w * gain)
        if not x - nxt > 4.0 * math.ulp(x):
            break
        x = nxt
    if abs(val) > 1e-10:
        raise NumericsError("barrier root did not converge")
    return x


def z_inverse(ev: ScaleEvaluator, phi: float) -> float:
    """Z_q^{-1}(phi) for phi > 1: the lam = 0 case of the barrier equation."""
    return _first_zero(ev, phi, 0.0, np.zeros(1), np.zeros(1))


def barrier_root(problem: AuxProblem,
                 evaluator: ScaleEvaluator | None = None) -> AuxSolution:
    """Optimal barrier: the unique zero of the barrier equation

        ell(x) = Z_q(x) - lam int_0^x omega'_+(y) W_q(y) dy - phi,

    with ell(0) = 1 - phi < 0 and ell'(x) = W_q(x) (q - lam omega'_+(x));
    for a concave payoff q - lam omega'_+ is nondecreasing, so ell falls,
    then rises through its one zero.  _first_zero finds it segment by
    segment between the payoff knots, by Newton on the one segment where
    ell turns positive; no Z is evaluated past the overflow horizon x_cap.
    Raises NumericsError if ell stays nonpositive up to x_cap or if |ell|
    at the root exceeds 1e-10.
    """
    ev = evaluator if evaluator is not None else problem.evaluator()
    pw = problem.payoff
    root = _first_zero(ev, problem.phi, problem.lam, pw.xs, pw.slopes)
    return AuxSolution(problem=problem, evaluator=ev, barrier=root)


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
    ev = evaluator if evaluator is not None else problem.evaluator()
    cf = _closed_form(problem, b, ev)       # checks b first
    if not 0.0 <= x <= b:
        raise ValueError("x must lie in [0, b]")
    return float(cf([x])[1][0])


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
    # b on a table the problem does not keep, so it keeps the optimal one
    return v_opt - _ClosedForm(problem, b, ev)(grid)[0]


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
    cf = _closed_form(problem, b, ev)
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
    v, vp, vpp = cf(np.concatenate(([x, b], x + nodes)), 1)
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
