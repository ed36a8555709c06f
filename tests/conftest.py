import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from levybarrier import (AuxProblem, LevySpec, ModelError, NumericsError,
                         RegimeModel, make_payoff)
from levybarrier.levy import laplace_exponent, laplace_exponent_deriv
from levybarrier.payoff import evaluate, right_derivative
from levybarrier.scale import W, W_deriv, Z, Zbar
from levybarrier.value_grid import _closed_form


# ---------------------------------------------------------------------------
# Phi(q) by its own root search on psi, independent of the polynomial roots
# in levybarrier.scale.

def reference_phi_inverse(spec, q):
    """Largest root Phi(q) of psi(s) = q, for q > 0.

    psi is convex with psi(0) = 0 and psi(inf) = inf, so {psi <= q} is an
    interval containing 0 and the crossing to the right of it is unique.
    Bracket by doubling, then Brent plus a Newton polish.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    hi = 1.0
    while laplace_exponent(spec, hi) <= q:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for valid specs
            raise ModelError("psi does not reach q")
    root = brentq(lambda s: laplace_exponent(spec, s) - q, 0.0, hi,
                  xtol=1e-15, rtol=8.9e-16)
    # Newton polish; guard against stepping out of (0, hi).
    for _ in range(4):
        f = laplace_exponent(spec, root) - q
        df = laplace_exponent_deriv(spec, root)
        if df == 0:
            break
        step = f / df
        cand = root - step
        if 0.0 < cand <= hi:
            root = cand
        if abs(step) < 1e-14 * max(1.0, abs(root)):
            break
    return root


# ---------------------------------------------------------------------------
# Scalar barrier equation and the bracket-doubling Brent root, one payoff
# re-cut per evaluation, independent of the knot table in
# levybarrier.auxiliary.

def _segments(pw, lo, hi):
    """Break [lo, hi] at the payoff knots; return (u, v, slope) arrays with
    slope the right derivative on each open segment."""
    if hi <= lo:
        return (np.empty(0),) * 3
    cuts = pw.xs[(pw.xs > lo) & (pw.xs < hi)]
    edges = np.concatenate(([lo], cuts, [hi]))
    u, v = edges[:-1], edges[1:]
    slope = right_derivative(pw, u)
    return u, v, np.atleast_1d(slope)


def payoff_W_integral(ev, pw, x, b):
    """int_0^b omega'_+(y) W_q(y - x) dy  (only y > x contributes)."""
    u, v, slope = _segments(pw, max(x, 0.0), b)
    if len(u) == 0:
        return 0.0
    return float(np.sum(slope * (Z(ev, v - x) - Z(ev, u - x))) / ev.q)


def ell(ev, pw, lam, phi, x):
    """Barrier equation left side: Z_q(x) - lam*int_0^x omega'_+ W_q - phi."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(Z(ev, x)) - phi - lam * payoff_W_integral(ev, pw, 0.0, x)


def ell_deriv(ev, pw, lam, x):
    """ell'(x) = W_q(x) (q - lam * omega'_+(x))."""
    return float(W(ev, x)) * (ev.q - lam * right_derivative(pw, x))


def reference_barrier_root(problem, ev):
    """Zero of ell: Z_q^{-1}(phi) bracketed by doubling from 1, bracket
    doubling upward from there, Brent, then Newton polish."""
    pw, lam, phi = problem.payoff, problem.lam, problem.phi
    f = lambda x: ell(ev, pw, lam, phi, x)
    hi = 1.0
    while Z(ev, hi) < phi:
        hi *= 2.0
        if hi > ev.x_cap:
            raise NumericsError("no sign change within overflow horizon")
    lo = brentq(lambda x: Z(ev, x) - phi, 0.0, hi, xtol=1e-14)
    hi = max(2.0 * lo, lo + 1.0)
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
    return float(root)


def reference_z_inverse(ev, phi):
    """Z_q^{-1}(phi) by Brent on [0, x_cap] to 4 ulp relative, then a
    Newton polish: the bracket needs no doubling, so it also holds when
    x_cap < 1 (Phi(q) > 700)."""
    f = lambda x: float(Z(ev, x)) - phi
    root = brentq(f, 0.0, ev.x_cap, xtol=1e-300, rtol=8.9e-16)
    for _ in range(4):
        d = ev.q * float(W(ev, root))
        if d <= 0:
            break
        step = f(root) / d
        root -= step
        if abs(step) < 1e-15 * root:
            break
    return float(root)


# ---------------------------------------------------------------------------
# Reference closed form of the (0, b) value: scalar segment sums, one point
# at a time, independent of the K recursion in levybarrier.value_grid.

def reference_payoff_Z_integral(ev, pw, x, b):
    """int_0^b omega'_+(y) Z_q(y - x) dy."""
    u, v, slope = _segments(pw, 0.0, b)
    if len(u) == 0:
        return 0.0
    return float(np.sum(slope * (Zbar(ev, v - x) - Zbar(ev, u - x))))


def _reference_value_core(problem, ev, b, x):
    pw, lam, phi, q = problem.payoff, problem.lam, problem.phi, problem.q
    psi_p0 = laplace_exponent_deriv(problem.spec, 0.0)
    i_z = reference_payoff_Z_integral(ev, pw, x, b)
    i_w = payoff_W_integral(ev, pw, 0.0, b)
    out = -float(Zbar(ev, b - x)) - psi_p0 / q
    out += (lam / q) * (evaluate(pw, 0.0) + i_z)
    out += float(Z(ev, b - x)) / (q * float(W(ev, b))) \
        * (float(Z(ev, b)) - phi - lam * i_w)
    return out


def reference_value(problem, b, x, ev):
    """V(x): the closed form on [0, b], slope 1 above b, slope phi below 0."""
    if x > b:
        return (x - b) + _reference_value_core(problem, ev, b, b)
    if x < 0:
        return problem.phi * x + _reference_value_core(problem, ev, b, 0.0)
    return _reference_value_core(problem, ev, b, x)


def reference_value_derivative(problem, b, x, ev):
    """V'(x) on [0, b] (one-sided limits at the ends), 1 above b."""
    if x > b:
        return 1.0
    pw, lam, phi = problem.payoff, problem.lam, problem.phi
    i_w = payoff_W_integral(ev, pw, 0.0, b)
    h = payoff_W_integral(ev, pw, x, b)
    return (float(W(ev, b - x)) / float(W(ev, b))
            * (phi + lam * i_w - float(Z(ev, b)))
            + float(Z(ev, b - x)) - lam * h)


def reference_value_second_derivative(problem, b, x, ev):
    """V''(x) on (0, b), away from payoff knots."""
    pw, lam, phi, q = problem.payoff, problem.lam, problem.phi, problem.q
    i_w = payoff_W_integral(ev, pw, 0.0, b)
    k = phi + lam * i_w - float(Z(ev, b))
    out = -float(W_deriv(ev, b - x)) / float(W(ev, b)) * k
    out -= q * float(W(ev, b - x))
    u, v, slope = _segments(pw, max(x, 0.0), b)
    if len(u):
        out += lam * float(np.sum(slope * (W(ev, v - x) - W(ev, u - x))))
    return out


# ---------------------------------------------------------------------------
# Adaptive-quadrature references for the two numerical checks, hjb_residual
# and the Laplace integral of W, which the library computes with fixed
# Gauss-Legendre rules.

def reference_hjb_residual(problem, b, x, ev):
    """(A - q) V + lam*omega at x > 0, with the jump integral by adaptive
    quad of one closed-form call per integrand point, split at the shifted
    payoff knots, and the exponential tail beyond b in closed form."""
    spec, lam, q = problem.spec, problem.lam, problem.q
    cf = _closed_form(problem, b, ev)
    (vx, vb), (vp, _), (vpp,) = cf([x, b], 1)
    if x >= b:
        vp = 1.0
    out = spec.drift_mu * vp + 0.5 * spec.sigma**2 * vpp
    t0 = b - x
    if spec.jump_rate > 0 and t0 > 0:
        pts = [float(p) for p in problem.payoff.xs - x if 0.0 < p < t0]
        dens = lambda z: sum(w * r * np.exp(-r * z) for w, r in spec.jump_mix)
        jumps, _ = quad(lambda z: (cf([x + z])[0][0] - vx) * dens(z),
                        0.0, t0, points=pts, limit=200, epsabs=1e-12,
                        epsrel=1e-9)
        for w, r in spec.jump_mix:
            jumps += w * np.exp(-r * t0) * (vb - vx + 1.0 / r)
        out += spec.jump_rate * jumps
    elif spec.jump_rate > 0:
        out += spec.jump_rate * sum(w / r for w, r in spec.jump_mix)
    out += -q * vx + lam * evaluate(problem.payoff, x)
    return float(out)


def reference_laplace_integral(ev, s, horizon):
    """int_0^horizon e^{-sx} W_q(x) dx by adaptive quad."""
    val, _ = quad(lambda x: np.exp(-s * x) * W(ev, x), 0.0, horizon,
                  limit=500)
    return val


# ---------------------------------------------------------------------------
# Hyperexponential switch-jump average by the scalar forward recursion, one
# grid point at a time, independent of the doubling scan in
# levybarrier.regime.

def reference_hyperexp_average(f, j, mix, phi):
    """E[ f(x+J, j) 1{x+J>=0} + (phi(x+J)+f(0,j)) 1{x+J<0} ] on the grid,
    J = -|J| with |J| hyperexponential, one rate at a time."""
    grid, vals = f.grid, f.values[j]
    h = np.diff(grid)
    s = np.diff(vals) / h
    out = np.zeros(len(grid))
    for w, nu in mix:
        # per segment: int_0^h (f_{m+1} - s z) nu e^{-nu z} dz
        e = np.exp(-nu * h)
        zint = (1.0 - e) / nu - h * e
        loc = vals[1:] * (1.0 - e) - s * zint
        # body: I(x) = int_0^x f(x-z, j) nu e^{-nu z} dz by forward recursion
        body, y = [0.0], 0.0
        for em, cm in zip(e.tolist(), loc.tolist()):
            y = em * y + cm
            body.append(y)
        # tail: int_x^inf (phi(x-z) + f(0,j)) nu e^{-nu z} dz
        tail = np.exp(-nu * grid) * (float(vals[0]) - phi / nu)
        out += w * (np.array(body) + tail)
    return out


# ---------------------------------------------------------------------------
# Seeded single-regime problems

FAMILIES = ("brownian", "sigma0", "mixed")


def seeded_aux_problems(seed, count, knot_counts=(2, 3, 4)):
    """Problem k has spec family FAMILIES[k % 3] and
    knot_counts[k % len(knot_counts)] payoff knots; the seed draws the rest
    from this parameter box:

        drift_mu   Brownian [-0.5, 0.5], sigma = 0 [-1.5, -0.6],
                   mixed [-0.6, 0.2]
        sigma      [0.6, 1.5] (Brownian and mixed), 0 (sigma = 0 family)
        jump_rate  [0.4, 1.4], one or two components with rates in
                   [1.0, 4.5], at least 0.4 apart so the roots of
                   psi(s) = q stay simple
        delta      [0.6, 1.3]      lam     [0.1, 0.5]      phi   [1.4, 2.4]
        payoff     concave through 0, slopes in [0.3, 1.2], knots 0.3 to
                   1.0 apart
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        family = FAMILIES[k % 3]
        n_comp = 1 + k % 2
        while True:
            rates = np.sort(rng.uniform(1.0, 4.5, n_comp))
            if np.all(np.diff(rates) >= 0.4):
                break
        w0 = rng.uniform(0.3, 0.7) if n_comp == 2 else 1.0
        mix = tuple(zip((w0, 1.0 - w0)[:n_comp], rates))
        if family == "brownian":
            spec = LevySpec(drift_mu=rng.uniform(-0.5, 0.5),
                            sigma=rng.uniform(0.6, 1.5))
        elif family == "sigma0":
            spec = LevySpec(drift_mu=rng.uniform(-1.5, -0.6), sigma=0.0,
                            jump_rate=rng.uniform(0.4, 1.4), jump_mix=mix)
        else:
            spec = LevySpec(drift_mu=rng.uniform(-0.6, 0.2),
                            sigma=rng.uniform(0.6, 1.5),
                            jump_rate=rng.uniform(0.4, 1.4), jump_mix=mix)
        n_knots = knot_counts[k % len(knot_counts)]
        slopes = np.sort(rng.uniform(0.3, 1.2, n_knots))[::-1]
        xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.3, 1.0,
                                                          n_knots - 1))))
        vals = np.concatenate(([0.0], np.cumsum(slopes[:-1] * np.diff(xs))))
        payoff = make_payoff(np.column_stack((xs, vals)), slopes[-1])
        out.append(AuxProblem(spec=spec, lam=rng.uniform(0.1, 0.5),
                              delta=rng.uniform(0.6, 1.3),
                              phi=rng.uniform(1.4, 2.4), payoff=payoff))
    return out


@pytest.fixture
def brownian_spec():
    """Pure Brownian surplus with sigma = sqrt(2): W_1(x) = sinh(x)."""
    return LevySpec(drift_mu=0.0, sigma=np.sqrt(2.0), jump_rate=0.0,
                    jump_mix=())


@pytest.fixture
def cramer_lundberg_spec():
    """Drift -1, unit-rate Exp(1) upward jumps: the classical risk process."""
    return LevySpec(drift_mu=-1.0, sigma=0.0, jump_rate=1.0,
                    jump_mix=((1.0, 1.0),))


@pytest.fixture
def mixed_spec():
    """Brownian part plus a two-term hyperexponential jump mixture."""
    return LevySpec(drift_mu=-0.3, sigma=1.0, jump_rate=0.8,
                    jump_mix=((0.6, 1.5), (0.4, 3.0)))


@pytest.fixture
def three_specs(brownian_spec, cramer_lundberg_spec, mixed_spec):
    return [brownian_spec, cramer_lundberg_spec, mixed_spec]


@pytest.fixture
def linear_payoff():
    return make_payoff([[0.0, 0.0], [1.0, 1.0]], 1.0)


@pytest.fixture
def kinked_payoff():
    return make_payoff([[0.0, 0.0], [0.5, 0.6], [1.5, 1.6], [3.0, 2.6]], 0.5)


@pytest.fixture
def twelve_cases(three_specs, linear_payoff, kinked_payoff):
    """3 models x 2 payoffs x 2 phi values, with a mild payoff weight."""
    cases = []
    for spec in three_specs:
        for payoff in (linear_payoff, kinked_payoff):
            for phi in (1.5, 2.5):
                cases.append(AuxProblem(spec=spec, lam=0.3, delta=0.7,
                                        phi=phi, payoff=payoff))
    return cases


@pytest.fixture
def symmetric_two_state(brownian_spec):
    """Two identical states with zero switch jumps: must collapse to the
    single-regime problem."""
    return RegimeModel(states=("a", "b"),
                       switch_rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       discounts=np.array([1.0, 1.0]),
                       levy=(brownian_spec, brownian_spec),
                       switch_jumps={}, phi=2.0)


@pytest.fixture
def two_state_model(brownian_spec):
    """Asymmetric two-state model with a downward switch jump."""
    stress = LevySpec(drift_mu=-0.5, sigma=0.4, jump_rate=1.0,
                      jump_mix=((1.0, 2.0),))
    return RegimeModel(
        states=("calm", "stress"),
        switch_rates=np.array([[0.0, 0.5], [1.0, 0.0]]),
        discounts=np.array([0.8, 1.2]),
        levy=(brownian_spec, stress),
        switch_jumps={(0, 1): ((1.0, 3.0),)},
        phi=1.6)


@pytest.fixture
def three_state_model(brownian_spec, mixed_spec):
    stress = LevySpec(drift_mu=-0.5, sigma=0.4, jump_rate=1.0,
                      jump_mix=((1.0, 2.0),))
    return RegimeModel(
        states=("a", "b", "c"),
        switch_rates=np.array([[0.0, 0.4, 0.2],
                               [0.3, 0.0, 0.3],
                               [0.5, 0.1, 0.0]]),
        discounts=np.array([0.9, 1.1, 1.3]),
        levy=(brownian_spec, stress, mixed_spec),
        switch_jumps={(0, 1): ((0.7, 2.0), (0.3, 5.0)),
                      (2, 0): ((1.0, 4.0),)},
        phi=1.8)
