import numpy as np
import pytest
from scipy.integrate import quad

from levybarrier import (AuxProblem, LevySpec, RegimeModel, SwitchJump,
                         make_payoff)
from levybarrier.auxiliary import _segments, payoff_W_integral
from levybarrier.levy import laplace_exponent_deriv
from levybarrier.payoff import evaluate
from levybarrier.scale import W, W_deriv, Z, Zbar
from levybarrier.value_grid import _closed_form


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
    (vx, vb), (vp, _), (vpp, _) = cf([x, b])
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
        switch_jumps={(0, 1): SwitchJump("hyperexp", ((1.0, 3.0),))},
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
        switch_jumps={(0, 1): SwitchJump("hyperexp", ((0.7, 2.0), (0.3, 5.0))),
                      (2, 0): SwitchJump("hyperexp", ((1.0, 4.0),))},
        phi=1.8)
