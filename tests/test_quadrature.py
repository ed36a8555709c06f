"""The fixed Gauss-Legendre rules of hjb_residual and of the Laplace check
against the adaptive-quadrature references in conftest.

Seeded problems are drawn from this parameter box, one third per spec
family, all with a payoff stream (lam > 0) and two to four payoff knots:

    drift_mu   Brownian [-0.5, 0.5], sigma = 0 [-1.5, -0.6], mixed [-0.6, 0.2]
    sigma      [0.6, 1.5] (Brownian and mixed), 0 (sigma = 0 family)
    jump_rate  [0.4, 1.4], one or two components with rates in [1.0, 4.5],
               at least 0.4 apart so the roots of psi(s) = q stay simple
    delta      [0.6, 1.3]      lam     [0.1, 0.5]      phi   [1.4, 2.4]
    payoff     concave through 0, slopes in [0.3, 1.2], knots 0.3 to 1.0
               apart
"""

import numpy as np
import pytest

from levybarrier import (AuxProblem, LevySpec, barrier_root,
                         build_scale_evaluator, hjb_residual, make_payoff,
                         value)
from levybarrier.scale import _laplace_integral
from conftest import reference_hjb_residual, reference_laplace_integral

FAMILIES = ("brownian", "sigma0", "mixed")


def _seeded_problems(seed: int, count: int) -> list[AuxProblem]:
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
        n_knots = 2 + k % 3
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
def seeded_problems():
    return _seeded_problems(seed=2024, count=12)


def _worst_hjb_gap(prob) -> float:
    """Largest |library - reference| / (1 + |V|) over points inside (0, b]
    and above b."""
    sol = barrier_root(prob)
    b, ev = sol.barrier, sol.evaluator
    worst = 0.0
    for x in np.concatenate((np.linspace(b / 12, b, 12),
                             np.linspace(1.02 * b, 2.0 * b, 4))):
        x = float(x)
        gap = abs(hjb_residual(prob, b, x, ev)
                  - reference_hjb_residual(prob, b, x, ev))
        worst = max(worst, gap / (1.0 + abs(value(prob, b, x, ev))))
    return worst


def test_hjb_residual_matches_quad_twelve_cases(twelve_cases):
    for prob in twelve_cases:
        assert _worst_hjb_gap(prob) <= 1e-12


def test_hjb_residual_matches_quad_seeded(seeded_problems):
    for prob in seeded_problems:
        assert _worst_hjb_gap(prob) <= 1e-12


def test_hjb_residual_matches_quad_fast_jumps(kinked_payoff):
    # a jump rate of 400 and a root near -400: the kink-free segments are
    # cut into panels, without which the fixed rule misses by about 3e-6
    spec = LevySpec(drift_mu=-0.3, sigma=1.0, jump_rate=50.0,
                    jump_mix=((0.5, 1.0), (0.5, 400.0)))
    prob = AuxProblem(spec=spec, lam=0.3, delta=0.7, phi=2.5,
                      payoff=kinked_payoff)
    assert _worst_hjb_gap(prob) <= 1e-12


def _worst_laplace_gap(ev) -> float:
    worst = 0.0
    for ds in (0.2, 0.5, 1.0, 2.0, 4.0):
        s = ev.phi_q + ds
        for horizon in (min(ev.x_cap, 60.0 / ds), min(ev.x_cap, 80.0 / ds)):
            ref = reference_laplace_integral(ev, s, horizon)
            worst = max(worst, abs(_laplace_integral(ev, s, horizon) - ref)
                        / abs(ref))
    return worst


def test_laplace_integral_matches_quad_three_specs(three_specs):
    for spec in three_specs:
        for q in (0.3, 1.0, 2.5):
            assert _worst_laplace_gap(build_scale_evaluator(spec, q)) <= 1e-12


def test_laplace_integral_matches_quad_seeded(seeded_problems):
    for prob in seeded_problems:
        assert _worst_laplace_gap(prob.evaluator()) <= 1e-12
