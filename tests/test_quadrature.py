"""The fixed Gauss-Legendre rules of hjb_residual and of the Laplace check
against the adaptive-quadrature references in conftest.

The seeded problems come from conftest.seeded_aux_problems, whose docstring
states the parameter box: one third per spec family, all with a payoff
stream (lam > 0) and two to four payoff knots.
"""

import numpy as np
import pytest

from levybarrier import (AuxProblem, LevySpec, barrier_root,
                         build_scale_evaluator, hjb_residual, value)
from levybarrier.scale import _laplace_integral
from conftest import (reference_hjb_residual, reference_laplace_integral,
                      seeded_aux_problems)


@pytest.fixture
def seeded_problems():
    return seeded_aux_problems(seed=2024, count=12)


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
