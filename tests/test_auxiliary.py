import dataclasses
from pathlib import Path

import numpy as np
import pytest

from levybarrier import (AuxProblem, LevySpec, ModelError, NumericsError, Z,
                         apply_T_sup, barrier_root, build_scale_evaluator,
                         config, dominance_gap, hat_operator, hjb_residual,
                         identity_field, make_payoff, value, value_derivative)
from conftest import (ell, ell_deriv, payoff_W_integral,
                      reference_barrier_root, reference_payoff_Z_integral,
                      reference_value, reference_value_derivative,
                      reference_z_inverse, seeded_aux_problems)
from levybarrier.auxiliary import z_inverse
from levybarrier.payoff import concavify
from levybarrier.regime import _aux_problem, default_x_max
from levybarrier.scale import W
from levybarrier.value_grid import value_on_grid

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_classical_barrier_arccosh(brownian_spec, linear_payoff):
    # lam = 0, phi = 2 on the sinh model: barrier solves cosh(b) = 2
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                      payoff=linear_payoff)
    sol = barrier_root(prob)
    assert sol.barrier == pytest.approx(np.arccosh(2.0), abs=1e-6)


def test_classical_value_at_zero(brownian_spec, linear_payoff):
    # V(0) = -Zbar(b) - psi'(0)/q + Z(b)(Z(b)-phi)/(q W(b)) with
    # W = sinh, Z = cosh, Zbar = sinh, cosh(b) = 2: V(0) = -sqrt(3)
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                      payoff=linear_payoff)
    sol = barrier_root(prob)
    assert value(prob, sol.barrier, 0.0, sol.evaluator) == pytest.approx(
        -np.sqrt(3.0), abs=1e-10)


def test_lambda_zero_reduces_to_z_inverse(three_specs, linear_payoff):
    for spec in three_specs:
        for phi in (1.5, 2.0, 3.0):
            prob = AuxProblem(spec=spec, lam=0.0, delta=1.0, phi=phi,
                              payoff=linear_payoff)
            sol = barrier_root(prob)
            assert float(Z(sol.evaluator, sol.barrier)) == pytest.approx(
                phi, abs=1e-10)


def test_barrier_equation_root(twelve_cases):
    for prob in twelve_cases:
        sol = barrier_root(prob)
        ev = sol.evaluator
        assert abs(ell(ev, prob.payoff, prob.lam, prob.phi,
                       sol.barrier)) < 1e-10
        # sign change: negative below, positive above
        assert ell(ev, prob.payoff, prob.lam, prob.phi,
                   0.5 * sol.barrier) < 0
        assert ell(ev, prob.payoff, prob.lam, prob.phi,
                   1.5 * sol.barrier) > 0


def test_ell_deriv_matches_differences(mixed_spec, kinked_payoff):
    prob = AuxProblem(spec=mixed_spec, lam=0.4, delta=0.6, phi=1.8,
                      payoff=kinked_payoff)
    ev = prob.evaluator()
    h = 1e-7
    for x in (0.3, 0.8, 2.0):  # away from payoff knots
        num = (ell(ev, prob.payoff, prob.lam, prob.phi, x + h)
               - ell(ev, prob.payoff, prob.lam, prob.phi, x - h)) / (2 * h)
        assert ell_deriv(ev, prob.payoff, prob.lam, x) == pytest.approx(
            num, rel=1e-6)


def test_payoff_integrals_match_quadrature(mixed_spec, kinked_payoff):
    from scipy.integrate import quad
    from levybarrier.payoff import right_derivative
    ev = AuxProblem(spec=mixed_spec, lam=0.4, delta=0.6, phi=1.8,
                    payoff=kinked_payoff).evaluator()
    b = 2.2
    for x in (0.0, 0.4, 1.1):
        pts = [p for p in kinked_payoff.xs if 0 < p < b]
        num_w, _ = quad(lambda y: right_derivative(kinked_payoff, y)
                        * W(ev, y - x), 0.0, b, points=pts + [x], limit=300)
        assert payoff_W_integral(ev, kinked_payoff, x, b) == pytest.approx(
            num_w, rel=1e-9, abs=1e-12)
        num_z, _ = quad(lambda y: right_derivative(kinked_payoff, y)
                        * Z(ev, y - x), 0.0, b, points=pts + [x], limit=300)
        assert reference_payoff_Z_integral(ev, kinked_payoff, x, b) \
            == pytest.approx(num_z, rel=1e-9)


def test_smooth_fit_twelve_cases(twelve_cases):
    for prob in twelve_cases:
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        assert abs(value_derivative(prob, b, b, ev) - 1.0) <= 1e-8
        assert abs(value_derivative(prob, b, 0.0, ev) - prob.phi) <= 1e-8


def test_value_linear_branches(brownian_spec, linear_payoff):
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                      payoff=linear_payoff)
    sol = barrier_root(prob)
    b, ev = sol.barrier, sol.evaluator
    vb = value(prob, b, b, ev)
    assert value(prob, b, b + 0.7, ev) == pytest.approx(vb + 0.7, rel=1e-12)
    v0 = value(prob, b, 0.0, ev)
    assert value(prob, b, -0.3, ev) == pytest.approx(v0 - 2.0 * 0.3,
                                                     rel=1e-12)


def test_value_derivative_matches_differences(twelve_cases):
    for prob in twelve_cases[::3]:
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        h = 1e-6
        for x in np.linspace(0.1 * b, 0.9 * b, 5):
            num = (value(prob, b, x + h, ev)
                   - value(prob, b, x - h, ev)) / (2 * h)
            assert value_derivative(prob, b, float(x), ev) == pytest.approx(
                num, rel=2e-6, abs=1e-8)


def test_value_concave_with_slope_window(twelve_cases):
    for prob in twelve_cases[::2]:
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        xs = np.linspace(0.0, b, 120)
        d = np.array([value_derivative(prob, b, float(x), ev) for x in xs])
        assert np.all(np.diff(d) <= 1e-9)
        assert np.all(d >= 1.0 - 1e-9)
        assert np.all(d <= prob.phi + 1e-9)


def test_dominance_gap_nonnegative_nondecreasing(twelve_cases):
    for prob in twelve_cases:
        sol = barrier_root(prob)
        b = sol.barrier
        grid = np.linspace(0.0, 3.0 * b, 200)
        for factor in (0.25, 0.5, 2.0, 4.0):
            gap = dominance_gap(prob, factor * b, grid, sol.evaluator, sol)
            assert gap.min() >= -1e-9
            assert np.all(np.diff(gap) >= -1e-9)


def test_hjb_zero_inside_nonpositive_above(twelve_cases):
    for prob in twelve_cases:
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        for x in np.linspace(b / 50, b, 50):
            vx = value(prob, b, float(x), ev)
            assert abs(hjb_residual(prob, b, float(x), ev)) \
                <= 1e-6 * (1.0 + abs(vx))
        for x in np.linspace(1.02 * b, 2.5 * b, 50):
            assert hjb_residual(prob, b, float(x), ev) <= 1e-8


def test_hjb_nonzero_at_wrong_barrier(brownian_spec, linear_payoff):
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                      payoff=linear_payoff)
    sol = barrier_root(prob)
    wrong = 2.0 * sol.barrier
    # just above the suboptimal barrier the HJB inequality is violated
    assert hjb_residual(prob, wrong, 1.001 * wrong, sol.evaluator) < -1e-4 \
        or abs(hjb_residual(prob, wrong, 0.5 * wrong, sol.evaluator)) > 1e-4


def test_value_on_grid_matches_pointwise(twelve_cases):
    for prob in twelve_cases[::2]:
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        xs = np.linspace(0.0, 2.0 * b, 60)
        vals, derivs = value_on_grid(prob, b, xs, ev)
        ref_v = np.array([reference_value(prob, b, float(x), ev)
                          for x in xs])
        ref_d = np.array([reference_value_derivative(prob, b, float(x), ev)
                          for x in xs])
        assert vals == pytest.approx(ref_v, rel=1e-11, abs=1e-11)
        assert derivs == pytest.approx(ref_d, rel=1e-11, abs=1e-11)


def test_problem_validation(brownian_spec, linear_payoff):
    with pytest.raises(ModelError, match="phi"):
        AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=0.9,
                   payoff=linear_payoff)
    with pytest.raises(ModelError, match="delta"):
        AuxProblem(spec=brownian_spec, lam=0.0, delta=0.0, phi=2.0,
                   payoff=linear_payoff)
    for bad in (float("inf"), float("nan")):
        for name in ("delta", "lam", "phi"):
            fields = {**dict(delta=1.0, lam=0.0, phi=2.0), name: bad}
            with pytest.raises(ModelError, match=f"{name} .* finite"):
                AuxProblem(spec=brownian_spec, payoff=linear_payoff,
                           **fields)
    steep = make_payoff([[0.0, 0.0], [1.0, 5.0]], 1.0)
    with pytest.raises(ModelError, match="slope"):
        AuxProblem(spec=brownian_spec, lam=0.5, delta=1.0, phi=2.0,
                   payoff=steep)



def _demo_hat_problems():
    """Both states' problems against the hat payoff of one apply_T_sup step
    on demos/regime.cfg, on its 2,000-point grid: about 2,000 knots each."""
    model = config.regime_model_from(
        config.parse_config((DEMOS / "regime.cfg").read_text()))
    grid = np.linspace(0.0, default_x_max(model), 2001)
    f1, _ = apply_T_sup(model, identity_field(model, grid))
    return [_aux_problem(model, i, hat_operator(model, f1, i))
            for i in range(model.n)]


def test_barrier_root_matches_reference(twelve_cases, brownian_spec,
                                        mixed_spec, kinked_payoff):
    # the knot-table root against the scalar bracket-doubling Brent root
    seeded = seeded_aux_problems(seed=7, count=12, knot_counts=(1, 2, 3, 4))
    hat = _demo_hat_problems()
    assert min(len(p.payoff.xs) for p in hat) > 1900
    # phi = 12 puts the root past the last knot, 3.0
    past = AuxProblem(spec=brownian_spec, lam=0.3, delta=0.7, phi=12.0,
                      payoff=kinked_payoff)
    # phi chosen so that ell vanishes at the knot 1.5
    ev = build_scale_evaluator(mixed_spec, 1.0)
    on_knot = AuxProblem(spec=mixed_spec, lam=0.3, delta=0.7,
                         phi=ell(ev, kinked_payoff, 0.3, 0.0, 1.5),
                         payoff=kinked_payoff)
    for prob in twelve_cases + seeded + hat + [past, on_knot]:
        ev = prob.evaluator()
        b = barrier_root(prob, ev).barrier
        b_ref = reference_barrier_root(prob, ev)
        assert abs(b - b_ref) <= 1e-12 * (1.0 + b_ref)
    assert barrier_root(past).barrier > kinked_payoff.xs[-1]
    assert barrier_root(on_knot).barrier == pytest.approx(1.5, abs=1e-12)


def test_barrier_root_reuses_z_table_only_on_equal_knots(kinked_payoff):
    # one evaluator keeps the last knot table's Z values: payoffs A, B
    # (other knots), A again and C (A's knots, other values) in turn must
    # each give the root a fresh evaluator gives
    a = _demo_hat_problems()[0]
    pw = a.payoff
    b = dataclasses.replace(a, payoff=kinked_payoff)
    c = dataclasses.replace(a, payoff=concavify(
        np.column_stack((pw.xs, 0.9 * pw.vals)), 0.9 * pw.slope_tail))
    ev = a.evaluator()
    for prob in (a, b, a, c):
        assert barrier_root(prob, ev).barrier == \
            barrier_root(prob, prob.evaluator()).barrier


def test_z_inverse_matches_reference(three_specs):
    # the lam = 0 root over the whole overflow horizon, from the three
    # fixtures up to sigma = 0 specs with Phi(1) of 1,000 to 4,000
    specs = three_specs + [LevySpec(drift_mu=mu, sigma=0.0, jump_rate=1.0,
                                    jump_mix=((1.0, 1.0),))
                           for mu in (-0.002, -0.001, -0.0005)]
    for spec in specs:
        ev = build_scale_evaluator(spec, 1.0)
        for phi in (1.01, 1.5, 2.5, 40.0):
            b, b_ref = z_inverse(ev, phi), reference_z_inverse(ev, phi)
            assert abs(b - b_ref) <= 1e-12 * b_ref


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("drift_mu", [-0.002, -0.001, -0.0005])
def test_large_phi_bounded_variation_barrier(drift_mu, lam, linear_payoff):
    # Phi(q) from 850 to 4,000 puts the overflow horizon x_cap at 0.18 to
    # 0.82, below the old bracket start x = 1; the barrier is about 1e-3
    spec = LevySpec(drift_mu=drift_mu, sigma=0.0, jump_rate=1.0,
                    jump_mix=((1.0, 1.0),))
    prob = AuxProblem(spec=spec, lam=lam, delta=0.7, phi=1.5,
                      payoff=linear_payoff)
    ev = prob.evaluator()
    assert ev.x_cap < 1.0
    b = barrier_root(prob, ev).barrier
    assert 0.0 < b < ev.x_cap
    assert abs(value_derivative(prob, b, b, ev) - 1.0) <= 1e-8
    assert abs(value_derivative(prob, b, 0.0, ev) - prob.phi) <= 1e-8
