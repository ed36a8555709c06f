import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levybarrier import (AuxProblem, LevySpec, ModelError, NumericsError, Z,
                         apply_T_sup, barrier_root, build_scale_evaluator,
                         config, dominance_gap, hjb_residual, identity_field,
                         make_payoff, value, value_derivative)
from conftest import (ell, ell_deriv, payoff_W_integral,
                      reference_barrier_root, reference_payoff_Z_integral,
                      reference_value, reference_value_derivative,
                      reference_z_inverse, seeded_aux_problems)
from levybarrier import auxiliary, value_grid
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


def test_lam_that_swamps_delta_is_rejected(brownian_spec, linear_payoff):
    # lam / q rounds to 1, so ell = 1 - phi everywhere in float64: this
    # warned in the barrier root and failed with "no sign change"
    with pytest.raises(ModelError, match="^delta vanishes next to lam in "
                       "float64$"):
        AuxProblem(spec=brownian_spec, lam=1e300, delta=1.0, phi=2.0,
                   payoff=linear_payoff)


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



@pytest.mark.parametrize("lam, payoff, message", [
    (0.5, None, "lam > 0 needs a payoff"),
    (0.5, "junk", "payoff must be a ConcavePayoff"),
    (0.0, "junk", "payoff must be a ConcavePayoff"),
])
def test_payoff_must_be_a_payoff(brownian_spec, lam, payoff, message):
    # each raised AttributeError, at the problem or at its barrier root
    with pytest.raises(ModelError, match=message):
        barrier_root(AuxProblem(spec=brownian_spec, lam=lam, delta=1.0,
                                phi=2.0, payoff=payoff))


def test_no_payoff_at_lam_zero_is_the_zero_payoff(three_specs):
    for spec in three_specs:
        prob = AuxProblem(spec=spec, lam=0.0, delta=1.0, phi=2.0,
                          payoff=None)
        b = barrier_root(prob).barrier
        assert b == z_inverse(build_scale_evaluator(spec, 1.0), 2.0)
        assert value_derivative(prob, b, b) == pytest.approx(1.0, abs=1e-8)


def test_problem_keeps_its_evaluator(mixed_spec, kinked_payoff,
                                     monkeypatch):
    built = []
    build, closed_form = auxiliary.build_scale_evaluator, \
        value_grid._ClosedForm

    def counting_build(spec, q):
        built.append("evaluator")
        return build(spec, q)

    def counting_closed_form(*args):
        built.append("closed form")
        return closed_form(*args)

    monkeypatch.setattr(auxiliary, "build_scale_evaluator", counting_build)
    monkeypatch.setattr(value_grid, "_ClosedForm", counting_closed_form)
    prob = AuxProblem(spec=mixed_spec, lam=0.3, delta=0.7, phi=1.5,
                      payoff=kinked_payoff)
    xs = np.linspace(0.0, 1.0, 10)
    warm = [value(prob, 1.0, x) for x in xs]
    assert built == ["evaluator", "closed form"]
    assert warm == [value(dataclasses.replace(prob), 1.0, x) for x in xs]


def test_dominance_gap_keeps_the_optimal_table(mixed_spec, kinked_payoff,
                                               monkeypatch):
    # with b*'s table kept, as after the verify battery's point calls, the
    # gaps at 0.5 b* and 2 b* build their own tables and leave b*'s kept
    built = []
    cold = value_grid._ClosedForm

    def counting(problem, b, ev):
        built.append(b)
        return cold(problem, b, ev)

    for module in (value_grid, auxiliary):
        monkeypatch.setattr(module, "_ClosedForm", counting)
    prob = AuxProblem(spec=mixed_spec, lam=0.3, delta=0.7, phi=1.5,
                      payoff=kinked_payoff)
    sol = barrier_root(prob)
    b, ev = sol.barrier, sol.evaluator
    value(prob, b, 0.5, ev)
    grid = np.linspace(0.0, 2.0 * b, 80)
    gaps = [dominance_gap(prob, f * b, grid, ev, sol) for f in (0.5, 2.0)]
    assert built == [b, 0.5 * b, 2.0 * b]
    for f, gap in zip((0.5, 2.0), gaps):
        fresh = dataclasses.replace(prob)
        v_opt, _ = value_on_grid(fresh, b, grid, ev)
        v_b, _ = value_on_grid(fresh, f * b, grid, ev)
        assert np.array_equal(gap, v_opt - v_b)
        assert gap.min() >= -1e-9


def _demo_hat_problems():
    """Both states' problems against the hat payoff of one apply_T_sup step
    on demos/regime.cfg, on its 2,000-point grid: about 2,000 knots each."""
    model = config.regime_model_from(
        config.parse_config((DEMOS / "regime.cfg").read_text()))
    grid = np.linspace(0.0, default_x_max(model), 2001)
    f1, _ = apply_T_sup(model, identity_field(model, grid))
    return [_aux_problem(model, f1, i) for i in range(model.n)]


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


@pytest.mark.parametrize("b", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("call", [
    lambda p, b, ev: value(p, b, 0.5, ev),
    lambda p, b, ev: value_derivative(p, b, 0.0, ev),
    lambda p, b, ev: hjb_residual(p, b, 0.5, ev),
    lambda p, b, ev: dominance_gap(p, b, np.linspace(0.0, 2.0, 9), ev),
    lambda p, b, ev: value_on_grid(p, b, np.linspace(0.0, 2.0, 9), ev),
], ids=["value", "value_derivative", "hjb_residual", "dominance_gap",
        "value_on_grid"])
def test_bad_barrier_is_a_model_error(mixed_spec, kinked_payoff, b, call):
    # a RuntimeWarning here is an error too (pytest's filterwarnings)
    prob = AuxProblem(spec=mixed_spec, lam=0.3, delta=0.7, phi=1.5,
                      payoff=kinked_payoff)
    with pytest.raises(ModelError, match="barrier b must be positive and "
                                         "finite, got"):
        call(prob, b, prob.evaluator())


def test_barrier_errors_kept(brownian_spec, linear_payoff):
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                      payoff=linear_payoff)
    ev = prob.evaluator()
    for x in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"x must lie in \[0, b\]"):
            value_derivative(prob, 1.0, x, ev)
    for x in (0.0, -0.5):
        with pytest.raises(ValueError, match="^x must be positive$"):
            hjb_residual(prob, 1.0, x, ev)
    with pytest.raises(NumericsError, match="overflow horizon exceeded"):
        value(prob, 2.0 * ev.x_cap, 0.5, ev)


# ---------------------------------------------------------------------------
# the single-regime box where the root and the closed form once cancelled
# two numbers of the size of Z_q(b): smooth fit to 1e-8, or a NumericsError

def _box_spec(family, mu, sigma, jump_rate, claim_rate):
    if family == "brownian":
        return LevySpec(drift_mu=mu, sigma=sigma)
    mix = ((1.0, claim_rate),)
    if family == "sigma0":
        return LevySpec(drift_mu=mu, jump_rate=jump_rate, jump_mix=mix)
    return LevySpec(drift_mu=mu, sigma=sigma, jump_rate=jump_rate,
                    jump_mix=mix)


def _assert_fit_or_loud(prob):
    """Smooth fit to 1e-8 at the barrier, or NumericsError.  V'(0) = phi
    holds at any b in the gain form, and so does V'(b-) = 1 when sigma > 0,
    as W_q(0) = 0; there the fit that depends on b is ell(b) = V''(b-)
    W_q(b) / W_q'(0+) = 0, with W_q'(0+) = 2 / sigma^2."""
    try:
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        _, vp, vpp = value_grid._closed_form(prob, b, ev)(
            [0.0, np.nextafter(b, 0.0), b])
        ell_b = vpp[1] * W(ev, b) * prob.spec.sigma ** 2 / 2
    except NumericsError:
        return
    assert abs(vp[2] - 1.0) <= 1e-8
    assert abs(vp[0] - prob.phi) <= 1e-8
    assert abs(ell_b) <= 1e-8


def _critical_slope_problems(count):
    """The first count problems of a seeded box whose payoff slope up to its
    one knot, q (1 - eps) / lam with eps = 10^U(-14, -6), nearly cancels
    the discount: problem k has spec family (Brownian, sigma = 0,
    mixed)[k % 3], drawn from default_rng(5) in this order:

        Brownian mu U(-0.5, 0.5), sigma U(0.6, 1.5); sigma = 0 mu
        -10^U(-2.5, 0), jump rate U(0.4, 1.4), claim rate U(1, 4.5); mixed
        mu U(-0.6, 0.2), sigma U(0.6, 1.5), jump rate U(0.4, 1.4), claim
        rate U(1, 4.5); then delta 10^U(-3, -1), lam U(0.5, 2), the knot
        U(0.2, 2), eps, tail slope 1, and phi = the slope + U(0.1, 1).
    """
    rng = np.random.default_rng(5)
    out = []
    for k in range(count):
        family = ("brownian", "sigma0", "mixed")[k % 3]
        mu = (rng.uniform(-0.5, 0.5) if family == "brownian" else
              -10 ** rng.uniform(-2.5, 0) if family == "sigma0" else
              rng.uniform(-0.6, 0.2))
        sigma = rng.uniform(0.6, 1.5) if family != "sigma0" else 0.0
        jumps = ((rng.uniform(0.4, 1.4), rng.uniform(1, 4.5))
                 if family != "brownian" else (0.0, 1.0))
        delta, lam = 10 ** rng.uniform(-3, -1), rng.uniform(0.5, 2)
        x1, eps = rng.uniform(0.2, 2), 10 ** rng.uniform(-14, -6)
        s0 = (delta + lam) * (1 - eps) / lam
        out.append(AuxProblem(spec=_box_spec(family, mu, sigma, *jumps),
                              lam=lam, delta=delta,
                              phi=s0 + rng.uniform(0.1, 1),
                              payoff=make_payoff([(0, 0), (x1, s0 * x1)], 1)))
    return out


@pytest.mark.parametrize("k", [37, 64, 160])
def test_critical_slope_regressions_meet_smooth_fit(k):
    # sigma = 0 problems with Phi(q) b near 29, 32 and 28 whose barrier
    # once came back with no error, missing smooth fit by 8.2e-5, 4.0e-3
    # and 5.9e-5: ell and V' subtracted two numbers near Z_q(b)
    prob = _critical_slope_problems(k + 1)[k]
    assert prob.spec.sigma == 0
    sol = barrier_root(prob)
    b, ev = sol.barrier, sol.evaluator
    assert abs(value_derivative(prob, b, b, ev) - 1.0) <= 1e-8
    assert abs(value_derivative(prob, b, 0.0, ev) - prob.phi) <= 1e-8


@st.composite
def _box_problems(draw):
    """One problem of the box, which holds both regions where a barrier once
    came back silently wrong:

        spec    Brownian mu U(-0.5, 0.5); sigma = 0 mu -10^U(-2.5, 0) (the
                small-drift state of test_regime._fuzz_model, Phi(q) up to
                about 1,000); mixed mu U(-0.6, 0.2); sigma U(0.4, 1.5),
                jump rate U(0.3, 2), one claim rate U(1, 5)
        delta   10^U(-3, 0.2)       lam     U(0.2, 2)
        payoff  one knot at U(0.2, 2); up to it the slope q (1 - eps) / lam,
                eps = 10^U(-14, -6), and tail slope 1 (the critical-slope
                region), or q / lam U(0.05, 0.95) and a tail slope U(0, 1)
                times that
        phi     max(slope, 1) + U(0.1, 1)
    """
    u = lambda lo, hi: draw(st.floats(lo, hi))
    family = draw(st.sampled_from(["brownian", "sigma0", "mixed"]))
    mu = (u(-0.5, 0.5) if family == "brownian" else
          -10 ** u(-2.5, 0) if family == "sigma0" else u(-0.6, 0.2))
    spec = _box_spec(family, mu, u(0.4, 1.5), u(0.3, 2), u(1, 5))
    delta, lam, x1 = 10 ** u(-3, 0.2), u(0.2, 2), u(0.2, 2)
    q = delta + lam
    if draw(st.booleans()):
        s0, tail = q * (1 - 10 ** u(-14, -6)) / lam, 1.0
    else:
        s0 = q / lam * u(0.05, 0.95)
        tail = s0 * u(0, 1)
    return AuxProblem(spec=spec, lam=lam, delta=delta,
                      phi=max(s0, 1.0) + u(0.1, 1),
                      payoff=make_payoff([(0, 0), (x1, s0 * x1)], tail))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_box_problems())
def test_box_meets_smooth_fit_or_fails_loudly(prob):
    # no barrier comes back with no error and smooth fit missed by > 1e-8
    _assert_fit_or_loud(prob)


def test_critical_slope_box_meets_smooth_fit_or_fails_loudly():
    # 196 of these 200 problems meet smooth fit and 4 raise "barrier root
    # did not converge"; 18 sigma = 0 ones once missed it silently
    for prob in _critical_slope_problems(200):
        _assert_fit_or_loud(prob)
