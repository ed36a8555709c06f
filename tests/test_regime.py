import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from levybarrier import (AuxProblem, LevySpec, ModelError, NumericsError,
                         RegimeModel, barrier_root,
                         build_scale_evaluator, make_payoff, solve, value)
from conftest import reference_hyperexp_average
from levybarrier import auxiliary, regime
from levybarrier.config import parse_config, regime_model_from
from levybarrier.regime import (ValueField, _hyperexp_average, apply_T_b,
                                apply_T_sup, default_x_max, hat_operator,
                                identity_field, in_cone, rho_metric)


DEMOS = Path(__file__).resolve().parents[1] / "demos"


def single_regime_reference(spec, phi):
    pw = make_payoff([[0.0, 0.0], [1.0, 1.0]], 1.0)
    prob = AuxProblem(spec=spec, lam=0.0, delta=1.0, phi=phi, payoff=pw)
    return barrier_root(prob)


def test_validate_model(two_state_model):
    dataclasses.replace(two_state_model)   # a rebuilt model checks again
    with pytest.raises(ModelError, match="switch"):
        RegimeModel(states=("a", "b"),
                    switch_rates=np.array([[0.0, 0.0], [1.0, 0.0]]),
                    discounts=np.array([1.0, 1.0]),
                    levy=two_state_model.levy, switch_jumps={}, phi=2.0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
@pytest.mark.parametrize("field, message", [
    ("phi", "phi must exceed 1 and be finite"),
    ("discounts", "state calm: discount must be positive and finite"),
    ("switch_rates", "switch rates must be nonnegative and finite"),
])
def test_validate_model_rejects_non_finite(two_state_model, bad, field,
                                           message):
    value = {"phi": bad, "discounts": np.array([bad, 1.0]),
             "switch_rates": np.array([[0.0, bad], [1.0, 0.0]])}[field]
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(two_state_model, **{field: value})


@pytest.mark.parametrize("mix, message", [
    (((1.5, 3.0), (-0.5, 5.0)), "weights must be positive"),
    (((float("nan"), 3.0),), "weights must be positive"),
    (((0.5, 3.0), (0.2, 5.0)), "weights sum != 1"),
    (((1.0, -3.0),), "rates must be strictly positive"),
    (((0.5, 3.0),), "weights sum != 1"),
    (((float("inf"), 3.0),), "weights must be positive and finite"),
    (((1.0, float("inf")),), "rates must be strictly positive and finite"),
    (((1.0, float("nan")),), "rates must be strictly positive and finite"),
])
def test_validate_model_rejects_bad_switch_jump(two_state_model, mix,
                                                message):
    # a mixture summing to 1 with a negative weight is no probability law
    with pytest.raises(ModelError, match="jump 0->1") as err:
        dataclasses.replace(
            two_state_model,
            switch_jumps={(0, 1): mix})
    assert message in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    ("levy", lambda m: m.levy[:1],
     "levy: expected one LevySpec per state (2), got 1"),
    ("discounts", lambda m: m.discounts[:1],
     "discounts: expected one per state, shape (2,), got (1,)"),
    ("switch_jumps", lambda m: {(0, 2): ()},
     "jump 0->2: state index outside 0..1"),
], ids=["levy", "discounts", "switch_jumps"])
def test_validate_model_rejects_mis_shaped(two_state_model, field, value,
                                           message):
    # checked before the per-state loop, which would index past the end
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(two_state_model,
                            **{field: value(two_state_model)})


def test_model_fields_are_read_only(two_state_model):
    # the model checked these values when it was built, so they cannot
    # change under it or under its cached evaluators
    rates = np.array([[0.0, 0.5], [1.0, 0.0]])
    model = dataclasses.replace(two_state_model, switch_rates=rates)
    for arr in (model.switch_rates, model.discounts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    with pytest.raises(TypeError):
        model.switch_jumps[(1, 0)] = ()
    rates[0, 1] = 5.0   # the caller's array stays the caller's
    assert model.lam[0] == 0.5
    assert model.evaluators[0].q == model.q[0] == 1.3


def _with_rates(model, rates):
    return dataclasses.replace(model, switch_rates=np.array(rates))


def test_diagonal_is_stored_as_zero(two_state_model):
    # the row sum minus the diagonal rounds: 0.1 + 0.2 - 0.1 is not 0.2
    model = _with_rates(two_state_model, [[0.1, 0.2], [0.2, 0.1]])
    assert model.lam.tolist() == [0.2, 0.2]
    assert model.q.tolist() == [0.8 + 0.2, 1.2 + 0.2]
    assert np.diag(model.switch_rates).tolist() == [0.0, 0.0]
    for arr in (model.switch_rates, model.lam, model.q):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0


@pytest.mark.parametrize("diag", [1e16, -1e17])
def test_large_diagonal_is_ignored(two_state_model, diag):
    # the row sum minus a diagonal this large cancels lambda_i to 0
    model = _with_rates(two_state_model, [[diag, 1.0], [1.0, 0.0]])
    assert model.lam.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_diagonal_is_rejected(two_state_model, bad):
    with pytest.raises(ModelError, match="^switch rates must be "
                       "nonnegative and finite$"):
        _with_rates(two_state_model, [[bad, 0.5], [1.0, 0.0]])


def test_row_sum_past_float64_is_rejected(three_state_model):
    # finite rates whose sum overflows: this warned in the sum and was then
    # rejected on beta rounding to 1, after a second warning
    rates = [[0.0, 1e308, 1e308], [0.3, 0.0, 0.3], [0.5, 0.1, 0.0]]
    with pytest.raises(ModelError, match="^state a: switch rates sum past "
                       "float64$"):
        _with_rates(three_state_model, rates)


def test_generator_and_its_off_diagonal_part_solve_alike(three_state_model):
    rates = three_state_model.switch_rates
    generator = rates - np.diag(rates.sum(axis=1))
    a = solve(three_state_model, grid_points=300)
    b = solve(_with_rates(three_state_model, generator), grid_points=300)
    assert np.array_equal(a.barriers, b.barriers)
    assert np.array_equal(a.value.values, b.value.values)
    assert a.rho_trace == b.rho_trace


def test_beta_formula(two_state_model):
    # lam = (0.5, 1.0), delta = (0.8, 1.2)
    expect = max(0.5 / 1.3, 1.0 / 2.2)
    assert two_state_model.beta == pytest.approx(expect, rel=1e-12)


def test_rho_metric_and_cone(two_state_model):
    grid = np.linspace(0.0, 5.0, 200)
    f = identity_field(two_state_model, grid)
    assert in_cone(f, two_state_model.phi) is None
    g = ValueField(grid=grid, values=f.values + 0.25)
    assert rho_metric(f, g) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        rho_metric(f, identity_field(two_state_model,
                                     np.linspace(0.0, 4.0, 200)))


def test_a_switch_jump_is_its_mixture(symmetric_two_state):
    # a jump is its (weight, rate) pairs, so no mixture can sit beside a
    # "none" kind and be dropped, and () is no jump rather than a mixture
    # whose weights do not sum to 1
    model = symmetric_two_state
    none = dataclasses.replace(model, switch_jumps={(0, 1): ()})
    drop = dataclasses.replace(model, switch_jumps={(0, 1): [[1, 3]]})
    assert none.switch_jumps == {(0, 1): ()} and none.jump(1, 0) == ()
    assert drop.switch_jumps == {(0, 1): ((1.0, 3.0),)}
    f = identity_field(model, np.linspace(0.0, 5.0, 400))
    hat = hat_operator(model, f, 0).vals
    assert np.array_equal(hat_operator(none, f, 0).vals, hat)
    assert np.all(hat_operator(drop, f, 0).vals < hat)


def test_hat_operator_identity_field_no_jump(symmetric_two_state):
    # with no switch jump, the hat of f(x) = x is x itself
    grid = np.linspace(0.0, 5.0, 400)
    f = identity_field(symmetric_two_state, grid)
    pw = hat_operator(symmetric_two_state, f, 0)
    assert pw(grid) == pytest.approx(grid, abs=1e-12)


def test_hat_operator_exponential_jump_closed_form(brownian_spec):
    # identity field with Exp(nu) drop: E[(x - E)1 + (phi(x-E) + 0) 1_neg]
    # = x - (1 - e^{-nu x})/nu - phi*e^{-nu x}/nu + ... computed analytically:
    # hat(x) = x - 1/nu + (1 - phi) * e^{-nu x} / nu
    nu, phi = 3.0, 2.0
    model = RegimeModel(states=("a", "b"),
                        switch_rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        discounts=np.array([1.0, 1.0]),
                        levy=(brownian_spec, brownian_spec),
                        switch_jumps={(0, 1): ((1.0, nu),)},
                        phi=phi)
    grid = np.linspace(0.0, 6.0, 2000)
    f = identity_field(model, grid)
    pw = hat_operator(model, f, 0)
    expect = grid - 1.0 / nu + (1.0 - phi) * np.exp(-nu * grid) / nu
    # piecewise-linear sampling of a smooth integrand: O(h^2) error
    assert pw(grid) == pytest.approx(expect, abs=5e-5)


def test_hyperexp_average_matches_quadrature():
    # exact for a piecewise-linear field: two rates, non-uniform grid
    from scipy.integrate import quad
    phi = 1.7
    mix = ((0.35, 1.5), (0.65, 6.0))
    grid = 5.0 * np.linspace(0.0, 1.0, 41) ** 1.6
    vals = np.vstack((grid, grid + (phi - 1.0) * (1.0 - np.exp(-grid)) + 0.3))
    f = ValueField(grid=grid, values=vals)
    got = _hyperexp_average(f, 1, mix, phi)
    f0 = vals[1, 0]
    for m in range(0, len(grid), 4):
        x = grid[m]
        ref = 0.0
        for w, nu in mix:
            dens = lambda z: nu * np.exp(-nu * z)
            body, _ = quad(lambda z: np.interp(x - z, grid, vals[1]) * dens(z),
                           0.0, x, points=x - grid[:m], limit=200,
                           epsabs=1e-14, epsrel=1e-13)
            tail, _ = quad(lambda z: (phi * (x - z) + f0) * dens(z), x, np.inf,
                           epsabs=1e-14, epsrel=1e-13)
            ref += w * (body + tail)
        assert got[m] == pytest.approx(ref, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("grid, mix", [
    (np.linspace(0.0, 8.0, 4001), ((0.2, 0.8), (0.5, 3.0), (0.3, 11.0))),
    (5.0 * np.linspace(0.0, 1.0, 41) ** 1.6, ((0.35, 1.5), (0.65, 6.0))),
], ids=["uniform_4001", "graded_41"])
def test_hyperexp_average_matches_scalar_recurrence(grid, mix):
    # the doubling scan sums in another order than the point-by-point
    # recursion, so they agree to rounding, not bit for bit; f(0, 1) = 2
    # keeps the average away from 0, so a relative bound holds
    phi = 1.7
    vals = np.vstack((grid, grid + (phi - 1.0) * (1.0 - np.exp(-grid))
                      + 2.0))
    f = ValueField(grid=grid, values=vals)
    assert _hyperexp_average(f, 1, mix, phi) == pytest.approx(
        reference_hyperexp_average(f, 1, mix, phi), rel=1e-13)


def test_hat_operator_rejects_out_of_cone(two_state_model):
    grid = np.linspace(0.0, 5.0, 50)
    vals = np.tile(grid**2, (2, 1))  # convex, slope > phi
    f = ValueField(grid=grid, values=vals)
    with pytest.raises(ModelError, match="cone"):
        apply_T_sup(two_state_model, f)


def test_hat_operator_is_the_unprojected_average(two_state_model):
    # each state has one destination (p = 1): the hat payoff is that
    # state's post-switch average exactly, with nothing pooled away
    model = two_state_model
    f = solve(model, tol=1e-8, grid_points=1200).value
    averages = (_hyperexp_average(f, 1, model.jump(0, 1), model.phi),
                f.values[0])
    for i, average in enumerate(averages):
        pw = hat_operator(model, f, i)
        assert np.array_equal(pw.vals, average)
        assert pw.slope_tail == 1.0


def test_t_sup_dominates_t_b(two_state_model):
    grid = np.linspace(0.0, 6.0, 800)
    f = identity_field(two_state_model, grid)
    sup_f, barriers = apply_T_sup(two_state_model, f)
    fixed = apply_T_b(two_state_model, f, barriers * 1.3)
    assert np.all(sup_f.values >= fixed.values - 1e-9)


def test_contraction_ratio_bounded(two_state_model, three_state_model):
    for model in (two_state_model, three_state_model):
        sol = solve(model, tol=1e-8, grid_points=1200)
        ratios = [r2 / r1 for r1, r2 in
                  zip(sol.rho_trace[:-1], sol.rho_trace[1:]) if r1 > 0]
        assert max(ratios[:-1]) <= model.beta + 1e-3


def _shift_matrix(model):
    # M_ij = lambda_ij / q_i, 0 on the stored diagonal: a payoff raised by
    # k pays lambda_i k / q_i more, and hat_i(f + c) = hat_i(f) + sum_j
    # (lambda_ij / lambda_i) c_j
    return model.switch_rates / model.q[:, None]


@pytest.mark.parametrize("model_name, shifts", [
    ("two_state_model", [(0.3, -0.7), (5.0, 2.0)]),
    ("three_state_model", [(0.3, -0.7, 1.1), (5.0, 2.0, -3.0)]),
])
def test_shift_identity(model_name, shifts, request):
    # T(f + c) = T(f) + M c, and the barriers do not move
    model = request.getfixturevalue(model_name)
    f = identity_field(model, np.linspace(0.0, 6.0, 800))
    g, barriers = apply_T_sup(model, f)
    m = _shift_matrix(model)
    for c in map(np.array, shifts):
        shifted = ValueField(f.grid, f.values + c[:, None])
        g_c, barriers_c = apply_T_sup(model, shifted)
        np.testing.assert_allclose(g_c.values, g.values + (m @ c)[:, None],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(barriers_c, barriers, rtol=0.0,
                                   atol=1e-12)


def test_final_rho_is_the_returned_fields_residual(two_state_model,
                                                   three_state_model):
    for model in (two_state_model, three_state_model):
        sol = solve(model, tol=1e-8, grid_points=1200)
        g, barriers = apply_T_sup(model, sol.value)
        assert sol.final_rho == pytest.approx(rho_metric(g, sol.value),
                                              rel=1e-6)
        # the returned barriers are the returned field's own roots
        np.testing.assert_allclose(barriers, sol.barriers, rtol=0.0,
                                   atol=1e-12)


def _bounded_variation_model():
    # the sigma = 0 model of test_large_phi_bounded_variation_solve
    specs = tuple(LevySpec(drift_mu=mu, sigma=0.0, jump_rate=1.0,
                           jump_mix=((1.0, 1.0),)) for mu in (-0.001, -0.002))
    return RegimeModel(states=("a", "b"),
                       switch_rates=np.array([[0.0, 0.3], [0.3, 0.0]]),
                       discounts=np.array([0.7, 0.7]), levy=specs,
                       switch_jumps={}, phi=1.5)


@pytest.mark.parametrize("model_name, grid_points", [
    ("two_state_model", 1200), ("three_state_model", 1200),
    ("bounded_variation", 1000)])
def test_smooth_fit_to_rounding(model_name, grid_points, request):
    # the barriers are roots of the returned field's own local problems
    model = (_bounded_variation_model() if model_name == "bounded_variation"
             else request.getfixturevalue(model_name))
    sol = solve(model, tol=1e-8, grid_points=grid_points)
    for i in range(model.n):
        assert max(sol.smooth_fit_residuals(i)) <= 1e-12


def test_demo_model_iteration_budget():
    # the level shift solves each iteration's constant part exactly, so only
    # the non-constant part, which shrinks far faster than beta, is iterated
    tree = parse_config((DEMOS / "regime.cfg").read_text())
    sol = solve(regime_model_from(tree), tol=1e-8, grid_points=2000)
    assert sol.iterations <= 9


def test_t_sup_contracts_at_beta(two_state_model, three_state_model):
    # the paper's contraction of T itself, which the solver's trace no
    # longer shows: rho(T f, T g) <= beta rho(f, g)
    for model in (two_state_model, three_state_model):
        f = solve(model, tol=1e-8, grid_points=1200).value
        g = identity_field(model, f.grid)
        gap = rho_metric(apply_T_sup(model, f)[0], apply_T_sup(model, g)[0])
        assert gap <= (model.beta + 1e-3) * rho_metric(f, g)


def test_monotone_rho_decay(two_state_model):
    sol = solve(two_state_model, tol=1e-8, grid_points=1200)
    trace = np.array(sol.rho_trace)
    assert np.all(np.diff(trace) < 0)
    assert sol.final_rho < 1e-8


def test_collapse_to_single_regime(symmetric_two_state, brownian_spec):
    sol = solve(symmetric_two_state, tol=1e-8, grid_points=2000)
    ref = single_regime_reference(brownian_spec, symmetric_two_state.phi)
    assert sol.barriers == pytest.approx([ref.barrier, ref.barrier],
                                         abs=1e-5)
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0,
                      phi=symmetric_two_state.phi,
                      payoff=make_payoff([[0.0, 0.0], [1.0, 1.0]], 1.0))
    for x in (0.0, 0.7, 1.3):
        assert sol.value_at(x, 0) == pytest.approx(
            value(prob, ref.barrier, x, ref.evaluator), abs=2e-5)


def test_symmetric_model_equal_barriers(brownian_spec):
    stress = brownian_spec
    model = RegimeModel(states=("a", "b"),
                        switch_rates=np.array([[0.0, 0.7], [0.7, 0.0]]),
                        discounts=np.array([1.0, 1.0]),
                        levy=(stress, stress),
                        switch_jumps={}, phi=1.7)
    sol = solve(model, tol=1e-8, grid_points=1200)
    assert sol.barriers[0] == pytest.approx(sol.barriers[1], abs=1e-10)


def test_fixed_point_stable_under_extra_iteration(two_state_model):
    sol = solve(two_state_model, tol=1e-8, grid_points=1200)
    f_next, _ = apply_T_sup(two_state_model, sol.value)
    assert rho_metric(sol.value, f_next) <= 2e-8


def test_seed_independence(two_state_model):
    sol_a = solve(two_state_model, tol=1e-8, grid_points=1200)
    grid = sol_a.value.grid
    warm = ValueField(grid=grid,
                      values=np.maximum.accumulate(
                          np.tile(1.2 * grid, (2, 1)), axis=1))
    sol_b = solve(two_state_model, seed=warm, tol=1e-8, grid_points=1200,
                  x_max=float(grid[-1]))
    assert sol_a.barriers == pytest.approx(sol_b.barriers, abs=1e-6)


def test_seed_outside_cone_is_a_model_error(two_state_model):
    # a field the caller passed in is a model input, unlike the solver's own
    grid = np.linspace(0.0, 2.0, 401)
    convex = ValueField(grid=grid, values=np.tile(grid**2, (2, 1)))
    with pytest.raises(ModelError, match="f not in cone"):
        solve(two_state_model, seed=convex, grid_points=400, x_max=2.0)


@pytest.mark.parametrize("values, message", [
    (lambda g: g[None, :], r"seed: expected one row per state, "
                           r"shape \(2, 401\), got \(1, 401\)"),
    (lambda g: np.tile(np.where(g < 1.0, g, np.nan), (2, 1)),
     "f not in cone: state 0: non-finite value"),
], ids=["one_row", "nan"])
def test_bad_seed_is_a_model_error(two_state_model, values, message):
    # the seed is on the solve's grid, so the solver takes it
    grid = np.linspace(0.0, 2.0, 401)
    seed = ValueField(grid=grid, values=values(grid))
    with pytest.raises(ModelError, match=message):
        solve(two_state_model, seed=seed, grid_points=400, x_max=2.0)


def test_seed_is_checked_against_the_models_phi(two_state_model):
    # a field has no phi of its own: slopes of 2.5 leave the phi = 1.6
    # model's cone, where a seed that carried phi = 3.0 passed the cone
    # check and failed later with "payoff slope at 0+ exceeds phi"
    grid = np.linspace(0.0, 2.0, 401)
    seed = ValueField(grid, np.tile(2.5 * grid, (2, 1)))
    with pytest.raises(ModelError, match=r"^f not in cone: state 0: slope "
                       r"outside \[1, phi\]$"):
        solve(two_state_model, seed=seed, grid_points=400, x_max=2.0)


@pytest.mark.parametrize("grid, values, message", [
    ([0.5, 0.75, 1.0], np.zeros((2, 3)), "grid: must be 1-d"),
    ([0.0, np.nan, 1.0], np.zeros((2, 3)), "strictly ascending from 0"),
    ([0.0, 1.0, np.inf], np.zeros((2, 3)), "finite"),
    ([0.0, 1.0, 1.0], np.zeros((2, 3)), "strictly ascending"),
    ([], np.zeros((2, 0)), "grid: must be 1-d"),
    (np.zeros((2, 2)), np.zeros((2, 2)), "grid: must be 1-d"),
    ([0.0, 0.5, 1.0], np.zeros((2, 4)), r"values: expected one column per "
                                        r"grid point \(3\), got \(2, 4\)"),
    ([0.0, 0.5, 1.0], np.zeros(3), "one column per grid point"),
], ids=["start-0.5", "nan", "inf", "flat", "empty", "2-d", "columns",
        "1-d-values"])
def test_value_field_checks_itself(grid, values, message):
    # each of these built before
    with pytest.raises(ModelError, match=message):
        ValueField(grid=np.array(grid), values=values)


def test_seed_off_the_solve_grid_is_a_model_error(two_state_model):
    # the default x_max is not 2, so this grid is not the solve's
    grid = np.linspace(0.0, 2.0, 401)
    seed = ValueField(grid=grid, values=np.tile(grid, (2, 1)))
    x_max = default_x_max(two_state_model)
    message = (f"seed: expected the solve's grid, 401 points to "
               f"{x_max:.6g}, got 401 points to 2")
    with pytest.raises(ModelError, match=re.escape(message)):
        solve(two_state_model, seed=seed, grid_points=400)


@pytest.mark.parametrize("barriers, message", [
    ([1.0], r"need one barrier per state: expected shape \(2,\), got "
            r"\(1,\)"),
    ([1.0, float("nan")], "barriers must be positive and finite"),
    ([1.0, -0.5], "barriers must be positive and finite"),
    ([float("inf"), 1.0], "barriers must be positive and finite"),
], ids=["one_barrier", "nan", "negative", "inf"])
def test_apply_T_b_rejects_bad_barriers(two_state_model, barriers, message):
    f = identity_field(two_state_model, np.linspace(0.0, 4.0, 401))
    with pytest.raises(ModelError, match=message):
        apply_T_b(two_state_model, f, barriers)


def test_in_cone_reports_convexity(two_state_model):
    # slopes 1 to 1.2, inside [1, phi], but rising
    grid = np.linspace(0.0, 1.0, 101)
    f = ValueField(grid, np.tile(grid + 0.1 * grid**2, (2, 1)))
    assert in_cone(f, 1.6) == "state 0: not concave"


def test_model_rejects_a_non_levy_spec_and_an_unknown_jump(two_state_model):
    with pytest.raises(ModelError, match="^state stress: levy must be a "
                       "LevySpec$"):
        dataclasses.replace(two_state_model,
                            levy=(two_state_model.levy[0], "stress"))
    # a jump is its (weight, rate) pairs: a name or a bare number is none
    for jump in ("uniform", 3.0, ((1.0,),)):
        with pytest.raises(ModelError, match=re.escape(
                f"jump 1->0: expected (weight, rate) pairs, got {jump!r}")):
            dataclasses.replace(two_state_model, switch_jumps={(1, 0): jump})


def test_in_cone_reports_non_finite(two_state_model):
    grid = np.linspace(0.0, 4.0, 401)
    f = identity_field(two_state_model, grid)
    f.values[1, 200] = np.nan
    assert in_cone(f, two_state_model.phi) == "state 1: non-finite value"


def test_regrow_matches_solve_on_the_final_grid(two_state_model):
    # a barrier above 0.8 x_max doubles the grid end and restarts: from
    # 0.5 twice, to 2.0, after which the solve is the one started there
    grown = solve(two_state_model, tol=1e-8, grid_points=400, x_max=0.5)
    direct = solve(two_state_model, tol=1e-8, grid_points=400, x_max=2.0)
    assert grown.value.grid[-1] == 2.0
    np.testing.assert_array_equal(grown.barriers, direct.barriers)
    np.testing.assert_array_equal(grown.value.values, direct.value.values)
    assert grown.iterations == direct.iterations


def test_smooth_fit_per_state(two_state_model, three_state_model):
    for model in (two_state_model, three_state_model):
        sol = solve(model, tol=1e-8, grid_points=1200)
        for i in range(model.n):
            r_b, r_0 = sol.smooth_fit_residuals(i)
            assert r_b <= 1e-8
            assert r_0 <= 1e-8


def test_solution_concave_slopes_in_window(two_state_model):
    sol = solve(two_state_model, tol=1e-8, grid_points=1200)
    assert in_cone(sol.value, two_state_model.phi, tol=1e-6) is None


def test_default_x_max_unreachable_phi(symmetric_two_state):
    # Z_q stays below phi up to the overflow horizon: same typed error and
    # message as barrier_root's bracket
    model = dataclasses.replace(symmetric_two_state, phi=1e308)
    with pytest.raises(NumericsError, match="no sign change"):
        default_x_max(model)


def test_large_phi_bounded_variation_solve():
    # sigma = 0 states with Phi(delta) of 850 and 1,700: their overflow
    # horizons (0.82, 0.41) lie below the old Z^{-1} bracket start x = 1
    specs = tuple(LevySpec(drift_mu=mu, sigma=0.0, jump_rate=1.0,
                           jump_mix=((1.0, 1.0),)) for mu in (-0.001, -0.002))
    model = RegimeModel(states=("a", "b"),
                        switch_rates=np.array([[0.0, 0.3], [0.3, 0.0]]),
                        discounts=np.array([0.7, 0.7]), levy=specs,
                        switch_jumps={}, phi=1.5)
    x_max = default_x_max(model)
    assert 0.0 < x_max < build_scale_evaluator(specs[0], 0.7).x_cap
    sol = solve(model, tol=1e-8, grid_points=1000)
    for i in range(model.n):
        assert max(sol.smooth_fit_residuals(i)) <= 1e-8


def _fuzz_model(k):
    # two-state model k of a seeded box: a sigma = 0 state with a small
    # expense rate (Phi(q) up to several hundred) and a Brownian state
    rng = np.random.default_rng([11, k])
    s0 = LevySpec(drift_mu=-10 ** rng.uniform(-2.5, 0), sigma=0.0,
                  jump_rate=rng.uniform(0.3, 2),
                  jump_mix=((1.0, rng.uniform(1, 5)),))
    s1 = LevySpec(drift_mu=rng.uniform(-0.5, 0.5),
                  sigma=rng.uniform(0.4, 1.5))
    a, b = rng.uniform(0.2, 1.5, 2)
    discounts = rng.uniform(0.3, 1.5, 2)
    phi = rng.uniform(1.3, 3)
    jumps = ({(0, 1): ((0.5, 2.0), (0.5, 5.0))}
             if k % 3 == 0 else {})
    return RegimeModel(states=("a", "b"),
                       switch_rates=np.array([[0.0, a], [b, 0.0]]),
                       discounts=discounts, levy=(s0, s1),
                       switch_jumps=jumps, phi=phi)


@pytest.mark.parametrize("k", [0, 17, 35, 51, 61, 67, 71])
def test_fuzz_models_fail_loudly_or_fit(k):
    # barriers where |ell| cannot reach 1e-10 in floating point: a barrier
    # returned with no error must still meet smooth fit in every state.
    # Which NumericsError a failing model raises moves with the last bits
    # of its barriers: a root that does not converge, a field that leaves
    # the cone, or (model 67, at Phi(q) b = 405) a closed form that
    # overflows; each is a numerical failure, not a model error, and none
    # may come with a RuntimeWarning.
    model = _fuzz_model(k)
    try:
        sol = solve(model, grid_points=1000)
    except NumericsError:
        return
    for i in range(model.n):
        assert max(sol.smooth_fit_residuals(i)) <= 1e-8


@pytest.mark.parametrize("options, message", [
    ({"tol": -1.0}, "tol"), ({"tol": float("nan")}, "tol"),
    ({"max_iter": 0}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
    ({"grid_points": 1}, "grid_points"),
    ({"x_max": -1.0}, "x_max"), ({"x_max": float("nan")}, "x_max"),
    ({"x_max": float("inf")}, "x_max"),
])
def test_solve_rejects_bad_options(two_state_model, options, message):
    with pytest.raises(ModelError, match=message):
        solve(two_state_model, **options)


def test_nonconvergence_reports_decay(two_state_model):
    with pytest.raises(NumericsError, match="decay"):
        solve(two_state_model, tol=1e-14, max_iter=3, grid_points=400)


@pytest.mark.parametrize("seeded, failing_call, error", [
    (False, 1, NumericsError), (False, 2, NumericsError),
    (True, 1, ModelError), (True, 2, NumericsError),
], ids=["identity-first", "identity-second", "seed-first", "seed-second"])
def test_solver_made_field_error_is_numerics(two_state_model, monkeypatch,
                                             seeded, failing_call, error):
    # a ModelError from apply_T_sup on the caller's seed is the caller's;
    # on a field the solver made, the same text is a NumericsError
    calls = []
    real = regime.apply_T_sup
    text = "f not in cone: state 1: not concave"

    def failing(model, f):
        calls.append(f)
        if len(calls) == failing_call:
            raise ModelError(text)
        return real(model, f)

    monkeypatch.setattr(regime, "apply_T_sup", failing)
    grid = np.linspace(0.0, 2.0, 401)
    seed = identity_field(two_state_model, grid) if seeded else None
    with pytest.raises(error) as info:
        solve(two_state_model, seed=seed, grid_points=400, x_max=2.0)
    assert type(info.value) is error and str(info.value) == text
    assert len(calls) == failing_call and (calls[0] is seed) == seeded


def test_value_at_extends_linearly_and_continuously(two_state_model):
    # slope phi below 0 and slope 1 past the grid end, joined to the grid
    sol = solve(two_state_model, tol=1e-8, grid_points=400)
    end, phi, eps = float(sol.value.grid[-1]), two_state_model.phi, 1e-9
    for i in range(two_state_model.n):
        v0, v_end = sol.value.values[i, [0, -1]]
        assert sol.value_at(0.0, i) == v0 and sol.value_at(end, i) == v_end
        assert sol.value_at(-0.3, i) == pytest.approx(v0 - 0.3 * phi,
                                                      rel=1e-15)
        assert sol.value_at(end + 0.7, i) == pytest.approx(v_end + 0.7,
                                                           rel=1e-15)
        # continuous at both ends: within phi * eps on either side
        for x, v in ((0.0, v0), (end, v_end)):
            for y in (x - eps, x + eps):
                assert abs(sol.value_at(y, i) - v) <= phi * eps + 1e-14


def test_one_z_table_per_state_and_grid(two_state_model, monkeypatch):
    # every barrier root of a solve tabulates Z on the whole knot table,
    # the grid; the evaluator keeps it, so it is computed once per state on
    # each grid, here 0.5, 1.0 and 2.0 (two regrows, as in
    # test_regrow_matches_solve_on_the_final_grid)
    tables = []
    z = auxiliary.Z

    def counting(ev, x):
        # a knot table starts at 0; the pieces of the crossing segment
        # start above it
        if np.size(x) > 400 and x[0] == 0.0:
            tables.append(float(x[-2]))
        return z(ev, x)

    monkeypatch.setattr(auxiliary, "Z", counting)
    sol = solve(two_state_model, tol=1e-8, grid_points=400, x_max=0.5)
    assert sol.iterations > 2
    assert tables == [0.5, 0.5, 1.0, 1.0, 2.0, 2.0]


def test_evaluators_built_once_per_model(two_state_model, monkeypatch):
    # counted through regime's own binding, the one the solver calls
    built = []
    build = regime.build_scale_evaluator

    def counting(spec, q):
        built.append(q)
        return build(spec, q)

    monkeypatch.setattr(regime, "build_scale_evaluator", counting)
    model = two_state_model
    sol = solve(model, tol=1e-8, grid_points=400)
    # default_x_max's at delta_i, then one per state at q_i
    assert built == [float(d) for d in model.discounts] + model.q.tolist()
    built.clear()
    for i in range(model.n):
        assert max(sol.smooth_fit_residuals(i)) <= 1e-8
    apply_T_sup(model, sol.value)
    apply_T_b(model, sol.value, sol.barriers)
    assert built == []
