import dataclasses

import numpy as np
import pytest

from conftest import (reference_value, reference_value_derivative,
                      reference_value_second_derivative)
from levybarrier import (AuxProblem, LevySpec, NumericsError, auxiliary,
                         barrier_root, build_scale_evaluator, hjb_residual,
                         make_payoff, scale, value, value_grid)
from levybarrier.auxiliary import value_derivative
from levybarrier.payoff import right_derivative
from levybarrier.value_grid import _closed_form, _scan, value_on_grid


def _k_on_points_scalar(payoff, lq, roots, pts, b, dtype=float):
    """Point-by-point reference for the K table: the backward recurrence
    with one scalar gain 1 - lq omega'_+ per point, lq = lam/q, in the
    arithmetic of dtype."""
    n = len(pts)
    roots = roots.astype(dtype)
    out = np.zeros((n, len(roots)), dtype=dtype)
    k = np.zeros(len(roots), dtype=dtype)
    upper = dtype(b)
    for m in range(n - 1, -1, -1):
        p = dtype(pts[m])
        if upper > p:
            slope = dtype(float(right_derivative(payoff, pts[m])))
            gain = dtype(1) - dtype(lq) * slope
            e = np.exp(roots * (upper - p))
            k = e * k + gain * (e - 1) / roots
        out[m] = k
        upper = p
    return out


@pytest.fixture
def many_knot_case(mixed_spec):
    """A seeded 300-knot concave payoff, its problem and optimal barrier."""
    rng = np.random.default_rng(2022)
    widths = rng.uniform(0.002, 0.02, 299)
    xs = np.concatenate(([0.0], np.cumsum(widths)))
    slopes = np.sort(rng.uniform(0.2, 1.2, 299))[::-1]
    vals = np.concatenate(([0.0], np.cumsum(slopes * widths)))
    pw = make_payoff(np.column_stack((xs, vals)), 0.1)
    prob = AuxProblem(spec=mixed_spec, lam=0.4, delta=0.6, phi=1.8,
                      payoff=pw)
    sol = barrier_root(prob)
    assert sol.barrier < xs[-1]    # knots on both sides of the barrier
    return prob, sol


def test_k_table_matches_scalar_recurrence(many_knot_case):
    # the scan sums in another order than the point-by-point recurrence, so
    # the table rows on the knots are held to the scalar recurrence run in
    # long double; points between knots are held to the reference closed
    # form by test_value_on_grid_matches_pointwise_many_knots
    prob, sol = many_knot_case
    b, ev, pw = sol.barrier, sol.evaluator, prob.payoff
    knots = pw.xs[(pw.xs > 0) & (pw.xs < b)]
    assert len(knots) > 50
    cf = _closed_form(prob, b, ev)
    np.testing.assert_array_equal(cf.knots, np.concatenate(([0.0], knots,
                                                            [b])))
    lq = prob.lam / prob.q
    exact = _k_on_points_scalar(pw, lq, ev.roots, cf.knots, b, np.longdouble)
    for got in (cf.k, _k_on_points_scalar(pw, lq, ev.roots, cf.knots, b)):
        np.testing.assert_allclose(got, exact, rtol=2e-14, atol=0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 257])
@pytest.mark.parametrize("growth", [1.02, 0.97])
def test_scan_matches_scalar_recurrence(n, growth):
    rng = np.random.default_rng(n)
    a = growth * rng.uniform(0.99, 1.01, (n, 2))
    y = rng.uniform(0.5, 1.5, (n, 2))
    ref, acc = np.empty_like(y), np.zeros(2)
    for m in range(n):
        acc = a[m] * acc + y[m]
        ref[m] = acc
    got = _scan(a.copy(), y.copy())
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


def test_value_on_grid_matches_pointwise_many_knots(many_knot_case):
    prob, sol = many_knot_case
    b, ev = sol.barrier, sol.evaluator
    # between knots, on knots below and above b, at 0 and at b: both the
    # expm1 row off the knots and the bare table rows on them run
    between = np.linspace(0.0, 1.6 * b, 81)
    assert not np.isin(between[1:], prob.payoff.xs).any()
    on = prob.payoff.xs[1::9]
    assert np.sum(on < b) > 5 and np.sum(on > b) > 5
    xs = np.concatenate((between, on, [b, 0.0]))
    assert np.sum(xs > b) > 20
    vals, derivs = value_on_grid(prob, b, xs, ev)
    ref_v = np.array([reference_value(prob, b, float(x), ev) for x in xs])
    ref_d = np.array([reference_value_derivative(prob, b, float(x), ev)
                      for x in xs])
    assert vals == pytest.approx(ref_v, rel=1e-11, abs=1e-11)
    assert derivs == pytest.approx(ref_d, rel=1e-11, abs=1e-11)


def test_second_derivative_twelve_cases(twelve_cases):
    """The kernel's V'' on (0, b) against central differences of the
    kernel's V' and against the reference segment-sum formula, away from
    the payoff knots (where V'' jumps when lam > 0 and sigma = 0)."""
    h = 1e-5
    checked = 0
    for prob in twelve_cases:
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        xs = np.linspace(0.1 * b, 0.9 * b, 7)
        xs = xs[np.min(np.abs(xs[:, None] - prob.payoff.xs), axis=1) > 4 * h]
        _, _, vpp = _closed_form(prob, b, ev)(xs)
        num = np.array([(value_derivative(prob, b, x + h, ev)
                         - value_derivative(prob, b, x - h, ev)) / (2 * h)
                        for x in xs])
        ref = np.array([reference_value_second_derivative(prob, b, x, ev)
                        for x in xs])
        assert vpp == pytest.approx(num, rel=1e-6, abs=1e-7)
        assert vpp == pytest.approx(ref, rel=1e-11, abs=1e-11)
        checked += 1
    assert checked == 12


def test_one_table_per_problem_barrier_and_evaluator(mixed_spec,
                                                      kinked_payoff,
                                                      monkeypatch):
    # the point calls of one verify battery on one (problem, b, evaluator)
    built = []
    cold = value_grid._ClosedForm

    def counting(problem, b, ev):
        built.append(b)
        return cold(problem, b, ev)

    monkeypatch.setattr(value_grid, "_ClosedForm", counting)
    prob = AuxProblem(spec=mixed_spec, lam=0.3, delta=0.7, phi=1.5,
                      payoff=kinked_payoff)
    sol = barrier_root(prob)
    b, ev = sol.barrier, sol.evaluator
    inside = np.linspace(b / 25, b, 25)
    calls = [(value_derivative, b), (value_derivative, 0.0)]
    calls += [(value, x) for x in inside]
    calls += [(hjb_residual, x)
              for x in np.concatenate((inside, np.linspace(1.02 * b, 2 * b,
                                                           10)))]
    assert len(calls) == 62
    got = [f(prob, b, float(x), ev) for f, x in calls]
    assert built == [b]
    # each equal to the result of a cold build, on a fresh copy
    assert got == [f(dataclasses.replace(prob), b, float(x), ev)
                   for f, x in calls]
    assert len(built) == 63
    built.clear()
    value(prob, 0.9 * b, 0.5, ev)
    value(prob, 0.9 * b, 0.7, ev)
    ev2 = build_scale_evaluator(prob.spec, prob.q)
    value(prob, 0.9 * b, 0.5, ev2)
    value(dataclasses.replace(prob), 0.9 * b, 0.5, ev2)
    assert built == [0.9 * b] * 3


def test_point_calls_evaluate_no_scale_function(mixed_spec, kinked_payoff,
                                                monkeypatch):
    # once the table is built, a point call is a gather and, off the knots,
    # one expm1 row: no W, Z or Zbar table at b minus the points
    prob = AuxProblem(spec=mixed_spec, lam=0.3, delta=0.7, phi=1.5,
                      payoff=kinked_payoff)
    sol = barrier_root(prob)
    b, ev = sol.barrier, sol.evaluator
    _closed_form(prob, b, ev)
    calls = []
    sums = scale._scale_sums

    def counting(*args):
        calls.append(args)
        return sums(*args)

    for module in (scale, value_grid, auxiliary):
        if hasattr(module, "_scale_sums"):
            monkeypatch.setattr(module, "_scale_sums", counting)
    for x in np.linspace(b / 25, 2.0 * b, 30):
        value(prob, b, float(x), ev)
        hjb_residual(prob, b, float(x), ev)
    for x in (0.0, 0.3 * b, b):
        value_derivative(prob, b, x, ev)
    assert calls == []
    scale.W(ev, 1.0)        # the count sees a scale function call
    assert len(calls) == 1


@pytest.mark.parametrize("mu", [1e10, -1e10])
def test_table_past_float64_is_a_numerics_error(mu):
    # psi'(0)/q = -mu/1e-300 overflows float64; at mu = 1e10 the kernel
    # once returned V = inf with no error
    prob = AuxProblem(spec=LevySpec(drift_mu=mu, sigma=1.0), lam=0.0,
                      delta=1e-300, phi=2.0, payoff=None)
    ev = prob.evaluator()
    b = min(1.0, 0.5 * ev.x_cap)
    with pytest.raises(NumericsError, match="closed form overflows float64"):
        value(prob, b, 0.1 * b, ev)
