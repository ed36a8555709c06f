import numpy as np
import pytest

from conftest import (reference_value, reference_value_derivative,
                      reference_value_second_derivative)
from levybarrier import AuxProblem, barrier_root, make_payoff
from levybarrier.auxiliary import value_derivative
from levybarrier.payoff import right_derivative
from levybarrier.value_grid import _closed_form, _k_on_points, value_on_grid


def _k_on_points_scalar(payoff, roots, pts, b):
    """Point-by-point reference for _k_on_points: the backward recurrence
    with one scalar right derivative per point."""
    n = len(pts)
    out = np.zeros((n, len(roots)))
    k = np.zeros(len(roots))
    upper = b
    for m in range(n - 1, -1, -1):
        p = pts[m]
        if upper > p:
            slope = float(right_derivative(payoff, p))
            e = np.exp(roots * (upper - p))
            k = e * k + slope * (e - 1.0) / roots
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


def test_k_on_points_matches_scalar_recurrence(many_knot_case):
    prob, sol = many_knot_case
    b, ev, pw = sol.barrier, sol.evaluator, prob.payoff
    grid = np.linspace(0.0, b, 157)
    assert not np.isin(grid[1:], pw.xs).any()
    knots = pw.xs[(pw.xs > 0) & (pw.xs < b)]
    assert len(knots) > 50
    pts = np.unique(np.concatenate((grid, knots, [0.0, b])))
    got = _k_on_points(pw, ev.roots, pts, b)
    ref = _k_on_points_scalar(pw, ev.roots, pts, b)
    assert np.array_equal(got, ref)


def test_value_on_grid_matches_pointwise_many_knots(many_knot_case):
    prob, sol = many_knot_case
    b, ev = sol.barrier, sol.evaluator
    xs = np.linspace(0.0, 1.6 * b, 81)
    assert not np.isin(xs[1:], prob.payoff.xs).any()
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
    the payoff knots (where V'' jumps when lam > 0)."""
    h = 1e-5
    checked = 0
    for prob in twelve_cases:
        if prob.spec.sigma == 0:
            continue
        sol = barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        xs = np.linspace(0.1 * b, 0.9 * b, 7)
        xs = xs[np.min(np.abs(xs[:, None] - prob.payoff.xs), axis=1) > 4 * h]
        _, _, vpp = _closed_form(prob, b, ev)(xs, len(xs))
        num = np.array([(value_derivative(prob, b, x + h, ev)
                         - value_derivative(prob, b, x - h, ev)) / (2 * h)
                        for x in xs])
        ref = np.array([reference_value_second_derivative(prob, b, x, ev)
                        for x in xs])
        assert vpp == pytest.approx(num, rel=1e-6, abs=1e-7)
        assert vpp == pytest.approx(ref, rel=1e-11, abs=1e-11)
        checked += 1
    assert checked == 8
