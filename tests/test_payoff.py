import numpy as np
import pytest

from levybarrier import (ModelError, NumericsError, concavify, evaluate,
                         make_payoff, right_derivative)


def test_evaluate_and_tail(kinked_payoff):
    assert evaluate(kinked_payoff, 0.0) == 0.0
    assert evaluate(kinked_payoff, 0.25) == pytest.approx(0.3)
    assert evaluate(kinked_payoff, 1.0) == pytest.approx(1.1)
    # tail extension with slope 0.5 past the last knot at x = 3
    assert evaluate(kinked_payoff, 5.0) == pytest.approx(2.6 + 0.5 * 2.0)


def test_right_derivative_at_knots(kinked_payoff):
    # right-continuity: at a knot the slope of the segment to the right
    assert right_derivative(kinked_payoff, 0.0) == pytest.approx(1.2)
    assert right_derivative(kinked_payoff, 0.5) == pytest.approx(1.0)
    assert right_derivative(kinked_payoff, 1.5) == pytest.approx(2.0 / 3.0)
    assert right_derivative(kinked_payoff, 3.0) == pytest.approx(0.5)
    assert right_derivative(kinked_payoff, 10.0) == pytest.approx(0.5)


def test_make_payoff_rejections():
    with pytest.raises(ModelError, match="ascending"):
        make_payoff([[0.0, 0.0], [1.0, 1.0], [0.5, 0.7]], 0.5)
    with pytest.raises(ModelError, match="ascending"):
        make_payoff([], 1.0)
    with pytest.raises(ModelError, match="concave"):
        make_payoff([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]], 0.5)
    with pytest.raises(ModelError, match="tail"):
        make_payoff([[0.0, 0.0], [1.0, 1.0]], 2.0)


def test_negative_x_rejected(linear_payoff):
    with pytest.raises(ValueError):
        evaluate(linear_payoff, -0.1)
    with pytest.raises(ValueError):
        right_derivative(linear_payoff, -0.1)


def test_concavify_identity_on_concave_input():
    xs = np.linspace(0.0, 4.0, 50)
    vals = np.sqrt(1.0 + xs)
    out = concavify(list(zip(xs, vals)))
    assert np.array_equal(out.vals, vals)


def test_concavify_warning_threshold():
    # a slope rise of 1 is a fault upstream; one of 1e-9 is roundoff and
    # passes through unchanged
    with pytest.raises(NumericsError, match="not concave"):
        concavify([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])
    vals = np.array([0.0, 1.0, 2.0 + 1e-9])
    small = concavify(list(zip([0.0, 1.0, 2.0], vals)))
    assert np.array_equal(small.vals, vals)


def test_concavify_respects_requested_tail_slope():
    xs = np.linspace(0.0, 2.0, 20)
    out = concavify(list(zip(xs, 3.0 * xs)), slope_tail=1.0)
    assert out.slope_tail == 1.0


def test_seeded_random_concave_functions_roundtrip():
    # property check: random concave piecewise-linear samples pass through
    # concavify unchanged, for many seeds
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 30)
        xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, n))))
        slopes = np.sort(rng.uniform(-1.0, 3.0, n))[::-1]
        vals = np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
        out = concavify(list(zip(xs, vals)))
        assert np.array_equal(out.vals, vals)
