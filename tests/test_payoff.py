import math
import warnings

import numpy as np
import pytest

from levybarrier import (AuxProblem, ConcavePayoff, LevySpec, ModelError,
                         NumericsError, barrier_root, concavify, evaluate,
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


@pytest.mark.parametrize("xs, vals, tail, message", [
    # each built before; the barrier root then returned 1.1638, returned
    # 1.2013, raised ZeroDivisionError, raised NumericsError("no sign change
    # within overflow horizon"), raised numpy's ValueError, IndexError
    ([0.0, 2.0, 1.0], [0.0, 1.0, 1.5], 0.5, "knots not ascending"),
    ([0.5, 1.0], [0.0, 0.5], 0.5, "knots not ascending"),
    ([0.0, 1.0], [0.0, 1.0], 3.0, "bad tail slope"),
    ([0.0, 1.0], [0.0, math.nan], 0.5, "one finite value per knot"),
    ([0.0, 1.0], [0.0, 1.0, 2.0], 0.5, "one finite value per knot"),
    ([], [], 0.5, "knots not ascending"),
    ([0.0, math.nan], [0.0, 1.0], 0.5, "knots not ascending"),
    ([0.0, 1.0], [0.0, 1.0], math.inf, "finite tail slope"),
    ([0.0, 1e-300], [0.0, 1e10], 0.0, "slopes overflow float64"),
], ids=["unsorted", "start-0.5", "tail-3", "nan-value", "mis-sized",
        "empty", "nan-knot", "inf-tail", "slope-overflow"])
def test_payoff_checks_itself(xs, vals, tail, message):
    spec = LevySpec(drift_mu=0.0, sigma=math.sqrt(2.0))
    with pytest.raises(ModelError, match=message):
        barrier_root(AuxProblem(spec=spec, lam=0.5, delta=1.0, phi=2.0,
                                payoff=ConcavePayoff(np.array(xs),
                                                     np.array(vals), tail)))


@pytest.mark.parametrize("knots, tail, message", [
    ([[0.0, 0.0], [1e-300, 0.0], [1.0, 0.0], [2.0, 5.0]], 0.0, "not concave"),
    ([[0.0, 0.0], [5e-324, 0.0], [1.0, 0.0], [2.0, 5.0]], 0.0, "not concave"),
    ([[0.0, 0.0], [1e-300, 0.0], [1.0, 1.0]], 2.0, "bad tail slope"),
], ids=["tiny-first-segment", "subnormal-first-segment", "tiny-then-tail"])
def test_a_tiny_segment_loosens_only_its_own_rises(knots, tail, message):
    # a slope on width 1e-300 carries rounding near 1e285 (inf at 5e-324);
    # the rise of 5 at x = 1, between two unit segments, or the tail's rise
    # of 1 is still a broken law, from config text as from the type
    with pytest.raises(ModelError, match=message):
        make_payoff(knots, tail)
    with pytest.raises(ModelError, match=message):
        ConcavePayoff(*np.array(knots).T, tail)


def test_make_payoff_reports_the_first_law_at_its_tolerance():
    # the slopes rise by 1e-7, within the type's 1e-6 but above the
    # input's 1e-9, and the tail rises by 1; the type alone would name
    # the tail
    knots = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0 + 1e-7]]
    with pytest.raises(ModelError, match="bad tail slope"):
        ConcavePayoff(*np.array(knots).T, 2.0)
    with pytest.raises(ModelError, match="not concave"):
        make_payoff(knots, 2.0)


def test_concavify_reports_a_broken_law_as_numerics():
    with pytest.raises(NumericsError, match=r"sampled payoff: need one "
                       r"finite value per knot .* \(tolerance 1e-06\)"):
        concavify([(0.0, 0.0), (1.0, math.nan)], slope_tail=1.0)


@pytest.mark.parametrize("samples, message", [
    ([(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)], "knots not ascending"),
    ([(0.0, 0.0), (1.0, math.inf), (2.0, math.inf)],
     "need one finite value per knot"),
], ids=["repeated-last-knot", "infinite-values"])
def test_concavify_default_tail_slope_leaves_the_fault_to_the_type(samples,
                                                                   message):
    # the default tail slope divides by 0, or takes inf from inf: the
    # type's check, not a RuntimeWarning, names the fault
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=rf"^sampled payoff: "
                           rf"{message}.* \(tolerance 1e-06\)$"):
            concavify(samples)


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


def test_payoff_keeps_read_only_float_copies():
    knots = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.5]])
    pw = make_payoff(knots, 0.25)
    knots[1, 1] = 9.0       # the caller's array is not the payoff's
    assert evaluate(pw, 1.0) == 1.0
    samples = np.array([[0, 0], [1, 2], [2, 3]])
    cw = concavify(samples)
    samples[1, 1] = 0
    for arr in (pw.xs, pw.vals, cw.xs, cw.vals):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert cw.vals.tolist() == [0.0, 2.0, 3.0]


def test_right_derivative_single_knot():
    pw = make_payoff([[0.0, 1.0]], 0.5)
    assert right_derivative(pw, 0.0) == 0.5
    assert right_derivative(pw, np.array([0.0, 2.0])).tolist() == [0.5, 0.5]
