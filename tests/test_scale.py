import numpy as np
import pytest

from levybarrier import (LevySpec, NumericsError, W, W_deriv, Z, Zbar,
                         build_scale_evaluator, verify_laplace_transform)
from levybarrier.scale import exit_identities_analytic


def test_sinh_roots_and_residues(brownian_spec):
    ev = build_scale_evaluator(brownian_spec, 1.0)
    assert ev.roots == pytest.approx([1.0, -1.0], abs=1e-12)
    assert ev.residues == pytest.approx([0.5, -0.5], abs=1e-12)


def test_sinh_values(brownian_spec):
    ev = build_scale_evaluator(brownian_spec, 1.0)
    xs = np.linspace(0.0, 5.0, 40)
    assert W(ev, xs) == pytest.approx(np.sinh(xs), rel=1e-13)
    assert Z(ev, xs) == pytest.approx(np.cosh(xs), rel=1e-13)
    assert Zbar(ev, xs) == pytest.approx(np.sinh(xs), rel=1e-13)


def test_exit_identities_analytic_sinh(brownian_spec):
    # W = sinh and Z = cosh at q = 1
    ev = build_scale_evaluator(brownian_spec, 1.0)
    b = 2.0
    for x in (0.0, 0.5, 1.0, 2.0):
        down, up, refl = exit_identities_analytic(ev, b, x)
        ratio = np.sinh(b - x) / np.sinh(b)
        assert down == pytest.approx(ratio, rel=1e-12, abs=1e-15)
        assert up == pytest.approx(np.cosh(b - x) - np.cosh(b) * ratio,
                                   rel=1e-12, abs=1e-12)
        assert refl == pytest.approx(np.cosh(b - x) / np.cosh(b), rel=1e-12)


def test_cramer_lundberg_roots(cramer_lundberg_spec):
    ev = build_scale_evaluator(cramer_lundberg_spec, 1.0)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert ev.roots == pytest.approx([golden, 1.0 - golden], rel=1e-12)
    assert W(ev, 0.0) == pytest.approx(1.0, rel=1e-12)  # 1/|drift| at sigma=0


def test_w_at_zero_brownian(brownian_spec):
    ev = build_scale_evaluator(brownian_spec, 1.0)
    assert W(ev, 0.0) == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError, match="^x must be positive$"):
        W_deriv(ev, 0.0)


def test_behaviour_on_negative_half_line(mixed_spec):
    ev = build_scale_evaluator(mixed_spec, 0.7)
    assert W(ev, -1.0) == 0.0
    assert Z(ev, -1.0) == 1.0
    assert Zbar(ev, -1.0) == -1.0


def test_z_is_integral_of_w(mixed_spec):
    from scipy.integrate import quad
    ev = build_scale_evaluator(mixed_spec, 0.7)
    for x in (0.5, 1.5, 3.0):
        num, _ = quad(lambda y: W(ev, y), 0.0, x, limit=200)
        assert Z(ev, x) == pytest.approx(1.0 + ev.q * num, rel=1e-10)


def test_zbar_is_integral_of_z(mixed_spec):
    from scipy.integrate import quad
    ev = build_scale_evaluator(mixed_spec, 0.7)
    for x in (0.5, 1.5, 3.0):
        num, _ = quad(lambda y: Z(ev, y), 0.0, x, limit=200)
        assert Zbar(ev, x) == pytest.approx(num, rel=1e-10)


def test_w_deriv_matches_differences(three_specs):
    for spec in three_specs:
        ev = build_scale_evaluator(spec, 1.0)
        h = 1e-6
        for x in (0.4, 1.1, 2.3):
            num = (W(ev, x + h) - W(ev, x - h)) / (2 * h)
            assert W_deriv(ev, x) == pytest.approx(num, rel=1e-7)


def test_w_monotone_positive(three_specs):
    for spec in three_specs:
        ev = build_scale_evaluator(spec, 1.0)
        xs = np.linspace(0.01, 6.0, 300)
        w = W(ev, xs)
        assert np.all(w > 0)
        assert np.all(np.diff(w) > 0)


def test_laplace_transform_identity(three_specs):
    for spec in three_specs:
        ev = build_scale_evaluator(spec, 1.0)
        for ds in (0.2, 0.5, 1.0, 2.0, 4.0):
            s = ev.phi_q + ds
            horizon = min(ev.x_cap, 80.0 / ds)
            assert verify_laplace_transform(ev, s, horizon) < 1e-6


def test_laplace_transform_rejects_small_s(brownian_spec):
    ev = build_scale_evaluator(brownian_spec, 1.0)
    with pytest.raises(ValueError):
        verify_laplace_transform(ev, 0.5 * ev.phi_q, 10.0)


def test_overflow_horizon_guard(brownian_spec):
    ev = build_scale_evaluator(brownian_spec, 1.0)
    with pytest.raises(NumericsError):
        W(ev, 1e6)


def test_exactly_one_positive_root(three_specs):
    for spec in three_specs:
        for q in (0.3, 1.0, 2.5):
            ev = build_scale_evaluator(spec, q)
            assert np.sum(ev.roots > 0) == 1
            assert np.all(np.diff(ev.roots) < 0)


def test_invalid_q_rejected(brownian_spec):
    with pytest.raises(ValueError):
        build_scale_evaluator(brownian_spec, 0.0)
