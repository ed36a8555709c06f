import dataclasses

import numpy as np
import pytest

from levybarrier import (LevySpec, ModelError, laplace_exponent,
                         laplace_exponent_deriv, phi_inverse)

from conftest import reference_phi_inverse


def test_laplace_exponent_brownian(brownian_spec):
    # psi(theta) = theta^2 for sigma = sqrt(2)
    for theta in (0.0, 0.5, 1.0, 3.0):
        assert laplace_exponent(brownian_spec, theta) == pytest.approx(
            theta**2, abs=1e-14)


def test_laplace_exponent_cramer_lundberg(cramer_lundberg_spec):
    # psi(2) = 2 + (1/3 - 1) = 4/3 by hand
    assert laplace_exponent(cramer_lundberg_spec, 2.0) == pytest.approx(
        4.0 / 3.0, rel=1e-14)


def test_laplace_exponent_matches_mgf_derivative(mixed_spec):
    # psi'(theta) from the closed form vs central differences of psi
    for theta in (0.3, 1.0, 2.5):
        h = 1e-6
        num = (laplace_exponent(mixed_spec, theta + h)
               - laplace_exponent(mixed_spec, theta - h)) / (2 * h)
        assert laplace_exponent_deriv(mixed_spec, theta) == pytest.approx(
            num, rel=1e-7)


def test_psi_convex_and_increasing_eventually(three_specs):
    for spec in three_specs:
        thetas = np.linspace(0.0, 8.0, 200)
        vals = np.array([laplace_exponent(spec, t) for t in thetas])
        # convexity of psi on [0, inf)
        assert np.all(np.diff(vals, 2) >= -1e-9)


def test_phi_inverse_golden_ratio(cramer_lundberg_spec):
    # psi(s) = 1 at s = (1 + sqrt(5))/2 for the unit Cramer-Lundberg model
    assert phi_inverse(cramer_lundberg_spec, 1.0) == pytest.approx(
        (1.0 + np.sqrt(5.0)) / 2.0, rel=1e-12)


def test_phi_inverse_is_right_inverse(three_specs):
    for spec in three_specs:
        for q in (0.2, 1.0, 4.0):
            s = phi_inverse(spec, q)
            assert laplace_exponent(spec, s) == pytest.approx(q, rel=1e-10)


def test_phi_inverse_matches_reference(three_specs):
    # the sigma = 0 specs of test_large_phi_bounded_variation_barrier put
    # Phi(q) between about 850 and 4,000
    large = [LevySpec(drift_mu=mu, sigma=0.0, jump_rate=1.0,
                      jump_mix=((1.0, 1.0),))
             for mu in (-0.002, -0.001, -0.0005)]
    cases = [(spec, q) for spec in three_specs for q in (0.2, 1.0, 4.0)]
    cases += [(spec, q) for spec in large for q in (0.7, 1.0)]
    for spec, q in cases:
        ref = reference_phi_inverse(spec, q)
        assert abs(phi_inverse(spec, q) - ref) <= 1e-13 * ref
    assert max(phi_inverse(spec, 1.0) for spec in large) > 3900.0


def test_negative_theta_rejected(brownian_spec):
    with pytest.raises(ValueError):
        laplace_exponent(brownian_spec, -0.5)


def test_validate_rejects_subordinator():
    with pytest.raises(ModelError, match="subordinator"):
        LevySpec(drift_mu=1.0, sigma=0.0, jump_rate=1.0,
                 jump_mix=((1.0, 1.0),))


def test_validate_rejects_bad_weights():
    with pytest.raises(ModelError):
        LevySpec(drift_mu=-1.0, sigma=0.0, jump_rate=1.0,
                 jump_mix=((0.5, 1.0), (0.2, 2.0)))


@pytest.mark.parametrize("fields, message", [
    (dict(drift_mu=float("inf")), "drift_mu must be finite"),
    (dict(drift_mu=float("nan")), "drift_mu must be finite"),
    (dict(sigma=float("inf")), "sigma must be nonnegative and finite"),
    (dict(sigma=float("nan")), "sigma must be nonnegative and finite"),
    (dict(jump_rate=float("inf")), "jump_rate must be nonnegative and finite"),
    (dict(jump_rate=float("nan")), "jump_rate must be nonnegative and finite"),
    (dict(jump_mix=((1.0, float("inf")),)),
     "rates must be strictly positive and finite"),
    (dict(jump_mix=((1.0, float("nan")),)),
     "rates must be strictly positive and finite"),
    (dict(jump_mix=((float("inf"), 2.0),)),
     "weights must be positive and finite"),
])
def test_validate_rejects_non_finite(fields, message):
    with pytest.raises(ModelError, match=message):
        LevySpec(**{**dict(drift_mu=-1.0, sigma=0.5, jump_rate=1.0,
                           jump_mix=((1.0, 2.0),)), **fields})


def test_validate_rejects_degenerate():
    with pytest.raises(ModelError):
        LevySpec(drift_mu=0.0, sigma=0.0, jump_rate=0.0, jump_mix=())


def test_validate_accepts_fixture_models(three_specs):
    # a rebuilt spec runs its checks again
    for spec in three_specs:
        assert dataclasses.replace(spec) == spec


def test_mean_matches_psi_deriv_at_zero(three_specs):
    # E[X_1] = -psi'(0+) in this parameterization
    for spec in three_specs:
        mean = spec.drift_mu + spec.jump_rate * sum(w / r
                                                    for w, r in spec.jump_mix)
        assert mean == pytest.approx(-laplace_exponent_deriv(spec, 0.0),
                                     rel=1e-12)
