"""Spectrally positive Levy process specifications and their Laplace
exponent psi.

A process is described in natural parameterization: linear drift, Brownian
volatility and a compound-Poisson stream of positive hyperexponential jumps.
The Laplace exponent is then the rational function

    psi(theta) = -drift_mu*theta + (sigma^2/2)*theta^2
                 + jump_rate*(sum_k w_k*mu_k/(mu_k+theta) - 1),

and clearing its poles gives the polynomial whose roots scale.py finds.
A LevySpec checks itself when it is built and raises ModelError naming the
first rule it breaks, so every spec that exists is valid; the mixture law
it checks is shared with the regime switch jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class LevySpec:
    """One spectrally positive Levy process.  Building one raises
    ModelError naming the first rule it breaks: the fields below, paths
    that are neither deterministic nor increasing, and psi and psi' at 0
    that can be evaluated in float64.

    drift_mu:  linear drift of X (finite).
    sigma:     Brownian volatility (>= 0, finite).
    jump_rate: compound-Poisson intensity (>= 0, finite).
    jump_mix:  tuple of (weight, rate) pairs of the hyperexponential
               positive-jump density sum_k w_k * mu_k * exp(-mu_k z), z > 0:
               when jump_rate > 0, a probability law with distinct rates.
    """

    drift_mu: float
    sigma: float = 0.0
    jump_rate: float = 0.0
    jump_mix: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "jump_mix",
                           tuple((float(w), float(r)) for w, r in self.jump_mix))
        if not math.isfinite(self.drift_mu):
            raise ModelError("drift_mu must be finite")
        if not 0 <= self.sigma < math.inf:
            raise ModelError("sigma must be nonnegative and finite")
        if not 0 <= self.jump_rate < math.inf:
            raise ModelError("jump_rate must be nonnegative and finite")
        if self.jump_rate > 0:
            if not self.jump_mix:
                raise ModelError("jump_rate > 0 but jump_mix is empty")
            diag = _mixture_error(self.jump_mix)
            if diag is not None:
                raise ModelError(diag)
            rates = [r for _, r in self.jump_mix]
            if len(set(rates)) != len(rates):
                raise ModelError("mixture rates must be pairwise distinct")
        if self.sigma == 0 and self.jump_rate == 0:
            raise ModelError("degenerate: deterministic drift only")
        if self.sigma == 0 and self.jump_rate > 0 and self.drift_mu >= 0:
            raise ModelError("monotone paths: subordinator")
        try:
            at_zero = _psi(self, 0.0)
        except ZeroDivisionError:
            raise ModelError("psi'(0) cannot be evaluated in float64: a "
                             "mixture rate's square underflows to 0") from None
        if not all(map(math.isfinite, at_zero)):
            raise ModelError("psi or psi' at 0 overflows float64")


def _mixture_error(mix) -> str | None:
    """The first violated law of a hyperexponential mixture, given as
    (weight, rate) pairs: weights positive and summing to 1, rates
    positive, all finite.  None when the mixture is a probability law."""
    if not all(0 < w < math.inf for w, _ in mix):
        return "mixture weights must be positive and finite"
    if abs(sum(w for w, _ in mix) - 1.0) > _WEIGHT_TOL:
        return "weights sum != 1"
    if not all(0 < r < math.inf for _, r in mix):
        return "mixture rates must be strictly positive and finite"
    return None


def _psi(spec: LevySpec, s: float) -> tuple[float, float]:
    """(psi(s), psi'(s)) from the rational formula, unchecked: also valid
    for s < 0 away from the poles -mu_k."""
    out = -spec.drift_mu * s + 0.5 * spec.sigma**2 * s**2
    deriv = -spec.drift_mu + spec.sigma**2 * s
    if spec.jump_rate > 0:
        out += spec.jump_rate * (sum(w * r / (r + s)
                                     for w, r in spec.jump_mix) - 1.0)
        deriv -= spec.jump_rate * sum(w * r / (r + s) ** 2
                                      for w, r in spec.jump_mix)
    return out, deriv


def laplace_exponent(spec: LevySpec, theta: float) -> float:
    """psi(theta) for theta >= 0; convex with psi(0) = 0."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return _psi(spec, theta)[0]


def laplace_exponent_deriv(spec: LevySpec, theta: float) -> float:
    """Exact psi'(theta); psi'(0) = -E[X_1]."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return _psi(spec, theta)[1]


def _psi_poly_coeffs(spec: LevySpec, q: float) -> np.ndarray:
    """Coefficients (highest degree first) of (psi(s) - q) * prod_k(mu_k + s)."""
    base = np.array([0.5 * spec.sigma**2, -spec.drift_mu,
                     -(spec.jump_rate + q)])
    if spec.sigma == 0:
        base = base[1:]
    mix = spec.jump_mix if spec.jump_rate > 0 else ()
    poles = -np.array([r for _, r in mix])
    poly = np.polymul(base, np.poly(poles))
    for k, (w, r) in enumerate(mix):
        poly = np.polyadd(poly, spec.jump_rate * w * r
                          * np.poly(np.delete(poles, k)))
    return poly
