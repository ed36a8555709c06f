"""Spectrally positive Levy process specifications and Laplace-exponent algebra.

A process is described in natural parameterization: linear drift, Brownian
volatility and a compound-Poisson stream of positive hyperexponential jumps.
The Laplace exponent is then the rational function

    psi(theta) = -drift_mu*theta + (sigma^2/2)*theta^2
                 + jump_rate*(sum_k w_k*mu_k/(mu_k+theta) - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ModelError

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class LevySpec:
    """One spectrally positive Levy process.

    drift_mu:  linear drift of X, so E[X_1] = drift_mu + jump_rate * mean_jump.
    sigma:     Brownian volatility (>= 0).
    jump_rate: compound-Poisson intensity (>= 0).
    jump_mix:  tuple of (weight, rate) pairs of the hyperexponential
               positive-jump density sum_k w_k * mu_k * exp(-mu_k z), z > 0.
    """

    drift_mu: float
    sigma: float = 0.0
    jump_rate: float = 0.0
    jump_mix: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "jump_mix",
                           tuple((float(w), float(r)) for w, r in self.jump_mix))

    @property
    def mean_jump(self) -> float:
        return sum(w / r for w, r in self.jump_mix)

    @property
    def mean(self) -> float:
        """E[X_1]."""
        return self.drift_mu + self.jump_rate * self.mean_jump


def validate(spec: LevySpec) -> str | None:
    """Check every LevySpec invariant; return a diagnostic naming the first
    violated one, or None when the spec is valid."""
    if spec.sigma < 0:
        return "sigma must be nonnegative"
    if spec.jump_rate < 0:
        return "jump_rate must be nonnegative"
    if spec.jump_rate > 0:
        if not spec.jump_mix:
            return "jump_rate > 0 but jump_mix is empty"
        weights = [w for w, _ in spec.jump_mix]
        rates = [r for _, r in spec.jump_mix]
        if any(w <= 0 for w in weights):
            return "mixture weights must be positive"
        if abs(sum(weights) - 1.0) > _WEIGHT_TOL:
            return "weights sum != 1"
        if any(r <= 0 for r in rates):
            return "mixture rates must be strictly positive"
        if len(set(rates)) != len(rates):
            return "mixture rates must be pairwise distinct"
    if spec.sigma == 0 and spec.jump_rate == 0:
        return "degenerate: deterministic drift only"
    if spec.sigma == 0 and spec.jump_rate > 0 and spec.drift_mu >= 0:
        return "monotone paths: subordinator"
    return None


def require_valid(spec: LevySpec) -> None:
    diag = validate(spec)
    if diag is not None:
        raise ModelError(diag)


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


def phi_inverse(spec: LevySpec, q: float) -> float:
    """Largest root Phi(q) of psi(s) = q, for q > 0.

    psi is convex with psi(0) = 0 and psi(inf) = inf, so {psi <= q} is an
    interval containing 0 and the crossing to the right of it is unique.
    Bracket by doubling, then Brent plus a Newton polish.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    require_valid(spec)
    hi = 1.0
    while laplace_exponent(spec, hi) <= q:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for valid specs
            raise ModelError("psi does not reach q")
    root = brentq(lambda s: laplace_exponent(spec, s) - q, 0.0, hi,
                  xtol=1e-15, rtol=8.9e-16)
    # Newton polish; guard against stepping out of (0, hi).
    for _ in range(4):
        f = laplace_exponent(spec, root) - q
        df = laplace_exponent_deriv(spec, root)
        if df == 0:
            break
        step = f / df
        cand = root - step
        if 0.0 < cand <= hi:
            root = cand
        if abs(step) < 1e-14 * max(1.0, abs(root)):
            break
    return root


def _psi_poly_coeffs(spec: LevySpec, q: float) -> np.ndarray:
    """Coefficients (highest degree first) of (psi(s) - q) * prod_k(mu_k + s)."""
    rates = [r for _, r in spec.jump_mix] if spec.jump_rate > 0 else []
    base = np.array([0.5 * spec.sigma**2, -spec.drift_mu,
                     -(spec.jump_rate + q)])
    if spec.sigma == 0:
        base = base[1:]
    prod_all = np.array([1.0])
    for r in rates:
        prod_all = np.polymul(prod_all, [1.0, r])
    poly = np.polymul(base, prod_all)
    if spec.jump_rate > 0:
        for k, (w, r) in enumerate(spec.jump_mix):
            partial = np.array([1.0])
            for l, (_, r2) in enumerate(spec.jump_mix):
                if l != k:
                    partial = np.polymul(partial, [1.0, r2])
            term = spec.jump_rate * w * r * partial
            poly = np.polyadd(poly, term)
    return poly
