"""The roots of psi(s) = q, found in one place, and the q-scale functions
built from them.

For the Brownian-plus-hyperexponential class psi(s) - q is a rational
function, so clearing its poles gives a real-rooted polynomial.
build_scale_evaluator finds all its roots s_j, once per (spec, q): the
largest is Phi(q), the right inverse of psi, and then

    W_q(x) = sum_j c_j exp(s_j x),  c_j = 1/psi'(s_j).

The coefficients of the companions Z_q = 1 + q int_0^x W_q and
Zbar_q = int_0^x Z_q (q c_j / s_j) and of W_q' (c_j s_j) are computed there
too.  _scale_sums evaluates all four from one exponential table, behind the
one overflow guard; W, Z, Zbar, W_deriv, exit_identities_analytic and the
CLI's curve call it.  The value kernel (value_grid) builds its own table of
the same exponentials, on the payoff knots, once per barrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .levy import LevySpec, _psi, _psi_poly_coeffs, laplace_exponent

_EXP_CAP = 700.0  # largest exponent before exp() overflows
# verify_laplace_transform: 20-point Gauss-Legendre rule on each of 41
# panels, graded geometrically toward 0 (edges 0, h 2^-40, ..., h/2, h)
_GL20 = np.polynomial.legendre.leggauss(20)
_GRADING = 2.0 ** -np.arange(40, 0, -1)


@dataclass(frozen=True, eq=False)
class ScaleEvaluator:
    """Root/residue representation of W_q, Z_q, Zbar_q for one (spec, q)."""

    spec: LevySpec
    q: float
    roots: np.ndarray       # all real roots of psi(s)=q, descending; roots[0]=Phi(q)
    residues: np.ndarray    # c_j = 1/psi'(s_j), aligned with roots
    z_coeffs: np.ndarray    # q c_j / s_j, the terms of Z_q and Zbar_q
    w_prime_coeffs: np.ndarray  # c_j s_j, the terms of W_q'

    @property
    def phi_q(self) -> float:
        return float(self.roots[0])

    @property
    def x_cap(self) -> float:
        """Largest x before exp(s_max * x) overflows."""
        return _EXP_CAP / max(self.phi_q, 1e-12)


def build_scale_evaluator(spec: LevySpec, q: float) -> ScaleEvaluator:
    """Find all roots of psi(s)=q and assemble the exponential-sum evaluator.

    Roots come from the companion matrix of the cleared polynomial and are
    polished by Newton on psi(s)-q.  Construction aborts on complex or
    near-multiple roots (measure-zero parameter sets, not handled), on a
    polynomial whose monic form overflows float64, and on a root where
    psi' is not finite in float64, such as one on a pole.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    try:
        with np.errstate(over="raise"):     # np.roots divides by coeffs[0]
            raw = np.roots(_psi_poly_coeffs(spec, q))
    except FloatingPointError:
        raise NumericsError("the coefficients of psi(s) = q over its "
                            "leading one overflow float64") from None
    scale = 1.0 + abs(max(raw.real.max(), 0.0))
    if np.any(np.abs(raw.imag) > 1e-9 * scale):
        raise NumericsError("complex roots")
    roots = np.sort(raw.real)[::-1].copy()
    residues = np.empty_like(roots)
    # Newton polish on psi(s)-q itself (better conditioned than the poly).
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for j, s in enumerate(roots):
            try:
                for _ in range(50):
                    f, df = _psi(spec, s)
                    f -= q
                    if df == 0:
                        break
                    step = f / df
                    s -= step
                    if abs(step) <= 1e-15 * max(1.0, abs(s)):
                        break
                roots[j], residues[j] = s, 1.0 / _psi(spec, s)[1]
            except FloatingPointError:
                raise NumericsError(f"psi' at the root {s:.6g} of psi(s) = q"
                                    " is not finite in float64") from None
    gaps = -np.diff(roots)
    if np.any(gaps < 1e-9 * (1.0 + abs(roots[0]))):
        raise NumericsError("near-multiple roots")
    if np.sum(roots > 0) != 1:
        raise NumericsError("expected exactly one positive root")
    return ScaleEvaluator(spec=spec, q=q, roots=roots, residues=residues,
                          z_coeffs=q * residues / roots,
                          w_prime_coeffs=residues * roots)


def phi_inverse(spec: LevySpec, q: float) -> float:
    """Phi(q), the largest root of psi(s) = q, for q > 0."""
    return build_scale_evaluator(spec, q).phi_q


def _scale_sums(ev: ScaleEvaluator, x: np.ndarray, n_deriv: int = 0):
    """W_q, Z_q and Zbar_q at every point of the 1-d array x >= 0, and W_q'
    at x[:n_deriv], all from one table E = exp(outer(x, roots)):

        W_q = E c,  Z_q = 1 + (E - 1) d,  Zbar_q = x + ((E - 1)/s - x) d,
        W_q' = E (c s).

    Raises NumericsError past the overflow horizon x_cap.
    """
    if np.max(x, initial=-np.inf) > ev.x_cap:
        raise NumericsError("overflow horizon exceeded")
    e = np.exp(np.multiply.outer(x, ev.roots))
    em1 = e - 1.0
    return (e @ ev.residues, 1.0 + em1 @ ev.z_coeffs,
            x + (em1 / ev.roots - x[:, None]) @ ev.z_coeffs,
            e[:n_deriv] @ ev.w_prime_coeffs)


def _at(ev: ScaleEvaluator, x, k: int, below) -> float | np.ndarray:
    """Entry k of _scale_sums at any array x, below where x < 0; a float
    for a scalar x."""
    x = np.asarray(x, dtype=float)
    flat = np.maximum(x, 0.0).ravel()
    vals = _scale_sums(ev, flat, len(flat) if k == 3 else 0)[k]
    out = np.where(x >= 0, vals.reshape(x.shape), below)
    return float(out) if out.ndim == 0 else out


def W(ev: ScaleEvaluator, x) -> float | np.ndarray:
    """W_q(x): exponential sum for x >= 0, exactly 0 for x < 0."""
    return _at(ev, x, 0, 0.0)


def W_deriv(ev: ScaleEvaluator, x) -> float | np.ndarray:
    """W_q'(x) for x > 0 (strictly positive there)."""
    if np.any(np.asarray(x) <= 0):
        raise ValueError("x must be positive")
    return _at(ev, x, 3, 0.0)


def Z(ev: ScaleEvaluator, x) -> float | np.ndarray:
    """Z_q(x) = 1 + q int_0^x W_q; identically 1 for x <= 0."""
    return _at(ev, x, 1, 1.0)


def Zbar(ev: ScaleEvaluator, x) -> float | np.ndarray:
    """Zbar_q(x) = int_0^x Z_q; equals x for x <= 0."""
    return _at(ev, x, 2, np.asarray(x, dtype=float))


def exit_identities_analytic(ev: ScaleEvaluator, b: float, x: float
                             ) -> tuple[float, float, float]:
    """Scale-function values of the three discounted exit functionals from
    x in [0, b]: continuous passage below 0 before reaching b, reaching b
    before 0, and first passage below 0 under reflection at b."""
    (wb, wu), (zb, zu), _, _ = _scale_sums(ev, np.array([b, b - x]))
    return float(wu / wb), float(zu - zb * wu / wb), float(zu / zb)


def _composite_rule(edges: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule (nodes, weights) on
    [-1, 1], mapped to every panel between consecutive ascending edges."""
    t, w = rule
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (lo + half * (1.0 + t)).ravel(), (half * w).ravel()


def _laplace_integral(ev: ScaleEvaluator, s: float, horizon: float) -> float:
    """int_0^horizon e^{-sx} W_q(x) dx by the composite rule, with one array
    call of W."""
    x, wts = _composite_rule(
        np.concatenate(([0.0], horizon * _GRADING, [horizon])), _GL20)
    return float(wts @ (np.exp(-s * x) * W(ev, x)))


def verify_laplace_transform(ev: ScaleEvaluator, s: float, horizon: float) -> float:
    """Relative residual of int_0^inf e^{-sx} W_q(x) dx = 1/(psi(s)-q).

    The left side is numerical quadrature of W over [0, horizon], kept
    independent of the root/residue algebra behind the right side: a
    20-point Gauss-Legendre rule on each of 41 panels, with edges 0 and
    horizon * 2^-k, k = 40, ..., 0.  The integrand is a sum of decaying
    exponentials e^{-(s - s_j) x}.  On the panel [h, 2h] a term with
    (s - s_j) h <= 30 is integrated to rounding, and a faster one is
    already below e^{-30} of its value at 0, where the panels are
    narrow enough for any rate; so the rule needs no error estimate.
    """
    if s <= ev.phi_q:
        raise ValueError("s must exceed Phi(q)")
    target = 1.0 / (laplace_exponent(ev.spec, s) - ev.q)
    val = _laplace_integral(ev, s, horizon)
    return abs(val - target) / abs(target)
