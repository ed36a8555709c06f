"""Markov-modulated solver: post-switch averaging operator, one-switch value
mappings and the contraction iteration to the optimal barrier vector.

The value field lives on a uniform grid per state, extended linearly with
slope phi below 0 and slope 1 above the dividend barrier.  One iteration maps
the field through the post-switch payoff (hat) operator, re-solves the
single-regime barrier problem per state and re-evaluates the closed-form
value, which contracts in the sup metric with factor
max_i lambda_i / (lambda_i + delta_i).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .auxiliary import AuxProblem, barrier_root, value_derivative, z_inverse
from .errors import ModelError, NumericsError
from .levy import LevySpec, _mixture_error, validate
from .payoff import ConcavePayoff, concavify
from .scale import ScaleEvaluator, build_scale_evaluator
from .value_grid import _first_order, value_on_grid

_CONE_TOL = 1e-7


@dataclass(frozen=True)
class SwitchJump:
    """Distribution of the (nonpositive) jump applied at a regime switch:
    either a point mass at 0 or a negated hyperexponential mixture."""

    kind: str                                   # "none" | "hyperexp"
    mix: tuple[tuple[float, float], ...] = ()   # (weight, rate) of |J|


@dataclass(frozen=True, eq=False)
class RegimeModel:
    states: tuple[str, ...]
    switch_rates: np.ndarray        # off-diagonal lambda_ij >= 0
    discounts: np.ndarray           # delta_i > 0
    levy: tuple[LevySpec, ...]
    switch_jumps: dict              # (i, j) index pairs -> SwitchJump
    phi: float

    @property
    def n(self) -> int:
        return len(self.states)

    def lam(self, i: int) -> float:
        return float(np.sum(self.switch_rates[i]) - self.switch_rates[i, i])

    def q(self, i: int) -> float:
        return float(self.discounts[i]) + self.lam(i)

    def jump(self, i: int, j: int) -> SwitchJump:
        return self.switch_jumps.get((i, j), SwitchJump("none"))

    @cached_property
    def evaluators(self) -> tuple[ScaleEvaluator, ...]:
        """The scale evaluator of each state at q_i = delta_i + lambda_i,
        built once per model and shared by every iteration."""
        return tuple(build_scale_evaluator(self.levy[i], self.q(i))
                     for i in range(self.n))

    @property
    def beta(self) -> float:
        """Contraction factor max_i lambda_i / (lambda_i + delta_i)."""
        return max(self.lam(i) / (self.lam(i) + float(self.discounts[i]))
                   for i in range(self.n))


def validate_model(model: RegimeModel) -> str | None:
    if not 1 < model.phi < math.inf:
        return "phi must exceed 1 and be finite"
    if model.switch_rates.shape != (model.n, model.n):
        return "switch_rates shape mismatch"
    if np.shape(model.discounts) != (model.n,):
        return (f"discounts: expected one per state, shape ({model.n},), "
                f"got {np.shape(model.discounts)}")
    if len(model.levy) != model.n:
        return (f"levy: expected one LevySpec per state ({model.n}), "
                f"got {len(model.levy)}")
    for i, j in model.switch_jumps:
        if not (0 <= i < model.n and 0 <= j < model.n):
            return f"jump {i}->{j}: state index outside 0..{model.n - 1}"
    off = model.switch_rates - np.diag(np.diag(model.switch_rates))
    if not np.all((off >= 0) & (off < math.inf)):
        return "switch rates must be nonnegative and finite"
    for i in range(model.n):
        if model.lam(i) <= 0:
            return f"state {model.states[i]}: every state must switch (lambda_i > 0)"
        if not 0 < model.discounts[i] < math.inf:
            return f"state {model.states[i]}: discount must be positive and finite"
        diag = validate(model.levy[i])
        if diag is not None:
            return f"state {model.states[i]}: {diag}"
    for (i, j), sj in model.switch_jumps.items():
        if sj.kind not in ("none", "hyperexp"):
            return f"jump {i}->{j}: unknown kind"
        diag = _mixture_error(sj.mix) if sj.kind == "hyperexp" else None
        if diag is not None:
            return f"jump {i}->{j}: {diag}"
    return None


def require_valid_model(model: RegimeModel) -> None:
    diag = validate_model(model)
    if diag is not None:
        raise ModelError(diag)


@dataclass(frozen=True, eq=False)
class ValueField:
    """Per-state value function on a shared uniform grid, with slope-phi
    extension below 0 and slope-1 extension above the grid."""

    grid: np.ndarray                 # ascending, grid[0] = 0
    values: np.ndarray               # shape (n_states, len(grid))
    phi: float

    def at_zero(self, i: int) -> float:
        return float(self.values[i, 0])


def identity_field(model: RegimeModel, grid: np.ndarray) -> ValueField:
    vals = np.tile(grid, (model.n, 1))
    return ValueField(grid=grid, values=vals.copy(), phi=model.phi)


def rho_metric(f: ValueField, g: ValueField) -> float:
    """sup metric max_i sup_x |f(x,i) - g(x,i)| over grid and extensions.

    Both extensions have matching slopes (phi below 0, 1 above the grid), so
    the sup over each extension equals the gap at the adjoining grid
    boundary; the grid max therefore covers everything.
    """
    if f.grid.shape != g.grid.shape or not np.array_equal(f.grid, g.grid):
        raise ValueError("grid mismatch")
    return float(np.max(np.abs(f.values - g.values)))


def in_cone(f: ValueField, tol: float = _CONE_TOL) -> str | None:
    """Check per-state concavity and slope window [1, phi] on the grid."""
    h = np.diff(f.grid)
    for i in range(f.values.shape[0]):
        slopes = np.diff(f.values[i]) / h
        if np.any(slopes < 1.0 - tol) or np.any(slopes > f.phi + tol):
            return f"state {i}: slope outside [1, phi]"
        if np.any(np.diff(slopes) > tol):
            return f"state {i}: not concave"
    return None


# ---------------------------------------------------------------------------
# hat operator

def hat_operator(model: RegimeModel, f: ValueField, i: int) -> ConcavePayoff:
    """Expected continuation value in state i just after a regime switch.

    Averages the destination-state field over the switch jump, pricing the
    below-zero overshoot linearly at slope phi.  Point-mass jumps are exact;
    hyperexponential jumps integrate the piecewise-linear field in closed
    form via a per-rate forward recursion.  The average maps the concave
    cone into itself, so the sampled result is the payoff as it is, with
    tail slope pinned to 1; concavify only checks it.  f is not checked
    for the cone here: apply_T_sup does that once per iteration.
    """
    lam_i = model.lam(i)
    out = np.zeros_like(f.grid)
    for j in range(model.n):
        if j == i:
            continue
        rate = float(model.switch_rates[i, j])
        if rate == 0.0:
            continue
        p = rate / lam_i
        sj = model.jump(i, j)
        if sj.kind == "none":
            out += p * f.values[j]
        else:
            out += p * _hyperexp_average(f, j, sj)
    return concavify(np.column_stack((f.grid, out)), slope_tail=1.0)


def _hyperexp_average(f: ValueField, j: int, sj: SwitchJump) -> np.ndarray:
    """E[ f(x+J, j) 1{x+J>=0} + (phi(x+J)+f(0,j)) 1{x+J<0} ] on the grid,
    J = -|J| with |J| hyperexponential."""
    grid = f.grid
    vals = f.values[j]
    f0 = float(vals[0])
    phi = f.phi
    h = np.diff(grid)
    s = np.diff(vals) / h
    out = np.zeros(len(grid))
    for w, nu in sj.mix:
        # per segment: int_0^h (f_{m+1} - s z) nu e^{-nu z} dz
        e = np.exp(-nu * h)
        zint = (1.0 - e) / nu - h * e
        loc = vals[1:] * (1.0 - e) - s * zint
        # body: I(x) = int_0^x f(x-z, j) nu e^{-nu z} dz by forward recursion
        body = np.array([0.0] + _first_order(e, loc))
        # tail: int_x^inf (phi(x-z) + f(0,j)) nu e^{-nu z} dz
        tail = np.exp(-nu * grid) * (f0 - phi / nu)
        out += w * (body + tail)
    return out


# ---------------------------------------------------------------------------
# one-switch mappings and the fixed point

def _aux_problem(model: RegimeModel, i: int, pw: ConcavePayoff) -> AuxProblem:
    return AuxProblem(spec=model.levy[i], lam=model.lam(i),
                      delta=float(model.discounts[i]), phi=model.phi,
                      payoff=pw)


def apply_T_b(model: RegimeModel, f: ValueField, barriers) -> ValueField:
    """One-switch value mapping at a fixed barrier vector."""
    require_valid_model(model)
    barriers = np.asarray(barriers, dtype=float)
    new_vals = np.empty_like(f.values)
    for i in range(model.n):
        pw = hat_operator(model, f, i)
        problem = _aux_problem(model, i, pw)
        new_vals[i], _ = value_on_grid(problem, float(barriers[i]), f.grid,
                                       model.evaluators[i])
    return ValueField(grid=f.grid, values=new_vals, phi=model.phi)


def apply_T_sup(model: RegimeModel,
                f: ValueField) -> tuple[ValueField, np.ndarray]:
    """Optimal one-switch mapping: solve the single-regime barrier problem
    per state against the hat payoff and evaluate its value.  f must lie
    in the cone (concave, slopes in [1, phi]), checked once for all states."""
    require_valid_model(model)
    diag = in_cone(f)
    if diag is not None:
        raise ModelError(f"f not in cone: {diag}")
    barriers = np.empty(model.n)
    new_vals = np.empty_like(f.values)
    for i in range(model.n):
        pw = hat_operator(model, f, i)
        problem = _aux_problem(model, i, pw)
        sol = barrier_root(problem, model.evaluators[i])
        barriers[i] = sol.barrier
        new_vals[i], _ = value_on_grid(problem, sol.barrier, f.grid,
                                       sol.evaluator)
    return ValueField(grid=f.grid, values=new_vals, phi=model.phi), barriers


@dataclass(frozen=True, eq=False)
class RegimeSolution:
    model: RegimeModel
    value: ValueField
    barriers: np.ndarray
    iterations: int
    final_rho: float
    rho_trace: tuple[float, ...] = field(default_factory=tuple)

    def value_at(self, x: float, i: int) -> float:
        g, v = self.value.grid, self.value.values[i]
        if x < 0:
            return self.model.phi * x + float(v[0])
        if x > g[-1]:
            return float(v[-1]) + (x - g[-1])
        return float(np.interp(x, g, v))

    def smooth_fit_residuals(self, i: int) -> tuple[float, float]:
        """(|V'(b_i-) - 1|, |V'(0+) - phi|) via the closed-form derivative."""
        pw = hat_operator(self.model, self.value, i)
        problem = _aux_problem(self.model, i, pw)
        ev = self.model.evaluators[i]
        b = float(self.barriers[i])
        return (abs(value_derivative(problem, b, b, ev) - 1.0),
                abs(value_derivative(problem, b, 0.0, ev) - self.model.phi))


def default_x_max(model: RegimeModel) -> float:
    """4x the largest classical (no-payoff) single-regime barrier."""
    worst = 0.0
    for i in range(model.n):
        ev = build_scale_evaluator(model.levy[i], float(model.discounts[i]))
        worst = max(worst, z_inverse(ev, model.phi))
    return 4.0 * worst


def _solver_error(tol, max_iter, grid_points) -> str | None:
    """The first solve() setting out of range, as 'name: reason': tol
    finite and > 0, max_iter an integer >= 1, grid_points an integer >= 2.
    None when all three are valid."""
    if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
        return f"tol: must be positive and finite, got {tol!r}"
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        return f"max_iter: must be an integer >= 1, got {max_iter!r}"
    if not (isinstance(grid_points, numbers.Integral) and grid_points >= 2):
        return f"grid_points: must be an integer >= 2, got {grid_points!r}"
    return None


def solve(model: RegimeModel, seed: ValueField | None = None,
          tol: float = 1e-8, max_iter: int = 500,
          grid_points: int = 2000, x_max: float | None = None) -> RegimeSolution:
    """Iterate the optimal one-switch mapping to its fixed point.

    The grid is widened (and the solve restarted) whenever a barrier
    approaches the grid boundary, so truncation never silently biases the
    result.  A seed outside the cone raises ModelError; a field the solver
    made that leaves it raises NumericsError.
    """
    require_valid_model(model)
    diag = _solver_error(tol, max_iter, grid_points)
    if diag is not None:
        raise ValueError(diag)
    if x_max is None:
        x_max = default_x_max(model)

    while True:
        grid = np.linspace(0.0, x_max, grid_points + 1)
        f = seed if (seed is not None and len(seed.grid) == len(grid)
                     and np.array_equal(seed.grid, grid)) else \
            identity_field(model, grid)
        rho_trace = []
        regrow = False
        for it in range(1, max_iter + 1):
            try:
                f_new, barriers = apply_T_sup(model, f)
            except ModelError as e:
                # only the caller's seed is a model input
                if f is seed or not str(e).startswith("f not in cone"):
                    raise
                raise NumericsError(str(e)) from None
            if np.max(barriers) > 0.8 * x_max:
                regrow = True
                break
            rho = rho_metric(f, f_new)
            rho_trace.append(rho)
            f = f_new
            if rho < tol:
                return RegimeSolution(model=model, value=f, barriers=barriers,
                                      iterations=it, final_rho=rho,
                                      rho_trace=tuple(rho_trace))
        if regrow:
            x_max *= 2.0
            continue
        ratios = [b / a for a, b in zip(rho_trace[:-1], rho_trace[1:]) if a > 0]
        raise NumericsError(
            "no convergence: final rho %.3e after %d iterations "
            "(last decay ratio %.4f)" % (rho_trace[-1], max_iter,
                                         ratios[-1] if ratios else float("nan")))
