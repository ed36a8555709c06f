"""Markov-modulated solver: post-switch averaging operator, one-switch value
mappings and the contraction iteration to the optimal barrier vector.

The value field lives on a uniform grid per state, extended linearly with
slope phi below 0 and slope 1 above the dividend barrier.  The fixed point
is one loop over each state's local problem (_aux_problem): its single-regime
barrier problem with the hat of the field, the post-switch average, as final
payoff.  The loop's map T contracts in the sup metric with factor
beta = max_i lambda_i / (lambda_i + delta_i); a barrier near the grid end
makes the solve a fresh one on a grid twice as long.

T is exact on constant shifts: a payoff raised by k pays lambda_i k / q_i
more and keeps its barrier, so T(f + c) = T(f) + M c for a constant c_i
per state, with M_ij = lambda_ij / q_i off the diagonal.  Each iteration
therefore solves its constant part exactly (MacQueen 1966, Porteus 1971):
the shift c = (I - M)^-1 mid, mid_i the midrange of row i of T f - f,
centres every row of T(f + c) - (f + c) on 0, and iterating
T(f + c) = T f + M c leaves only the non-constant part, which shrinks far
faster than beta.

A RegimeModel checks itself when it is built, so an iteration runs no
model checks, and it redoes no per-grid work: each state's scale evaluator
is built once per model and keeps the Z_q table of the hat payoff's knots,
the grid, so the barrier root tabulates it once per state and grid.  A
hyperexponential hat average solves its recurrence for all rates with
value_grid._scan, the package's one recurrence solver.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .auxiliary import AuxProblem, barrier_root, value_derivative, z_inverse
from .errors import ModelError, NumericsError
from .levy import LevySpec, _mixture_error
from .payoff import ConcavePayoff, concavify
from .scale import ScaleEvaluator, build_scale_evaluator
from .value_grid import _scan, value_on_grid

_CONE_TOL = 1e-7


@dataclass(frozen=True)
class SwitchJump:
    """Distribution of the (nonpositive) jump applied at a regime switch:
    either a point mass at 0 or a negated hyperexponential mixture."""

    kind: str                                   # "none" | "hyperexp"
    mix: tuple[tuple[float, float], ...] = ()   # (weight, rate) of |J|


@dataclass(frozen=True, eq=False)
class RegimeModel:
    """A Markov additive model: the switching chain, one LevySpec per
    state, the jumps at each switch and the per-state discounts.  Building
    one raises ModelError naming the first rule it breaks.  It keeps
    read-only copies of its fields (switch_rates and discounts as float
    arrays), so a model that exists stays valid."""

    states: tuple[str, ...]
    switch_rates: np.ndarray        # off-diagonal lambda_ij >= 0
    discounts: np.ndarray           # delta_i > 0
    levy: tuple[LevySpec, ...]
    switch_jumps: Mapping           # (i, j) index pairs -> SwitchJump
    phi: float

    def __post_init__(self):
        for name in ("switch_rates", "discounts"):
            try:
                arr = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                raise ModelError(f"{name}: expected an array of numbers") \
                    from None
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "levy", tuple(self.levy))
        object.__setattr__(self, "switch_jumps",
                           MappingProxyType(dict(self.switch_jumps)))
        n = self.n
        if not 1 < self.phi < math.inf:
            raise ModelError("phi must exceed 1 and be finite")
        if self.switch_rates.shape != (n, n):
            raise ModelError("switch_rates shape mismatch")
        if self.discounts.shape != (n,):
            raise ModelError(f"discounts: expected one per state, shape "
                             f"({n},), got {self.discounts.shape}")
        if len(self.levy) != n:
            raise ModelError(f"levy: expected one LevySpec per state ({n}), "
                             f"got {len(self.levy)}")
        for i, j in self.switch_jumps:
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError(f"jump {i}->{j}: state index outside "
                                 f"0..{n - 1}")
        off = self.switch_rates[~np.eye(n, dtype=bool)]
        if not (np.all(np.isfinite(self.switch_rates)) and np.all(off >= 0)):
            raise ModelError("switch rates must be nonnegative and finite")
        for i, s in enumerate(self.states):
            if self.lam(i) <= 0:
                raise ModelError(f"state {s}: every state must switch "
                                 f"(lambda_i > 0)")
            if not 0 < self.discounts[i] < math.inf:
                raise ModelError(f"state {s}: discount must be positive and "
                                 f"finite")
            if not self.lam(i) / self.q(i) < 1:
                raise ModelError(f"state {s}: discount vanishes next to "
                                 f"lambda_i in float64, so beta rounds to 1")
            if not isinstance(self.levy[i], LevySpec):
                raise ModelError(f"state {s}: levy must be a LevySpec")
        for (i, j), sj in self.switch_jumps.items():
            if sj.kind not in ("none", "hyperexp"):
                raise ModelError(f"jump {i}->{j}: unknown kind")
            diag = _mixture_error(sj.mix) if sj.kind == "hyperexp" else None
            if diag is not None:
                raise ModelError(f"jump {i}->{j}: {diag}")

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


def checked_barriers(model: RegimeModel, barriers) -> np.ndarray:
    """The barrier vector as floats: one per state, each positive and
    finite, or ModelError."""
    barriers = np.asarray(barriers, dtype=float)
    if barriers.shape != (model.n,):
        raise ModelError(f"need one barrier per state: expected shape "
                         f"({model.n},), got {barriers.shape}")
    if not np.all((barriers > 0) & (barriers < math.inf)):
        raise ModelError("barriers must be positive and finite")
    return barriers


@dataclass(frozen=True, eq=False)
class ValueField:
    """Per-state value function on a shared uniform grid, with slope-phi
    extension below 0 and slope-1 extension above the grid.  It checks its
    grid and columns when built (ModelError); solve checks the rows."""

    grid: np.ndarray                 # ascending, grid[0] = 0
    values: np.ndarray               # shape (n_states, len(grid))
    phi: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", np.asarray(self.values, float))
        # NaN fails the comparison, and inf could only be the last point
        if grid.ndim != 1 or not len(grid) or grid[0] != 0.0 or not (
                (grid[1:] > grid[:-1]).all() and grid[-1] < math.inf):
            raise ModelError("grid: must be 1-d, finite and strictly "
                             "ascending from 0")
        if self.values.ndim != 2 or self.values.shape[1] != len(grid):
            raise ModelError(f"values: expected one column per grid point "
                             f"({len(grid)}), got {self.values.shape}")

    def at_zero(self, i: int) -> float:
        return float(self.values[i, 0])


def identity_field(model: RegimeModel, grid: np.ndarray) -> ValueField:
    return ValueField(grid, np.tile(grid, (model.n, 1)), model.phi)


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
    """Check per-state finiteness, concavity and slope window [1, phi] on
    the grid."""
    h = np.diff(f.grid)
    for i in range(f.values.shape[0]):
        if not np.all(np.isfinite(f.values[i])):
            return f"state {i}: non-finite value"
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
    J = -|J| with |J| hyperexponential.

    Per rate nu, the body I(x_m) = int_0^{x_m} f(x_m - z, j) nu e^{-nu z} dz
    obeys I(x_m) = e_m I(x_{m-1}) + loc_m from I(0) = 0, e_m = exp(-nu h_m),
    loc_m the exact integral over the segment below x_m; value_grid._scan
    solves it for all rates at once, as (segments, rates) arrays, and agrees
    with the point-by-point recursion to rounding.  The tail
    int_x^inf (phi(x-z) + f(0,j)) nu e^{-nu z} dz is closed form.
    """
    grid, vals, phi = f.grid, f.values[j], f.phi
    w, nu = np.array(sj.mix, dtype=float).T
    h = np.diff(grid)[:, None]
    s = np.diff(vals)[:, None] / h
    a = np.exp(-nu * h)
    # per segment: int_0^h (f_{m+1} - s z) nu e^{-nu z} dz
    y = vals[1:, None] * (1.0 - a) - s * ((1.0 - a) / nu - h * a)
    body = np.vstack((np.zeros_like(nu), _scan(a, y)))
    tail = np.exp(-np.outer(grid, nu)) * (vals[0] - phi / nu)
    return (body + tail) @ w


# ---------------------------------------------------------------------------
# one-switch mappings and the fixed point

def _aux_problem(model: RegimeModel, f: ValueField, i: int) -> AuxProblem:
    """State i's local problem: its barrier problem, the hat of f as payoff."""
    return AuxProblem(spec=model.levy[i], lam=model.lam(i),
                      delta=float(model.discounts[i]), phi=model.phi,
                      payoff=hat_operator(model, f, i))


def apply_T_b(model: RegimeModel, f: ValueField, barriers) -> ValueField:
    """One-switch value mapping at a fixed barrier vector."""
    barriers = checked_barriers(model, barriers)
    new_vals = np.empty_like(f.values)
    for i in range(model.n):
        new_vals[i], _ = value_on_grid(_aux_problem(model, f, i),
                                       float(barriers[i]), f.grid,
                                       model.evaluators[i])
    return ValueField(grid=f.grid, values=new_vals, phi=model.phi)


def apply_T_sup(model: RegimeModel,
                f: ValueField) -> tuple[ValueField, np.ndarray]:
    """Optimal one-switch mapping: each state's local problem solved and
    evaluated.  f must lie in the cone (concave, slopes in [1, phi])."""
    diag = in_cone(f)
    if diag is not None:
        raise ModelError(f"f not in cone: {diag}")
    barriers = np.empty(model.n)
    new_vals = np.empty_like(f.values)
    for i in range(model.n):
        problem = _aux_problem(model, f, i)
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
        problem = _aux_problem(self.model, self.value, i)
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


def _solver_error(tol, max_iter, grid_points, x_max=None) -> str | None:
    """The first solve() setting out of range, as 'name: reason': tol
    finite and > 0, max_iter an integer >= 1, grid_points an integer >= 2,
    x_max None or finite and > 0.  None when all four are valid."""
    if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
        return f"tol: must be positive and finite, got {tol!r}"
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        return f"max_iter: must be an integer >= 1, got {max_iter!r}"
    if not (isinstance(grid_points, numbers.Integral) and grid_points >= 2):
        return f"grid_points: must be an integer >= 2, got {grid_points!r}"
    if x_max is not None and not (isinstance(x_max, numbers.Real)
                                  and 0 < x_max < math.inf):
        return f"x_max: must be positive and finite, got {x_max!r}"
    return None


def solve(model: RegimeModel, seed: ValueField | None = None,
          tol: float = 1e-8, max_iter: int = 500,
          grid_points: int = 2000, x_max: float | None = None) -> RegimeSolution:
    """Iterate the optimal one-switch mapping to its fixed point, with a
    level shift per iteration (see the module docstring).

    Iteration k computes g = T f and the shift c, and its rho_trace entry
    is sup |T(f + c) - (f + c)| = max_i (max_x d_i - min_x d_i) / 2 for
    d = g - f, read off with no second call of T.  Once that is below tol
    the solution is f + c with the barriers of that T call: the roots of
    the returned field's own local problems, so smooth fit holds to
    rounding.  final_rho is the returned field's fixed-point residual, so
    its distance to the fixed point is at most final_rho / (1 - beta).
    Otherwise the next f is g + M c, which is T(f + c); every shift keeps
    the rows' slopes, so the field stays in the cone.

    A barrier past 0.8 x_max makes it a fresh solve, from the identity
    field on a grid to 2 x_max, so truncation never silently biases the
    result.  A setting out of range, or a seed off the grid
    (linspace(0, x_max, grid_points + 1)), with other than one row per
    state, or outside the cone, raises ModelError; a field the solver made
    that leaves the cone raises NumericsError.
    """
    diag = _solver_error(tol, max_iter, grid_points, x_max)
    if diag is not None:
        raise ModelError(diag)
    if seed is not None and len(seed.values) != model.n:
        raise ModelError(f"seed: expected one row per state, shape "
                         f"({model.n}, {len(seed.grid)}), got "
                         f"{seed.values.shape}")
    if x_max is None:
        x_max = default_x_max(model)
    grid = np.linspace(0.0, x_max, grid_points + 1)
    if seed is not None and not np.array_equal(seed.grid, grid):
        raise ModelError(f"seed: expected the solve's grid, {len(grid)} "
                         f"points to {x_max:.6g}, got {len(seed.grid)} "
                         f"points to {seed.grid[-1]:.6g}")
    f = seed if seed is not None else identity_field(model, grid)

    # T(f + c) = T(f) + M c for a constant c_i per state, M_ij = lambda_ij/q_i
    m = model.switch_rates * (1.0 - np.eye(model.n))
    m /= [[model.q(i)] for i in range(model.n)]
    shift = np.linalg.inv(np.eye(model.n) - m)
    rho_trace = []
    for it in range(1, max_iter + 1):
        try:
            g, barriers = apply_T_sup(model, f)
        except ModelError as e:
            # only the caller's seed is a model input
            if f is seed:
                raise
            raise NumericsError(str(e)) from None
        if np.max(barriers) > 0.8 * x_max:
            return solve(model, None, tol, max_iter, grid_points, 2.0 * x_max)
        d = g.values - f.values
        hi, lo = d.max(axis=1), d.min(axis=1)
        # the shift c centres every row of T(f + c) - (f + c) on 0
        c = shift @ ((hi + lo) / 2.0)
        rho = float(np.max(hi - lo) / 2.0)
        rho_trace.append(rho)
        if rho < tol:
            return RegimeSolution(
                model=model, value=ValueField(grid, f.values + c[:, None],
                                              model.phi),
                barriers=barriers, iterations=it, final_rho=rho,
                rho_trace=tuple(rho_trace))
        f = ValueField(grid, g.values + (m @ c)[:, None], model.phi)
    ratios = [b / a for a, b in zip(rho_trace[:-1], rho_trace[1:]) if a > 0]
    raise NumericsError(
        "no convergence: final rho %.3e after %d iterations "
        "(last decay ratio %.4f)" % (rho_trace[-1], max_iter,
                                     ratios[-1] if ratios else float("nan")))
