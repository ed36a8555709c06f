"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Each test prints its verdict line before asserting, so a failing run still
shows the per-criterion summary (run pytest with -s or read the captured
output).  The Monte Carlo criteria (2 and 9) dominate the runtime.
"""
import math
import time

import numpy as np
import pytest

import levybarrier as lb
from levybarrier.regime import default_x_max, identity_field

Q = 1.0


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _analytic_exits(ev, b, x):
    wu, wb = lb.W(ev, b - x), lb.W(ev, b)
    down = wu / wb
    up = lb.Z(ev, b - x) - lb.Z(ev, b) * wu / wb
    refl = lb.Z(ev, b - x) / lb.Z(ev, b)
    return down, up, refl


def test_criterion_1_laplace_transform(three_specs):
    t0 = time.time()
    worst = 0.0
    for spec in three_specs:
        ev = lb.build_scale_evaluator(spec, Q)
        for k in range(5):
            s = ev.phi_q + 0.1 + 0.6 * k
            horizon = 40.0 / (s - ev.phi_q)
            worst = max(worst, abs(lb.verify_laplace_transform(ev, s,
                                                               horizon)))
    dt = time.time() - t0
    _report(1, "scale-function Laplace transform",
            worst < 1e-6 and dt < 1.0,
            f"max residual {worst:.2e}, {dt:.2f}s")


@pytest.mark.slow
def test_criterion_2_exit_identities(three_specs):
    b = 2.0
    cfg = lb.SimConfig(n_paths=200_000, dt=1e-3, t_max=19.0, rng_seed=42)
    worst_z, worst_time = 0.0, 0.0
    for spec in three_specs:
        t0 = time.time()
        ev = lb.build_scale_evaluator(spec, Q)
        for x in (0.25 * b, 0.5 * b, 0.75 * b):
            est = lb.estimate_exit_identities(spec, Q, b, x, cfg)
            exact = _analytic_exits(ev, b, x)
            for e, a in zip(est, exact):
                worst_z = max(worst_z, abs(e.mean - a) / e.std_error)
        worst_time = max(worst_time, time.time() - t0)
    _report(2, "exit identities vs Monte Carlo",
            worst_z <= 3.0 and worst_time < 120.0,
            f"max |z| {worst_z:.2f}, slowest model {worst_time:.0f}s")


def test_criterion_3_smooth_fit(twelve_cases):
    t0 = time.time()
    worst = 0.0
    for prob in twelve_cases:
        sol = lb.barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        worst = max(worst,
                    abs(lb.value_derivative(prob, b, b, ev) - 1.0),
                    abs(lb.value_derivative(prob, b, 0.0, ev) - prob.phi))
    dt = time.time() - t0
    _report(3, "smooth fit on the 12-case grid",
            worst <= 1e-8 and dt < 1.0,
            f"max residual {worst:.2e}, {dt:.2f}s")


def test_criterion_4_classical_anchor(brownian_spec, linear_payoff):
    prob = lb.AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                         payoff=linear_payoff)
    b = lb.barrier_root(prob).barrier
    err = abs(b - math.acosh(2.0))
    _report(4, "classical barrier anchor arccosh(2)", err <= 1e-6,
            f"barrier {b:.10f}, error {err:.2e}")


def test_criterion_5_barrier_dominance(twelve_cases):
    t0 = time.time()
    min_gap, min_step = np.inf, np.inf
    for prob in twelve_cases:
        sol = lb.barrier_root(prob)
        grid = np.linspace(0.0, 4.0 * sol.barrier, 200)
        for factor in (0.25, 0.5, 2.0, 4.0):
            gap = lb.dominance_gap(prob, factor * sol.barrier, grid,
                                   sol.evaluator, sol)
            min_gap = min(min_gap, float(gap.min()))
            min_step = min(min_step, float(np.diff(gap).min()))
    dt = time.time() - t0
    _report(5, "barrier dominance",
            min_gap >= -1e-9 and min_step >= -1e-9 and dt < 5.0,
            f"min gap {min_gap:.2e}, min increment {min_step:.2e}, "
            f"{dt:.1f}s")


def test_criterion_6_hjb_residuals(twelve_cases):
    t0 = time.time()
    worst_in, worst_above = 0.0, -np.inf
    for prob in twelve_cases:
        sol = lb.barrier_root(prob)
        b, ev = sol.barrier, sol.evaluator
        for x in np.linspace(b / 50.0, b, 50):
            r = lb.hjb_residual(prob, b, float(x), ev)
            v = lb.value(prob, b, float(x), ev)
            worst_in = max(worst_in, abs(r) / (1.0 + abs(v)))
        for x in np.linspace(1.02 * b, 3.0 * b, 50):
            worst_above = max(worst_above,
                              lb.hjb_residual(prob, b, float(x), ev))
    dt = time.time() - t0
    _report(6, "generator residuals inside and above the barrier",
            worst_in <= 1e-6 and worst_above <= 1e-8 and dt < 30.0,
            f"max inside {worst_in:.2e}, max above {worst_above:.2e}, "
            f"{dt:.1f}s")


def test_criterion_7_contraction_rate(two_state_model, three_state_model):
    t0 = time.time()
    detail = []
    ok = True
    for model in (two_state_model, three_state_model):
        beta = model.beta
        sol = lb.solve(model, tol=1e-9, grid_points=1500)
        trace = sol.rho_trace
        ratios = [trace[k + 1] / trace[k] for k in range(len(trace) - 2)]
        worst = max(ratios)
        ok = ok and worst <= beta + 1e-3
        detail.append(f"max ratio {worst:.4f} vs beta {beta:.4f}")
    dt = time.time() - t0
    _report(7, "contraction rate of the optimal one-switch mapping",
            ok and dt < 30.0, "; ".join(detail) + f", {dt:.1f}s")


def test_criterion_8_fixed_point_stability(two_state_model):
    t0 = time.time()
    model = two_state_model
    tol = 1e-9
    sol_a = lb.solve(model, tol=tol, grid_points=1500)

    x_max = default_x_max(model)
    grid = np.linspace(0.0, x_max, 1501)
    seed = identity_field(model, grid)
    # A different admissible start: slope phi near 0, slope 1 beyond.
    seed.values[:] = np.minimum(model.phi * grid, grid + 1.0)
    sol_b = lb.solve(model, seed=seed, tol=tol, grid_points=1500)

    barrier_gap = float(np.max(np.abs(sol_a.barriers - sol_b.barriers)))
    extra, _ = lb.apply_T_sup(model, sol_a.value)
    move = lb.rho_metric(extra, sol_a.value)
    dt = time.time() - t0
    _report(8, "fixed-point stability",
            barrier_gap <= 1e-6 and move <= 2.0 * tol and dt < 60.0,
            f"two-seed barrier gap {barrier_gap:.2e}, extra-step move "
            f"{move:.2e} vs 2*tol {2 * tol:.0e}, {dt:.0f}s")


@pytest.mark.slow
def test_criterion_9_regime_npv_monte_carlo(two_state_model):
    t0 = time.time()
    model = two_state_model
    sol = lb.solve(model, tol=1e-9, grid_points=1500)
    cfg = lb.SimConfig(n_paths=200_000, dt=2e-3, t_max=12.0, rng_seed=17)

    worst_z = 0.0
    detail = []
    points = [(0.0, 0), (0.5 * float(sol.barriers[0]), 0),
              (float(sol.barriers[1]), 1)]
    base = None
    for x0, i0 in points:
        est = lb.simulate_regime_npv(model, sol.barriers, x0, i0, cfg)
        exact = sol.value_at(x0, i0)
        z = (est.mean - exact) / est.std_error
        worst_z = max(worst_z, abs(z))
        detail.append(f"z({x0:.2f},{i0})={z:+.2f}")
        if (x0, i0) == points[1]:
            base = est

    # Common-random-number comparison: a perturbed barrier vector must not
    # beat the optimal one by more than noise.  Seed reuse pairs the paths,
    # so the run above at the same start point serves as the baseline.
    x0c, i0c = points[1]
    worst_excess = -np.inf
    for factor in (0.8, 1.25):
        pert = lb.simulate_regime_npv(model, factor * sol.barriers,
                                      x0c, i0c, cfg)
        excess = ((pert.mean - base.mean)
                  / math.hypot(pert.std_error, base.std_error))
        worst_excess = max(worst_excess, excess)
    dt = time.time() - t0
    _report(9, "regime-switching value vs Monte Carlo",
            worst_z <= 3.0 and worst_excess <= 3.0 and dt < 600.0,
            ", ".join(detail) + f"; max perturbed excess "
            f"{worst_excess:+.2f} SE, {dt:.0f}s")


def test_criterion_10_degenerate_collapse(symmetric_two_state,
                                          linear_payoff):
    t0 = time.time()
    model = symmetric_two_state
    sol = lb.solve(model, tol=1e-9, grid_points=1500)
    prob = lb.AuxProblem(spec=model.levy[0], lam=0.0,
                         delta=float(model.discounts[0]), phi=model.phi,
                         payoff=linear_payoff)
    single = lb.barrier_root(prob).barrier
    gap = float(np.max(np.abs(sol.barriers - single)))
    dt = time.time() - t0
    _report(10, "degenerate-regime collapse", gap <= 1e-5 and dt < 10.0,
            f"barrier gap {gap:.2e} vs single-regime {single:.8f}, "
            f"{dt:.1f}s")
