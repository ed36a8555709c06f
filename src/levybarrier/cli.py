"""Command-line entry point.

Commands: solve-aux, solve-regime, simulate, verify, curve.  One config file
drives every command; reports are plain key=value text plus CSV sidecars.
Exit codes: 0 success, 2 config error, 3 solver error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .auxiliary import (AuxProblem, barrier_root, dominance_gap, hjb_residual,
                        value, value_derivative)
from .config import (ConfigError, aux_inputs_from, parse_config,
                     regime_model_from, sim_config_from, solver_options_from)
from .errors import ModelError, NumericsError
from .regime import apply_T_sup, identity_field, rho_metric, solve
from .scale import (_scale_sums, exit_identities_analytic,
                    verify_laplace_transform)
from .simulate import (estimate_exit_identities, simulate_aux_npv,
                       simulate_regime_npv)
from .value_grid import value_on_grid


def _g17(v: float) -> str:
    return "%.17g" % v


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    """Write rows as out_dir/name, creating out_dir if need be."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_g17(v) for v in row))
    (d / name).write_text("\n".join(lines) + "\n")


# argparse settings of every option but --config
_FLAGS = {"out": {}, "paths": {"type": int}, "dt": {"type": float},
          "tmax": {"type": float}, "seed": {"type": int}, "state": {},
          "x0": {"type": float},
          "antithetic": {"action": "store_true", "default": None},
          "barrier": {"help": "comma-separated barrier override"}}
_SIM_FLAGS = ("paths", "dt", "tmax", "seed", "state", "antithetic")
# each command takes only the options it reads
_COMMAND_FLAGS = {"solve-aux": ("out", "state"), "solve-regime": ("out",),
                  "simulate": ("out", "x0", "barrier") + _SIM_FLAGS,
                  "verify": _SIM_FLAGS, "curve": ("out", "state", "x0")}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="levybarrier")
    sub = p.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        for flag, kwargs in _FLAGS.items():
            if flag in flags:
                sp.add_argument("--" + flag, **kwargs)
    return p


def _aux_problem(tree, state):
    """The config's single-regime problem, on the Levy section of `state`
    (the first one by default)."""
    spec, lam, delta, phi, payoff = aux_inputs_from(tree, state)
    return AuxProblem(spec=spec, lam=lam, delta=delta, phi=phi, payoff=payoff)


def _aux_solution(tree, state):
    """The config's single-regime problem and its barrier solution."""
    problem = _aux_problem(tree, state)
    return problem, barrier_root(problem)


def _regime_solution(tree):
    """The config's regime model, solved under the config's solver options
    (the model is the solution's `model`)."""
    return solve(regime_model_from(tree), **solver_options_from(tree))


def _sim_config(tree, args, q_min: float):
    """The config's [sim] settings under the command-line overrides,
    checked against the run's smallest discount rate q_min before any
    solve, so a bad setting fails at once."""
    config = sim_config_from(tree, paths=args.paths, dt=args.dt,
                             tmax=args.tmax, seed=args.seed,
                             antithetic=args.antithetic)
    config.check(q_min)
    return config


def _solve_aux(tree, args, out):
    problem, sol = _aux_solution(tree, args.state)
    b, ev, phi = sol.barrier, sol.evaluator, problem.phi
    print(f"barrier={_g17(b)}", file=out)
    print(f"value_at_zero={_g17(value(problem, b, 0.0, ev))}", file=out)
    print(f"value_at_barrier={_g17(value(problem, b, b, ev))}", file=out)
    print("smooth_fit_barrier_residual="
          + _g17(abs(value_derivative(problem, b, b, ev) - 1.0)), file=out)
    print("smooth_fit_zero_residual="
          + _g17(abs(value_derivative(problem, b, 0.0, ev) - phi)), file=out)
    if args.out:
        xs = np.linspace(0.0, 2.0 * b, 101)
        vals, derivs = value_on_grid(problem, b, xs, ev)
        res = [hjb_residual(problem, b, float(x), ev) if x > 0
               else float("nan") for x in xs]
        _write_csv(args.out, "value_curve.csv",
                   ["x", "V", "V_prime", "hjb_residual"],
                   zip(xs, vals, derivs, res))
    return 0


def _solve_regime(tree, args, out):
    sol = _regime_solution(tree)
    model = sol.model
    for n, rho in enumerate(sol.rho_trace, start=1):
        line = f"iter={n} rho={_g17(rho)}"
        if n == len(sol.rho_trace):
            line += " " + " ".join(
                f"b_{s}={_g17(b)}" for s, b in zip(model.states, sol.barriers))
        print(line, file=out)
    for s, b in zip(model.states, sol.barriers):
        print(f"barrier_{s}={_g17(b)}", file=out)
    print(f"iterations={sol.iterations}", file=out)
    print(f"final_rho={_g17(sol.final_rho)}", file=out)
    print(f"beta={_g17(model.beta)}", file=out)
    for i, s in enumerate(model.states):
        print(f"value_at_zero_{s}={_g17(sol.value.at_zero(i))}", file=out)
    if args.out:
        for i, s in enumerate(model.states):
            _write_csv(args.out, f"curve_{s}.csv", ["x", "V"],
                       zip(sol.value.grid, sol.value.values[i]))
    return 0


def _parse_barriers(arg: str | None, n: int):
    """The --barrier override: exactly one positive value per state."""
    if arg is None:
        return None
    try:
        vals = [float(tok) for tok in arg.split(",")]
    except ValueError:
        raise ConfigError(f"--barrier: expected comma-separated numbers, "
                          f"got {arg!r}") from None
    if len(vals) != n:
        raise ConfigError(f"--barrier: expected {n} value(s), one per "
                          f"state, got {len(vals)}")
    if not all(math.isfinite(v) and v > 0 for v in vals):
        raise ConfigError("--barrier: values must be positive and finite")
    return vals


def _simulate(tree, args, out):
    rows = []
    if "chain" in tree:
        model = regime_model_from(tree)
        config = _sim_config(tree, args, float(np.min(model.discounts)))
        if args.barrier is None:
            sol = solve(model, **solver_options_from(tree))
            barriers = sol.barriers
        else:
            barriers = np.asarray(_parse_barriers(args.barrier, model.n))
        if args.state is None:
            i0 = 0
        elif args.state in model.states:
            i0 = model.states.index(args.state)
        else:
            raise ConfigError(f"--state: unknown state {args.state!r}")
        x0 = args.x0 if args.x0 is not None else float(barriers[i0])
        analytic = (sol.value_at(x0, i0) if args.barrier is None
                    else float("nan"))
        est = simulate_regime_npv(model, barriers, x0, i0, config)
    else:
        override = _parse_barriers(args.barrier, 1)
        problem = _aux_problem(tree, args.state)
        config = _sim_config(tree, args, problem.q)
        sol = barrier_root(problem)
        b = override[0] if override is not None else sol.barrier
        x0 = args.x0 if args.x0 is not None else b
        analytic = value(problem, b, x0, sol.evaluator)
        est = simulate_aux_npv(problem.spec, problem.payoff, problem.lam,
                               problem.delta, problem.phi, b, x0, config)
    rows.append((est.mean, est.std_error, analytic))
    print("mean,std_error,analytic", file=out)
    for row in rows:
        print(",".join(_g17(v) for v in row), file=out)
    if args.out:
        _write_csv(args.out, "simulate.csv", ["mean", "std_error", "analytic"],
                   rows)
    return 0


def _curve(tree, args, out):
    if args.x0 is not None and not 0 < args.x0 < math.inf:
        raise ConfigError("--x0: the curve's right end must be positive and "
                          "finite")
    _, sol = _aux_solution(tree, args.state)
    ev = sol.evaluator
    hi = args.x0 if args.x0 is not None else 2.0 * sol.barrier
    xs = np.linspace(0.0, hi, 201)
    rows = list(zip(xs, *_scale_sums(ev, xs)[:3]))     # W, Z, Zbar
    print("x,W,Z,Zbar", file=out)
    for row in rows:
        print(",".join(_g17(v) for v in row), file=out)
    if args.out:
        _write_csv(args.out, "scale_curve.csv", ["x", "W", "Z", "Zbar"], rows)
    return 0


# ---------------------------------------------------------------------------
# verification battery

def _run_verify(tree, args, out):
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))
        print(("PASS " if ok else "FAIL ") + name + " " + detail, file=out)

    problem = _aux_problem(tree, args.state)
    # the exit identities discount at the problem's q
    config = _sim_config(tree, args, problem.q)
    sol = barrier_root(problem)
    ev, b, phi = sol.evaluator, sol.barrier, problem.phi

    # Laplace transform residuals of W_q
    for k in range(1, 6):
        s = ev.phi_q + 0.1 + 0.6 * k
        horizon = min(ev.x_cap, 60.0 / (s - ev.phi_q))
        res = verify_laplace_transform(ev, s, horizon)
        record("laplace", res < 1e-6, f"s={_g17(s)} residual={_g17(res)}")

    # smooth fit at both boundaries
    r_b = abs(value_derivative(problem, b, b, ev) - 1.0)
    r_0 = abs(value_derivative(problem, b, 0.0, ev) - phi)
    record("smooth_fit_barrier", r_b <= 1e-8, f"residual={_g17(r_b)}")
    record("smooth_fit_zero", r_0 <= 1e-8, f"residual={_g17(r_0)}")

    # generator residuals on and above the barrier
    worst_in = worst_above = 0.0
    xs = np.linspace(b / 25, b, 25)
    for x, vx in zip(xs, value_on_grid(problem, b, xs, ev)[0]):
        worst_in = max(worst_in,
                       abs(hjb_residual(problem, b, float(x), ev))
                       / (1.0 + abs(vx)))
    for x in np.linspace(1.02 * b, 2.0 * b, 10):
        worst_above = max(worst_above, hjb_residual(problem, b, float(x), ev))
    record("hjb_interior", worst_in <= 1e-6, f"max={_g17(worst_in)}")
    record("hjb_above", worst_above <= 1e-8, f"max={_g17(worst_above)}")

    # barrier dominance
    grid = np.linspace(0.0, 2.0 * b, 80)
    for factor in (0.5, 2.0):
        gap = dominance_gap(problem, factor * b, grid, ev, sol)
        ok = (gap.min() >= -1e-9) and np.all(np.diff(gap) >= -1e-9)
        record("dominance", ok,
               f"b={_g17(factor * b)} min_gap={_g17(float(gap.min()))}")

    # exit identities against MC
    x = 0.5 * b
    ests = estimate_exit_identities(problem.spec, problem.q, b, x, config)
    targets = exit_identities_analytic(ev, b, x)
    names = ("exit_down", "exit_up", "exit_reflected")
    for name, est, target in zip(names, ests, targets):
        gap = abs(est.mean - target)
        tol = 3.0 * est.std_error + 1e-12
        record(name, gap <= tol,
               f"mc={_g17(est.mean)} analytic={_g17(target)} "
               f"se={_g17(est.std_error)}")

    # contraction ratio of the optimal one-switch mapping T itself, between
    # the solution and the identity field (the solver's trace decays faster)
    if "chain" in tree:
        rsol = _regime_solution(tree)
        model, f = rsol.model, rsol.value
        g = identity_field(model, f.grid)
        ratio = (rho_metric(apply_T_sup(model, f)[0], apply_T_sup(model, g)[0])
                 / rho_metric(f, g))
        record("contraction", ratio <= model.beta + 0.05,
               f"ratio={_g17(ratio)} beta={_g17(model.beta)}")

    return 0 if all(ok for _, ok, _ in checks) else 4


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        print(f"config: {e}", file=sys.stderr)
        return 2
    try:
        tree = parse_config(text)
        dispatch = {"solve-aux": _solve_aux, "solve-regime": _solve_regime,
                    "simulate": _simulate, "verify": _run_verify,
                    "curve": _curve}
        return dispatch[args.command](tree, args, sys.stdout)
    except ModelError as e:
        print(str(e), file=sys.stderr)
        return 2
    except NumericsError as e:
        print(str(e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
