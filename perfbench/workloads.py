"""The three workloads: their op lists, set-up and per-op correctness gates.

An op is one unit of work that the benchmark times and checks.  ``run`` is
the timed call; ``check`` looks at its output afterwards, outside the timed
span, and returns a failure reason or None.  Every gate uses a bound the
repository already applies (acceptance battery, ``verify`` command, tests).

All library calls go through module attributes (``regime.solve``, not a
name bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from levybarrier import auxiliary, cli, config, regime, scale

import inputs


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    text: str = ""          # the generated input, for the input fingerprint


# ---------------------------------------------------------------------------
# regime-fixed-point: one regime.solve to tol = 1e-8 per op

def _regime_check(tol: float):
    def check(sol) -> str | None:
        if not sol.final_rho < tol:
            return f"final_rho {sol.final_rho:.3e} >= tol {tol:.0e}"
        for i in range(sol.model.n):
            worst = max(sol.smooth_fit_residuals(i))
            if worst > 1e-8:
                return f"state {i}: smooth-fit residual {worst:.3e}"
        return None
    return check


def regime_ops(seed: int, small: bool) -> list[Op]:
    if small:
        texts = inputs.regime_anchors(grid_scale=0.15)[:1] + \
            inputs.seeded_regime(seed, schedule=((2, 300), (3, 300)))
    else:
        texts = inputs.regime_anchors() + inputs.seeded_regime(seed)
    ops = []
    for name, text in texts:
        tree = config.parse_config(text)
        model = config.regime_model_from(tree)
        opts = config.solver_options_from(tree)
        ops.append(Op(name, lambda m=model, o=opts: regime.solve(m, **o),
                      _regime_check(opts["tol"]), text))
    return ops


# ---------------------------------------------------------------------------
# single-regime-battery: the verify command's analytic checks per problem

def _battery(spec, lam, delta, phi, payoff) -> dict:
    problem = auxiliary.AuxProblem(spec=spec, lam=lam, delta=delta, phi=phi,
                                   payoff=payoff)
    ev = scale.build_scale_evaluator(problem.spec, problem.q)
    sol = auxiliary.barrier_root(problem, ev)
    b = sol.barrier
    laplace = []
    for k in range(1, 6):
        s = ev.phi_q + 0.1 + 0.6 * k
        horizon = min(ev.x_cap, 60.0 / (s - ev.phi_q))
        laplace.append(scale.verify_laplace_transform(ev, s, horizon))
    smooth = (abs(auxiliary.value_derivative(problem, b, b, ev) - 1.0),
              abs(auxiliary.value_derivative(problem, b, 0.0, ev) - phi))
    inside = [abs(auxiliary.hjb_residual(problem, b, float(x), ev))
              / (1.0 + abs(auxiliary.value(problem, b, float(x), ev)))
              for x in np.linspace(b / 25, b, 25)]
    above = [auxiliary.hjb_residual(problem, b, float(x), ev)
             for x in np.linspace(1.02 * b, 2.0 * b, 10)]
    grid = np.linspace(0.0, 2.0 * b, 80)
    gaps = [auxiliary.dominance_gap(problem, f * b, grid, ev, sol)
            for f in (0.5, 2.0)]
    return {"laplace": max(laplace), "smooth_fit": max(smooth),
            "hjb_inside": max(inside), "hjb_above": max(above),
            "gap_min": min(float(g.min()) for g in gaps),
            "gap_step_min": min(float(np.diff(g).min()) for g in gaps)}


def _battery_check(r: dict) -> str | None:
    if not r["laplace"] < 1e-6:
        return f"Laplace residual {r['laplace']:.3e}"
    if r["smooth_fit"] > 1e-8:
        return f"smooth-fit residual {r['smooth_fit']:.3e}"
    if r["hjb_inside"] > 1e-6:
        return f"HJB residual inside {r['hjb_inside']:.3e}"
    if r["hjb_above"] > 1e-8:
        return f"HJB residual above b {r['hjb_above']:.3e}"
    if r["gap_min"] < -1e-9 or r["gap_step_min"] < -1e-9:
        return f"dominance gap {r['gap_min']:.3e}"
    return None


def battery_ops(seed: int, small: bool) -> list[Op]:
    if small:
        texts = inputs.battery_anchors()[:2] + inputs.seeded_battery(
            seed, inputs.BATTERY_SCHEDULE[-3:])
    else:
        texts = inputs.battery_anchors() + inputs.seeded_battery(seed)
    ops = []
    for name, text in texts:
        args = config.aux_inputs_from(config.parse_config(text))
        ops.append(Op(name, lambda a=args: _battery(*a), _battery_check,
                      text))
    return ops


# ---------------------------------------------------------------------------
# cli-demos: in-process levybarrier.cli.main, end to end

# Two generated configs carry what demos/aux.cfg (Brownian, lambda = 0) does
# not: a jump spec with a payoff stream for the single-regime simulator, and
# a sigma = 0 spec for verify's exit identities.  Their [sim] settings come
# from the tests: the jump config has the path count, dt and RNG seed of
# tests/test_simulate.py's seed-reproducibility test, the sigma = 0 config
# those of the verify config in tests/test_cli.py.
_JUMPS_SIM = {"paths": 2000, "dt": 0.005, "tmax": 19.0, "seed": 42}
_SIGMA0_SIM = {"paths": 20000, "dt": 0.002, "tmax": 19.0, "seed": 3}
# simulate on the demos keeps each demo's RNG seed and t_max (aux: seed 7,
# t_max 19; regime: seed 11, t_max 25), starts at the barrier, and runs
# 2000 paths, a count the tests use, at the dt below instead of the demos'
# 50,000 paths.  verify on demos/aux.cfg runs the demo's own 50,000 paths
# with seed 7.
# Every RNG seed is fixed, because a 3-SE gate on a fresh stream fails 0.27%
# of estimates with no defect present; --seed only orders the ops.
_SIM_AUX = ["--paths", "2000", "--dt", "0.002"]
_SIM_REGIME = ["--paths", "2000", "--dt", "0.005"]


def cli_ops(seed: int, small: bool, out_dir) -> list[Op]:
    aux = str(inputs.DEMOS / "aux.cfg")
    reg = str(inputs.DEMOS / "regime.cfg")
    out_dir.mkdir(parents=True, exist_ok=True)
    jumps, sigma0 = out_dir / "jumps.cfg", out_dir / "sigma0.cfg"
    jumps.write_text(inputs.aux_config(
        inputs.MIXED, phi=1.5, lam=0.3, delta=0.7,
        payoff=inputs.KINKED_PAYOFF, sim=_JUMPS_SIM))
    sigma0.write_text(inputs.aux_config(
        inputs.CRAMER_LUNDBERG, phi=1.5, lam=0.3, delta=0.7,
        payoff=inputs.KINKED_PAYOFF, sim=_SIGMA0_SIM))
    # solve-aux with and without --out isolates the cost of the CLI's own
    # 101-point value/HJB loop.
    calls = [("solve-aux-out", ["solve-aux", "--config", aux,
                                "--out", str(out_dir / "solve-aux")]),
             ("curve", ["curve", "--config", aux]),
             ("simulate-jumps", ["simulate", "--config", str(jumps)])]
    if not small:
        calls += [("solve-aux", ["solve-aux", "--config", aux]),
                  ("solve-regime", ["solve-regime", "--config", reg]),
                  ("verify", ["verify", "--config", aux]),
                  ("verify-sigma0", ["verify", "--config", str(sigma0)]),
                  ("simulate-aux", ["simulate", "--config", aux]
                   + _SIM_AUX),
                  ("simulate-regime", ["simulate", "--config", reg]
                   + _SIM_REGIME)]
    ops = [Op(name, lambda a=argv: _cli_main(a), _cli_check, " ".join(argv))
           for name, argv in calls]
    return _shuffled(ops, seed)


def _cli_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_check(result) -> str | None:
    """Exit code 0, no FAIL line from verify, and a simulate estimate
    within 3 standard errors of its closed form."""
    rc, out, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    lines = out.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    if fails:
        return fails[0][:200]
    if lines and lines[0] == "mean,std_error,analytic":
        mean, se, analytic = map(float, lines[1].split(","))
        if abs(mean - analytic) > 3.0 * se:
            return (f"mean {mean:.6g} vs analytic {analytic:.6g}: "
                    f"{abs(mean - analytic) / se:.2f} SE")
    return None


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    """Seeded op order, for the workload whose inputs are fixed."""
    perm = np.random.default_rng([seed, 3]).permutation(len(ops))
    return [ops[i] for i in perm]
