"""Model configuration: a small key-tree text format.

One file drives every command.  Sections are bracketed dotted paths and each
line is `key = value` with Python-literal values, e.g.

    [levy.calm]
    drift_mu = -0.5
    sigma = 1.0
    jump_rate = 1.0
    jump_mix = [[1.0, 2.0]]

    [chain]
    states = ["calm", "stress"]
    switch_rates = [[0.0, 1.0], [0.5, 0.0]]
    discounts = [0.1, 0.15]

    [jumps.calm.stress]
    kind = "hyperexp"
    weights = [1.0]
    rates = [3.0]

    [problem]
    phi = 1.5
    lambda = 0.0
    delta = 1.0
    payoff_knots = [[0.0, 0.0], [1.0, 1.0]]
    payoff_tail_slope = 1.0

Parse errors carry the offending line number.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ModelError
from .levy import LevySpec
from .payoff import ConcavePayoff, make_payoff
from .regime import RegimeModel, SwitchJump, _solver_error
from .simulate import SimConfig


class ConfigError(ModelError):
    """Config file rejected; message is line-anchored where possible."""


def parse_config(text: str) -> dict:
    """Parse the key-tree text into a nested dict of sections."""
    tree: dict = {}
    section: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            path = line[1:-1].strip()
            if not path:
                raise ConfigError(f"line {lineno}: empty section name")
            section = tree
            for part in path.split("."):
                section = section.setdefault(part, {})
                if not isinstance(section, dict):
                    raise ConfigError(f"line {lineno}: section clashes with key")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, val = line.partition("=")
        key = key.strip()
        try:
            section[key] = ast.literal_eval(val.strip())
        except (ValueError, SyntaxError):
            raise ConfigError(f"line {lineno}: bad value for {key!r}") from None
    return tree


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}: required")
    return section[key]


def _float(section: dict, key: str, where: str, default=None) -> float:
    """section[key] as a float; the key is required when default is None."""
    val = (_require(section, key, where) if default is None
           else section.get(key, default))
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: expected a number, got {val!r}") \
            from None


def _floats(section: dict, key: str, where: str) -> np.ndarray:
    """The required section[key] as a float array."""
    val = _require(section, key, where)
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: expected numbers, got {val!r}") \
            from None


def levy_spec_from(section: dict, where: str) -> LevySpec:
    mix = section.get("jump_mix", [])
    try:
        mix = tuple((float(w), float(r)) for w, r in mix)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.jump_mix: expected [[weight, rate], ...]") \
            from None
    return LevySpec(drift_mu=_float(section, "drift_mu", where),
                    sigma=_float(section, "sigma", where, 0.0),
                    jump_rate=_float(section, "jump_rate", where, 0.0),
                    jump_mix=mix)


def payoff_from(problem: dict) -> ConcavePayoff:
    knots = problem.get("payoff_knots", [[0.0, 0.0], [1.0, 1.0]])
    try:
        knots = [(float(x), float(v)) for x, v in knots]
    except (TypeError, ValueError):
        raise ConfigError("problem.payoff_knots: expected [[x, omega], ...]") \
            from None
    return make_payoff(knots,
                       _float(problem, "payoff_tail_slope", "problem", 1.0))


def phi_from(problem: dict) -> float:
    phi = _float(problem, "phi", "problem")
    if phi <= 1.0:
        raise ConfigError("problem.phi: phi must exceed 1")
    return phi


def aux_inputs_from(tree: dict, state: str | None = None):
    """(LevySpec, lam, delta, phi, payoff) for the single-regime commands."""
    levy_sections = tree.get("levy")
    if not levy_sections:
        raise ConfigError("levy: required")
    if state is None:
        state = next(iter(levy_sections))
    if state not in levy_sections:
        raise ConfigError(f"levy.{state}: unknown state")
    spec = levy_spec_from(levy_sections[state], f"levy.{state}")
    problem = tree.get("problem")
    if problem is None:
        raise ConfigError("problem: required")
    phi = phi_from(problem)
    lam = _float(problem, "lambda", "problem", 0.0)
    delta = _float(problem, "delta", "problem")
    return spec, lam, delta, phi, payoff_from(problem)


def regime_model_from(tree: dict) -> RegimeModel:
    chain = tree.get("chain")
    if chain is None:
        raise ConfigError("chain: required")
    states = tuple(str(s) for s in _require(chain, "states", "chain"))
    rates = _floats(chain, "switch_rates", "chain")
    discounts = _floats(chain, "discounts", "chain")
    levy_sections = tree.get("levy", {})
    specs = []
    for s in states:
        if s not in levy_sections:
            raise ConfigError(f"levy.{s}: required")
        try:
            specs.append(levy_spec_from(levy_sections[s], f"levy.{s}"))
        except ConfigError:
            raise
        except ModelError as e:   # the spec's own check: name its state
            raise ModelError(f"state {s}: {e}") from None
    problem = tree.get("problem")
    if problem is None:
        raise ConfigError("problem: required")
    phi = phi_from(problem)
    jumps: dict = {}
    idx = {s: i for i, s in enumerate(states)}
    for si, node in tree.get("jumps", {}).items():
        if si not in idx:
            raise ConfigError(f"jumps.{si}: unknown state")
        for sj, spec_node in node.items():
            if sj not in idx:
                raise ConfigError(f"jumps.{si}.{sj}: unknown state")
            kind = spec_node.get("kind", "none")
            if kind == "none":
                jump = SwitchJump("none")
            elif kind == "hyperexp":
                ws = _require(spec_node, "weights", f"jumps.{si}.{sj}")
                rs = _require(spec_node, "rates", f"jumps.{si}.{sj}")
                try:
                    ws, rs = [float(w) for w in ws], [float(r) for r in rs]
                except (TypeError, ValueError):
                    raise ConfigError(f"jumps.{si}.{sj}: weights and rates "
                                      "must be lists of numbers") from None
                if len(ws) != len(rs):
                    raise ConfigError(f"jumps.{si}.{sj}: weights and rates "
                                      "differ in length")
                jump = SwitchJump("hyperexp", tuple(zip(ws, rs)))
            else:
                raise ConfigError(f"jumps.{si}.{sj}.kind: unknown kind {kind!r}")
            jumps[(idx[si], idx[sj])] = jump
    return RegimeModel(states=states, switch_rates=rates, discounts=discounts,
                       levy=tuple(specs), switch_jumps=jumps, phi=phi)


def _integer(section: dict, key: str, default: int, where: str) -> int:
    """section[key] as an int; an integral float such as 2e3 counts, any
    other value is rejected rather than cut."""
    val = section.get(key, default)
    if isinstance(val, int) and not isinstance(val, bool):
        return val
    if isinstance(val, float) and val.is_integer():
        return int(val)
    raise ConfigError(f"{where}.{key}: expected an integer, got {val!r}")


def solver_options_from(tree: dict) -> dict:
    solver = tree.get("solver", {})
    opts = {"tol": solver.get("tol", 1e-8),
            "max_iter": _integer(solver, "max_iter", 500, "solver"),
            "grid_points": _integer(solver, "grid_points", 2000, "solver")}
    diag = _solver_error(**opts)
    if diag is not None:
        raise ConfigError(f"solver.{diag}")
    return opts


def sim_config_from(tree: dict, **overrides) -> SimConfig:
    sim = dict(tree.get("sim", {}))
    sim.update({k: v for k, v in overrides.items() if v is not None})
    antithetic = sim.get("antithetic", False)
    if not isinstance(antithetic, bool):
        raise ConfigError(f"sim.antithetic: expected True or False, got "
                          f"{antithetic!r}")
    return SimConfig(n_paths=_integer(sim, "paths", 100_000, "sim"),
                     dt=_float(sim, "dt", "sim", 1e-3),
                     t_max=_float(sim, "tmax", "sim", 20.0),
                     rng_seed=_integer(sim, "seed", 0, "sim"),
                     antithetic=antithetic)
