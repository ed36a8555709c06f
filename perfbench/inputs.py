"""Seeded inputs for the analytic workloads, written as config text.

Every generated problem is emitted in the library's own key-tree config
format and reaches the library only through ``levybarrier.config``, so the
program under test sees nothing but generated text.  The fixed anchors (the
demo configs and the acceptance fixtures of the test suite) are written in
the same format.

Parameter box.  Each bound keeps the problem inside the region where the
model is valid and the seed code's solvers meet their stated accuracy; a
problem outside it is a robustness probe, not a performance input.

    drift_mu (Brownian)   [-0.5, 0.5]   either sign of drift, |mu| < sigma
    drift_mu (sigma = 0)  [-1.5, -0.6]  must be negative (else a subordinator)
    drift_mu (mixed)      [-0.6, 0.2]   jumps push up, so the drift leans down
    sigma                 [0.6, 1.5]    diffusive states of the fixtures' scale
    jump_rate             [0.4, 1.4]    one to a few claims per unit time
    jump rates mu_k       [1.0, 4.5]    mean claim 0.2 to 1, >= 0.4 apart so
                                        the roots of psi(s) = q stay simple
    delta                 [0.6, 1.3]    discount of the fixtures' order
    lambda (> 0 cases)    [0.1, 0.5]    payoff weight below the discount
    phi                   [1.4, 2.4]    injection cost, phi > 1
    payoff slopes         [0.3, 1.2]    concave, below phi at 0+
    knot spacing          [0.3, 1.0]    kinks inside the barrier band
    regime beta_i         [0.30, 0.45]  contraction lambda/(lambda+delta); one
                                        state per model sits at 0.45, so
                                        solve() takes ~22 iterations

ROADMAP item 3's failure region (small delta with lam*omega'(0+) near q,
bounded-variation jump models with large Phi(q)) lies outside the box on
purpose: every op must pass on the seed code, so these workloads cannot
show that failure rate falling.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

SQRT2 = 1.4142135623730951

# Acceptance fixtures of the test suite (tests/conftest.py), as config text.
BROWNIAN = {"drift_mu": 0.0, "sigma": SQRT2, "jump_rate": 0.0}
CRAMER_LUNDBERG = {"drift_mu": -1.0, "sigma": 0.0, "jump_rate": 1.0,
                   "jump_mix": [[1.0, 1.0]]}
MIXED = {"drift_mu": -0.3, "sigma": 1.0, "jump_rate": 0.8,
         "jump_mix": [[0.6, 1.5], [0.4, 3.0]]}
STRESS = {"drift_mu": -0.5, "sigma": 0.4, "jump_rate": 1.0,
          "jump_mix": [[1.0, 2.0]]}
LINEAR_PAYOFF = ([[0.0, 0.0], [1.0, 1.0]], 1.0)
KINKED_PAYOFF = ([[0.0, 0.0], [0.5, 0.6], [1.5, 1.6], [3.0, 2.6]], 0.5)

# The structure of every generated problem (state count, grid size, spec
# family, number of jump components, payoff knots) is fixed by its position
# in the op list; the seed draws the continuous parameters.  Every seed
# then asks for about the same work, so runs at different seeds compare.
FAMILIES = ("brownian", "cramer_lundberg", "mixed")
# Regime schedule, (states, grid points): 2-state models on about 1000,
# 2000 and 4000 points and 3-state models on 2000, beside the anchors' 2000
# (demo) and 1500 (three-state fixture) points.  State families rotate
# through Brownian, sigma = 0 and mixed-jump with the position in the list.
REGIME_SCHEDULE = ((2, 1000),) * 3 + ((2, 2000),) * 3 + ((3, 2000),) * 2 \
    + ((2, 4000),)
# Single-regime schedule, (family, lambda > 0): the three spec families in
# equal shares, each with lambda = 0 and lambda > 0, so 12 of the 18 seeded
# problems (and 20 of the 30 ops with the anchors) are jump models that go
# through the auxiliary pointwise quadrature.  Jump components (1 or 2) and
# payoff knots (1 to 4) follow the position in the list as well.
BATTERY_SCHEDULE = tuple((FAMILIES[k % 3], (k // 3) % 2 == 1)
                         for k in range(18))
BETA_MAX = 0.45


def _section(name: str, fields: dict) -> list[str]:
    return [f"[{name}]"] + [f"{k} = {v!r}" for k, v in fields.items()] + [""]


def aux_config(levy: dict, *, phi: float, lam: float, delta: float,
               payoff, sim: dict | None = None) -> str:
    knots, tail = payoff
    lines = _section("levy.base", levy)
    lines += _section("problem", {"phi": phi, "lambda": lam, "delta": delta,
                                  "payoff_knots": knots,
                                  "payoff_tail_slope": tail})
    if sim is not None:
        lines += _section("sim", sim)
    return "\n".join(lines)


def regime_config(states: dict, switch_rates, discounts, jumps: dict, *,
                  phi: float, grid_points: int, tol: float = 1e-8) -> str:
    lines: list[str] = []
    for name, levy in states.items():
        lines += _section(f"levy.{name}", levy)
    lines += _section("chain", {"states": list(states),
                                "switch_rates": switch_rates,
                                "discounts": discounts})
    for (a, b), mix in jumps.items():
        lines += _section(f"jumps.{a}.{b}", {
            "kind": "hyperexp", "weights": [w for w, _ in mix],
            "rates": [r for _, r in mix]})
    lines += _section("problem", {"phi": phi, "delta": 1.0})
    lines += _section("solver", {"tol": tol, "grid_points": grid_points})
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# fixed anchors

def regime_anchors(grid_scale: float = 1.0) -> list[tuple[str, str]]:
    """The demo model (demos/regime.cfg) and the three-state acceptance
    fixture, both solved to tol = 1e-8."""
    demo = (DEMOS / "regime.cfg").read_text()
    demo = demo.replace("grid_points = 2000",
                        f"grid_points = {int(2000 * grid_scale)}")
    three = regime_config(
        {"a": BROWNIAN, "b": STRESS, "c": MIXED},
        [[0.0, 0.4, 0.2], [0.3, 0.0, 0.3], [0.5, 0.1, 0.0]],
        [0.9, 1.1, 1.3],
        {("a", "b"): [[0.7, 2.0], [0.3, 5.0]], ("c", "a"): [[1.0, 4.0]]},
        phi=1.8, grid_points=int(1500 * grid_scale))
    return [("anchor-demo-regime", demo), ("anchor-three-state", three)]


def battery_anchors() -> list[tuple[str, str]]:
    """The acceptance twelve_cases: 3 models x 2 payoffs x 2 phi."""
    out = []
    for fam, levy in (("brownian", BROWNIAN), ("cl", CRAMER_LUNDBERG),
                      ("mixed", MIXED)):
        for pname, payoff in (("linear", LINEAR_PAYOFF),
                              ("kinked", KINKED_PAYOFF)):
            for phi in (1.5, 2.5):
                out.append((f"anchor-{fam}-{pname}-phi{phi}",
                            aux_config(levy, phi=phi, lam=0.3, delta=0.7,
                                       payoff=payoff)))
    return out


# ---------------------------------------------------------------------------
# seeded problems

def _r(x: float) -> float:
    return float(round(x, 4))


def _jump_mix(rng, n_comp: int) -> list[list[float]]:
    while True:
        rates = sorted(_r(rng.uniform(1.0, 4.5)) for _ in range(n_comp))
        if all(b - a >= 0.4 for a, b in zip(rates, rates[1:])):
            break
    if n_comp == 1:
        return [[1.0, rates[0]]]
    w0 = _r(rng.uniform(0.3, 0.7))
    return [[w0, rates[0]], [_r(1.0 - w0), rates[1]]]


def _levy(rng, family: str, n_comp: int) -> dict:
    if family == "brownian":
        return {"drift_mu": _r(rng.uniform(-0.5, 0.5)),
                "sigma": _r(rng.uniform(0.6, 1.5)), "jump_rate": 0.0}
    if family == "cramer_lundberg":
        return {"drift_mu": _r(rng.uniform(-1.5, -0.6)), "sigma": 0.0,
                "jump_rate": _r(rng.uniform(0.4, 1.4)),
                "jump_mix": _jump_mix(rng, n_comp)}
    return {"drift_mu": _r(rng.uniform(-0.6, 0.2)),
            "sigma": _r(rng.uniform(0.6, 1.5)),
            "jump_rate": _r(rng.uniform(0.4, 1.4)),
            "jump_mix": _jump_mix(rng, n_comp)}


def _payoff(rng, n_knots: int):
    """Concave piecewise-linear payoff through 0 with n_knots knots."""
    slopes = sorted((_r(rng.uniform(0.3, 1.2)) for _ in range(n_knots)),
                    reverse=True)
    knots, x, v = [[0.0, 0.0]], 0.0, 0.0
    for s in slopes[:-1]:
        h = _r(rng.uniform(0.3, 1.0))
        x, v = _r(x + h), v + s * h
        knots.append([x, v])
    if n_knots == 1:
        knots.append([1.0, slopes[0]])
    return knots, slopes[-1]


def seeded_battery(seed: int, schedule=BATTERY_SCHEDULE
                   ) -> list[tuple[str, str]]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for k, (family, with_lam) in enumerate(schedule):
        text = aux_config(_levy(rng, family, 1 + k % 2),
                          phi=_r(rng.uniform(1.4, 2.4)),
                          lam=_r(rng.uniform(0.1, 0.5)) if with_lam else 0.0,
                          delta=_r(rng.uniform(0.6, 1.3)),
                          payoff=_payoff(rng, 1 + k % 4))
        out.append((f"seeded-{k}-{family}-{'lam' if with_lam else 'nolam'}",
                    text))
    return out


def seeded_regime(seed: int, schedule=REGIME_SCHEDULE
                  ) -> list[tuple[str, str]]:
    rng = np.random.default_rng([seed, 2])
    out = []
    for k, (n, grid) in enumerate(schedule):
        names = [f"s{i}" for i in range(n)]
        states = {s: _levy(rng, FAMILIES[(k + i) % 3], 1 + (k + i) % 2)
                  for i, s in enumerate(names)}
        deltas = [_r(rng.uniform(0.6, 1.3)) for _ in names]
        rates = [[0.0] * n for _ in names]
        slowest = int(rng.integers(n))
        for i in range(n):
            # One state at the top of the beta range fixes the contraction
            # rate, so the iteration count barely varies across seeds.
            beta = BETA_MAX if i == slowest else rng.uniform(0.30, BETA_MAX)
            lam_i = deltas[i] * beta / (1.0 - beta)
            others = [j for j in range(n) if j != i]
            split = rng.uniform(0.2, 0.8) if n == 3 else 1.0
            for j, share in zip(others, (split, 1.0 - split)):
                rates[i][j] = _r(lam_i * share)
        # n - 1 of the n(n-1) switches carry a hyperexponential drop, the
        # rest a point mass at 0: the hat operator's per-rate recursion is a
        # Python loop over the grid, so a fixed count keeps the cost steady.
        pairs = [(a, b) for a in names for b in names if a != b]
        jumps = {pairs[p]: _jump_mix(rng, 1 + k % 2)
                 for p in sorted(rng.choice(len(pairs), n - 1, replace=False))}
        text = regime_config(states, rates, deltas, jumps,
                             phi=_r(rng.uniform(1.4, 2.4)),
                             grid_points=grid)
        out.append((f"seeded-{k}-{n}state-grid{grid}", text))
    return out
