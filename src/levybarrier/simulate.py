"""Monte Carlo ground truth for the analytic modules.

Single-precision Euler steps for the Brownian part; jumps and regime switches
on per-path geometric clocks with exact hyperexponential sizes; reflection at
boundaries shifted by the Broadie-Glasserman-Kou continuity correction; and
Brownian-bridge crossings in the exit identities.  The single-regime NPV is
the one-state case of the regime NPV kernel.  Chunks of paths draw from RNG
substreams spawned from the seed and merge by pooled mean/variance, so
results are bit-reproducible and seed reuse gives common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .levy import LevySpec, require_valid
from .payoff import ConcavePayoff, evaluate
from .regime import RegimeModel, require_valid_model

_CHUNK = 100_000

# Broadie-Glasserman-Kou (1997) continuity correction, -zeta(1/2)/sqrt(2*pi):
# reflecting the Euler path at a boundary shifted inward by
# _AGP*sigma*sqrt(dt) removes the O(sqrt(dt)) bias of end-of-step reflection.
_AGP = 0.5826

# Exit-identity paths still alive once the discount drops below this cutoff
# are abandoned; the truncation bias is bounded by the cutoff itself, three
# orders of magnitude below the Monte Carlo standard errors at the tested
# path counts.
_DISC_CUTOFF = 1e-6


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float
    t_max: float
    rng_seed: int
    antithetic: bool = False

    def check(self, q_min: float) -> None:
        if self.n_paths < 1:
            raise ModelError("n_paths must be >= 1")
        if self.dt <= 0:
            raise ModelError("dt must be positive")
        if math.exp(-q_min * self.t_max) >= 1e-3:
            raise ModelError("t_max too short: discount tail above 1e-3")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    n_effective: int


class _Pool:
    """Streaming pooled mean/variance across chunks."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, samples: np.ndarray) -> None:
        n_b = len(samples)
        mean_b = float(samples.mean())
        m2_b = float(((samples - mean_b) ** 2).sum())
        delta = mean_b - self.mean
        tot = self.n + n_b
        self.m2 += m2_b + delta**2 * self.n * n_b / tot
        self.mean += delta * n_b / tot
        self.n = tot

    def estimate(self, bias_allowance: float = 0.0) -> SimEstimate:
        var = self.m2 / (self.n - 1) if self.n > 1 else 0.0
        se = math.sqrt(var / self.n) + bias_allowance
        return SimEstimate(mean=self.mean, std_error=se, n_effective=self.n)


def _chunks(config: SimConfig):
    """Deterministic (rng, size) substreams partitioning the path budget."""
    seq = np.random.SeedSequence(config.rng_seed)
    sizes = []
    left = config.n_paths
    while left > 0:
        sizes.append(min(_CHUNK, left))
        left -= sizes[-1]
    for child, size in zip(seq.spawn(len(sizes)), sizes):
        yield np.random.default_rng(child), size


def _normals(rng, n: int, antithetic: bool, dtype=np.float64) -> np.ndarray:
    if not antithetic:
        return rng.standard_normal(n, dtype=dtype)
    half = (n + 1) // 2
    z = rng.standard_normal(half, dtype=dtype)
    return np.concatenate((z, -z))[:n]


def _pair_means(samples: np.ndarray) -> np.ndarray:
    """Means of the antithetic pairs, paths k and k + ceil(n/2) (see
    _normals): those are the independent samples, so the standard error
    sees the variance reduction.  With n odd, the unpaired path stays."""
    half, odd = divmod(len(samples), 2)
    return np.concatenate((0.5 * (samples[:half] + samples[half + odd:]),
                           samples[half:half + odd]))


def _hyperexp(rng, m: int, mix) -> np.ndarray:
    """m iid draws from the mixture of (weight, rate) exponentials: first
    the components, then the unit exponentials scaled by their rates."""
    weights = np.array([w for w, _ in mix])
    rates = np.array([r for _, r in mix])
    comp = rng.choice(len(mix), size=m, p=weights)
    return rng.standard_exponential(m) / rates[comp]


# ---------------------------------------------------------------------------
# double-barrier NPV: one stepping loop for the regime and single-regime cases

def _double_barrier_npv(model: RegimeModel, barriers: np.ndarray, x0: float,
                        i0: int, config: SimConfig,
                        payoff: ConcavePayoff | None = None,
                        payoff_weight: float = 0.0) -> _Pool:
    """Per-path NPVs of the dynamic double-barrier strategy (0, b_{Y_t}),
    pooled over the chunks (as antithetic pair means when asked for):
    discounted dividends minus phi times injections, each state discounting
    at its entry of model.discounts.  With a payoff, every step also adds
    payoff_weight * omega(U), discounted, after its jumps."""
    n_steps = int(math.ceil(config.t_max / config.dt))
    dt = config.dt
    sqdt = math.sqrt(dt)

    mu = np.array([s.drift_mu for s in model.levy])
    sig = np.array([s.sigma for s in model.levy])
    eta = np.array([s.jump_rate for s in model.levy])
    deltas = np.asarray(model.discounts, dtype=float)
    lam = np.array([model.lam(i) for i in range(model.n)])
    # per-state boundaries shifted inward by the continuity correction;
    # smooth fit (V' = phi at 0, V' = 1 at b) makes the shifted payout
    # accounting value-neutral to first order
    lo_eff = np.minimum(_AGP * sig * sqdt, 0.25 * barriers)
    hi_eff = np.maximum(barriers - _AGP * sig * sqdt, 0.75 * barriers)
    # destination cdf per origin state (none for a state that never switches)
    dest_cdf = np.zeros((model.n, model.n))
    for i in range(model.n):
        probs = model.switch_rates[i].astype(float).copy()
        probs[i] = 0.0
        if lam[i] > 0:
            dest_cdf[i] = np.cumsum(probs / probs.sum())

    # Per-state per-step quantities, gathered into per-path arrays that are
    # refreshed only when a path switches state.  The path state itself is
    # single precision; the discounted cashflow accumulator stays double.
    phi32 = np.float32(model.phi)
    zero32 = np.float32(0.0)
    drift_s = (mu * dt).astype(np.float32)
    vol_s = (sig * sqdt).astype(np.float32)
    lo_s = lo_eff.astype(np.float32)
    hi_s = hi_eff.astype(np.float32)
    dfac_s = np.exp(-deltas * dt)
    # Jumps and switches are rare per step, so both are driven by geometric
    # clocks at the maximal rate, thinned by the path's current state.
    eta_max = float(eta.max())
    lam_max = float(lam.max())
    p_jump = -math.expm1(-eta_max * dt) if eta_max > 0 else 0.0
    p_jump_two = np.array([
        1.0 + e * dt * math.exp(-e * dt) / math.expm1(-e * dt) if e > 0
        else 0.0 for e in eta])
    p_sw = -math.expm1(-lam_max * dt) if lam_max > 0 else 0.0
    jump_accept = eta / eta_max if eta_max > 0 else eta
    sw_accept = lam / lam_max if lam_max > 0 else lam

    pool = _Pool()
    for rng, n in _chunks(config):
        state = np.full(n, i0, dtype=np.intp)
        lo0, hi0 = float(lo_eff[i0]), float(hi_eff[i0])
        u = np.full(n, min(max(x0, lo0), hi0), dtype=np.float32)
        pv = np.full(n, max(x0 - hi0, 0.0)
                     - model.phi * max(lo0 - x0, 0.0))
        lo_cur = lo_s[state]
        hi_cur = hi_s[state]
        drift_cur = drift_s[state]
        vol_cur = vol_s[state]
        dfac_cur = dfac_s[state]
        disc = np.ones(n)
        jump_till = rng.geometric(p_jump, n) if eta_max > 0 else None
        sw_till = rng.geometric(p_sw, n) if lam_max > 0 else None

        def apply_switches(ja):
            origins = state[ja]
            dests = (rng.random((len(ja), 1))
                     > dest_cdf[origins]).sum(axis=1)
            drop = _sample_switch_drops(rng, origins, dests, model)
            uj = u[ja] - drop
            lo_new = lo_eff[dests]
            hi_new = hi_eff[dests]
            pv[ja] -= (model.phi * disc[ja]
                       * np.maximum(lo_new - uj, 0.0))
            uj = np.maximum(uj, lo_new)
            pv[ja] += disc[ja] * np.maximum(uj - hi_new, 0.0)
            u[ja] = np.minimum(uj, hi_new)
            state[ja] = dests
            lo_cur[ja] = lo_s[dests]
            hi_cur[ja] = hi_s[dests]
            drift_cur[ja] = drift_s[dests]
            vol_cur[ja] = vol_s[dests]
            dfac_cur[ja] = dfac_s[dests]

        for _ in range(n_steps):
            # The true switch time is uniform within its step; applying the
            # switch before or after the step with equal probability centres
            # the placement and cancels the O(dt) bias of end-of-step
            # handling.
            late = None
            if sw_till is not None:
                sw_till -= 1
                j = np.nonzero(sw_till == 0)[0]
                if len(j):
                    acc = rng.random(len(j)) < sw_accept[state[j]]
                    ja = j[acc]
                    sw_till[j] = rng.geometric(p_sw, len(j))
                    if len(ja):
                        early = rng.random(len(ja)) < 0.5
                        late = ja[~early]
                        if early.any():
                            apply_switches(ja[early])
            disc *= dfac_cur
            u += drift_cur
            u += vol_cur * _normals(rng, n, config.antithetic, np.float32)
            pay = np.maximum(u - hi_cur, zero32)
            inj = np.maximum(lo_cur - u, zero32)
            np.clip(u, lo_cur, hi_cur, out=u)
            pv += disc * (pay - phi32 * inj)

            if jump_till is not None:
                jump_till -= 1
                j = np.nonzero(jump_till == 0)[0]
                if len(j):
                    acc = rng.random(len(j)) < jump_accept[state[j]]
                    ja = j[acc]
                    if len(ja):
                        sizes = _state_jump_sizes(rng, state[ja], model.levy,
                                                  p_jump_two)
                        uj = u[ja] + sizes
                        hj = hi_cur[ja]
                        pv[ja] += disc[ja] * np.maximum(uj - hj, 0.0)
                        u[ja] = np.minimum(uj, hj)
                    jump_till[j] = rng.geometric(p_jump, len(j))

            if payoff is not None:
                pv += payoff_weight * disc * evaluate(payoff, u)
            if late is not None and len(late):
                apply_switches(late)
        pool.add(_pair_means(pv) if config.antithetic else pv)
    return pool


def _state_jump_sizes(rng, states, specs, p_two: np.ndarray) -> np.ndarray:
    """Total claim size in a jump-bearing step, conditioned on at least one
    arrival, with the mixture of each path's current state.  A second
    arrival in the same step is sampled with its conditional probability;
    three or more (order (rate*dt)^2 of those steps) are folded into two."""
    out = np.zeros(len(states))
    extra = rng.random(len(states)) < p_two[states]
    for i, spec in enumerate(specs):
        if spec.jump_rate == 0:
            continue
        mask = states == i
        m = int(mask.sum())
        if not m:
            continue
        sz = _hyperexp(rng, m, spec.jump_mix)
        e = np.nonzero(extra[mask])[0]
        if len(e):
            sz[e] += _hyperexp(rng, len(e), spec.jump_mix)
        out[mask] = sz
    return out


def _sample_switch_drops(rng, origins, dests, model: RegimeModel) -> np.ndarray:
    """|J_ij| draws for each switching path (0 for point-mass jumps)."""
    out = np.zeros(len(origins))
    for (i, j), sj in model.switch_jumps.items():
        if sj.kind != "hyperexp":
            continue
        mask = (origins == i) & (dests == j)
        if not mask.any():
            continue
        out[mask] = _hyperexp(rng, int(mask.sum()), sj.mix)
    return out


def simulate_aux_npv(spec: LevySpec, payoff: ConcavePayoff | None, lam: float,
                     delta: float, phi: float, b: float, x0: float,
                     config: SimConfig) -> SimEstimate:
    """Estimate the NPV of the (0, b) double-barrier strategy started at x0:
    discounted dividends, minus phi times injections, plus the running payoff
    stream weighted by lam.  payoff may be None only when lam == 0."""
    require_valid(spec)
    if b <= 0 or x0 < 0:
        raise ModelError("need b > 0 and x0 >= 0")
    if lam > 0 and payoff is None:
        raise ModelError("lam > 0 needs a payoff")
    q = delta + lam
    config.check(q)
    # The exponential time at rate lam ends the auxiliary problem, so it is
    # a one-state chain that never switches, discounted at delta + lam, that
    # is paid the stream lam * omega(U) in place of the switch.
    model = RegimeModel(states=("aux",), switch_rates=np.zeros((1, 1)),
                        discounts=np.array([q]), levy=(spec,),
                        switch_jumps={}, phi=phi)
    pool = _double_barrier_npv(model, np.array([float(b)]), x0, 0, config,
                               payoff if lam > 0 else None, lam * config.dt)
    scale = b + abs(x0) + (abs(evaluate(payoff, b)) if lam > 0 else 0.0) + 1.0
    tail = math.exp(-q * config.t_max) * phi * scale
    return pool.estimate(bias_allowance=tail)


def simulate_regime_npv(model: RegimeModel, barriers, x0: float, i0: int,
                        config: SimConfig) -> SimEstimate:
    """NPV of the dynamic double-barrier strategy (0, b_{Y_t}) under the
    Markov-additive surplus, with state-dependent discounting."""
    require_valid_model(model)
    barriers = np.asarray(barriers, dtype=float)
    if barriers.shape != (model.n,):
        raise ModelError(f"need one barrier per state: expected shape "
                         f"({model.n},), got {barriers.shape}")
    if not 0 <= i0 < model.n:
        raise ModelError(f"initial state {i0} outside 0..{model.n - 1}")
    if np.any(barriers <= 0):
        raise ModelError("barriers must be positive")
    # the NPV discounts at the state's delta alone, so the truncation tail
    # decays at the smallest delta
    delta_min = float(np.min(model.discounts))
    config.check(delta_min)
    pool = _double_barrier_npv(model, barriers, x0, i0, config)
    tail = math.exp(-delta_min * config.t_max) * model.phi * (
        float(barriers.max()) + abs(x0) + 1.0)
    return pool.estimate(bias_allowance=tail)


# ---------------------------------------------------------------------------
# exit identities

class _JumpClock:
    """Per-path countdown (in steps) to the next step containing a jump.

    At small jump_rate*dt almost every Poisson draw is zero, so sampling the
    geometric gap between jump-bearing steps and, when one arrives, the
    total jump conditioned on being nonzero is much cheaper than a Poisson
    draw per path per step.  Steps carrying three or more jumps (probability
    of order (rate*dt)^2 per jump-bearing step) are sampled as two.
    """

    def __init__(self, rng, spec, dt: float, n: int):
        self.rng = rng
        lam_dt = spec.jump_rate * dt
        self.p_any = -math.expm1(-lam_dt)
        self.p_two = 1.0 - lam_dt * math.exp(-lam_dt) / self.p_any
        self.mix = spec.jump_mix
        self.till = rng.geometric(self.p_any, n)

    def tick(self, keep: np.ndarray) -> np.ndarray:
        """Advance one step for the surviving paths; return the indices
        (into the kept arrays) whose step contains a jump."""
        self.till = self.till[keep] - 1
        return np.nonzero(self.till == 0)[0]

    def sizes(self, j: np.ndarray) -> np.ndarray:
        """Total jump in the flagged steps, and reset their countdowns."""
        rng, m = self.rng, len(j)
        out = _hyperexp(rng, m, self.mix)
        extra = np.nonzero(rng.random(m) < self.p_two)[0]
        if len(extra):
            out[extra] += _hyperexp(rng, len(extra), self.mix)
        self.till[j] = rng.geometric(self.p_any, m)
        return out

    def drop(self, keep: np.ndarray) -> None:
        self.till = self.till[keep]


def _live_normals(rng, n: int, idx: np.ndarray,
                  antithetic: bool) -> np.ndarray:
    """Single-precision normals for the live paths idx out of n.  Antithetic
    draws cover all n paths and are then indexed, so path k keeps its
    partner k + ceil(n/2) (see _normals) after either of them exits."""
    if antithetic:
        return _normals(rng, n, True, np.float32)[idx]
    return _normals(rng, len(idx), False, np.float32)


def _down_crossing_disc(spec, q, k, dt, xf, new, down):
    """Discount factors at the exact (sigma = 0) or midpoint (sigma > 0)
    crossing time of 0 for the paths flagged in `down`."""
    if spec.sigma == 0 and spec.drift_mu < 0:
        frac = np.clip(xf[down] / (-spec.drift_mu * dt), 0.0, 1.0)
        return np.exp(-q * (k * dt + frac * dt))
    return math.exp(-q * (k + 0.5) * dt)


def _exit_free(spec, q, b, x, config, rng, n):
    """One chunk of free-path two-sided exits; per-path discounted
    indicators (down at 0 first, up at b first)."""
    dt = config.dt
    sqdt = math.sqrt(dt)
    sig2dt = spec.sigma**2 * dt
    n_steps = int(math.ceil(config.t_max / dt))
    res_d = np.zeros(n)
    res_u = np.zeros(n)
    idx = np.arange(n)
    # Single precision throughout the hot loop: increments are O(sqrt(dt)),
    # so the rounding noise is far below the statistical error.
    xf = np.full(n, float(x), dtype=np.float32)
    drift = np.float32(spec.drift_mu * dt)
    vol = np.float32(spec.sigma * sqdt)
    clock = _JumpClock(rng, spec, dt, n) if spec.jump_rate > 0 else None
    for k in range(n_steps):
        m = len(idx)
        disc_mid = math.exp(-q * (k + 0.5) * dt)
        if m == 0 or disc_mid < _DISC_CUTOFF:
            break
        if vol != 0:
            new = xf + drift + vol * _live_normals(rng, n, idx,
                                                   config.antithetic)
        else:
            new = xf + drift
        down = new < 0
        up = new > b
        if spec.sigma > 0:
            # Bridge crossings are only non-negligible within a few
            # sigma*sqrt(dt) of a boundary; evaluating them on that subset
            # keeps the per-step cost near the unavoidable normal draws.
            thr = 5.0 * spec.sigma * sqdt
            dead = down | up
            res_d[idx[down]] = disc_mid
            res_u[idx[up]] = disc_mid
            j = np.nonzero(~dead & (xf < thr) & (new < thr))[0]
            if len(j):
                p0 = np.exp(-2.0 * xf[j] * new[j] / sig2dt)
                hit = j[rng.random(len(j)) < p0]
                res_d[idx[hit]] = disc_mid
                dead[hit] = True
            j = np.nonzero(~dead & (b - xf < thr) & (b - new < thr))[0]
            if len(j):
                pb = np.exp(-2.0 * (b - xf[j]) * (b - new[j]) / sig2dt)
                hit = j[rng.random(len(j)) < pb]
                res_u[idx[hit]] = disc_mid
                dead[hit] = True
        else:
            if down.any():
                res_d[idx[down]] = _down_crossing_disc(spec, q, k, dt, xf,
                                                       new, down)
            res_u[idx[up]] = disc_mid
            dead = down | up
        keep = ~dead
        idx = idx[keep]
        xf = new[keep]
        if clock is not None and len(idx):
            j = clock.tick(keep)
            if len(j):
                cand = xf[j] + clock.sizes(j)
                jup = cand > b
                if jup.any():
                    res_u[idx[j[jup]]] = disc_mid
                    alive = np.ones(len(idx), dtype=bool)
                    alive[j[jup]] = False
                    xf[j] = cand
                    idx = idx[alive]
                    xf = xf[alive]
                    clock.drop(alive)
                else:
                    xf[j] = cand
    return res_d, res_u


def _exit_reflected(spec, q, b, x, config, rng, n):
    """One chunk of first passage to 0 under upper reflection at b."""
    dt = config.dt
    sqdt = math.sqrt(dt)
    sig2dt = spec.sigma**2 * dt
    n_steps = int(math.ceil(config.t_max / dt))
    b_eff = max(b - _AGP * spec.sigma * sqdt, 0.5 * b)
    res = np.zeros(n)
    idx = np.arange(n)
    xr = np.full(n, min(float(x), b_eff), dtype=np.float32)
    b_eff32 = np.float32(b_eff)
    drift = np.float32(spec.drift_mu * dt)
    vol = np.float32(spec.sigma * sqdt)
    clock = _JumpClock(rng, spec, dt, n) if spec.jump_rate > 0 else None
    for k in range(n_steps):
        m = len(idx)
        disc_mid = math.exp(-q * (k + 0.5) * dt)
        if m == 0 or disc_mid < _DISC_CUTOFF:
            break
        if vol != 0:
            new = xr + drift + vol * _live_normals(rng, n, idx,
                                                   config.antithetic)
        else:
            new = xr + drift
        down = new < 0
        if spec.sigma > 0:
            thr = 5.0 * spec.sigma * sqdt
            dead = down.copy()
            res[idx[down]] = disc_mid
            j = np.nonzero(~dead & (xr < thr) & (new < thr))[0]
            if len(j):
                p0 = np.exp(-2.0 * xr[j] * new[j] / sig2dt)
                hit = j[rng.random(len(j)) < p0]
                res[idx[hit]] = disc_mid
                dead[hit] = True
        else:
            if down.any():
                res[idx[down]] = _down_crossing_disc(spec, q, k, dt, xr,
                                                     new, down)
            dead = down
        keep = ~dead
        idx = idx[keep]
        xr = np.minimum(new[keep], b_eff32)
        if clock is not None and len(idx):
            j = clock.tick(keep)
            if len(j):
                xr[j] = np.minimum(xr[j] + clock.sizes(j), b_eff)
    return res


def estimate_exit_identities(spec: LevySpec, q: float, b: float, x: float,
                             config: SimConfig
                             ) -> tuple[SimEstimate, SimEstimate, SimEstimate]:
    """Three discounted exit estimates for comparison with the scale-function
    formulas: down-crossing of 0 before reaching b, reaching b before 0, and
    first touch of 0 under reflection at b from above.

    Exited paths are dropped from the working arrays each step, so the cost
    is proportional to the number of live paths (antithetic normals are
    drawn for every path, so that pairs outlive exits, and the estimates pool
    pair means).  Crossings inside a step are
    discounted at the step midpoint (exactly, for drift crossings of a
    bounded-variation path), and the reflected pass reflects at a boundary
    shifted down by 0.5826*sigma*sqrt(dt) to cancel the discrete-reflection
    bias.
    """
    require_valid(spec)
    if not 0.0 <= x <= b:
        raise ModelError("x must lie in [0, b]")
    config.check(q)
    pools = [_Pool(), _Pool(), _Pool()]
    for rng, n in _chunks(config):
        r_free, r_refl = rng.spawn(2)
        res_d, res_u = _exit_free(spec, q, b, x, config, r_free, n)
        res_r = _exit_reflected(spec, q, b, x, config, r_refl, n)
        for pool, res in zip(pools, (res_d, res_u, res_r)):
            pool.add(_pair_means(res) if config.antithetic else res)
    return tuple(p.estimate() for p in pools)


