"""Monte Carlo ground truth for the analytic modules.

Two path kernels share their parts: single-precision Euler steps with plain
or antithetic normals; jumps and regime switches on per-path geometric
clocks with exact hyperexponential sizes (_jump_probs, _jump_sizes); and
boundaries shifted inward by the Broadie-Glasserman-Kou continuity
correction.  _double_barrier_npv reflects at 0 and b_{Y_t} and pays out
dividends and injections: the regime NPV runs it on the model's chain, the
single-regime NPV on a one-state chain.  _first_passage runs diffusing
paths until they exit below 0 or above b, or reflects them at the upper
boundary, with Brownian-bridge crossings inside a step: the exit
identities run it twice per chunk, or, when sigma = 0, _claim_to_claim,
which needs no steps: such a path is a straight line between claims, so
it moves from one claim to the next and exits below 0 at the exact time
the drift reaches 0, with no dt, roulette or two-arrival folding, in about
jump_rate * t_max rounds.  _run_chunks runs a kernel on each chunk of
paths, with an RNG substream spawned from the seed, and pools the per-path
arrays it returns in chunk order, so results are bit-reproducible and seed
reuse gives common random numbers.

Both kernels end paths by Russian roulette (Kahn & Harris 1951) once their
discount is spent.  Roulette starts at T0, where the slowest discount of the
run, e^{-q t} at q = delta_min (the exit identities: q), has fallen to 0.05;
from then on each path dies at rate kappa = 1.5 q, and a survivor's
discount carries the weight e^{kappa (t - T0)}.  Survival to t has
probability e^{-kappa (t - T0)}, so E int e^{-q t} dC equals the weighted
sum over the survivors: the estimate stays unbiased, up to the unchanged
t_max tail.  The death step is drawn once per path at T0, antithetic
partners share it, and dead paths leave the working arrays, so the cost
follows the live paths.  kappa below 2q keeps the weighted second moment
finite.  At 1.5 q, the regime NPV runs of acceptance criterion 9 take 2.6
times fewer live path-steps than running every path to t_max, at standard
errors 0.2% higher.

Every Gaussian increment comes from a _Normals source that each chunk's
kernel makes on its own generator: single-precision Box-Muller normals
(Box & Muller 1958) made from the generator's raw bits in blocks of 8,192,
a few branch-free array passes each, at about half the cost of numpy's
ziggurat.  Its uniforms have 24 bits, so |Z| never exceeds
sqrt(48 ln 2) = 5.77; the normal mass beyond that is 8.0e-9 per draw, far
below any standard error here.

Antithetic pairs (Hammersley & Morton 1956), paths k and k + ceil(n/2) of
a chunk, live in the array layout, not in the normal source: both stepping
kernels hold the live pairs' first members, then their partners in the
same order, then the unpaired paths (the odd path, and survivors whose
partner has left), so draw(m, pairs) takes one normal per pair and per
unpaired path.  _layout sets the layout up and _regroup keeps it through
each compaction; NPV partners die together, exit-loop partners may not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .auxiliary import AuxProblem
from .errors import ModelError
from .levy import LevySpec
from .payoff import ConcavePayoff, evaluate
from .regime import RegimeModel, checked_barriers

_CHUNK = 100_000

# Normals per Box-Muller block of _Normals: 32 KB of float32
_BLOCK = 8192

# Broadie-Glasserman-Kou (1997) continuity correction, -zeta(1/2)/sqrt(2*pi):
# reflecting the Euler path at a boundary shifted inward by
# _AGP*sigma*sqrt(dt) removes the O(sqrt(dt)) bias of end-of-step reflection.
_AGP = 0.5826

# Russian roulette (see the module docstring): it starts once the slowest
# discount of the run has fallen to _ROULETTE_DISCOUNT, and ends paths at
# _ROULETTE_RATE times that discount rate.
_ROULETTE_DISCOUNT = 0.05
_ROULETTE_RATE = 1.5


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings, each checked when built (ModelError)."""

    n_paths: int
    dt: float
    t_max: float
    rng_seed: int
    antithetic: bool = False

    def __post_init__(self):
        if not isinstance(self.antithetic, bool):
            raise ModelError(f"antithetic must be True or False, got "
                             f"{self.antithetic!r}")
        # a standard error needs 2 samples: 2 paths, or 2 antithetic pair
        # means (a pair and an unpaired path)
        need, when = (3, " when antithetic") if self.antithetic else (2, "")
        if not isinstance(self.n_paths, numbers.Integral) or \
                self.n_paths < need:
            raise ModelError(f"n_paths must be an integer >= {need}{when}, "
                             f"got {self.n_paths!r}")
        if not 0 < self.dt < math.inf:
            raise ModelError("dt must be positive and finite")
        seed = self.rng_seed
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ModelError(f"rng_seed must be an integer >= 0, "
                             f"got {seed!r}")
        if not math.isfinite(self.t_max):
            raise ModelError(f"t_max must be finite, got {self.t_max!r}")

    def check(self, q_min: float) -> None:
        """The settings' rules that need the run's smallest discount rate:
        reject a q_min that leaves the estimate undefined or truncated."""
        if not q_min > 0:
            raise ModelError(f"discount rate must be positive, got {q_min!r}")
        # at t_max <= 0 the tail is 1 or more, and exp could overflow
        if not (self.t_max > 0 and math.exp(-q_min * self.t_max) < 1e-3):
            raise ModelError("t_max too short: discount tail above 1e-3")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    n_effective: int


class _Normals:
    """Single-precision standard normals from one generator, made by the
    Box-Muller transform in blocks of _BLOCK so that each of its array
    passes stays in cache: take(m) hands out the next m of the stream in
    order, and draw(m, pairs) gives one to each of m paths in the pair
    layout with `pairs` live pairs.

    A block is _BLOCK/2 pairs (k1, k2) of 24-bit integers, the top bits of
    the generator's raw 32-bit words.  The radius sqrt(-2 log u) takes
    u = (k1 + 1) 2^-24 in (0, 1], the angle is 2 pi k2 2^-24, and the pair
    gives r cos and r sin of it.  So |Z| <= sqrt(48 ln 2) = 5.77: the
    normal mass beyond that, 8.0e-9 per draw, is never drawn."""

    def __init__(self, rng):
        self.bits = rng.bit_generator
        self.buf = np.empty(_BLOCK, np.float32)
        self.pos = _BLOCK
        self.r = np.empty(_BLOCK // 2, np.float32)
        self.t = np.empty(_BLOCK // 2, np.float32)

    def _fill(self, out: np.ndarray) -> None:
        """The next block of normals, into out (length _BLOCK)."""
        h = _BLOCK // 2
        k = self.bits.random_raw(h).view(np.uint32)
        np.right_shift(k, 8, out=k)
        r, t = self.r, self.t
        np.add(k[:h], 1, out=r, dtype=np.float32)
        r *= np.float32(2.0**-24)
        np.log(r, out=r)
        r *= np.float32(-2.0)
        np.sqrt(r, out=r)
        np.multiply(k[h:], np.float32(2.0 * math.pi * 2.0**-24), out=t,
                    dtype=np.float32)
        np.cos(t, out=out[:h])
        out[:h] *= r
        np.sin(t, out=out[h:])
        out[h:] *= r

    def take(self, m: int) -> np.ndarray:
        """The next m normals; whole blocks are made in place in the
        result, and what is left of a block waits for the next call."""
        out = np.empty(m, np.float32)
        got = min(m, _BLOCK - self.pos)
        out[:got] = self.buf[self.pos:self.pos + got]
        self.pos += got
        while m - got >= _BLOCK:
            self._fill(out[got:got + _BLOCK])
            got += _BLOCK
        if got < m:
            self._fill(self.buf)
            self.pos = m - got
            out[got:] = self.buf[:self.pos]
        return out

    def draw(self, m: int, pairs: int) -> np.ndarray:
        """m - pairs normals z, laid out as z[:pairs], -z[:pairs],
        z[pairs:]: the first members, their partners, the unpaired."""
        z = self.take(m - pairs)
        if not pairs:
            return z
        return np.concatenate((z[:pairs], -z[:pairs], z[pairs:]))


def _layout(n: int, antithetic: bool) -> tuple[np.ndarray, int]:
    """(path numbers in array order, live pairs) of a chunk of n paths at
    its start: with antithetic pairs, the first members 0..n//2 - 1, their
    partners k + ceil(n/2), then the unpaired path n//2 when n is odd."""
    if not antithetic:
        return np.arange(n), 0
    half, odd = divmod(n, 2)
    return np.concatenate((np.arange(half), np.arange(half + odd, n),
                           np.arange(half, half + odd))), half


def _regroup(keep: np.ndarray, pairs: int) -> tuple[np.ndarray, int]:
    """(selector, live pairs) that compact arrays in the pair layout with
    `pairs` live pairs to the paths where the boolean keep holds, and keep
    the layout: whole pairs stay in order, and a path whose partner leaves
    heads the unpaired block.  When no pair breaks, the selector is keep."""
    if not pairs:
        return keep, 0
    first, second = keep[:pairs], keep[pairs:2 * pairs]
    broken = np.flatnonzero(first != second)
    if not len(broken):
        return keep, int(np.count_nonzero(first))
    whole = np.flatnonzero(first & second)
    # each broken pair's survivor: its first member, or else its partner
    lone = broken + pairs * second[broken]
    rest = 2 * pairs + np.flatnonzero(keep[2 * pairs:])
    return np.concatenate((whole, whole + pairs, lone, rest)), len(whole)


def _pair_means(samples: np.ndarray) -> np.ndarray:
    """Means of the antithetic pairs, paths k and k + ceil(n/2) (the
    partners of _layout): those are the independent samples, so the standard
    error sees the variance reduction.  With n odd, the unpaired path stays."""
    half, odd = divmod(len(samples), 2)
    return np.concatenate((0.5 * (samples[:half] + samples[half + odd:]),
                           samples[half:half + odd]))


def _run_chunks(config: SimConfig, kernel,
                bias_allowance: float = 0.0) -> list[SimEstimate]:
    """One SimEstimate, its standard error plus bias_allowance, per array
    of the tuple kernel(rng, n) returns on chunks of at most _CHUNK paths,
    chunk j on child j of the seed's SeedSequence.  Arrays are pooled (as
    antithetic pair means when asked for) by streaming mean/variance in
    chunk order, so only one chunk's paths are held at a time."""
    full, rest = divmod(config.n_paths, _CHUNK)
    sizes = [_CHUNK] * full + ([rest] if rest else [])
    children = np.random.SeedSequence(config.rng_seed).spawn(len(sizes))
    pooled = {}  # array number: (n, mean, m2) over the chunks so far
    for child, size in zip(children, sizes):
        arrays = kernel(np.random.default_rng(child), size)
        for i, samples in enumerate(arrays):
            if config.antithetic:
                samples = _pair_means(samples)
            n, mean, m2 = pooled.get(i, (0, 0.0, 0.0))
            n_b = len(samples)
            mean_b = float(samples.mean())
            m2_b = float(((samples - mean_b) ** 2).sum())
            delta = mean_b - mean
            tot = n + n_b
            pooled[i] = (tot, mean + delta * n_b / tot,
                         m2 + (m2_b + delta**2 * n * n_b / tot))
    return [SimEstimate(mean=mean, n_effective=n,
                        std_error=math.sqrt(m2 / (n - 1) / n) + bias_allowance)
            for n, mean, m2 in pooled.values()]


def _mixture(mix) -> tuple[np.ndarray, np.ndarray]:
    """(component cdf, rates) of a mixture of (weight, rate) exponentials,
    built once per simulator call for _hyperexp."""
    cdf = np.cumsum([w for w, _ in mix], dtype=float)
    cdf /= cdf[-1]
    return cdf, np.array([r for _, r in mix], dtype=float)


def _hyperexp(rng, m: int, mixture) -> np.ndarray:
    """m iid draws from a _mixture: first the components, by inverting the
    cdf at uniforms (the draws of rng.choice with p=weights), then the unit
    exponentials scaled by their rates."""
    cdf, rates = mixture
    comp = cdf.searchsorted(rng.random(m), side="right")
    return rng.standard_exponential(m) / rates[comp]


def _roulette(rate_min: float, dt: float) -> tuple[int, float]:
    """(k0, kappa*dt) for the slowest discount rate rate_min of a run: the
    steps k >= k0 (from 0) are roulette steps, the first one ending where
    e^{-rate_min t} has fallen to _ROULETTE_DISCOUNT, and kappa is the
    rate at which roulette ends paths."""
    k0 = math.ceil(math.log(1.0 / _ROULETTE_DISCOUNT) / (rate_min * dt))
    return k0, _ROULETTE_RATE * rate_min * dt


def _death_steps(rng, n: int, k0: int, kdt: float,
                 antithetic: bool) -> np.ndarray:
    """The roulette step at which each of n paths dies: k0 - 1 plus a
    geometric number of steps with p = 1 - e^{-kappa dt}, so a path lives
    through roulette step k with probability e^{-kappa dt (k - k0 + 1)},
    the inverse of its survivor weight there.  Antithetic partners k and
    k + ceil(n/2) (the partners of _layout) share one draw."""
    g = rng.geometric(-math.expm1(-kdt), (n + 1) // 2 if antithetic else n)
    if antithetic:
        g = np.concatenate((g, g))[:n]
    return k0 - 1 + g


def _jump_probs(rate: float, dt: float) -> tuple[float, float]:
    """Per step of a Poisson clock at `rate`: P(at least one arrival) and
    P(a second arrival | at least one); (0, 0) when the rate is 0."""
    if rate <= 0:
        return 0.0, 0.0
    p_any = -math.expm1(-rate * dt)
    return p_any, 1.0 - rate * dt * math.exp(-rate * dt) / p_any


def _jump_sizes(rng, extra: np.ndarray, mixture) -> np.ndarray:
    """Total claim size in each jump-bearing step, given one arrival: a draw
    from the _mixture, plus a second where `extra` flags a second arrival
    (drawn by the caller with probability p_two of _jump_probs).  Three or
    more arrivals, order (rate*dt)^2 of those steps, are folded into two."""
    sizes = _hyperexp(rng, len(extra), mixture)
    e = np.nonzero(extra)[0]
    if len(e):
        sizes[e] += _hyperexp(rng, len(e), mixture)
    return sizes


# ---------------------------------------------------------------------------
# double-barrier NPV: one stepping loop for the regime and single-regime cases

def _double_barrier_npv(levy, switch_rates: np.ndarray, discounts: np.ndarray,
                        switch_jumps, phi: float, barriers: np.ndarray,
                        x0: float, i0: int, config: SimConfig,
                        payoff: ConcavePayoff | None = None,
                        payoff_weight: float = 0.0):
    """Set up once, then return the kernel(rng, n) for _run_chunks: the
    1-tuple of per-path NPVs of the dynamic double-barrier strategy
    (0, b_{Y_t}) on n paths, discounted dividends minus phi times
    injections, each state discounting at its entry of discounts.  The
    chain is given by the RegimeModel fields of the same names, so the
    diagonal of switch_rates must be 0; a state whose row is 0 never
    switches.  With a payoff, every step also adds payoff_weight *
    omega(U), discounted, after its jumps.  Roulette runs at the smallest
    entry of discounts."""
    n_steps = int(math.ceil(config.t_max / config.dt))
    dt = config.dt
    sqdt = math.sqrt(dt)

    mu = np.array([s.drift_mu for s in levy])
    sig = np.array([s.sigma for s in levy])
    eta = np.array([s.jump_rate for s in levy])
    deltas = np.asarray(discounts, dtype=float)
    lam = switch_rates.sum(axis=1)
    # per-state boundaries shifted inward by the continuity correction;
    # smooth fit (V' = phi at 0, V' = 1 at b) makes the shifted payout
    # accounting value-neutral to first order
    lo_eff = np.minimum(_AGP * sig * sqdt, 0.25 * barriers)
    hi_eff = np.maximum(barriers - _AGP * sig * sqdt, 0.75 * barriers)
    # destination cdf per origin state (none for a state that never switches)
    dest_cdf = np.zeros(switch_rates.shape)
    for i in np.flatnonzero(lam):
        dest_cdf[i] = np.cumsum(switch_rates[i] / lam[i])

    # Per-state quantities, one column per state: the boundaries in double
    # precision (for the clamps at a switch), then the per-step boundaries,
    # drift and volatility in single precision, then the one-step discount
    # factor.  Paths gather their column only when they switch state; the
    # path state itself is single precision, the discounted cashflow
    # accumulator double.
    f32 = np.float32
    table = np.vstack((lo_eff, hi_eff, lo_eff.astype(f32), hi_eff.astype(f32),
                       (mu * dt).astype(f32), (sig * sqdt).astype(f32),
                       np.exp(-deltas * dt)))
    phi32 = f32(phi)
    zero32 = f32(0.0)
    # Jumps and switches are rare per step, so both are driven by geometric
    # clocks at the maximal rate, thinned by the path's current state.
    eta_max = float(eta.max())
    lam_max = float(lam.max())
    p_jump = _jump_probs(eta_max, dt)[0]
    p_jump_two = np.array([_jump_probs(e, dt)[1] for e in eta])
    p_sw = _jump_probs(lam_max, dt)[0]
    jump_accept = eta / eta_max if eta_max > 0 else eta
    sw_accept = lam / lam_max if lam_max > 0 else lam
    jump_mix = [_mixture(s.jump_mix) if s.jump_mix else None for s in levy]
    drop_mix = {ij: _mixture(mix) for ij, mix in switch_jumps.items() if mix}

    k0, kdt = _roulette(float(deltas.min()), dt)
    lo0, hi0 = float(lo_eff[i0]), float(hi_eff[i0])

    def kernel(rng, n):
        # The chunk's own copy of the table: from step k0 on, its one-step
        # discount factors carry the survivor weight e^{kappa dt}.
        cols = table.copy()
        # Per-path working arrays, one row per quantity and one block per
        # dtype, so that dropping the dead paths is one selection per block:
        # U with its per-step boundaries, drift and volatility; the NPV, the
        # discount and the one-step discount factor; the state, the two
        # clocks, the death step and the path's number in the chunk, in
        # the pair layout.
        xs = np.empty((5, n), f32)
        xs[0] = min(max(x0, lo0), hi0)
        xs[1:] = table[2:6, [i0]]
        fs = np.empty((3, n))
        fs[0] = max(x0 - hi0, 0.0) - phi * max(lo0 - x0, 0.0)
        fs[1] = 1.0
        fs[2] = table[6, i0]
        ints = np.zeros((5, n), dtype=np.int64)
        ints[0] = i0
        ints[4], pairs = _layout(n, config.antithetic)
        if eta_max > 0:
            ints[1] = rng.geometric(p_jump, n)
        if lam_max > 0:
            ints[2] = rng.geometric(p_sw, n)
        u, lo_cur, hi_cur, drift_cur, vol_cur = xs
        pv, disc, dfac_cur = fs
        state, jump_till, sw_till, death, idx = ints
        npv = np.empty(n)
        n_dead = 0
        normals = _Normals(rng) if sig.any() else None

        def apply_switches(ja):
            origins = state[ja]
            dests = (rng.random((len(ja), 1))
                     > dest_cdf[origins]).sum(axis=1)
            drop = _sample_switch_drops(rng, origins, dests, drop_mix)
            uj = u[ja] - drop
            col = cols[:, dests]
            lo_new, hi_new = col[0], col[1]
            pv[ja] -= phi * disc[ja] * np.maximum(lo_new - uj, 0.0)
            uj = np.maximum(uj, lo_new)
            pv[ja] += disc[ja] * np.maximum(uj - hi_new, 0.0)
            u[ja] = np.minimum(uj, hi_new)
            state[ja] = dests
            xs[1:, ja] = col[2:6]
            fs[2, ja] = col[6]

        for k in range(n_steps):
            # The true switch time is uniform within its step; applying the
            # switch before or after the step with equal probability centres
            # the placement and cancels the O(dt) bias of end-of-step
            # handling.
            late = None
            if lam_max > 0:
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
            # A path dies where its survivor weight would be folded in: its
            # discount drops to 0, so nothing it does from here on counts.
            if k >= k0:
                if k == k0:
                    death[:] = _death_steps(rng, n, k0, kdt,
                                            config.antithetic)[idx]
                    dfac_cur *= math.exp(kdt)
                    cols[6] *= math.exp(kdt)
                dying = death == k
                disc[dying] = 0.0
                n_dead += int(np.count_nonzero(dying))
            disc *= dfac_cur
            u += drift_cur
            if normals is not None:
                u += vol_cur * normals.draw(len(u), pairs)
            pay = np.maximum(u - hi_cur, zero32)
            inj = np.maximum(lo_cur - u, zero32)
            np.maximum(u, lo_cur, out=u)
            np.minimum(u, hi_cur, out=u)
            pv += disc * (pay - phi32 * inj)

            if eta_max > 0:
                jump_till -= 1
                j = np.nonzero(jump_till == 0)[0]
                if len(j):
                    acc = rng.random(len(j)) < jump_accept[state[j]]
                    ja = j[acc]
                    if len(ja):
                        # claim sizes with the mixture of each path's state
                        st = state[ja]
                        extra = rng.random(len(ja)) < p_jump_two[st]
                        sizes = np.zeros(len(ja))
                        for i, mix in enumerate(jump_mix):
                            mask = st == i
                            if mask.any():
                                sizes[mask] = _jump_sizes(rng, extra[mask],
                                                          mix)
                        uj = u[ja] + sizes
                        hj = hi_cur[ja]
                        pv[ja] += disc[ja] * np.maximum(uj - hj, 0.0)
                        u[ja] = np.minimum(uj, hj)
                    jump_till[j] = rng.geometric(p_jump, len(j))

            if payoff is not None:
                pv += payoff_weight * disc * evaluate(payoff, u)
            if late is not None and len(late):
                apply_switches(late)
            # The dead paths leave the working arrays once they are a
            # quarter of them: the selection costs more than a step, so
            # making it at every death would cost more than it saves.
            if 4 * n_dead > len(idx):
                npv[idx] = pv
                keep, pairs = _regroup(death > k, pairs)
                xs, fs, ints = (a[:, keep] for a in (xs, fs, ints))
                u, lo_cur, hi_cur, drift_cur, vol_cur = xs
                pv, disc, dfac_cur = fs
                state, jump_till, sw_till, death, idx = ints
                n_dead = 0
                if not len(idx):
                    break
        npv[idx] = pv
        return (npv,)
    return kernel


def _sample_switch_drops(rng, origins, dests, drop_mix) -> np.ndarray:
    """|J_ij| draws for each switching path, from the _mixture of each
    hyperexponential switch jump (i, j) in drop_mix (0 for the others)."""
    out = np.zeros(len(origins))
    for (i, j), mixture in drop_mix.items():
        mask = (origins == i) & (dests == j)
        if mask.any():
            out[mask] = _hyperexp(rng, int(mask.sum()), mixture)
    return out


def simulate_aux_npv(problem: AuxProblem, b: float, x0: float,
                     config: SimConfig) -> SimEstimate:
    """Estimate value(problem, b, x0), the NPV of the (0, b) double-barrier
    strategy: discounted dividends, minus phi times injections, plus the
    payoff stream weighted by lam.  Any finite x0 is a start: below 0 the
    strategy first injects up to 0, as simulate_regime_npv does."""
    q, lam, payoff = problem.q, problem.lam, problem.payoff
    if not (0 < b < math.inf and math.isfinite(x0)):
        raise ModelError(f"need finite b > 0 and finite x0, got b={b!r}, "
                         f"x0={x0!r}")
    config.check(q)
    # The exponential time at rate lam ends the auxiliary problem, so it is
    # a one-state chain that never switches, discounted at delta + lam, that
    # is paid the stream lam * omega(U) in place of the switch.
    kernel = _double_barrier_npv((problem.spec,), np.zeros((1, 1)),
                                 np.array([q]), {}, problem.phi,
                                 np.array([float(b)]), x0, 0, config,
                                 payoff if lam > 0 else None, lam * config.dt)
    scale = b + abs(x0) + (abs(evaluate(payoff, b)) if lam > 0 else 0.0) + 1.0
    tail = math.exp(-q * config.t_max) * problem.phi * scale
    return _run_chunks(config, kernel, tail)[0]


def simulate_regime_npv(model: RegimeModel, barriers, x0: float, i0: int,
                        config: SimConfig) -> SimEstimate:
    """NPV of the dynamic double-barrier strategy (0, b_{Y_t}) under the
    Markov-additive surplus, with state-dependent discounting."""
    barriers = checked_barriers(model, barriers)
    if not 0 <= i0 < model.n:
        raise ModelError(f"initial state {i0} outside 0..{model.n - 1}")
    if not math.isfinite(x0):
        raise ModelError(f"x0 must be finite, got {x0!r}")
    # the NPV discounts at the state's delta alone, so the truncation tail
    # decays at the smallest delta
    delta_min = float(np.min(model.discounts))
    config.check(delta_min)
    kernel = _double_barrier_npv(model.levy, model.switch_rates,
                                 model.discounts, model.switch_jumps,
                                 model.phi, barriers, x0, i0, config)
    tail = math.exp(-delta_min * config.t_max) * model.phi * (
        float(barriers.max()) + abs(x0) + 1.0)
    return _run_chunks(config, kernel, tail)[0]


# ---------------------------------------------------------------------------
# exit identities: a first-passage loop for sigma > 0, claim to claim for 0

def _first_passage(spec, q, b, x, config, rng, n, reflect_at=None):
    """One chunk of n paths of a diffusing spec (sigma > 0) from x until
    they pass below 0 or above b, or, with reflect_at (< b), below 0 only,
    pushed back to reflect_at from above.  Returns the per-path discount
    factors at rate q of the exits below 0 and above b, times the roulette
    weight (0: no exit, or ended by roulette first).  A crossing inside a
    step, at the step's end or by the Brownian bridge, counts at the step
    midpoint.  Exited paths leave the working arrays, which stay in the pair
    layout (_regroup), so the cost follows the live paths."""
    dt = config.dt
    sqdt = math.sqrt(dt)
    sig2dt = spec.sigma**2 * dt
    # Bridge crossings are only non-negligible within a few sigma*sqrt(dt)
    # of a boundary; evaluating them on that subset keeps the per-step cost
    # near the unavoidable normal draws.
    thr = 5.0 * spec.sigma * sqdt
    res_d, res_u = np.zeros(n), np.zeros(n)
    idx, pairs = _layout(n, config.antithetic)
    # Single precision throughout the hot loop: increments are O(sqrt(dt)),
    # so the rounding noise is far below the statistical error.
    top = b if reflect_at is None else reflect_at
    xs = np.full(n, min(float(x), top), dtype=np.float32)
    drift = np.float32(spec.drift_mu * dt)
    vol = np.float32(spec.sigma * sqdt)
    normals = _Normals(rng)
    p_any, p_two = _jump_probs(spec.jump_rate, dt)
    till = rng.geometric(p_any, n) if p_any > 0 else None
    mixture = _mixture(spec.jump_mix) if p_any > 0 else None
    k0, kdt = _roulette(q, dt)
    death = None
    for k in range(int(math.ceil(config.t_max / dt))):
        if not len(idx):
            break
        # the discount of an exit in a roulette step carries the survivor
        # weight e^{kappa dt (k - k0 + 1)}
        disc_mid = math.exp(-q * (k + 0.5) * dt + kdt * max(k - k0 + 1, 0))
        new = xs + drift
        new += vol * normals.draw(len(idx), pairs)
        dead = new < 0
        res_d[idx[dead]] = disc_mid
        walls = [(res_d, xs, new)]
        if reflect_at is None:
            up = new > b
            res_u[idx[up]] = disc_mid
            dead |= up
            walls.append((res_u, b - xs, b - new))
        for res, d0, d1 in walls:
            j = np.nonzero(~dead & (d0 < thr) & (d1 < thr))[0]
            if len(j):
                p_hit = np.exp(-2.0 * d0[j] * d1[j] / sig2dt)
                hit = j[rng.random(len(j)) < p_hit]
                res[idx[hit]] = disc_mid
                dead[hit] = True
        if till is not None:
            till -= 1
            j = np.nonzero(till == 0)[0]
            j = j[~dead[j]]
            if len(j):
                extra = rng.random(len(j)) < p_two
                cand = new[j] + _jump_sizes(rng, extra, mixture)
                till[j] = rng.geometric(p_any, len(j))
                if reflect_at is None:
                    jup = j[cand > b]
                    res_u[idx[jup]] = disc_mid
                    dead[jup] = True
                new[j] = cand
        keep = ~dead
        # roulette ends the paths whose death step is the next one
        if k + 1 == k0:
            death = _death_steps(rng, n, k0, kdt, config.antithetic)[idx]
        if death is not None:
            keep &= death != k + 1
        keep, pairs = _regroup(keep, pairs)
        idx, xs = idx[keep], new[keep]
        if death is not None:
            death = death[keep]
        if reflect_at is not None:
            np.minimum(xs, np.float32(top), out=xs)
        if till is not None:
            till = till[keep]
    return res_d, res_u


def _claim_to_claim(spec, q, b, x, config, rng, n, reflect_at=None):
    """_first_passage for a sigma = 0 spec, exactly and with no time step.
    Between claims such a path falls along a straight line at |drift_mu|,
    so each round draws every live path's Exp(jump_rate) wait to its next
    claim.  A path whose line reaches 0 first exits below 0 at that time;
    otherwise the claim, a _hyperexp size, lifts it: out above b in a free
    run, or clamped to reflect_at (b at sigma = 0).  An exit or claim after
    t_max ends the path with 0, so a reflected path lives through about
    jump_rate * t_max rounds at most."""
    speed = -spec.drift_mu   # > 0 for a sigma = 0 spec that is valid
    mixture = _mixture(spec.jump_mix)
    res_d, res_u = np.zeros(n), np.zeros(n)
    idx = np.arange(n)
    pos = np.full(n, min(float(x), b if reflect_at is None else reflect_at))
    t = np.zeros(n)
    while len(idx):
        w = rng.standard_exponential(len(idx)) / spec.jump_rate
        ruin = pos / speed
        down = ruin <= w
        tau = t[down] + ruin[down]
        ends = tau <= config.t_max
        res_d[idx[down][ends]] = np.exp(-q * tau[ends])
        t += w
        claim = ~down & (t <= config.t_max)
        idx, t = idx[claim], t[claim]
        pos = pos[claim] - speed * w[claim] + _hyperexp(rng, len(idx),
                                                        mixture)
        if reflect_at is None:
            up = pos > b
            res_u[idx[up]] = np.exp(-q * t[up])
            idx, pos, t = idx[~up], pos[~up], t[~up]
        else:
            np.minimum(pos, reflect_at, out=pos)
    return res_d, res_u


def estimate_exit_identities(spec: LevySpec, q: float, b: float, x: float,
                             config: SimConfig
                             ) -> tuple[SimEstimate, SimEstimate, SimEstimate]:
    """Monte Carlo estimates of the three discounted exit identities of
    scale.exit_identities_analytic, from x in [0, b]: down-crossing of 0
    before reaching b, reaching b before 0, and first passage below 0 under
    reflection at b from above.  Each chunk runs _first_passage on free
    paths killed at b and on paths pushed back to b - _AGP*sigma*sqrt(dt),
    which cancels the discrete-reflection bias, or, when sigma = 0,
    _claim_to_claim on free paths and on paths clamped at b, with no dt;
    antithetic runs pool pair means (of independent paths when sigma = 0)."""
    if not 0 < b < math.inf:
        raise ModelError(f"b must be positive and finite, got {b!r}")
    if not 0.0 <= x <= b:
        raise ModelError("x must lie in [0, b]")
    config.check(q)
    b_eff = max(b - _AGP * spec.sigma * math.sqrt(config.dt), 0.5 * b)

    passage = _first_passage if spec.sigma > 0 else _claim_to_claim

    def kernel(rng, n):
        r_free, r_refl = rng.spawn(2)
        res_d, res_u = passage(spec, q, b, x, config, r_free, n)
        res_r, _ = passage(spec, q, b, x, config, r_refl, n, b_eff)
        return res_d, res_u, res_r
    return tuple(_run_chunks(config, kernel))
