import math
from types import SimpleNamespace

import numpy as np
import pytest

from levybarrier import (AuxProblem, LevySpec, ModelError, SimConfig, W, Z,
                         barrier_root, build_scale_evaluator,
                         estimate_exit_identities, simulate_aux_npv,
                         simulate_regime_npv, solve, value)
from levybarrier import simulate
from levybarrier.scale import exit_identities_analytic
from levybarrier.simulate import (_BLOCK, _double_barrier_npv,
                                  _first_passage, _layout, _Normals,
                                  _pair_means, _regroup, _run_chunks)


def small_cfg(seed=0, paths=20_000, dt=2e-3, tmax=19.0, antithetic=False):
    return SimConfig(n_paths=paths, dt=dt, t_max=tmax, rng_seed=seed,
                     antithetic=antithetic)


def aux(spec, payoff=None, lam=0.0, delta=1.0, phi=2.0):
    """The auxiliary problem that simulate_aux_npv estimates."""
    return AuxProblem(spec=spec, lam=lam, delta=delta, phi=phi, payoff=payoff)


def _direct_moments(samples):
    """(mean, standard error) of samples in one pass over all of them."""
    return samples.mean(), samples.std(ddof=1) / math.sqrt(len(samples))


def test_pool_matches_direct_moments(monkeypatch):
    # 3 full chunks of 1,000 paths and an odd last chunk of 301; the
    # recording kernel returns two arrays per chunk
    monkeypatch.setattr(simulate, "_CHUNK", 1000)
    for antithetic in (False, True):
        cfg = SimConfig(n_paths=3301, dt=0.1, t_max=100.0, rng_seed=12,
                        antithetic=antithetic)
        drawn, returned = [], []

        def kernel(rng, n):
            z = rng.standard_normal(n)
            drawn.append(z)
            returned.append((1.0 + z, 2.0 + 3.0 * z**2))
            return returned[-1]

        ests = _run_chunks(cfg, kernel, bias_allowance=0.25)
        assert [len(z) for z in drawn] == [1000, 1000, 1000, 301]
        # chunk j draws from child j of the seed's SeedSequence
        children = np.random.SeedSequence(12).spawn(4)
        for z, child in zip(drawn, children):
            np.testing.assert_array_equal(
                z, np.random.default_rng(child).standard_normal(len(z)))
        pairs = _pair_means if antithetic else (lambda samples: samples)
        assert len(ests) == 2
        for k, est in enumerate(ests):
            allx = np.concatenate([pairs(arrays[k]) for arrays in returned])
            mean, se = _direct_moments(allx)
            assert est.n_effective == len(allx) == (1651 if antithetic
                                                    else 3301)
            assert est.mean == pytest.approx(mean, rel=1e-12)
            assert est.std_error == pytest.approx(se + 0.25, rel=1e-12)


def test_pair_means_match_antithetic_normals():
    # _pair_means must pair the paths exactly as the layout's draw negates
    # them
    for n in (1, 6, 7):
        order, pairs = _layout(n, True)
        z = np.empty(n, np.float32)
        z[order] = _Normals(np.random.default_rng(0)).draw(n, pairs)
        pm = _pair_means(z)
        assert len(pm) == (n + 1) // 2
        assert np.all(pm[:n // 2] == 0.0)


def test_normal_source_distribution():
    # 2^21 draws: KS distance to N(0, 1), mean, variance and 4th moment
    # within 5 SE, and the sqrt(48 ln 2) = 5.77 cap of 24-bit uniforms
    from scipy import stats
    n = 2**21
    z = _Normals(np.random.default_rng(2024)).take(n).astype(float)
    assert stats.kstest(z, "norm").pvalue > 1e-3
    for moment, exact, var in ((z, 0.0, 1.0), (z**2, 1.0, 2.0),
                               (z**4, 3.0, 96.0)):
        assert abs(moment.mean() - exact) <= 5.0 * math.sqrt(var / n)
    assert np.abs(z).max() <= 5.78


def test_normal_source_is_box_muller_of_raw_bits():
    # the first block from the documented construction, in double precision
    k = (np.random.default_rng(5).bit_generator.random_raw(_BLOCK // 2)
         .view(np.uint32) >> 8).astype(float)
    h = _BLOCK // 2
    r = np.sqrt(-2.0 * np.log((k[:h] + 1) * 2.0**-24))
    angle = 2.0 * math.pi * k[h:] * 2.0**-24
    z = _Normals(np.random.default_rng(5)).take(_BLOCK)
    np.testing.assert_allclose(z, np.concatenate((r * np.cos(angle),
                                                  r * np.sin(angle))),
                               rtol=1e-5, atol=1e-5)


def test_normal_source_order_across_refills():
    # requests within, up to and across blocks hand out one stream in order
    parts = _Normals(np.random.default_rng(3))
    got = np.concatenate([parts.take(m) for m in (3, 8190, 20000)])
    whole = _Normals(np.random.default_rng(3)).take(28193)
    np.testing.assert_array_equal(got, whole)


def test_antithetic_pairs_span_a_block_refill():
    # 21 paths in the pair layout, 10 pairs and the odd path: draw takes 11
    # normals, 5 before a refill and 6 after it, and the partners' half is
    # the exact negative of the first members'
    src = _Normals(np.random.default_rng(4))
    src.take(_BLOCK - 5)
    z = src.draw(21, 10)
    assert z.dtype == np.float32 and len(z) == 21
    np.testing.assert_array_equal(z[10:20], -z[:10])
    ref = _Normals(np.random.default_rng(4)).take(_BLOCK + 6)
    np.testing.assert_array_equal(z[:10], ref[-11:-1])
    assert z[20] == ref[-1]
    # no pairs: the plain stream
    np.testing.assert_array_equal(src.draw(3, 0),
                                  _Normals(np.random.default_rng(4))
                                  .take(_BLOCK + 9)[-3:])


def test_live_normals_keep_pairs_after_exits():
    # The exit loop's compaction.  n = 9: partners (k, k + 5) for k < 4,
    # path 4 unpaired, so the layout holds 0 1 2 3 | 5 6 7 8 | 4.  Paths 1
    # and 7 leave alone and the pair (3, 8) leaves whole: the pair (0, 5)
    # stays aligned, and the survivors 6 and 2, in pair order, head the
    # unpaired block.
    order, pairs = _layout(9, True)
    np.testing.assert_array_equal(order, [0, 1, 2, 3, 5, 6, 7, 8, 4])
    assert pairs == 4
    keep = ~np.isin(order, (1, 7, 3, 8))
    sel, pairs = _regroup(keep, pairs)
    order = order[sel]
    np.testing.assert_array_equal(order, [0, 5, 6, 2, 4])
    assert pairs == 1
    z = dict(zip(order, _Normals(np.random.default_rng(0)).draw(5, pairs)))
    assert z[0] == -z[5]
    assert len({abs(z[k]) for k in (0, 2, 6, 4)}) == 4
    # the last pair breaks: no pairs are left
    sel, pairs = _regroup(order != 5, pairs)
    np.testing.assert_array_equal(order[sel], [0, 6, 2, 4])
    assert pairs == 0
    # plain runs have no pairs, and the selector is the mask
    keep = np.array([True, False, True])
    sel, pairs = _regroup(keep, 0)
    assert sel is keep and pairs == 0


def test_normals_keep_pairs_through_npv_compactions():
    # The NPV kernel's compactions, where partners die together: first the
    # pair (1, 5) of n = 7, then the unpaired path 3, then the pair (0, 4).
    # The selector is the mask itself, and only the pair count changes.
    order, pairs = _layout(7, True)
    for dead, left in (((1, 5), 2), ((3,), 2), ((0, 4), 1)):
        keep = ~np.isin(order, dead)
        sel, pairs = _regroup(keep, pairs)
        assert sel is keep and pairs == left
        order = order[sel]
        z = _Normals(np.random.default_rng(9)).draw(len(order), pairs)
        np.testing.assert_array_equal(z[pairs:2 * pairs], -z[:pairs])
    np.testing.assert_array_equal(order, [2, 6])
    # a compaction that ends every path leaves no pair and draws nothing
    sel, pairs = _regroup(np.zeros(2, dtype=bool), pairs)
    assert pairs == 0 and len(order[sel]) == 0
    assert len(_Normals(np.random.default_rng(9)).draw(0, 0)) == 0


def _replay_draws(monkeypatch, run):
    """Run run() with the kernels' _layout, _regroup and _Normals watched,
    and replay their path numbers: at each draw, the normals taken must be
    exactly the live paths minus the live pairs (both partners, k and
    k + ceil(n/2), in the arrays), and partners must get exact negatives.
    Returns the counts of draws, of compactions and of draws with a
    broken pair's survivor in the arrays."""
    events = []
    layout, regroup = simulate._layout, simulate._regroup

    class Watched(simulate._Normals):
        def take(self, m):
            events.append(("take", m))
            return super().take(m)

        def draw(self, m, pairs):
            z = super().draw(m, pairs)
            events.append(("draw", pairs, z))
            return z

    def watched_layout(n, antithetic):
        order, pairs = layout(n, antithetic)
        events.append(("layout", order.copy(), antithetic))
        return order, pairs

    def watched_regroup(keep, pairs):
        sel, pairs = regroup(keep, pairs)
        events.append(("regroup", sel))
        return sel, pairs

    with monkeypatch.context() as m:
        m.setattr(simulate, "_Normals", Watched)
        m.setattr(simulate, "_layout", watched_layout)
        m.setattr(simulate, "_regroup", watched_regroup)
        run()
    draws = regroups = broken = 0
    for kind, *args in events:
        if kind == "layout":
            order, antithetic = args
            n = len(order)
            partner = (n + 1) // 2 if antithetic else n
        elif kind == "take":
            taken, = args
        elif kind == "regroup":
            order = order[args[0]]
            regroups += 1
        else:
            pairs, z = args
            live = set(order.tolist())
            whole = [k for k in range(n - partner)
                     if k in live and k + partner in live]
            assert len(z) == len(order)
            assert pairs == len(whole)
            assert taken == len(order) - len(whole)
            by_path = dict(zip(order.tolist(), z))
            for k in whole:
                assert by_path[k] == -by_path[k + partner]
            draws += 1
            # paths whose partner left: unpaired now, but not from the
            # start (the odd path; every path of a plain run)
            lone = live - set(whole) - {k + partner for k in whole}
            broken += bool(lone - set(range(n - partner, partner)))
    return draws, regroups, broken


# plain, and antithetic with an odd path; on mixed_spec (sigma > 0 and
# jumps) both kernels step
_REPLAYED = [small_cfg(seed=3, paths=200, dt=5e-3, tmax=7.5),
             small_cfg(seed=3, paths=201, dt=5e-3, tmax=7.5,
                       antithetic=True)]


def test_npv_compaction_draws_only_live_pairs(monkeypatch, mixed_spec):
    # every step of the NPV kernel, through its roulette compactions
    for cfg in _REPLAYED:
        draws, regroups, broken = _replay_draws(
            monkeypatch,
            lambda: simulate_aux_npv(aux(mixed_spec, phi=1.5), 1.0, 0.5, cfg))
        assert draws > 600 and regroups > 0 and broken == 0


def test_exit_steps_draw_only_live_pairs(monkeypatch, mixed_spec):
    # every step of the free and the reflected exit loop, where partners
    # leave one at a time
    for cfg in _REPLAYED:
        draws, regroups, broken = _replay_draws(
            monkeypatch,
            lambda: estimate_exit_identities(mixed_spec, 1.0, 2.0, 1.0, cfg))
        assert draws == regroups > 100
        assert (broken > 0) == cfg.antithetic


def test_no_normals_where_nothing_diffuses(cramer_lundberg_spec,
                                           linear_payoff, monkeypatch):
    # sigma = 0: neither kernel makes a normal source, and the exit
    # identities run claim to claim, never through the stepping loop
    def no_source(*args):
        raise AssertionError("normal source made for a sigma = 0 run")

    def stepping(*args):
        raise AssertionError("sigma = 0 exit run stepped in time")
    monkeypatch.setattr(simulate, "_Normals", no_source)
    monkeypatch.setattr(simulate, "_first_passage", stepping)
    cfg = small_cfg(seed=2, paths=2000)
    npv = simulate_aux_npv(aux(cramer_lundberg_spec, linear_payoff, phi=1.5),
                           1.0, 0.5, cfg)
    assert npv.std_error > 0
    for est in estimate_exit_identities(cramer_lundberg_spec, 1.0, 2.0, 1.0,
                                        cfg):
        assert est.std_error > 0


# A drift-only surplus (sigma = 0, no jumps) is not a valid LevySpec, so the
# roulette tests hand the kernels its four fields directly: every path is
# the same until roulette ends it, and the exact value is known.
_DRIFT_DOWN = SimpleNamespace(drift_mu=-0.5, sigma=0.0, jump_rate=0.0,
                              jump_mix=())
# dt = 0.05 makes the survivor weight per step e^{kappa dt} = e^{0.075} at
# q = 1, so an off-by-one step in the kill or the weight moves the estimate
# by several standard errors.
_COARSE = SimConfig(n_paths=20_001, dt=0.05, t_max=8.0, rng_seed=4)


def _drift_down_chain(delta=1.0, phi=2.0):
    # levy, switch_rates, discounts, switch_jumps and phi of a one-state
    # chain that never switches
    return (_DRIFT_DOWN,), np.zeros((1, 1)), np.array([delta]), {}, phi


def test_roulette_npv_unbiased_on_drift_down():
    # From x0 = 0 each step injects |mu| dt, so without roulette every
    # path's NPV is -phi |mu| dt sum_k e^{-delta k dt}.
    delta, phi, dt = 1.0, 2.0, _COARSE.dt
    kernel = _double_barrier_npv(*_drift_down_chain(delta, phi),
                                 np.array([1.0]), 0.0, 0, _COARSE)
    est, = _run_chunks(_COARSE, kernel)
    k = np.arange(1, math.ceil(_COARSE.t_max / dt) + 1)
    exact = -phi * abs(_DRIFT_DOWN.drift_mu) * dt * np.exp(-delta * k * dt).sum()
    assert est.std_error > 0
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_roulette_exit_unbiased_on_drift_down():
    # From x, the drift meets 0 at x/|mu| = 4 > T0 = ln(20)/q, so every exit
    # value is roulette-weighted.  The stepping loop (here with sigma = 0,
    # so its normals add nothing) counts the exit at the midpoint of the
    # step where the single-precision path first falls below 0, so its mean
    # is exactly e^{-q (k + 1/2) dt} for that step k.
    q, x, dt = 1.0, 2.0, _COARSE.dt
    down, up = _first_passage(_DRIFT_DOWN, q, 3.0, x, _COARSE,
                              np.random.default_rng(6), _COARSE.n_paths)
    mean, se = _direct_moments(down)
    path, step, k = np.float32(x), np.float32(_DRIFT_DOWN.drift_mu * dt), 0
    while path + step >= 0:
        path, k = path + step, k + 1
    assert abs((k + 0.5) * dt - x / abs(_DRIFT_DOWN.drift_mu)) <= dt
    assert not up.any()
    assert se > 0
    assert abs(mean - math.exp(-q * (k + 0.5) * dt)) <= 3.0 * se


def test_antithetic_partners_die_together():
    # On the drift-only model partners k and k + ceil(n/2) differ only if
    # roulette ends them on different steps.
    cfg = SimConfig(n_paths=2_001, dt=0.05, t_max=8.0, rng_seed=8,
                    antithetic=True)
    half, odd = divmod(cfg.n_paths, 2)
    kernel = _double_barrier_npv(*_drift_down_chain(), np.array([1.0]), 0.0,
                                 0, cfg)
    npv, = kernel(np.random.default_rng(8), cfg.n_paths)
    down, _ = _first_passage(_DRIFT_DOWN, 1.0, 3.0, 2.0, cfg,
                             np.random.default_rng(8), cfg.n_paths)
    for samples in (npv, down):
        assert len(np.unique(samples)) > 1
        np.testing.assert_array_equal(samples[:half], samples[half + odd:])


def test_config_check_rejects_short_horizon():
    with pytest.raises(ModelError, match="t_max"):
        SimConfig(n_paths=10, dt=1e-3, t_max=5.0, rng_seed=0).check(1.0)
    with pytest.raises(ModelError, match="dt"):
        SimConfig(n_paths=10, dt=0.0, t_max=30.0, rng_seed=0).check(1.0)


@pytest.mark.parametrize("field, value, message", [
    ("n_paths", -5, "n_paths must be an integer >= 2, got -5"),
    ("dt", -1.0, "dt must be positive and finite"),
    ("antithetic", "yes", "antithetic must be True or False, got 'yes'"),
])
def test_config_checks_itself(field, value, message):
    # each of these built before
    fields = {**dict(n_paths=10, dt=1e-3, t_max=20.0, rng_seed=0),
              field: value}
    with pytest.raises(ModelError, match=message):
        SimConfig(**fields)


def test_seed_reproducibility(brownian_spec, linear_payoff):
    cfg = small_cfg(seed=42, paths=2000, dt=5e-3)
    a = simulate_aux_npv(aux(brownian_spec, linear_payoff), 1.3, 0.6, cfg)
    b = simulate_aux_npv(aux(brownian_spec, linear_payoff), 1.3, 0.6, cfg)
    assert a == b


def test_chunking_invisible_in_seeding(brownian_spec, linear_payoff):
    # the same seed gives the same substreams regardless of when chunks run
    cfg = small_cfg(seed=9, paths=3000, dt=5e-3)
    est = simulate_aux_npv(aux(brownian_spec, linear_payoff), 1.3, 0.6, cfg)
    assert est.n_effective == 3000
    assert est.std_error > 0


def test_payoff_required_when_lambda_positive(brownian_spec):
    with pytest.raises(ModelError, match="payoff"):
        simulate_aux_npv(aux(brownian_spec, lam=0.3), 1.3, 0.6,
                         small_cfg(paths=10))


def test_payoff_ignored_when_lambda_zero(brownian_spec, linear_payoff,
                                         kinked_payoff):
    cfg = small_cfg(seed=3, paths=2000, dt=5e-3)
    a = simulate_aux_npv(aux(brownian_spec, linear_payoff), 1.3, 0.6, cfg)
    b = simulate_aux_npv(aux(brownian_spec, kinked_payoff), 1.3, 0.6, cfg)
    assert a.mean == b.mean


def test_npv_matches_analytic_sinh(brownian_spec, linear_payoff):
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                      payoff=linear_payoff)
    sol = barrier_root(prob)
    b = sol.barrier
    cfg = small_cfg(seed=17, paths=40_000, dt=2e-3)
    for x0 in (0.0, 0.5 * b, b):
        est = simulate_aux_npv(prob, b, x0, cfg)
        an = value(prob, b, x0, sol.evaluator)
        assert abs(est.mean - an) <= 3.0 * est.std_error


def test_npv_below_zero_starts_with_an_injection(mixed_spec, kinked_payoff):
    # from x0 < 0 each path first injects -x0 at cost phi, then runs as the
    # path from 0 does, as V(x0) = V(0) + phi x0 below 0 says
    prob = AuxProblem(spec=mixed_spec, lam=0.3, delta=0.7, phi=1.5,
                      payoff=kinked_payoff)
    sol = barrier_root(prob)
    b = sol.barrier
    cfg = small_cfg(seed=31, paths=10_000, dt=2e-3)
    at_zero, below = (simulate_aux_npv(prob, b, x0, cfg)
                      for x0 in (0.0, -0.3))
    assert below.mean - 1.5 * -0.3 == pytest.approx(at_zero.mean, abs=1e-12)
    an = value(prob, b, -0.3, sol.evaluator)
    assert abs(below.mean - an) <= 3.0 * below.std_error


@pytest.mark.parametrize("spec_name", ["mixed_spec", "cramer_lundberg_spec"])
def test_npv_with_payoff_stream(spec_name, kinked_payoff, request):
    # the sigma = 0 case runs the jump clock with no boundary shift
    spec = request.getfixturevalue(spec_name)
    prob = AuxProblem(spec=spec, lam=0.3, delta=0.7, phi=1.5,
                      payoff=kinked_payoff)
    sol = barrier_root(prob)
    b = sol.barrier
    cfg = small_cfg(seed=23, paths=40_000, dt=2e-3)
    est = simulate_aux_npv(prob, b, 0.5 * b, cfg)
    an = value(prob, b, 0.5 * b, sol.evaluator)
    assert abs(est.mean - an) <= 3.0 * est.std_error


def test_npv_decreasing_in_phi(cramer_lundberg_spec, linear_payoff):
    # common random numbers: larger injection cost cannot raise the value
    cfg = small_cfg(seed=5, paths=10_000, dt=2e-3)
    lo, hi = (simulate_aux_npv(aux(cramer_lundberg_spec, linear_payoff,
                                   phi=phi), 1.0, 0.0, cfg)
              for phi in (1.5, 4.0))
    assert hi.mean < lo.mean


def test_dt_halving_within_2_se(brownian_spec, linear_payoff):
    cfg1 = small_cfg(seed=31, paths=30_000, dt=2e-3)
    cfg2 = small_cfg(seed=32, paths=30_000, dt=1e-3)
    a = simulate_aux_npv(aux(brownian_spec, linear_payoff), 1.3, 0.65, cfg1)
    b = simulate_aux_npv(aux(brownian_spec, linear_payoff), 1.3, 0.65, cfg2)
    assert abs(a.mean - b.mean) <= 2.0 * (a.std_error + b.std_error)


def test_antithetic_reduces_se(brownian_spec, linear_payoff):
    plain, anti = (simulate_aux_npv(aux(brownian_spec, linear_payoff), 1.3,
                                    0.65, small_cfg(seed=8, paths=20_000,
                                                    dt=5e-3, antithetic=a))
                   for a in (False, True))
    assert anti.std_error < plain.std_error


def test_antithetic_exit_identities_reduce_se(brownian_spec):
    # Pairs must survive exits and be pooled as pair means, or the
    # antithetic SEs equal the plain ones; the means stay unbiased.
    ev = build_scale_evaluator(brownian_spec, 1.0)
    targets = exit_identities_analytic(ev, 2.0, 1.0)
    for seed in (0, 1, 2):
        plain = estimate_exit_identities(brownian_spec, 1.0, 2.0, 1.0,
                                         small_cfg(seed=seed))
        anti = estimate_exit_identities(brownian_spec, 1.0, 2.0, 1.0,
                                        small_cfg(seed=seed, antithetic=True))
        for p, a, target in zip(plain, anti, targets):
            assert a.std_error < p.std_error
            assert abs(a.mean - target) <= 3.0 * a.std_error


def test_exit_identities_boundary_cases(brownian_spec):
    ev = build_scale_evaluator(brownian_spec, 1.0)
    b = 2.0
    cfg = small_cfg(seed=13, paths=20_000, dt=1e-3)
    # x = 0: immediate down-crossing, estimate about W(b)/W(b) = 1
    down, _, _ = estimate_exit_identities(brownian_spec, 1.0, b, 0.0, cfg)
    assert down.mean == pytest.approx(1.0, abs=5e-3)
    # sinh model, x = 1: first estimate near sinh(1)/sinh(2)
    down, up, refl = estimate_exit_identities(brownian_spec, 1.0, b, 1.0,
                                              cfg)
    target = float(W(ev, 1.0) / W(ev, 2.0))
    assert abs(down.mean - target) <= 3.0 * down.std_error
    target_up = float(Z(ev, 1.0)) - float(Z(ev, 2.0)) * target
    assert abs(up.mean - target_up) <= 3.0 * up.std_error
    target_refl = float(Z(ev, 1.0)) / float(Z(ev, 2.0))
    assert abs(refl.mean - target_refl) <= 3.0 * refl.std_error


@pytest.mark.parametrize("spec_name", ["cramer_lundberg_spec", "mixed_spec"])
def test_exit_identities_jump_models(spec_name, request):
    # the jump step (mixed), and claim-to-claim simulation when sigma = 0
    spec = request.getfixturevalue(spec_name)
    ev = build_scale_evaluator(spec, 1.0)
    targets = exit_identities_analytic(ev, 2.0, 1.0)
    ests = estimate_exit_identities(spec, 1.0, 2.0, 1.0, small_cfg(seed=13))
    for est, target in zip(ests, targets):
        assert abs(est.mean - target) <= 3.0 * est.std_error


def test_claim_to_claim_ruin_at_zero_is_immediate(cramer_lundberg_spec):
    # sigma = 0 from x = 0: the drift is at 0 at time 0, before any claim
    down, up, refl = estimate_exit_identities(cramer_lundberg_spec, 1.0, 2.0,
                                              0.0, small_cfg(seed=3))
    assert down.mean == 1.0 and refl.mean == 1.0
    assert up.mean == 0.0


def test_claim_to_claim_drift_to_ruin():
    # At jump rate 1e-3 almost every path falls straight to 0 at x/|mu|:
    # exit_down is about e^{-q x/|mu|}, and within 3 SE of its closed form.
    spec = LevySpec(drift_mu=-0.5, sigma=0.0, jump_rate=1e-3,
                    jump_mix=((1.0, 1.0),))
    q, b, x = 1.0, 3.0, 2.0
    down, _, _ = estimate_exit_identities(spec, q, b, x, small_cfg(seed=4))
    target = exit_identities_analytic(build_scale_evaluator(spec, q), b, x)[0]
    assert down.mean == pytest.approx(math.exp(-q * x / abs(spec.drift_mu)),
                                      rel=1e-2)
    assert abs(down.mean - target) <= 3.0 * down.std_error
    # x/|mu| = 20 > t_max = 19: no path reaches 0 in time, and the t_max
    # cut scores every one of them 0
    down, _, refl = estimate_exit_identities(spec, q, 12.0, 10.0,
                                             small_cfg(seed=4))
    assert down.mean == 0.0 and refl.mean == 0.0


def test_claim_to_claim_has_no_time_step(cramer_lundberg_spec):
    # the sigma = 0 estimates do not depend on dt at all
    fine = estimate_exit_identities(cramer_lundberg_spec, 1.0, 2.0, 1.0,
                                    small_cfg(seed=5, dt=1e-3))
    coarse = estimate_exit_identities(cramer_lundberg_spec, 1.0, 2.0, 1.0,
                                      small_cfg(seed=5, dt=0.05))
    assert fine == coarse


def test_claim_to_claim_reflection_holds_paths_at_b(cramer_lundberg_spec,
                                                    monkeypatch):
    # Claims of size 1e9 would carry an unclamped path out of reach of 0.
    # Clamped, every claim restarts the path at b, which falls to 0 in
    # T = b/|mu| unless the next claim comes first, so from x = b
    #   E e^{-q tau} = e^{-(q+eta)T} / (1 - eta/(q+eta) (1 - e^{-(q+eta)T})).
    monkeypatch.setattr(simulate, "_hyperexp",
                        lambda rng, m, mixture: np.full(m, 1e9))
    q, b, spec = 1.0, 2.0, cramer_lundberg_spec
    _, _, refl = estimate_exit_identities(spec, q, b, b, small_cfg(seed=6))
    a = math.exp(-(q + spec.jump_rate) * b / abs(spec.drift_mu))
    exact = a / (1.0 - spec.jump_rate / (q + spec.jump_rate) * (1.0 - a))
    assert refl.std_error > 0
    assert abs(refl.mean - exact) <= 3.0 * refl.std_error


def test_exit_identities_reject_bad_x(brownian_spec):
    with pytest.raises(ModelError):
        estimate_exit_identities(brownian_spec, 1.0, 2.0, 2.5, small_cfg())


def test_regime_npv_collapse(symmetric_two_state, brownian_spec,
                             linear_payoff):
    prob = AuxProblem(spec=brownian_spec, lam=0.0, delta=1.0, phi=2.0,
                      payoff=linear_payoff)
    sol = barrier_root(prob)
    b = sol.barrier
    cfg = small_cfg(seed=19, paths=20_000, dt=2e-3)
    est = simulate_regime_npv(symmetric_two_state, [b, b], 0.5 * b, 0, cfg)
    an = value(prob, b, 0.5 * b, sol.evaluator)
    assert abs(est.mean - an) <= 3.0 * est.std_error


def test_regime_npv_matches_solution(two_state_model):
    sol = solve(two_state_model, tol=1e-8, grid_points=1200)
    cfg = SimConfig(n_paths=40_000, dt=2e-3, t_max=24.0, rng_seed=29)
    x0 = 0.5 * float(sol.barriers[0])
    est = simulate_regime_npv(two_state_model, sol.barriers, x0, 0, cfg)
    an = sol.value_at(x0, 0)
    assert abs(est.mean - an) <= 3.0 * est.std_error


def test_regime_npv_perturbed_barriers_dominated(two_state_model):
    sol = solve(two_state_model, tol=1e-8, grid_points=1200)
    cfg = SimConfig(n_paths=30_000, dt=2e-3, t_max=24.0, rng_seed=37)
    x0 = 0.5 * float(sol.barriers[0])
    best = simulate_regime_npv(two_state_model, sol.barriers, x0, 0, cfg)
    worse = simulate_regime_npv(two_state_model, sol.barriers * 1.3, x0, 0,
                                cfg)
    assert worse.mean <= best.mean + 3.0 * (best.std_error
                                            + worse.std_error)


@pytest.mark.parametrize("barriers, i0", [([1.0], 0), ([1.0, 1.0, 1.0], 0),
                                          ([[1.0, 1.0]], 0), ([1.0, 1.0], 2),
                                          ([1.0, 1.0], -1)])
def test_regime_npv_rejects_bad_barriers_or_state(symmetric_two_state,
                                                  barriers, i0):
    with pytest.raises(ModelError):
        simulate_regime_npv(symmetric_two_state, barriers, 0.5, i0,
                            small_cfg(paths=10))


@pytest.mark.parametrize("x0", [float("nan"), float("inf"), -float("inf")])
def test_regime_npv_rejects_non_finite_start(symmetric_two_state, x0):
    with pytest.raises(ModelError, match="x0 must be finite"):
        simulate_regime_npv(symmetric_two_state, [1.0, 1.0], x0, 0,
                            small_cfg(paths=10))


@pytest.mark.parametrize("case", ["exit-b-zero", "exit-q-zero",
                                  "exit-q-negative", "npv-phi-below-1",
                                  "npv-lam-negative", "npv-b-nan",
                                  "npv-x0-inf",
                                  "fractional-n-paths", "negative-seed",
                                  "fractional-seed", "tmax-inf", "one-sample",
                                  "one-antithetic-pair"])
def test_simulator_inputs_fail_with_reason(brownian_spec, linear_payoff,
                                           case):
    spec, pw, cfg = brownian_spec, linear_payoff, small_cfg(paths=10)
    calls = {
        "exit-b-zero": (lambda: estimate_exit_identities(
            spec, 1.0, 0.0, 0.0, cfg), "b must be positive"),
        "exit-q-zero": (lambda: estimate_exit_identities(
            spec, 0.0, 2.0, 1.0, cfg), "discount rate must be positive"),
        "exit-q-negative": (lambda: estimate_exit_identities(
            spec, -0.5, 2.0, 1.0, cfg), "discount rate must be positive"),
        # the problem's own checks, made when it is built
        "npv-phi-below-1": (lambda: simulate_aux_npv(
            aux(spec, pw, phi=0.5), 1.3, 0.6, cfg), "phi must exceed 1"),
        "npv-lam-negative": (lambda: simulate_aux_npv(
            aux(spec, pw, lam=-0.2), 1.3, 0.6, cfg),
            "lam must be nonnegative"),
        "npv-b-nan": (lambda: simulate_aux_npv(
            aux(spec, pw), float("nan"), 0.6, cfg), "finite b > 0"),
        "npv-x0-inf": (lambda: simulate_aux_npv(
            aux(spec, pw), 1.3, float("inf"), cfg), "finite x0"),
        "fractional-n-paths": (lambda: estimate_exit_identities(
            spec, 1.0, 2.0, 1.0, small_cfg(paths=2.5)),
            "n_paths must be an integer"),
        "negative-seed": (lambda: estimate_exit_identities(
            spec, 1.0, 2.0, 1.0, small_cfg(seed=-1, paths=10)),
            "rng_seed must be an integer >= 0"),
        "fractional-seed": (lambda: estimate_exit_identities(
            spec, 1.0, 2.0, 1.0, small_cfg(seed=1.5, paths=10)),
            "rng_seed must be an integer >= 0"),
        # e^{-q t_max} = 0 passes the tail check, but the step count is not
        # an integer
        "tmax-inf": (lambda: estimate_exit_identities(
            spec, 1.0, 2.0, 1.0, small_cfg(paths=10, tmax=float("inf"))),
            "t_max must be finite"),
        # one sample has no variance: the standard error would read 0
        "one-sample": (lambda: simulate_aux_npv(
            aux(spec, pw), 1.3, 0.6, small_cfg(paths=1)),
            "n_paths must be an integer >= 2"),
        "one-antithetic-pair": (lambda: estimate_exit_identities(
            spec, 1.0, 2.0, 1.0, small_cfg(paths=2, antithetic=True)),
            "n_paths must be an integer >= 3 when antithetic"),
    }
    call, message = calls[case]
    with pytest.raises(ModelError, match=message):
        call()
