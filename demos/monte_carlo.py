"""Monte Carlo walkthrough: re-estimate by simulation what the analytic
code computes in closed form — the exit identities that define the scale
functions, and the NPV of the optimal barrier strategy.

Run:  python3 demos/monte_carlo.py       (takes a minute or two)
"""
import numpy as np

import levybarrier as lb


def main() -> None:
    # sigma = sqrt(2), q = 1: the scale function is sinh(x), so every
    # simulated estimate below has an elementary closed form to hit.
    spec = lb.LevySpec(drift_mu=0.0, sigma=np.sqrt(2.0), jump_rate=0.0,
                       jump_mix=())
    q, b, x = 1.0, 2.0, 1.0
    ev = lb.build_scale_evaluator(spec, q)

    cfg = lb.SimConfig(n_paths=50_000, dt=1e-3, t_max=19.0, rng_seed=7)
    down, up, refl = lb.estimate_exit_identities(spec, q, b, x, cfg)
    print("exit identities at x=1, b=2 (simulated vs sinh/cosh formulas):")
    wu, wb = lb.W(ev, b - x), lb.W(ev, b)
    for est, exact, tag in (
        (down, wu / wb, "ruin before reaching b    "),
        (up, lb.Z(ev, b - x) - lb.Z(ev, b) * wu / wb,
         "reach b before ruin       "),
        (refl, lb.Z(ev, b - x) / lb.Z(ev, b), "ruin under reflection at b"),
    ):
        z = (est.mean - exact) / est.std_error
        print(f"  {tag}: mc {est.mean:.5f} +- {est.std_error:.5f}   "
              f"exact {exact:.5f}   z = {z:+.2f}")

    # NPV of the optimal strategy vs the closed-form value function.
    payoff = lb.make_payoff([[0.0, 0.0], [1.0, 1.0]], slope_tail=1.0)
    prob = lb.AuxProblem(spec=spec, lam=0.0, delta=1.0, phi=2.0,
                         payoff=payoff)
    sol = lb.barrier_root(prob)
    print(f"\noptimal barrier b* = {sol.barrier:.6f} "
          f"(= arccosh(phi) here)")
    print("strategy NPV, simulated vs analytic:")
    for x0 in (0.0, 0.5 * sol.barrier, sol.barrier):
        est = lb.simulate_aux_npv(prob, sol.barrier, x0, cfg)
        exact = lb.value(prob, sol.barrier, x0, sol.evaluator)
        z = (est.mean - exact) / est.std_error
        print(f"  x0 = {x0:.3f}: mc {est.mean:+.5f} +- {est.std_error:.5f}"
              f"   analytic {exact:+.5f}   z = {z:+.2f}")

    # Common random numbers: the same seed reuses the same paths, so a
    # perturbed barrier loses value path-by-path up to noise.
    worse = lb.simulate_aux_npv(prob, 0.7 * sol.barrier, 0.5 * sol.barrier,
                                cfg)
    best = lb.simulate_aux_npv(prob, sol.barrier, 0.5 * sol.barrier, cfg)
    print(f"\nCRN dominance: NPV(b*) - NPV(0.7 b*) = "
          f"{best.mean - worse.mean:+.5f} (should be >= 0 up to noise)")


if __name__ == "__main__":
    main()
