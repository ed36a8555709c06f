"""Regime-switching walkthrough: a calm diffusive state and a stressed
jumpy state, with a downward capital shock on entering stress.  Solves for
the state-dependent barrier vector and shows the fixed-point residual of
each iteration.

Run:  python3 demos/regime_switching.py
"""
import numpy as np

import levybarrier as lb


def main() -> None:
    calm = lb.LevySpec(drift_mu=0.0, sigma=np.sqrt(2.0), jump_rate=0.0,
                       jump_mix=())
    stress = lb.LevySpec(drift_mu=-0.5, sigma=0.4, jump_rate=1.0,
                         jump_mix=((1.0, 2.0),))
    model = lb.RegimeModel(
        states=("calm", "stress"),
        switch_rates=np.array([[0.0, 0.5], [1.0, 0.0]]),
        discounts=np.array([0.8, 1.2]),
        levy=(calm, stress),
        # Entering stress wipes out an Exp(3) amount of surplus: the jump
        # is its (weight, rate) pairs.
        switch_jumps={(0, 1): ((1.0, 3.0),)},
        phi=1.6,
    )

    beta = model.beta
    print(f"contraction factor beta = {beta:.6f}")

    sol = lb.solve(model, tol=1e-9, grid_points=2000)
    print(f"converged in {sol.iterations} iterations, "
          f"final rho = {sol.final_rho:.3e}")

    print("\nfixed-point residual per iteration:")
    for k, r in enumerate(sol.rho_trace):
        print(f"  iter {k + 1:2d}: rho = {r:.6e}")

    print("\nstate-dependent solution:")
    for i, name in enumerate(model.states):
        b = sol.barriers[i]
        rb, r0 = sol.smooth_fit_residuals(i)
        print(f"  {name:8s}: barrier = {b:.8f}   V(0) = "
              f"{sol.value_at(0.0, i):+.8f}   smooth-fit residuals "
              f"({rb:.1e}, {r0:.1e})")

    print("\nvalue curves (x, V_calm, V_stress):")
    for x in np.linspace(0.0, 2.0, 9):
        print(f"  {x:4.2f}  {sol.value_at(x, 0):+.6f}  "
              f"{sol.value_at(x, 1):+.6f}")


if __name__ == "__main__":
    main()
