#!/usr/bin/env python3
"""Attain the PSD bound: the worst-case ratio meets sigma^2 as the error vanishes.

For each quality gamma, build the explicit worst iterate on the optimal
level-set position t1 and shrink the interval-relative error delta.
Each row is one step of the PSD solver itself (``psd_step``) under the
worst-aligned preconditioner, whose fixed step lands on the cone's
worst direction.  The measured one-step contraction ratio approaches
the squared sharp factor from below; the gap closes linearly in delta.
The deltas before and after come from the step kernel's distances to
the eigenvalues, so the delta = 1e-8 rows are exact to roughly machine
precision rather than drowned in cancellation.
"""

import numpy as np

from psdlab import WorstCaseSetup, t_star, worst_case_instance

MU_SETS = (np.array([1.0, 0.5, 0.1]), np.array([2.0, 1.0, 0.25]))
GAMMAS = (0.2, 0.5, 0.8)
DELTAS = (1e-2, 1e-4, 1e-6, 1e-8)


def main():
    for mus in MU_SETS:
        for gamma in GAMMAS:
            # kappa and sigma depend on mus and gamma alone
            setup = WorstCaseSetup(mus=mus, gamma=gamma, delta=DELTAS[0], t=1.0)
            if gamma == GAMMAS[0]:
                print(f"reciprocal eigenvalues {tuple(mus)}, kappa = {setup.kappa:.6f}")
            t1 = t_star(setup.kappa, gamma)
            print(f"  gamma={gamma}: sigma^2 = {setup.sigma**2:.10f}, t1 = {t1:.6f}")
            print(f"    {'delta':>8} {'measured ratio':>18} {'gap to sigma^2':>16}")
            for delta in DELTAS:
                result = worst_case_instance(
                    WorstCaseSetup(mus=mus, gamma=gamma, delta=delta, t=t1)
                )
                gap = result.predicted_ratio - result.measured_ratio
                print(f"    {delta:>8.0e} {result.measured_ratio:>18.12f} {gap:>16.3e}")
        print()
    print("The gap scales like delta itself: the bound is not just valid,")
    print("it is the exact worst case in the vanishing-error limit.")


if __name__ == "__main__":
    main()
