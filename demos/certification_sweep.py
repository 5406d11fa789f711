#!/usr/bin/env python3
"""Randomized per-step certification of the convergence bounds.

Random diagonal pencils (log-uniform spectra), random starting vectors,
synthetic preconditioners of exactly known quality.  Every step of
every run is checked against the sharp factor of its solver; the row
counts say how often the step contracted within its bound ("holds")
versus jumping past the lower interval edge ("passed_lambda_i").
"""

import numpy as np

from psdlab import SolverKind, diagonalize, generate_problem, run, synthetic_gamma_preconditioner
from psdlab.cli import simple_spectrum

TRIALS = 60
N = 20
GAMMAS = (0.0, 0.3, 0.6, 0.9)
SEED = 1


def main():
    counts = {}
    worst = {}
    for trial in range(TRIALS):
        rng = np.random.default_rng(SEED + trial)
        pencil = generate_problem("diagonal", lambdas=simple_spectrum(rng, N))
        form = diagonalize(pencil)
        gamma = GAMMAS[trial % len(GAMMAS)]
        t = synthetic_gamma_preconditioner(form, gamma, seed=SEED + trial)
        x0 = rng.standard_normal(N)
        for kind in (SolverKind.PSD, SolverKind.PINVIT1):
            result = run(pencil, t, x0, kind, max_steps=200)
            key = (kind.value, gamma)
            slot = counts.setdefault(key, {"holds": 0, "passed_lambda_i": 0, "violated": 0})
            for verdict, count in result.verdicts.items():
                slot[verdict] += count
            if result.max_ratio_over_sigma_sq is not None:
                worst[key] = max(worst.get(key, 0.0), result.max_ratio_over_sigma_sq)

    print(f"{TRIALS} trials, n={N}, spectra log-uniform in [1, 1e3]\n")
    print(f"{'solver':>8} {'gamma':>6} {'holds':>7} {'passed':>7} "
          f"{'violated':>9} {'worst ratio/sigma^2':>20}")
    for (solver, gamma), slot in sorted(counts.items()):
        print(f"{solver:>8} {gamma:>6.1f} {slot['holds']:>7} "
              f"{slot['passed_lambda_i']:>7} {slot['violated']:>9} "
              f"{worst.get((solver, gamma), float('nan')):>20.9f}")
    total_violated = sum(slot["violated"] for slot in counts.values())
    print(f"\ntotal violated verdicts: {total_violated} "
          "(the bounds are guaranteed; any nonzero count is a bug)")


if __name__ == "__main__":
    main()
