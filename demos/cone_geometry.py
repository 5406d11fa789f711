#!/usr/bin/env python3
"""Walk through the search-cone geometry behind the PSD worst case.

For a fixed iterate, all admissible preconditioned steps land in a ball
around Bx; the search lines through it sweep a circular cone.  This
script builds the cone, checks its defining identities numerically, and
shows that the closed-form worst direction matches an assumption-free
brute-force minimization over the cone.
"""

import numpy as np

from psdlab import (
    ConeSpec,
    brute_force_cone_min,
    extremal_directions,
    ritz_gap,
    ritz_on_segment,
    worst_direction,
)

MUS = np.array([1.0, 0.5, 0.25])
X = np.array([1.0, 0.8, 0.6])
GAMMA = 0.5


def main():
    cone = ConeSpec(mus=MUS, x=X, gamma=GAMMA)
    r_norm = np.linalg.norm(cone.r)
    print(f"iterate x = {X}, reciprocal quotient mu(x) = {cone.mu_x:.6f}")
    print(f"residual norm ||r|| = {r_norm:.6f}; ball radius gamma||r|| = {cone.radius:.6f}")
    print(f"cone opening angle arcsin(gamma) = {np.degrees(np.arcsin(GAMMA)):.2f} deg")

    print(f"\ncross-section disc radius f = {cone.disc_radius:.6f} "
          f"(= gamma sqrt(1-gamma^2) ||r||)")

    d1, d2 = extremal_directions(cone)
    bx = MUS * X
    for name, d in (("d1", d1), ("d2", d2)):
        u = d - cone.mu_x * X
        print(f"  {name}: ||d - mu x||^2 / ((1-g^2)||r||^2) = "
              f"{np.linalg.norm(u)**2 / ((1 - GAMMA**2) * r_norm**2):.15f}  "
              f"(d_bar, Bx) = {u / np.linalg.norm(u) @ bx:.15f}")
    print(f"  expected off-diagonal sqrt(1-g^2)||r||  = "
          f"{np.sqrt(1 - GAMMA**2) * r_norm:.15f}")

    ts = np.linspace(0.0, 1.0, 1001)
    values = ritz_on_segment(cone, ts)
    print(f"\nlarger Ritz value along the segment: min at t = {ts[np.argmin(values)]:.3f} "
          "(an endpoint, as the geometry demands)")

    d_star = worst_direction(cone)
    closed = float(MUS[0] - ritz_gap(MUS, X, d_star[None, :])[0])
    brute, _ = brute_force_cone_min(cone, 100_000)
    print(f"closed-form worst value : {closed:.15f}")
    print(f"brute force (1e5 samples): {brute:.15f}")
    print(f"difference               : {brute - closed:.3e}")

    flipped = X * np.array([1.0, -1.0, 1.0])
    reduced, signs = np.abs(flipped), np.sign(flipped)
    brute_flip, _ = brute_force_cone_min(ConeSpec(mus=MUS, x=flipped, gamma=GAMMA), 100_000)
    print(f"\nsign-flipped iterate {flipped} reduces to {reduced} (signs {signs})")
    print(f"its cone minimum {brute_flip:.15f} matches the original to "
          f"{abs(brute_flip - brute):.3e}")


if __name__ == "__main__":
    main()
