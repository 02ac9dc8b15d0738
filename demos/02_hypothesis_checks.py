"""Numerical verification of the structural hypotheses.

Existence of invariant measures (and the variational principle) rests on the
impulsive set and its image being codimension-one and transversal to the flow,
with the image separated from the set.  These are open conditions, so sampled
margins are meaningful evidence; the degenerate tangent-circle fixture shows
what a failure looks like.
"""

import numpy as np

from impulseflow import (
    build_fixture,
    hitting_continuity_probe,
    separation_report,
    transversality_margin,
)

for name in ("annulus", "prey_predator", "tangent_degenerate"):
    sys_spec = build_fixture(name)
    print(f"\n=== {name} ===")
    for which in ("D", "ID"):
        rep = transversality_margin(sys_spec, which, 1000)
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"  transversality {which:>2}: min |<grad L, f>| = "
              f"{rep.min_abs_inner:.6f}, sign {rep.common_sign:+d} -> {verdict}")
    sep = separation_report(sys_spec, 400)
    print(f"  separation: dist(D, I(D)) = {sep.dist_D_ID:.6f}, "
          f"first crossing of I(D) by the flow = {sep.xi_margin:.4f}")

print("\nFirst-hitting time along incoming approaches to a point of the")
print("impulsive set (annulus, base point (1.5, 0)): tau* equals the scale")
print("exactly, because the rotation needs exactly s to close the gap.")
annulus = build_fixture("annulus")
rows = hitting_continuity_probe(annulus, np.array([1.5, 0.0]), 2,
                                [10.0 ** (-k) for k in range(1, 7)])
for row in rows:
    print(f"  scale {row['scale']:.0e}: tau* = {row['tau_star_max']:.12e}")
