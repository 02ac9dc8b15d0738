"""Occupation measures and the finite-horizon invariance defect.

Every annulus orbit funnels onto the unit lower half-circle traversed at unit
speed, so its long-run occupation measure is the uniform arc-length measure.
The invariance of the limit is probed by comparing two time-shifted windows
of the same orbit; the defect decays like 1/T.
"""

import numpy as np

from impulseflow import (
    GridPartition,
    birkhoff_average,
    build_fixture,
    impulsive_trajectory,
    occupation_measure,
    pushforward_discrepancy,
)

annulus = build_fixture("annulus")
grid = GridPartition(lo=(-2, -2), hi=(2, 2), bins=(40, 40))

print("horizon ->  shift defect   mean radius")
for T in (250.0, 500.0, 1000.0):
    traj = impulsive_trajectory(annulus, np.array([0.0, 1.5]), T, 0.01)
    disc = pushforward_discrepancy(traj, grid, 1.0)
    r_mean = birkhoff_average(traj, lambda x: np.hypot(x[:, 0], x[:, 1]))
    print(f"T = {T:6.0f}:   {disc:.6f}     {r_mean:.6f}")

traj = impulsive_trajectory(annulus, np.array([0.0, 1.5]), 1000.0, 0.01)
mu = occupation_measure(traj, grid, burn_in=100.0)
print(f"\noccupation measure on the 40x40 grid: {np.count_nonzero(mu.weights)}"
      f" occupied cells, weights sum to {mu.weights.sum():.12f}")

# the eight angular sectors of the lower half-circle carry 1/8 each; a finer
# grid keeps the cell-to-sector binning error small
fine = GridPartition(lo=(-2, -2), hi=(2, 2), bins=(160, 160))
mu = occupation_measure(traj, fine, burn_in=100.0)
centers = fine.cell_centers()
ang = np.mod(np.arctan2(centers[:, 1], centers[:, 0]), 2 * np.pi)
print("\nsector shares of the lower half-circle (uniform would be 0.125):")
for k in range(8):
    lo, hi = np.pi + k * np.pi / 8, np.pi + (k + 1) * np.pi / 8
    share = mu.weights[(ang >= lo) & (ang < hi)].sum()
    print(f"  [{lo:.3f}, {hi:.3f}): {share:.4f}")
