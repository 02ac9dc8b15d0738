"""Empirical invariant measures along impulsive orbits.

Every measure is one histogram of weighted states: the samples of a time
window of the orbit, weighted by their trapezoid share of its time.  The
occupation measure bins them by grid cell; a Birkhoff average weighs an
observable's values.  Invariance of the long-run measure is probed by
comparing two time-shifted windows of the same orbit, which agrees with the
pushforward definition up to O(shift/horizon) boundary terms while avoiding
preimage computations for the non-invertible semiflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .impulsive_system import ImpulsiveTrajectory

__all__ = [
    "GridPartition",
    "OccupationMeasure",
    "occupation_measure",
    "pushforward_discrepancy",
    "birkhoff_average",
]

_ESCAPE_LIMIT = 1e-3


@dataclass(frozen=True)
class GridPartition:
    """Axis-aligned box split into bins per coordinate."""

    lo: tuple
    hi: tuple
    bins: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if any(isinstance(b, bool) or not isinstance(b, (int, np.integer))
               for b in self.bins):
            raise ValueError(f"bins must be integers, got {self.bins!r}")
        object.__setattr__(self, "bins", tuple(int(b) for b in self.bins))
        if not (len(self.lo) == len(self.hi) == len(self.bins)):
            raise ValueError("lo, hi, bins must have equal lengths")
        if not np.isfinite(self.lo + self.hi).all():
            raise ValueError("lo and hi must be finite")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("require lo < hi per coordinate")
        if any(b < 1 for b in self.bins):
            raise ValueError("need at least one bin per coordinate")

    @property
    def dim(self) -> int:
        return len(self.bins)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.bins))

    def cell_of(self, x: np.ndarray) -> np.ndarray:
        """Flat cell index per state; -1 marks states outside the box.
        States exactly on the top face belong to the last cell."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        bins = np.array(self.bins)
        width = (hi - lo) / bins
        inside = ((x >= lo) & (x <= hi)).all(axis=1)
        idx = np.clip(((x - lo) / width).astype(int), 0, bins - 1)
        flat = np.ravel_multi_index(idx.T, self.bins, mode="clip")
        return np.where(inside, flat, -1)

    def cell_centers(self) -> np.ndarray:
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        bins = np.array(self.bins)
        axes = [lo[k] + (hi[k] - lo[k]) * (np.arange(bins[k]) + 0.5) / bins[k]
                for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def multi_indices(self) -> np.ndarray:
        return np.stack(np.unravel_index(np.arange(self.n_cells), self.bins),
                        axis=1)


@dataclass(frozen=True)
class OccupationMeasure:
    grid: GridPartition
    weights: np.ndarray
    escaped_frac: float


def _burn_in(traj: ImpulsiveTrajectory, burn_in: float | None) -> float:
    """The start of every measure's window: 10% of the horizon by default,
    and below the horizon."""
    if burn_in is None:
        burn_in = 0.1 * traj.horizon
    if not burn_in < traj.horizon:
        raise ValueError("burn_in must be smaller than the horizon")
    return burn_in


def _window(times: np.ndarray, a: float, b: float):
    """The samples of [a, b], as a slice of an orbit's sample ``times``, and
    their trapezoid time weights: half the span of the two adjacent
    intervals."""
    s = slice(np.searchsorted(times, a - 1e-12, side="left"),
              np.searchsorted(times, b + 1e-12, side="right"))
    t = times[s]
    if len(t) < 2:
        raise ValueError(f"window [{a:g}, {b:g}] contains fewer than two samples")
    w = np.empty(len(t))
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    return s, w


def _histogram(grid: GridPartition, cells: np.ndarray, w: np.ndarray):
    """Normalised cell weights of states with flat cells ``cells`` (-1
    outside the box) and weights ``w``, and the weight fraction outside the
    box.  Raises when that fraction reaches _ESCAPE_LIMIT."""
    ok = cells >= 0
    escaped_frac = float(w[~ok].sum()) / float(w.sum())
    if escaped_frac >= _ESCAPE_LIMIT:
        raise ValueError(
            f"{escaped_frac:.2%} of the window mass escaped the grid box"
        )
    # bincount adds in sample order, as np.add.at does
    dwell = np.bincount(cells[ok], w[ok], minlength=grid.n_cells)
    return dwell / dwell.sum(), escaped_frac


def occupation_measure(traj: ImpulsiveTrajectory, grid: GridPartition,
                       burn_in: float | None = None) -> OccupationMeasure:
    """Time-weighted empirical measure of the orbit over [burn_in, horizon].

    burn_in defaults to 10% of the horizon.  Raises when more than 0.1% of
    the window's mass falls outside the grid box.
    """
    s, w = _window(traj.sample_times, _burn_in(traj, burn_in), traj.horizon)
    weights, escaped_frac = _histogram(grid, grid.cell_of(traj.sample_states[s]), w)
    return OccupationMeasure(grid=grid, weights=weights, escaped_frac=escaped_frac)


def pushforward_discrepancy(traj: ImpulsiveTrajectory, grid: GridPartition,
                            t_shift: float, burn_in: float | None = None) -> float:
    """Finite-horizon invariance defect: the largest cell-weight difference
    between the occupation measures of [b, T - t] and [b + t, T]."""
    T = traj.horizon
    if not 0 < t_shift < T / 10:
        raise ValueError("t_shift must lie in (0, horizon/10)")
    b = _burn_in(traj, burn_in)
    cells = grid.cell_of(traj.sample_states)
    mu1, mu2 = (_histogram(grid, cells[s], w)[0] for s, w in
                (_window(traj.sample_times, b, T - t_shift),
                 _window(traj.sample_times, b + t_shift, T)))
    return float(np.abs(mu1 - mu2).max())


def birkhoff_average(traj: ImpulsiveTrajectory, f,
                     burn_in: float | None = None) -> float:
    """Time average of the observable f over [burn_in, horizon]; f maps an
    (n, dim) array of states to their n values."""
    s, w = _window(traj.sample_times, _burn_in(traj, burn_in), traj.horizon)
    vals = np.asarray(f(traj.sample_states[s]), dtype=float)
    if vals.shape != w.shape:
        raise ValueError(f"observable must give one value per state, not {vals.shape}")
    return float((w * vals).sum() / w.sum())
