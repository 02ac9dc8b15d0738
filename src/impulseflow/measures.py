"""Empirical invariant measures along impulsive orbits.

An occupation measure weighs each grid cell by the fraction of time the
sampled orbit spends in it (trapezoidal time weighting).  Invariance of the
long-run measure is probed by comparing two time-shifted windows of the same
orbit, which agrees with the pushforward definition up to O(shift/horizon)
boundary terms while avoiding preimage computations for the non-invertible
semiflow.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .impulsive_system import ImpulsiveTrajectory, SystemSpec

__all__ = [
    "GridPartition",
    "OccupationMeasure",
    "occupation_measure",
    "pushforward_discrepancy",
    "birkhoff_average",
    "write_measure_csv",
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
    total_time: float
    escaped_frac: float

    def weight_of(self, multi_index) -> float:
        flat = int(np.ravel_multi_index(tuple(multi_index), self.grid.bins))
        return float(self.weights[flat])


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Per-sample time weights: half the span of the two adjacent intervals."""
    if len(times) < 2:
        return np.ones(len(times))
    w = np.empty(len(times))
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    return w


def _window_accumulate(traj: ImpulsiveTrajectory, grid: GridPartition,
                       a: float, b: float):
    """Cell dwell times for the sample window [a, b]."""
    times = traj.sample_times
    sel = (times >= a - 1e-12) & (times <= b + 1e-12)
    tw = times[sel]
    if len(tw) < 2:
        raise ValueError("window contains fewer than two samples")
    w = _trapezoid_weights(tw)
    cells = grid.cell_of(traj.sample_states[sel])
    dwell = np.zeros(grid.n_cells)
    ok = cells >= 0
    np.add.at(dwell, cells[ok], w[ok])
    escaped_time = float(w[~ok].sum())
    return dwell, escaped_time, float(w.sum())


def occupation_measure(traj: ImpulsiveTrajectory, grid: GridPartition,
                       burn_in: float | None = None) -> OccupationMeasure:
    """Time-weighted empirical measure of the orbit over [burn_in, horizon].

    burn_in defaults to 10% of the horizon.  Raises when more than 0.1% of
    the window's mass falls outside the grid box.
    """
    if burn_in is None:
        burn_in = 0.1 * traj.horizon
    if not burn_in < traj.horizon:
        raise ValueError("burn_in must be smaller than the horizon")
    dwell, escaped, total = _window_accumulate(traj, grid, burn_in, traj.horizon)
    escaped_frac = escaped / total
    if escaped_frac >= _ESCAPE_LIMIT:
        raise ValueError(
            f"{escaped_frac:.2%} of the window mass escaped the grid box"
        )
    in_time = dwell.sum()
    return OccupationMeasure(
        grid=grid,
        weights=dwell / in_time,
        total_time=total,
        escaped_frac=escaped_frac,
    )


def pushforward_discrepancy(sys: SystemSpec, traj: ImpulsiveTrajectory,
                            grid: GridPartition, t_shift: float,
                            burn_in: float | None = None) -> float:
    """Finite-horizon invariance defect: the largest cell-weight difference
    between the occupation measures of [b, T - t] and [b + t, T]."""
    T = traj.horizon
    if not 0 < t_shift < T / 10:
        raise ValueError("t_shift must lie in (0, horizon/10)")
    if burn_in is None:
        burn_in = 0.1 * T
    d1, e1, _ = _window_accumulate(traj, grid, burn_in, T - t_shift)
    d2, e2, _ = _window_accumulate(traj, grid, burn_in + t_shift, T)
    for dwell, esc in ((d1, e1), (d2, e2)):
        tot = dwell.sum() + esc
        if esc / tot >= _ESCAPE_LIMIT:
            raise ValueError("window mass escaped the grid box")
    mu1 = d1 / d1.sum()
    mu2 = d2 / d2.sum()
    return float(np.abs(mu1 - mu2).max())


def birkhoff_average(traj: ImpulsiveTrajectory, observable,
                     burn_in: float | None = None) -> float:
    """Time average of a builtin observable over [burn_in, horizon].

    observable is "one", "radius", "coord<i>" with i a decimal index below
    the state dimension, or a tuple ("cell_indicator", grid, multi_index);
    the cell indicator shares the occupation-measure code path, so the two
    agree exactly.
    """
    if burn_in is None:
        burn_in = 0.1 * traj.horizon
    if isinstance(observable, tuple):
        kind = observable[0]
        if kind != "cell_indicator":
            raise ValueError(f"unknown observable {observable!r}")
        _, grid, multi_index = observable
        return occupation_measure(traj, grid, burn_in).weight_of(multi_index)
    times = traj.sample_times
    sel = (times >= burn_in - 1e-12)
    w = _trapezoid_weights(times[sel])
    states = traj.sample_states[sel]
    if observable == "one":
        vals = np.ones(len(states))
    elif observable == "radius":
        vals = np.hypot(states[:, 0], states[:, 1])
    elif observable in {f"coord{i}" for i in range(states.shape[1])}:
        vals = states[:, int(observable[5:])]
    else:
        raise ValueError(f"unknown observable {observable!r}")
    return float((w * vals).sum() / w.sum())


def write_measure_csv(measure: OccupationMeasure, path) -> None:
    """Measure as CSV: cell multi-index, cell center coordinates, weight."""
    grid = measure.grid
    centers = grid.cell_centers()
    mids = grid.multi_indices()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        idx_cols = [f"i{k}" for k in range(grid.dim)]
        mid_cols = [f"center{k}" for k in range(grid.dim)]
        w.writerow([*idx_cols, *mid_cols, "weight"])
        for c in range(grid.n_cells):
            w.writerow([*map(int, mids[c]),
                        *(repr(float(v)) for v in centers[c]),
                        repr(float(measure.weights[c]))])
