"""Impulsive semiflows: detect hits of the impulsive set, apply the impulse
map, and realize the hit-time recursion.

The one propagation engine, ``_propagate``, advances a whole batch of
independent initial states with one shared adaptive step (``BatchStepper``)
and owns the step cap, the horizon and finish rule and the final dense
evaluation.  ``_Pieces`` evaluates the impulsive-set pieces: each level's
polynomial form, with the zero set and sign of L_j - c_j, and its halfspace
test.  ``_first_crossings`` finds each member's earliest crossing in a step,
whatever the step's length: ``_RootScan`` isolates it on the Bernstein
coefficients of the level form along the step's dense output, and a
bracketed secant (Illinois) iteration locates it.  ``_BatchRun`` records
grid samples, hits and final states.
``flow_core.flow`` is the engine's case with no impulsive-set pieces.
Trajectories are right-continuous across impulses: the value at a hit time
is the post-impulse state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .flow_core import (
    BatchStepper,
    IntegratorConfig,
    RegionEscape,
    VectorFieldSpec,
    builtin_level,
    dense_bernstein,
    dense_eval,
    eval_vector_field,
    level_value,
    make_rhs,
    system_dimension,
)

__all__ = [
    "ImpulsiveSetSpec",
    "ImpulseMapSpec",
    "SystemSpec",
    "ImpulsiveTrajectory",
    "TrajectoryBatch",
    "AmbiguousCrossing",
    "GapUnderflow",
    "RunStats",
    "first_hitting_time",
    "apply_impulse",
    "impulse_preimages",
    "impulsive_trajectory",
    "impulsive_trajectory_batch",
    "hit_times_batch",
    "psi",
    "psi_batch",
    "write_trajectory_csv",
    "write_impulses_csv",
]

_TIME_TOL = 1e-12          # hit times are located to a bracket this wide
_HORIZON_SLACK = 1e-9      # hits this close past a horizon still count (right continuity)
_COINCIDE_TOL = 1e-9       # sample time equals a hit time within this -> post state
_MIN_GAP = 1e-9            # consecutive hits closer than this raise GapUnderflow
_MEMBERSHIP_TOL = 1e-9     # a state this close to a piece's level lies on it
_REGION_TOL = 1e-6         # admissible regions admit states this far outside
# the rounding bound of a level form's Bernstein coefficients on a scan's
# trial interval: n * _ROUNDING times the form's magnitude scale at degree n,
# 28 ulps of 1 at degree 7 (against errors below 2 ulps in exact-rational
# checks); coefficients closer to zero count as either sign
_ROUNDING = 2.0 ** -50


class AmbiguousCrossing(RuntimeError):
    """Level crossings inside one integration step that subdivision cannot
    separate to _TIME_TOL: the orbit is tangent to the impulsive set."""


class GapUnderflow(RuntimeError):
    """Consecutive hit times closer than the minimum gap; the configuration is
    degenerate (numerically the impulse image touches the impulsive set)."""


# --------------------------------------------------------------------------
# Specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpulsiveSetSpec:
    """A constrained codimension-one piece of a level set {L = c}.

    halfspaces: tuple of (normal, offset) pairs; a state x belongs to the set
    only if normal . x >= offset for each pair.  direction restricts the sign
    of dL/dt at a crossing: +1 means L increases through c, -1 decreases,
    0 accepts both.  sampler, when given, maps a count n to n quasi-uniform
    points of the piece, shape (n, dim).
    """

    level_id: str
    level_value: float
    halfspaces: tuple = ()
    direction: int = 0
    sampler: Callable[[int], np.ndarray] | None = field(
        default=None, compare=False, repr=False)

    def constraint_mask(self, x: np.ndarray, slack: float = 1e-9) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ok = np.ones(len(x), dtype=bool)
        for normal, offset in self.halfspaces:
            ok &= x @ np.asarray(normal, dtype=float) >= offset - slack
        return ok

    def contains(self, x: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Membership test: on the level within tolerance (default
        ``_MEMBERSHIP_TOL``) and inside every halfspace."""
        tol = _MEMBERSHIP_TOL if tol is None else tol
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xs = np.atleast_2d(x)
        near = np.abs(level_value(self.level_id, xs) - self.level_value) <= tol
        ok = near & self.constraint_mask(xs, slack=tol)
        return bool(ok[0]) if single else ok


@dataclass(frozen=True)
class ImpulseMapSpec:
    """A builtin impulse map, selected by id."""

    map_id: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.map_id not in _IMPULSE_MAPS:
            raise ValueError(f"unknown map_id {self.map_id!r}")
        object.__setattr__(self, "params", dict(self.params))


def _imp_annulus_fold(params, x, set_idx):
    # (x, 0) -> (-1/2 - x/2, 0): folds the right segment onto the left one
    out = np.empty_like(x)
    out[:, 0] = -0.5 - 0.5 * x[:, 0]
    out[:, 1] = 0.0
    return out


def _inv_annulus_fold(params, p):
    x0 = -2.0 * p[0] - 1.0
    return [np.array([x0, 0.0])]


def _imp_plane_rescale(params, x, set_idx):
    xi = np.asarray(params["xi"], dtype=float)
    eta = np.asarray(params["eta"], dtype=float)
    scale = eta[set_idx] / xi[set_idx]
    return x * scale[:, None]


def _inv_plane_rescale(params, p):
    xi = np.asarray(params["xi"], dtype=float)
    eta = np.asarray(params["eta"], dtype=float)
    s = float(p.sum())
    out = []
    for i in range(len(xi)):
        if abs(s - eta[i]) <= 1e-7 * max(1.0, eta[i]):
            out.append(p * (xi[i] / eta[i]))
    return out


def _imp_angle_double(params, x, set_idx):
    # cylinder point (cos a, sin a, 1) -> (cos 2a, sin 2a, 0)
    ang = np.arctan2(x[:, 1], x[:, 0])
    out = np.empty_like(x)
    out[:, 0] = np.cos(2.0 * ang)
    out[:, 1] = np.sin(2.0 * ang)
    out[:, 2] = 0.0
    return out


def _inv_angle_double(params, p):
    ang = np.arctan2(p[1], p[0])
    out = []
    for half in (ang / 2.0, ang / 2.0 + np.pi):
        out.append(np.array([np.cos(half), np.sin(half), 1.0]))
    return out


def _imp_translate(params, x, set_idx):
    return x + np.asarray(params["offset"], dtype=float)


def _inv_translate(params, p):
    return [p - np.asarray(params["offset"], dtype=float)]


def _imp_radius_rescale(params, x, set_idx):
    return x * (params["eta"] / params["xi"])


def _inv_radius_rescale(params, p):
    if abs(np.hypot(p[0], p[1]) - params["eta"]) <= 1e-7:
        return [p * (params["xi"] / params["eta"])]
    return []


_IMPULSE_MAPS: dict[str, tuple[Callable, Callable]] = {
    "annulus_fold": (_imp_annulus_fold, _inv_annulus_fold),
    "plane_rescale": (_imp_plane_rescale, _inv_plane_rescale),
    "angle_double": (_imp_angle_double, _inv_angle_double),
    "translate": (_imp_translate, _inv_translate),
    "radius_rescale": (_imp_radius_rescale, _inv_radius_rescale),
}


# --------------------------------------------------------------------------
# Admissible regions
# --------------------------------------------------------------------------

def _adm_annulus(params, x):
    r = np.hypot(x[:, 0], x[:, 1])
    return (r >= params["rmin"] - _REGION_TOL) & (r <= params["rmax"] + _REGION_TOL)


def _adm_octant(params, x):
    return (x >= -_REGION_TOL).all(axis=1)


def _adm_cylinder(params, x):
    r = np.hypot(x[:, 0], x[:, 1])
    h = x[:, 2]
    return ((np.abs(r - 1.0) <= 1e-3) & (h >= -_REGION_TOL)
            & (h <= params["hmax"] + _REGION_TOL))


def _adm_box(params, x):
    lo = np.asarray(params["lo"], dtype=float)
    hi = np.asarray(params["hi"], dtype=float)
    return ((x >= lo - _REGION_TOL) & (x <= hi + _REGION_TOL)).all(axis=1)


_ADMISSIBLE: dict[str, Callable] = {
    "annulus_band": _adm_annulus,
    "nonneg_octant": _adm_octant,
    "cylinder": _adm_cylinder,
    "box": _adm_box,
}


@dataclass(frozen=True)
class SystemSpec:
    """A complete impulsive dynamical system: continuous field, impulsive set
    (a finite union of constrained level-set pieces), its image description,
    and the impulse map.

    A builtin system also carries its candidate cloud, ``cloud(n, rng)`` ->
    (n, dim) states drawn from ``rng``, and its default measure box, a
    ``(lo, hi)`` pair of corners.
    """

    name: str
    field: VectorFieldSpec
    impulsive_sets: tuple[ImpulsiveSetSpec, ...]
    image_sets: tuple[ImpulsiveSetSpec, ...]
    impulse: ImpulseMapSpec
    admissible_id: str
    admissible_params: Mapping[str, object] = field(default_factory=dict)
    cloud: Callable[[int, np.random.Generator], np.ndarray] | None = field(
        default=None, compare=False, repr=False)
    box: tuple[tuple[float, ...], tuple[float, ...]] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "admissible_params", dict(self.admissible_params))

    @property
    def dim(self) -> int:
        return system_dimension(self.field)

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.dim))

    def admissible(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        ok = _ADMISSIBLE[self.admissible_id](self.admissible_params, np.atleast_2d(x))
        return bool(ok[0]) if single else ok

    def in_impulsive_set(self, x: np.ndarray, tol: float | None = None):
        """Index of the first impulsive-set piece containing x, or -1."""
        for j, piece in enumerate(self.impulsive_sets):
            if piece.contains(x, tol):
                return j
        return -1


def apply_impulse(sys: SystemSpec, x: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Apply the impulse map at a state of the impulsive set.

    Raises ValueError when x is not on the set within ``tol`` (default:
    ``_MEMBERSHIP_TOL``).
    """
    x = np.asarray(x, dtype=float)
    j = sys.in_impulsive_set(x, tol)
    if j < 0:
        raise ValueError("state is not on the impulsive set")
    fn, _ = _IMPULSE_MAPS[sys.impulse.map_id]
    return fn(sys.impulse.params, x[None, :], np.array([j]))[0]


def impulse_preimages(sys: SystemSpec, p: np.ndarray) -> list[np.ndarray]:
    """All impulsive-set states mapping to ``p`` under the impulse map
    (analytic inverses of the builtin maps); empty when p is off the image.

    Every inverse branch is validated by the forward map: q counts only when
    q lies on the impulsive set and I(q) reproduces p.
    """
    p = np.asarray(p, dtype=float)
    fwd, inv = _IMPULSE_MAPS[sys.impulse.map_id]
    out = []
    tol = 1e-7 * (1.0 + float(np.linalg.norm(p)))
    for q in inv(sys.impulse.params, p):
        j = sys.in_impulsive_set(q, tol=1e-7)
        if j < 0:
            continue
        back = fwd(sys.impulse.params, q[None, :], np.array([j]))[0]
        if np.linalg.norm(back - p) <= tol:
            out.append(q)
    return out


# --------------------------------------------------------------------------
# Batch propagation with event handling
# --------------------------------------------------------------------------

@dataclass
class RunStats:
    """Work counters of an impulsive propagation.  For a fixed batch they
    are deterministic, so they can be recorded beside the outputs.

    ``h_min`` and ``h_max`` bound the accepted step sizes (inf and 0 before
    any step); ``subdivisions`` counts the halvings of the root scan's trial
    intervals that isolating the earliest crossings took.
    """

    steps: int = 0
    rejected_steps: int = 0
    h_min: float = math.inf
    h_max: float = 0.0
    hits: int = 0
    discarded_crossings: int = 0
    subdivisions: int = 0
    root_passes: int = 0


class _BatchRun:
    """Recorder of one batched propagation: the grid samples, final states,
    hits and work counters of every member."""

    def __init__(self, X0, sample_grid):
        self.n, self.dim = X0.shape
        self.final = np.zeros_like(X0)
        self.stats = RunStats()
        self._hits = []     # one (members, taus, pre, post) block per step with hits
        self._last_tau = np.full(self.n, np.nan)
        self.grid = sample_grid
        if sample_grid is not None:
            self.samples = np.full((self.n, len(sample_grid), self.dim), np.nan)
            self.ptr = np.zeros(self.n, dtype=int)
            if len(sample_grid) and sample_grid[0] <= _COINCIDE_TOL:
                self.samples[:, 0] = X0
                self.ptr[:] = 1

    def fill_samples(self, members, t0, adv, y0, F, h):
        """Write the grid samples up to ``_COINCIDE_TOL`` past the end of the
        advance by ``adv`` from ``t0`` (one entry per member) on the step's
        dense output; ``y0`` and the interpolant rows ``F`` are indexed by
        member id.  ``record_hits`` then owns a sample on a hit time."""
        grid = self.grid
        if grid is None or len(members) == 0:
            return
        k0 = self.ptr[members]
        k1 = np.searchsorted(grid, t0 + adv + _COINCIDE_TOL, side="right")
        counts = np.maximum(k1 - k0, 0)
        total = int(counts.sum())
        if total == 0:
            return
        rows = np.repeat(np.arange(len(members)), counts)
        offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        g_idx = k0[rows] + offs
        m_rep = members[rows]
        # a finishing member's advance may run up to _HORIZON_SLACK past the
        # step, to its horizon; past the end of any other advance a sample
        # takes the step's end state
        u = np.clip((grid[g_idx] - t0[rows]) / h, 0.0, np.maximum(adv, h)[rows] / h)
        self.samples[m_rep, g_idx] = dense_eval(y0[m_rep], F[:, m_rep], u)
        self.ptr[members] = np.maximum(k0, k1)

    def record_hits(self, members, taus, pre, post, min_gap):
        gap = taus - self._last_tau[members]
        bad = np.flatnonzero(gap < min_gap)     # NaN for a member's first hit
        if len(bad):
            raise GapUnderflow(
                f"hit gap {gap[bad[0]]:.3e} below {min_gap:.0e}; the impulse "
                "image is numerically touching the impulsive set"
            )
        self._last_tau[members] = taus
        self._hits.append((members, taus, pre, post))
        self.stats.hits += len(members)
        if self.grid is not None:
            # a sample on the hit time carries the post-impulse state: it is
            # the last one written, by this step or by the one before
            last = self.ptr[members] - 1
            on = last >= 0
            on[on] = np.abs(self.grid[last[on]] - taus[on]) <= _COINCIDE_TOL
            self.samples[members[on], last[on]] = post[on]

    def hits_by_member(self):
        """The hits in compressed rows: offsets (n + 1,), hit times, pre- and
        post-impulse states; member i's, in time order, at offsets[i]:offsets[i + 1]."""
        if self._hits:
            members, taus, pre, post = (np.concatenate(a) for a in zip(*self._hits))
        else:
            members, taus = np.zeros(0, dtype=int), np.zeros(0)
            pre = post = np.zeros((0, self.dim))
        order = np.argsort(members, kind="stable")
        offsets = np.searchsorted(members[order], np.arange(self.n + 1))
        return offsets, taus[order], pre[order], post[order]


class _Pieces:
    """The impulsive-set pieces of one run: each piece's level form, whose
    zero set and sign are those of L_j - c_j, and its halfspace test.
    ``level`` evaluates every piece, one column per piece, or piece ``j``
    alone."""

    def __init__(self, sets):
        self.sets = sets
        self.levels = [builtin_level(p.level_id) for p in sets]

    def level(self, x, j=None):
        if j is not None:
            return self.levels[j].form(x, self.sets[j].level_value)
        out = np.empty((len(x), len(self.sets)))
        for k in range(len(self.sets)):
            out[:, k] = self.level(x, k)
        return out

    def along_step(self, j, B):
        """Bernstein coefficients of piece j's form along the steps with the
        interpolant coefficients ``B``, and their rounding bound."""
        b, scale = self.levels[j].form_along_step(B, self.sets[j].level_value)
        return b, _ROUNDING * (len(b) - 1) * scale

    def inside(self, x, j):
        return self.sets[j].constraint_mask(x)


def _bracketed_roots(f, a, b, fa, fb, tol):
    """Roots of f in the brackets [a, b] (f changes sign, fa != 0), by the
    Illinois variant of regula falsi with a bisection fallback.

    Each root is located to a bracket no wider than ``tol`` (returned as its
    midpoint) or where f evaluates to exactly zero.  Trial points keep tol/2
    clear of both ends, so a secant estimate that is already accurate
    collapses the bracket on the next pass.  A member whose bracket failed
    to halve on two consecutive passes is bisected.  ``f(u, rows)`` evaluates
    the members ``rows`` at ``u``.  Returns (roots, passes).
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    sign_a = np.sign(fa)
    root = np.full(len(a), np.nan)
    kept = np.zeros(len(a), dtype=np.int8)   # end kept by the last pass: -1 a, +1 b
    poor = np.zeros(len(a), dtype=np.int8)   # consecutive passes that did not halve
    live = np.flatnonzero(b - a > tol)
    passes = 0
    while len(live):
        passes += 1
        A, B, FA, FB = a[live], b[live], fa[live], fb[live]
        c = (A * FB - B * FA) / (FB - FA)
        bisect = (poor[live] >= 2) | ~np.isfinite(c)
        c = np.where(bisect, 0.5 * (A + B), c)
        c = np.clip(c, A + 0.5 * tol, B - 0.5 * tol)
        fc = f(c, live)
        zero = fc == 0
        root[live[zero]] = c[zero]
        left = (np.sign(fc) == sign_a[live]) & ~zero
        right = ~left & ~zero
        # Illinois: an end kept twice in a row has its value halved
        i = live[left]
        a[i], fa[i] = c[left], fc[left]
        fb[i[kept[i] == 1]] *= 0.5
        kept[i] = 1
        i = live[right]
        b[i], fb[i] = c[right], fc[right]
        fa[i[kept[i] == -1]] *= 0.5
        kept[i] = -1
        poor[live] = np.where(b[live] - a[live] > 0.5 * (B - A), poor[live] + 1, 0)
        live = live[~zero & (b[live] - a[live] > tol)]
    todo = np.isnan(root)
    root[todo] = 0.5 * (a[todo] + b[todo])
    return root, passes


def _split(b, t):
    """De Casteljau's algorithm: the Bernstein coefficients of the
    polynomials with the coefficients ``b`` (n + 1, k) on [0, t] and on
    [t, 1] of their parameter, one t per column."""
    n = len(b) - 1
    left, right = np.empty_like(b), np.empty_like(b)
    left[0], right[n] = b[0], b[n]
    w = b
    for r in range(1, n + 1):
        w = w[:-1] + t * (w[1:] - w[:-1])
        left[r], right[n - r] = w[0], w[-1]
    return left, right


class _RootScan:
    """Left-to-right isolation of the roots of polynomials p on [0, 1], one
    per column of their Bernstein coefficients ``b`` (n + 1, k).

    A trial interval [lo, hi] starts where p has the known sign s.  It is
    passed when all of p's coefficients on it after the first have sign s,
    and it holds exactly one root when they run s, ..., s, then at most one
    coefficient of either sign, then -s to the end.  Descartes' rule of signs
    for the Bernstein basis makes both verdicts exact for coefficients that
    are exact to within ``eps``, so a coefficient within ``eps`` of zero
    counts as either sign.  A trial that gets neither verdict is halved (one
    subdivision); after a passed one the next trial is twice as wide.
    p(0) and p(1) count at face value: an exact zero at 1 is a root, one at
    0 is not, and the scan then takes the sign of p just past 0.

    A root whose crossing ``direction`` forbids (+1: upward only, -1:
    downward only, 0: either) is passed like a root-free trial.  A column
    whose trial falls below ``min_width`` without a verdict is stuck at its
    ``lo``: the roots there are too close to separate, a tangency.
    """

    def __init__(self, b, eps, min_width, direction):
        k = b.shape[1]
        self.b, self.eps, self.min_width, self.direction = b, eps, min_width, direction
        self.lo, self.width = np.zeros(k), np.ones(k)
        self.f_lo, self.sign = b[0].copy(), np.sign(b[0])
        self.hi, self.f_hi = np.ones(k), b[-1].copy()
        self.stuck = np.full(k, np.inf)
        self.subdivisions = 0
        self._fresh = True

    def brackets(self, rows):
        """Isolate the next admissible root of each of the columns ``rows``.
        Returns the columns that have one, with their brackets (lo, hi) and
        the values of p there; the others are root-free to 1 or stuck."""
        found = []
        while len(rows):
            lo, width, s = self.lo[rows], self.width[rows], self.sign[rows]
            hi = np.minimum(lo + width, 1.0)
            if self._fresh:     # the first trial of every column is [0, 1]
                trial = self.b[:, rows].copy()
                self._fresh = False
            else:
                _, right = _split(self.b[:, rows], lo)
                trial, _ = _split(right, (hi - lo) / (1.0 - lo))
            at_end = hi >= 1.0
            trial[-1] = np.where(at_end, self.b[-1, rows], trial[-1])
            d = np.where(np.abs(trial[1:]) > self.eps[rows], np.sign(trial[1:]), 0.0)
            d[-1] = np.where(at_end, np.where(trial[-1] == 0, -s, np.sign(trial[-1])),
                             d[-1])
            s = np.where(s == 0, d[0], s)
            passed = (d == s).all(axis=0) & (s != 0)
            others = np.cumsum(d != s, axis=0)
            one = ((self.sign[rows] != 0) & (d[-1] == -s)
                   & ~((d == s) & (others > 0)).any(axis=0)
                   & ((d != 0) | (others == 1)).all(axis=0))
            skip = one & (self.direction * s > 0)
            one &= ~skip
            # a passed trial or a skipped root: go on from hi
            go = rows[passed | skip]
            self.lo[go] = hi[passed | skip]
            self.f_lo[go] = trial[-1, passed | skip]
            self.sign[go] = np.where(skip, -s, s)[passed | skip]
            self.width[go] *= 2.0
            # a bracket: stop here until ``resume``
            iso = rows[one]
            self.hi[iso], self.f_hi[iso] = hi[one], trial[-1, one]
            found.append(iso)
            # no verdict: halve, down to min_width
            halve = rows[~passed & ~skip & ~one]
            self.subdivisions += len(halve)
            self.width[halve] *= 0.5
            low = self.width[halve] < self.min_width[halve]
            self.stuck[halve[low]] = self.lo[halve[low]]
            rows = np.concatenate([go[self.lo[go] < 1.0], halve[~low]])
        rows = np.concatenate(found)
        return (rows, self.lo[rows], self.hi[rows], self.f_lo[rows],
                self.f_hi[rows])

    def resume(self, rows):
        """Continue the columns ``rows`` past their last bracket; returns
        those that have some of [0, 1] left."""
        self.lo[rows], self.f_lo[rows] = self.hi[rows], self.f_hi[rows]
        self.sign[rows] *= -1.0
        return rows[self.lo[rows] < 1.0]


def _first_crossings(pieces, dirs, y0, F, h, L_here, L_new, end, stats):
    """Earliest admissible crossing of each member inside one step.

    Member m's crossings are sought on the fraction [0, end[m]] of the step
    (0: inactive), on the Bernstein coefficients of each piece's level form
    along the dense output, with the level's values at the step's ends
    (``L_here``, ``L_new``) as the end coefficients.  ``_RootScan`` isolates
    each member's earliest root of each piece, skipping a root in the
    direction the piece forbids, and ``_bracketed_roots`` locates it to
    _TIME_TOL in time.  A root whose state fails the piece's halfspace
    constraints is discarded and the scan resumes past it.  The earliest
    crossing per member counts (ties to the lowest piece index).
    AmbiguousCrossing is raised when a member's scan is stuck before that.

    Returns (members, u, piece, state) of the hits, in member order: the step
    fraction, the piece index and the pre-impulse state of each.
    """
    members = np.flatnonzero(end > 0)
    e = end[members]
    cut = np.flatnonzero(e != 1.0)
    B = dense_bernstein(y0[members], F[:, members])
    scans = []
    for j in range(len(pieces.sets)):
        b, eps = pieces.along_step(j, B)
        b[0], b[-1] = L_here[members, j], L_new[members, j]
        if len(cut):
            b[:, cut] = _split(b[:, cut], e[cut])[0]
        # no root where every coefficient keeps the sign of the first
        s = np.sign(b[0])
        cand = np.flatnonzero((s * b[-1] <= 0) | (s * b[1:-1] <= eps).any(axis=0))
        if len(cand):
            scans.append((j, members[cand], e[cand], _RootScan(
                b[:, cand], eps[cand], _TIME_TOL / (h * e[cand]), dirs[j])))
    if not scans:
        return members[:0], e[:0], members[:0], y0[:0]
    n = len(y0)
    hit_u = np.full(n, np.inf)
    hit_set = np.zeros(n, dtype=int)
    hit_state = np.empty_like(y0)
    stuck = np.full(n, np.inf)
    for j, m, e_c, scan in scans:
        rows = np.arange(len(m))
        while len(rows):
            rows, lo, hi, f_lo, f_hi = scan.brackets(rows)
            if not len(rows):
                break
            i = m[rows]
            y_c, F_c = y0[i], F[:, i]
            u, passes = _bracketed_roots(
                lambda u, r: pieces.level(dense_eval(y_c[r], F_c[:, r], u), j),
                lo * e_c[rows], hi * e_c[rows], f_lo, f_hi, _TIME_TOL / h)
            stats.root_passes += passes
            states = dense_eval(y_c, F_c, u)
            ok = pieces.inside(states, j)
            first = ok & (u < hit_u[i])
            hit_u[i[first]] = u[first]
            hit_set[i[first]] = j
            hit_state[i[first]] = states[first]
            stats.discarded_crossings += int((~ok).sum())
            rows = scan.resume(rows[~ok])
        stats.subdivisions += scan.subdivisions
        stuck[m] = np.minimum(stuck[m], scan.stuck * e_c)
    bad = np.flatnonzero(stuck < hit_u)
    if len(bad):
        raise AmbiguousCrossing(
            f"level crossings {stuck[bad[0]] * h:.3e} into a step of {h:.3e} "
            "cannot be separated to 1e-12 in time: the orbit is tangent to "
            "the impulsive set")
    hit = np.flatnonzero(np.isfinite(hit_u))
    return hit, hit_u[hit], hit_set[hit], hit_state[hit]


def _propagate(sys: SystemSpec | VectorFieldSpec, x0: np.ndarray, durations,
               cfg: IntegratorConfig,
               sample_grid: np.ndarray | None = None,
               stop_at_first_hit: bool = False,
               time_sign: float = 1.0) -> _BatchRun:
    """Advance a batch of states through the impulsive semiflow: the one
    propagation engine.

    Each member runs for its own duration.  The earliest hit of an
    impulsive-set piece in each step is found by ``_first_crossings`` on the
    dense output, however long the step, the impulse map is applied, and
    ``_BatchRun`` records samples, hits and final states.  A member finishes
    in the step that brings it within _HORIZON_SLACK of its horizon; its
    final state is the dense output at the horizon, and its hits are sought
    up to _HORIZON_SLACK past it, so a hit on the horizon counts (right
    continuity).  A bare VectorFieldSpec for ``sys`` is the continuous flow,
    the case with no impulsive-set pieces and no region check.

    time_sign=-1 integrates the reversed field (meaningful for the invertible
    builtin flows; used by backward reachability probes): the run then
    accepts either crossing direction and skips the region check.
    """
    X0 = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    n = len(X0)
    durations = np.broadcast_to(np.asarray(durations, dtype=float), (n,)).copy()
    if (durations < 0).any():
        raise ValueError("durations must be nonnegative")
    forward = time_sign > 0
    if isinstance(sys, VectorFieldSpec):
        field, sets, check_region = sys, (), False
    else:
        field, sets, check_region = sys.field, sys.impulsive_sets, forward
    run = _BatchRun(X0, sample_grid)
    stats = run.stats
    pieces = _Pieces(sets)
    dirs = np.array([p.direction if forward else 0 for p in sets])

    t = np.zeros(n)
    done = durations <= 0
    run.final[done] = X0[done]
    stepper = BatchStepper(make_rhs(field, sign=time_sign), X0, cfg)
    stepper.active = ~done
    L_here = pieces.level(stepper.y)
    while not done.all():
        rem = np.where(done, -np.inf, durations - t)
        h_cap = max(float(rem[~done].max()), 10 * cfg.min_step)
        h, y_prop, K = stepper.step(h_cap)
        stats.steps += 1
        stats.h_min = min(stats.h_min, h)
        stats.h_max = max(stats.h_max, h)
        y0 = stepper.y
        active = ~done
        finish = active & (rem <= h + _HORIZON_SLACK)
        adv = np.where(finish, rem, np.where(active, h, 0.0))
        L_new = pieces.level(y_prop)
        F = stepper.interpolant(h, y_prop, K)
        # the fraction of the step whose hits count: to _HORIZON_SLACK past
        # the horizon for a finishing member, none for a finished one
        scan_end = np.where(finish, (rem + _HORIZON_SLACK) / h, active * 1.0)
        hit_members, hit_u, hit_set, pre_states = _first_crossings(
            pieces, dirs, y0, F, h, L_here, L_new, scan_end, stats)
        adv[hit_members] = hit_u * h
        taus = t[hit_members] + adv[hit_members]
        members = np.flatnonzero(active)
        run.fill_samples(members, t[members], adv[members], y0, F, h)

        y_commit = y_prop.copy()
        y_commit[done] = y0[done]
        finish[hit_members] = False
        if finish.any():
            run.final[finish] = dense_eval(y0[finish], F[:, finish], rem[finish] / h)
            y_commit[finish] = run.final[finish]
        if len(hit_members):
            imp_fn, _ = _IMPULSE_MAPS[sys.impulse.map_id]
            post_states = imp_fn(sys.impulse.params, pre_states, hit_set)
            run.record_hits(hit_members, taus, pre_states, post_states, _MIN_GAP)
            y_commit[hit_members] = pre_states if stop_at_first_hit else post_states
            # a hit ends its member's run when the run stops at the first hit,
            # and on (or within the slack past) the horizon: right continuity
            ended = hit_members
            if not stop_at_first_hit:
                ended = hit_members[durations[hit_members] - taus <= _HORIZON_SLACK]
            run.final[ended] = y_commit[ended]
            finish[ended] = True
        t = t + adv

        done = done | finish
        stepper.commit(y_commit, K)
        stepper.active = ~done
        # levels at the committed states: the step's end values but where an
        # impulse replaced the state (a finished member's are unread)
        L_here = L_new
        if len(hit_members):
            stepper.refresh_derivative(hit_members)
            L_here[hit_members] = pieces.level(stepper.y[hit_members])

        if check_region and (~done).any():
            ok = sys.admissible(stepper.y[~done])
            if not ok.all():
                bad = np.flatnonzero(~done)[~ok][0]
                raise RegionEscape(
                    f"trajectory left the admissible region of {sys.name!r} "
                    f"near state {stepper.y[bad]}"
                )

    stats.rejected_steps = stepper.rejected
    return run


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpulsiveTrajectory:
    """Member ``_member`` of the TrajectoryBatch ``_batch``: a sampled
    impulsive orbit, its hit times, and the states just before / after each
    impulse.  A sample falling on a hit time carries the post-impulse state.
    """

    system: SystemSpec
    initial_state: np.ndarray
    horizon: float
    dt_sample: float
    impulse_times: np.ndarray
    pre_impulse_states: np.ndarray
    post_impulse_states: np.ndarray
    sample_times: np.ndarray
    sample_states: np.ndarray
    final_state: np.ndarray
    _batch: "TrajectoryBatch" = field(repr=False, compare=False)
    _member: int = field(repr=False, compare=False)

    @property
    def n_impulses(self) -> int:
        return len(self.impulse_times)

    def segment_index(self, t) -> np.ndarray:
        """Number of impulses up to time t, counting a hit within
        _COINCIDE_TOL after t, where a sample carries the post-impulse state."""
        return np.searchsorted(self.impulse_times, np.asarray(t) + _COINCIDE_TOL,
                               side="right")

    def evaluate(self, t) -> np.ndarray:
        """State of the orbit at time(s) t in [0, horizon]."""
        return self._batch.evaluate(self._member, t)


@dataclass(frozen=True)
class TrajectoryBatch:
    """The sampled impulsive orbits of a batch of initial states.

    ``samples`` (n, m, dim) are taken on the shared grid ``sample_times``.
    Member i's hit times, pre-impulse and post-impulse states are the rows
    hit_offsets[i]:hit_offsets[i + 1] of ``hit_times``, ``pre_impulse_states``
    and ``post_impulse_states``.  ``stats`` are the work counters of the run
    that made the batch.  ``batch[i]`` is member i's ImpulsiveTrajectory,
    iteration yields them in order, and ``batch[idx]``, for a slice or an
    index array, is the sub-batch of those members.
    """

    system: SystemSpec
    horizon: float
    dt_sample: float
    initial_states: np.ndarray
    sample_times: np.ndarray
    samples: np.ndarray
    hit_offsets: np.ndarray
    hit_times: np.ndarray
    pre_impulse_states: np.ndarray
    post_impulse_states: np.ndarray
    final_states: np.ndarray
    stats: RunStats

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            i = range(len(self))[idx]
            a, b = self.hit_offsets[i:i + 2]
            return ImpulsiveTrajectory(
                self.system, self.initial_states[i], self.horizon, self.dt_sample,
                self.hit_times[a:b], self.pre_impulse_states[a:b],
                self.post_impulse_states[a:b], self.sample_times, self.samples[i],
                self.final_states[i], self, i)
        sel = np.arange(len(self))[idx]
        counts = np.diff(self.hit_offsets)[sel]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rows = (np.repeat(self.hit_offsets[sel] - offsets[:-1], counts)
                + np.arange(offsets[-1]))
        return replace(
            self, initial_states=self.initial_states[sel], samples=self.samples[sel],
            hit_offsets=offsets, hit_times=self.hit_times[rows],
            pre_impulse_states=self.pre_impulse_states[rows],
            post_impulse_states=self.post_impulse_states[rows],
            final_states=self.final_states[sel])

    @property
    def hit_members(self) -> np.ndarray:
        """The member of each hit row."""
        return np.repeat(np.arange(len(self)), np.diff(self.hit_offsets))

    def evaluate(self, members, times) -> np.ndarray:
        """States of the orbits of ``members`` at ``times`` in [0, horizon],
        broadcast together; the result has a trailing state axis.

        A member's knots are its samples, the pre-impulse and post-impulse
        states at its hits and its final state.  Within _TIME_TOL of the last
        knot at or before it, a time takes that knot's state (at a hit, the
        post-impulse one); elsewhere the cubic Hermite interpolant from that
        knot to the next, whose error is far below every radius used by the
        ball tests.
        """
        m, t = np.broadcast_arrays(np.asarray(members, dtype=int),
                                   np.asarray(times, dtype=float))
        shape, m, t = t.shape, m.ravel(), t.ravel()
        T, grid, off = self.horizon, self.sample_times, self.hit_offsets
        if (t < -_COINCIDE_TOL).any() or (t > T + _COINCIDE_TOL).any():
            raise ValueError("evaluation time outside [0, horizon]")
        # complex numbers sort by real part, then imaginary part: k is the row
        # of the member's first hit after t (a sentinel row follows the last)
        k = np.searchsorted(self.hit_members + 1j * self.hit_times, m + 1j * t,
                            side="right")
        taus = np.append(self.hit_times, np.inf)
        pad = np.zeros((1, self.samples.shape[2]))
        g = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 1)
        g1 = np.minimum(g + 1, len(grid) - 1)
        fin, r = self.final_states[m], np.arange(len(t))
        # the last knot at or before t: the final state, the last hit's
        # post-impulse state or a sample, the first at the latest time
        left = np.stack([np.where(T <= t, T, -np.inf),
                         np.where(k > off[m], taus[k - 1], -np.inf), grid[g]])
        t0 = left.max(axis=0)
        y0 = np.stack([fin, np.concatenate([self.post_impulse_states, pad])[k - 1],
                       self.samples[m, g]])[left.argmax(axis=0), r]
        # the next knot: the next hit's pre-impulse state, a sample or the
        # final state, the first at the earliest time, the hit's shifted by
        # _COINCIDE_TOL (knots that close after a hit hold its post-impulse
        # state); past the horizon the final state, so dt <= 0 keeps y0
        right = np.stack([np.where(k < off[m + 1], taus[k], np.inf),
                          np.where(g < g1, grid[g1], np.inf), np.full(len(t), T)])
        i1 = (right - [[_COINCIDE_TOL], [0.0], [0.0]]).argmin(axis=0)
        t1 = right[i1, r]
        y1 = np.stack([np.concatenate([self.pre_impulse_states, pad])[k],
                       self.samples[m, g1], fin])[i1, r]

        dt = t1 - t0
        s = np.where(dt > 0, (t - t0) / np.where(dt > 0, dt, 1.0), 0.0)
        f0 = eval_vector_field(self.system.field, y0)
        f1 = eval_vector_field(self.system.field, y1)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s ** 2 * (3 - 2 * s)
        h11 = s ** 2 * (s - 1)
        y = (h00[:, None] * y0 + h10[:, None] * dt[:, None] * f0
             + h01[:, None] * y1 + h11[:, None] * dt[:, None] * f1)
        knot = np.abs(t0 - t) <= _TIME_TOL
        return np.where(knot[:, None], y0, y).reshape(*shape, y0.shape[1])


def _grid_for(T: float, dt: float) -> np.ndarray:
    m = int(np.floor(T / dt + 1e-9))
    return dt * np.arange(m + 1)


def impulsive_trajectory(sys: SystemSpec, x: np.ndarray, T: float, dt_sample: float,
                         cfg: IntegratorConfig | None = None) -> ImpulsiveTrajectory:
    """Construct the impulsive orbit of x over [0, T], sampled every
    dt_sample, recording every hit up to T."""
    return impulsive_trajectory_batch(sys, np.asarray(x, dtype=float)[None, :],
                                      T, dt_sample, cfg)[0]


def impulsive_trajectory_batch(sys: SystemSpec, X: np.ndarray, T: float,
                               dt_sample: float,
                               cfg: IntegratorConfig | None = None) -> TrajectoryBatch:
    """Batch form of ``impulsive_trajectory``; one shared integration."""
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if dt_sample <= 0:
        raise ValueError("dt_sample must be positive")
    cfg = cfg or IntegratorConfig()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    grid = _grid_for(T, dt_sample)
    run = _propagate(sys, X, np.full(len(X), float(T)), cfg, sample_grid=grid)
    return TrajectoryBatch(sys, float(T), float(dt_sample), X.copy(), grid, run.samples,
                           *run.hits_by_member(), run.final, run.stats)


def first_hitting_time(sys: SystemSpec, x: np.ndarray, t_max: float,
                       cfg: IntegratorConfig | None = None,
                       reverse: bool = False):
    """First time in (0, t_max] at which the orbit of x reaches the impulsive
    set, together with the hit state; None when the set is not reached.

    The crossing is bracketed by integration steps and refined by a bracketed
    secant iteration on the dense output to 1e-12 in time; crossings failing
    the set's halfspace constraints are discarded and the search continues.
    reverse=True probes the time-reversed flow (any crossing direction, no
    region check) for backward reachability.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    cfg = cfg or IntegratorConfig()
    x = np.asarray(x, dtype=float)
    run = _propagate(sys, x[None, :], np.array([float(t_max)]), cfg,
                     stop_at_first_hit=True,
                     time_sign=-1.0 if reverse else 1.0)
    _, taus, pre, _ = run.hits_by_member()
    if len(taus):
        return taus[0], pre[0]
    return None


def psi(sys: SystemSpec, x: np.ndarray, t: float,
        cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Evaluate the impulsive semiflow at a single time; at a hit time the
    value is the post-impulse state."""
    return psi_batch(sys, np.asarray(x, dtype=float)[None, :], np.array([t]), cfg)[0]


def psi_batch(sys: SystemSpec, X: np.ndarray, times: np.ndarray,
              cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Evaluate the impulsive semiflow for a batch of (state, time) pairs."""
    cfg = cfg or IntegratorConfig()
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise ValueError("the impulsive semiflow is defined for t >= 0")
    run = _propagate(sys, X, times, cfg)
    return run.final


def hit_times_batch(sys: SystemSpec, X: np.ndarray, durations: np.ndarray,
                    cfg: IntegratorConfig | None = None) -> list[np.ndarray]:
    """Hit-time sequences for a batch of states, each member running for its
    own duration."""
    cfg = cfg or IntegratorConfig()
    run = _propagate(sys, X, np.asarray(durations, dtype=float), cfg)
    offsets, taus, _, _ = run.hits_by_member()
    return np.split(taus, offsets[1:-1])


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(traj: ImpulsiveTrajectory, path) -> None:
    """Sampled orbit as CSV: t, coordinates, segment index, impulse flag.

    Rows are the uniform samples plus one flagged row per impulse carrying the
    post-impulse state.
    """
    names = traj.system.state_names
    rows = []
    seg = traj.segment_index(traj.sample_times)
    for k, t in enumerate(traj.sample_times):
        rows.append((t, 0, traj.sample_states[k], seg[k], 0))
    for n, tau in enumerate(traj.impulse_times):
        rows.append((tau, 1, traj.post_impulse_states[n], n + 1, 1))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", *names, "segment_index", "is_impulse"])
        for t, _, state, s, flag in rows:
            w.writerow([_fmt(t), *(_fmt(v) for v in state), s, flag])


def write_impulses_csv(traj: ImpulsiveTrajectory, path) -> None:
    """Hit schedule as CSV: impulse index, hit time, post-impulse state."""
    names = traj.system.state_names
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "tau_n", *names])
        for n, tau in enumerate(traj.impulse_times):
            w.writerow([n + 1, _fmt(tau),
                        *(_fmt(v) for v in traj.post_impulse_states[n])])
