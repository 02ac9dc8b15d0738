"""Impulsive semiflows: detect hits of the impulsive set, apply the impulse
map, and realize the hit-time recursion.

The one propagation engine, ``_propagate``, advances a whole batch of
independent initial states with one shared adaptive step (``BatchStepper``)
and owns the step cap, the final dense evaluation and the one rule that ends
a member's run: at its horizon, at a first hit, or on leaving the admissible
region; the member then leaves the shared step.  ``_Pieces`` evaluates the
impulsive-set pieces: each level's polynomial form, with the zero set and
sign of L_j - c_j, and its halfspace test.  ``_first_crossings`` finds each
member's earliest crossing in a step, whatever the step's length:
``_RootScan`` isolates it on the Bernstein coefficients of the level form
along the step's dense output, and a bracketed secant (Illinois) iteration
locates it.  ``_BatchRun`` records grid samples, hits, region exits and
final states.
``flow_core.flow`` is the engine's case with no impulsive-set pieces.
Trajectories are right-continuous across impulses: the value at a hit time
is the post-impulse state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .flow_core import (
    BatchStepper,
    IntegratorConfig,
    LinearLevel,
    RadiusLevel,
    RegionEscape,
    VectorFieldSpec,
    check_dimension,
    dense_bernstein,
    dense_eval,
    eval_vector_field,
)

__all__ = [
    "ImpulsiveSetSpec",
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
]

_TIME_TOL = 1e-12          # hit times are located to a bracket this wide
_HORIZON_SLACK = 1e-9      # hits this close past a horizon still count (right continuity)
_COINCIDE_TOL = 1e-9       # sample time equals a hit time within this -> post state
_MIN_GAP = 1e-9            # consecutive hits closer than this raise GapUnderflow
_MEMBERSHIP_TOL = 1e-9     # a state this close to a piece's level lies on it
# the rounding bound of a level form's Bernstein coefficients on a scan's
# trial interval: n * _ROUNDING times the form's magnitude scale at degree n,
# 28 ulps of 1 at degree 7 (against errors below 2 ulps in exact-rational
# checks); coefficients closer to zero count as either sign
_ROUNDING = 2.0 ** -50
_SAMPLE_BLOCK = 4096       # queued grid samples, or member rows, evaluated at a time


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
    """A constrained codimension-one piece of a level set {L = c}: ``level``
    is L (a ``LinearLevel`` or ``RadiusLevel``) and ``level_value`` is c.

    halfspaces: tuple of (normal, offset) pairs; a state x belongs to the set
    only if normal . x >= offset for each pair.  direction restricts the sign
    of dL/dt at a crossing: +1 means L increases through c, -1 decreases,
    0 accepts both.  sampler, when given, maps a count n to n quasi-uniform
    points of the piece, shape (n, dim).
    """

    level: LinearLevel | RadiusLevel
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
        near = np.abs(self.level.value(xs) - self.level_value) <= tol
        ok = near & self.constraint_mask(xs, slack=tol)
        return bool(ok[0]) if single else ok


@dataclass(frozen=True)
class SystemSpec:
    """A complete impulsive dynamical system: continuous field, impulsive set
    (a finite union of constrained level-set pieces), its image description,
    the impulse map and the admissible region.

    ``impulse(x, piece)`` maps the states x (n, dim) on the impulsive-set
    pieces with the indices ``piece`` (n,) to their images;
    ``preimages(p)`` lists candidate states that the map sends to the state
    p (``impulse_preimages`` keeps those it verifies); ``region(x)`` tells
    which states x (n, dim) are admissible.  A builtin system also carries
    its candidate cloud, ``cloud(n, rng)`` -> (n, dim) states drawn from
    ``rng``, and its default measure box, a ``(lo, hi)`` pair of corners.
    """

    name: str
    field: VectorFieldSpec
    impulsive_sets: tuple[ImpulsiveSetSpec, ...]
    image_sets: tuple[ImpulsiveSetSpec, ...]
    impulse: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(
        compare=False, repr=False)
    preimages: Callable[[np.ndarray], list[np.ndarray]] = field(
        compare=False, repr=False)
    region: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    cloud: Callable[[int, np.random.Generator], np.ndarray] | None = field(
        default=None, compare=False, repr=False)
    box: tuple[tuple[float, ...], tuple[float, ...]] | None = field(
        default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.field.dim

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.dim))

    def admissible(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        ok = self.region(np.atleast_2d(x))
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
    return sys.impulse(x[None, :], np.array([j]))[0]


def impulse_preimages(sys: SystemSpec, p: np.ndarray) -> list[np.ndarray]:
    """All impulsive-set states mapping to ``p`` under the impulse map
    (the system's ``preimages``); empty when p is off the image.

    Every inverse branch is validated by the forward map: q counts only when
    q lies on the impulsive set and I(q) reproduces p.
    """
    p = np.asarray(p, dtype=float)
    out = []
    tol = 1e-7 * (1.0 + float(np.linalg.norm(p)))
    for q in sys.preimages(p):
        j = sys.in_impulsive_set(q, tol=1e-7)
        if j < 0:
            continue
        back = sys.impulse(q[None, :], np.array([j]))[0]
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
    hits, region exits and work counters of every member.  Grid samples are
    queued with their step's dense output, every running member's, and
    evaluated once the queue holds ``_SAMPLE_BLOCK`` samples or as many
    member rows."""

    def __init__(self, X0, sample_grid):
        self.n, self.dim = X0.shape
        self.final = X0.copy()
        self.stats = RunStats()
        self.escaped, self.escape_message = np.zeros(self.n, dtype=bool), None
        self._hits = []     # one (members, taus, pre, post) block per step with hits
        self._last_tau = np.full(self.n, np.nan)
        self.grid = sample_grid
        # the queued steps, their sample and member row counts, and
        # post-impulse samples
        self._queue, self._queued, self._rows, self._posts = [], 0, 0, []
        if sample_grid is not None:
            self._samples = np.full((self.n, len(sample_grid), self.dim), np.nan)
            self.ptr = np.zeros(self.n, dtype=int)
            if len(sample_grid) and sample_grid[0] <= _COINCIDE_TOL:
                self._samples[:, 0] = X0
                self.ptr[:] = 1

    samples = property(lambda self: self.flush() or self._samples)   # flushed on read

    def fill_samples(self, members, t0, adv, y0, F, h):
        """Queue the grid samples up to ``_COINCIDE_TOL`` past the end of the
        advance by ``adv`` from ``t0`` on the step's dense output, ``y0`` and
        the interpolant rows ``F``: one entry or row per member.
        ``record_hits`` then owns a sample on a hit time."""
        grid = self.grid
        if grid is None:
            return
        k0 = self.ptr[members]
        k1 = grid.searchsorted(t0 + adv + _COINCIDE_TOL, side="right")
        counts = np.maximum(k1 - k0, 0)
        total = int(np.add.reduce(counts))
        if total == 0:
            return
        self.ptr[members] = np.maximum(k0, k1)
        # a finishing member's advance may run up to _HORIZON_SLACK past the
        # step, to its horizon; past the end of any other advance a sample
        # takes the step's end state; ``flush`` skips the rows without one
        self._queue.append((members, k0, counts, t0, np.maximum(adv, h),
                            np.full(len(members), h), y0, F))
        self._queued += total
        self._rows += len(members)
        if max(self._queued, self._rows) >= _SAMPLE_BLOCK:
            self.flush()

    def flush(self):
        """Evaluate the queued samples, then write the post-impulse ones."""
        if self._queue:
            members, k0, counts, t0, cap, h, y0, F = (
                a[0] if len(a) == 1 else np.concatenate(a, a[0].ndim // 3)  # F on axis 1
                for a in zip(*self._queue))
            rows = np.arange(len(members)).repeat(counts)
            g_idx = (k0[rows] + np.arange(self._queued)
                     - (counts.cumsum() - counts).repeat(counts))
            u = np.minimum(np.maximum((self.grid[g_idx] - t0[rows]) / h[rows], 0.0),
                           cap[rows] / h[rows])
            self._samples[members[rows], g_idx] = dense_eval(y0[rows], F[:, rows], u)
            self._queue, self._queued, self._rows = [], 0, 0
        for members, last, post in self._posts:
            self._samples[members, last] = post
        self._posts = []

    def record_hits(self, members, taus, pre, post, min_gap):
        gap = taus - self._last_tau[members]
        bad = (gap < min_gap).nonzero()[0]      # NaN for a member's first hit
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
            # the last one queued, by this step or by the one before
            last = self.ptr[members] - 1
            on = last >= 0
            on[on] = np.abs(self.grid[last[on]] - taus[on]) <= _COINCIDE_TOL
            if np.logical_or.reduce(on):
                self._posts.append((members[on], last[on], post[on]))

    def checked(self):
        """The run; raises RegionEscape if a member left the admissible region."""
        if self.escape_message:
            raise RegionEscape(self.escape_message)
        return self

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

    def level(self, x, j=None):
        if j is not None:
            return self.sets[j].level.form(x, self.sets[j].level_value)
        out = np.empty((len(x), len(self.sets)))
        for k in range(len(self.sets)):
            out[:, k] = self.level(x, k)
        return out

    def along_step(self, j, B):
        """Bernstein coefficients of piece j's form along the steps with the
        interpolant coefficients ``B``, and their rounding bound."""
        b, scale = self.sets[j].level.form_along_step(B, self.sets[j].level_value)
        return b, _ROUNDING * (len(b) - 1) * scale


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
    live = (b - a > tol).nonzero()[0]
    passes = 0
    while len(live):
        passes += 1
        A, B, FA, FB = a[live], b[live], fa[live], fb[live]
        c = (A * FB - B * FA) / (FB - FA)
        bisect = (poor[live] >= 2) | ~np.isfinite(c)
        c = np.where(bisect, 0.5 * (A + B), c)
        c = np.minimum(np.maximum(c, A + 0.5 * tol), B - 0.5 * tol)
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
            passed = np.logical_and.reduce(d == s) & (s != 0)
            others = (d != s).cumsum(axis=0)
            one = ((self.sign[rows] != 0) & (d[-1] == -s)
                   & ~np.logical_or.reduce((d == s) & (others > 0))
                   & np.logical_and.reduce((d != 0) | (others == 1)))
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

    Member m's crossings are sought on the fraction [0, end[m]] of the step,
    on the Bernstein coefficients of each piece's level form along the dense
    output, with the level's values at the step's ends (``L_here``,
    ``L_new``) as the end coefficients.  A member whose coefficients pass
    ``_RootScan``'s first trial is root-free; for the others, ``_RootScan``
    isolates each member's earliest root of each piece, skipping a root in
    the direction the piece forbids, and ``_bracketed_roots`` locates it to
    _TIME_TOL in time.  A root whose state fails the piece's halfspace
    constraints is discarded and the scan resumes past it.  The earliest
    crossing per member counts (ties to the lowest piece index).
    AmbiguousCrossing is raised when a member's scan is stuck before that.

    Returns (members, u, piece, state) of the hits, in member order: the step
    fraction, the piece index and the pre-impulse state of each (or None).
    """
    cut = (end != 1.0).nonzero()[0]
    B = dense_bernstein(y0, F)
    scans = []
    for j in range(len(pieces.sets)):
        b, eps = pieces.along_step(j, B)
        b[0], b[-1] = L_here[:, j], L_new[:, j]
        if len(cut):
            b[:, cut] = _split(b[:, cut], end[cut])[0]
        # no root where every coefficient keeps the sign of the first, or of
        # the second where the first is 0 (a state on the level that leaves it)
        sb = np.sign(np.where(b[0] == 0, b[1], b[0])) * b
        cand = ((sb[-1] <= 0) | np.logical_or.reduce(sb[1:-1] <= eps)).nonzero()[0]
        if len(cand):
            scans.append((j, cand, end[cand], _RootScan(
                b[:, cand], eps[cand], _TIME_TOL / (h * end[cand]), dirs[j])))
    if not scans:
        return None
    n = len(y0)
    hit_u = np.full(n, np.inf)
    hit_set = np.zeros(n, dtype=int)
    hit_state = np.empty_like(y0)
    stuck = np.full(n, np.inf)
    for j, m, e_m, scan in scans:
        rows = np.arange(len(m))
        while len(rows):
            rows, lo, hi, f_lo, f_hi = scan.brackets(rows)
            if not len(rows):
                break
            i = m[rows]
            y_c, F_c = y0[i], F[:, i]
            u, passes = _bracketed_roots(
                lambda u, r: pieces.level(dense_eval(y_c[r], F_c[:, r], u), j),
                lo * e_m[rows], hi * e_m[rows], f_lo, f_hi, _TIME_TOL / h)
            stats.root_passes += passes
            states = dense_eval(y_c, F_c, u)
            ok = pieces.sets[j].constraint_mask(states)
            first = ok & (u < hit_u[i])
            hit_u[i[first]] = u[first]
            hit_set[i[first]] = j
            hit_state[i[first]] = states[first]
            stats.discarded_crossings += int(np.add.reduce(~ok))
            rows = scan.resume(rows[~ok])
        stats.subdivisions += scan.subdivisions
        stuck[m] = np.minimum(stuck[m], scan.stuck * e_m)
    bad = (stuck < hit_u).nonzero()[0]
    if len(bad):
        raise AmbiguousCrossing(
            f"level crossings {stuck[bad[0]] * h:.3e} into a step of {h:.3e} "
            "cannot be separated to 1e-12 in time: the orbit is tangent to "
            "the impulsive set")
    hit = np.isfinite(hit_u).nonzero()[0]
    return (hit, hit_u[hit], hit_set[hit], hit_state[hit]) if len(hit) else None


def _propagate(sys: SystemSpec | VectorFieldSpec, x0: np.ndarray, durations,
               cfg: IntegratorConfig | None = None,
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
    continuity).  A run also ends at the first hit if ``stop_at_first_hit``,
    and on leaving the admissible region, which ``_BatchRun`` records; an
    ended member leaves the shared step (``BatchStepper.keep``).  A bare
    VectorFieldSpec for ``sys`` is the continuous flow, the case with no
    impulsive-set pieces and no region check.  The inputs of every public
    engine call are checked here: a non-finite state or time, and a state of
    the wrong dimension, raise ValueError.

    time_sign=-1 integrates the reversed field (meaningful for an invertible
    flow, as every builtin's is; used by backward reachability probes): the
    run then accepts either crossing direction and skips the region check.
    """
    cfg = cfg or IntegratorConfig()
    X0 = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    durations = np.broadcast_to(np.asarray(durations, dtype=float), (len(X0),)).copy()
    if not (np.isfinite(X0).all() and np.isfinite(durations).all()):
        raise ValueError("states and times must be finite")
    if (durations < 0).any():
        raise ValueError("durations must be nonnegative")
    forward = time_sign > 0
    if isinstance(sys, VectorFieldSpec):
        field, sets, check_region = sys, (), False
    else:
        field, sets, check_region = sys.field, sys.impulsive_sets, forward
    check_dimension(field, X0)
    run = _BatchRun(X0, sample_grid)
    stats = run.stats
    pieces = _Pieces(sets)
    dirs = np.array([p.direction if forward else 0 for p in sets])

    rhs = field.fn if forward else lambda x: -field.fn(x)
    # the running members: stepper row i is member live[i]
    live = np.flatnonzero(durations > 0)
    stepper = BatchStepper(rhs, X0[live], cfg)
    dur, t = durations[live], np.zeros(len(live))
    L_here = pieces.level(stepper.y)
    while len(live):
        rem = dur - t
        # a step of at least _HORIZON_SLACK: a scan never runs far past it
        h, y_prop, K = stepper.step(max(float(np.maximum.reduce(rem)), _HORIZON_SLACK))
        stats.steps += 1
        stats.h_min, stats.h_max = min(stats.h_min, h), max(stats.h_max, h)
        y0 = stepper.y
        finish = rem <= h + _HORIZON_SLACK
        adv = np.where(finish, rem, h)
        L_new = pieces.level(y_prop)
        F = stepper.interpolant(h, y_prop, K)
        # the fraction of the step whose hits count: to _HORIZON_SLACK past
        # the horizon for a finishing member
        scan_end = np.ones(len(rem))
        scan_end[finish] = (rem[finish] + _HORIZON_SLACK) / h
        hits = _first_crossings(pieces, dirs, y0, F, h, L_here, L_new, scan_end, stats)
        if hits is not None:
            hit, hit_u, hit_set, pre_states = hits
            adv[hit] = hit_u * h
            finish[hit] = False
        run.fill_samples(live, t, adv, y0, F, h)
        t = t + adv

        y_commit = y_prop       # the step's own array
        if np.logical_or.reduce(finish):
            y_commit[finish] = dense_eval(y0[finish], F[:, finish], rem[finish] / h)
        if hits is not None:
            taus = t[hit]
            post_states = sys.impulse(pre_states, hit_set)
            run.record_hits(live[hit], taus, pre_states, post_states, _MIN_GAP)
            y_commit[hit] = pre_states if stop_at_first_hit else post_states
            # a hit ends its member's run when the run stops at the first hit,
            # and on (or within the slack past) the horizon: right continuity
            finish[hit if stop_at_first_hit
                   else hit[dur[hit] - taus <= _HORIZON_SLACK]] = True

        stepper.commit(y_commit, K)
        # levels at the committed states: the step's end values but where an
        # impulse replaced the state
        L_here = L_new
        if hits is not None:
            stepper.refresh_derivative(hit)
            L_here[hit] = pieces.level(stepper.y[hit])
        if check_region:
            out = (~finish & ~sys.region(stepper.y)).nonzero()[0]
            if len(out):
                run.escaped[live[out]] = True
                run.escape_message = run.escape_message or (
                    f"trajectory left the admissible region of {sys.name!r} "
                    f"near state {stepper.y[out[0]]}")
                finish[out] = True
        if np.logical_or.reduce(finish):
            run.final[live[finish]] = stepper.y[finish]
            go_on = ~finish
            live, dur, t, L_here = live[go_on], dur[go_on], t[go_on], L_here[go_on]
            stepper.keep(go_on)

    run.flush()
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

    @cached_property
    def _hit_index(self):
        """[i, j] for j <= len(sample_times): the row of member i's first hit
        after sample_times[j - 1] + _COINCIDE_TOL (after none for j = 0); and
        the hit times, then inf.  The rows are int32, counted in place."""
        rows = np.zeros((len(self), len(self.sample_times) + 2), dtype=np.int32)
        np.add.at(rows, (self.hit_members, np.searchsorted(
            self.sample_times + _COINCIDE_TOL, self.hit_times) + 1), 1)
        rows[:, 0] = self.hit_offsets[:-1]
        return np.cumsum(rows, axis=1, out=rows), np.append(self.hit_times, np.inf)

    def evaluate(self, members, times) -> np.ndarray:
        """States of the orbits of ``members`` at ``times`` in [0, horizon],
        broadcast together; the result has a trailing state axis.  Members
        are integers in [0, len(batch)).

        A member's knots are its samples, the pre-impulse and post-impulse
        states at its hits and its final state.  A hit within _COINCIDE_TOL
        after a time counts as before it, as in ``segment_index``.  Up to
        _TIME_TOL after the last knot at or before it, a time takes that
        knot's state (at a hit, the post-impulse one); elsewhere the cubic
        Hermite interpolant from that knot to the next, whose error is far
        below every radius used by the ball tests.  A query's cost does not
        grow with its member's hit count.  Queries are evaluated
        ``_SAMPLE_BLOCK`` at a time, each on its own, so the temporaries stay
        small and the result does not depend on the blocking.
        """
        m, t = np.broadcast_arrays(np.asarray(members), np.asarray(times, dtype=float))
        if m.size and (m.dtype.kind not in "iu" or m.min() < 0 or m.max() >= len(self)):
            raise ValueError("members must be integers in [0, len(batch))")
        if not ((t >= -_COINCIDE_TOL) & (t <= self.horizon + _COINCIDE_TOL)).all():
            raise ValueError("evaluation time outside [0, horizon]")
        shape, m, t = t.shape, m.ravel().astype(np.intp, copy=False), t.ravel()
        y = np.empty((len(t), self.samples.shape[2]))
        for s in range(0, len(t), _SAMPLE_BLOCK):
            y[s:s + _SAMPLE_BLOCK] = self._hermite(m[s:s + _SAMPLE_BLOCK],
                                                   t[s:s + _SAMPLE_BLOCK])
        return y.reshape(*shape, y.shape[1])

    def _hermite(self, m: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``evaluate`` at the checked member indices m and times t."""
        T, grid, off = self.horizon, self.sample_times, self.hit_offsets
        # g: the last grid column at or before t (-1 before it), from t / dt_sample
        # and one step; k: the row of the member's first hit after t + _COINCIDE_TOL
        last = len(grid) - 1
        g = np.minimum((t / self.dt_sample).astype(np.intp), last)
        g -= grid[g] > t
        g += (g < last) & (grid[np.minimum(g + 1, last)] <= t)
        rows, taus = self._hit_index
        k, end = np.take(rows, m * rows.shape[1] + g + 1), off[m + 1]
        i = np.flatnonzero((k < end) & (taus[k] <= t + _COINCIDE_TOL))
        while len(i):
            k[i] += 1
            i = i[(k[i] < end[i]) & (taus[k[i]] <= t[i] + _COINCIDE_TOL)]
        g = np.maximum(g, 0)
        g1 = np.minimum(g + 1, last)
        # the last knot at or before t, the first at the latest time of: the
        # final state, the last hit's post-impulse state and a sample
        flat = self.samples.reshape(-1, self.samples.shape[2])
        t0, y0 = grid[g], np.take(flat, m * (last + 1) + g, axis=0)
        i = np.flatnonzero((k > off[m]) & (taus[k - 1] >= t0))
        t0[i], y0[i] = taus[k[i] - 1], self.post_impulse_states[k[i] - 1]
        i = np.flatnonzero((T <= t) & (T >= t0))
        t0[i], y0[i] = T, self.final_states[m[i]]
        # the next knot, the first at the earliest time of: the next hit's
        # pre-impulse state, a sample and the final state, the hit's time less
        # _COINCIDE_TOL (knots that close after a hit hold its post-impulse
        # state); past the horizon the final state, so dt <= 0 keeps y0
        t1 = np.where(g < g1, grid[g1], np.inf)
        y1 = np.take(flat, m * (last + 1) + g1, axis=0)
        i = np.flatnonzero(T < t1)
        t1[i], y1[i] = T, self.final_states[m[i]]
        i = np.flatnonzero((k < end) & (taus[k] - _COINCIDE_TOL <= t1))
        t1[i], y1[i] = taus[k[i]], self.pre_impulse_states[k[i]]

        dt = t1 - t0
        s = np.where(dt > 0, (t - t0) / np.where(dt > 0, dt, 1.0), 0.0)
        f0, f1 = (eval_vector_field(self.system.field, y) for y in (y0, y1))
        u2, s2 = (1 - s) ** 2, s ** 2
        h = ((1 + 2 * s) * u2, s * u2 * dt, s2 * (3 - 2 * s), s2 * (s - 1) * dt)
        y = np.empty_like(y0)
        for j in range(y.shape[1]):     # a coordinate at a time: long loops
            y[:, j] = h[0] * y0[:, j] + h[1] * f0[:, j] + h[2] * y1[:, j] + h[3] * f1[:, j]
        i = np.flatnonzero(t - t0 <= _TIME_TOL)
        y[i] = y0[i]
        return y


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
    if not 0 < T < math.inf:
        raise ValueError("horizon T must be positive and finite")
    if not 0 < dt_sample < math.inf:
        raise ValueError("dt_sample must be positive and finite")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    grid = _grid_for(T, dt_sample)
    run = _propagate(sys, X, np.full(len(X), float(T)), cfg, sample_grid=grid).checked()
    return TrajectoryBatch(sys, float(T), float(dt_sample), X.copy(), grid, run.samples,
                           *run.hits_by_member(), run.final, run.stats)


def _first_hits(sys: SystemSpec, X: np.ndarray, t_max, reverse: bool = False,
                cfg: IntegratorConfig | None = None):
    """The first hit of each member of X within its own t_max, in one batch
    run: each member's hit time and pre-impulse hit state, NaN where the set
    is not reached, and the run, whose ``escaped`` marks the members that
    left the admissible region before reaching it."""
    run = _propagate(sys, X, t_max, cfg, stop_at_first_hit=True,
                     time_sign=-1.0 if reverse else 1.0)
    offsets, taus, pre, _ = run.hits_by_member()
    hit = offsets[:-1] < offsets[1:]
    tau, state = np.full(run.n, np.nan), np.full((run.n, run.dim), np.nan)
    tau[hit], state[hit] = taus, pre
    return tau, state, run


def first_hitting_time(sys: SystemSpec, x: np.ndarray, t_max: float,
                       cfg: IntegratorConfig | None = None,
                       reverse: bool = False):
    """First time in (0, t_max] at which the orbit of x reaches the impulsive
    set, together with the hit state; None when the set is not reached.

    The one-member case of the batch search ``_first_hits``.  The crossing
    is bracketed by integration steps and refined by a bracketed secant
    iteration on the dense output to 1e-12 in time; crossings failing the
    set's halfspace constraints are discarded and the search continues.
    Raises RegionEscape when the orbit leaves the admissible region before
    the hit.  reverse=True probes the time-reversed flow (any crossing
    direction, no region check) for backward reachability.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    tau, state, run = _first_hits(sys, x, t_max, reverse, cfg)
    run.checked()
    return None if np.isnan(tau[0]) else (tau[0], state[0])


def psi(sys: SystemSpec, x: np.ndarray, t: float,
        cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Evaluate the impulsive semiflow at a single time; at a hit time the
    value is the post-impulse state."""
    return psi_batch(sys, np.asarray(x, dtype=float)[None, :], np.array([t]), cfg)[0]


def psi_batch(sys: SystemSpec, X: np.ndarray, times: np.ndarray,
              cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Evaluate the impulsive semiflow for a batch of (state, time) pairs."""
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise ValueError("the impulsive semiflow is defined for t >= 0")
    return _propagate(sys, X, times, cfg).checked().final


def hit_times_batch(sys: SystemSpec, X: np.ndarray, durations: np.ndarray,
                    cfg: IntegratorConfig | None = None) -> list[np.ndarray]:
    """Hit-time sequences for a batch of states, each member running for its
    own duration."""
    run = _propagate(sys, X, np.asarray(durations, dtype=float), cfg).checked()
    offsets, taus, _, _ = run.hits_by_member()
    return np.split(taus, offsets[1:-1])

