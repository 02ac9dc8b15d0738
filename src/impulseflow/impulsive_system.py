"""Impulsive semiflows: detect hits of the impulsive set, apply the impulse
map, and realize the hit-time recursion.

The one propagation engine, ``_propagate``, advances a whole batch of
independent initial states with one shared adaptive step (``BatchStepper``)
and owns the step cap, the final dense evaluation and the one rule that ends
a member's run: at its horizon, at a first hit, or on leaving the admissible
region; the member then leaves the shared step.  ``_first_crossings``
finds each member's earliest crossing of the impulsive-set pieces in a step,
whatever the step's length: on the Bernstein coefficients of each piece's
level form along the step's dense output, one isolation pass (``_isolate``)
brackets its roots, and safeguarded Newton iteration on the form's
polynomial locates them all at once.
``_BatchRun`` records grid samples, hits, region exits and final states.
``flow_core.flow`` is the engine's case with no impulsive-set pieces.
Trajectories are right-continuous across impulses: the value at a hit time
is the post-impulse state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
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

_TIME_TOL = 1e-12          # hit times are located to this: Newton's last step moves under half
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
        """Index of the first impulsive-set piece containing x, or -1; for
        states x (n, dim), the (n,) array of them."""
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        piece = np.full(len(xs), -1)
        for j in reversed(range(len(self.impulsive_sets))):
            piece[self.impulsive_sets[j].contains(xs, tol)] = j
        return int(piece[0]) if np.ndim(x) == 1 else piece


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
    (the system's ``preimages``); empty when p is off the image."""
    return list(_verified_preimages(sys, np.asarray(p, dtype=float)[None])[0])


def _norms(d: np.ndarray) -> np.ndarray:
    """Norms over the last axis, summed as np.linalg.norm sums one vector."""
    return np.sqrt((d[..., None, :] @ d[..., None])[..., 0, 0])


def _verified_preimages(sys: SystemSpec, P: np.ndarray):
    """The preimages of the states P (n, dim), in the order ``preimages``
    lists them, and the row of P each maps to.  Every inverse branch is
    validated by the forward map: q counts only when q lies on the impulsive
    set and I(q) reproduces p."""
    cands = [sys.preimages(p) for p in P]
    owner = np.repeat(np.arange(len(P)), [len(c) for c in cands])
    Q = np.array([q for c in cands for q in c], dtype=float).reshape(len(owner), P.shape[1])
    piece = sys.in_impulsive_set(Q, tol=1e-7)
    ok = piece >= 0
    if ok.any():
        tol = 1e-7 * (1.0 + _norms(P))
        back = sys.impulse(Q[ok], piece[ok])
        ok[ok] = _norms(back - P[owner[ok]]) <= tol[owner[ok]]
    return Q[ok], owner[ok]


# --------------------------------------------------------------------------
# Batch propagation with event handling
# --------------------------------------------------------------------------

@dataclass
class RunStats:
    """Work counters of an impulsive propagation.  For a fixed batch they
    are deterministic, so they can be recorded beside the outputs.

    ``h_min`` and ``h_max`` bound the accepted step sizes (inf and 0 before
    any step).  Of the crossing search: ``subdivisions`` counts the halved
    trial intervals of the isolation passes, which run past a member's first
    root to the end of its step; ``root_passes`` the passes of Newton's
    method, run once per piece and step over every root bracketed there until
    the last is located; and ``discarded_crossings`` the roots whose states
    fail their piece's halfspace constraints.
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
    hits, region exits and work counters of every member.  A step queues its
    running members' advances with its dense output; ``flush`` finds their
    grid samples and evaluates them ``_SAMPLE_BLOCK`` at a time, once the
    queue holds that many member rows or should hold a block of samples."""

    def __init__(self, X0, sample_grid):
        self.n, self.dim = X0.shape
        self.final = X0.copy()
        self.stats = RunStats()
        self.escaped, self.escape_message = np.zeros(self.n, dtype=bool), None
        # the members, taus, pre and post blocks, one per step with hits,
        # after an empty one
        self._hits = ([np.zeros(0, dtype=int)], [np.zeros(0)],
                      [np.zeros((0, self.dim))], [np.zeros((0, self.dim))])
        self._last_tau = np.full(self.n, np.nan)
        self.grid = g = sample_grid
        # the queued steps, the rows they hold, the samples expected, and
        # post-impulse samples
        self._queue, self._rows, self._expected, self._posts = [], 0, 0.0, []
        if g is not None:
            self._samples = np.full((self.n, len(g), self.dim), np.nan)
            self._samples[:, :g.searchsorted(_COINCIDE_TOL, "right")] = X0[:, None]
            self._rate = (len(g) - 1) / (g[-1] - g[0]) if len(g) > 1 else 0.0

    samples = property(lambda self: self.flush() or self._samples)   # flushed on read

    def fill_samples(self, members, t0, adv, y0, F, h):
        """Queue the advance by ``adv`` from ``t0`` on the step's dense output,
        ``y0`` and the interpolant rows ``F``: one entry or row per member."""
        if self.grid is not None:
            self._queue.append((members, t0, adv, y0, F, h))
            self._rows += len(members)
            # a member's advance holds adv * rate samples, give or take one
            self._expected += float(np.add.reduce(adv)) * self._rate
            if max(self._rows, self._expected - len(members)) >= _SAMPLE_BLOCK:
                self.flush()

    def flush(self):
        """Evaluate the queued samples, ``_SAMPLE_BLOCK`` at a time, then the
        post-impulse ones."""
        grid, queue = self.grid, self._queue
        # a step's samples lie from _COINCIDE_TOL past t0 to that past the end
        # of the advance; ``record_hits`` then owns a sample on a hit time
        if queue:
            members, t0, adv, y0, F = (
                a[0] if len(a) == 1 else np.concatenate(a, a[0].ndim // 3)  # F on axis 1
                for a in list(zip(*queue))[:5])
            h = np.repeat([q[5] for q in queue], [len(q[0]) for q in queue])
            k0 = grid.searchsorted(t0 + _COINCIDE_TOL, side="right")
            counts = grid.searchsorted(t0 + adv + _COINCIDE_TOL, side="right") - k0
            # a finishing member's advance may run up to _HORIZON_SLACK past
            # the step, to its horizon; past the end of any other advance a
            # sample takes the step's end state
            cap = np.maximum(adv, h)
            total = int(np.add.reduce(counts))
            row = np.arange(len(members)).repeat(counts)
            g = k0[row] + np.arange(total) - (counts.cumsum() - counts)[row]
            for s in range(0, total, _SAMPLE_BLOCK):
                r, gs = row[s:s + _SAMPLE_BLOCK], g[s:s + _SAMPLE_BLOCK]
                u = np.minimum(np.maximum((grid[gs] - t0[r]) / h[r], 0.0), cap[r] / h[r])
                # rows move by take, and are stored a coordinate at a time:
                # long loops, not one per short row
                y, at = dense_eval(y0.take(r, axis=0), F.take(r, axis=1), u), members[r]
                for d in range(self.dim):
                    self._samples[at, gs, d] = y[:, d]
            self._queue, self._rows, self._expected = [], 0, 0.0
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
        for blocks, a in zip(self._hits, (members, taus, pre, post)):
            blocks.append(a)
        self.stats.hits += len(members)
        if self.grid is not None:
            # a sample on the hit time carries the post-impulse state: the
            # last one up to _COINCIDE_TOL past it (none before grid[0])
            last = np.maximum(self.grid.searchsorted(taus + _COINCIDE_TOL, side="right") - 1, 0)
            on = np.abs(self.grid[last] - taus) <= _COINCIDE_TOL
            if np.logical_or.reduce(on):
                self._posts.append((members[on], last[on], post[on]))

    def checked(self):
        """The run; raises RegionEscape if a member left the admissible region."""
        if self.escape_message:
            raise RegionEscape(self.escape_message)
        return self

    def hits_by_member(self):
        """The hits in compressed rows: offsets (n + 1,), hit times, pre- and
        post-impulse states; member i's, in time order, at offsets[i]:offsets[i + 1].
        Each field's blocks are joined, released and reordered in turn, so
        at most one field's extra copy is held."""
        order = np.argsort(np.concatenate(self._hits[0]), kind="stable")
        for blocks in self._hits:
            blocks[:] = [np.concatenate(blocks)]
            blocks[0] = blocks[0][order]
        offsets = np.searchsorted(self._hits[0][0], np.arange(self.n + 1))
        return offsets, *(blocks[0] for blocks in self._hits[1:])


def _forms(sets, x):
    """Each piece's level form, with the zero set and sign of L_j - c_j, at x."""
    out = np.empty((len(x), len(sets)))
    for j, piece in enumerate(sets):
        out[:, j] = piece.level.form(x, piece.level_value)
    return out


@cache
def _centring(n):
    """The map from Bernstein coefficients of degree n to coefficients in powers
    of x = s - 1/2: C(n, i) s^i (1 - s)^(n - i) is C(n, i) 2^-n (1 + 2x)^i (1 - 2x)^(n - i)."""
    return np.array([[math.comb(n, i) * 2.0 ** (k - n) * sum(
        math.comb(i, j) * math.comb(n - i, k - j) * (-1) ** (k - j) for j in range(k + 1))
        for i in range(n + 1)] for k in range(n + 1)])


def _newton_roots(q, lo, hi, f_lo, f_hi, tol):
    """Roots of p(s) = sum_k q[k] (s - 1/2)^k, one per column of ``q`` (n + 1, k),
    in the brackets [lo, hi] where p changes sign (``f_lo``, ``f_hi``: p there,
    f_lo != 0), by safeguarded Newton iteration (rtsafe: Press et al.,
    Numerical Recipes, 9.4).  The first trial is Newton's step from s = 1/2,
    where p and p' are q[0] and q[1], else the secant of the end values; each
    later one is Newton's step from the last, or the bracket's midpoint where
    that step leaves the bracket or is not half the step before last.  A root
    is a trial where p is 0, else the first next trial that moves less than
    tol/2 (per column, or one for all): after a bisection it is within tol/2 of
    the root, and after Newton's step at a simple root (a transversal crossing)
    within the order of that step squared.  Finished columns iterate on, unread;
    every operation is elementwise (Estrin's scheme for p and p'), so a column's
    iterates do not depend on the other columns.  Returns (roots, passes)."""
    n1, k = q.shape
    # p and p', signed so that p < 0 at lo, padded to a power of two rows
    P = np.zeros((1 << (n1 - 1).bit_length(), 2, k))
    P[:n1, 0], P[:n1 - 1, 1] = q, q[1:] * np.arange(1.0, n1)[:, None]
    P *= -np.sign(f_lo)
    a, b, root, done, passes = lo, hi, np.empty(k), np.zeros(k, dtype=bool), 0
    dx = dx_old = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 0.5 - q[0] / q[1]
        c = np.where((c >= a) & (c <= b), c, (a * f_hi - b * f_lo) / (f_hi - f_lo))
        while not np.logical_and.reduce(done):
            passes += 1
            e, x = P, c - 0.5
            while len(e) > 1:
                e = e[0::2] + e[1::2] * x
                x = x * x
            f, df = e[0]
            # p = 0 closes the bracket on c, and the step, 0 or NaN (a bisection), keeps c
            a, b = np.where(f <= 0, c, a), np.where(f >= 0, c, b)
            step = f / df
            new = c - step
            bisect = (new < a) | (new > b) | ~(np.abs(step + step) <= dx_old)
            new = np.where(bisect, 0.5 * (a + b), new)
            root = np.where(done, root, new)
            dx, dx_old, c = np.abs(new - c), dx, new
            done |= dx + dx < tol
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


def _verdicts(sb, eps, at_end):
    """Descartes' rule of signs for the Bernstein basis on a trial interval:
    the masks of the columns of ``sb`` (n + 1, k) that the trial passes and
    of those in which it holds one root (never both).  ``sb`` are the
    coefficients of p on the trial, exact to within ``eps``, times the sign
    of p at its start, with the first row 0 where that sign is unknown (p
    starts at an exact zero).  Passed: all after the first are positive.
    One root: the sign is known and they run +, ..., +, at most one of
    either sign, then -, ..., -.  A coefficient within ``eps`` of 0 counts
    as either sign, but where the trial ends at 1 (``at_end``) the last one
    is p(1), at face value: a zero there is a root."""
    pos = sb[1:-1] > eps
    up, down = (sb[-1] > 0, sb[-1] <= 0) if at_end else (sb[-1] > eps, sb[-1] < -eps)
    passed = np.logical_and.reduce(pos) & up
    one = (sb[0] != 0) & down & np.logical_and.reduce(pos[:-1] | (sb[2:-1] < -eps))
    return passed, one


def _isolate(b, eps, min_width, direction):
    """Brackets of the roots of the polynomials p on [0, 1] with the Bernstein
    coefficients ``b`` (n + 1, k), exact to within ``eps``, one per column, in
    one left-to-right pass of trial intervals from [0, 1] on ``b`` itself.
    After a trial that ``_verdicts`` passes the next is twice as wide, after
    one with a root as wide; one with neither is halved (a subdivision; the
    scan state is allocated at the first).  p(0) and p(1) count at face value:
    a zero at 1 is a root, one at 0 is not, and a trial from 0 takes the sign
    of p just past it.  A root that ``direction`` forbids (+1: upward only, -1:
    downward only, 0: either) is passed.  A column whose trial falls below
    ``min_width`` without a verdict is stuck at its start, a tangency.  Returns
    the brackets (cols, lo, hi, f_lo, f_hi) of every admissible root, p at
    their ends, by column and then position; the subdivisions; and the stuck
    positions (k,), inf where none (None if no trial was halved)."""
    passed, one = _verdicts(np.sign(np.where(b[0] == 0, b[1], b[0])) * b, eps, True)
    cols = (one & (direction * b[0] <= 0)).nonzero()[0]
    found = [(cols, np.zeros(len(cols)), np.ones(len(cols)), b[0, cols], b[-1, cols])]
    halve = (passed == one).nonzero()[0]     # neither verdict
    if not len(halve):
        return found[0], 0, None
    lo, width, f_lo, sign = np.zeros_like(b[0]), np.ones_like(b[0]), b[0].copy(), np.sign(b[0])
    subdivisions, stuck, rows = 0, np.full_like(b[0], np.inf), halve[:0]
    while True:
        # no verdict: halve, down to min_width
        subdivisions += len(halve)
        width[halve] *= 0.5
        low = width[halve] < min_width[halve]
        stuck[halve[low]] = lo[halve[low]]
        rows = np.concatenate([rows[lo[rows] < 1.0], halve[~low]])
        if not len(rows):
            break
        start, s, e = lo[rows], sign[rows], eps[rows]
        hi = np.minimum(start + width[rows], 1.0)
        # p on [start, 1], exact on [0, 1], and cut at hi short of 1
        _, trial = _split(b[:, rows], start)
        at_end = hi >= 1.0
        inner = (~at_end).nonzero()[0]
        if len(inner):
            trial[:, inner] = _split(trial[:, inner], ((hi - start) / (1.0 - start))[inner])[0]
        # where p starts at an exact zero, the sign of p just past it
        s1 = np.where(s == 0, np.where(np.abs(trial[1]) > e, np.sign(trial[1]), 0.0), s)
        sb = s1 * trial
        sb[0] = s * s       # 0 where p's sign at start is unknown
        passed, one = np.zeros((2, len(rows)), dtype=bool)
        for part, end in ((inner, False), (at_end.nonzero()[0], True)):
            passed[part], one[part] = _verdicts(sb[:, part], e[part], end)
        on = passed | one
        skip = one & (direction * s > 0)
        one &= ~skip
        found.append((rows[one], start[one], hi[one], f_lo[rows[one]], trial[-1, one]))
        # on from hi, with p's sign there: twice as wide past a passed trial
        # or a skipped root, as wide past a bracket
        halve, rows = rows[~on], rows[on]
        lo[rows], f_lo[rows] = hi[on], trial[-1, on]
        sign[rows] = np.where(passed, s1, -s1)[on]
        width[rows[~one[on]]] *= 2.0
    found = [np.concatenate(a) for a in zip(*found)]
    order = np.argsort(found[0], kind="stable")
    return tuple(a[order] for a in found), subdivisions, stuck


def _first_crossings(sets, dirs, y0, F, h, L_here, L_new, end, stats):
    """Earliest admissible crossing of each member inside one step.

    Member m's crossings are sought on the fraction [0, end[m]] of the step,
    on the Bernstein coefficients of each piece's level form along the dense
    output, with the level's values at the step's ends (``L_here``,
    ``L_new``) as the end coefficients.  Of the members that a sign filter
    keeps, ``_isolate`` brackets every root, and ``_newton_roots`` locates
    them all at once to _TIME_TOL in time, on the form's coefficients in
    powers of s - 1/2, s the fraction of [0, end[m]].  A member's earliest
    root whose state passes the piece's halfspace constraints is its
    crossing, and the earliest over the pieces counts (ties to the lowest
    index).  AmbiguousCrossing is raised when an isolation sticks before it.

    Returns (members, u, piece, state) of the hits, in member order: the step
    fraction, the piece index and the pre-impulse state of each (or None).
    """
    if not sets:
        return None
    cut = (end != 1.0).nonzero()[0]
    B = dense_bernstein(y0, F)
    n, hit_u, stuck = len(y0), None, []
    for j, piece in enumerate(sets):
        b, scale = piece.level.form_along_step(B, piece.level_value)
        b[0], b[-1] = L_here[:, j], L_new[:, j]
        if len(cut):
            b[:, cut] = _split(b[:, cut], end[cut])[0]
        eps = _ROUNDING * (len(b) - 1) * scale
        # the filter: every coefficient keeps the sign of the first, or of the
        # second where the first is 0 (a state on the level that leaves it)
        sb = np.sign(np.where(b[0] == 0, b[1], b[0])) * b
        m = ((sb[-1] <= 0) | np.logical_or.reduce(sb[1:-1] <= eps)).nonzero()[0]
        if not len(m):
            continue
        b, e_m = b.take(m, axis=1), end[m]
        tol = _TIME_TOL / (h * e_m)
        (k, lo, hi, f_lo, f_hi), subdivisions, st = _isolate(b, eps[m], tol, dirs[j])
        if hit_u is None:
            hit_u, hit_set, hit_state = np.full(n, np.inf), np.zeros(n, int), np.empty_like(y0)
        if subdivisions:
            stats.subdivisions += subdivisions
            stuck.append((m, st * e_m))
        if not len(k):
            continue
        # one product over the filtered columns: its rounding depends on its shape
        s, passes = _newton_roots((_centring(len(b) - 1) @ b).take(k, axis=1),
                                  lo, hi, f_lo, f_hi, tol[k])
        stats.root_passes += passes
        i, u = m[k], s * e_m[k]
        states = dense_eval(y0.take(i, axis=0), F.take(i, axis=1), u)
        ok = piece.constraint_mask(states)
        stats.discarded_crossings += int(np.add.reduce(~ok))
        first = ok & (u < hit_u[i])
        if subdivisions:    # a halved column may hold several roots: keep the first
            f = first.nonzero()[0]
            first[f[1:][i[f[1:]] == i[f[:-1]]]] = False
        w = i[first]
        hit_u[w], hit_set[w], hit_state[w] = u[first], j, states.compress(first, axis=0)
    if hit_u is None:
        return None
    for m, at in stuck:
        bad = (at < hit_u[m]).nonzero()[0]
        if len(bad):
            raise AmbiguousCrossing(
                f"level crossings {at[bad[0]] * h:.3e} into a step of {h:.3e} "
                "cannot be separated to 1e-12 in time: the orbit is tangent to "
                "the impulsive set")
    hit = np.isfinite(hit_u).nonzero()[0]
    return (hit, hit_u[hit], hit_set[hit], hit_state.take(hit, axis=0)) if len(hit) else None


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
    dirs = np.array([p.direction if forward else 0 for p in sets])

    rhs = field.fn if forward else lambda x: -field.fn(x)
    # the running members: stepper row i is member live[i]
    live = np.flatnonzero(durations > 0)
    stepper = BatchStepper(rhs, X0[live], cfg)
    dur, t = durations[live], np.zeros(len(live))
    L_here = _forms(sets, stepper.y)
    while len(live):
        rem = dur - t
        # a step of at least _HORIZON_SLACK: a scan never runs far past it
        h, y_prop, K = stepper.step(max(float(np.maximum.reduce(rem)), _HORIZON_SLACK))
        stats.steps += 1
        stats.h_min, stats.h_max = min(stats.h_min, h), max(stats.h_max, h)
        y0 = stepper.y
        finish = rem <= h + _HORIZON_SLACK
        adv = np.where(finish, rem, h)
        L_new = _forms(sets, y_prop)
        F = stepper.interpolant(h, y_prop, K)
        # the fraction of the step whose hits count: to _HORIZON_SLACK past
        # the horizon for a finishing member
        scan_end = np.ones(len(rem))
        scan_end[finish] = (rem[finish] + _HORIZON_SLACK) / h
        hits = _first_crossings(sets, dirs, y0, F, h, L_here, L_new, scan_end, stats)
        if hits is not None:
            hit, hit_u, hit_set, pre_states = hits
            adv[hit] = hit_u * h
            finish[hit] = False
        run.fill_samples(live, t, adv, y0, F, h)
        t = t + adv

        y_commit = y_prop       # the step's own array
        if np.logical_or.reduce(finish):
            f = finish.nonzero()[0]
            y_commit[f] = dense_eval(y0.take(f, axis=0), F.take(f, axis=1), rem[f] / h)
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
            L_here[hit] = _forms(sets, stepper.y.take(hit, axis=0))
        if check_region:
            out = (~finish & ~sys.region(stepper.y)).nonzero()[0]
            if len(out):
                run.escaped[live[out]] = True
                run.escape_message = run.escape_message or (
                    f"trajectory left the admissible region of {sys.name!r} "
                    f"near state {stepper.y[out[0]]}")
                finish[out] = True
        if np.logical_or.reduce(finish):
            run.final[live[finish]] = stepper.y.compress(finish, axis=0)
            go_on = (~finish).nonzero()[0]
            live, dur, t, L_here = (a.take(go_on, axis=0) for a in (live, dur, t, L_here))
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
        """The increasing key i * w + j of each hit row: i its member, w =
        len(sample_times) + 1, j the count of grid times more than _COINCIDE_TOL
        before it.  The keys up to i * w + g (g >= -1) count the rows before
        member i's first hit after sample_times[g] + _COINCIDE_TOL.  Returns
        the keys, w, and the hit times, then inf."""
        w = len(self.sample_times) + 1
        keys = self.hit_members * w + np.searchsorted(
            self.sample_times + _COINCIDE_TOL, self.hit_times)
        return keys, w, np.append(self.hit_times, np.inf)

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
        keys, w, taus = self._hit_index
        k, end = keys.searchsorted(m * w + g, side="right"), off[m + 1]
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
        t0[i], y0[i] = taus[k[i] - 1], self.post_impulse_states.take(k[i] - 1, axis=0)
        i = np.flatnonzero((T <= t) & (T >= t0))
        t0[i], y0[i] = T, self.final_states.take(m[i], axis=0)
        # the next knot, the first at the earliest time of: the next hit's
        # pre-impulse state, a sample and the final state, the hit's time less
        # _COINCIDE_TOL (knots that close after a hit hold its post-impulse
        # state); past the horizon the final state, so dt <= 0 keeps y0
        t1 = np.where(g < g1, grid[g1], np.inf)
        y1 = np.take(flat, m * (last + 1) + g1, axis=0)
        i = np.flatnonzero(T < t1)
        t1[i], y1[i] = T, self.final_states.take(m[i], axis=0)
        i = np.flatnonzero((k < end) & (taus[k] - _COINCIDE_TOL <= t1))
        t1[i], y1[i] = taus[k[i]], self.pre_impulse_states.take(k[i], axis=0)

        dt = t1 - t0
        s = np.where(dt > 0, (t - t0) / np.where(dt > 0, dt, 1.0), 0.0)
        f0, f1 = (eval_vector_field(self.system.field, y) for y in (y0, y1))
        u2, s2 = (1 - s) ** 2, s ** 2
        h = ((1 + 2 * s) * u2, s * u2 * dt, s2 * (3 - 2 * s), s2 * (s - 1) * dt)
        y = np.empty_like(y0)
        for j in range(y.shape[1]):     # a coordinate at a time: long loops
            y[:, j] = h[0] * y0[:, j] + h[1] * f0[:, j] + h[2] * y1[:, j] + h[3] * f1[:, j]
        i = np.flatnonzero(t - t0 <= _TIME_TOL)
        y[i] = y0.take(i, axis=0)
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
    is bracketed by integration steps and refined by safeguarded Newton
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

