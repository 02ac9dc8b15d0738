"""Independent oracles used by the tests: closed forms and brute-force
computations that never touch the library code paths they check."""

from itertools import combinations

import numpy as np

from impulseflow import (
    EquivalenceClass,
    SystemSpec,
    first_hitting_time,
    flow,
    gap_set,
    impulsive_trajectory_batch,
)
from impulseflow.entropy import _pair_tables
from impulseflow.flow_core import RegionEscape, eval_vector_field
from impulseflow.hypotheses import _TUBE_XI, _tangent_directions
from impulseflow.impulsive_system import _COINCIDE_TOL, _TIME_TOL, _split


def annulus_position(r0: float, theta0: float, t: float) -> np.ndarray:
    """Closed-form rotation flow: radius constant, angle advances at unit
    speed."""
    return r0 * np.array([np.cos(theta0 + t), np.sin(theta0 + t)])


def annulus_impulse_schedule(r0: float, theta0: float, n: int):
    """Closed-form hit times and post-impulse radii for the folding annulus.

    First hit after 2*pi - theta0 (angle must reach 0 from theta0 going
    counterclockwise), every later hit after exactly pi; the radius follows
    r -> 1/2 + r/2.
    """
    theta0 = np.mod(theta0, 2 * np.pi)
    tau1 = 2 * np.pi - theta0
    taus = tau1 + np.pi * np.arange(n)
    radii = np.empty(n)
    r = r0
    for k in range(n):
        r = 0.5 + 0.5 * r
        radii[k] = r
    return taus, radii


def arc_cell_weights(bins: int, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    """Arc-length distribution of the uniform measure on the unit circle arc
    from pi to 2*pi, over a square grid, by exact angular breakpoints."""
    edges = np.linspace(lo, hi, bins + 1)
    thetas = {np.pi, 2 * np.pi}
    for e in edges:
        if -1.0 <= e <= 1.0:
            c = np.arccos(np.clip(e, -1, 1))
            for th in (c, 2 * np.pi - c):
                if np.pi <= th <= 2 * np.pi:
                    thetas.add(float(th))
            s = np.arcsin(np.clip(e, -1, 1))
            for th in (np.pi - s, 2 * np.pi + s):
                thm = float(np.mod(th, 2 * np.pi))
                if np.pi <= thm <= 2 * np.pi:
                    thetas.add(thm)
    ths = np.sort(np.array(sorted(thetas)))
    width = (hi - lo) / bins
    w = np.zeros(bins * bins)
    for a, b in zip(ths[:-1], ths[1:]):
        mid = 0.5 * (a + b)
        x, y = np.cos(mid), np.sin(mid)
        i = min(int((x - lo) / width), bins - 1)
        j = min(int((y - lo) / width), bins - 1)
        w[i * bins + j] += (b - a) / np.pi
    return w


def occupation_reference(traj, grid, burn_in: float):
    """Cell weights and escaped fraction of the samples at or after burn_in,
    weighted by trapezoid time shares and accumulated with np.add.at in
    sample order."""
    t = traj.sample_times
    sel = t >= burn_in - 1e-12
    t = t[sel]
    w = np.empty(len(t))
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    cells = grid.cell_of(traj.sample_states[sel])
    ok = cells >= 0
    dwell = np.zeros(grid.n_cells)
    np.add.at(dwell, cells[ok], w[ok])
    return dwell / dwell.sum(), float(w[~ok].sum()) / float(w.sum())


def packing_number(points: np.ndarray, eps: float) -> int:
    """Exact epsilon-packing number by exhaustive subset search (pure
    geometry)."""
    n = len(points)
    d = np.sqrt(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2))
    best = 0
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) <= best:
            continue
        if all(d[i, j] >= eps for i, j in combinations(idx, 2)):
            best = len(idx)
    return best


def exhaustive_max_separated(sys: SystemSpec, candidates: np.ndarray, T: float,
                             eps: float, delta: float, dt_check: float,
                             trajectories=None) -> int:
    """Exact separated-set maximum by exhaustive subset search; calibration
    oracle, practical for up to ~15 candidates.  Its conflicts come from the
    library's own pair table (``entropy._pair_tables``), so it checks the
    greedy scan, not the table."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    n = len(candidates)
    if n > 20:
        raise ValueError("exhaustive search is for small candidate sets")
    if trajectories is None:
        trajectories = impulsive_trajectory_batch(
            sys, candidates, max(T, dt_check), dt_check)
    table = next(_pair_tables(trajectories, (T,), eps, (delta,)))
    conflict = np.zeros(n, dtype=np.int64)
    for i, j in zip(table.lo.tolist(), table.hi.tolist()):
        conflict[i] |= 1 << j
        conflict[j] |= 1 << i
    best = 0
    for subset in range(1 << n):
        size = int(subset).bit_count()
        if size <= best:
            continue
        s = subset
        ok = True
        while s:
            i = (s & -s).bit_length() - 1
            if conflict[i] & subset:
                ok = False
                break
            s &= s - 1
        if ok:
            best = size
    return best


def doubling_separated_count(n_grid: int, T: int, eps: float) -> int:
    """Separated count for the angle grid under pure angle doubling: two grid
    angles are indistinguishable up to horizon T exactly when their gap stays
    below the chord threshold for doublings 0..T-1, which reduces to a minimal
    index gap on the cyclic grid."""
    eps_ang = 2 * np.arcsin(eps / 2)
    step = 2 * np.pi / n_grid
    m_min = int(np.ceil(eps_ang / (2 ** (T - 1) * step)))
    if m_min <= 1:
        return n_grid
    return n_grid // m_min


def prey_predator_rhs(x, params=None):
    """Independent transcription of the controlled three-species field."""
    p = {k: 1.0 for k in ("alpha1", "beta1", "beta2", "gamma2", "nu2", "mu1")}
    if params:
        p.update(params)
    x1, x2, x3 = x
    den = 1.0 + p["beta1"] * x1 + p["beta2"] * x2
    return np.array([
        -(x1 + p["alpha1"] * x3) * x1 / den,
        -(p["gamma2"] * x2 + p["nu2"] * x3) * x2 / den,
        -p["mu1"] * x3 / den,
    ])


def min_cross_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance between a point of a and a point of b, over every
    pair at once (brute force, no spatial index)."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(d2.min()))


def gap_intervals(times, t: float, delta: float) -> list:
    """The gap set of one increasing hit-time sequence on [0, t], hit by hit:
    each window (tau - delta, tau + delta) that meets [0, t] closes the
    current interval and opens the next (delta below eta/2 assumed)."""
    intervals = []
    lo = 0.0
    for tau in times:
        if tau + delta <= 0 or tau - delta > t:
            continue
        a, b = lo, min(tau - delta, t)
        if b >= a:
            intervals.append((a, b))
        lo = tau + delta
        if lo > t:
            break
    if lo <= t:
        intervals.append((lo, t))
    return intervals


def ball_distances(trajs, T: float, delta: float) -> dict:
    """For every candidate pair (i < j), min(D(i, j), D(j, i)) at horizon T,
    computed pair by pair.

    D(c, o) is the largest squared distance between the orbits of the
    center c and o at c's check times: every grid sample up to T outside
    c's windows (tau - delta, tau + delta), and every interval endpoint of
    c's gap set on [0, T]; -inf when there are none.  o is in the eps-ball
    of c when D(c, o) < eps**2, so the pair conflicts when the minimum is.
    """
    grid = trajs[0].sample_times
    grid = grid[grid <= T + 1e-12]
    orbits = np.stack([tr.sample_states[:len(grid)] for tr in trajs])
    n = len(trajs)
    mask = np.ones((n, len(grid)), dtype=bool)
    ends = []
    for i, tr in enumerate(trajs):
        gs = gap_set(tr.impulse_times, T, delta)
        ends.append(np.array([t for ab in gs.intervals for t in ab]))
        for tau in tr.impulse_times:
            if tau - delta > T:
                break
            lo = np.searchsorted(grid, tau - delta, side="right")
            hi = np.searchsorted(grid, tau + delta, side="left")
            mask[i, lo:hi] = False

    def directed(center, other):
        keep = mask[center]
        diff = orbits[other, keep] - orbits[center, keep]
        a = trajs[center].evaluate(ends[center])
        b = trajs[other].evaluate(ends[center])
        return max(np.einsum("td,td->t", diff, diff).max(initial=-np.inf),
                   np.sum((a - b) ** 2, axis=1).max(initial=-np.inf))

    return {(i, j): min(directed(i, j), directed(j, i))
            for i, j in combinations(range(n), 2)}


def ball_conflicts(trajs, T: float, eps: float, delta: float) -> set:
    """Conflicting candidate pairs (i < j) at horizon T and radius eps."""
    return {p for p, d in ball_distances(trajs, T, delta).items()
            if d < eps * eps}


def greedy_count(n: int, conflicts: set) -> int:
    """Size of the set admitted by the greedy scan in candidate order."""
    admitted = []
    for j in range(n):
        if not any((a, j) in conflicts for a in admitted):
            admitted.append(j)
    return len(admitted)


def continuity_probe_per_probe(sys, x, approach_dirs: int, scales) -> list[dict]:
    """``hitting_continuity_probe`` one probe at a time, each with its own
    single-orbit runs: the backward flow, the reversed search for a hit
    before _TUBE_XI, then the forward search, whose region exit counts as
    escaped."""
    piece = sys.impulsive_sets[sys.in_impulsive_set(x, tol=1e-7)]
    rows = []
    for s in scales:
        taus, escaped = [], 0
        for d in _tangent_directions(piece.level, x, approach_dirs):
            p = x + 0.5 * s * d
            if not piece.contains(p, tol=1e-6):
                p = x
            xk = flow(sys.field, p, -s)
            if sys.in_impulsive_set(xk, tol=1e-9) >= 0:
                taus.append(0.0)
                continue
            back = first_hitting_time(sys, xk, t_max=_TUBE_XI, reverse=True)
            if back is not None and back[0] < _TUBE_XI:
                escaped += 1
                continue
            try:
                hit = first_hitting_time(sys, xk, t_max=max(10.0, 4 * s))
            except RegionEscape:
                hit = None
            if hit is None:
                escaped += 1
            else:
                taus.append(hit[0])
        rows.append({"scale": s, "tau_star_max": max(taus) if taus else float("nan"),
                     "escaped": escaped})
    return rows


def reference_evaluate(batch, members, times) -> np.ndarray:
    """``TrajectoryBatch.evaluate`` as it was before its rewrite, kept
    verbatim, but for ``self`` renamed ``batch``: the reference of the
    current one.

    States of the orbits of ``members`` at ``times`` in [0, horizon],
    broadcast together; the result has a trailing state axis.

    A member's knots are its samples, the pre-impulse and post-impulse
    states at its hits and its final state.  A hit within _COINCIDE_TOL
    after a time counts as before it, as in ``segment_index``.  Up to
    _TIME_TOL after the last knot at or before it, a time takes that
    knot's state (at a hit, the post-impulse one); elsewhere the cubic
    Hermite interpolant from that knot to the next, whose error is far
    below every radius used by the ball tests.
    """
    m, t = np.broadcast_arrays(np.asarray(members, dtype=int),
                               np.asarray(times, dtype=float))
    shape, m, t = t.shape, m.ravel(), t.ravel()
    T, grid, off = batch.horizon, batch.sample_times, batch.hit_offsets
    if (t < -_COINCIDE_TOL).any() or (t > T + _COINCIDE_TOL).any():
        raise ValueError("evaluation time outside [0, horizon]")
    # complex numbers sort by real part, then imaginary part: k is the row of
    # the member's first hit after t + _COINCIDE_TOL (a sentinel row follows)
    k = np.searchsorted(batch.hit_members + 1j * batch.hit_times,
                        m + 1j * (t + _COINCIDE_TOL), side="right")
    taus = np.append(batch.hit_times, np.inf)
    pad = np.zeros((1, batch.samples.shape[2]))
    g = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 1)
    g1 = np.minimum(g + 1, len(grid) - 1)
    fin, r = batch.final_states[m], np.arange(len(t))
    # the last knot at or before t: the final state, the last hit's
    # post-impulse state or a sample, the first at the latest time
    left = np.stack([np.where(T <= t, T, -np.inf),
                     np.where(k > off[m], taus[k - 1], -np.inf), grid[g]])
    t0 = left.max(axis=0)
    y0 = np.stack([fin, np.concatenate([batch.post_impulse_states, pad])[k - 1],
                   batch.samples[m, g]])[left.argmax(axis=0), r]
    # the next knot: the next hit's pre-impulse state, a sample or the
    # final state, the first at the earliest time, the hit's shifted by
    # _COINCIDE_TOL (knots that close after a hit hold its post-impulse
    # state); past the horizon the final state, so dt <= 0 keeps y0
    right = np.stack([np.where(k < off[m + 1], taus[k], np.inf),
                      np.where(g < g1, grid[g1], np.inf), np.full(len(t), T)])
    i1 = (right - [[_COINCIDE_TOL], [0.0], [0.0]]).argmin(axis=0)
    t1 = right[i1, r]
    y1 = np.stack([np.concatenate([batch.pre_impulse_states, pad])[k],
                   batch.samples[m, g1], fin])[i1, r]

    dt = t1 - t0
    s = np.where(dt > 0, (t - t0) / np.where(dt > 0, dt, 1.0), 0.0)
    f0 = eval_vector_field(batch.system.field, y0)
    f1 = eval_vector_field(batch.system.field, y1)
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s ** 2 * (3 - 2 * s)
    h11 = s ** 2 * (s - 1)
    y = (h00[:, None] * y0 + h10[:, None] * dt[:, None] * f0
         + h01[:, None] * y1 + h11[:, None] * dt[:, None] * f1)
    knot = t - t0 <= _TIME_TOL
    return np.where(knot[:, None], y0, y).reshape(*shape, y0.shape[1])


def reference_dense_eval(y0, F, u) -> np.ndarray:
    """``flow_core.dense_eval`` as it was before it ran on flat rows, kept
    verbatim: the degree-7 in-step interpolant at the step fractions ``u``
    (one per member), by Horner's scheme broadcast over the state axis."""
    u = np.asarray(u, dtype=float)[:, None]
    v = 1.0 - u
    # y = y0 + u (F0 + v (F1 + u (F2 + v (F3 + u (F4 + v (F5 + u F6)))))),
    # Horner from the inside out; the weight is u for even rows, v for odd
    y = np.zeros(y0.shape)
    for k in range(6, -1, -1):
        y += F[k]
        y *= u if k % 2 == 0 else v
    y += y0
    return y


def triangle_audit_reference(D: np.ndarray, tol: float = 1e-9):
    """The triangle part of ``metric_axiom_audit`` as it was before it ran on
    the upper half only, kept verbatim: the best detour min_b D[a, b] +
    D[b, c] over the full matrix, one b at a time.  Returns the violation
    count, the worst excess and the first witness (i, j, excess) in row
    order, or None."""
    n = len(D)
    best = np.full((n, n), np.inf)
    for b in range(n):
        np.minimum(best, D[:, b][:, None] + D[b, :][None, :], out=best)
    excess = D - best
    tri_mask = excess > tol
    tri_viol = int(tri_mask.sum()) // 2
    witness = None
    if tri_viol:
        ii, jj = np.argwhere(tri_mask)[0]
        witness = (int(ii), int(jj), float(excess[ii, jj]))
    return tri_viol, float(excess.max()) if n else 0.0, witness


# The identification classes of an earlier version, one point at a time,
# kept verbatim as the reference of ``quotient._classes``; the system's
# piece lookup and impulse application are copied in beside them, so the
# reference never runs the batched membership test.

_MERGE_TOL = 1e-9


def _in_impulsive_set(sys: SystemSpec, x, tol=None):
    """Index of the first impulsive-set piece containing x, or -1."""
    for j, piece in enumerate(sys.impulsive_sets):
        if piece.contains(x, tol):
            return j
    return -1


def _apply_impulse(sys: SystemSpec, x, tol=None):
    x = np.asarray(x, dtype=float)
    j = _in_impulsive_set(sys, x, tol)
    if j < 0:
        raise ValueError("state is not on the impulsive set")
    return sys.impulse(x[None, :], np.array([j]))[0]


def impulse_preimages_reference(sys: SystemSpec, p) -> list[np.ndarray]:
    p = np.asarray(p, dtype=float)
    out = []
    tol = 1e-7 * (1.0 + float(np.linalg.norm(p)))
    for q in sys.preimages(p):
        j = _in_impulsive_set(sys, q, tol=1e-7)
        if j < 0:
            continue
        back = sys.impulse(q[None, :], np.array([j]))[0]
        if np.linalg.norm(back - p) <= tol:
            out.append(q)
    return out


def _dedupe(points: list[np.ndarray]) -> np.ndarray:
    out: list[np.ndarray] = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= _MERGE_TOL for q in out):
            out.append(p)
    return np.array(out)


def equivalence_class_reference(sys: SystemSpec, x) -> EquivalenceClass:
    x = np.asarray(x, dtype=float)
    if not sys.admissible(x):
        raise ValueError("state outside the admissible region")
    members = [x]
    if _in_impulsive_set(sys, x, tol=1e-7) >= 0:
        image = _apply_impulse(sys, x, tol=1e-7)
        members.append(image)
        members.extend(impulse_preimages_reference(sys, x))      # empty when sets are disjoint
        members.extend(impulse_preimages_reference(sys, image))  # includes x itself
    else:
        members.extend(impulse_preimages_reference(sys, x))
    return EquivalenceClass(members=_dedupe(members), base_point=x.copy())


# The root isolation of an earlier engine, kept verbatim as the reference of
# ``impulsive_system._isolate``: a scan stopped at each column's first
# admissible root until ``resume``, and its first trial, [0, 1], fused with
# the crossing filter.

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

    def brackets(self, rows):
        """Isolate the next admissible root of each of the columns ``rows``.
        Returns the columns that have one, with their brackets (lo, hi) and
        the values of p there; the others are root-free to 1 or stuck."""
        found = [rows[:0]]
        while len(rows):
            lo, width, s = self.lo[rows], self.width[rows], self.sign[rows]
            hi = np.minimum(lo + width, 1.0)
            # p on [lo, 1], exact on [0, 1], and cut at hi short of 1
            _, trial = _split(self.b[:, rows], lo)
            at_end = hi >= 1.0
            inner = (~at_end).nonzero()[0]
            if len(inner):
                t = (hi - lo)[inner] / (1.0 - lo[inner])
                trial[:, inner] = _split(trial[:, inner], t)[0]
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


def _first_trial(b, eps, direction):
    """``_RootScan``'s first trial, [0, 1], on the Bernstein coefficients ``b``
    (n + 1, k) with rounding bounds ``eps``: None if it passes every column,
    else the columns ``cand`` it does not pass and, over them, the masks of
    those with one admissible root and of those it halves; the rest have one
    root, which ``direction`` forbids."""
    # passed: every coefficient keeps the sign of the first, or of the second
    # where the first is 0 (a state on the level that leaves it)
    sb = np.sign(np.where(b[0] == 0, b[1], b[0])) * b
    cand = ((sb[-1] <= 0) | np.logical_or.reduce(sb[1:-1] <= eps)).nonzero()[0]
    if len(cand):
        sb, e = sb[:, cand], eps[cand]
        # one root: from a nonzero first coefficient the signs run +, ..., +,
        # at most one within eps of 0, then -, ..., -, the last at face value
        one = ((sb[0] != 0) & (sb[-1] <= 0)
               & np.logical_and.reduce((sb[1:-2] > e) | (sb[2:-1] < -e)))
        return cand, one & (direction * b[0, cand] <= 0), ~one
