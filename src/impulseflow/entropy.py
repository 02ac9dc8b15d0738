"""Growth-rate entropy estimation for impulsive semiflows.

Orbit proximity is only tested on the complement of small windows around each
hit time (the gap set), which makes the notion robust to the jump
discontinuities.  The estimator builds maximal separated sets greedily over a
candidate cloud and regresses log counts against the time horizon.

The whole (eps, T) table comes from one pass over the cloud's trajectories
at the largest horizon for each window width delta.  Fixed-radius cell
searches at the largest radius on a few sample times give the candidate
pairs; for each pair the largest squared distance at the check times of
either orbit's gap set is kept as a running maximum over the horizons, so
every (eps, T) cell is a threshold on the same numbers, and its count a
linear greedy scan of the pairs that conflict there.

Counts are exact lower bounds for the separated-set supremum over the cloud;
candidate exhaustion (the greedy admitting the whole cloud) is flagged and
saturated cells are excluded from the growth fit, since they carry no growth
information.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
import numpy as np

from .impulsive_system import (
    SystemSpec,
    hit_times_batch,
    impulsive_trajectory_batch,
)
from .neighbors import radius_pairs
from .systems import candidate_cloud

__all__ = [
    "GapSet",
    "EntropyConfig",
    "EntropyEstimate",
    "AdmissibilityReport",
    "gap_set",
    "in_dynamical_ball",
    "max_separated_set",
    "exhaustive_max_separated",
    "entropy_estimate",
    "admissibility_check",
]


def _min_hit_gap(batch) -> float:
    """eta: the smallest gap between consecutive hit times over the orbits
    of a batch (inf when no orbit hits twice)."""
    owner = batch.hit_members
    gaps = np.diff(batch.hit_times)[owner[1:] == owner[:-1]]
    return float(gaps.min(initial=np.inf))


@dataclass(frozen=True)
class GapSet:
    """[0, t] with an open window of width 2*delta removed around each hit
    time, kept as ordered disjoint closed intervals (possibly degenerate)."""

    intervals: tuple
    t: float
    delta: float

    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))


def gap_set(times: np.ndarray, t: float, delta: float) -> GapSet:
    """Remove the open windows (tau - delta, tau + delta) from [0, t].

    ``times`` is one base point's increasing hit-time sequence.  delta must
    stay below half its minimal gap eta, measured from the sequence itself;
    a hit-free sequence leaves the whole of [0, t].
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if delta <= 0:
        raise ValueError("delta must be positive")
    times = np.sort(np.asarray(times, dtype=float))
    eta = float(np.diff(times).min()) if len(times) >= 2 else np.inf
    if not delta < eta / 2:
        raise ValueError(f"delta = {delta} must be below eta/2 = {eta / 2}")
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
    return GapSet(intervals=tuple(intervals), t=float(t), delta=float(delta))


def in_dynamical_ball(sys: SystemSpec, x: np.ndarray, y: np.ndarray,
                      T: float, eps: float, delta: float, dt_check: float) -> bool:
    """Whether the orbit of y stays within eps of the orbit of x at every
    check time of x's gap set over [0, T].

    The check times are those of the separated-set pass: the endpoints of
    the gap set's intervals and the dt_check sample grid up to T outside
    x's windows; dt_check <= delta/2 guarantees no interval is skipped.  The
    relation is reflexive but not symmetric: the gap set is the center's.
    """
    if dt_check > delta / 2:
        raise ValueError("dt_check must not exceed delta/2")
    batch = impulsive_trajectory_batch(sys, np.vstack([x, y]), max(T, dt_check),
                                       dt_check)
    grid = batch.sample_times
    ends = np.ravel(gap_set(batch[0].impulse_times, T, delta).intervals)
    cols = _valid_columns(batch, grid, delta)[0] & (grid <= T + 1e-12)
    dx, dy = batch.evaluate([[0], [1]], np.concatenate([ends, grid[cols]]))
    dist = np.sqrt(np.sum((dx - dy) ** 2, axis=1))
    return bool((dist < eps).all())


# --------------------------------------------------------------------------
# Separated sets
# --------------------------------------------------------------------------

# Pair x column entries (grid columns, or gap-set endpoints) per block of the
# pair pass, so that its difference and distance temporaries stay near a
# megabyte whatever the size of the cloud.
_PAIR_BLOCK = 1 << 15

# Probe columns of the candidate-pair query, as fractions of the grid up to
# the shortest horizon.
_PROBE_FRACTIONS = (0.93, 0.65, 0.37, 0.11)


@dataclass(frozen=True)
class _PairTable:
    """The pairs of one window width that conflict at some horizon.

    ``lo < hi`` are candidate indices, sorted by ``hi``.  ``dmin[p, k]`` is
    min(D_T(lo, hi), D_T(hi, lo)) at T = T_list[k], where D_T(a, j) is the
    largest squared distance between the orbits of a and j over the check
    times of a's gap set on [0, T].  The pair conflicts at (eps, T_list[k])
    exactly when dmin[p, k] < eps**2; entries are exact wherever they fall
    below eps_max**2, which is all that a radius up to eps_max reads.
    """

    lo: np.ndarray
    hi: np.ndarray
    dmin: np.ndarray
    kd_pairs: int
    prefilter_pairs: int


def _valid_columns(batch, grid: np.ndarray, delta: float) -> np.ndarray:
    """Per orbit, the grid columns outside the open windows
    (tau - delta, tau + delta) of its hits."""
    opens = np.searchsorted(grid, batch.hit_times - delta, side="right")
    closes = np.searchsorted(grid, batch.hit_times + delta, side="left")
    # +1 where a window opens, -1 where it closes: a column is valid where
    # the running sum is zero (int8 holds it: gap_set keeps the windows of
    # an orbit disjoint)
    edges = np.zeros((len(batch), len(grid) + 1), dtype=np.int8)
    np.add.at(edges, (batch.hit_members, opens), 1)
    np.add.at(edges, (batch.hit_members, closes), -1)
    return np.cumsum(edges[:, :-1], axis=1, dtype=np.int8) == 0


def _endpoint_max(batch, E, own, n_ends, center, other, t_last):
    """Largest squared distance between the orbits of center[r] and
    other[r] at the center's gap-set endpoints up to each horizon (-inf for
    none), for every row r.

    ``E``, ``own`` and ``n_ends`` hold each center's padded endpoints, its
    states there, and the number of endpoints up to each horizon.  Endpoints
    after t_last[r] are skipped.
    """
    R, L = len(center), E.shape[1]
    out = np.full((R, n_ends.shape[1]), -np.inf)
    step = max(1, _PAIR_BLOCK // max(L, 1))
    for s in range(0, R if L else 0, step):
        c, o = center[s:s + step], other[s:s + step]
        tq = E[c]
        real = tq <= t_last[s:s + step, None]
        cross = np.zeros((len(c), L, own.shape[2]))
        cross[real] = batch.evaluate(np.broadcast_to(o[:, None], tq.shape)[real],
                                     tq[real])
        d2 = np.where(real, np.sum((own[c] - cross) ** 2, axis=-1), -np.inf)
        run = np.maximum.accumulate(d2, axis=1)
        k = n_ends[c]
        out[s:s + step] = np.where(k > 0, np.take_along_axis(
            run, np.maximum(k - 1, 0), axis=1), -np.inf)
    return out


def _pair_tables(batch, T_list, eps_max: float, delta_list):
    """Conflict pairs of the batch's orbits for every horizon in T_list, one
    pass per window width in delta_list (a generator of _PairTable).

    j is in the ball of the center a at horizon T when the orbits stay
    closer than eps at a's check times: the sample-grid columns up to T
    outside a's windows, and the interval endpoints of a's gap set on
    [0, T].  Those endpoints are the ones of its gap set on [0, max(T_list)]
    up to T, plus T itself when T lies in the gap set, so one pass over the
    trajectories at max(T_list) gives D_T(a, j) for every T as a running
    maximum plus a term at T.  Squared distances are einsum sums on grid
    columns and sum((a - b)**2) at endpoints, bit for bit the arithmetic of
    a pair-by-pair test.

    Candidate pairs come from fixed-radius cell searches at eps_max on probe
    columns up to min(T_list); a pair is dropped only when it is far at a
    probe valid for each of its two members, since then neither orbit is in
    the other's ball at any horizon.  A member with no valid probe keeps all
    of its pairs.
    """
    T_list = np.asarray(T_list, dtype=float)
    if (T_list < 0).any():
        raise ValueError("t must be nonnegative")
    T_max = float(T_list.max())
    if batch.horizon < T_max - 1e-9:
        raise ValueError("trajectories are shorter than the ball horizon")
    n, nT = len(batch), len(T_list)
    grid = batch.sample_times
    # Grid columns checked at each T (at least column 0, as T >= 0), taken as
    # runs of segments.  The windows of every hit mask them, as at max(T_list):
    # a window opening after a smaller T could only cover a column inside the
    # 1e-12 slack above that T.
    cols = np.searchsorted(grid, T_list + 1e-12, side="right")
    bounds = np.unique(cols)
    seg_starts = np.concatenate([[0], bounds[:-1]])
    seg_of = np.searchsorted(bounds, cols)
    m = int(bounds[-1])
    grid = grid[:m]
    orbits = batch.samples[:, :m]
    dim = orbits.shape[2]
    eps2 = eps_max * eps_max

    probes = np.unique(
        (np.array(_PROBE_FRACTIONS) * (bounds[0] - 1)).astype(int))
    at_probes = orbits[:, probes]
    near = np.concatenate([np.ravel_multi_index(
        radius_pairs(at_probes[:, k], eps_max * (1 + 1e-9)), (n, n))
        for k in range(len(probes))])
    step = max(1, _PAIR_BLOCK // m)

    for delta in delta_list:
        ends = [np.ravel(gap_set(taus, T_max, delta).intervals)
                for taus in np.split(batch.hit_times, batch.hit_offsets[1:-1])]
        L = max(len(e) for e in ends)
        E = np.full((n, L), np.inf)
        for i, e in enumerate(ends):
            E[i, :len(e)] = e
        real = np.isfinite(E)
        own = np.zeros((n, L, dim))
        own[real] = batch.evaluate(np.nonzero(real)[0], E[real])
        at_T = batch.evaluate(np.arange(n)[:, None], T_list)
        n_ends = np.count_nonzero(E[:, None, :] <= T_list[:, None], axis=2)
        T_in_gap = ((E[:, None, 0::2] <= T_list[:, None])
                    & (T_list[:, None] <= E[:, None, 1::2])).any(axis=2)
        valid = _valid_columns(batch, grid, delta)

        # candidate pairs and the probe prefilter
        vp = valid[:, probes]
        blind = np.flatnonzero(~vp.any(axis=1))
        members = np.arange(n)
        blind_pairs = [np.minimum(b, members[members != b]) * n
                       + np.maximum(b, members[members != b]) for b in blind]
        codes = np.sort(np.concatenate([near, *blind_pairs]))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        lo, hi = np.divmod(codes, n)
        keep = np.empty(len(codes), dtype=bool)
        pstep = _PAIR_BLOCK // len(probes)
        for s in range(0, len(codes), pstep):
            a, b = lo[s:s + pstep], hi[s:s + pstep]
            diff = at_probes[b] - at_probes[a]
            far = np.einsum("ptd,ptd->pt", diff, diff) >= eps2
            keep[s:s + pstep] = ~((far & vp[a]).any(axis=1)
                                  & (far & vp[b]).any(axis=1))
        lo, hi = lo[keep], hi[keep]
        P = len(lo)

        # directed distances on the grid and at T: D[0] centers lo, D[1] hi
        D = np.empty((2, P, nT))
        for s in range(0, P, step):
            a, b = lo[s:s + step], hi[s:s + step]
            diff = orbits[b] - orbits[a]
            d2 = np.einsum("ptd,ptd->pt", diff, diff)
            at_t = np.sum((at_T[a] - at_T[b]) ** 2, axis=-1)
            for side, c in enumerate((a, b)):
                Dc = np.maximum.accumulate(np.maximum.reduceat(
                    np.where(valid[c], d2, -np.inf), seg_starts, axis=1),
                    axis=1)[:, seg_of]
                D[side, s:s + step] = np.maximum(
                    Dc, np.where(T_in_gap[c], at_t, -np.inf))

        # gap-set endpoints, for the directions still below eps_max at some
        # T; the second direction only where it can still lower the minimum
        for side, (centers, others) in enumerate(((lo, hi), (hi, lo))):
            need = D[side] < eps2
            if side == 1:
                need &= D[1] < D[0]
            rows = np.flatnonzero(need.any(axis=1))
            t_last = np.where(need[rows], T_list, -np.inf).max(axis=1)
            D[side, rows] = np.maximum(D[side, rows], _endpoint_max(
                batch, E, own, n_ends, centers[rows], others[rows], t_last))

        dmin = np.minimum(D[0], D[1])
        live = np.flatnonzero((dmin < eps2).any(axis=1))
        live = live[np.lexsort((lo[live], hi[live]))]
        yield _PairTable(lo=lo[live], hi=hi[live], dmin=dmin[live],
                         kd_pairs=len(codes), prefilter_pairs=P)


def _greedy_scan(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Greedy mutual-exclusion scan in candidate order over the conflict
    pairs lo < hi (sorted by hi): a candidate is admitted when no admitted
    earlier candidate conflicts with it.  Returns the admitted indices."""
    admitted = [True] * n
    starts = np.searchsorted(hi, np.arange(n + 1))
    later = np.flatnonzero(np.diff(starts)).tolist()
    starts, lo = starts.tolist(), lo.tolist()
    for j in later:
        for k in range(starts[j], starts[j + 1]):
            if admitted[lo[k]]:
                admitted[j] = False
                break
    return np.flatnonzero(admitted)


def max_separated_set(sys: SystemSpec, candidates: np.ndarray, T: float,
                      eps: float, delta: float, dt_check: float,
                      trajectories=None):
    """Greedy maximal separated subset of the candidates.

    Candidates are scanned in their given order; one is admitted when it is
    not in the ball of any admitted point and no admitted point is in its
    ball.  The count is a lower bound for the separated-set supremum over the
    candidate cloud.
    """
    if dt_check > delta / 2:
        raise ValueError("dt_check must not exceed delta/2")
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if trajectories is None:
        trajectories = impulsive_trajectory_batch(
            sys, candidates, max(T, dt_check), dt_check)
    table = next(_pair_tables(trajectories, (T,), eps, (delta,)))
    admitted = _greedy_scan(len(candidates), table.lo, table.hi)
    return candidates[admitted], int(len(admitted))


def exhaustive_max_separated(sys: SystemSpec, candidates: np.ndarray, T: float,
                             eps: float, delta: float, dt_check: float,
                             trajectories=None) -> int:
    """Exact separated-set maximum by exhaustive subset search; calibration
    oracle, practical for up to ~15 candidates."""
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


# --------------------------------------------------------------------------
# Estimator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyConfig:
    T_list: tuple
    eps_list: tuple
    delta_list: tuple
    candidate_count: int = 4096
    dt_check: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "T_list", tuple(float(v) for v in self.T_list))
        object.__setattr__(self, "eps_list", tuple(float(v) for v in self.eps_list))
        object.__setattr__(self, "delta_list",
                           tuple(float(v) for v in self.delta_list))
        T = self.T_list
        if len(T) < 2 or list(T) != sorted(T) or T[0] < 0 or not T[-1] > 0:
            raise ValueError("T_list must have at least two entries, nonnegative, "
                             "increasing and ending above 0")
        for name in ("eps_list", "delta_list"):
            values = getattr(self, name)
            if not values or min(values) <= 0 or any(np.diff(values) > 0):
                raise ValueError(f"{name} must be nonempty, positive and nonincreasing")
        if self.candidate_count < 1:
            raise ValueError("candidate_count must be at least 1")
        if self.dt_check is None:
            object.__setattr__(self, "dt_check", min(self.delta_list) / 2)
        if not 0 < self.dt_check <= min(self.delta_list) / 2:
            raise ValueError("dt_check must be in (0, min(delta_list)/2]")


@dataclass(frozen=True)
class CellCount:
    T: float
    eps: float
    delta: float
    s_count: int
    saturated: bool


@dataclass(frozen=True)
class EntropyEstimate:
    table: tuple
    rates: dict
    h_tau_estimate: float
    lower_bound_only: bool
    diagnostics: dict = field(default_factory=dict)


def _fit_rate(Ts: np.ndarray, counts: np.ndarray, saturated: np.ndarray):
    """Least-squares slope of log count vs T.

    Without saturation the fit uses the upper half of the horizons, two at
    least, for the large-T limit.  Saturated cells are dropped (lower bounds
    with no growth signal); the fit then uses every remaining cell.
    """
    if saturated.any():
        keep = ~saturated
        lower_bound = True
        if keep.sum() < 2:
            return 0.0, True
        Ts, counts = Ts[keep], counts[keep]
    else:
        lower_bound = False
        half = min(len(Ts) // 2, len(Ts) - 2)
        Ts, counts = Ts[half:], counts[half:]
    y = np.log(counts.astype(float))
    slope = np.polyfit(Ts, y, 1)[0]
    return float(slope), lower_bound


def entropy_estimate(sys: SystemSpec, cfg: EntropyConfig) -> EntropyEstimate:
    """Separated-set growth table and fitted rates over a candidate cloud.

    The headline estimate is the rate at the smallest radius and smallest
    window width.  Diagnostics record the measured gap bound, saturation,
    monotonicity defects of the table, the propagation work counters, and
    the separated-set work counters: passes (one per delta), the cell
    search's candidate pairs (``kd_pairs``) and the pairs left by the probe
    prefilter (per delta), and the conflicting pairs of each cell (in table
    order).
    """
    rng = np.random.default_rng(cfg.seed)
    candidates = candidate_cloud(sys, cfg.candidate_count, rng)
    T_max = max(cfg.T_list)
    batch = impulsive_trajectory_batch(sys, candidates, T_max, cfg.dt_check)
    eta = _min_hit_gap(batch)
    if not max(cfg.delta_list) < eta / 2:
        raise ValueError(
            f"max delta {max(cfg.delta_list)} violates the gap bound "
            f"eta/2 = {eta / 2:.6g}"
        )
    n = len(candidates)
    rows = []
    work = {"passes": 0, "kd_pairs": [], "prefilter_pairs": [],
            "conflict_pairs": []}
    tables = _pair_tables(batch, cfg.T_list, max(cfg.eps_list), cfg.delta_list)
    for delta, table in zip(cfg.delta_list, tables):
        work["passes"] += 1
        work["kd_pairs"].append(table.kd_pairs)
        work["prefilter_pairs"].append(table.prefilter_pairs)
        for eps in cfg.eps_list:
            for k, T in enumerate(cfg.T_list):
                hit = table.dmin[:, k] < eps * eps
                s = len(_greedy_scan(n, table.lo[hit], table.hi[hit]))
                work["conflict_pairs"].append(int(hit.sum()))
                rows.append(CellCount(T=T, eps=eps, delta=delta, s_count=s,
                                      saturated=s >= n))
    rates = {}
    lower_bound_any = False
    for delta in cfg.delta_list:
        for eps in cfg.eps_list:
            sel = [r for r in rows if r.eps == eps and r.delta == delta]
            Ts = np.array([r.T for r in sel])
            counts = np.array([max(r.s_count, 1) for r in sel])
            sat = np.array([r.saturated for r in sel])
            rate, lb = _fit_rate(Ts, counts, sat)
            rates[(eps, delta)] = rate
            lower_bound_any |= lb
    h_tau = rates[(min(cfg.eps_list), min(cfg.delta_list))]
    mono_defects = _monotonicity_defects(rows)
    return EntropyEstimate(
        table=tuple(rows),
        rates=rates,
        h_tau_estimate=float(h_tau),
        lower_bound_only=lower_bound_any,
        diagnostics={
            "candidate_count": cfg.candidate_count,
            "dt_check": cfg.dt_check,
            "eta_est": eta,
            "saturated_cells": int(sum(r.saturated for r in rows)),
            "eps_monotonicity_defects": mono_defects,
            "propagation": asdict(batch.stats),
            "separated": work,
        },
    )


def _monotonicity_defects(rows) -> int:
    """Count (T, delta) pairs where s_count increases with eps."""
    defects = 0
    keys = {(r.T, r.delta) for r in rows}
    for T, delta in keys:
        sel = sorted((r for r in rows if r.T == T and r.delta == delta),
                     key=lambda r: -r.eps)
        counts = [r.s_count for r in sel]
        defects += sum(1 for a, b in zip(counts, counts[1:]) if b < a)
    return defects


# --------------------------------------------------------------------------
# Admissibility
# --------------------------------------------------------------------------

# Largest deviation of a shifted hit time that the time-shift identity allows.
_SHIFT_TOL = 1e-6


@dataclass(frozen=True)
class AdmissibilityReport:
    eta_est: float
    shift_violations: int
    n_triples: int
    max_deviation: float


def admissibility_check(sys: SystemSpec, samples: np.ndarray, horizon: float,
                        n_triples: int = 500, seed: int = 0) -> AdmissibilityReport:
    """Measure the uniform gap bound and test the time-shift identity of the
    hit times.

    For sampled (x, t, k) with t strictly inside the k-th inter-hit window of
    x, the hit sequence of the time-t state must be the tail of x's sequence
    shifted by t.  Deviations above ``_SHIFT_TOL`` count as violations.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    dt = max(horizon / 2048, 1e-3)
    batch = impulsive_trajectory_batch(sys, samples, horizon, dt)
    off = batch.hit_offsets

    rng = np.random.default_rng(seed)
    usable = np.flatnonzero(np.diff(off) >= 1)
    violations = 0
    max_dev = 0.0
    done = 0
    if len(usable):
        # batch: pick (trajectory, window, offset) triples, evaluate the
        # semiflow at the offsets, then recompute hit times from there
        idx = rng.choice(usable, size=n_triples)
        t_eval = np.empty(n_triples)
        expect: list[np.ndarray] = []
        for row, i in enumerate(idx):
            taus = batch.hit_times[off[i]:off[i + 1]]
            k = int(rng.integers(0, len(taus)))
            lo = taus[k - 1] if k > 0 else 0.0
            hi = taus[k]
            t = lo + (hi - lo) * rng.uniform(0.1, 0.9)
            t_eval[row] = t
            expect.append(taus[k:] - t)
        starts = batch.evaluate(idx, t_eval)
        shifted = hit_times_batch(sys, starts, batch.horizon - t_eval)
        for row in range(n_triples):
            got = shifted[row]
            want = expect[row]
            kk = min(len(got), len(want), 3)
            if kk == 0:
                continue
            dev = float(np.abs(np.asarray(got[:kk]) - want[:kk]).max())
            max_dev = max(max_dev, dev)
            done += 1
            if dev > _SHIFT_TOL:
                violations += 1
    return AdmissibilityReport(
        eta_est=_min_hit_gap(batch),
        shift_violations=violations,
        n_triples=done,
        max_deviation=max_dev,
    )
