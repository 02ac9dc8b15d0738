"""Growth-rate entropy estimation for impulsive semiflows.

Orbit proximity is only tested on the complement of small windows around each
hit time (the gap set), which makes the notion robust to the jump
discontinuities.  The estimator builds maximal separated sets greedily over a
candidate cloud and regresses log counts against the time horizon.

The whole (eps, T) table comes from one pass over the cloud's trajectories
at the largest horizon for each window width delta; every orbit's gap set
comes at once from the batch's hit rows.  Fixed-radius cell searches at the
largest radius on a few sample times give the candidate pairs; for each pair
the largest squared distance at the check times of either orbit's gap set is
kept as a running maximum, horizon block by horizon block, until both
directions pass the largest radius.  Every (eps, T) cell is a threshold on
the same numbers, and its count a linear greedy scan of the pairs that
conflict there.

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
from .neighbors import _squared_distance, radius_pairs
from .systems import candidate_cloud

__all__ = [
    "GapSet",
    "EntropyConfig",
    "EntropyEstimate",
    "AdmissibilityReport",
    "gap_set",
    "in_dynamical_ball",
    "max_separated_set",
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


def _gap_ends(times, offsets, t: float, delta: float):
    """The gap sets on [0, t] of the increasing hit-time sequences
    times[offsets[i]:offsets[i + 1]] at once: their interval endpoints a0,
    b0, a1, b1, ... as rows padded with inf, and each row's endpoint count.
    Each hit whose window meets [0, t] ends an interval and starts the next;
    empty intervals are dropped."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = len(offsets) - 1
    owner = np.repeat(np.arange(n), np.diff(offsets))
    bad = owner[1:][~(delta < np.diff(times) / 2) & (owner[1:] == owner[:-1])]
    if len(bad):
        eta = float(np.diff(times[offsets[bad[0]]:offsets[bad[0] + 1]]).min())
        raise ValueError(f"delta = {delta} must be below eta/2 = {eta / 2}")
    meet = (times + delta > 0) & (times - delta <= t)
    owner, taus = owner[meet], times[meet]
    # k hits make k + 1 interval slots: hit h ends slot h + owner[h]
    slot = np.arange(len(taus)) + owner
    a, b = np.zeros(len(taus) + n), np.full(len(taus) + n, float(t))
    a[slot + 1], b[slot] = taus + delta, np.minimum(taus - delta, t)
    kept = b >= a
    row = np.repeat(np.arange(n), np.bincount(owner, minlength=n) + 1)[kept]
    per = 2 * np.bincount(row, minlength=n)
    col = np.arange(0, 2 * len(row), 2) - np.repeat(np.cumsum(per) - per, per // 2)
    E = np.full((n, per.max(initial=0)), np.inf)
    E[row, col], E[row, col + 1] = a[kept], b[kept]
    return E, per


def gap_set(times: np.ndarray, t: float, delta: float) -> GapSet:
    """Remove the open windows (tau - delta, tau + delta) from [0, t]: the
    one-sequence case of ``_gap_ends``.  delta must stay below half the
    minimal gap eta of the hit times; a hit-free sequence leaves [0, t]."""
    times = np.sort(np.asarray(times, dtype=float))
    E, count = _gap_ends(times, [0, len(times)], t, delta)
    ends = E[0, :count[0]].tolist()
    return GapSet(tuple(zip(ends[0::2], ends[1::2])), float(t), float(delta))


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

# Pair x column entries (grid columns, gap-set endpoints or horizons) per block
# of the pair pass, so that its difference and distance temporaries stay near a
# megabyte whatever the size of the cloud.
_PAIR_BLOCK = 1 << 15

# Probe columns of the candidate-pair query, as increasing fractions of the
# grid up to the shortest horizon.
_PROBE_FRACTIONS = (0.11, 0.37, 0.65, 0.93)


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
    after t_last[r] are skipped.  Rows go _PAIR_BLOCK // (endpoints per
    center) at a time, and ``evaluate`` blocks their queries in turn.
    """
    R, L = len(center), E.shape[1]
    out = np.full((R, n_ends.shape[1]), -np.inf)
    step = max(1, _PAIR_BLOCK // max(L, 1))
    for s in range(0, R if L else 0, step):
        c, o = center[s:s + step], other[s:s + step]
        r, l = np.nonzero(E.take(c, axis=0) <= t_last[s:s + step, None])
        at = c[r] * L + l       # rows of the flattened E and own
        d2 = np.full((len(c), L + 1), -np.inf)     # column l + 1: endpoint l
        d2[r, l + 1] = np.sum((np.take(own.reshape(-1, own.shape[2]), at, axis=0)
                               - batch.evaluate(o[r], E.ravel()[at])) ** 2, axis=-1)
        run = np.maximum.accumulate(d2, axis=1)
        out[s:s + step] = np.take_along_axis(run, n_ends.take(c, axis=0), axis=1)
    return out


def _candidate_pairs(at_probes, vp, eps_max: float):
    """The candidate pairs of ``_pair_tables`` that the probe prefilter keeps,
    as index arrays lo < hi in (hi, lo) order, and the number of candidates.

    The candidates are the pairs that a cell search at eps_max finds at one
    of the probe columns of ``at_probes``, and the pairs of each member with
    no valid probe (``vp`` marks the valid ones).  Each is taken from the
    first search that finds it: a later search's pairs that are near at an
    earlier probe, by the cell search's own test (squares summed in
    coordinate order), are skipped.  The searches hand their pairs over a
    block at a time, so no set of all the candidates is ever held.
    """
    n, n_probes = vp.shape
    r, eps2, zero = eps_max * (1 + 1e-9), eps_max * eps_max, np.zeros(at_probes.shape[2])
    members, seen = np.arange(n), vp.any(axis=1)
    # a blind member pairs with every later member and every earlier seen one
    blind = [(np.minimum(b, members[(members > b) | seen]),
              np.maximum(b, members[(members > b) | seen])) for b in np.flatnonzero(~seen)]
    sources = [*(radius_pairs(at_probes[:, k], r) for k in range(n_probes)), blind]
    kept, found, step = [np.empty(0, np.intp)], 0, _PAIR_BLOCK // n_probes
    for k, source in enumerate(sources):
        for lo, hi in source:
            for s in range(0, len(lo), step):
                a, b = lo[s:s + step], hi[s:s + step]
                diff = at_probes.take(b, axis=0) - at_probes.take(a, axis=0)
                near = np.sqrt(_squared_distance(diff[:, :k].T, zero)) <= r
                new = np.flatnonzero(~near.any(axis=0))
                a, b, diff = a[new], b[new], diff[new]
                far = np.einsum("ptd,ptd->pt", diff, diff) >= eps2
                keep = ~((far & vp[a]).any(axis=1) & (far & vp[b]).any(axis=1))
                found += len(new)
                kept.append(b[keep] * n + a[keep])
    hi, lo = np.divmod(np.sort(np.concatenate(kept)), n)
    return lo, hi, found


def _pair_tables(batch, T_list, eps_max: float, delta_list):
    """Conflict pairs of the batch's orbits for every horizon in T_list, one
    pass per window width in delta_list (a generator of _PairTable).

    j is in the ball of the center a at horizon T when the orbits stay
    closer than eps at a's check times: the sample-grid columns up to T
    outside a's windows, and the interval endpoints of a's gap set on
    [0, T].  Those endpoints are the ones of its gap set on [0, max(T_list)]
    up to T, plus T itself when T lies in the gap set, so one pass over the
    trajectories at max(T_list) gives D_T(a, j) for every T as a running
    maximum plus a term at T.  The grid maximum runs segment by segment up
    to each T, and a pair leaves once both directions reach eps_max**2: the
    maximum never falls, so its later entries, left at inf, could not fall
    below.  Squared distances are einsum sums on grid columns and
    sum((a - b)**2) at endpoints, bit for bit a pair-by-pair test's.

    Candidate pairs come from fixed-radius cell searches at eps_max on probe
    columns up to min(T_list); a pair is dropped only when it is far at a
    probe valid for each of its two members, since then neither orbit is in
    the other's ball at any horizon.  A member with no valid probe keeps all
    of its pairs.  The pairs left go from the grid pass to the conflict test
    _PAIR_BLOCK // len(T_list) at a time, and the live ones move down in
    place, so that the memory held per pair is its lo, hi and dmin row.
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
    bounds = np.sort(cols)
    bounds = bounds[np.diff(bounds, prepend=-1) != 0]
    m = int(bounds[-1])
    grid = grid[:m]
    orbits = batch.samples[:, :m]
    eps2 = eps_max * eps_max

    probes = (np.array(_PROBE_FRACTIONS) * (bounds[0] - 1)).astype(int)
    probes = probes[np.diff(probes, prepend=-1) != 0]
    at_probes = orbits.take(probes, axis=1)     # one row per member: fast gathers
    at_T = batch.evaluate(np.arange(n)[:, None], T_list)

    for delta in delta_list:
        E, _ = _gap_ends(batch.hit_times, batch.hit_offsets, T_max, delta)
        real = np.isfinite(E)
        own = np.zeros((*E.shape, orbits.shape[2]))
        own[real] = batch.evaluate(np.nonzero(real)[0], E[real])
        n_ends = np.count_nonzero(E[:, None, :] <= T_list[:, None], axis=2)
        T_in_gap = ((E[:, None, 0::2] <= T_list[:, None])
                    & (T_list[:, None] <= E[:, None, 1::2])).any(axis=2)
        valid = _valid_columns(batch, grid, delta)
        lo, hi, kd_pairs = _candidate_pairs(at_probes, valid.take(probes, axis=1), eps_max)
        P = len(lo)
        dmin, filled, block = np.empty((P, nT)), 0, max(1, _PAIR_BLOCK // nT)
        for s in range(0, P, block):
            lo_b, hi_b = lo[s:s + block], hi[s:s + block]
            # directed distances on the grid and at T: D[0] centers lo, D[1] hi
            D = np.full((2, len(lo_b), nT), np.inf)
            run = np.full((2, len(lo_b)), -np.inf)  # running maxima of the pairs in act
            act = np.arange(len(lo_b))
            for c0, c1 in zip([0, *bounds[:-1]], bounds):
                ks = np.flatnonzero(cols == c1)
                step = max(1, _PAIR_BLOCK // (c1 - c0))
                at_Tk, gap_k = at_T[:, ks], T_in_gap[:, ks]
                for r0 in range(0, len(act), step):
                    p = act[r0:r0 + step]
                    a, b = lo_b[p], hi_b[p]
                    diff = orbits[b, c0:c1] - orbits[a, c0:c1]
                    d2 = np.einsum("ptd,ptd->pt", diff, diff)
                    at_t = np.sum((at_Tk.take(a, axis=0) - at_Tk.take(b, axis=0)) ** 2, axis=-1)
                    for side, c in enumerate((a, b)):
                        r = run[side, p] = np.maximum(run[side, p], np.where(
                            valid[c, c0:c1], d2, -np.inf).max(axis=1))
                        D[side, p[:, None], ks] = np.maximum(r[:, None], np.where(
                            gap_k.take(c, axis=0), at_t, -np.inf))
                act = act[(run[:, act] < eps2).any(axis=0)]

            # gap-set endpoints, for the directions still below eps_max at some
            # T; the second direction only where it can still lower the minimum
            for side, (centers, others) in enumerate(((lo_b, hi_b), (hi_b, lo_b))):
                need = D[side] < eps2
                if side == 1:
                    need &= D[1] < D[0]
                rows = np.flatnonzero(need.any(axis=1))
                t_last = np.where(need[rows], T_list, -np.inf).max(axis=1)
                D[side, rows] = np.maximum(D[side, rows], _endpoint_max(
                    batch, E, own, n_ends, centers[rows], others[rows], t_last))

            # the live pairs move down in place, in (hi, lo) order as the blocks
            D = np.minimum(D[0], D[1])
            live = np.flatnonzero((D < eps2).any(axis=1))
            end = filled + len(live)
            lo[filled:end], hi[filled:end], dmin[filled:end] = lo_b[live], hi_b[live], D[live]
            filled = end
        yield _PairTable(lo=lo[:filled], hi=hi[:filled], dmin=dmin[:filled],
                         kd_pairs=kd_pairs, prefilter_pairs=P)


def _greedy_scan(n: int, lo: np.ndarray, hi: np.ndarray,
                 conflict: np.ndarray) -> np.ndarray:
    """Greedy mutual-exclusion scan in candidate order over the pairs lo < hi
    (sorted by hi) where ``conflict`` holds: a candidate is admitted when no
    admitted earlier candidate conflicts with it.  A pair's lo is decided
    before it is read, as the pairs run in hi order; they are read
    _PAIR_BLOCK at a time.  Returns the admitted indices."""
    admitted = [True] * n
    for s in range(0, len(lo), _PAIR_BLOCK):
        c = conflict[s:s + _PAIR_BLOCK]
        for a, b in zip(lo[s:s + _PAIR_BLOCK][c].tolist(),
                        hi[s:s + _PAIR_BLOCK][c].tolist()):
            if admitted[a]:
                admitted[b] = False
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
    admitted = _greedy_scan(len(candidates), table.lo, table.hi,
                            table.dmin[:, 0] < eps * eps)
    return candidates[admitted], int(len(admitted))


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
        for name in ("T_list", "eps_list", "delta_list"):
            values = tuple(float(v) for v in getattr(self, name))
            if not np.isfinite(values).all():
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, values)
        T = self.T_list
        if len(T) < 2 or list(T) != sorted(T) or T[0] < 0 or not T[-1] > 0:
            raise ValueError("T_list must have at least two entries, nonnegative, "
                             "increasing and ending above 0")
        for name in ("eps_list", "delta_list"):
            values = getattr(self, name)
            if not values or min(values) <= 0 or any(np.diff(values) > 0):
                raise ValueError(f"{name} must be nonempty, positive and nonincreasing")
        count = self.candidate_count
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError("candidate_count must be an integer, at least 1")
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
    shape = (len(cfg.delta_list), len(cfg.eps_list), len(cfg.T_list))
    S = np.empty(shape, dtype=int)          # separated-set counts
    conflicts = np.empty(shape, dtype=int)  # conflicting pairs of each cell
    work = {"passes": 0, "kd_pairs": [], "prefilter_pairs": []}
    tables = _pair_tables(batch, cfg.T_list, max(cfg.eps_list), cfg.delta_list)
    for d, table in enumerate(tables):
        work["passes"] += 1
        work["kd_pairs"].append(table.kd_pairs)
        work["prefilter_pairs"].append(table.prefilter_pairs)
        for e, eps in enumerate(cfg.eps_list):
            for k in range(len(cfg.T_list)):
                hit = table.dmin[:, k] < eps * eps
                S[d, e, k] = len(_greedy_scan(n, table.lo, table.hi, hit))
                conflicts[d, e, k] = hit.sum()
    work["conflict_pairs"] = conflicts.ravel().tolist()
    saturated = S >= n
    # one fit per (delta, eps) row of the table
    fits = {(eps, delta): _fit_rate(np.array(cfg.T_list), np.maximum(S[d, e], 1),
                                    saturated[d, e])
            for d, delta in enumerate(cfg.delta_list)
            for e, eps in enumerate(cfg.eps_list)}
    rates = {key: rate for key, (rate, _) in fits.items()}
    return EntropyEstimate(
        table=tuple(CellCount(T=cfg.T_list[k], eps=cfg.eps_list[e],
                              delta=cfg.delta_list[d], s_count=int(S[d, e, k]),
                              saturated=bool(saturated[d, e, k]))
                    for d, e, k in np.ndindex(shape)),
        rates=rates,
        h_tau_estimate=rates[(min(cfg.eps_list), min(cfg.delta_list))],
        lower_bound_only=any(lb for _, lb in fits.values()),
        diagnostics={
            "candidate_count": cfg.candidate_count,
            "dt_check": cfg.dt_check,
            "eta_est": eta,
            "saturated_cells": int(saturated.sum()),
            # cells whose count drops when eps shrinks (eps_list decreases)
            "eps_monotonicity_defects": int((np.diff(S, axis=1) < 0).sum()),
            "propagation": asdict(batch.stats),
            "separated": work,
        },
    )


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
