"""Growth-rate entropy estimation for impulsive semiflows.

Orbit proximity is only tested on the complement of small windows around each
hit time (the gap set), which makes the notion robust to the jump
discontinuities.  The estimator builds maximal separated sets greedily over a
candidate cloud and regresses log counts against the time horizon.

Counts are exact lower bounds for the separated-set supremum over the cloud;
candidate exhaustion (the greedy admitting the whole cloud) is flagged and
saturated cells are excluded from the growth fit, since they carry no growth
information.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from .flow_core import IntegratorConfig
from .impulsive_system import (
    ImpulsiveTrajectory,
    RunStats,
    SystemSpec,
    hit_times_batch,
    impulsive_trajectory_batch,
)
from .systems import candidate_cloud

__all__ = [
    "AdmissibleTimes",
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

# Orbits per shared integration.  The shared step depends on which orbits
# share it, so a cloud is split at this fixed constant and never by machine
# or worker count; every cloud in use (up to the default 4096 candidates)
# runs as one batch.  The chunk bounds only the per-step temporaries
# (O(chunk x dim) states, stages and levels), not sample memory: each
# returned trajectory keeps a view into its batch's sample array.
_TRAJ_CHUNK = 8192


@dataclass(frozen=True)
class AdmissibleTimes:
    """Hit-time sequences of a family of base points, with the uniform lower
    bound on consecutive gaps over the whole family."""

    times: tuple
    eta: float
    horizon: float

    @staticmethod
    def from_trajectories(trajs) -> "AdmissibleTimes":
        seqs = tuple(np.asarray(tr.impulse_times, dtype=float) for tr in trajs)
        gaps = [np.diff(s) for s in seqs if len(s) >= 2]
        eta = float(min((g.min() for g in gaps if len(g)), default=np.inf))
        horizon = max(tr.horizon for tr in trajs)
        return AdmissibleTimes(times=seqs, eta=eta, horizon=horizon)


@dataclass(frozen=True)
class GapSet:
    """[0, t] with an open window of width 2*delta removed around each hit
    time, kept as ordered disjoint closed intervals (possibly degenerate)."""

    intervals: tuple
    t: float
    delta: float

    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def contains(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        ok = np.zeros(len(s), dtype=bool)
        for a, b in self.intervals:
            ok |= (s >= a) & (s <= b)
        return ok


def gap_set(times: np.ndarray, t: float, delta: float,
            eta: float | None = None) -> GapSet:
    """Remove the open windows (tau - delta, tau + delta) from [0, t].

    ``times`` is one base point's increasing hit-time sequence.  delta must
    stay below half the minimal gap (pass the family bound as ``eta`` or let
    it be measured from the sequence itself); a hit-free sequence leaves the
    whole of [0, t].
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if delta <= 0:
        raise ValueError("delta must be positive")
    times = np.sort(np.asarray(times, dtype=float))
    if eta is None:
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


def _check_times(gs: GapSet, dt_check: float) -> np.ndarray:
    """Interval endpoints plus the global dt_check grid points inside each
    interval."""
    pieces = [np.asarray([a for a, _ in gs.intervals]),
              np.asarray([b for _, b in gs.intervals])]
    for a, b in gs.intervals:
        k0 = int(np.ceil(a / dt_check - 1e-9))
        k1 = int(np.floor(b / dt_check + 1e-9))
        if k1 >= k0:
            pieces.append(dt_check * np.arange(k0, k1 + 1))
    times = np.unique(np.concatenate(pieces))
    return times


def in_dynamical_ball(sys: SystemSpec, x: np.ndarray, y: np.ndarray,
                      T: float, eps: float, delta: float, dt_check: float,
                      cfg: IntegratorConfig | None = None,
                      traj_x: ImpulsiveTrajectory | None = None,
                      traj_y: ImpulsiveTrajectory | None = None) -> bool:
    """Whether the orbit of y stays within eps of the orbit of x at every
    check time of x's gap set over [0, T].

    Check times are the endpoints of each gap-set interval plus the uniform
    dt_check grid inside it; dt_check <= delta/2 guarantees no interval is
    skipped.  The relation is reflexive but not symmetric: the gap set is the
    center's.
    """
    if dt_check > delta / 2:
        raise ValueError("dt_check must not exceed delta/2")
    cfg = cfg or IntegratorConfig()
    if traj_x is None or traj_y is None:
        tx, ty = impulsive_trajectory_batch(
            sys, np.vstack([x, y]), max(T, dt_check), dt_check, cfg)
        traj_x = traj_x or tx
        traj_y = traj_y or ty
    gs = gap_set(traj_x.impulse_times, T, delta)
    times = _check_times(gs, dt_check)
    dx = traj_x.evaluate(times)
    dy = traj_y.evaluate(times)
    dist = np.sqrt(np.sum((dx - dy) ** 2, axis=1))
    return bool((dist < eps).all())


# --------------------------------------------------------------------------
# Separated sets
# --------------------------------------------------------------------------

class _OrbitCache:
    """Shared per-cell data: orbit samples on the global grid, gap masks, and
    interval endpoints per candidate."""

    def __init__(self, trajs, T, delta, dt_check):
        if trajs[0].horizon < T - 1e-9:
            raise ValueError("trajectories are shorter than the ball horizon")
        self.trajs = trajs
        self.T = T
        self.delta = delta
        self.dt = dt_check
        grid = trajs[0].sample_times
        keep = grid <= T + 1e-12
        self.grid = grid[keep]
        self.orbits = np.stack([tr.sample_states[: len(self.grid)] for tr in trajs])
        n, m = len(trajs), len(self.grid)
        self.mask = np.ones((n, m), dtype=bool)
        self.gap_sets = []
        for i, tr in enumerate(trajs):
            gs = gap_set(tr.impulse_times, T, delta)
            self.gap_sets.append(gs)
            for tau in tr.impulse_times:
                if tau - delta > T:
                    break
                lo = np.searchsorted(self.grid, tau - delta, side="right")
                hi = np.searchsorted(self.grid, tau + delta, side="left")
                self.mask[i, lo:hi] = False

    def endpoints(self, i: int) -> np.ndarray:
        gs = self.gap_sets[i]
        out = np.empty(2 * len(gs.intervals))
        out[0::2] = [a for a, _ in gs.intervals]
        out[1::2] = [b for _, b in gs.intervals]
        return out

    def eval_at(self, j: int, times: np.ndarray) -> np.ndarray:
        return self.trajs[j].evaluate(times)

    def pair_in_ball(self, center: int, other: int, eps: float) -> bool:
        """Full ball predicate for one ordered pair: grid times inside the
        center's gap set plus its interval endpoints."""
        mask = self.mask[center]
        diff = self.orbits[other, mask] - self.orbits[center, mask]
        if (np.einsum("td,td->t", diff, diff) >= eps * eps).any():
            return False
        tt = self.endpoints(center)
        a = self.eval_at(center, tt)
        b = self.eval_at(other, tt)
        return bool((np.sum((a - b) ** 2, axis=1) < eps * eps).all())


def _greedy_separated(cache: _OrbitCache, eps: float) -> np.ndarray:
    """Greedy mutual-exclusion scan in candidate order; returns admitted
    indices."""
    n, m = cache.orbits.shape[:2]
    orb = cache.orbits
    mask = cache.mask
    # probe columns for the cheap prefilter, spread over the grid
    probe_idx = np.unique((np.array([0.93, 0.65, 0.37, 0.11]) * (m - 1)).astype(int))
    admitted: list[int] = []
    adm_orb = np.empty((n, m, orb.shape[2]))
    adm_mask = np.empty((n, m), dtype=bool)
    eps2 = eps * eps
    for j in range(n):
        if admitted:
            A = len(admitted)
            d2p = np.sum(
                (adm_orb[:A, probe_idx] - orb[j, probe_idx]) ** 2, axis=2)
            far = d2p >= eps2
            # pair excluded on the probes only if far at a time valid for the
            # admitted center AND far at a time valid for candidate j
            viol_a = (far & adm_mask[:A, probe_idx]).any(axis=1)
            viol_j = (far & mask[j, probe_idx]).any(axis=1)
            alive = np.flatnonzero(~(viol_a & viol_j))
            blocked = False
            for k in alive:
                a = admitted[k]
                if cache.pair_in_ball(a, j, eps) or cache.pair_in_ball(j, a, eps):
                    blocked = True
                    break
            if blocked:
                continue
        adm_orb[len(admitted)] = orb[j]
        adm_mask[len(admitted)] = mask[j]
        admitted.append(j)
    return np.array(admitted, dtype=int)


def max_separated_set(sys: SystemSpec, candidates: np.ndarray, T: float,
                      eps: float, delta: float, dt_check: float,
                      cfg: IntegratorConfig | None = None,
                      trajectories=None):
    """Greedy maximal separated subset of the candidates.

    Candidates are scanned in their given order; one is admitted when it is
    not in the ball of any admitted point and no admitted point is in its
    ball.  The count is a lower bound for the separated-set supremum over the
    candidate cloud.
    """
    if dt_check > delta / 2:
        raise ValueError("dt_check must not exceed delta/2")
    cfg = cfg or IntegratorConfig()
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if trajectories is None:
        trajectories = impulsive_trajectory_batch(
            sys, candidates, max(T, dt_check), dt_check, cfg)
    cache = _OrbitCache(trajectories, T, delta, dt_check)
    admitted = _greedy_separated(cache, eps)
    return candidates[admitted], int(len(admitted))


def exhaustive_max_separated(sys: SystemSpec, candidates: np.ndarray, T: float,
                             eps: float, delta: float, dt_check: float,
                             cfg: IntegratorConfig | None = None,
                             trajectories=None) -> int:
    """Exact separated-set maximum by exhaustive subset search; calibration
    oracle, practical for up to ~15 candidates."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    n = len(candidates)
    if n > 20:
        raise ValueError("exhaustive search is for small candidate sets")
    cfg = cfg or IntegratorConfig()
    if trajectories is None:
        trajectories = impulsive_trajectory_batch(
            sys, candidates, max(T, dt_check), dt_check, cfg)
    cache = _OrbitCache(trajectories, T, delta, dt_check)
    conflict = np.zeros(n, dtype=np.int64)
    for i, j in combinations(range(n), 2):
        if cache.pair_in_ball(i, j, eps) or cache.pair_in_ball(j, i, eps):
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
        if list(self.T_list) != sorted(self.T_list) or len(self.T_list) < 2:
            raise ValueError("T_list must be increasing with at least two entries")
        if any(np.diff(self.eps_list) > 0):
            raise ValueError("eps_list must be nonincreasing")
        if any(np.diff(self.delta_list) > 0):
            raise ValueError("delta_list must be nonincreasing")
        if self.dt_check is None:
            object.__setattr__(self, "dt_check", min(self.delta_list) / 2)
        if self.dt_check > min(self.delta_list) / 2:
            raise ValueError("dt_check must not exceed min(delta)/2")


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

    Without saturation the fit uses the upper half of the horizons, standing
    in for the large-T limit.  Saturated cells are dropped (they are lower
    bounds with no growth signal); the fit then uses every remaining cell.
    """
    if saturated.any():
        keep = ~saturated
        lower_bound = True
        if keep.sum() < 2:
            return 0.0, True
        Ts, counts = Ts[keep], counts[keep]
    else:
        lower_bound = False
        half = len(Ts) // 2
        Ts, counts = Ts[half:], counts[half:]
    y = np.log(counts.astype(float))
    slope = np.polyfit(Ts, y, 1)[0]
    return float(slope), lower_bound


def entropy_estimate(sys: SystemSpec, cfg: EntropyConfig,
                     integrator: IntegratorConfig | None = None) -> EntropyEstimate:
    """Separated-set growth table and fitted rates over a candidate cloud.

    The headline estimate is the rate at the smallest radius and smallest
    window width.  Diagnostics record the measured gap bound, saturation,
    monotonicity defects of the table, and the propagation work counters.
    """
    integrator = integrator or IntegratorConfig()
    rng = np.random.default_rng(cfg.seed)
    candidates = candidate_cloud(sys, cfg.candidate_count, rng)
    T_max = max(cfg.T_list)
    stats = RunStats()
    trajs = _build_trajectories(sys, candidates, T_max, cfg.dt_check,
                                integrator, stats)
    adm = AdmissibleTimes.from_trajectories(trajs)
    if not max(cfg.delta_list) < adm.eta / 2:
        raise ValueError(
            f"max delta {max(cfg.delta_list)} violates the gap bound "
            f"eta/2 = {adm.eta / 2:.6g}"
        )
    rows = []
    for delta in cfg.delta_list:
        for eps in cfg.eps_list:
            for T in cfg.T_list:
                cache = _OrbitCache(trajs, T, delta, cfg.dt_check)
                admitted = _greedy_separated(cache, eps)
                s = len(admitted)
                rows.append(CellCount(T=T, eps=eps, delta=delta, s_count=s,
                                      saturated=s >= len(candidates)))
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
            "eta_est": adm.eta,
            "saturated_cells": int(sum(r.saturated for r in rows)),
            "eps_monotonicity_defects": mono_defects,
            "propagation": asdict(stats),
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


def _build_trajectories(sys, candidates, T, dt, integrator, stats):
    return [tr for i in range(0, len(candidates), _TRAJ_CHUNK)
            for tr in impulsive_trajectory_batch(
                sys, candidates[i:i + _TRAJ_CHUNK], T, dt, integrator, stats=stats)]


# --------------------------------------------------------------------------
# Admissibility
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    eta_est: float
    shift_violations: int
    n_triples: int
    max_deviation: float


def admissibility_check(sys: SystemSpec, samples: np.ndarray, horizon: float,
                        n_triples: int = 500, seed: int = 0,
                        cfg: IntegratorConfig | None = None,
                        tol: float = 1e-6) -> AdmissibilityReport:
    """Measure the uniform gap bound and test the time-shift identity of the
    hit times.

    For sampled (x, t, k) with t strictly inside the k-th inter-hit window of
    x, the hit sequence of the time-t state must be the tail of x's sequence
    shifted by t.  Deviations above tol count as violations.
    """
    cfg = cfg or IntegratorConfig()
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    dt = max(horizon / 2048, 1e-3)
    trajs = impulsive_trajectory_batch(sys, samples, horizon, dt, cfg)
    adm = AdmissibleTimes.from_trajectories(trajs)

    rng = np.random.default_rng(seed)
    usable = [i for i, tr in enumerate(trajs) if tr.n_impulses >= 1]
    violations = 0
    max_dev = 0.0
    done = 0
    if usable:
        # batch: pick (trajectory, window, offset) triples, evaluate the
        # semiflow at the offsets, then recompute hit times from there
        idx = rng.choice(usable, size=n_triples)
        t_eval = np.empty(n_triples)
        expect: list[np.ndarray] = []
        for row, i in enumerate(idx):
            taus = trajs[i].impulse_times
            k = int(rng.integers(0, len(taus)))
            lo = taus[k - 1] if k > 0 else 0.0
            hi = taus[k]
            t = lo + (hi - lo) * rng.uniform(0.1, 0.9)
            t_eval[row] = t
            expect.append(taus[k:] - t)
        starts = np.stack([trajs[i].evaluate(t) for i, t in zip(idx, t_eval)])
        rem = np.array([trajs[i].horizon - t for i, t in zip(idx, t_eval)])
        shifted = hit_times_batch(sys, starts, rem, cfg)
        for row in range(n_triples):
            got = shifted[row]
            want = expect[row]
            kk = min(len(got), len(want), 3)
            if kk == 0:
                continue
            dev = float(np.abs(np.asarray(got[:kk]) - want[:kk]).max())
            max_dev = max(max_dev, dev)
            done += 1
            if dev > tol:
                violations += 1
    return AdmissibilityReport(
        eta_est=adm.eta,
        shift_violations=violations,
        n_triples=done,
        max_deviation=max_dev,
    )
