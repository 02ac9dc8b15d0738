import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulseflow import (
    EntropyConfig,
    ImpulsiveTrajectory,
    admissibility_check,
    build_fixture,
    candidate_cloud,
    entropy_estimate,
    gap_set,
    in_dynamical_ball,
    impulsive_trajectory_batch,
    max_separated_set,
)
from impulseflow.entropy import _gap_ends, _pair_tables
from oracles import (
    ball_conflicts,
    ball_distances,
    doubling_separated_count,
    exhaustive_max_separated,
    gap_intervals,
    greedy_count,
    packing_number,
)


def cylinder(theta, h=0.0):
    return np.array([np.cos(theta), np.sin(theta), h])


class TestGapSet:
    def test_no_hit_before_horizon(self):
        gs = gap_set(np.array([20.0]), 10.0, 0.5)
        assert gs.intervals == ((0.0, 10.0),)

    def test_two_windows(self):
        gs = gap_set(np.array([2.0, 5.0]), 10.0, 0.5)
        assert np.allclose(gs.intervals, [(0.0, 1.5), (2.5, 4.5), (5.5, 10.0)])

    def test_clipped_at_horizon(self):
        gs = gap_set(np.array([3.0]), 3.0, 0.5)
        assert np.allclose(gs.intervals, [(0.0, 2.5)])

    def test_degenerate_interval_kept(self):
        # horizon exactly at a window edge leaves a single-point interval
        gs = gap_set(np.array([2.0]), 2.5, 0.5)
        assert np.allclose(gs.intervals, [(0.0, 1.5), (2.5, 2.5)])

    def test_delta_bound_enforced(self):
        with pytest.raises(ValueError, match="eta/2"):
            gap_set(np.array([1.0, 2.0]), 5.0, 0.6)

    @settings(max_examples=60, deadline=None)
    @given(taus=st.lists(st.floats(0.5, 19.5), min_size=0, max_size=6),
           t=st.floats(1.0, 20.0), delta=st.floats(0.01, 0.2))
    def test_length_identity(self, taus, t, delta):
        # intervals are disjoint, ordered, and their total length equals t
        # minus the clipped deleted windows
        taus = np.sort(np.asarray(taus))
        if len(taus) >= 2 and np.diff(taus).min() < 2.5 * delta:
            return
        gs = gap_set(taus, t, delta)
        for (a1, b1), (a2, b2) in zip(gs.intervals, gs.intervals[1:]):
            assert b1 < a2
        removed = sum(
            max(0.0, min(tau + delta, t) - max(tau - delta, 0.0))
            for tau in taus)
        assert np.isclose(gs.total_length(), t - removed, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_equal_each_sequence(self, data):
        # the gap sets of many sequences at once, from their compressed rows,
        # are those of each sequence alone, and those of the hit-by-hit loop;
        # a delta above eta/2 names the first sequence that breaks it
        delta = data.draw(st.floats(0.05, 0.5), label="delta")
        t = data.draw(st.just(0.0) | st.floats(0.0, 10.0), label="t")
        seqs = []
        for _ in range(data.draw(st.integers(1, 6), label="rows")):
            # starts near 0, near t or anywhere; gaps mostly above 2 delta
            start = data.draw(st.floats(-0.6, 0.6) | st.floats(t - 0.6, t + 0.6)
                              | st.floats(-1.0, 11.0))
            gaps = data.draw(st.lists(st.floats(2.01, 30.0) | st.floats(0.0, 2.0),
                                      max_size=4))
            size = data.draw(st.integers(0, len(gaps) + 1))
            seqs.append((start + delta * np.cumsum([0.0, *gaps]))[:size])
        times = np.concatenate(seqs)
        offsets = np.cumsum([0] + [len(q) for q in seqs])
        try:
            want = [gap_set(q, t, delta).intervals for q in seqs]
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                _gap_ends(times, offsets, t, delta)
            return
        E, count = _gap_ends(times, offsets, t, delta)
        assert E.shape == (len(seqs), count.max())
        for q, row, c, w in zip(seqs, E, count, want):
            assert w == tuple(gap_intervals(q, t, delta))
            assert row[:c].tolist() == np.ravel(w).tolist()
            assert np.isinf(row[c:]).all()


class TestDynamicalBall:
    def test_reflexive(self, doubling):
        x = cylinder(0.3)
        assert in_dynamical_ball(doubling, x, x, 6.0, 0.05, 0.1, 0.05)

    def test_doubling_separation_time(self, doubling):
        # angular gap g doubles each unit of time; distinguishable once
        # 2^k g reaches eps, i.e. at horizon about log2(eps/g) + 1
        g = 0.01
        x, y = cylinder(1.0), cylinder(1.0 + g)
        flips = [in_dynamical_ball(doubling, x, y, float(T), 0.1, 0.1, 0.05)
                 for T in (2, 3, 4, 5, 6)]
        assert flips == [True, True, True, False, False]

    def test_annulus_phase_offset_inside_window(self, annulus):
        # orbits on the limit circle with angular offset below delta: the
        # trailing orbit jumps inside the leading orbit's excluded window, so
        # the distance stays at the chord of the offset
        dtheta = 0.05
        x = np.array([np.cos(3.5), np.sin(3.5)])
        y = np.array([np.cos(3.5 + dtheta), np.sin(3.5 + dtheta)])
        chord = 2 * np.sin(dtheta / 2)
        assert in_dynamical_ball(annulus, x, y, 20.0, chord * 1.5, 0.1, 0.05)
        assert not in_dynamical_ball(annulus, x, y, 20.0, chord * 0.9, 0.1, 0.05)

    def test_not_symmetric_in_general(self, prey_predator):
        # centers own the gap set: x jumps once and its window hides the
        # post-jump spike in distance, while the never-jumping y tests the
        # whole of [0, T]; some radius must then separate the two directions
        x = np.array([0.36, 0.34, 0.35])          # just above the lower plane
        y = x * (0.95 / x.sum())                  # below it: never hits
        asymmetric = False
        for eps in np.linspace(0.35, 0.75, 17):
            a = in_dynamical_ball(prey_predator, x, y, 1.2, eps, 0.2, 0.1)
            b = in_dynamical_ball(prey_predator, y, x, 1.2, eps, 0.2, 0.1)
            if a != b:
                asymmetric = True
                break
        assert asymmetric

    def test_dt_check_validation(self, doubling):
        with pytest.raises(ValueError, match="dt_check"):
            in_dynamical_ball(doubling, cylinder(0.1), cylinder(0.2),
                              4.0, 0.1, 0.1, 0.2)


class TestMaxSeparated:
    def test_single_point_when_eps_exceeds_diameter(self, doubling):
        C = np.stack([cylinder(th) for th in (0.0, 0.001, 0.002)])
        _, count = max_separated_set(doubling, C, 3.0, 10.0, 0.1, 0.05)
        assert count == 1

    @pytest.mark.parametrize("T", [2, 3, 4, 5])
    def test_doubling_grid_counts_match_oracle(self, doubling, T):
        n = 256
        ang = 2 * np.pi * np.arange(n) / n
        C = np.c_[np.cos(ang), np.sin(ang), np.zeros(n)]
        _, count = max_separated_set(doubling, C, float(T), 0.1, 0.1, 0.05)
        assert count == doubling_separated_count(n, T, 0.1)

    def test_growth_rate_near_log2(self, doubling):
        # 4096-point angular grid, horizons 2..8: the log-count slope tracks
        # the doubling rate (grid resolution saturates exactly at T = 8)
        n = 4096
        ang = 2 * np.pi * np.arange(n) / n
        C = np.c_[np.cos(ang), np.sin(ang), np.zeros(n)]
        trajs = impulsive_trajectory_batch(doubling, C, 8.0, 0.05)
        counts = []
        Ts = range(2, 9)
        for T in Ts:
            _, c = max_separated_set(doubling, C, float(T), 0.1, 0.1, 0.05,
                                     trajectories=trajs)
            counts.append(c)
            assert c == doubling_separated_count(n, T, 0.1)
        slope = np.polyfit(list(Ts), np.log(counts), 1)[0]
        assert abs(slope - np.log(2)) < 0.15

    def test_count_nonincreasing_in_eps(self, annulus, rng):
        C = candidate_cloud(annulus, 160, rng)
        trajs = impulsive_trajectory_batch(annulus, C, 12.0, 0.15)
        counts = [max_separated_set(annulus, C, 12.0, eps, 0.3, 0.15,
                                    trajectories=trajs)[1]
                  for eps in (0.4, 0.2, 0.1, 0.05)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_count_nondecreasing_in_candidates(self, annulus, rng):
        C = candidate_cloud(annulus, 200, rng)
        trajs = impulsive_trajectory_batch(annulus, C, 10.0, 0.15)
        c_small = max_separated_set(annulus, C[:100], 10.0, 0.1, 0.3, 0.15,
                                    trajectories=trajs[:100])[1]
        c_big = max_separated_set(annulus, C, 10.0, 0.1, 0.3, 0.15,
                                  trajectories=trajs)[1]
        assert c_big >= c_small

    def test_greedy_within_factor_two_of_exhaustive(self, annulus, rng):
        for _ in range(12):
            n = int(rng.integers(6, 14))
            C = candidate_cloud(annulus, n, rng)
            trajs = impulsive_trajectory_batch(annulus, C, 6.0, 0.15)
            _, g = max_separated_set(annulus, C, 6.0, 0.5, 0.3, 0.15,
                                     trajectories=trajs)
            ex = exhaustive_max_separated(annulus, C, 6.0, 0.5, 0.3, 0.15,
                                          trajectories=trajs)
            assert ex / 2 <= g <= ex

    def test_doubling_greedy_within_factor_two_of_exhaustive(self, doubling,
                                                             rng):
        for _ in range(12):
            n = int(rng.integers(6, 14))
            ang = rng.uniform(0.0, 2 * np.pi, n)
            C = np.c_[np.cos(ang), np.sin(ang), rng.uniform(0.0, 0.9, n)]
            T = float(rng.integers(2, 5))
            eps = float(rng.uniform(0.1, 0.8))
            trajs = impulsive_trajectory_batch(doubling, C, T, 0.05)
            _, g = max_separated_set(doubling, C, T, eps, 0.1, 0.05,
                                     trajectories=trajs)
            ex = exhaustive_max_separated(doubling, C, T, eps, 0.1, 0.05,
                                          trajectories=trajs)
            assert ex / 2 <= g <= ex

    def test_time_zero_equals_packing_number(self, annulus, rng):
        # with first hits clear of the window, the horizon-zero ball is the
        # plain eps-ball at time zero, so the exhaustive maximum must equal
        # the pure-geometry packing number
        for _ in range(8):
            n = int(rng.integers(5, 12))
            C = candidate_cloud(annulus, n, rng)
            ang = np.mod(np.arctan2(C[:, 1], C[:, 0]), 2 * np.pi)
            C = C[ang < 2 * np.pi - 0.35]
            if len(C) < 2:
                continue
            eps = float(rng.uniform(0.3, 1.0))
            trajs = impulsive_trajectory_batch(annulus, C, 1.0, 0.15)
            ex = exhaustive_max_separated(annulus, C, 0.0, eps, 0.3, 0.15,
                                          trajectories=trajs)
            assert ex == packing_number(C, eps)


def _small_cloud(sys_spec, n, rng):
    if sys_spec.name == "doubling_suspension":
        # staggered heights, so that the hit windows differ between members;
        # the first third starts on the base circle and hits at integer times
        ang = rng.uniform(0.0, 2 * np.pi, n)
        z = np.where(np.arange(n) < n // 3, 0.0, rng.uniform(0.0, 0.9, n))
        return np.c_[np.cos(ang), np.sin(ang), z]
    return candidate_cloud(sys_spec, n, rng)


class TestConflictPass:
    # T = 0 everywhere, and T between grid samples (2.5, 0.27, 1.17, 1.92),
    # where the check at T itself can set the distance; on the doubling
    # suspension T = 2 falls on a hit and T = 3.05 inside the window
    # (2.9, 3.1) of the members starting on the base circle
    CASES = [
        ("annulus", (0.0, 2.5, 6.0, 9.0), (0.6, 0.3, 0.1), (0.3, 0.15)),
        ("doubling", (0.0, 0.27, 2.0, 3.05, 4.5), (0.5, 0.2, 0.1),
         (0.3, 0.1)),
        ("prey_predator", (0.0, 1.17, 1.92, 5.0), (0.6, 0.3, 0.1),
         (0.1, 0.05)),
    ]

    @pytest.mark.parametrize("name,T_list,eps_list,delta_list", CASES)
    def test_conflicts_equal_pairwise_predicate(self, request, name, T_list,
                                                eps_list, delta_list):
        sys_spec = request.getfixturevalue(name)
        C = _small_cloud(sys_spec, 36, np.random.default_rng(11))
        dt = min(delta_list) / 2
        trajs = impulsive_trajectory_batch(sys_spec, C, max(T_list), dt)
        tables = _pair_tables(trajs, T_list, max(eps_list), delta_list)
        n_conflicts = 0
        for delta, table in zip(delta_list, tables):
            for k, T in enumerate(T_list):
                want = ball_distances(trajs, T, delta)
                got = dict(zip(zip(table.lo.tolist(), table.hi.tolist()),
                               table.dmin[:, k].tolist()))
                # the table holds the exact value of every pair that can
                # conflict at some eps up to max(eps_list)
                cut = max(eps_list) ** 2
                assert ({p: d for p, d in got.items() if d < cut}
                        == {p: d for p, d in want.items() if d < cut}), (delta, T)
                for eps in eps_list:
                    conflicts = {p for p, d in got.items() if d < eps * eps}
                    assert conflicts == {p for p, d in want.items()
                                         if d < eps * eps}, (delta, T, eps)
                    n_conflicts += len(conflicts)
        assert n_conflicts > 0
        T, eps, delta = T_list[2], eps_list[1], delta_list[0]
        _, count = max_separated_set(sys_spec, C, T, eps, delta, dt,
                                     trajectories=trajs)
        assert count == greedy_count(len(C),
                                     ball_conflicts(trajs, T, eps, delta))

    def test_pairs_that_separate_leave_the_pass(self, doubling):
        # a narrow arc at nearly equal heights: every pair is close before the
        # first horizon, and the doubling then separates most of them; a pair
        # leaves the grid pass once both of its running maxima reach
        # eps_max**2, its later entries left at inf, yet every entry below
        # eps_max**2 is the pair-by-pair value
        rng = np.random.default_rng(5)
        ang = rng.uniform(0.0, 0.1, 36)
        C = np.c_[np.cos(ang), np.sin(ang), rng.uniform(0.0, 0.15, 36)]
        T_list, eps_list, delta = (0.8, 1.9, 3.1, 4.2, 5.3), (0.3, 0.1), 0.1
        trajs = impulsive_trajectory_batch(doubling, C, max(T_list), delta / 2)
        table = next(_pair_tables(trajs, T_list, max(eps_list), (delta,)))
        assert table.prefilter_pairs == len(table.lo) == 36 * 35 // 2
        assert (table.dmin[:, -1] == np.inf).mean() > 0.5
        cut = max(eps_list) ** 2
        for k, T in enumerate(T_list):
            got = dict(zip(zip(table.lo.tolist(), table.hi.tolist()),
                           table.dmin[:, k].tolist()))
            want = ball_distances(trajs, T, delta)
            assert ({p: d for p, d in got.items() if d < cut}
                    == {p: d for p, d in want.items() if d < cut}), T
            assert all(want[p] >= cut for p, d in got.items() if d == np.inf)

    def test_separated_counters(self, annulus):
        cfg = EntropyConfig(T_list=(5.0, 10.0, 15.0), eps_list=(0.2, 0.1),
                            delta_list=(0.3, 0.15), candidate_count=200, seed=4)
        work = entropy_estimate(annulus, cfg).diagnostics["separated"]
        assert entropy_estimate(annulus, cfg).diagnostics["separated"] == work
        assert work["passes"] == 2
        # table order: delta, then eps, then T
        conflicts = np.reshape(work["conflict_pairs"], (2, 2, 3))
        assert conflicts.max() > 0
        assert (np.diff(conflicts, axis=2) <= 0).all()
        assert (np.diff(conflicts, axis=1) <= 0).all()
        for kd, kept, per_delta in zip(work["kd_pairs"],
                                       work["prefilter_pairs"], conflicts):
            assert kd >= kept >= per_delta.max()


class TestEntropyEstimate:
    def test_static_fixture_zero_rate(self):
        static = build_fixture("static_null")
        est = entropy_estimate(static, EntropyConfig(
            T_list=(1.0, 2.0, 3.0, 4.0), eps_list=(0.1,), delta_list=(0.05,),
            candidate_count=128, seed=3))
        counts = [r.s_count for r in est.table]
        assert len(set(counts)) == 1
        assert abs(est.h_tau_estimate) < 1e-9
        assert est.diagnostics["eps_monotonicity_defects"] == 0

    def test_doubling_small_scale(self, doubling):
        est = entropy_estimate(doubling, EntropyConfig(
            T_list=(2, 3, 4, 5, 6), eps_list=(0.1,), delta_list=(0.1,),
            candidate_count=512, seed=0))
        for row in est.table:
            assert row.s_count == doubling_separated_count(512, int(row.T), 0.1)
        # every orbit hits at t = 1, ..., 6, the last one on the horizon
        work = est.diagnostics["propagation"]
        assert work["hits"] == 512 * 6
        assert work["discarded_crossings"] == 0
        assert work["steps"] > 0 and work["root_passes"] > 0

    def test_no_per_orbit_object_or_evaluation(self, annulus, monkeypatch):
        # the pair pass and the admissibility check read the batch's arrays
        def per_orbit(*args, **kwargs):
            raise AssertionError("per-orbit call")
        monkeypatch.setattr(ImpulsiveTrajectory, "__init__", per_orbit)
        monkeypatch.setattr(ImpulsiveTrajectory, "evaluate", per_orbit)
        cfg = EntropyConfig(T_list=(4.0, 6.0, 8.0, 10.0), eps_list=(0.2, 0.1),
                            delta_list=(0.3,), candidate_count=64, seed=2)
        assert entropy_estimate(annulus, cfg).diagnostics["separated"]["passes"] == 1
        samples = candidate_cloud(annulus, 6, np.random.default_rng(2))
        assert admissibility_check(annulus, samples, 10.0, n_triples=20).n_triples > 0

    def test_two_horizon_fit_uses_both(self, annulus):
        # equal counts at both horizons: the rate is 0, fitted through two
        # points rather than through the upper one alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = entropy_estimate(annulus, EntropyConfig(
                T_list=(5.0, 10.0), eps_list=(0.1,), delta_list=(0.3,),
                candidate_count=64, seed=2))
        assert [r.s_count for r in est.table] == [53, 53]
        assert abs(est.h_tau_estimate) < 1e-12 and not est.lower_bound_only

    def test_repeated_entry_gives_the_single_rate(self, doubling):
        # each (eps, delta) row is fitted on its own, never pooled with a
        # repeated entry's row
        base = dict(T_list=(2, 3, 4, 5), delta_list=(0.1,), candidate_count=256)
        single = entropy_estimate(doubling, EntropyConfig(eps_list=(0.1,), **base))
        twice = entropy_estimate(doubling, EntropyConfig(eps_list=(0.1, 0.1), **base))
        assert twice.rates == single.rates
        assert twice.h_tau_estimate == single.h_tau_estimate
        assert twice.table == single.table * 2

    def test_config_validation(self):
        base = dict(T_list=(1.0, 2.0), eps_list=(0.1,), delta_list=(0.1,))
        # each bad input is rejected up front, naming its field
        for field, value in (("T_list", (3.0, 2.0)), ("eps_list", (0.1, 0.2)),
                             ("dt_check", 0.2), ("candidate_count", 0),
                             ("eps_list", (-0.1,)), ("eps_list", (0.0,)),
                             ("eps_list", ()), ("delta_list", (0.0,)),
                             ("dt_check", -0.1), ("T_list", (-1.0, 2.0)),
                             ("T_list", (0.0, 0.0))):
            with pytest.raises(ValueError, match=field):
                EntropyConfig(**{**base, field: value})

    def test_delta_against_gap_bound(self, doubling):
        with pytest.raises(ValueError, match="gap bound"):
            entropy_estimate(doubling, EntropyConfig(
                T_list=(2, 3), eps_list=(0.1,), delta_list=(0.6,),
                candidate_count=32))


class TestAdmissibility:
    def test_annulus_gap_is_pi(self, annulus, rng):
        samples = candidate_cloud(annulus, 12, rng)
        rep = admissibility_check(annulus, samples, 25.0, n_triples=120, seed=5)
        assert abs(rep.eta_est - np.pi) < 1e-6
        assert rep.shift_violations == 0
        assert rep.max_deviation < 1e-6

    def test_doubling_gap_is_one(self, doubling):
        ang = 2 * np.pi * np.arange(10) / 10
        samples = np.c_[np.cos(ang), np.sin(ang), np.zeros(10)]
        rep = admissibility_check(doubling, samples, 12.0, n_triples=100, seed=5)
        assert abs(rep.eta_est - 1.0) < 1e-9
        assert rep.shift_violations == 0

    def test_prey_predator_positive_gap(self, prey_predator, rng):
        samples = candidate_cloud(prey_predator, 10, rng)
        rep = admissibility_check(prey_predator, samples, 20.0, n_triples=80, seed=5)
        assert rep.eta_est > 0.3
        assert rep.shift_violations == 0
