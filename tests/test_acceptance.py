"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 4 and 9 are
the long ones: 8.7-8.8 s and 4.8-5.6 s in two full-suite runs on a shared
2-vCPU machine, where criteria 5 and 2 took 3.0 s and 2.2 s and the rest less.
"""

import json
import time

import numpy as np
import pytest

from impulseflow import (
    EntropyConfig,
    GridPartition,
    admissibility_check,
    candidate_cloud,
    entropy_estimate,
    equivalence_class,
    hitting_continuity_probe,
    impulsive_trajectory,
    impulsive_trajectory_batch,
    max_separated_set,
    metric_axiom_audit,
    occupation_measure,
    pushforward_discrepancy,
    quotient_distance,
    transversality_margin,
)
from impulseflow.cli import main as cli_main
from conftest import polar
from oracles import arc_cell_weights, exhaustive_max_separated, packing_number


def report(criterion: str, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {criterion}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{criterion}: {detail}"


def test_01_annulus_return_map(annulus):
    t0 = time.time()
    traj = impulsive_trajectory(annulus, polar(1.5, np.pi / 2), 70.0, 0.05)
    n = np.arange(1, 21)
    radii = np.hypot(traj.post_impulse_states[:20, 0],
                     traj.post_impulse_states[:20, 1])
    radius_err = np.abs(radii - (1.0 + 0.5 / 2.0 ** n)).max()
    gap_err = np.abs(np.diff(traj.impulse_times) - np.pi).max()
    elapsed = time.time() - t0
    ok = (traj.n_impulses >= 20 and radius_err <= 1e-7
          and gap_err <= 1e-8 and elapsed < 1.0)
    report("criterion 1 (annulus return map)", ok,
           f"radius err {radius_err:.2e} <= 1e-7, gap err {gap_err:.2e} <= 1e-8,"
           f" runtime < 1 s", elapsed)


def test_02_invariance_at_desk_scale(annulus):
    t0 = time.time()
    grid = GridPartition(lo=(-2, -2), hi=(2, 2), bins=(40, 40))
    traj = impulsive_trajectory(annulus, polar(1.5, np.pi / 2), 1000.0, 0.005)
    mu = occupation_measure(traj, grid, burn_in=100.0)
    disc = pushforward_discrepancy(traj, grid, 1.0, burn_in=100.0)
    tv = 0.5 * np.abs(mu.weights - arc_cell_weights(40)).sum()
    elapsed = time.time() - t0
    ok = disc <= 0.02 and tv <= 0.05 and elapsed < 30.0
    report("criterion 2 (invariance at desk scale)", ok,
           f"discrepancy {disc:.4f} <= 0.02, TV {tv:.4f} <= 0.05, runtime < 30 s",
           elapsed)


def test_03_transversality_of_the_planes(prey_predator):
    t0 = time.time()
    rep_d = transversality_margin(prey_predator, "D", 1000)
    rep_id = transversality_margin(prey_predator, "ID", 1000)
    elapsed = time.time() - t0
    ok = (rep_d.sign_consistent and rep_id.sign_consistent
          and rep_d.common_sign == -1 and rep_id.common_sign == -1
          and rep_d.min_abs_inner > 1e-3 and rep_id.min_abs_inner > 1e-3
          and elapsed < 5.0)
    report("criterion 3 (plane transversality)", ok,
           f"sign-consistent negative, min |inner| D {rep_d.min_abs_inner:.3f},"
           f" image {rep_id.min_abs_inner:.3f} > 1e-3", elapsed)


def test_04_zero_entropy_control(annulus):
    t0 = time.time()
    est = entropy_estimate(annulus, EntropyConfig(
        T_list=(10.0, 20.0, 30.0, 40.0, 50.0, 60.0),
        eps_list=(0.2, 0.1, 0.05),
        delta_list=(0.3,),
        candidate_count=4096,
        seed=0,
    ))
    elapsed = time.time() - t0
    ok = est.h_tau_estimate <= 0.05 and elapsed < 300.0
    report("criterion 4 (zero-entropy control)", ok,
           f"h = {est.h_tau_estimate:.4f} <= 0.05, runtime < 5 min", elapsed)


def test_05_positive_entropy_check(doubling):
    t0 = time.time()
    est = entropy_estimate(doubling, EntropyConfig(
        T_list=tuple(float(T) for T in range(2, 11)),
        eps_list=(0.1,),
        delta_list=(0.1,),
        candidate_count=4096,
        seed=0,
    ))
    elapsed = time.time() - t0
    lo, hi = np.log(2) - 0.15, np.log(2) + 0.15
    ok = lo <= est.h_tau_estimate <= hi and elapsed < 600.0
    report("criterion 5 (positive-entropy check)", ok,
           f"h = {est.h_tau_estimate:.4f} in [log2 - 0.15, log2 + 0.15]"
           f" = [{lo:.4f}, {hi:.4f}], runtime < 10 min", elapsed)


def test_06_admissibility(annulus, prey_predator, doubling, rng):
    t0 = time.time()
    per = 167
    reps = {}
    for sys_spec in (annulus, prey_predator, doubling):
        samples = candidate_cloud(sys_spec, 12, rng)
        reps[sys_spec.name] = admissibility_check(
            sys_spec, samples, 25.0, n_triples=per, seed=1)
    elapsed = time.time() - t0
    total = sum(r.n_triples for r in reps.values())
    viols = sum(r.shift_violations for r in reps.values())
    ok = (abs(reps["annulus"].eta_est - np.pi) < 1e-6
          and abs(reps["doubling_suspension"].eta_est - 1.0) < 1e-9
          and reps["prey_predator"].eta_est > 0
          and total >= 500 and viols == 0)
    report("criterion 6 (admissibility)", ok,
           f"eta(annulus) = {reps['annulus'].eta_est:.6f} ~ pi,"
           f" eta(suspension) = {reps['doubling_suspension'].eta_est:.6f} = 1,"
           f" eta(prey_predator) = {reps['prey_predator'].eta_est:.3f} > 0,"
           f" {viols} violations over {total} triples at 1e-6", elapsed)


def test_07_hitting_time_continuity(annulus, prey_predator):
    t0 = time.time()
    scales = [10.0 ** (-k) for k in range(1, 7)]
    rows_a = hitting_continuity_probe(annulus, np.array([1.5, 0.0]), 2, scales)
    err = max(abs(r["tau_star_max"] - r["scale"]) for r in rows_a)
    rows_p = hitting_continuity_probe(
        prey_predator, np.array([0.4, 0.35, 0.25]), 4, scales)
    vals = [r["tau_star_max"] for r in rows_p]
    monotone = (all(np.isfinite(vals))
                and all(a > b for a, b in zip(vals, vals[1:]))
                and vals[-1] < 1e-4)
    elapsed = time.time() - t0
    ok = err <= 1e-8 and monotone
    report("criterion 7 (hitting-time continuity)", ok,
           f"annulus |tau* - scale| max {err:.2e} <= 1e-8;"
           f" prey-predator decays monotonically to {vals[-1]:.1e}", elapsed)


def test_08_quotient_metric(annulus, rng):
    t0 = time.time()
    pts = candidate_cloud(annulus, 200, rng)
    audit = metric_axiom_audit(annulus, pts, tol=1e-9)
    a = equivalence_class(annulus, np.array([1.0, 0.0]))
    b = equivalence_class(annulus, np.array([-1.25, 0.0]))
    d = quotient_distance(a, b)
    elapsed = time.time() - t0
    ok = (audit.symmetry_violations == 0 and audit.triangle_violations == 0
          and audit.identity_violations == 0 and abs(d - 0.25) <= 1e-9)
    report("criterion 8 (quotient metric)", ok,
           f"zero violations on 200 points; worked class distance"
           f" {d:.12f} = 0.25 +- 1e-9", elapsed)


def test_09_brute_force_equivalence(annulus):
    t0 = time.time()
    rng = np.random.default_rng(1234)
    worst = np.inf
    packing_checked = 0
    for trial in range(100):
        n = int(rng.integers(5, 16))
        C = candidate_cloud(annulus, n, rng)
        eps = float(rng.uniform(0.3, 1.2))
        trajs = impulsive_trajectory_batch(annulus, C, 6.0, 0.15)
        _, g = max_separated_set(annulus, C, 6.0, eps, 0.3, 0.15,
                                 trajectories=trajs)
        ex = exhaustive_max_separated(annulus, C, 6.0, eps, 0.3, 0.15,
                                      trajectories=trajs)
        assert ex / 2 <= g <= ex, f"trial {trial}: greedy {g} vs exhaustive {ex}"
        worst = min(worst, g / ex)
        # horizon-zero case: keep first hits clear of the window so the gap
        # set is the single time zero, then the exhaustive separated maximum
        # is the plain packing number
        ang = np.mod(np.arctan2(C[:, 1], C[:, 0]), 2 * np.pi)
        C0 = C[ang < 2 * np.pi - 0.35]
        if len(C0) >= 2:
            tr0 = trajs[np.flatnonzero(ang < 2 * np.pi - 0.35)]
            ex0 = exhaustive_max_separated(annulus, C0, 0.0, eps, 0.3, 0.15,
                                           trajectories=tr0)
            assert ex0 == packing_number(C0, eps), f"trial {trial}"
            packing_checked += 1
    elapsed = time.time() - t0
    ok = worst >= 0.5 and packing_checked >= 80
    report("criterion 9 (brute-force equivalence)", ok,
           f"100 trials: greedy/exhaustive >= {worst:.2f} (bound 1/2);"
           f" horizon-zero packing equality in {packing_checked} trials", elapsed)


def test_10_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": {"name": "doubling_suspension"},
        "seed": 7,
        "params": {"T_list": [2, 3, 4, 5], "eps_list": [0.1],
                   "delta_list": [0.1], "candidate_count": 512},
    }))
    blobs = []
    for sub, workers in (("a", 1), ("b", 6), ("c", 1)):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert cli_main(["entropy", "--config", str(cfg), "--out", "out",
                         "--workers", str(workers)]) == 0
        blobs.append({p.name: p.read_bytes()
                      for p in sorted((d / "out").iterdir())})
    elapsed = time.time() - t0
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 10 (determinism)", ok,
           "byte-identical CSV/JSON outputs across reruns and worker counts",
           elapsed)
