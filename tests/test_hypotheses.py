import numpy as np
import pytest

from impulseflow import (
    build_fixture,
    flow,
    hitting_continuity_probe,
    sample_impulsive_set,
    separation_report,
    transversality_margin,
)
from impulseflow.neighbors import min_distance, radius_pairs
from dataclasses import replace

from oracles import min_cross_distance


class TestTransversality:
    def test_annulus_passes_with_unit_margin(self, annulus):
        rep = transversality_margin(annulus, "D", 500)
        assert rep.passed
        assert np.isclose(rep.min_abs_inner, 1.0, atol=1e-12)
        rep = transversality_margin(annulus, "ID", 500)
        assert rep.passed

    def test_prey_predator_negative_and_clear(self, prey_predator):
        # inner product on the lower plane reduces to -(1 - 2 x1 x2)/(1+x1+x2),
        # minimized in magnitude at x1 = x2 = 1/2 where it equals -1/4
        rep = transversality_margin(prey_predator, "D", 1000)
        assert rep.passed and rep.common_sign == -1
        assert 0.24 < rep.min_abs_inner < 0.27
        rep_id = transversality_margin(prey_predator, "ID", 1000)
        assert rep_id.passed and rep_id.common_sign == -1
        assert 0.66 < rep_id.min_abs_inner < 0.70

    def test_tangent_circle_fails(self):
        tg = build_fixture("tangent_degenerate")
        rep = transversality_margin(tg, "D", 200)
        assert not rep.passed
        assert rep.min_abs_inner < 1e-12

    def test_margin_stable_under_doubling(self, annulus, prey_predator):
        for sys_spec in (annulus, prey_predator):
            for which in ("D", "ID"):
                a = transversality_margin(sys_spec, which, 500).min_abs_inner
                b = transversality_margin(sys_spec, which, 1000).min_abs_inner
                assert abs(a - b) <= 0.1 * max(a, b)

    def test_empty_sampling_rejected(self, annulus):
        with pytest.raises(ValueError):
            transversality_margin(annulus, "D", 0)


def _check_tube_against_brute_force(name):
    # the tube of 512 slices up to 2 pi from every third D sample: a slice is
    # blocked when its clearance from the image, by brute force, is within
    # 1e-3, and the margin ends before the first blocked slice
    sys_spec = build_fixture(name)
    d_samples = sample_impulsive_set(sys_spec, "D", 400)
    id_samples = sample_impulsive_set(sys_spec, "ID", 400)
    ts = 2 * np.pi * np.arange(1, 513) / 512
    tube = flow(sys_spec.field, d_samples[::3], ts)
    clearance = np.array([min_cross_distance(tube[:, k], id_samples)
                          for k in range(512)])
    close, _ = radius_pairs(tube.reshape(-1, tube.shape[-1]), 1e-3, id_samples)
    verdicts = np.zeros(512, dtype=bool)
    verdicts[close % 512] = True
    assert np.array_equal(verdicts, clearance <= 1e-3)
    blocked = np.flatnonzero(np.minimum.accumulate(clearance) <= 1e-3)
    if len(blocked) == 0:
        want = 2 * np.pi
    else:
        want = ts[blocked[0] - 1] if blocked[0] > 0 else 0.0
    assert separation_report(sys_spec, 400).xi_margin == want


class TestSeparation:
    def test_annulus_distance_two(self, annulus):
        rep = separation_report(annulus, 400)
        assert abs(rep.dist_D_ID - 2.0) < 0.01
        assert abs(rep.xi_margin - np.pi) < 0.05

    def test_prey_predator_plane_distance(self, prey_predator):
        rep = separation_report(prey_predator, 400)
        assert abs(rep.dist_D_ID - 1 / np.sqrt(3)) < 1e-3
        assert rep.xi_margin == 2 * np.pi  # tube recedes, search cap reached

    def test_coincident_sets_give_zero(self, annulus):
        broken = replace(annulus, image_sets=annulus.impulsive_sets)
        rep = separation_report(broken, 200)
        assert rep.dist_D_ID == 0.0

    def test_doubling_positive(self, doubling):
        rep = separation_report(doubling, 200)
        assert rep.dist_D_ID > 0.9

    @pytest.mark.parametrize("name", ["annulus", "prey_predator",
                                      "doubling_suspension"])
    def test_distance_equals_brute_force(self, name):
        sys_spec = build_fixture(name)
        rep = separation_report(sys_spec, 400)
        want = min_cross_distance(sample_impulsive_set(sys_spec, "D", 400),
                                  sample_impulsive_set(sys_spec, "ID", 400))
        assert rep.dist_D_ID == want

    def test_set_distance_on_tied_grids(self, rng):
        # on shifted grids many points tie for the nearest distance
        g = np.arange(-3.0, 4.0)
        grid = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
        for points in (grid + 0.5, grid + 1 / 3, grid * 0.1 + np.pi,
                       rng.normal(size=(50, 3))):
            assert min_distance(points, grid) == min_cross_distance(points, grid)

    @pytest.mark.parametrize("name", ["annulus", "prey_predator"])
    def test_xi_margin_equals_per_slice_brute_force(self, name):
        _check_tube_against_brute_force(name)

    @pytest.mark.parametrize("name", ["doubling_suspension", "static_null"])
    def test_tied_tube_equals_per_slice_brute_force(self, name):
        # every probe ties for its slice's nearest distance here (the flow
        # keeps them level, or still)
        _check_tube_against_brute_force(name)


class TestContinuityProbe:
    def test_annulus_probe_equals_scales(self, annulus):
        scales = [10.0 ** (-k) for k in range(1, 7)]
        rows = hitting_continuity_probe(annulus, np.array([1.5, 0.0]), 2, scales)
        for row, s in zip(rows, scales):
            assert row["escaped"] == 0
            assert abs(row["tau_star_max"] - s) < 1e-8

    def test_prey_predator_probe_decays(self, prey_predator):
        scales = [10.0 ** (-k) for k in range(1, 7)]
        x = np.array([0.4, 0.35, 0.25])
        rows = hitting_continuity_probe(prey_predator, x, 4, scales)
        vals = [r["tau_star_max"] for r in rows]
        assert all(np.isfinite(vals))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5

    def test_ratio_to_scale_bounded(self, annulus, prey_predator):
        scales = [10.0 ** (-k) for k in range(1, 6)]
        for sys_spec, x in ((annulus, np.array([1.5, 0.0])),
                            (prey_predator, np.array([0.4, 0.35, 0.25]))):
            rows = hitting_continuity_probe(sys_spec, x, 2, scales)
            for row in rows:
                assert row["tau_star_max"] / row["scale"] < 5.0

    def test_base_point_must_be_on_set(self, annulus):
        with pytest.raises(ValueError, match="not on the impulsive set"):
            hitting_continuity_probe(annulus, np.array([1.5, 0.5]), 2, [0.1])

    def test_scales_must_decrease(self, annulus):
        with pytest.raises(ValueError):
            hitting_continuity_probe(annulus, np.array([1.5, 0.0]), 2, [0.1, 0.2])
