import numpy as np
import pytest

from impulseflow import (
    ImpulsiveSetSpec,
    LinearLevel,
    SystemSpec,
    VectorFieldSpec,
    build_fixture,
    hitting_continuity_probe,
    sample_impulsive_set,
    separation_report,
    transversality_margin,
)
from impulseflow.neighbors import min_distance
from dataclasses import replace

from oracles import continuity_probe_per_probe, min_cross_distance


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


class TestSeparation:
    def test_annulus_distance_two(self, annulus):
        rep = separation_report(annulus, 400)
        assert abs(rep.dist_D_ID - 2.0) < 0.01

    def test_prey_predator_plane_distance(self, prey_predator):
        rep = separation_report(prey_predator, 400)
        assert abs(rep.dist_D_ID - 1 / np.sqrt(3)) < 1e-3
        assert rep.xi_margin == 2 * np.pi  # the flow recedes from the image

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

    def test_annulus_margin_is_half_a_turn(self, annulus):
        # from (r, 0), r <= 1.5, the rotation reaches (-r, 0) on the image at
        # t = pi; for r > 1.5 that crossing misses the image's halfspace
        rep = separation_report(annulus, 400)
        assert abs(rep.xi_margin - np.pi) <= 1e-12

    @pytest.mark.parametrize("name", ["prey_predator", "doubling_suspension",
                                      "static_null", "tangent_degenerate"])
    def test_margin_capped_where_the_image_is_never_crossed(self, name):
        # on the doubling suspension the orbits leave the region first
        rep = separation_report(build_fixture(name), 400)
        assert rep.xi_margin == 2 * np.pi


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

    @pytest.mark.parametrize("name,dirs", [("annulus", 2), ("prey_predator", 4),
                                           ("doubling_suspension", 2),
                                           ("static_null", 2)])
    def test_batch_runs_equal_the_per_probe_loop(self, name, dirs):
        # check-hypotheses' probe point; on the doubling suspension both
        # probes at scale 0.1 leave the region before they hit: escaped.
        # The static field leaves every probe on the set, so both searches
        # run on empty batches
        sys_spec = build_fixture(name)
        x = sample_impulsive_set(sys_spec, "D", 3)[-1]
        scales = [10.0 ** (-k) for k in range(1, 6)]
        rows = hitting_continuity_probe(sys_spec, x, dirs, scales)
        want = continuity_probe_per_probe(sys_spec, x, dirs, scales)
        assert [r["escaped"] for r in rows] == [w["escaped"] for w in want]
        got, ref = (np.array([r["tau_star_max"] for r in t]) for t in (rows, want))
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.abs(got - ref)[~np.isnan(ref)].max() <= 1e-12
        if name == "doubling_suspension":
            assert rows[0]["escaped"] == 2

    def test_base_point_must_be_on_set(self, annulus):
        with pytest.raises(ValueError, match="not on the impulsive set"):
            hitting_continuity_probe(annulus, np.array([1.5, 0.5]), 2, [0.1])

    def test_scales_must_decrease(self, annulus):
        with pytest.raises(ValueError):
            hitting_continuity_probe(annulus, np.array([1.5, 0.0]), 2, [0.1, 0.2])

    @pytest.mark.parametrize("dirs", [0, -1, 2.5, True, None])
    def test_approach_dirs_must_be_a_positive_integer(self, annulus, dirs):
        with pytest.raises(ValueError, match="approach_dirs"):
            hitting_continuity_probe(annulus, np.array([1.5, 0.0]), dirs, [0.1])

    def test_dimension_above_three_rejected(self):
        # a rotation in the (x1, x2) plane of R^4, D the half-hyperplane x2 = 0
        # with x1 >= 1
        rotation = np.zeros((4, 4))
        rotation[0, 1], rotation[1, 0] = 1.0, -1.0
        d_set = ImpulsiveSetSpec(LinearLevel((0.0, 1.0, 0.0, 0.0)), 0.0,
                                 halfspaces=(((1.0, 0.0, 0.0, 0.0), 1.0),))
        sys4 = SystemSpec("rotation_4d", VectorFieldSpec(4, lambda x: x @ rotation),
                          (d_set,), (d_set,), impulse=lambda x, piece: x,
                          preimages=lambda p: [p],
                          region=lambda x: np.ones(len(x), dtype=bool))
        with pytest.raises(ValueError, match="dimension 2 or 3, not 4"):
            hitting_continuity_probe(sys4, np.array([1.5, 0.0, 0.0, 0.0]), 2, [0.1])

    @pytest.mark.parametrize("scales", [
        [0.1, 0.1], [0.0], [-0.1], [np.nan], [0.1, np.nan]])
    def test_scales_validation(self, annulus, scales):
        with pytest.raises(ValueError, match="scales"):
            hitting_continuity_probe(annulus, np.array([1.5, 0.0]), 2, scales)
