import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulseflow import (
    build_fixture,
    candidate_cloud,
    equivalence_class,
    metric_axiom_audit,
    quotient_distance,
    representative_pair,
    sample_impulsive_set,
)
from conftest import polar


class TestEquivalenceClass:
    def test_interior_point_is_singleton(self, annulus):
        c = equivalence_class(annulus, polar(1.5, np.pi / 2))
        assert len(c) == 1

    def test_set_point_pairs_with_image(self, annulus):
        c = equivalence_class(annulus, np.array([1.0, 0.0]))
        got = sorted(map(tuple, c.members.tolist()))
        assert got == [(-1.0, 0.0), (1.0, 0.0)]

    def test_point_within_class_tolerance_of_the_set(self, annulus):
        # 1.5e-9 off the segment: outside the set's own 1e-9 membership
        # tolerance, inside the 1e-7 tolerance that classes are built with
        x = polar(1.5, 1e-9)
        c = equivalence_class(annulus, x)
        assert np.array_equal(c.members[0], x)
        assert np.allclose(c.members[1], [-1.25, 0.0])

    def test_image_point_pairs_with_preimage(self, annulus):
        c = equivalence_class(annulus, np.array([-1.25, 0.0]))
        got = sorted(map(tuple, c.members.tolist()))
        assert got == [(-1.25, 0.0), (1.5, 0.0)]

    def test_idempotent(self, annulus):
        for x in (np.array([1.0, 0.0]), np.array([-1.25, 0.0]), polar(1.3, 2.0)):
            c = equivalence_class(annulus, x)
            for m in c.members:
                c2 = equivalence_class(annulus, m)
                a = sorted(map(tuple, np.round(c.members, 10).tolist()))
                b = sorted(map(tuple, np.round(c2.members, 10).tolist()))
                assert a == b

    def test_doubling_image_point_has_three_members(self, doubling):
        x = np.array([np.cos(0.4), np.sin(0.4), 0.0])
        c = equivalence_class(doubling, x)
        assert len(c) == 3  # the point plus both angle-halving preimages

    def test_outside_region_rejected(self, annulus):
        with pytest.raises(ValueError):
            equivalence_class(annulus, np.array([5.0, 5.0]))


class TestQuotientDistance:
    def test_same_class_zero(self, annulus):
        a = equivalence_class(annulus, np.array([1.0, 0.0]))
        assert quotient_distance(a, a) == 0.0

    def test_worked_example(self, annulus):
        a = equivalence_class(annulus, np.array([1.0, 0.0]))
        b = equivalence_class(annulus, np.array([-1.25, 0.0]))
        assert abs(quotient_distance(a, b) - 0.25) <= 1e-9
        # all four representative distances
        d = sorted(np.linalg.norm(p - q) for p in a.members for q in b.members)
        assert np.allclose(d, [0.25, 0.5, 2.25, 2.5])

    def test_singletons_reduce_to_euclidean(self, annulus):
        p, q = polar(1.5, 1.0), polar(1.2, 2.0)
        a, b = equivalence_class(annulus, p), equivalence_class(annulus, q)
        assert np.isclose(quotient_distance(a, b), np.linalg.norm(p - q))

    def test_shared_member_forces_zero(self, prey_predator):
        x = np.array([0.4, 0.35, 0.25])
        a = equivalence_class(prey_predator, x)      # on the lower plane
        b = equivalence_class(prey_predator, 2 * x)  # its image
        assert quotient_distance(a, b) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(r1=st.floats(1.05, 1.95), t1=st.floats(0, 6.28),
           r2=st.floats(1.05, 1.95), t2=st.floats(0, 6.28))
    def test_projection_is_one_lipschitz(self, r1, t1, r2, t2):
        annulus = build_fixture("annulus")
        x, y = polar(r1, t1), polar(r2, t2)
        a, b = equivalence_class(annulus, x), equivalence_class(annulus, y)
        assert quotient_distance(a, b) <= np.linalg.norm(x - y) + 1e-12


class TestRepresentativePair:
    def test_worked_example(self, annulus):
        a = equivalence_class(annulus, np.array([1.0, 0.0]))
        b = equivalence_class(annulus, np.array([-1.25, 0.0]))
        p, q = representative_pair(a, b)
        assert np.allclose(p, [-1.0, 0.0])
        assert np.allclose(q, [-1.25, 0.0])

    def test_distance_matches_exactly(self, annulus, rng):
        pts = np.vstack([candidate_cloud(annulus, 10, rng),
                         [[1.0, 0.0], [-1.25, 0.0]]])
        classes = [equivalence_class(annulus, p) for p in pts]
        for i in range(len(classes)):
            for j in range(i, len(classes)):
                p, q = representative_pair(classes[i], classes[j])
                d = float(np.sqrt(np.sum((p - q) ** 2)))
                assert d == quotient_distance(classes[i], classes[j])

    def test_identical_singletons(self, annulus):
        a = equivalence_class(annulus, polar(1.4, 0.7))
        p, q = representative_pair(a, a)
        assert np.array_equal(p, q)


class TestMetricAudit:
    def test_random_annulus_points_pass(self, annulus, rng):
        pts = candidate_cloud(annulus, 200, rng)
        rep = metric_axiom_audit(annulus, pts)
        assert rep.passed
        assert rep.triangle_violations == 0
        assert rep.symmetry_violations == 0
        assert rep.identity_violations == 0

    def test_bridging_classes_surface_violations(self, annulus, rng):
        # classes of points on the impulsive set straddle the two far-apart
        # segments; together with nearby interior points they genuinely break
        # the triangle inequality, which the audit reports rather than hides
        pts = np.vstack([
            candidate_cloud(annulus, 60, rng),
            sample_impulsive_set(annulus, "D", 20),
            sample_impulsive_set(annulus, "ID", 20),
        ])
        rep = metric_axiom_audit(annulus, pts)
        assert rep.triangle_violations > 0
        assert rep.worst_triangle_excess > 0.5
        assert any(w["kind"] == "triangle" for w in rep.witnesses)

    def test_prey_predator_random_points_pass(self, prey_predator, rng):
        pts = candidate_cloud(prey_predator, 120, rng)
        rep = metric_axiom_audit(prey_predator, pts)
        assert rep.passed
