from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulseflow import (
    build_fixture,
    candidate_cloud,
    equivalence_class,
    impulse_preimages,
    metric_axiom_audit,
    quotient_distance,
    representative_pair,
    sample_impulsive_set,
)
from impulseflow.quotient import _classes
from impulseflow.systems import fixture_names
from conftest import polar
from oracles import equivalence_class_reference, triangle_audit_reference


def _repeating_annulus():
    """The annulus with a preimage map that lists its one branch q three
    times, moved 0, 6e-10 and 1.2e-9 along x: all pass the forward check;
    the class merge drops the second, within 1e-9 of q, and keeps the third,
    within 1e-9 only of the dropped one."""
    def preimages(p):
        q = np.array([-2.0 * p[0] - 1.0, 0.0])
        return [q + np.array([dx, 0.0]) for dx in (0.0, 6e-10, 1.2e-9)]
    return replace(build_fixture("annulus"), name="annulus_repeat",
                   preimages=preimages)


SYSTEMS = {name: build_fixture(name) for name in fixture_names()}
SYSTEMS["annulus_repeat"] = _repeating_annulus()


def _pairwise_matrix(classes):
    n = len(classes)
    return np.array([[quotient_distance(a, b) for b in classes]
                     for a in classes]).reshape(n, n)


def _mixed_points(sys_spec, rng, n_cloud, n_set):
    return np.vstack([
        candidate_cloud(sys_spec, n_cloud, rng),
        sample_impulsive_set(sys_spec, "D", n_set),
        sample_impulsive_set(sys_spec, "ID", n_set),
    ])


def _pairwise_audit(sys_spec, points, tol=1e-9):
    """The metric audit computed pair by pair with quotient_distance, as a
    reference: (symmetry, identity, triangle) counts and the witnesses."""
    classes = [equivalence_class(sys_spec, p) for p in points]
    n = len(classes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = quotient_distance(classes[i], classes[j])
    sym = ident = 0
    witnesses = []
    for i in range(n):
        for j in range(i + 1, n):
            sym += quotient_distance(classes[j], classes[i]) != D[i, j]
            a, b = classes[i].members, classes[j].members
            meet = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2).min() <= 1e-18
            if (D[i, j] <= tol) != meet:
                ident += 1
                if len(witnesses) < 8:
                    witnesses.append({"kind": "identity", "i": i, "j": j,
                                      "distance": float(D[i, j])})
    excess = D - (D[:, :, None] + D[None, :, :]).min(axis=1)
    tri = int((excess > tol).sum()) // 2
    if tri and len(witnesses) < 8:
        i, j = np.argwhere(excess > tol)[0]
        witnesses.append({"kind": "triangle", "i": int(i), "j": int(j),
                          "excess": float(excess[i, j])})
    return (sym, ident, tri), tuple(witnesses)


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


class TestBatchedClasses:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(SYSTEMS)), seed=st.integers(0, 2**32 - 1),
           n_cloud=st.integers(0, 12), n_set=st.integers(1, 8),
           near=st.floats(0.0, 1e-7))
    def test_classes_match_the_per_point_reference(self, name, seed, n_cloud,
                                                   n_set, near):
        # cloud points, D and I(D) samples, and those samples moved by at
        # most ``near``: every member bit for bit, in the same order
        sys_spec = SYSTEMS[name]
        rng = np.random.default_rng(seed)
        on_set = np.vstack([sample_impulsive_set(sys_spec, which, n_set)
                            for which in ("D", "ID")])
        shift = rng.normal(size=on_set.shape)
        shift *= near * rng.uniform(size=(len(shift), 1)) / np.linalg.norm(
            shift, axis=1, keepdims=True)
        pts = np.vstack([candidate_cloud(sys_spec, n_cloud, rng), on_set,
                         on_set + shift])
        pts = pts[sys_spec.admissible(pts)]
        classes = _classes(sys_spec, pts)
        assert len(classes) == len(pts)
        for x, c in zip(pts, classes):
            ref = equivalence_class_reference(sys_spec, x)
            for got in (c, equivalence_class(sys_spec, x)):
                assert got.members.shape == ref.members.shape
                assert got.members.tobytes() == ref.members.tobytes()
                assert got.base_point.tobytes() == ref.base_point.tobytes()

    def test_a_repeated_preimage_is_merged(self):
        sys_spec = SYSTEMS["annulus_repeat"]
        p = np.array([-1.25, 0.0])
        q, _, last = impulse_preimages(sys_spec, p)
        assert np.array_equal(equivalence_class(sys_spec, p).members, [p, q, last])
        # on the set: x, I(x), and of I(x)'s preimages only the last
        c = equivalence_class(sys_spec, q)
        assert np.array_equal(c.members, [q, p, last])

    @pytest.mark.parametrize("name, x", [("annulus", [1.5, 0.0, 0.0]),
                                         ("doubling_suspension", [1.0, 0.0]),
                                         ("annulus", [1.5])])
    def test_wrong_dimension_is_a_value_error(self, name, x):
        sys_spec = SYSTEMS[name]
        with pytest.raises(ValueError, match="dimension"):
            equivalence_class(sys_spec, x)
        with pytest.raises(ValueError, match="dimension"):
            metric_axiom_audit(sys_spec, [x, x])


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

    def test_bridging_classes_match_pairwise_reference(self, annulus, rng):
        pts = _mixed_points(annulus, rng, 60, 20)
        rep = metric_axiom_audit(annulus, pts)
        counts, witnesses = _pairwise_audit(annulus, pts)
        assert (rep.symmetry_violations, rep.identity_violations,
                rep.triangle_violations) == counts
        assert rep.witnesses == witnesses

    @pytest.mark.parametrize("name", ["annulus", "doubling_suspension"])
    def test_triangle_on_the_upper_half_equals_the_full_loop(self, name, rng):
        # bridging classes that break the triangle inequality: the count,
        # the worst excess and the first witness, bit for bit
        sys_spec = build_fixture(name)
        rep = metric_axiom_audit(sys_spec, _mixed_points(sys_spec, rng, 60, 20))
        count, worst, witness = triangle_audit_reference(rep.distances)
        assert count == rep.triangle_violations > 0
        assert worst == rep.worst_triangle_excess
        got = [(w["i"], w["j"], w["excess"]) for w in rep.witnesses
               if w["kind"] == "triangle"]
        assert got == [witness] and witness[0] < witness[1]

    def test_prey_predator_random_points_pass(self, prey_predator, rng):
        pts = candidate_cloud(prey_predator, 120, rng)
        rep = metric_axiom_audit(prey_predator, pts)
        assert rep.passed


class TestDistanceMatrix:
    @pytest.mark.parametrize("name", ["annulus", "prey_predator"])
    def test_mixed_points_match_pairwise(self, name, rng):
        # candidates are singletons, D and I(D) samples come in pairs
        sys_spec = build_fixture(name)
        rep = metric_axiom_audit(sys_spec, _mixed_points(sys_spec, rng, 30, 10))
        assert {len(c) for c in rep.classes} == {1, 2}
        assert np.array_equal(rep.distances, _pairwise_matrix(rep.classes))

    def test_doubling_triples_match_pairwise(self, doubling, rng):
        # a class of the two-to-one map holds a point and both of its
        # angle-halving preimages
        rep = metric_axiom_audit(doubling, _mixed_points(doubling, rng, 30, 10))
        assert {len(c) for c in rep.classes} == {3}
        assert np.array_equal(rep.distances, _pairwise_matrix(rep.classes))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_point_sets(self, annulus, n):
        pts = np.array([[1.0, 0.0], [-1.25, 0.0]])[:n].reshape(n, 2)
        rep = metric_axiom_audit(annulus, pts)
        assert rep.n_points == n
        assert rep.distances.shape == (n, n)
        assert np.array_equal(rep.distances, _pairwise_matrix(rep.classes))
        assert rep.passed
