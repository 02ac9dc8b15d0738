"""Finite realization of the identification induced by the impulse map:
equivalence classes, the min-over-representatives distance between classes,
and a numerical audit of its metric axioms.

Two states are identified when one is the impulse image of the other or both
share an image.  Classes are finite because the builtin impulse maps have
analytic inverses with finitely many branches.  The min-over-representatives
distance is a true metric only on the recurrent part of the dynamics; here it
is computed for arbitrary finite point sets, so the metric axioms are audited
rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .impulsive_system import SystemSpec, apply_impulse, impulse_preimages
from .neighbors import min_distance

__all__ = [
    "EquivalenceClass",
    "equivalence_class",
    "quotient_distance",
    "representative_pair",
    "metric_axiom_audit",
    "MetricAuditReport",
]

_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class EquivalenceClass:
    """A finite set of mutually identified states."""

    members: np.ndarray          # (m, dim)
    base_point: np.ndarray

    def __len__(self) -> int:
        return len(self.members)


def _dedupe(points: list[np.ndarray]) -> np.ndarray:
    out: list[np.ndarray] = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= _MERGE_TOL for q in out):
            out.append(p)
    return np.array(out)


def equivalence_class(sys: SystemSpec, x: np.ndarray) -> EquivalenceClass:
    """The identification class of x.

    On the impulsive set the class is {x, I(x)} together with every state
    sharing the image I(x); elsewhere it is {x} plus the preimages of x.
    For injective impulse maps this reduces to pairs.
    """
    x = np.asarray(x, dtype=float)
    if not sys.admissible(x):
        raise ValueError("state outside the admissible region")
    members = [x]
    if sys.in_impulsive_set(x, tol=1e-7) >= 0:
        image = apply_impulse(sys, x, tol=1e-7)
        members.append(image)
        members.extend(impulse_preimages(sys, x))      # empty when sets are disjoint
        members.extend(impulse_preimages(sys, image))  # includes x itself
    else:
        members.extend(impulse_preimages(sys, x))
    return EquivalenceClass(members=_dedupe(members), base_point=x.copy())


def quotient_distance(a: EquivalenceClass, b: EquivalenceClass) -> float:
    """Minimum distance over representative pairs; attained since classes are
    finite."""
    return min_distance(a.members, b.members)


def representative_pair(a: EquivalenceClass, b: EquivalenceClass):
    """An argmin pair (p, q); its distance equals the class distance exactly
    (same arithmetic as quotient_distance)."""
    d2 = np.sum((a.members[:, None, :] - b.members[None, :, :]) ** 2, axis=2)
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
    return a.members[i].copy(), b.members[j].copy()


def _sq_distance_matrix(classes: list[EquivalenceClass]) -> np.ndarray:
    """Squared class distances, one class row at a time: the squared member
    distances from class i to every stacked member, minimised over i's
    members and then over each class's block of the stack.  Each entry is
    bit-identical to quotient_distance(a, b) ** 2 before the root (same
    differences, same sum over coordinates), and row i against column i is
    exactly symmetric because (p - q) ** 2 == (q - p) ** 2."""
    n = len(classes)
    if n == 0:
        return np.zeros((0, 0))
    stacked = np.concatenate([c.members for c in classes])
    starts = np.cumsum([0] + [len(c) for c in classes[:-1]])
    D2 = np.empty((n, n))
    for i, c in enumerate(classes):
        d2 = np.sum((c.members[:, None, :] - stacked[None, :, :]) ** 2, axis=2)
        D2[i] = np.minimum.reduceat(d2.min(axis=0), starts)
    return D2


@dataclass(frozen=True)
class MetricAuditReport:
    n_points: int
    symmetry_violations: int
    identity_violations: int
    triangle_violations: int
    worst_triangle_excess: float
    witnesses: tuple
    # the audited classes and their distance matrix, for callers that
    # write them out
    classes: tuple = field(repr=False, compare=False)
    distances: np.ndarray = field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return (self.symmetry_violations == 0 and self.identity_violations == 0
                and self.triangle_violations == 0)


def metric_axiom_audit(sys: SystemSpec, points: np.ndarray,
                       tol: float = 1e-9) -> MetricAuditReport:
    """Audit the class distance on the classes generated by ``points``.

    The squared class-distance matrix is computed once, one class row at a
    time against all stacked class members, and every check reads it:
    symmetry (row i against column i, exactly), identity of indiscernibles
    (distance <= tol iff the classes share a member, i.e. squared distance
    <= the 1e-9 merge tolerance squared), and the triangle inequality over
    all triples with slack tol.  Violations are reported with witnesses, not
    asserted away: non-injective impulse maps can genuinely break the
    triangle inequality off the recurrent set.  The report also carries the
    classes and the distance matrix.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    classes = [equivalence_class(sys, p) for p in points]
    n = len(classes)
    D2 = _sq_distance_matrix(classes)
    D = np.sqrt(D2)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)

    sym_viol = int((upper & (D != D.T)).sum())

    ident_mask = upper & ((D <= tol) != (D2 <= _MERGE_TOL * _MERGE_TOL))
    ident_viol = int(ident_mask.sum())
    witnesses = [{"kind": "identity", "i": int(i), "j": int(j),
                  "distance": float(D[i, j])}
                 for i, j in np.argwhere(ident_mask)[:8]]

    # triangle: d(a,c) <= min_b d(a,b) + d(b,c) + tol
    best = np.full((n, n), np.inf)
    for b in range(n):
        np.minimum(best, D[:, b][:, None] + D[b, :][None, :], out=best)
    excess = D - best
    tri_mask = excess > tol
    tri_viol = int(tri_mask.sum()) // 2
    if tri_viol and len(witnesses) < 8:
        ii, jj = np.argwhere(tri_mask)[0]
        witnesses.append({"kind": "triangle", "i": int(ii), "j": int(jj),
                          "excess": float(excess[ii, jj])})
    return MetricAuditReport(
        n_points=n,
        symmetry_violations=sym_viol,
        identity_violations=ident_viol,
        triangle_violations=tri_viol,
        worst_triangle_excess=float(excess.max()) if n else 0.0,
        witnesses=tuple(witnesses),
        classes=tuple(classes),
        distances=D,
    )
