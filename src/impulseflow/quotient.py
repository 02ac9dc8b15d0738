"""Finite realization of the identification induced by the impulse map:
equivalence classes, the min-over-representatives distance between classes,
and a numerical audit of its metric axioms.

Two states are identified when one is the impulse image of the other or both
share an image.  Classes are finite because a system's ``preimages`` lists
finitely many branches (the analytic inverses of the builtin impulse maps).
The min-over-representatives distance is a true metric only on the recurrent
part of the dynamics; here it is computed for arbitrary finite point sets,
so the metric axioms are audited rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow_core import check_dimension
from .impulsive_system import SystemSpec, _norms, _verified_preimages
from .neighbors import _squared_distance, min_distance

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


def equivalence_class(sys: SystemSpec, x: np.ndarray) -> EquivalenceClass:
    """The identification class of x.

    On the impulsive set the class is {x, I(x)} together with every state
    sharing the image I(x); elsewhere it is {x} plus the preimages of x.
    For injective impulse maps this reduces to pairs.
    """
    return _classes(sys, np.asarray(x, dtype=float)[None])[0]


def _classes(sys: SystemSpec, X: np.ndarray) -> list[EquivalenceClass]:
    """The classes of the states X (n, dim), all in one pass: x, I(x) when x
    is on the impulsive set (within 1e-7), the preimages of x, then those of
    I(x); a member within _MERGE_TOL of an earlier kept member is dropped."""
    check_dimension(sys.field, X)
    if not sys.region(X).all():
        raise ValueError("state outside the admissible region")
    piece = sys.in_impulsive_set(X, tol=1e-7)
    on = np.flatnonzero(piece >= 0)
    images = sys.impulse(X[on], piece[on]) if len(on) else X[on]
    pre_x, of_x = _verified_preimages(sys, X)   # none for x on D when D, I(D) are disjoint
    pre_i, of_i = _verified_preimages(sys, images)
    owner = np.concatenate([np.arange(len(X)), on, of_x, on[of_i]])
    order = np.argsort(owner, kind="stable")    # by class, in the order above
    owner, rows = owner[order], np.concatenate([X, images, pre_x, pre_i])[order]
    slot = np.arange(len(owner)) - np.searchsorted(owner, owner)
    M = np.zeros((len(X), slot.max(initial=0) + 1, X.shape[1]))
    keep = np.zeros(M.shape[:2], dtype=bool)
    M[owner, slot], keep[owner, slot] = rows, True
    for k in range(1, M.shape[1]):  # member positions, for every class at once
        near = _norms(M[:, k, None] - M[:, :k]) <= _MERGE_TOL
        keep[:, k] &= ~(near & keep[:, :k]).any(axis=1)
    parts = np.split(M[keep], np.cumsum(keep.sum(axis=1))[:-1])
    return [EquivalenceClass(members=m, base_point=x) for m, x in zip(parts, X.copy())]


def quotient_distance(a: EquivalenceClass, b: EquivalenceClass) -> float:
    """Minimum distance over representative pairs; attained since classes are
    finite."""
    return min_distance(a.members, b.members)


def representative_pair(a: EquivalenceClass, b: EquivalenceClass):
    """An argmin pair (p, q); its distance equals the class distance exactly
    (same arithmetic as quotient_distance)."""
    d2 = _squared_distance(a.members.T[:, :, None], b.members.T[:, None, :])
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
    return a.members[i].copy(), b.members[j].copy()


def _sq_distance_matrix(classes: list[EquivalenceClass]) -> np.ndarray:
    """Squared class distances, one class row at a time: the squared member
    distances from class i to every stacked member, minimised over i's
    members and then over each class's block of the stack.  Each entry is
    bit-identical to quotient_distance(a, b) ** 2 before the root (the same
    ``_squared_distance`` sums), and row i against column i is
    exactly symmetric because (p - q) ** 2 == (q - p) ** 2."""
    n = len(classes)
    if n == 0:
        return np.zeros((0, 0))
    stacked = np.concatenate([c.members for c in classes]).T[:, None, :]
    starts = np.cumsum([0] + [len(c) for c in classes[:-1]])
    D2 = np.empty((n, n))
    for i, c in enumerate(classes):
        d2 = _squared_distance(c.members.T[:, :, None], stacked)
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
    """Audit the class distance on the classes of ``points``, built at once.

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
    classes = _classes(sys, points)
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

    # triangle: d(a,c) <= min_b d(a,b) + d(b,c) + tol, for c >= a (D is
    # symmetric); the minima run along the rows c of DT, DT[c, b] = d(b,c)
    best, DT = np.full((n, n), np.inf), D.T.copy()
    for a in range(n):
        best[a, a:] = (DT[a:] + D[a]).min(axis=1)
    excess = D - best
    tri_mask = excess > tol
    tri_viol = int(tri_mask.sum())
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
