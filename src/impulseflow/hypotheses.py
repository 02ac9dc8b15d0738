"""Numerical verification of the structural hypotheses behind the main
existence and variational-principle results: transversality of the impulsive
set and of its image to the flow direction, separation between the two, and
continuity of the first-hitting time at the impulsive set.

These are sampled checks of open conditions, not proofs; every report carries
the worst witness so a failure is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .flow_core import (
    RegionEscape,
    eval_vector_field,
    flow,
    level_gradient,
)
from .impulsive_system import SystemSpec, first_hitting_time
from .systems import sample_impulsive_set, sample_pieces

__all__ = [
    "TransversalityReport",
    "SeparationReport",
    "transversality_margin",
    "separation_report",
    "hitting_continuity_probe",
]

# The separation tube: the forward flow of the impulsive set is probed up to
# _XI_CAP, and it is clear of the image while every slice stays farther than
# _CLEAR_TOL from the image samples.
_XI_CAP = 2 * np.pi
_CLEAR_TOL = 1e-3

# A continuity probe that the flow reaches from the impulsive set in less
# than this time counts as escaped.
_TUBE_XI = 0.25

# Tied points x data points per block of the brute-force distance recheck,
# which keeps its temporaries under a megabyte.
_CHECK_BLOCK = 1 << 15


@dataclass(frozen=True)
class TransversalityReport:
    which: str
    sampled_points: int
    min_abs_inner: float
    sign_consistent: bool
    common_sign: int
    worst_point: np.ndarray
    margin_tol: float

    @property
    def passed(self) -> bool:
        return self.sign_consistent and self.min_abs_inner > self.margin_tol


@dataclass(frozen=True)
class SeparationReport:
    dist_D_ID: float
    xi_margin: float
    n_samples: int


def transversality_margin(sys: SystemSpec, which: str, n_samples: int,
                          margin_tol: float = 1e-6) -> TransversalityReport:
    """Sampled transversality check of the impulsive set (which='D') or of its
    image (which='ID').

    Quasi-uniform samples of each piece are scored by the inner product of the
    piece's level gradient with the vector field.  The check passes when every
    inner product shares one sign and the smallest magnitude clears
    margin_tol.
    """
    inners, points = [], []
    for piece, single in sample_pieces(sys, which, n_samples):
        grads = level_gradient(piece.level_id, single)
        f = eval_vector_field(sys.field, single)
        inners.append(np.einsum("nd,nd->n", grads, f))
        points.append(single)
    inner = np.concatenate(inners)
    pts = np.vstack(points)
    worst = int(np.argmin(np.abs(inner)))
    signs = np.sign(inner)
    consistent = bool((signs == signs[0]).all() and signs[0] != 0)
    return TransversalityReport(
        which=which,
        sampled_points=len(inner),
        min_abs_inner=float(np.abs(inner[worst])),
        sign_consistent=consistent,
        common_sign=int(signs[0]) if consistent else 0,
        worst_point=pts[worst].copy(),
        margin_tol=margin_tol,
    )


def separation_report(sys: SystemSpec, n_samples: int) -> SeparationReport:
    """Distance between the impulsive set and its image, plus the largest
    probed xi for which the forward tube of the impulsive set of width xi
    stays clear of the image.

    Both sets are sampled quasi-uniformly; the tube is the forward flow of the
    impulsive-set samples, one flow run sampled on a fine time grid up to
    _XI_CAP, and the margin is the last slice time before the first slice
    that comes within _CLEAR_TOL of the image.
    One k-d tree query on the image samples answers the set distance, and one
    more every tube clearance; each distance is then recomputed by brute
    force on the points the tree puts nearest, so it equals the all-pairs
    minimum exactly.
    """
    d_samples = sample_impulsive_set(sys, "D", n_samples)
    id_samples = sample_impulsive_set(sys, "ID", n_samples)
    id_tree = cKDTree(id_samples)
    dist = _min_distance_to(id_tree, id_samples, d_samples)

    n_slices = 512
    ts = _XI_CAP * np.arange(1, n_slices + 1) / n_slices
    # forward tube of a subset of the D samples (pure flow, no impulses),
    # sampled at every slice time from one run
    probes = d_samples[:: max(1, len(d_samples) // 128)]
    tube = flow(sys.field, probes, ts)
    clearance = _min_distance_to(id_tree, id_samples, tube)
    blocked = np.minimum.accumulate(clearance) <= _CLEAR_TOL
    if blocked.any():
        first = int(np.searchsorted(blocked, True))
        xi_margin = float(ts[first - 1]) if first > 0 else 0.0
    else:
        xi_margin = float(_XI_CAP)
    return SeparationReport(
        dist_D_ID=float(dist),
        xi_margin=xi_margin,
        n_samples=n_samples,
    )


def _min_distance_to(tree: cKDTree, data: np.ndarray,
                     points: np.ndarray) -> np.ndarray:
    """Smallest distance from a set of points to ``data`` (the tree's
    points): one set of shape (m, dim), or k sets side by side, shape
    (m, k, dim), answered by one tree query with one result per set.

    The tree's arithmetic is not promised to match sqrt(sum(diff**2)) bit
    for bit, so every point within a relative 1e-9 of its set's nearest
    tree distance is rechecked in that arithmetic; the point of the set's
    brute-force minimum is always among them.  A rechecked point is compared
    with its nearest datum alone, unless a second datum lies within a
    relative 1e-9 of it too; then with all of ``data``.  Each result
    therefore equals the all-pairs minimum exactly.
    """
    sets = points.reshape(len(points), -1, points.shape[-1])
    dist, idx = tree.query(sets, k=2)
    nearest = dist[..., 0]
    rows, cols = np.nonzero(nearest <= nearest.min(axis=0) * (1 + 1e-9))
    close = sets[rows, cols]
    point_d2 = np.sum((close - data[idx[rows, cols, 0]]) ** 2, axis=1)
    tied = np.flatnonzero(dist[rows, cols, 1] <= nearest[rows, cols] * (1 + 1e-9))
    step = max(1, _CHECK_BLOCK // len(data))
    for s in range(0, len(tied), step):
        blk = tied[s:s + step]
        point_d2[blk] = np.sum((close[blk, None, :] - data[None, :, :]) ** 2,
                               axis=2).min(axis=1)
    d2 = np.full(sets.shape[1], np.inf)
    np.minimum.at(d2, cols, point_d2)
    return np.sqrt(d2).reshape(points.shape[1:-1])


def hitting_continuity_probe(sys: SystemSpec, x_in_d: np.ndarray,
                             approach_dirs: int, scales) -> list[dict]:
    """Decay of the first-hitting time along incoming approaches to a point of
    the impulsive set.

    For each scale s, probe points are produced by sliding x inside the set
    along approach_dirs tangent directions and flowing backward for time s;
    their first-hitting time is then measured forward (0 on the set itself).
    Probes that fall outside the impulsive set's backward-reachable complement
    within _TUBE_XI, or whose forward orbit leaves the admissible region before
    hitting, are counted as escaped, not fatal.

    Returns one row per scale: {"scale", "tau_star_max", "escaped"}.
    """
    x = np.asarray(x_in_d, dtype=float)
    j = sys.in_impulsive_set(x, tol=1e-7)
    if j < 0:
        raise ValueError("base point is not on the impulsive set")
    piece = sys.impulsive_sets[j]
    scales = np.asarray(list(scales), dtype=float)
    if (scales <= 0).any() or (np.diff(scales) >= 0).any():
        raise ValueError("scales must be positive and decreasing")
    dirs = _tangent_directions(piece.level_id, x, approach_dirs)

    rows = []
    for s in scales:
        taus = []
        escaped = 0
        for d in dirs:
            p = x + 0.5 * s * d
            if not piece.contains(p, tol=1e-6):
                p = x  # sliding left the set; fall back to the base point
            xk = flow(sys.field, p, -s)
            if sys.in_impulsive_set(xk, tol=1e-9) >= 0:
                taus.append(0.0)
                continue
            if _in_forward_tube(sys, xk):
                escaped += 1
                continue
            try:
                hit = first_hitting_time(sys, xk, t_max=max(10.0, 4 * s))
            except RegionEscape:
                hit = None
            if hit is None:
                escaped += 1
            else:
                taus.append(hit[0])
        rows.append({
            "scale": float(s),
            "tau_star_max": float(max(taus)) if taus else float("nan"),
            "escaped": escaped,
        })
    return rows


def _tangent_directions(level_id: str, x: np.ndarray, m: int) -> np.ndarray:
    g = level_gradient(level_id, x)
    g = g / np.linalg.norm(g)
    dim = len(x)
    if dim == 2:
        t = np.array([-g[1], g[0]])
        dirs = np.vstack([t, -t])
        return dirs[: max(1, min(m, 2))]
    # orthonormal basis of the tangent plane
    a = np.eye(dim)[int(np.argmin(np.abs(g)))]
    u = a - np.dot(a, g) * g
    u /= np.linalg.norm(u)
    v = np.cross(g, u) if dim == 3 else None
    angles = 2 * np.pi * np.arange(m) / max(m, 1)
    return np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * v


def _in_forward_tube(sys: SystemSpec, x: np.ndarray) -> bool:
    """Whether x lies on a forward flow segment of length < _TUBE_XI
    emanating from the impulsive set: probed by reversed-time hit
    detection."""
    hit = first_hitting_time(sys, x, t_max=_TUBE_XI, reverse=True)
    return hit is not None and hit[0] < _TUBE_XI
