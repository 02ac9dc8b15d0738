"""Numerical verification of the structural hypotheses behind the main
existence and variational-principle results: transversality of the impulsive
set and of its image to the flow direction, separation between the two, and
continuity of the first-hitting time at the impulsive set.

These are sampled checks of open conditions, not proofs; every report carries
the worst witness so a failure is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flow_core import eval_vector_field
from .impulsive_system import SystemSpec, _first_hits, _propagate
from .neighbors import min_distance
from .systems import sample_impulsive_set, sample_pieces

__all__ = [
    "TransversalityReport",
    "SeparationReport",
    "transversality_margin",
    "separation_report",
    "hitting_continuity_probe",
]

_XI_CAP = 2 * np.pi  # the horizon of the search for the image's first crossing

# A continuity probe that the flow reaches from the impulsive set in less
# than this time counts as escaped.
_TUBE_XI = 0.25


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
        grads = piece.level.grad(single)
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
    """Distance between the impulsive set and its image, plus the time the
    forward flow of the impulsive set takes to reach the image.

    Both sets are sampled quasi-uniformly; the set distance is the all-pairs
    minimum, by brute force.  The margin is the earliest crossing of an image
    piece, from either side, by the pure flow from any impulsive-set sample,
    located to 1e-12 by one first-hit batch run and capped at _XI_CAP; an
    orbit that leaves the admissible region first never crosses, and a flow
    tangent to an image piece raises AmbiguousCrossing.
    """
    d_samples = sample_impulsive_set(sys, "D", n_samples)
    id_samples = sample_impulsive_set(sys, "ID", n_samples)
    dist = min_distance(d_samples, id_samples)
    image_flow = replace(sys, impulse=lambda x, piece: x, impulsive_sets=tuple(
        replace(piece, direction=0) for piece in sys.image_sets))
    tau, _, _ = _first_hits(image_flow, d_samples, _XI_CAP)
    return SeparationReport(
        dist_D_ID=float(dist),
        xi_margin=float(np.nanmin(tau, initial=_XI_CAP)),
        n_samples=n_samples,
    )


def hitting_continuity_probe(sys: SystemSpec, x_in_d: np.ndarray,
                             approach_dirs: int, scales) -> list[dict]:
    """Decay of the first-hitting time along incoming approaches to a point of
    the impulsive set.

    For each scale s, probe points are produced by sliding x inside the set
    along approach_dirs tangent directions and flowing backward for time s;
    their first-hitting time is then measured forward (0 on the set itself).
    Probes that the flow reaches from the impulsive set in less than
    _TUBE_XI, or whose forward orbit leaves the admissible region before
    hitting, are counted as escaped, not fatal.  All probes take three batch
    runs: the backward flow, one duration per probe, then a reversed and a
    forward first-hit search.  approach_dirs must be an integer >= 1, and
    the system's dimension 2 or 3.

    Returns one row per scale: {"scale", "tau_star_max", "escaped"}.
    """
    if (isinstance(approach_dirs, bool)
            or not isinstance(approach_dirs, (int, np.integer)) or approach_dirs < 1):
        raise ValueError(f"approach_dirs must be an integer >= 1, got {approach_dirs!r}")
    if sys.dim not in (2, 3):
        raise ValueError(f"the continuity probe needs dimension 2 or 3, not {sys.dim}")
    x = np.asarray(x_in_d, dtype=float)
    j = sys.in_impulsive_set(x, tol=1e-7)
    if j < 0:
        raise ValueError("base point is not on the impulsive set")
    piece = sys.impulsive_sets[j]
    scales = np.asarray(list(scales), dtype=float)
    if not (scales > 0).all() or (np.diff(scales) >= 0).any():
        raise ValueError("scales must be positive and decreasing")
    dirs = _tangent_directions(piece.level, x, approach_dirs)

    s = np.repeat(scales, len(dirs))
    p = x + 0.5 * s[:, None] * np.tile(dirs, (len(scales), 1))
    p[~piece.contains(p, tol=1e-6)] = x  # sliding left the set: the base point
    back = _propagate(sys.field, p, s, time_sign=-1.0).final
    on_set = np.any([q.contains(back, tol=1e-9) for q in sys.impulsive_sets], axis=0)
    tau = np.where(on_set, 0.0, np.nan)   # NaN: escaped, unless a hit replaces it
    off = np.flatnonzero(~on_set)
    tube, _, _ = _first_hits(sys, back[off], _TUBE_XI, reverse=True)
    off = off[~(tube < _TUBE_XI)]  # reached from the set before _TUBE_XI: escaped
    tau[off], _, _ = _first_hits(sys, back[off], np.maximum(10.0, 4 * s[off]))

    rows = []
    for scale, row in zip(scales, tau.reshape(len(scales), len(dirs))):
        hit = row[~np.isnan(row)]
        rows.append({
            "scale": float(scale),
            "tau_star_max": float(hit.max()) if len(hit) else float("nan"),
            "escaped": int(len(row) - len(hit)),
        })
    return rows


def _tangent_directions(level, x: np.ndarray, m: int) -> np.ndarray:
    """m >= 1 unit tangent directions of the level at x, in dimension 2
    (at most two: t and -t) or 3 (m evenly spaced angles)."""
    g = level.grad(x)
    g = g / np.linalg.norm(g)
    if len(x) == 2:
        t = np.array([-g[1], g[0]])
        return np.vstack([t, -t])[:m]
    # orthonormal basis of the tangent plane
    a = np.eye(3)[int(np.argmin(np.abs(g)))]
    u = a - np.dot(a, g) * g
    u /= np.linalg.norm(u)
    v = np.cross(g, u)
    angles = 2 * np.pi * np.arange(m) / m
    return np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * v
