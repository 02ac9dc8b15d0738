"""Builtin fixture catalog.

Each builtin system is defined once, by one builder in this module.  The
``SystemSpec`` it returns carries all of its per-system data by value: the
field, the impulsive-set pieces and their images (each piece with its level
object and its own Halton sampler), the impulse map with its inverse, the
admissible region, the candidate cloud and the default measure box.  The
field, the map, the inverse and the region are closures defined in the
builder, over its arguments, so a new system needs only a new builder.  A
builder's keyword arguments are the fixture's overrides.

Five systems:

* ``annulus`` -- rigid rotation on the annulus 1 <= r <= 2; the impulsive set
  is the segment [1, 2] on the positive x-axis, folded onto [-3/2, -1] on the
  negative x-axis.  Every orbit funnels onto the circle r = 1; zero entropy.
* ``prey_predator`` -- the controlled two-prey/one-predator field on the
  nonnegative octant with plane impulsive sets {x1+x2+x3 = xi_i} rescaled
  radially onto {x1+x2+x3 = eta_j}, eta > xi.
* ``doubling_suspension`` -- unit-speed vertical flow on the cylinder
  (cos a, sin a, h), h in [0, 1]; hitting the top circle doubles the angle and
  resets h = 0.  The standard positive-entropy stress fixture (rate log 2);
  its impulse map is two-to-one, which also stresses the quotient machinery.
* ``static_null`` -- zero field on the unit square with an unreachable
  impulsive edge; the null control for entropy estimates.
* ``tangent_degenerate`` -- rotation with the circle r = 3/2 as impulsive set:
  the field is tangent to it, so the transversality check must fail.

``annulus`` and ``prey_predator`` pass every hypothesis check;
``tangent_degenerate`` deliberately fails transversality.
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .flow_core import LinearLevel, RadiusLevel, VectorFieldSpec
from .impulsive_system import ImpulsiveSetSpec, SystemSpec

__all__ = [
    "FIXTURES",
    "fixture_names",
    "build_fixture",
    "sample_pieces",
    "sample_impulsive_set",
    "candidate_cloud",
]


_REGION_TOL = 1e-6         # admissible regions admit states this far outside


# --------------------------------------------------------------------------
# Halton samplers, candidate clouds, the rotation and the band region shared
# by several builders
# --------------------------------------------------------------------------

def _halton(dim: int, n: int) -> np.ndarray:
    """The first n points of the unscrambled Halton sequence in bases 2 and 3:
    radical inverses (van der Corput) of 0, 1, ..., n - 1, equal bit for bit
    to ``scipy.stats.qmc.Halton(scramble=False)``, whose import is slow."""
    out = np.zeros((n, dim))
    for d, base in enumerate((2, 3)[:dim]):
        i = np.arange(n)
        f = 1.0
        while i.any():
            f /= base
            out[:, d] += f * (i % base)
            i //= base
    return out


def _unit(n: int) -> np.ndarray:
    return _halton(1, n)[:, 0]


def _halton_circle(n: int, radius: float = 1.0) -> np.ndarray:
    ang = 2 * np.pi * _unit(n)
    return radius * np.c_[np.cos(ang), np.sin(ang)]


def _halton_simplex(c: float, n: int) -> np.ndarray:
    """Area-uniform points of the triangle {x >= 0, x1 + x2 + x3 = c}."""
    uv = _halton(2, n)
    s = np.sqrt(uv[:, 0])
    return c * np.c_[1.0 - s, s * (1.0 - uv[:, 1]), s * uv[:, 1]]


def _band_cloud(r2_lo: float, r2_hi: float) -> Callable:
    """Area-uniform random states of the band r2_lo <= r^2 <= r2_hi."""
    def cloud(n, rng):
        r = np.sqrt(rng.uniform(r2_lo, r2_hi, n))
        ang = rng.uniform(0.0, 2 * np.pi, n)
        return np.c_[r * np.cos(ang), r * np.sin(ang)]
    return cloud


def _rotation(x):
    # rigid rotation r' = 0, theta' = 1 in Cartesian coordinates, one product
    return x @ _ROTATION


_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _band(rmin: float, rmax: float) -> Callable:
    """The admissible band rmin <= r <= rmax."""
    def region(x):
        r = np.hypot(x[:, 0], x[:, 1])
        return (r >= rmin - _REGION_TOL) & (r <= rmax + _REGION_TOL)
    return region


def _tuple_of(value) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),)
    return tuple(float(v) for v in value)


# --------------------------------------------------------------------------
# Builders: one per builtin system
# --------------------------------------------------------------------------

def _build_annulus() -> SystemSpec:
    level = LinearLevel((0.0, 1.0))
    d_set = ImpulsiveSetSpec(
        level, 0.0,
        halfspaces=(((1.0, 0.0), 1.0), ((-1.0, 0.0), -2.0)),
        direction=+1,
        sampler=lambda n: np.c_[1.0 + _unit(n), np.zeros(n)],
    )
    image = ImpulsiveSetSpec(
        level, 0.0,
        halfspaces=(((1.0, 0.0), -1.5), ((-1.0, 0.0), 1.0)),
        sampler=lambda n: np.c_[-1.5 + 0.5 * _unit(n), np.zeros(n)],
    )

    def fold(x, piece):
        # (x, 0) -> (-1/2 - x/2, 0): folds the right segment onto the left one
        out = np.empty_like(x)
        out[:, 0] = -0.5 - 0.5 * x[:, 0]
        out[:, 1] = 0.0
        return out

    return SystemSpec(
        name="annulus",
        field=VectorFieldSpec(2, _rotation),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=fold,
        preimages=lambda p: [np.array([-2.0 * p[0] - 1.0, 0.0])],
        region=_band(1.0, 2.0),
        cloud=_band_cloud(1.0, 4.0),
        box=((-2.0, -2.0), (2.0, 2.0)),
    )


_PREY_PREDATOR_RATES = dict.fromkeys(
    ("alpha1", "alpha2", "beta1", "beta2", "gamma1",
     "gamma2", "nu1", "nu2", "mu1", "mu2"), 1.0)


def _build_prey_predator(xi=1.0, eta=2.0, **rates) -> SystemSpec:
    """``rates`` override the field's ten positive rates by name."""
    xi = _tuple_of(xi)
    eta = _tuple_of(eta)
    if len(eta) == 1 and len(xi) > 1:
        eta = eta * len(xi)
    if len(eta) != len(xi):
        raise ValueError("xi and eta must pair up one-to-one")
    if any(v <= 0 for v in xi + eta):
        raise ValueError("plane offsets must be positive")
    if set(xi) & set(eta):
        raise ValueError("impulsive planes and their images must be disjoint")
    unknown = set(rates) - set(_PREY_PREDATOR_RATES)
    if unknown:
        raise ValueError(f"unknown prey_predator parameters {sorted(unknown)}")
    rates = {**_PREY_PREDATOR_RATES, **rates}
    for name, value in rates.items():
        if not value > 0:
            raise ValueError(f"prey_predator parameter {name} must be > 0")
    a1, b1, b2, g2, n2, m1 = (rates[k] for k in
                              ("alpha1", "beta1", "beta2", "gamma2", "nu2", "mu1"))

    def rhs(x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        denom = 1.0 + b1 * x1 + b2 * x2
        out = np.empty_like(x)
        out[..., 0] = -(x1 + a1 * x3) * x1 / denom
        out[..., 1] = -(g2 * x2 + n2 * x3) * x2 / denom
        out[..., 2] = -m1 * x3 / denom
        return out

    # plane i is rescaled radially onto its image plane
    xi_of, eta_of = np.array(xi), np.array(eta)

    def rescale(x, piece):
        return x * (eta_of[piece] / xi_of[piece])[:, None]

    def preimages(p):
        s = float(p.sum())
        return [p * (x / e) for x, e in zip(xi_of, eta_of)
                if abs(s - e) <= 1e-7 * max(1.0, e)]

    level = LinearLevel((1.0, 1.0, 1.0))
    octant = tuple(((float(i == 0), float(i == 1), float(i == 2)), 0.0)
                   for i in range(3))
    d_sets = tuple(
        ImpulsiveSetSpec(level, c, halfspaces=octant, direction=-1,
                         sampler=partial(_halton_simplex, c))
        for c in xi
    )
    images = tuple(ImpulsiveSetSpec(level, c, halfspaces=octant,
                                    sampler=partial(_halton_simplex, c))
                   for c in eta)
    lo, hi = min(xi), max(eta)

    def cloud(n, rng):
        # random states between the lowest impulsive plane and the highest image
        s = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), n)
        bary = rng.dirichlet((1.0, 1.0, 1.0), size=n)
        return bary * s[:, None]

    return SystemSpec(
        name="prey_predator",
        field=VectorFieldSpec(3, rhs),
        impulsive_sets=d_sets,
        image_sets=images,
        impulse=rescale,
        preimages=preimages,
        region=lambda x: (x >= -_REGION_TOL).all(axis=1),
        cloud=cloud,
        box=((0.0, 0.0, 0.0), (hi, hi, hi)),
    )


def _build_doubling() -> SystemSpec:
    level = LinearLevel((0.0, 0.0, 1.0))
    d_set = ImpulsiveSetSpec(
        level, 1.0, direction=+1,
        sampler=lambda n: np.c_[_halton_circle(n), np.full(n, 1.0)],
    )
    image = ImpulsiveSetSpec(
        level, 0.0,
        sampler=lambda n: np.c_[_halton_circle(n), np.full(n, 0.0)],
    )

    def upward(x):
        # unit-speed vertical flow on the cylinder embedded as (cos a, sin a, h)
        out = np.zeros_like(x)
        out[..., 2] = 1.0
        return out

    def double(x, piece):
        # cylinder point (cos a, sin a, 1) -> (cos 2a, sin 2a, 0)
        ang = np.arctan2(x[:, 1], x[:, 0])
        out = np.empty_like(x)
        out[:, 0] = np.cos(2.0 * ang)
        out[:, 1] = np.sin(2.0 * ang)
        out[:, 2] = 0.0
        return out

    def halves(p):
        ang = np.arctan2(p[1], p[0])
        return [np.array([np.cos(half), np.sin(half), 1.0])
                for half in (ang / 2.0, ang / 2.0 + np.pi)]

    def cylinder(x):
        # small headroom above the top circle keeps tube probes inside the chart
        r = np.hypot(x[:, 0], x[:, 1])
        h = x[:, 2]
        return ((np.abs(r - 1.0) <= 1e-3) & (h >= -_REGION_TOL)
                & (h <= 1.25 + _REGION_TOL))

    def cloud(n, rng):
        # the deterministic uniform angular grid at height zero, the customary
        # choice for counting distinguishable angle itineraries
        ang = 2 * np.pi * np.arange(n) / n
        return np.c_[np.cos(ang), np.sin(ang), np.zeros(n)]

    return SystemSpec(
        name="doubling_suspension",
        field=VectorFieldSpec(3, upward),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=double,
        preimages=halves,
        region=cylinder,
        cloud=cloud,
        box=((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0)),
    )


def _build_static_null() -> SystemSpec:
    level = LinearLevel((1.0, 0.0))
    edge = (((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0))
    d_set = ImpulsiveSetSpec(
        level, 1.0, halfspaces=edge, direction=+1,
        sampler=lambda n: np.c_[np.full(n, 1.0), _unit(n)],
    )
    image = ImpulsiveSetSpec(
        level, 0.25, halfspaces=edge,
        sampler=lambda n: np.c_[np.full(n, 0.25), _unit(n)],
    )
    offset = np.array([-0.75, 0.0])
    return SystemSpec(
        name="static_null",
        field=VectorFieldSpec(2, np.zeros_like),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=lambda x, piece: x + offset,
        preimages=lambda p: [p - offset],
        region=lambda x: ((x >= -_REGION_TOL) & (x <= 1.0 + _REGION_TOL)).all(axis=1),
        cloud=lambda n, rng: rng.uniform(0.0, 1.0, size=(n, 2)),
        box=((0.0, 0.0), (1.0, 1.0)),
    )


def _build_tangent_degenerate() -> SystemSpec:
    xi, eta = 1.5, 0.75     # the impulsive circle and its image, radially rescaled
    d_set = ImpulsiveSetSpec(RadiusLevel(), xi,
                             sampler=partial(_halton_circle, radius=xi))
    image = ImpulsiveSetSpec(RadiusLevel(), eta,
                             sampler=partial(_halton_circle, radius=eta))

    def preimages(p):
        if abs(np.hypot(p[0], p[1]) - eta) <= 1e-7:
            return [p * (xi / eta)]
        return []

    return SystemSpec(
        name="tangent_degenerate",
        field=VectorFieldSpec(2, _rotation),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=lambda x, piece: x * (eta / xi),
        preimages=preimages,
        region=_band(0.5, 2.5),
        cloud=_band_cloud(0.36, 5.76),
        box=((-2.5, -2.5), (2.5, 2.5)),
    )


FIXTURES: dict[str, Callable[..., SystemSpec]] = {
    "annulus": _build_annulus,
    "prey_predator": _build_prey_predator,
    "doubling_suspension": _build_doubling,
    "static_null": _build_static_null,
    "tangent_degenerate": _build_tangent_degenerate,
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def build_fixture(name: str, overrides: Mapping[str, object] | None = None,
                  **kw) -> SystemSpec:
    """Construct a validated SystemSpec for a builtin fixture.

    Overrides, passed as a mapping or as keyword arguments, are keyword
    arguments of the fixture's builder; unknown names and invalid values
    raise ValueError.
    """
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose from {fixture_names()}")
    builder = FIXTURES[name]
    merged = {**(overrides or {}), **kw}
    signature = inspect.signature(builder)
    try:
        signature.bind(**merged)
    except TypeError:
        unknown = sorted(set(merged) - set(signature.parameters))
        raise ValueError(f"unknown {name} overrides {unknown}") from None
    return builder(**merged)


# --------------------------------------------------------------------------
# Set samples and candidate clouds
# --------------------------------------------------------------------------

def sample_pieces(sys: SystemSpec, which: str,
                  n: int) -> list[tuple[ImpulsiveSetSpec, np.ndarray]]:
    """Quasi-uniform (Halton) samples of each piece of the impulsive set
    (which='D') or of its image ('ID'), as (piece, samples) pairs.

    The budget n is split evenly across pieces, the remainder going to the
    first; a piece whose share is zero is left out.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if which not in ("D", "ID"):
        raise ValueError("which must be 'D' or 'ID'")
    pieces = sys.impulsive_sets if which == "D" else sys.image_sets
    per = [n // len(pieces)] * len(pieces)
    per[0] += n - sum(per)
    out = []
    for piece, m in zip(pieces, per):
        if m == 0:
            continue
        if piece.sampler is None:
            raise ValueError(f"a piece of system {sys.name!r} has no sampler")
        out.append((piece, piece.sampler(m)))
    return out


def sample_impulsive_set(sys: SystemSpec, which: str, n: int) -> np.ndarray:
    """Quasi-uniform (Halton) samples of the impulsive set or of its image.

    Multi-piece sets split the budget evenly across pieces.
    """
    return np.vstack([pts for _, pts in sample_pieces(sys, which, n)])


def candidate_cloud(sys: SystemSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Candidate states for separated-set construction, drawn by the system's
    own cloud (random fixtures draw from ``rng``)."""
    if sys.cloud is None:
        raise ValueError(f"no candidate cloud for system {sys.name!r}")
    return sys.cloud(n, rng)
