"""Builtin fixture catalog.

Each builtin system is defined once, by one builder in this module.  The
``SystemSpec`` it returns carries all of its per-system data: the field, the
impulsive-set pieces and their images (each piece with its own Halton
sampler), the impulse map, the admissible region, the candidate cloud and
the default measure box.  The field, the impulse map and the region are
named by id; only a new component needs an entry in ``flow_core._FIELDS``,
``impulsive_system._IMPULSE_MAPS`` or ``impulsive_system._ADMISSIBLE``.  A
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

from .flow_core import VectorFieldSpec
from .impulsive_system import ImpulseMapSpec, ImpulsiveSetSpec, SystemSpec

__all__ = [
    "FIXTURES",
    "fixture_names",
    "build_fixture",
    "sample_pieces",
    "sample_impulsive_set",
    "candidate_cloud",
]


# --------------------------------------------------------------------------
# Halton samplers and candidate clouds shared by several builders
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


def _tuple_of(value) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),)
    return tuple(float(v) for v in value)


# --------------------------------------------------------------------------
# Builders: one per builtin system
# --------------------------------------------------------------------------

def _build_annulus() -> SystemSpec:
    d_set = ImpulsiveSetSpec(
        level_id="coord1", level_value=0.0,
        halfspaces=(((1.0, 0.0), 1.0), ((-1.0, 0.0), -2.0)),
        direction=+1,
        sampler=lambda n: np.c_[1.0 + _unit(n), np.zeros(n)],
    )
    image = ImpulsiveSetSpec(
        level_id="coord1", level_value=0.0,
        halfspaces=(((1.0, 0.0), -1.5), ((-1.0, 0.0), 1.0)),
        sampler=lambda n: np.c_[-1.5 + 0.5 * _unit(n), np.zeros(n)],
    )
    return SystemSpec(
        name="annulus",
        field=VectorFieldSpec("annulus"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("annulus_fold"),
        admissible_id="annulus_band",
        admissible_params={"rmin": 1.0, "rmax": 2.0},
        cloud=_band_cloud(1.0, 4.0),
        box=((-2.0, -2.0), (2.0, 2.0)),
    )


def _build_prey_predator(xi=1.0, eta=2.0, **rates) -> SystemSpec:
    """``rates`` override the field's ten parameters by name."""
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
    octant = tuple(((float(i == 0), float(i == 1), float(i == 2)), 0.0)
                   for i in range(3))
    d_sets = tuple(
        ImpulsiveSetSpec("sum", c, halfspaces=octant, direction=-1,
                         sampler=partial(_halton_simplex, c))
        for c in xi
    )
    images = tuple(ImpulsiveSetSpec("sum", c, halfspaces=octant,
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
        field=VectorFieldSpec("prey_predator", rates),
        impulsive_sets=d_sets,
        image_sets=images,
        impulse=ImpulseMapSpec("plane_rescale", {"xi": xi, "eta": eta}),
        admissible_id="nonneg_octant",
        cloud=cloud,
        box=((0.0, 0.0, 0.0), (hi, hi, hi)),
    )


def _build_doubling() -> SystemSpec:
    d_set = ImpulsiveSetSpec(
        level_id="coord2", level_value=1.0, direction=+1,
        sampler=lambda n: np.c_[_halton_circle(n), np.full(n, 1.0)],
    )
    image = ImpulsiveSetSpec(
        level_id="coord2", level_value=0.0,
        sampler=lambda n: np.c_[_halton_circle(n), np.full(n, 0.0)],
    )

    def cloud(n, rng):
        # the deterministic uniform angular grid at height zero, the customary
        # choice for counting distinguishable angle itineraries
        ang = 2 * np.pi * np.arange(n) / n
        return np.c_[np.cos(ang), np.sin(ang), np.zeros(n)]

    return SystemSpec(
        name="doubling_suspension",
        field=VectorFieldSpec("doubling_suspension"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("angle_double"),
        # small headroom above the top circle keeps tube probes inside the chart
        admissible_id="cylinder",
        admissible_params={"hmax": 1.25},
        cloud=cloud,
        box=((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0)),
    )


def _build_static_null() -> SystemSpec:
    edge = (((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0))
    d_set = ImpulsiveSetSpec(
        level_id="coord0", level_value=1.0, halfspaces=edge, direction=+1,
        sampler=lambda n: np.c_[np.full(n, 1.0), _unit(n)],
    )
    image = ImpulsiveSetSpec(
        level_id="coord0", level_value=0.25, halfspaces=edge,
        sampler=lambda n: np.c_[np.full(n, 0.25), _unit(n)],
    )
    return SystemSpec(
        name="static_null",
        field=VectorFieldSpec("static_null"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("translate", {"offset": (-0.75, 0.0)}),
        admissible_id="box",
        admissible_params={"lo": (0.0, 0.0), "hi": (1.0, 1.0)},
        cloud=lambda n, rng: rng.uniform(0.0, 1.0, size=(n, 2)),
        box=((0.0, 0.0), (1.0, 1.0)),
    )


def _build_tangent_degenerate() -> SystemSpec:
    d_set = ImpulsiveSetSpec(level_id="radius", level_value=1.5,
                             sampler=partial(_halton_circle, radius=1.5))
    image = ImpulsiveSetSpec(level_id="radius", level_value=0.75,
                             sampler=partial(_halton_circle, radius=0.75))
    return SystemSpec(
        name="tangent_degenerate",
        field=VectorFieldSpec("tangent_degenerate"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("radius_rescale", {"xi": 1.5, "eta": 0.75}),
        admissible_id="annulus_band",
        admissible_params={"rmin": 0.5, "rmax": 2.5},
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
