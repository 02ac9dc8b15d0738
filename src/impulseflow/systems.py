"""Builtin fixture catalog.

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

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .flow_core import VectorFieldSpec
from .impulsive_system import ImpulseMapSpec, ImpulsiveSetSpec, SystemSpec

__all__ = [
    "FixtureDescriptor",
    "FIXTURES",
    "fixture_names",
    "build_fixture",
    "sample_impulsive_set",
    "candidate_cloud",
]


@dataclass(frozen=True)
class FixtureDescriptor:
    name: str
    summary: str
    default_overrides: Mapping[str, object]
    builder: Callable


def _tuple_of(value) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),)
    return tuple(float(v) for v in value)


def _no_overrides(name: str, overrides) -> None:
    if overrides:
        raise ValueError(f"unknown {name} overrides {sorted(overrides)}: "
                         "this fixture takes none")


def _build_annulus(overrides) -> SystemSpec:
    _no_overrides("annulus", overrides)
    d_set = ImpulsiveSetSpec(
        level_id="coord1", level_value=0.0,
        halfspaces=(((1.0, 0.0), 1.0), ((-1.0, 0.0), -2.0)),
        direction=+1,
    )
    image = ImpulsiveSetSpec(
        level_id="coord1", level_value=0.0,
        halfspaces=(((1.0, 0.0), -1.5), ((-1.0, 0.0), 1.0)),
    )
    return SystemSpec(
        name="annulus",
        field=VectorFieldSpec("annulus"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("annulus_fold"),
        admissible_id="annulus_band",
        admissible_params={"rmin": 1.0, "rmax": 2.0},
    )


def _build_prey_predator(overrides) -> SystemSpec:
    ov = dict(overrides)
    xi = _tuple_of(ov.pop("xi", 1.0))
    eta = _tuple_of(ov.pop("eta", 2.0))
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
        ImpulsiveSetSpec("sum", c, halfspaces=octant, direction=-1) for c in xi
    )
    images = tuple(ImpulsiveSetSpec("sum", c, halfspaces=octant) for c in eta)
    return SystemSpec(
        name="prey_predator",
        field=VectorFieldSpec("prey_predator", ov),
        impulsive_sets=d_sets,
        image_sets=images,
        impulse=ImpulseMapSpec("plane_rescale", {"xi": xi, "eta": eta}),
        admissible_id="nonneg_octant",
    )


def _build_doubling(overrides) -> SystemSpec:
    _no_overrides("doubling_suspension", overrides)
    d_set = ImpulsiveSetSpec(level_id="coord2", level_value=1.0, direction=+1)
    image = ImpulsiveSetSpec(level_id="coord2", level_value=0.0)
    return SystemSpec(
        name="doubling_suspension",
        field=VectorFieldSpec("doubling_suspension"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("angle_double"),
        # small headroom above the top circle keeps tube probes inside the chart
        admissible_id="cylinder",
        admissible_params={"hmax": 1.25},
    )


def _build_static_null(overrides) -> SystemSpec:
    _no_overrides("static_null", overrides)
    d_set = ImpulsiveSetSpec(
        level_id="coord0", level_value=1.0,
        halfspaces=(((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0)),
        direction=+1,
    )
    image = ImpulsiveSetSpec(
        level_id="coord0", level_value=0.25,
        halfspaces=(((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0)),
    )
    return SystemSpec(
        name="static_null",
        field=VectorFieldSpec("static_null"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("translate", {"offset": (-0.75, 0.0)}),
        admissible_id="box",
        admissible_params={"lo": (0.0, 0.0), "hi": (1.0, 1.0)},
    )


def _build_tangent_degenerate(overrides) -> SystemSpec:
    _no_overrides("tangent_degenerate", overrides)
    d_set = ImpulsiveSetSpec(level_id="radius", level_value=1.5)
    image = ImpulsiveSetSpec(level_id="radius", level_value=0.75)
    return SystemSpec(
        name="tangent_degenerate",
        field=VectorFieldSpec("tangent_degenerate"),
        impulsive_sets=(d_set,),
        image_sets=(image,),
        impulse=ImpulseMapSpec("radius_rescale", {"xi": 1.5, "eta": 0.75}),
        admissible_id="annulus_band",
        admissible_params={"rmin": 0.5, "rmax": 2.5},
    )


FIXTURES: dict[str, FixtureDescriptor] = {
    "annulus": FixtureDescriptor(
        "annulus",
        "rotation on the annulus with a folding impulse; contracts to the "
        "circle r = 1, zero entropy",
        {},
        _build_annulus,
    ),
    "prey_predator": FixtureDescriptor(
        "prey_predator",
        "controlled three-species system, plane impulsive sets rescaled "
        "outward; all ten field parameters and xi/eta may be overridden",
        {"xi": 1.0, "eta": 2.0},
        _build_prey_predator,
    ),
    "doubling_suspension": FixtureDescriptor(
        "doubling_suspension",
        "unit-time suspension of angle doubling on a cylinder; entropy log 2, "
        "two-to-one impulse map",
        {},
        _build_doubling,
    ),
    "static_null": FixtureDescriptor(
        "static_null",
        "zero field, unreachable impulsive edge; the null control",
        {},
        _build_static_null,
    ),
    "tangent_degenerate": FixtureDescriptor(
        "tangent_degenerate",
        "rotation with a tangent circle as impulsive set; transversality "
        "must fail",
        {},
        _build_tangent_degenerate,
    ),
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def build_fixture(name: str, overrides: Mapping[str, object] | None = None,
                  **kw) -> SystemSpec:
    """Construct a validated SystemSpec for a builtin fixture.

    Overrides may be passed as a mapping or as keyword arguments; unknown
    names and invalid values raise ValueError.
    """
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; choose from {fixture_names()}")
    merged = dict(FIXTURES[name].default_overrides)
    merged.update(overrides or {})
    merged.update(kw)
    return FIXTURES[name].builder(merged)


# --------------------------------------------------------------------------
# Set samplers and candidate clouds
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


def _pieces(sys: SystemSpec, which: str) -> tuple[ImpulsiveSetSpec, ...]:
    if which in ("D", "d"):
        return sys.impulsive_sets
    if which in ("ID", "I(D)", "id", "image"):
        return sys.image_sets
    raise ValueError("which must be 'D' or 'ID'")


def sample_impulsive_set(sys: SystemSpec, which: str, n: int) -> np.ndarray:
    """Quasi-uniform (Halton) samples of the impulsive set or of its image.

    Multi-piece sets split the budget evenly across pieces.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    pieces = _pieces(sys, which)
    per = [n // len(pieces)] * len(pieces)
    per[0] += n - sum(per)
    out = []
    for piece, m in zip(pieces, per):
        if m == 0:
            continue
        out.append(_sample_piece(sys, piece, m))
    return np.vstack(out)


def _sample_piece(sys: SystemSpec, piece: ImpulsiveSetSpec, n: int) -> np.ndarray:
    name = sys.name
    c = piece.level_value
    if name == "annulus":
        u = _halton(1, n)[:, 0]
        if piece.halfspaces and piece.halfspaces[0][1] >= 1.0:   # the D segment
            x = 1.0 + u
        else:                                                    # the image segment
            x = -1.5 + 0.5 * u
        return np.c_[x, np.zeros(n)]
    if name == "prey_predator":
        uv = _halton(2, n)
        s = np.sqrt(uv[:, 0])
        b1 = 1.0 - s
        b2 = s * (1.0 - uv[:, 1])
        b3 = s * uv[:, 1]
        return c * np.c_[b1, b2, b3]
    if name == "doubling_suspension":
        ang = 2 * np.pi * _halton(1, n)[:, 0]
        return np.c_[np.cos(ang), np.sin(ang), np.full(n, c)]
    if name == "static_null":
        u = _halton(1, n)[:, 0]
        return np.c_[np.full(n, c), u]
    if name == "tangent_degenerate":
        ang = 2 * np.pi * _halton(1, n)[:, 0]
        return c * np.c_[np.cos(ang), np.sin(ang)]
    raise ValueError(f"no sampler for system {name!r}")


def candidate_cloud(sys: SystemSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Candidate states for separated-set construction.

    Random fixtures draw from ``rng``; the doubling suspension uses the
    deterministic uniform angular grid at height zero, the customary choice
    for counting distinguishable angle itineraries.
    """
    name = sys.name
    if name == "annulus":
        r = np.sqrt(rng.uniform(1.0, 4.0, n))
        ang = rng.uniform(0.0, 2 * np.pi, n)
        return np.c_[r * np.cos(ang), r * np.sin(ang)]
    if name == "prey_predator":
        xi = min(sys.impulse.params["xi"])
        eta = max(sys.impulse.params["eta"])
        s = rng.uniform(xi + 0.05 * (eta - xi), eta - 0.05 * (eta - xi), n)
        bary = rng.dirichlet((1.0, 1.0, 1.0), size=n)
        return bary * s[:, None]
    if name == "doubling_suspension":
        ang = 2 * np.pi * np.arange(n) / n
        return np.c_[np.cos(ang), np.sin(ang), np.zeros(n)]
    if name == "static_null":
        return rng.uniform(0.0, 1.0, size=(n, 2))
    if name == "tangent_degenerate":
        r = np.sqrt(rng.uniform(0.36, 5.76, n))
        ang = rng.uniform(0.0, 2 * np.pi, n)
        return np.c_[r * np.cos(ang), r * np.sin(ang)]
    raise ValueError(f"no candidate cloud for system {name!r}")
