"""A system declared wholly in this module, from parts given by value: a
rotation at angular speed 1/2, the chord 0.6 x + 0.8 y = 1.2 cut to the side
where the orbits enter it, a translate along the chord's normal onto the
parallel line at 0.6, with its preimage, and the band 0.5 <= r <= 2.5.
The angular speed is a parameter of the system, so that a faster rotation
reaches the image within the separation search's cap of 2 pi.

On the circle of radius r the chord is entered at the angle
phi0 - arccos(1.2 / r), phi0 = atan2(0.8, 0.6), and the translate moves the
orbit to the radius sqrt(r^2 - 1.08), so the hit times have a closed form.
"""

from dataclasses import replace

import numpy as np
import pytest

from impulseflow import (
    ImpulsiveSetSpec,
    LinearLevel,
    SystemSpec,
    VectorFieldSpec,
    apply_impulse,
    equivalence_class,
    impulse_preimages,
    impulsive_trajectory_batch,
    quotient_distance,
    separation_report,
    transversality_margin,
)
from conftest import polar

OMEGA = 0.5
NORMAL = np.array([0.6, 0.8])
TANGENT = np.array([-0.8, 0.6])
SHIFT = -0.6 * NORMAL
HORIZON = 60.0


def _system(omega=OMEGA):
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # the side of the chord where a counterclockwise orbit enters it
    entry = (((0.8, -0.6), 0.0),)

    def on_line(c):
        # points c * NORMAL + s * TANGENT, s in [-2, -0.5], inside the band
        return lambda n: c * NORMAL + np.linspace(-2.0, -0.5, n)[:, None] * TANGENT

    def band(x):
        r = np.hypot(x[:, 0], x[:, 1])
        return (r >= 0.5) & (r <= 2.5)

    return SystemSpec(
        name="chord_translate",
        field=VectorFieldSpec(2, lambda x: omega * (x @ rotation)),
        impulsive_sets=(ImpulsiveSetSpec(LinearLevel(NORMAL), 1.2, halfspaces=entry,
                                         sampler=on_line(1.2)),),
        image_sets=(ImpulsiveSetSpec(LinearLevel(NORMAL), 0.6, halfspaces=entry,
                                     sampler=on_line(0.6)),),
        impulse=lambda x, piece: x + SHIFT,
        preimages=lambda p: [p - SHIFT],
        region=band,
    )


def _closed_form_hits(x, horizon):
    phi0 = np.arctan2(0.8, 0.6)
    t, hits = 0.0, []
    while np.hypot(*x) > 1.2:
        r, theta = np.hypot(*x), np.arctan2(x[1], x[0])
        entry = phi0 - np.arccos(1.2 / r)
        t += ((entry - theta) % (2 * np.pi)) / OMEGA
        if t > horizon:
            break
        hits.append(t)
        x = r * np.array([np.cos(entry), np.sin(entry)]) + SHIFT
    return np.array(hits)


@pytest.fixture(scope="module")
def chord():
    return _system()


@pytest.fixture(scope="module")
def orbit(chord):
    # from the angle 1 the orbit first leaves through the chord's exit side,
    # which the halfspace rejects, then enters it four times on radii
    # 2.3, 2.05, 1.77 and 1.43, and ends below the chord on r = 0.98
    return impulsive_trajectory_batch(chord, polar(2.3, 1.0)[None, :], HORIZON, 0.1)


def test_hit_times_match_the_closed_form(orbit):
    expected = _closed_form_hits(polar(2.3, 1.0), HORIZON)
    tr = orbit[0]
    assert len(expected) == 4
    assert tr.n_impulses == 4
    assert np.abs(tr.impulse_times - expected).max() < 1e-9
    assert np.abs(tr.pre_impulse_states @ NORMAL - 1.2).max() < 1e-9
    assert orbit.stats.discarded_crossings >= 1
    assert abs(np.hypot(*tr.final_state) - np.sqrt(2.3 ** 2 - 4 * 1.08)) < 1e-9


def test_impulse_and_preimages_round_trip(chord, orbit):
    tr = orbit[0]
    for pre, post in zip(tr.pre_impulse_states, tr.post_impulse_states):
        assert np.array_equal(apply_impulse(chord, pre), post)
        (back,) = impulse_preimages(chord, post)
        assert np.abs(back - pre).max() < 1e-12
    # off the image line, and on it outside the halfspace, nothing maps there
    assert impulse_preimages(chord, polar(2.0, 1.0)) == []
    assert impulse_preimages(chord, 0.6 * NORMAL + 0.5 * TANGENT) == []


def test_identification_classes(chord, orbit):
    tr = orbit[0]
    pre, post = tr.pre_impulse_states[0], tr.post_impulse_states[0]
    a, b = equivalence_class(chord, pre), equivalence_class(chord, post)
    assert len(a) == len(b) == 2
    assert quotient_distance(a, b) == 0.0
    assert len(equivalence_class(chord, polar(2.0, 1.0))) == 1


@pytest.mark.parametrize("which", ["D", "ID"])
def test_transversality_margin(chord, which):
    # grad L . f = OMEGA (0.8 x - 0.6 y) = -OMEGA s at c NORMAL + s TANGENT,
    # smallest at s = -0.5
    rep = transversality_margin(chord, which, 64)
    assert rep.passed and rep.common_sign == 1
    assert abs(rep.min_abs_inner - 0.5 * OMEGA) < 1e-12



@pytest.mark.parametrize("direction", [0, -1, +1])
def test_separation_margin_matches_the_closed_form(direction):
    # From c NORMAL + s TANGENT on the chord, at the angle -arccos(1.2 / r)
    # from NORMAL, the rotation at speed 2 crosses the image line where its
    # angle reaches 2 pi - arccos(0.6 / r), on the halfspace's side; the
    # crossing at +arccos(0.6 / r) is outside it.  That crossing raises the
    # level, so an image piece declared with direction -1 also counts it.
    fast = _system(omega=2.0)
    fast = replace(fast, image_sets=tuple(
        replace(piece, direction=direction) for piece in fast.image_sets))
    r = np.hypot(1.2, np.linspace(-2.0, -0.5, 50))
    want = (2 * np.pi - np.arccos(0.6 / r) + np.arccos(1.2 / r)) / 2.0
    assert want.min() < 2 * np.pi
    assert abs(separation_report(fast, 50).xi_margin - want.min()) < 1e-9
