import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import impulseflow
from impulseflow import (
    apply_impulse,
    build_fixture,
    candidate_cloud,
    eval_vector_field,
    first_hitting_time,
    fixture_names,
    impulse_preimages,
    sample_impulsive_set,
)
from impulseflow.systems import _halton, sample_pieces


def test_all_fixtures_build():
    for name in fixture_names():
        sys_spec = build_fixture(name)
        assert sys_spec.name == name
        assert sys_spec.dim in (2, 3)


def test_unknown_fixture():
    with pytest.raises(ValueError, match="unknown fixture"):
        build_fixture("moebius")


@pytest.mark.parametrize("name", fixture_names())
def test_unknown_override_rejected(name):
    with pytest.raises(ValueError, match="unknown"):
        build_fixture(name, {"no_such_parameter": 1.0})


def test_halton_matches_scipy():
    qmc = pytest.importorskip("scipy.stats").qmc
    for n in (1, 2, 7, 64, 1000, 10007):
        for dim in (1, 2):
            assert np.array_equal(_halton(dim, n),
                                  qmc.Halton(d=dim, scramble=False).random(n))


def test_import_leaves_scipy_out():
    # importing scipy's submodules costs more start-up time than any use the
    # package had for them; nothing loads scipy, at import or in a run of the
    # two analyses that once used its k-d tree
    code = """
import sys
import impulseflow, impulseflow.cli
from impulseflow import EntropyConfig, build_fixture, entropy_estimate, separation_report
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
annulus = build_fixture("annulus")
entropy_estimate(annulus, EntropyConfig(T_list=(2.0, 4.0), eps_list=(0.2,),
                                        delta_list=(0.3,), candidate_count=16))
separation_report(annulus, 50)
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(impulseflow.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.split("\n") == ["[]", "[]", ""]


def test_runs_leave_numpy_ma_out(tmp_path):
    # numpy.ma costs 11-18 ms of start-up: neither the import nor a run of
    # any of the four analyses through the CLI loads it
    code = f"""
import json, sys
from pathlib import Path
from impulseflow.cli import main
print("numpy.ma" in sys.modules)
tmp = Path({str(tmp_path)!r})
runs = [("entropy", {{"system": {{"name": "annulus"}}, "params": {{
            "T_list": [2.0, 4.0], "eps_list": [0.2], "delta_list": [0.3],
            "candidate_count": 16}}}}),
        ("measure", {{"system": {{"name": "annulus"}},
                      "params": {{"horizon": 20.0, "dt_sample": 0.05}}}}),
        ("check-hypotheses", {{"system": {{"name": "annulus"}},
                               "params": {{"n_samples": 50}}}}),
        ("quotient", {{"system": {{"name": "doubling_suspension"}},
                       "params": {{"n_points": 20}}}})]
for i, (experiment, cfg) in enumerate(runs):
    (tmp / f"c{{i}}.json").write_text(json.dumps(cfg))
    rc = main([experiment, "--config", str(tmp / f"c{{i}}.json"),
               "--out", str(tmp / f"run{{i}}")])
    print(experiment, rc, "numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(impulseflow.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.split("\n") == [
        "False", "entropy 0 False", "measure 0 False",
        "check-hypotheses 0 False", "quotient 0 False", ""]


def test_annulus_segment_endpoints(annulus):
    d = sample_impulsive_set(annulus, "D", 64)
    assert np.allclose(d[:, 1], 0.0)
    assert d[:, 0].min() >= 1.0 and d[:, 0].max() <= 2.0
    image = sample_impulsive_set(annulus, "ID", 64)
    assert image[:, 0].min() >= -1.5 and image[:, 0].max() <= -1.0


def test_prey_predator_overrides():
    sys_spec = build_fixture("prey_predator", {"xi": 0.5, "eta": 1.5, "mu1": 2.0})
    assert sys_spec.impulsive_sets[0].level_value == 0.5
    # x3' = -mu1 x3 / (1 + x1 + x2) at the unit point
    assert eval_vector_field(sys_spec.field, np.ones(3))[2] == -2.0 / 3.0
    with pytest.raises(ValueError, match="> 0"):
        build_fixture("prey_predator", {"gamma2": -1.0})
    with pytest.raises(ValueError, match="disjoint"):
        build_fixture("prey_predator", {"xi": 1.0, "eta": 1.0})


def test_prey_predator_multi_plane():
    sys_spec = build_fixture("prey_predator", {"xi": (0.5, 1.0), "eta": (2.0, 3.0)})
    assert len(sys_spec.impulsive_sets) == 2
    # first hit from between the planes lands on the higher one
    tau, hit = first_hitting_time(sys_spec, np.array([0.5, 0.4, 0.3]), 30.0)
    assert abs(hit.sum() - 1.0) < 1e-9


def test_samples_lie_on_their_sets(prey_predator, doubling):
    for sys_spec in (prey_predator, doubling):
        for which, pieces in (("D", sys_spec.impulsive_sets),
                              ("ID", sys_spec.image_sets)):
            pts = sample_impulsive_set(sys_spec, which, 50)
            ok = np.zeros(len(pts), dtype=bool)
            for piece in pieces:
                ok |= piece.contains(pts, tol=1e-9)
            assert ok.all()


def test_candidate_clouds_admissible(rng):
    for name in fixture_names():
        sys_spec = build_fixture(name)
        pts = candidate_cloud(sys_spec, 100, rng)
        assert sys_spec.admissible(pts).all()


def test_doubling_cloud_is_angular_grid(doubling, rng):
    pts = candidate_cloud(doubling, 16, rng)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    expected = np.angle(np.exp(1j * (2 * np.pi * np.arange(16) / 16)))
    assert np.allclose(ang, expected)
    assert np.allclose(pts[:, 2], 0.0)


def test_image_disjoint_from_set(annulus, prey_predator, doubling):
    for sys_spec in (annulus, prey_predator, doubling):
        image_pts = sample_impulsive_set(sys_spec, "ID", 40)
        for p in image_pts:
            assert sys_spec.in_impulsive_set(p, tol=1e-7) == -1


def test_static_null_never_fires():
    static = build_fixture("static_null")
    assert first_hitting_time(static, np.array([0.5, 0.5]), 50.0) is None


@pytest.mark.parametrize("name", fixture_names())
def test_builtin_per_system_data(name, rng):
    sys_spec = build_fixture(name)
    # every piece's samples lie on that piece, and the pieces' samples
    # together are the set's samples
    for which in ("D", "ID"):
        pairs = sample_pieces(sys_spec, which, 50)
        assert sum(len(pts) for _, pts in pairs) == 50
        for piece, pts in pairs:
            assert pts.shape[1] == sys_spec.dim
            assert piece.contains(pts, tol=1e-9).all()
        assert np.array_equal(np.vstack([pts for _, pts in pairs]),
                              sample_impulsive_set(sys_spec, which, 50))
    # the candidate cloud lies in the default measure box and in the
    # admissible region
    lo, hi = (np.array(corner) for corner in sys_spec.box)
    assert lo.shape == hi.shape == (sys_spec.dim,) and (lo < hi).all()
    pts = candidate_cloud(sys_spec, 200, rng)
    assert pts.shape == (200, sys_spec.dim)
    assert ((pts >= lo) & (pts <= hi)).all()
    assert sys_spec.admissible(pts).all()


@pytest.mark.parametrize("name", fixture_names())
def test_impulse_maps_onto_the_image_and_inverts(name):
    # the impulse image of every sample of D lies on a piece of I(D), and
    # the sample is among the preimages of its image
    sys_spec = build_fixture(name)
    for x in sample_impulsive_set(sys_spec, "D", 40):
        image = apply_impulse(sys_spec, x)
        assert any(piece.contains(image) for piece in sys_spec.image_sets)
        pre = impulse_preimages(sys_spec, image)
        assert min(np.abs(q - x).max() for q in pre) < 1e-12


def test_multi_plane_pieces_sample_their_own_planes():
    sys_spec = build_fixture("prey_predator", {"xi": (0.5, 1.0), "eta": (2.0, 3.0)})
    for which, levels in (("D", (0.5, 1.0)), ("ID", (2.0, 3.0))):
        pairs = sample_pieces(sys_spec, which, 51)
        assert [len(pts) for _, pts in pairs] == [26, 25]
        for (piece, pts), c in zip(pairs, levels):
            assert piece.level_value == c
            assert np.allclose(pts.sum(axis=1), c, rtol=0, atol=1e-12)


@pytest.mark.parametrize("which", ["d", "I(D)", "id", "image", "DI", ""])
def test_sample_pieces_takes_only_d_and_id(annulus, which):
    with pytest.raises(ValueError, match="which must be 'D' or 'ID'"):
        sample_pieces(annulus, which, 10)
