"""SHA-256 digests of every CLI output file, for byte-identity checks
between two versions of the package.

    PYTHONPATH=src python3 tests/output_digests.py > digests.txt

Runs, in this process, the five experiments on the five builtin systems at
small sizes (seed 3), the benchmark workloads' calls (perfbench/
workloads.py) at seeds 1, 4 and 7, and the entropy configs of acceptance
criteria 4 and 5 (about 8 s of the total).  Prints one ``sha256  label/file``
line per output, the label being ``experiment/system`` (prefixed with
``bench/<workload>/seed<N>/`` for a benchmark call, ``acceptance/`` for an
acceptance config); a run that fails prints ``FAILED  label: message``
instead.  The manifest is hashed without its
``output_dir`` line, the one line that differs between output directories.
After a run's digest lines, a run with propagation counters in its manifest
(``results.propagation``, or ``results.diagnostics.propagation`` for
entropy) prints them as ``stats  label: {...}``, in sorted-key JSON.

Then come library runs whose steps can span two crossings of the impulsive
set, so that the engine must subdivide them: 64 annulus orbits from r = 1.5
to T = 12 (dt 0.1) with the set moved to the chord y = c just below the
orbit's top, in each crossing direction, with and without the halfspace
x >= 0.1, at three integrator configs.  Each prints ``sha256  scan/label``
over its hits, samples and final states and ``stats  scan/label: RunStats``,
or ``FAILED  scan/label: message``.  They use only the public API, so the
script runs unchanged on older versions.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from impulseflow import (  # noqa: E402
    ImpulsiveSetSpec,
    IntegratorConfig,
    LinearLevel,
    build_fixture,
    impulsive_trajectory_batch,
)
from impulseflow.cli import main  # noqa: E402
from impulseflow.systems import fixture_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "simulate": {"horizon": 20.0, "dt_sample": 0.05},
    "measure": {"horizon": 60.0, "dt_sample": 0.01},
    "entropy": {"T_list": [2.0, 3.0, 4.0], "candidate_count": 128},
    "quotient": {"n_points": 60},
    "check-hypotheses": {"n_samples": 200},
}
BENCH_SEEDS = (1, 4, 7)
# the entropy configs of tests/test_acceptance.py's criteria 4 and 5
ACCEPTANCE = {
    "annulus": {"T_list": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
                "eps_list": [0.2, 0.1, 0.05], "delta_list": [0.3],
                "candidate_count": 4096},
    "doubling_suspension": {"T_list": [float(T) for T in range(2, 11)],
                            "eps_list": [0.1], "delta_list": [0.1],
                            "candidate_count": 4096},
}
CHORDS = (1.49, 1.499, 1.4999, 1.49999)
CONFIGS = {
    "coarse": IntegratorConfig(abs_tol=1e-3, rel_tol=1e-3, max_step=0.5),
    "loose": IntegratorConfig(abs_tol=1e-6, rel_tol=1e-6, max_step=0.9),
    "default": IntegratorConfig(),
}
_OUTPUT_DIR_LINE = re.compile(rb'\n *"output_dir": "[^"\n]*",?')


def calls():
    """(label, experiment, config) of every run, in a fixed order."""
    for experiment, params in SMALL.items():
        for name in fixture_names():
            yield (f"{experiment}/{name}", experiment,
                   {"system": {"name": name}, "seed": 3, "params": params})
    for workload, spec in WORKLOADS.items():
        for seed in BENCH_SEEDS:
            for call, _ in spec.calls(seed):
                yield (f"bench/{workload}/seed{seed}/{call.experiment}/"
                       f"{call.config['system']['name']}",
                       call.experiment, call.config)
    for name, params in ACCEPTANCE.items():
        yield (f"acceptance/entropy/{name}", "entropy",
               {"system": {"name": name}, "seed": 0, "params": params})


def digests(work: Path):
    """One listing line per output file of every run in ``calls``, and one
    of its propagation counters where its manifest has them."""
    for i, (label, experiment, config) in enumerate(calls()):
        cfg, out = work / f"c{i}.json", work / f"run{i}"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([experiment, "--config", str(cfg), "--out", str(out)])
        if rc != 0:
            yield f"FAILED  {label}: {err.getvalue().strip()}"
            continue
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = _OUTPUT_DIR_LINE.sub(b"", data)
            yield f"{hashlib.sha256(data).hexdigest()}  {label}/{path.name}"
        results = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["results"]
        counters = results.get("propagation", results.get("diagnostics", {}).get("propagation"))
        if counters is not None:
            yield f"stats  {label}: {json.dumps(counters, sort_keys=True)}"


def chord_systems():
    """(label, system) of the annulus with its impulsive set moved to a chord
    y = c, the impulse taking it to y = -1."""
    annulus = build_fixture("annulus")
    for c in CHORDS:
        for direction in (-1, 0, 1):
            for cut in (False, True):
                piece = ImpulsiveSetSpec(
                    LinearLevel((0.0, 1.0)), c, direction=direction,
                    halfspaces=(((1.0, 0.0), 0.1),) if cut else ())
                offset = np.array([0.0, -(c + 1.0)])
                yield (f"c{c}/dir{direction:+d}/{'x>=0.1' if cut else 'all'}",
                       dataclasses.replace(
                           annulus, name="annulus_chord", impulsive_sets=(piece,),
                           image_sets=(ImpulsiveSetSpec(LinearLevel((0.0, 1.0)), -1.0),),
                           impulse=lambda x, _, offset=offset: x + offset,
                           preimages=lambda p, offset=offset: [p - offset]))


def scan_digests():
    """Two listing lines per chord run of every config: the outputs'
    digest and the work counters."""
    angles = 2 * np.pi * np.arange(64) / 64
    X = 1.5 * np.c_[np.cos(angles), np.sin(angles)]
    for label, system in chord_systems():
        for name, cfg in CONFIGS.items():
            label_cfg = f"scan/{label}/{name}"
            try:
                b = impulsive_trajectory_batch(system, X, 12.0, 0.1, cfg)
            except Exception as e:  # noqa: BLE001 - a failure is a listing line
                yield f"FAILED  {label_cfg}: {type(e).__name__}: {e}"
                continue
            data = b"".join(a.tobytes() for a in (
                b.hit_offsets, b.hit_times, b.pre_impulse_states,
                b.post_impulse_states, b.samples, b.final_states))
            yield f"{hashlib.sha256(data).hexdigest()}  {label_cfg}"
            yield f"stats  {label_cfg}: {b.stats}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(Path(tmp)):
            print(line, flush=True)
    for line in scan_digests():
        print(line, flush=True)
