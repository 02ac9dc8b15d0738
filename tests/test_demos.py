"""The narrative demos run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import impulseflow

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_impulsive_orbits", "02_hypothesis_checks",
                                  "03_occupation_measures", "04_entropy_growth",
                                  "05_quotient_metric"])
def test_demo_exits_0(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(impulseflow.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
