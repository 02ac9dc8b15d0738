"""SHA-256 digests of every CLI output file, for byte-identity checks
between two versions of the package.

    PYTHONPATH=src python3 tests/output_digests.py > digests.txt

Runs, in this process, the five experiments on the five builtin systems at
small sizes (seed 3), and the benchmark workloads' calls (perfbench/
workloads.py) at seeds 1, 4 and 7.  Prints one ``sha256  label/file`` line
per output, the label being ``experiment/system`` (prefixed with
``bench/<workload>/seed<N>/`` for a benchmark call); a run that fails prints
``FAILED  label: message`` instead.  The manifest is hashed without its
``output_dir`` line, the one line that differs between output directories.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

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


def digests(work: Path):
    """One listing line per output file of every run in ``calls``."""
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(Path(tmp)):
            print(line, flush=True)
