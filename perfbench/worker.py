"""One fresh process of a workload: import the package, then run the
workload's CLI calls back to back and check each result.

    python3 perfbench/worker.py --workload NAME --seed N --t0 MONOTONIC
        --work DIR --result FILE [--setup-only] [--trace]

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time counts interpreter start-up and every import.  The
result is written as JSON to ``--result``.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_call, entropy_table_stats


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def call_record(call, kind: str, outdir: Path, rc: int,
                wall_s: float = 0.0) -> dict:
    """Outcome of one CLI call: it passes when it exits 0 and every check of
    its outputs lies inside the acceptance bound."""
    checks = check_call(kind, outdir) if rc == 0 else []
    return {
        "experiment": call.experiment,
        "system": call.config["system"]["name"],
        "rc": rc,
        "wall_s": wall_s,
        "ok": rc == 0 and all(c.ok for c in checks),
        "checks": [vars(c) for c in checks],
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import impulseflow
    from impulseflow import cli
    if Path(impulseflow.__file__).resolve().parent != src / "impulseflow":
        print(f"error: imported impulseflow from {impulseflow.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, (call, kind) in enumerate(WORKLOADS[args.workload].calls(args.seed)):
        cfg_path = work / f"call{i}.json"
        cfg_path.write_text(json.dumps(call.config), encoding="utf-8")
        argvs.append((call, kind, work / f"call{i}",
                      [call.experiment, "--config", str(cfg_path),
                       "--out", str(work / f"call{i}")]))
    ready = _monotonic()

    # CPU times and the intervals they were spent in let the parent scale
    # them to a reference CPU speed (see meter.py)
    result = {"setup_s": ready - args.t0,
              "setup_cpu_s": time.process_time(),
              "setup_span": [args.t0, ready],
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            missing = spans.install(tracer)
            if missing:
                print(f"warning: not traced (name not found): {missing}",
                      file=sys.stderr)
        calls, wall_s, cpu_s, output_bytes, table = [], 0.0, 0.0, 0, {}
        calls_start = _monotonic()
        for call, kind, outdir, argv in argvs:
            t, c = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects the arguments
                rc = e.code if isinstance(e.code, int) else 2
            call_s = time.perf_counter() - t
            wall_s += call_s
            cpu_s += time.process_time() - c
            calls.append(call_record(call, kind, outdir, rc, call_s))
            if tracer is not None and rc == 0:
                output_bytes += _dir_bytes(outdir)
                if call.experiment == "entropy":
                    stats = entropy_table_stats(
                        outdir, call.config["params"]["candidate_count"])
                    for key, value in stats.items():
                        table[key] = table.get(key, 0) + value
            shutil.rmtree(outdir, ignore_errors=True)
        # the checks and clean-up between calls are a few ms of this span
        result.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            calls_span=[calls_start, _monotonic()],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            calls=calls)
        if tracer is not None:
            result["layers"] = spans.layer_totals(tracer)
            result["entropy_table"] = table
            result["output_bytes"] = output_bytes
            tracer.save(work / "spans.npz")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
