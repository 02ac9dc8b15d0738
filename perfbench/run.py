"""The impulseflow benchmark: runs the CLI experiments users run, each
workload in fresh processes (one per CPU at a time, at most two), and checks
every result against its acceptance bound.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src/`` and exits with code 2 when that is missing.

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter until the
first experiment call is ready, median over several processes), wall_s
(experiment calls until manifest.json is written, summed over the workload's
calls, median over the processes run), peak_rss_mb (median of the processes'
peak resident memory) and pass_frac (calls that exit 0 with a result inside
its bound, over calls attempted).  setup_s and wall_s are CPU times scaled to
a reference CPU speed by a speed meter that shares each process's CPU (see
meter.py); the plain wall-clock medians are printed on the ``workload`` line.

--trace 1 runs the workload untraced, traced, then untraced again, and prints the
per-layer metrics listed in perfbench/layers.json: self time, span time and
work counts per wrapped name (see spans.py), the entropy table's cell counts,
bytes written, and trace.overhead_frac.  End-to-end numbers never come from a
traced process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import meter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# BLAS pinned to one thread; one lane of worker processes per CPU, at most two
BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS")}
LANE_CPUS = tuple(sorted(os.sched_getaffinity(0))[:2])
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
HARD_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}


class WorkerError(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Worker:
    proc: subprocess.Popen
    t0: float
    tag: str
    lane: int


class Session:
    """Runs worker processes for one workload and seed, one per lane at a
    time, under a hard deadline.  Lane ``k`` is pinned to CPU ``cpus[k]``."""

    def __init__(self, workload: str, seed: int, work: Path, started: float,
                 cpus: tuple):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = started
        self.cpus = tuple(cpus)
        self.lanes = len(self.cpus)
        self.count = 0
        self.versions = {}

    def _pin(self, lane: int):
        cpu = self.cpus[lane]
        return lambda: os.sched_setaffinity(0, {cpu})

    def _start(self, setup_only: bool, trace: bool, lane: int) -> Worker:
        self.count += 1
        tag = f"p{self.count}"
        t0 = _monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--t0", repr(t0), "--work", str(self.work / tag),
               "--result", str(self.work / f"{tag}.json")]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        proc = subprocess.Popen(cmd, env=dict(os.environ, **BLAS_PIN),
                                stdout=sys.stderr, preexec_fn=self._pin(lane))
        return Worker(proc, t0, tag, lane)

    def _wait_any(self, running: list) -> Worker:
        while True:
            for w in running:
                if w.proc.poll() is not None:
                    return w
            if _monotonic() - self.started > HARD_LIMIT_S:
                raise WorkerError(f"a worker was still running after {HARD_LIMIT_S:.0f} s")
            time.sleep(0.01)

    def _finish(self, w: Worker) -> dict:
        result_path = self.work / f"{w.tag}.json"
        if w.proc.returncode != 0 or not result_path.is_file():
            raise WorkerError(f"worker exited with code {w.proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["process_s"] = _monotonic() - w.t0
        result["dir"] = self.work / w.tag
        result["lane"] = w.lane
        self.versions = result["versions"]
        return result

    def run(self, n=None, until=None, setup_only=False, trace=False) -> list:
        """Run worker processes, up to ``lanes`` at a time, and return their
        results in the order they end: ``n`` of them or, with ``until``, one
        per lane and then another each time one ends, until
        ``until(result)`` is true.  Every worker started has ended on
        return, also when this raises."""
        results, running = [], []
        left = self.lanes if n is None else n
        try:
            while left or running:
                while left and len(running) < self.lanes:
                    busy = {w.lane for w in running}
                    lane = min(k for k in range(self.lanes) if k not in busy)
                    running.append(self._start(setup_only, trace, lane))
                    left -= 1
                done = self._wait_any(running)
                running.remove(done)
                results.append(self._finish(done))
                if until is not None and not until(results[-1]):
                    left += 1
            return results
        finally:
            for w in running:
                w.proc.kill()
                w.proc.wait()

    def spawn(self, **kw) -> dict:
        return self.run(1, **kw)[0]

    @contextlib.contextmanager
    def meters(self):
        """Runs one speed meter (meter.py) on each lane's CPU while the block
        runs; yields a dict that holds each lane's meter log afterwards."""
        paths = [self.work / f"meter{lane}.log" for lane in range(self.lanes)]
        logs, procs = {}, []
        try:
            for cpu, path in zip(self.cpus, paths):
                procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "meter.py"), "--cpu", str(cpu),
                     "--log", str(path)]))
            # the meters import numpy first: wait until each has logged a rate
            while not all(p.is_file() and len(meter.read_log(p)) >= 2 for p in paths):
                if any(proc.poll() is not None for proc in procs):
                    raise WorkerError("a speed meter exited")
                if _monotonic() - self.started > HARD_LIMIT_S:
                    raise WorkerError("the speed meters logged no rate")
                time.sleep(meter.ROW_S)
            yield logs
        finally:
            for proc in procs:
                proc.terminate()
                proc.wait()
        for lane, path in enumerate(paths):
            logs[lane] = meter.read_log(path)


def _count(results):
    calls = [c for r in results for c in r["calls"]]
    return len(calls), sum(not c["ok"] for c in calls), calls


def at_reference_speed(result: dict, logs: dict) -> dict:
    """A worker's set-up and call CPU times at the meter's reference speed,
    from its lane's meter log over the interval each was spent in."""
    rows = logs[result["lane"]]
    out = {"setup_s": meter.at_reference_speed(result["setup_cpu_s"], rows,
                                               *result["setup_span"])}
    if "cpu_s" in result:
        out["wall_s"] = meter.at_reference_speed(result["cpu_s"], rows,
                                                 *result["calls_span"])
    return out


def measure_untraced(session: Session, seconds: float) -> dict:
    # set-up probes go before and after the workload processes, so the
    # set-up median samples the whole run rather than its first seconds
    lanes = session.lanes
    with session.meters() as logs:
        probes = session.run(SETUP_PROBES_BEFORE * lanes, setup_only=True)
        probe_s = (_monotonic() - session.started) / SETUP_PROBES_BEFORE
        # a lane starts another process only if it should end, and the set-up
        # probes after it too, within the run's seconds
        runs = session.run(until=lambda r: _monotonic() - session.started
                           + r["process_s"] + SETUP_PROBES_AFTER * probe_s > seconds)
        probes += session.run(SETUP_PROBES_AFTER * lanes, setup_only=True)
    setups = [at_reference_speed(r, logs)["setup_s"] for r in probes + runs]
    walls = [at_reference_speed(r, logs)["wall_s"] for r in runs]
    attempted, failed, calls = _count(runs)
    return {
        "attempted": attempted, "failed": failed, "calls": calls,
        "info": {"lanes": lanes, "processes": len(runs), "setup_samples": len(setups),
                 "wall_samples": walls,
                 "sample_lanes": [r["lane"] for r in runs],
                 "sample_cpu_s": [r["cpu_s"] for r in runs],
                 "sample_meter_rates": [meter.rate(logs[r["lane"]], *r["calls_span"])
                                        for r in runs],
                 "raw_wall_median_s": statistics.median(r["wall_s"] for r in runs),
                 "raw_setup_median_s": statistics.median(
                     r["setup_s"] for r in probes + runs)},
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "pass_frac": (attempted - failed) / attempted,
        },
    }


def layer_metric(name: str, traced: dict, untraced_wall_s: float) -> float:
    """Value of one per-layer metric from a traced process and the untraced
    wall time it is compared with."""
    layers = traced["layers"]
    table = traced["entropy_table"]
    special = {
        "trace.overhead_frac": lambda: (traced["wall_s"] - untraced_wall_s)
        / untraced_wall_s,
        "trace.wall_s": lambda: traced["wall_s"],
        "trace.self_sum_s": lambda: sum(v["self_s"] for v in layers.values()),
        "cli.output_bytes": lambda: traced["output_bytes"],
        "entropy.admit_ratio": lambda: (table["admitted"] / table["candidates"]
                                        if table else 0.0),
    }
    if name in special:
        return float(special[name]())
    layer, _, stat = name.rpartition(".")
    if layer == "entropy" and stat in ("cells", "admitted", "saturated_cells"):
        return float(table.get(stat, 0))
    return float(layers.get(layer, {}).get(stat, 0))


def measure_traced(session: Session) -> dict:
    # untraced processes on both sides of the traced one, so a drift in
    # machine speed cancels to first order in trace.overhead_frac
    before = session.spawn()
    traced = session.spawn(trace=True)
    after = session.spawn()
    untraced_wall_s = (before["wall_s"] + after["wall_s"]) / 2
    spans_file = traced["dir"] / "spans.npz"
    if spans_file.is_file():
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        dest = out / f"{session.workload}-seed{session.seed}.spans.npz"
        shutil.move(str(spans_file), dest)
        print(f"spans {dest.relative_to(ROOT)}")
    attempted, failed, calls = _count([before, traced, after])
    units = {}
    for m in json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]:
        units[m["name"]] = m["unit"]
    return {
        "attempted": attempted, "failed": failed, "calls": calls,
        "info": {"untraced_wall_s": [before["wall_s"], after["wall_s"]]},
        "metrics": {name: layer_metric(name, traced, untraced_wall_s)
                    for name in units},
        "units": units,
    }


def machine_facts(versions: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            **versions, "blas_threads": BLAS_PIN}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = _monotonic()
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(name, seed, work, started, LANE_CPUS)
        res = measure_traced(session) if trace else measure_untraced(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res.setdefault("units", END_TO_END_UNITS)
    print(f"machine {json.dumps(machine_facts(session.versions), sort_keys=True)}")
    print(f"workload {name} seed {seed} seeded_inputs {WORKLOADS[name].seeded} "
          f"trace {int(trace)} elapsed_s {_monotonic() - started:.1f} "
          f"{json.dumps(res['info'])}")
    for c in res["calls"]:
        print(f"call {c['experiment']}/{c['system']} wall_s {c['wall_s']!r} rc {c['rc']}")
        for ch in c["checks"]:
            print(f"check {c['experiment']}/{c['system']} {ch['name']}={ch['value']!r} "
                  f"bound {ch['bound']} {'ok' if ch['ok'] else 'FAIL'} margin {ch['margin']!r}")
        if c["rc"] != 0:
            print(f"check {c['experiment']}/{c['system']} exit code {c['rc']} FAIL")
    for metric, value in res["metrics"].items():
        print(f"metric {metric} {value!r} {res['units'][metric]}")
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measuring time per workload (at least one process runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "impulseflow" / "__init__.py").is_file():
        print(f"error: no impulseflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # a terminated run still kills and waits for its workers and meters, and
    # removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
        units = results[names[0]]["units"]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = {f"{n}.{k}": {"value": v, "unit": r["units"][k]}
                   for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
