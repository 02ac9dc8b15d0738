"""Tests of the benchmark itself: self-time arithmetic, span recording, the
correctness gate and its failure count, the speed meter, and BENCHMARK.json
consistency.

    python3 -m pytest perfbench -q
"""

import contextlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import meter  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from worker import call_record  # noqa: E402
from workloads import WORKLOADS, check_call  # noqa: E402


# --------------------------------------------------------------------------
# Self-time arithmetic
# --------------------------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    parents = np.array([-1, 0, 1, 0])
    durations = np.array([10.0, 3.0, 1.0, 4.0])
    selfs = spans.self_times(parents, durations)
    np.testing.assert_allclose(selfs, [3.0, 2.0, 1.0, 4.0])
    assert selfs.sum() == pytest.approx(durations[parents == -1].sum())


def test_self_times_of_two_roots_add_up_to_their_durations():
    parents = np.array([-1, 0, 0, -1, 3])
    durations = np.array([5.0, 1.0, 1.5, 2.0, 2.0])
    selfs = spans.self_times(parents, durations)
    np.testing.assert_allclose(selfs, [2.5, 1.0, 1.5, 0.0, 2.0])
    assert selfs.sum() == pytest.approx(7.0)


class FakeClock:
    """Each reading is one second after the previous one."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nesting_counts_and_exceptions():
    tracer = spans.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda xs: xs[::-1],
                       count=lambda a, k, r: {"rows": len(a[0])})

    def failing():
        raise ValueError("boom")

    bad = tracer.wrap("bad", failing)

    def outer_fn():
        leaf([1, 2, 3])
        leaf([4])
        with pytest.raises(ValueError):
            bad()
        return "done"

    outer = tracer.wrap("outer", outer_fn)
    assert outer() == "done"
    totals = spans.layer_totals(tracer)
    # clock readings: outer 1..8, leaf 2..3, leaf 4..5, bad 6..7
    assert totals["outer"] == {"calls": 1, "span_s": 7.0, "self_s": 4.0}
    assert totals["leaf"] == {"calls": 2, "span_s": 2.0, "self_s": 2.0, "rows": 4}
    assert totals["bad"] == {"calls": 1, "span_s": 1.0, "self_s": 1.0}
    assert sum(t["self_s"] for t in totals.values()) == totals["outer"]["span_s"]


def test_install_wraps_every_importer_namespace():
    """In a fresh interpreter: the wrapped names replace the originals in
    each module that imported them, and a short orbit's spans add up."""
    script = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import impulseflow
from impulseflow import impulsive_system, entropy, flow_core
import spans
tracer = spans.Tracer()
missing = spans.install(tracer)
ann = impulseflow.build_fixture("annulus")
traj = impulsive_system.impulsive_trajectory(ann, np.array([0.0, 1.5]), 10.0, 0.1)
totals = spans.layer_totals(tracer)
print(json.dumps({
    "missing": missing,
    "same_batch": entropy.impulsive_trajectory_batch
                  is impulsive_system.impulsive_trajectory_batch,
    "wrapped_dense": hasattr(impulsive_system.dense_eval, "__wrapped__")
                     and hasattr(flow_core.dense_eval, "__wrapped__"),
    "hits": traj.n_impulses,
    "totals": totals,
}))
"""
    root = HERE.parent
    out = subprocess.run([sys.executable, "-c", script, str(root / "src"), str(HERE)],
                         capture_output=True, text=True, check=True, timeout=120)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["missing"] == []
    assert res["same_batch"] and res["wrapped_dense"]
    t = res["totals"]
    batch = t["impulsive_system.trajectory_batch"]
    assert batch["calls"] == 1 and batch["orbits"] == 1
    assert batch["hits"] == res["hits"] > 0
    assert t["flow_core.step"]["calls"] == t["flow_core.step"]["rows"] > 0
    assert t["flow_core.dense_eval"]["calls"] > 0
    self_sum = sum(v["self_s"] for v in t.values())
    assert self_sum == pytest.approx(batch["span_s"], rel=1e-9)


# --------------------------------------------------------------------------
# Correctness gate
# --------------------------------------------------------------------------

def _outdir_with(tmp_path, results, files=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "manifest.json").write_text(json.dumps({"results": results}))
    for name, obj in (files or {}).items():
        (tmp_path / name).write_text(json.dumps(obj))
    return tmp_path


def _call(workload, index=0):
    return WORKLOADS[workload].calls(0)[index]


@pytest.mark.parametrize("h, ok", [(0.0, True), (0.05, True), (0.0501, False)])
def test_zero_entropy_bound(tmp_path, h, ok):
    call, kind = _call("entropy_annulus")
    out = _outdir_with(tmp_path, {"h_tau_estimate": h})
    assert call_record(call, kind, out, 0)["ok"] is ok


@pytest.mark.parametrize("disc, esc, ok", [(0.01, 0.0, True), (0.021, 0.0, False),
                                           (0.01, 1e-3, False)])
def test_measure_bounds(tmp_path, disc, esc, ok):
    call, kind = _call("measure_quotient", 0)
    out = _outdir_with(tmp_path, {"pushforward_discrepancy": disc,
                                  "escaped_frac": esc})
    assert call_record(call, kind, out, 0)["ok"] is ok


def test_hypotheses_and_quotient_bounds(tmp_path):
    (hyp, hyp_kind), (quo, quo_kind) = (_call("measure_quotient", 1),
                                        _call("measure_quotient", 3))
    report = {"pass": False, "transversality_D": {"min_abs_inner": 0.5},
              "transversality_ID": {"min_abs_inner": 0.4}}
    out = _outdir_with(tmp_path / "h", {"pass": False}, {"hypotheses.json": report})
    assert call_record(hyp, hyp_kind, out, 0)["ok"] is False
    audit = {"symmetry_violations": 0, "identity_violations": 1,
             "triangle_violations": 50}
    out = _outdir_with(tmp_path / "q", {"audit": audit})
    assert call_record(quo, quo_kind, out, 0)["ok"] is False
    audit["identity_violations"] = 0
    out = _outdir_with(tmp_path / "q2", {"audit": audit})
    assert call_record(quo, quo_kind, out, 0)["ok"] is True


def test_missing_outputs_and_nonzero_exit_fail_without_raising(tmp_path):
    call, kind = _call("entropy_annulus")
    assert check_call(kind, tmp_path)[0].ok is False
    out = _outdir_with(tmp_path / "x", {"h_tau_estimate": 0.0})
    rec = call_record(call, kind, out, 1)
    assert rec["ok"] is False and rec["checks"] == []


# a meter log at exactly the reference rate: one row per second
REFERENCE_LOG = [(float(t), float(t), round(t * meter.REFERENCE_RATE))
                 for t in range(100)]


class FakeSession:
    """Returns canned worker results, one lane at a time, with a meter that
    runs at the reference speed."""

    lanes = 1

    def __init__(self, records):
        self.started = run._monotonic()
        self.records = iter(records)

    @contextlib.contextmanager
    def meters(self):
        yield {0: REFERENCE_LOG}

    def run(self, n=None, until=None, setup_only=False, trace=False):
        setup = {"setup_s": 0.6, "setup_cpu_s": 0.5, "setup_span": [1.0, 2.0],
                 "lane": 0}
        if setup_only:
            return [setup] * n
        results = []
        while not results or not until(results[-1]):
            results.append({**setup, "wall_s": 2.1, "cpu_s": 2.0,
                            "calls_span": [2.0, 4.0], "peak_rss_mb": 100.0,
                            "process_s": 0.0, "calls": [next(self.records)]})
        return results


def test_out_of_bound_result_counts_as_failure(tmp_path):
    call, kind = _call("entropy_annulus")
    good = call_record(call, kind, _outdir_with(tmp_path / "a", {"h_tau_estimate": 0.0}), 0)
    bad = call_record(call, kind, _outdir_with(tmp_path / "b", {"h_tau_estimate": 0.2}), 0)
    session = FakeSession([good, bad, good, good])
    res = run.measure_untraced(session, seconds=1e-9)  # one process only
    assert (res["attempted"], res["failed"]) == (1, 0)
    res = run.measure_untraced(session, seconds=1e-9)
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["metrics"]["pass_frac"] == 0.0
    # at the reference speed the reported times are the CPU times
    assert res["metrics"]["setup_s"] == pytest.approx(0.5)
    assert res["metrics"]["wall_s"] == pytest.approx(2.0)


def test_meter_rate_and_reference_speed():
    # 1000 chunks per CPU second until t = 10, then 500
    rows = [(float(t), float(t), 1000 * t if t <= 10 else 10000 + 500 * (t - 10))
            for t in range(21)]
    assert meter.rate(rows, 2.0, 5.0) == pytest.approx(1000.0)
    assert meter.rate(rows, 12.5, 16.2) == pytest.approx(500.0)
    assert meter.rate(rows, 8.0, 12.0) == pytest.approx(750.0)
    assert meter.rate(rows, -5.0, 1.0) == pytest.approx(1000.0)  # before the log
    slow = meter.REFERENCE_RATE / 2
    rows = [(float(t), float(t), round(t * slow)) for t in range(10)]
    assert meter.at_reference_speed(4.0, rows, 1.0, 5.0) == pytest.approx(
        4.0 * 0.5 ** meter.SENSITIVITY)


def test_meter_logs_rows_and_session_stops_it(tmp_path):
    session = run.Session("entropy_annulus", 0, tmp_path, run._monotonic(),
                          run.LANE_CPUS[:1])
    with session.meters() as logs:
        time.sleep(0.3)
    rows = logs[0]
    assert len(rows) >= 2
    assert all(a[0] < b[0] and a[2] < b[2] for a, b in zip(rows, rows[1:]))
    assert meter.rate(rows, rows[0][0], rows[-1][0]) > 0


def test_session_runs_lanes_and_leaves_no_process(tmp_path):
    session = run.Session("entropy_annulus", 0, tmp_path, run._monotonic(),
                          run.LANE_CPUS)
    results = session.run(3, setup_only=True)
    assert len(results) == 3 and session.count == 3
    assert {r["lane"] for r in results} == set(range(len(run.LANE_CPUS)))
    assert all(r["setup_s"] > 0 and "wall_s" not in r for r in results)
    assert session.versions["numpy"] == np.__version__


# --------------------------------------------------------------------------
# BENCHMARK.json and layers.json agree with the code
# --------------------------------------------------------------------------

def test_benchmark_json_matches_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in layers]
    traced = {name for name, *_ in spans.LAYERS}
    for m in layers:
        layer = m["name"].rpartition(".")[0]
        assert layer in traced or layer in ("entropy", "cli", "trace"), m["name"]
