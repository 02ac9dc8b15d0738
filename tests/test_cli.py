import csv
import importlib.util
import io
import json
import re
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from impulseflow import (
    EntropyConfig,
    IntegratorConfig,
    build_fixture,
    candidate_cloud,
    impulsive_trajectory,
    metric_axiom_audit,
)
from impulseflow import cli
from impulseflow.cli import main
from impulseflow.flow_core import BatchStepper

from conftest import polar
from oracles import annulus_impulse_schedule

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args) -> int:
    return main(list(args))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Entropy params that break a rule, one field at a time, against
# GOOD_ENTROPY_PARAMS.  The CLI rejects every entry; EntropyConfig, which
# takes Python numbers rather than JSON, rejects every entry of its types.
GOOD_ENTROPY_PARAMS = {"T_list": [2, 3], "eps_list": [0.1], "delta_list": [0.1],
                       "candidate_count": 16}
BAD_ENTROPY_PARAMS = [
    ("T_list", [5, 3]),
    ("T_list", [-1, 3]),
    ("T_list", [4]),
    ("T_list", "abc"),
    ("eps_list", [0.1, 0.2]),
    ("eps_list", [0.0]),
    ("delta_list", [0.05, 0.1]),
    ("delta_list", ["x"]),
    ("candidate_count", "abc"),
    ("candidate_count", 0),
    ("candidate_count", 2.5),
    ("dt_check", 0.2),
    ("dt_check", "abc"),
    ("T_list", [2, float("inf")]),
    ("T_list", [float("nan"), 3]),
    ("T_list", [0, 0]),
    ("eps_list", [float("nan")]),
    ("eps_list", [float("inf")]),
    ("eps_list", []),
    ("delta_list", [float("nan")]),
    ("delta_list", [float("inf")]),
    ("dt_check", float("nan")),
    ("dt_check", -0.1),
    ("candidate_count", True),
]


def _library_typed(field: str, value) -> bool:
    """Whether a params value has the type EntropyConfig takes for its field:
    a list of numbers for a list, an int count (a bool is an int), a number
    otherwise. A fractional count has its own library test."""
    kind = int if field == "candidate_count" else (int, float)
    items = value if isinstance(value, list) else [value]
    return (isinstance(value, list) == field.endswith("_list")
            and all(isinstance(v, kind) for v in items))


class TestValidation:
    def test_unknown_system_exits_2(self, tmp_path, capsys):
        rc = run_cli("simulate", "--system", "torus", "--out", str(tmp_path))
        assert rc == 2
        assert "system.name" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path))
        assert rc == 2

    def test_missing_system_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        rc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 2
        assert "system.name" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema_version": 99,
                                   "system": {"name": "annulus"}}))
        assert run_cli("simulate", "--config", str(cfg),
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("experiment,field,value", [
        ("quotient", "n_points", "abc"),
        ("quotient", "n_points", -3),
        ("quotient", "n_points", 2.5),
        ("check-hypotheses", "n_samples", "abc"),
        ("check-hypotheses", "n_samples", -3),
        ("check-hypotheses", "n_samples", 0),
    ])
    def test_bad_count_exits_2(self, tmp_path, capsys, experiment, field, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"name": "annulus"},
                                   "params": {field: value}}))
        out = tmp_path / "run"
        assert run_cli(experiment, "--config", str(cfg), "--out", str(out)) == 2
        assert f"params.{field}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


    @pytest.mark.parametrize("field,value", BAD_ENTROPY_PARAMS)
    def test_bad_entropy_params_exit_2(self, tmp_path, capsys, field, value):
        params = {**GOOD_ENTROPY_PARAMS, field: value}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"name": "doubling_suspension"},
                                   "params": params}))
        out = tmp_path / "run"
        assert run_cli("entropy", "--config", str(cfg), "--out", str(out)) == 2
        assert f"params.{field}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("field,value", [
        (f, v) for f, v in BAD_ENTROPY_PARAMS if _library_typed(f, v)])
    def test_bad_entropy_params_rejected_by_library(self, field, value):
        # the library's own rules reject what the CLI rejects
        with pytest.raises(ValueError, match=field):
            EntropyConfig(**{**GOOD_ENTROPY_PARAMS, field: value})

    def test_fractional_count_rejected_by_library(self):
        with pytest.raises(ValueError, match="candidate_count"):
            EntropyConfig(**{**GOOD_ENTROPY_PARAMS, "candidate_count": 2.5})


    @pytest.mark.parametrize("name,overrides", [
        ("annulus", {"foo": 1}),
        ("doubling_suspension", {"xi": 1.0}),
        ("prey_predator", {"alpha9": 1.0}),
        ("prey_predator", {"xi": 1.0, "eta": 1.0}),
        ("annulus", [1, 2]),
    ])
    def test_bad_overrides_exit_2(self, tmp_path, capsys, name, overrides):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"name": name, "overrides": overrides},
                                   "params": {"horizon": 1.0}}))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
        assert "system.overrides" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("experiment,field,value", [
        ("simulate", "horizon", "abc"),
        ("simulate", "dt_sample", 0),
        ("simulate", "initial_state", [1.5]),
        ("measure", "horizon", -1.0),
        ("measure", "dt_sample", "abc"),
        ("measure", "burn_in", 20.0),
        ("measure", "t_shift", 0.0),
        ("measure", "t_shift", 2.0),
        ("measure", "bins", 0),
        ("measure", "grid", "-2:2:0"),
        ("measure", "grid", "2:-2:10"),
        ("measure", "initial_state", [0.0, "x"]),
        ("check-hypotheses", "margin_tol", -1.0),
        ("check-hypotheses", "scales", [0.1, 0.2]),
        ("check-hypotheses", "approach_dirs", 0),
        ("measure", "grid", [1]),
        ("measure", "grid", "-inf:inf:10"),
        ("simulate", "horizon", 10 ** 400),
        ("simulate", "initial_state", [0.0, 0.0]),
        ("measure", "initial_state", [3.0, 0.5]),
    ])
    def test_bad_run_params_exit_2(self, tmp_path, capsys, experiment, field, value):
        params = {"horizon": 20.0, "dt_sample": 0.05, "initial_state": [0.0, 1.5],
                  "n_samples": 50}
        params[field] = value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"name": "annulus"},
                                   "params": params}))
        out = tmp_path / "run"
        assert run_cli(experiment, "--config", str(cfg), "--out", str(out)) == 2
        assert f"params.{field}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


    @pytest.mark.parametrize("cfg,flags,field", [
        ({"seed": -1}, [], "seed"),
        ({"seed": True}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
        ({"params": [1]}, [], "params"),
        ({"system": "annulus"}, ["--system", "annulus"], "system"),
        ({"integrator": {"abs_tol": 1e-9}}, [], "integrator"),
        ({"system": {"name": "annulus", "overides": {}}}, [], "system.overides"),
        ({"params": {"horizn": 5, "horizon": 2.0}}, [], "params.horizn"),
        ({"params": {"n_samples": 50}}, [], "params.n_samples"),
        ({"params": {"points_csv": 5}}, [], "params.points_csv"),
        ({"params": {"points_csv": "no-such-file.csv"}}, [], "params.points_csv"),
        ({"params": {"points_csv": "unparsed.csv"}}, [], "params.points_csv"),
        ({"params": {"points_csv": "outside.csv"}}, [], "params.points_csv"),
    ], ids=["seed-negative", "seed-bool", "seed-flag-negative", "params-list",
            "system-string-with-flag", "unknown-top-level-key", "unknown-system-key",
            "unknown-param", "param-of-another-experiment", "points_csv-number",
            "points_csv-missing", "points_csv-unparsed", "points_csv-outside-region"])
    def test_bad_config_names_the_key(self, tmp_path, monkeypatch, capsys,
                                      cfg, flags, field):
        # quotient, because points_csv is one of its params
        monkeypatch.chdir(tmp_path)
        (tmp_path / "unparsed.csv").write_text("x,y\n1.0,abc\n")
        (tmp_path / "outside.csv").write_text("x,y\n9.0,0.0\n")
        (tmp_path / "c.json").write_text(json.dumps({"system": {"name": "annulus"},
                                                    **cfg}))
        assert run_cli("quotient", "--config", "c.json", "--out", "run", *flags) == 2
        assert f"config field {field!r}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "manifest.json").exists()


def _workload_module(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _resolve_without_running(path, experiment):
    config = cli._resolve(cli.make_parser().parse_args([experiment, "--config", str(path)]))
    sys_spec = build_fixture(config["system"]["name"], config["system"]["overrides"])
    return cli._resolve_params(cli.EXPERIMENTS[experiment][0], config["params"],
                               sys_spec, config["seed"])


class TestKnownConfigsResolve:
    """The benchmark's calls and the README example stay valid configs."""

    def test_benchmark_calls(self, tmp_path, monkeypatch):
        workloads = _workload_module(monkeypatch)
        calls = [call for w in workloads.WORKLOADS.values() for seed in range(10)
                 for call, _ in w.calls(seed)]
        assert len(calls) == 50
        for call in calls:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(call.config))
            _resolve_without_running(path, call.experiment)

    def test_readme_example(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        cfg, experiment = re.search(
            r"echo '(\{.*?\})' > cfg\.json\s+impulseflow (\S+) --config cfg\.json",
            readme, re.S).groups()
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        params = _resolve_without_running(path, experiment)
        assert params.candidate_count == json.loads(cfg)["params"]["candidate_count"]


class TestTracedNamesResolve:
    """Every span target of the benchmark's tracer (``perfbench/spans.py``,
    loaded read only) is a function of the package, so renaming or deleting
    a traced name fails here and not only in the benchmark's own tests."""

    def test_layers(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", ROOT / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        missing = []
        for name, module, attr, _ in spans.LAYERS:
            scope = vars(importlib.import_module(f"impulseflow.{module}"))
            owner, _, leaf = attr.rpartition(".")
            if owner:
                scope = vars(scope[owner]) if owner in scope else {}
            if not callable(scope.get(leaf)):
                missing.append(name)
        assert len(spans.LAYERS) >= 20
        assert missing == []


class TestResolvedConfig:
    CONFIGS = {
        "simulate": {"system": {"name": "annulus"}, "params": {"horizon": 5.0}},
        "check-hypotheses": {"system": {"name": "annulus"},
                             "params": {"n_samples": 50}},
        "measure": {"system": {"name": "annulus"}, "seed": 2,
                    "params": {"horizon": 20.0, "dt_sample": 0.05}},
        "entropy": {"system": {"name": "doubling_suspension"}, "seed": 3,
                    "params": {"T_list": [2, 3], "candidate_count": 16}},
        "quotient": {"system": {"name": "doubling_suspension"}, "seed": 4,
                     "params": {"n_points": 12}},
    }

    @pytest.mark.parametrize("experiment", sorted(CONFIGS))
    def test_manifest_config_reproduces_the_run(self, tmp_path, monkeypatch, experiment):
        (tmp_path / "a").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        Path("c.json").write_text(json.dumps(self.CONFIGS[experiment]))
        assert run_cli(experiment, "--config", "c.json", "--out", "out") == 0
        first = {p.name: p.read_bytes() for p in Path("out").iterdir()}
        manifest = read_json("out/manifest.json")
        params_cls = cli.EXPERIMENTS[experiment][0]
        assert set(manifest["resolved_config"]["params"]) == \
            {f.name for f in fields(params_cls)}
        assert manifest["integrator"] == asdict(IntegratorConfig())
        # the resolved config alone, output directory included, reruns it
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "b")
        Path("c.json").write_text(json.dumps(manifest["resolved_config"]))
        assert run_cli(experiment, "--config", "c.json") == 0
        assert {p.name: p.read_bytes() for p in Path("out").iterdir()} == first

    def test_derived_defaults_recorded(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("measure", "--system", "annulus", "--seed", "2", "--out", str(out),
                       "--config", self._write(tmp_path, {"params": {"horizon": 20.0}})) == 0
        manifest = read_json(out / "manifest.json")
        x0 = candidate_cloud(build_fixture("annulus"), 1, np.random.default_rng(2))[0]
        assert manifest["resolved_config"]["params"] == {
            "horizon": 20.0, "dt_sample": 0.005, "initial_state": x0.tolist(),
            "burn_in": 2.0, "t_shift": 1.0, "bins": 40,
            "grid": "-2.0:2.0:40,-2.0:2.0:40"}
        assert manifest["results"]["initial_state"] == x0.tolist()
        out = tmp_path / "entropy"
        assert run_cli("entropy", "--system", "doubling_suspension", "--out", str(out),
                       "--config", self._write(tmp_path, {"params": {
                           "T_list": [2, 3], "delta_list": [0.1, 0.04],
                           "candidate_count": 8}})) == 0
        params = read_json(out / "manifest.json")["resolved_config"]["params"]
        assert params["dt_check"] == 0.02
        assert params["eps_list"] == [0.1] and params["T_list"] == [2.0, 3.0]

    @staticmethod
    def _write(tmp_path, cfg) -> str:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        return str(path)


class TestSimulate:
    def test_annulus_schedule(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "system": {"name": "annulus"},
            "params": {"horizon": 40.0, "dt_sample": 0.05,
                       "initial_state": [0.0, 1.5]},
        }))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        with open(out / "impulses.csv") as fh:
            rows = list(csv.DictReader(fh))
        taus = np.array([float(r["tau_n"]) for r in rows])
        exp, _ = annulus_impulse_schedule(1.5, np.pi / 2, len(taus))
        assert np.abs(taus - exp).max() < 1e-8
        with open(out / "trajectory.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,x1,x2,segment_index,is_impulse"
        manifest = read_json(out / "manifest.json")
        assert manifest["experiment"] == "simulate"
        assert manifest["resolved_config"]["system"]["name"] == "annulus"
        assert "artifact_version" in manifest
        assert manifest["results"]["propagation"]["hits"] == len(taus)

    @staticmethod
    def _simulate(tmp_path, system, x0, horizon, dt_sample) -> Path:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "system": {"name": system},
            "params": {"horizon": horizon, "dt_sample": dt_sample,
                       "initial_state": list(x0)},
        }))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        return out

    def test_trajectory_csv(self, annulus, tmp_path):
        x0 = polar(1.5, np.pi / 2)
        traj = impulsive_trajectory(annulus, x0, 10.0, 0.5)
        out = self._simulate(tmp_path, "annulus", x0.tolist(), 10.0, 0.5)
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,segment_index,is_impulse"
        n_samples = len(traj.sample_times)
        assert len(lines) == 1 + n_samples + traj.n_impulses
        impulse_rows = [l for l in lines[1:] if l.endswith(",1")]
        assert len(impulse_rows) == traj.n_impulses

    def test_segment_index_of_a_sample_just_before_a_hit(self, doubling, tmp_path):
        # the hit at t = 1 is located just after the sample at t = 1, which
        # carries the post-impulse state (height 0) and so opens segment 1
        traj = impulsive_trajectory(doubling, np.array([1.0, 0.0, 0.0]), 3.0, 0.5)
        assert 1.0 < traj.impulse_times[0] <= 1.0 + 1e-9
        out = self._simulate(tmp_path, "doubling_suspension", [1.0, 0.0, 0.0], 3.0, 0.5)
        lines = (out / "trajectory.csv").read_text().splitlines()
        row = next(l for l in lines if l.startswith("1.0,"))
        assert row.split(",")[3:] == ["0.0", "1", "0"]

    def test_impulses_csv(self, annulus, tmp_path):
        x0 = polar(1.5, np.pi / 2)
        traj = impulsive_trajectory(annulus, x0, 10.0, 0.5)
        out = self._simulate(tmp_path, "annulus", x0.tolist(), 10.0, 0.5)
        lines = (out / "impulses.csv").read_text().splitlines()
        assert lines[0] == "n,tau_n,x1,x2"
        assert len(lines) == 1 + traj.n_impulses
        first = lines[1].split(",")
        assert first[0] == "1"
        assert abs(float(first[1]) - 1.5 * np.pi) < 1e-9


class TestFailureLeavesNoOutputs:
    CFG = {"system": {"name": "annulus"},
           "params": {"horizon": 8.0, "dt_sample": 0.05,
                      "initial_state": [0.0, 1.5]}}

    @staticmethod
    def _break_impulses_writer(monkeypatch):
        # the second write, impulses.csv, fails once trajectory.csv is written
        write, calls = cli._atomic_write, []

        def broken(path, lines):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write(path, lines)
        monkeypatch.setattr(cli, "_atomic_write", broken)

    def test_failed_second_write_removes_first(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.CFG))
        out = tmp_path / "run"
        self._break_impulses_writer(monkeypatch)
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists() or list(out.iterdir()) == []

    def test_failed_rerun_keeps_previous_run(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.CFG))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # the rerun would write a different trajectory.csv
        cfg.write_text(json.dumps({**self.CFG, "params": {
            **self.CFG["params"], "horizon": 12.0}}))
        self._break_impulses_writer(monkeypatch)
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestHypothesesExperiment:
    def test_prey_predator_passes(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("check-hypotheses", "--system", "prey_predator",
                       "--out", str(out)) == 0
        rep = read_json(out / "hypotheses.json")
        assert rep["pass"] is True
        assert rep["transversality_D"]["common_sign"] == -1
        assert rep["transversality_D"]["min_abs_inner"] > 1e-3
        assert rep["separation"]["dist_D_ID"] > 0.5
        assert len(rep["continuity_table"]) >= 3

    def test_doubling_default_params(self, tmp_path):
        # the probe at scale 0.1 slides off the cylinder and its forward
        # orbit leaves the admissible region: counted as escaped
        out = tmp_path / "run"
        assert run_cli("check-hypotheses", "--system", "doubling_suspension",
                       "--out", str(out)) == 0
        table = read_json(out / "hypotheses.json")["continuity_table"]
        assert table[0]["escaped"] > 0
        assert len(table) == 5

    def test_four_engine_runs(self, tmp_path, monkeypatch):
        # one BatchStepper per engine run: the separation tube's flow and the
        # continuity probe's three batch runs
        runs, init = [], BatchStepper.__init__

        def counted(stepper, *args):
            runs.append(1)
            init(stepper, *args)

        monkeypatch.setattr(BatchStepper, "__init__", counted)
        assert run_cli("check-hypotheses", "--system", "prey_predator",
                       "--out", str(tmp_path / "run")) == 0
        assert len(runs) <= 4

    def test_degenerate_fails(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("check-hypotheses", "--system", "tangent_degenerate",
                       "--out", str(out)) == 0
        rep = read_json(out / "hypotheses.json")
        assert rep["pass"] is False


class TestMeasureExperiment:
    def test_grid_flag_and_outputs(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "system": {"name": "annulus"},
            "params": {"horizon": 150.0, "dt_sample": 0.01, "t_shift": 1.0,
                       "initial_state": [0.0, 1.5]},
        }))
        rc = run_cli("measure", "--config", str(cfg), "--out", str(out),
                     "--grid=-2:2:20,-2:2:20")
        assert rc == 0
        with open(out / "measure.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        total = sum(float(r["weight"]) for r in rows)
        assert abs(total - 1.0) < 1e-9
        manifest = read_json(out / "manifest.json")
        assert manifest["results"]["pushforward_discrepancy"] < 0.05

    def test_runtime_failure_removes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "system": {"name": "annulus"},
            "params": {"horizon": 60.0, "dt_sample": 0.01,
                       "initial_state": [0.0, 1.5],
                       "grid": "5:6:10,5:6:10"},   # box far from the orbit
        }))
        rc = run_cli("measure", "--config", str(cfg), "--out", str(out))
        assert rc == 1
        assert not (out / "measure.csv").exists()
        assert not (out / "manifest.json").exists()


class TestQuotientExperiment:
    def test_outputs_and_symmetry(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("quotient", "--system", "annulus", "--seed", "9",
                       "--out", str(out)) == 0
        with open(out / "quotient_dmatrix.csv") as fh:
            rows = list(csv.DictReader(fh))
        n = int(np.sqrt(len(rows)))
        D = np.zeros((n, n))
        for r in rows:
            D[int(r["i"]), int(r["j"])] = float(r["dtilde"])
        assert np.array_equal(D, D.T)
        assert (out / "quotient_classes.csv").exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["results"]["audit"]["triangle_violations"] == 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_point_counts(self, tmp_path, n):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"name": "doubling_suspension"},
                                   "params": {"n_points": n}}))
        out = tmp_path / "run"
        assert run_cli("quotient", "--config", str(cfg), "--out", str(out)) == 0
        with open(out / "quotient_dmatrix.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["i"], r["j"], r["dtilde"]) for r in rows] == \
            [("0", "0", "0.0")] * n
        assert read_json(out / "manifest.json")["results"]["n_points"] == n

    def test_matrix_bytes_match_csv_writer(self, tmp_path):
        # the matrix is written as one joined string; one csv.writer row per
        # entry, with repr, is the reference rendering
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"name": "prey_predator"}, "seed": 3,
                                   "params": {"n_points": 25}}))
        out = tmp_path / "run"
        assert run_cli("quotient", "--config", str(cfg), "--out", str(out)) == 0
        sys_spec = build_fixture("prey_predator")
        pts = candidate_cloud(sys_spec, 25, np.random.default_rng(3))
        D = metric_axiom_audit(sys_spec, pts).distances
        want = io.StringIO()
        w = csv.writer(want, lineterminator="\n")
        w.writerow(["i", "j", "dtilde"])
        for i in range(len(D)):
            for j in range(len(D)):
                w.writerow([i, j, repr(float(D[i, j]))])
        assert (out / "quotient_dmatrix.csv").read_bytes() == want.getvalue().encode()

    def test_matrix_writer_bytes(self, tmp_path):
        # the row-joined writer against one f-string per entry, on a 300 x 300
        # matrix holding inf, tiny and huge distances
        from impulseflow.cli import _write_dmatrix
        rng = np.random.default_rng(4)
        D = rng.uniform(0.0, 3.0, (300, 300))
        D[rng.random((300, 300)) < 0.1] = np.inf
        D[5, :7], D[:3, 299], D[17, 17] = 1e-17, 1e20, 0.0
        _write_dmatrix(tmp_path / "d.csv", D)
        want = "i,j,dtilde\n" + "".join(f"{i},{j},{v!r}\n" for i in range(300)
                                        for j, v in enumerate(D[i].tolist()))
        assert (tmp_path / "d.csv").read_bytes() == want.encode()
        _write_dmatrix(tmp_path / "e.csv", np.zeros((0, 0)))
        assert (tmp_path / "e.csv").read_bytes() == b"i,j,dtilde\n"

    def test_matrix_writer_special_values(self, tmp_path):
        # the writer's memo of formatted values against repr per entry:
        # repeated values, both zeros in either order, 1e-300, the smallest
        # subnormal, infinities and nans, among more distinct values than
        # the memo keeps (16 per row)
        from impulseflow.cli import _write_dmatrix
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, 1e-300, 5e-324, np.inf, -np.inf, np.nan, -np.nan, 0.5, 2.0]
        D = rng.uniform(0.0, 3.0, (40, 40))
        mask = rng.random((40, 40)) < 0.5
        D[mask] = rng.choice(special, np.count_nonzero(mask))
        D[0, :4] = 0.0, -0.0, -0.0, 0.0
        _write_dmatrix(tmp_path / "d.csv", D)
        want = "i,j,dtilde\n" + "".join(f"{i},{j},{v!r}\n" for i in range(40)
                                        for j, v in enumerate(D[i].tolist()))
        assert (tmp_path / "d.csv").read_bytes() == want.encode()
        assert {"0.0", "-0.0", "1e-300", "5e-324", "inf", "-inf", "nan"} <= {
            line.split(",")[2] for line in want.splitlines()[1:]}

    def test_points_csv_input(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n1.0,0.0\n-1.25,0.0\n1.5,0.4\n")
        out = tmp_path / "run"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "system": {"name": "annulus"},
            "params": {"points_csv": str(pts)},
        }))
        assert run_cli("quotient", "--config", str(cfg), "--out", str(out)) == 0
        with open(out / "quotient_dmatrix.csv") as fh:
            rows = list(csv.DictReader(fh))
        d01 = [float(r["dtilde"]) for r in rows
               if r["i"] == "0" and r["j"] == "1"][0]
        assert abs(d01 - 0.25) < 1e-9

    def test_header_only_points_csv_is_no_points(self, tmp_path, monkeypatch,
                                                 capsys):
        # a header row with no states under it runs the quotient of no
        # points, as n_points = 0 does, and numpy's "input contained no
        # data" warning stays quiet
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pts.csv").write_text("x,y\n")
        for name, params in (("csv", {"points_csv": "pts.csv"}),
                             ("none", {"n_points": 0})):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"system": {"name": "annulus"}, "params": params}))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = run_cli("quotient", "--config", f"{name}.json", "--out", name)
            assert (rc, caught, capsys.readouterr()) == (0, [], ("", ""))
        for name in ("quotient_classes.csv", "quotient_dmatrix.csv"):
            assert ((tmp_path / "csv" / name).read_bytes()
                    == (tmp_path / "none" / name).read_bytes())
        assert (read_json(tmp_path / "csv" / "manifest.json")["results"]
                == read_json(tmp_path / "none" / "manifest.json")["results"])


class TestDeterminism:
    ENTROPY_CFG = {
        "system": {"name": "doubling_suspension"},
        "seed": 11,
        "params": {"T_list": [2, 3, 4], "eps_list": [0.1],
                   "delta_list": [0.1], "candidate_count": 256},
    }

    def test_entropy_byte_identical_any_workers(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.ENTROPY_CFG))
        blobs = []
        # identical resolved config both times: same relative out dir,
        # different cwd, different worker counts
        for workers, sub in ((1, "a"), (4, "b")):
            (tmp_path / sub).mkdir(exist_ok=True)
            monkeypatch.chdir(tmp_path / sub)
            assert run_cli("entropy", "--config", str(cfg), "--out", "out",
                           "--workers", str(workers)) == 0
            out = tmp_path / sub / "out"
            blobs.append({
                "table": (out / "entropy_table.csv").read_bytes(),
                "manifest": (out / "manifest.json").read_bytes(),
            })
        assert blobs[0]["table"] == blobs[1]["table"]
        assert blobs[0]["manifest"] == blobs[1]["manifest"]

    def test_config_workers_key_kept_out_of_manifest(self, tmp_path, monkeypatch):
        base = {"system": {"name": "annulus"}, "seed": 5,
                "params": {"horizon": 5.0, "dt_sample": 0.1}}
        manifests = []
        for sub, cfg in (("a", base), ("b", {**base, "workers": 8})):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            (tmp_path / sub / "c.json").write_text(json.dumps(cfg))
            assert run_cli("simulate", "--config", "c.json", "--out", "out") == 0
            manifests.append((tmp_path / sub / "out" / "manifest.json").read_bytes())
        assert b"workers" not in manifests[1]
        assert manifests[0] == manifests[1]

    def test_simulate_rerun_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "system": {"name": "annulus"},
            "seed": 5,
            "params": {"horizon": 20.0, "dt_sample": 0.05},
        }))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_measure_records_identical_propagation_counters(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "system": {"name": "annulus"},
            "seed": 3,
            "params": {"horizon": 30.0, "dt_sample": 0.01, "t_shift": 1.0},
        }))
        counters = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("measure", "--config", str(cfg), "--out", str(out)) == 0
            counters.append(read_json(out / "manifest.json")["results"]["propagation"])
        assert counters[0] == counters[1]
        work = counters[0]
        assert work["steps"] > 0 and work["hits"] > 0
        assert 0 < work["h_min"] <= work["h_max"] <= IntegratorConfig().max_step
        assert set(work) == {"steps", "rejected_steps", "h_min", "h_max", "hits",
                             "discarded_crossings", "subdivisions", "root_passes"}
