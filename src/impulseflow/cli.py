"""Config-driven command line: five experiment kinds with machine-readable
outputs.

    impulseflow <experiment> --config cfg.json [--system NAME] [--seed N] [--out DIR]

Experiments: simulate, check-hypotheses, measure, entropy, quotient.  Outputs
are written into a staging directory and moved into the output directory only
when the whole run succeeds, and every run emits manifest.json with the fully
resolved configuration, so identical config and seed reproduce byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys as _sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import EntropyConfig, entropy_estimate
from .hypotheses import hitting_continuity_probe, separation_report, transversality_margin
from .impulsive_system import (
    RunStats,
    impulsive_trajectory_batch,
    write_impulses_csv,
    write_trajectory_csv,
)
from .measures import (
    GridPartition,
    occupation_measure,
    pushforward_discrepancy,
    write_measure_csv,
)
from .quotient import metric_axiom_audit
from .systems import build_fixture, candidate_cloud, fixture_names, sample_impulsive_set

EXPERIMENTS = ("simulate", "check-hypotheses", "measure", "entropy", "quotient")
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _fail(field: str, why: str):
    raise ConfigError(f"config field {field!r}: {why}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        _fail("<root>", "must be a JSON object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported version {version}")
    return cfg


def _resolve(args) -> dict:
    cfg = _load_config(args.config)
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    if args.system:
        cfg["system"] = {"name": args.system,
                         "overrides": cfg.get("system", {}).get("overrides", {})}
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out:
        cfg["output_dir"] = args.out
    if args.grid:
        cfg.setdefault("params", {})["grid"] = args.grid
    cfg.setdefault("seed", 0)
    cfg.setdefault("params", {})
    cfg.setdefault("output_dir", ".")
    system = cfg.get("system")
    if not system or "name" not in system:
        _fail("system.name", "required (or pass --system)")
    if system["name"] not in fixture_names():
        _fail("system.name", f"unknown; choose from {fixture_names()}")
    if not isinstance(system.setdefault("overrides", {}), dict):
        _fail("system.overrides", "must be an object")
    if not isinstance(cfg["seed"], int):
        _fail("seed", "must be an integer")
    return cfg


def _count_param(params: dict, name: str, default: int, minimum: int) -> int:
    """An integer parameter that must be at least ``minimum``."""
    value = params.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(f"params.{name}", "must be an integer")
    if value < minimum:
        _fail(f"params.{name}", f"must be at least {minimum}")
    return value


def _number_list(params: dict, name: str, default, min_len: int) -> list:
    """A list of at least ``min_len`` finite numbers."""
    value = params.get(name, default)
    if (not isinstance(value, (list, tuple)) or len(value) < min_len
            or not all(_is_number(v) for v in value)):
        _fail(f"params.{name}",
              f"must be a list of at least {min_len} finite numbers")
    return [float(v) for v in value]


def _number_param(params: dict, name: str, default: float, ok, why: str) -> float:
    """A finite number for which ``ok(value)`` holds."""
    value = params.get(name, default)
    if not (_is_number(value) and ok(value)):
        _fail(f"params.{name}", f"must be a finite number {why}")
    return float(value)


def _initial_state(params: dict, sys_spec, rng) -> np.ndarray:
    """``params.initial_state``, or one draw from the system's candidate cloud."""
    if "initial_state" not in params:
        return candidate_cloud(sys_spec, 1, rng)[0]
    x0 = _number_list(params, "initial_state", None, sys_spec.dim)
    if len(x0) != sys_spec.dim:
        _fail("params.initial_state", f"must be a list of {sys_spec.dim} finite numbers")
    return np.array(x0)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


def _parse_grid(text: str, dim: int) -> GridPartition:
    """Parse 'lo:hi:bins,lo:hi:bins,...'; a single triple is broadcast."""
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * dim
    if len(parts) != dim:
        _fail("params.grid", f"expected {dim} comma-separated lo:hi:bins triples")
    lo, hi, bins = [], [], []
    for p in parts:
        try:
            a, b, n = p.split(":")
            lo.append(float(a))
            hi.append(float(b))
            bins.append(int(n))
        except ValueError:
            _fail("params.grid", f"bad triple {p!r}")
        if bins[-1] < 1 or not lo[-1] < hi[-1]:
            _fail("params.grid", f"need lo < hi and at least 1 bin in {p!r}")
    return GridPartition(lo=tuple(lo), hi=tuple(hi), bins=tuple(bins))


def _atomic_write(path: Path, writer) -> None:
    """Write one output file with ``writer(path)``.

    Every output goes through here, into the run's staging directory, which
    ``run`` moves into place only when the whole run has succeeded; that
    makes the write all-or-nothing, so no temp file of its own is needed.
    Output writing stays in this one function so that it can be timed in
    one place (perfbench traces it as ``cli.write``).
    """
    writer(path)


def _write_json(path: Path, obj) -> None:
    def w(dest):
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _atomic_write(path, w)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------

def _orbit(sys_spec, x0, horizon, dt):
    """The impulsive orbit of x0 and its propagation counters (deterministic,
    so they belong in the manifest)."""
    stats = RunStats()
    traj = impulsive_trajectory_batch(sys_spec, x0[None, :], horizon, dt,
                                      stats=stats)[0]
    return traj, asdict(stats)


def _run_simulate(sys_spec, params, rng, outdir: Path) -> dict:
    horizon = _number_param(params, "horizon", 100.0, lambda v: v > 0, "> 0")
    dt = _number_param(params, "dt_sample", 0.01, lambda v: v > 0, "> 0")
    x0 = _initial_state(params, sys_spec, rng)
    traj, propagation = _orbit(sys_spec, x0, horizon, dt)
    _atomic_write(outdir / "trajectory.csv",
                  lambda path: write_trajectory_csv(traj, path))
    _atomic_write(outdir / "impulses.csv",
                  lambda path: write_impulses_csv(traj, path))
    return {
        "initial_state": x0.tolist(),
        "n_impulses": traj.n_impulses,
        "propagation": propagation,
        "outputs": ["trajectory.csv", "impulses.csv"],
    }


def _run_check_hypotheses(sys_spec, params, rng, outdir: Path) -> dict:
    n = _count_param(params, "n_samples", 1000, 1)
    margin_tol = _number_param(params, "margin_tol", 1e-6, lambda v: v >= 0, ">= 0")
    scales = _number_list(params, "scales", [10.0 ** (-k) for k in range(1, 6)], 1)
    if min(scales) <= 0 or any(a <= b for a, b in zip(scales, scales[1:])):
        _fail("params.scales", "must be positive and strictly decreasing")
    approach_dirs = _count_param(params, "approach_dirs", 2, 1)
    rep_d = transversality_margin(sys_spec, "D", n, margin_tol)
    rep_id = transversality_margin(sys_spec, "ID", n, margin_tol)
    sep = separation_report(sys_spec, min(n, 400))
    probe_point = sample_impulsive_set(sys_spec, "D", 3)[-1]
    table = hitting_continuity_probe(sys_spec, probe_point, approach_dirs, scales)
    decays = [row["tau_star_max"] for row in table if np.isfinite(row["tau_star_max"])]
    cont_ok = len(decays) >= 2 and all(a > b for a, b in zip(decays, decays[1:]))
    report = {
        "transversality_D": {
            "sampled_points": rep_d.sampled_points,
            "min_abs_inner": rep_d.min_abs_inner,
            "sign_consistent": rep_d.sign_consistent,
            "common_sign": rep_d.common_sign,
            "worst_point": rep_d.worst_point.tolist(),
            "pass": rep_d.passed,
        },
        "transversality_ID": {
            "sampled_points": rep_id.sampled_points,
            "min_abs_inner": rep_id.min_abs_inner,
            "sign_consistent": rep_id.sign_consistent,
            "common_sign": rep_id.common_sign,
            "worst_point": rep_id.worst_point.tolist(),
            "pass": rep_id.passed,
        },
        "separation": {
            "dist_D_ID": sep.dist_D_ID,
            "xi_margin": sep.xi_margin,
            "pass": sep.dist_D_ID > 0,
        },
        "continuity_table": table,
        "pass": bool(rep_d.passed and rep_id.passed and sep.dist_D_ID > 0
                     and cont_ok),
    }
    _write_json(outdir / "hypotheses.json", _jsonable(report))
    return {"pass": report["pass"], "outputs": ["hypotheses.json"]}


def _run_measure(sys_spec, params, rng, outdir: Path) -> dict:
    horizon = _number_param(params, "horizon", 1000.0, lambda v: v > 0, "> 0")
    dt = _number_param(params, "dt_sample", 0.005, lambda v: v > 0, "> 0")
    burn_in = _number_param(params, "burn_in", 0.1 * horizon,
                            lambda v: 0 <= v < horizon, "in [0, horizon)")
    t_shift = _number_param(params, "t_shift", 1.0, lambda v: 0 < v < horizon / 10,
                            "in (0, horizon/10)")
    if "grid" in params:
        grid = _parse_grid(params["grid"], sys_spec.dim)
    else:
        lo, hi = sys_spec.box
        bins = (_count_param(params, "bins", 40, 1),) * sys_spec.dim
        grid = GridPartition(lo=lo, hi=hi, bins=bins)
    x0 = _initial_state(params, sys_spec, rng)
    traj, propagation = _orbit(sys_spec, x0, horizon, dt)
    mu = occupation_measure(traj, grid, burn_in)
    disc = pushforward_discrepancy(sys_spec, traj, grid, t_shift, burn_in)
    _atomic_write(outdir / "measure.csv", lambda path: write_measure_csv(mu, path))
    return {
        "initial_state": x0.tolist(),
        "escaped_frac": mu.escaped_frac,
        "pushforward_discrepancy": disc,
        "propagation": propagation,
        "outputs": ["measure.csv"],
    }


def _run_entropy(sys_spec, params, rng, outdir: Path, seed: int) -> dict:
    T_list = _number_list(params, "T_list", (2, 3, 4, 5, 6, 7, 8, 9, 10), 2)
    if T_list != sorted(T_list) or T_list[0] < 0 or T_list[-1] <= 0:
        _fail("params.T_list", "must be nonnegative, in increasing order, "
              "and end above 0")
    eps_list = _number_list(params, "eps_list", (0.1,), 1)
    delta_list = _number_list(params, "delta_list", (0.1,), 1)
    for name, values in (("eps_list", eps_list), ("delta_list", delta_list)):
        if min(values) <= 0 or values != sorted(values, reverse=True):
            _fail(f"params.{name}", "must be positive and nonincreasing")
    dt_check = params.get("dt_check")
    if dt_check is not None and not (
            _is_number(dt_check) and 0 < dt_check <= min(delta_list) / 2):
        _fail("params.dt_check", "must be a number in (0, min(delta_list)/2]")
    cfg = EntropyConfig(
        T_list=tuple(T_list),
        eps_list=tuple(eps_list),
        delta_list=tuple(delta_list),
        candidate_count=_count_param(params, "candidate_count", 4096, 1),
        dt_check=dt_check,
        seed=seed,
    )
    est = entropy_estimate(sys_spec, cfg)

    def write_table(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["T", "eps", "delta", "s_count", "saturated"])
            for r in est.table:
                w.writerow([repr(r.T), repr(r.eps), repr(r.delta),
                            r.s_count, int(r.saturated)])
    _atomic_write(outdir / "entropy_table.csv", write_table)
    return {
        "h_tau_estimate": est.h_tau_estimate,
        "lower_bound_only": est.lower_bound_only,
        "rates": {f"eps={e},delta={d}": v for (e, d), v in est.rates.items()},
        "diagnostics": _jsonable(est.diagnostics),
        "outputs": ["entropy_table.csv"],
    }


def _run_quotient(sys_spec, params, rng, outdir: Path) -> dict:
    if "points_csv" in params:
        pts = np.loadtxt(params["points_csv"], delimiter=",", skiprows=1, ndmin=2)
        if pts.shape[1] != sys_spec.dim:
            _fail("params.points_csv", "column count does not match state dimension")
    else:
        pts = candidate_cloud(sys_spec, _count_param(params, "n_points", 200, 0),
                              rng)
    audit = metric_axiom_audit(sys_spec, pts)
    classes, D, n = audit.classes, audit.distances, audit.n_points

    def write_classes(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["point_index", "member_index",
                        *sys_spec.state_names])
            for i, cl in enumerate(classes):
                for k, m in enumerate(cl.members):
                    w.writerow([i, k, *(repr(float(v)) for v in m)])

    def write_dmat(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("i,j,dtilde\n")
            # one joined string per matrix row: joining all n^2 entries at
            # once would hold every line in memory together
            for i in range(n):
                fh.write("".join(f"{i},{j},{v!r}\n"
                                 for j, v in enumerate(D[i].tolist())))

    _atomic_write(outdir / "quotient_classes.csv", write_classes)
    _atomic_write(outdir / "quotient_dmatrix.csv", write_dmat)
    return {
        "n_points": n,
        "audit": {
            "symmetry_violations": audit.symmetry_violations,
            "identity_violations": audit.identity_violations,
            "triangle_violations": audit.triangle_violations,
        },
        "outputs": ["quotient_classes.csv", "quotient_dmatrix.csv"],
    }


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="impulseflow",
        description="Impulsive-semiflow experiments with reproducible outputs.",
    )
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--config", help="JSON experiment configuration")
    p.add_argument("--system", help="builtin system name", default=None)
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--grid", default=None,
                   help="measure grid as lo:hi:bins per coordinate, comma-separated")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility and ignored (no-op): the "
                        "entropy experiment propagates its candidate cloud as "
                        "one batch")
    return p


def run(config: dict, experiment: str) -> dict:
    """Execute one experiment from a resolved config; returns the manifest.

    The experiment writes into a staging directory inside the output
    directory; its files move into place, manifest.json last, only once the
    run has succeeded.  A failed run leaves the output directory as it was.
    """
    try:
        sys_spec = build_fixture(config["system"]["name"],
                                 config["system"].get("overrides", {}))
    except (TypeError, ValueError) as e:
        _fail("system.overrides", str(e))
    outdir = Path(config["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config["seed"])
    params = config.get("params", {})
    # the worker count cannot affect any output (the entropy cloud runs as
    # one batch), so a config file's key is dropped and manifests stay
    # byte-identical whatever it says
    config.pop("workers", None)

    stage = Path(tempfile.mkdtemp(dir=outdir, prefix=".impulseflow-stage-"))
    try:
        if experiment == "simulate":
            results = _run_simulate(sys_spec, params, rng, stage)
        elif experiment == "check-hypotheses":
            results = _run_check_hypotheses(sys_spec, params, rng, stage)
        elif experiment == "measure":
            results = _run_measure(sys_spec, params, rng, stage)
        elif experiment == "entropy":
            results = _run_entropy(sys_spec, params, rng, stage, config["seed"])
        elif experiment == "quotient":
            results = _run_quotient(sys_spec, params, rng, stage)
        else:
            raise ConfigError(f"unknown experiment {experiment!r}")
        manifest = {
            "artifact_version": __version__,
            "experiment": experiment,
            "resolved_config": _jsonable(config),
            "results": _jsonable(results),
        }
        _write_json(stage / "manifest.json", manifest)
        for name in [*results.get("outputs", []), "manifest.json"]:
            os.replace(stage / name, outdir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return manifest


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = _resolve(args)
        run(config, args.experiment)
    except ConfigError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except Exception as e:  # runtime failure: partial outputs were removed
        print(f"runtime failure: {e}", file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
