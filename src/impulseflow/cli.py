"""Config-driven command line: five experiment kinds with machine-readable
outputs.

    impulseflow <experiment> --config cfg.json [--system NAME] [--seed N] [--out DIR]

Experiments: simulate, check-hypotheses, measure, entropy, quotient, each
with one frozen params dataclass.  This module formats and writes every
output file; the library writes none.  Outputs are written into a staging
directory and moved into the output directory only when the whole run
succeeds, and every run emits manifest.json with the fully resolved
configuration, so identical config and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import sys as _sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .entropy import EntropyConfig, entropy_estimate
from .flow_core import IntegratorConfig
from .hypotheses import hitting_continuity_probe, separation_report, transversality_margin
from .impulsive_system import impulsive_trajectory_batch
from .measures import GridPartition, occupation_measure, pushforward_discrepancy
from .quotient import metric_axiom_audit
from .systems import build_fixture, candidate_cloud, fixture_names, sample_impulsive_set

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _fail(field: str, why: str):
    raise ConfigError(f"config field {field!r}: {why}")


def _resolve(args) -> dict:
    """The config with the command-line flags applied, top-level keys checked."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from e
    if not isinstance(cfg, dict):
        _fail("<root>", "must be a JSON object")
    if cfg.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported version {cfg['schema_version']}")
    # the worker count cannot affect any output (the entropy cloud runs as one
    # batch): the legacy key is dropped, so manifests stay byte-identical
    cfg.pop("workers", None)
    _reject_unknown(cfg, ("schema_version", "system", "seed", "params", "output_dir"), "")
    system, params = cfg.get("system", {}), cfg.get("params", {})
    for key, value in (("system", system), ("params", params)):
        if not isinstance(value, dict):
            _fail(key, "must be an object")
    _reject_unknown(system, ("name", "overrides"), "system.")
    name = args.system or system.get("name")
    if name not in fixture_names():
        _fail("system.name", f"required (or pass --system); choose from {fixture_names()}")
    seed = cfg.get("seed", 0) if args.seed is None else args.seed
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed", "must be a non-negative integer")
    output_dir = args.out or cfg.get("output_dir", ".")
    if not isinstance(output_dir, str):
        _fail("output_dir", "must be a string")
    if args.grid:
        params = {**params, "grid": args.grid}
    return {"schema_version": SCHEMA_VERSION,
            "system": {"name": name, "overrides": system.get("overrides", {})},
            "seed": seed, "params": params, "output_dir": output_dir}


def _reject_unknown(obj: dict, known, prefix: str) -> None:
    for key in obj:
        if key not in known:
            _fail(prefix + key, f"unknown key; known keys are {list(known)}")


def _param(default, ok, why: str):
    """One params field, converted from JSON by its declared type (``_KINDS``).
    ``default`` is a JSON value or a function of ``p``, and ``ok(value, p)``
    the check ``why`` states (or it raises ValueError with its own reason);
    ``p`` holds the fields above this one, the system ``p.sys``, ``p.seed``."""
    return field(metadata={"default": default, "ok": ok, "why": why})


def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError("must be a finite number")
    return float(v)


def _count(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError("must be an integer")
    return v


def _numbers(v) -> tuple:
    if not isinstance(v, (list, tuple)):
        raise ValueError("must be a list of finite numbers")
    return tuple(_number(x) for x in v)


def _string(v) -> str:
    if not isinstance(v, str):
        raise ValueError("must be a string")
    return v


# declared field type (the annotation's text) -> conversion of the JSON value
_KINDS = {"float": _number, "int": _count, "tuple": _numbers, "str": _string,
          "str | None": lambda v: None if v is None else _string(v)}


def _positive_nonincreasing(v, p) -> bool:
    return len(v) >= 1 and min(v) > 0 and list(v) == sorted(v, reverse=True)


@dataclass(frozen=True)
class SimulateParams:
    horizon: float = _param(100.0, lambda v, p: v > 0, "> 0")
    dt_sample: float = _param(0.01, lambda v, p: v > 0, "> 0")
    # by default one draw from the system's candidate cloud
    initial_state: tuple = _param(
        lambda p: candidate_cloud(p.sys, 1, np.random.default_rng(p.seed))[0].tolist(),
        lambda v, p: len(v) == p.sys.dim and bool(p.sys.admissible(np.array(v))),
        "one number per state coordinate, an admissible state")


@dataclass(frozen=True)
class HypothesesParams:
    n_samples: int = _param(1000, lambda v, p: v >= 1, "at least 1")
    margin_tol: float = _param(1e-6, lambda v, p: v >= 0, ">= 0")
    scales: tuple = _param([10.0 ** (-k) for k in range(1, 6)], lambda v, p: (
        len(v) >= 1 and min(v) > 0 and all(a > b for a, b in zip(v, v[1:]))),
        "nonempty, positive and strictly decreasing")
    approach_dirs: int = _param(2, lambda v, p: v >= 1, "at least 1")


@dataclass(frozen=True)
class MeasureParams(SimulateParams):
    """The orbit's params, with longer defaults, and the measure's own."""
    horizon: float = _param(1000.0, lambda v, p: v > 0, "> 0")
    dt_sample: float = _param(0.005, lambda v, p: v > 0, "> 0")
    burn_in: float = _param(lambda p: 0.1 * p.horizon,
                            lambda v, p: 0 <= v < p.horizon, "in [0, horizon)")
    t_shift: float = _param(1.0, lambda v, p: 0 < v < p.horizon / 10, "in (0, horizon/10)")
    bins: int = _param(40, lambda v, p: v >= 1, "at least 1")
    # by default the system's measure box, with ``bins`` bins per coordinate
    grid: str = _param(lambda p: ",".join(f"{float(a)!r}:{float(b)!r}:{p.bins}"
                                          for a, b in zip(*p.sys.box)),
                       lambda v, p: _grid_partition(v, p.sys.dim), "lo:hi:bins triples")


@dataclass(frozen=True)
class EntropyParams:
    T_list: tuple = _param([2, 3, 4, 5, 6, 7, 8, 9, 10], lambda v, p: (
        len(v) >= 2 and list(v) == sorted(v) and v[0] >= 0 and v[-1] > 0),
        "at least two, nonnegative, increasing and ending above 0")
    eps_list: tuple = _param([0.1], _positive_nonincreasing,
                             "nonempty, positive and nonincreasing")
    delta_list: tuple = _param([0.1], _positive_nonincreasing,
                               "nonempty, positive and nonincreasing")
    candidate_count: int = _param(4096, lambda v, p: v >= 1, "at least 1")
    dt_check: float = _param(lambda p: min(p.delta_list) / 2,
                             lambda v, p: 0 < v <= min(p.delta_list) / 2,
                             "in (0, min(delta_list)/2]")


@dataclass(frozen=True)
class QuotientParams:
    n_points: int = _param(200, lambda v, p: v >= 0, "at least 0")
    # a CSV of states under a header row; null draws n_points from the cloud
    points_csv: str | None = _param(None, lambda v, p: v is None or (
        os.path.isfile(v) and os.access(v, os.R_OK) and _read_points(v, p.sys) is not None),
        "null or a readable file")


def _read_points(path: str, sys_spec) -> np.ndarray:
    """The states of a points CSV: one admissible state per row, none when
    the header has no rows under it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if pts.size == 0:
        pts = pts.reshape(0, sys_spec.dim)
    if pts.shape[1] != sys_spec.dim:
        raise ValueError("column count does not match state dimension")
    if not sys_spec.admissible(pts).all():
        raise ValueError("a state lies outside the admissible region")
    return pts


def _resolve_params(cls, raw: dict, sys_spec, seed: int):
    """Build ``cls`` from the config's ``params``: every declared field from
    its value or default, converted and checked in declaration order; only
    then are undeclared keys rejected, so a bad value is reported first."""
    values = {}
    for f in fields(cls):
        p = SimpleNamespace(sys=sys_spec, seed=seed, **values)
        default, ok, why = f.metadata["default"], f.metadata["ok"], f.metadata["why"]
        try:
            value = _KINDS[f.type](raw[f.name] if f.name in raw else
                                   default(p) if callable(default) else default)
            passed = ok(value, p)
        except (ValueError, OverflowError) as e:
            _fail(f"params.{f.name}", str(e))
        if not passed:
            _fail(f"params.{f.name}", f"must be {why}")
        values[f.name] = value
    _reject_unknown(raw, values, "params.")
    return cls(**values)


def _grid_partition(text: str, dim: int) -> GridPartition:
    """Parse 'lo:hi:bins,lo:hi:bins,...'; a single triple is broadcast."""
    parts = text.split(",")
    parts = parts * dim if len(parts) == 1 else parts
    if len(parts) != dim:
        raise ValueError(f"expected {dim} comma-separated lo:hi:bins triples")
    try:
        lo, hi, bins = zip(*[(float(a), float(b), int(n))
                             for a, b, n in (part.split(":") for part in parts)])
    except ValueError:
        raise ValueError(f"bad lo:hi:bins triple in {text!r}") from None
    return GridPartition(lo=lo, hi=hi, bins=bins)


def _atomic_write(path: Path, lines) -> None:
    """Write one output file: the text ``lines``, each ended by LF, in UTF-8.

    This is the one function that opens an output file.  Every output goes
    through here, into the run's staging directory, which ``run`` moves
    into place only when the whole run has succeeded; that makes the write
    all-or-nothing, so no temp file of its own is needed.  Keeping it in one
    place also times it in one place (perfbench traces it as ``cli.write``).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """A table of Python ints and floats under its header row; a float is
    written as its ``str``, which is its ``repr``, so it reads back exactly."""
    _atomic_write(path, (",".join(map(str, row)) for row in itertools.chain([header], rows)))


def _write_json(path: Path, obj) -> None:
    # numpy arrays and scalars are written as their Python values
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True,
                                    default=lambda o: o.tolist())])


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------

def _orbit(sys_spec, p: SimulateParams):
    """The impulsive orbit of ``p.initial_state`` and its propagation counters
    (deterministic, so they belong in the manifest)."""
    batch = impulsive_trajectory_batch(sys_spec, np.array([p.initial_state]),
                                       p.horizon, p.dt_sample)
    return batch[0], asdict(batch.stats)


def _run_simulate(sys_spec, p: SimulateParams, seed: int, outdir: Path) -> dict:
    traj, propagation = _orbit(sys_spec, p)
    names = sys_spec.state_names
    # the samples, then one flagged row per impulse with its post-impulse state
    hits = [[n, tau, *x] for n, (tau, x) in enumerate(
        zip(traj.impulse_times.tolist(), traj.post_impulse_states.tolist()), 1)]
    rows = [[t, *x, s, 0] for t, x, s in zip(
        traj.sample_times.tolist(), traj.sample_states.tolist(),
        traj.segment_index(traj.sample_times).tolist())]
    rows += [[tau, *x, n, 1] for n, tau, *x in hits]
    rows.sort(key=lambda r: (r[0], r[-1]))
    _write_csv(outdir / "trajectory.csv", ["t", *names, "segment_index", "is_impulse"], rows)
    _write_csv(outdir / "impulses.csv", ["n", "tau_n", *names], hits)
    return {
        "initial_state": p.initial_state,
        "n_impulses": traj.n_impulses,
        "propagation": propagation,
        "outputs": ["trajectory.csv", "impulses.csv"],
    }


def _run_check_hypotheses(sys_spec, p: HypothesesParams, seed: int, outdir: Path) -> dict:
    reps = {which: transversality_margin(sys_spec, which, p.n_samples, p.margin_tol)
            for which in ("D", "ID")}
    sep = separation_report(sys_spec, min(p.n_samples, 400))
    probe_point = sample_impulsive_set(sys_spec, "D", 3)[-1]
    table = hitting_continuity_probe(sys_spec, probe_point, p.approach_dirs, p.scales)
    decays = [row["tau_star_max"] for row in table if np.isfinite(row["tau_star_max"])]
    cont_ok = len(decays) >= 2 and all(a > b for a, b in zip(decays, decays[1:]))
    report = {
        **{f"transversality_{which}": {
            "sampled_points": rep.sampled_points,
            "min_abs_inner": rep.min_abs_inner,
            "sign_consistent": rep.sign_consistent,
            "common_sign": rep.common_sign,
            "worst_point": rep.worst_point.tolist(),
            "pass": rep.passed,
        } for which, rep in reps.items()},
        "separation": {
            "dist_D_ID": sep.dist_D_ID,
            "xi_margin": sep.xi_margin,
            "pass": sep.dist_D_ID > 0,
        },
        "continuity_table": table,
        "pass": bool(all(rep.passed for rep in reps.values())
                     and sep.dist_D_ID > 0 and cont_ok),
    }
    _write_json(outdir / "hypotheses.json", report)
    return {"pass": report["pass"], "outputs": ["hypotheses.json"]}


def _run_measure(sys_spec, p: MeasureParams, seed: int, outdir: Path) -> dict:
    grid = _grid_partition(p.grid, sys_spec.dim)
    traj, propagation = _orbit(sys_spec, p)
    mu = occupation_measure(traj, grid, p.burn_in)
    disc = pushforward_discrepancy(traj, grid, p.t_shift, p.burn_in)
    dims = range(grid.dim)
    # one row at a time: whole-table lists would raise the process's peak RSS
    cells = zip(grid.multi_indices(), grid.cell_centers(), mu.weights.tolist())
    _write_csv(outdir / "measure.csv",
               [*(f"i{k}" for k in dims), *(f"center{k}" for k in dims), "weight"],
               (i.tolist() + c.tolist() + [w] for i, c, w in cells))
    return {
        "initial_state": p.initial_state,
        "escaped_frac": mu.escaped_frac,
        "pushforward_discrepancy": disc,
        "propagation": propagation,
        "outputs": ["measure.csv"],
    }


def _run_entropy(sys_spec, p: EntropyParams, seed: int, outdir: Path) -> dict:
    est = entropy_estimate(sys_spec, EntropyConfig(
        T_list=p.T_list, eps_list=p.eps_list, delta_list=p.delta_list,
        candidate_count=p.candidate_count, dt_check=p.dt_check, seed=seed))
    _write_csv(outdir / "entropy_table.csv", ["T", "eps", "delta", "s_count", "saturated"],
               ([r.T, r.eps, r.delta, r.s_count, int(r.saturated)] for r in est.table))
    return {
        "h_tau_estimate": est.h_tau_estimate,
        "lower_bound_only": est.lower_bound_only,
        "rates": {f"eps={e},delta={d}": v for (e, d), v in est.rates.items()},
        "diagnostics": est.diagnostics,
        "outputs": ["entropy_table.csv"],
    }


class _Reprs(dict):
    """repr of float values, each formatted once while it stays in the dict."""

    def __missing__(self, x):
        s = repr(x)
        if x == x and x:        # nan is no key; 0.0 and -0.0 are one key, two reprs
            self[x] = s
        return s


def _write_dmatrix(path, D) -> None:
    """The class-distance matrix as ``i,j,dtilde`` lines, one joined string
    per row (all n^2 lines at once would be held in memory together).  A
    value seen before is formatted once; the memo of these strings starts
    afresh once it holds more than 16 per row of D."""
    js = [f"{j}," for j in range(len(D))]
    text = _Reprs()

    def lines():
        yield "i,j,dtilde"
        for i, row in enumerate(D):
            if len(text) > 16 * len(D):
                text.clear()
            yield f"{i}," + f"\n{i},".join(
                map(str.__add__, js, map(text.__getitem__, row.tolist())))
    _atomic_write(path, lines())


def _run_quotient(sys_spec, p: QuotientParams, seed: int, outdir: Path) -> dict:
    if p.points_csv is not None:
        pts = _read_points(p.points_csv, sys_spec)
    else:
        pts = candidate_cloud(sys_spec, p.n_points, np.random.default_rng(seed))
    audit = metric_axiom_audit(sys_spec, pts)
    classes, D, n = audit.classes, audit.distances, audit.n_points
    _write_csv(outdir / "quotient_classes.csv",
               ["point_index", "member_index", *sys_spec.state_names],
               ([i, k, *m] for i, cl in enumerate(classes)
                for k, m in enumerate(cl.members.tolist())))
    _write_dmatrix(outdir / "quotient_dmatrix.csv", D)
    return {
        "n_points": n,
        "audit": {
            "symmetry_violations": audit.symmetry_violations,
            "identity_violations": audit.identity_violations,
            "triangle_violations": audit.triangle_violations,
        },
        "outputs": ["quotient_classes.csv", "quotient_dmatrix.csv"],
    }


EXPERIMENTS = {
    "simulate": (SimulateParams, _run_simulate),
    "check-hypotheses": (HypothesesParams, _run_check_hypotheses),
    "measure": (MeasureParams, _run_measure),
    "entropy": (EntropyParams, _run_entropy),
    "quotient": (QuotientParams, _run_quotient),
}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="impulseflow",
        description="Impulsive-semiflow experiments with reproducible outputs.")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--config", help="JSON experiment configuration")
    p.add_argument("--system", help="builtin system name")
    p.add_argument("--seed", type=int, help="64-bit RNG seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--grid",
                   help="measure grid as lo:hi:bins per coordinate, comma-separated")
    p.add_argument("--workers", type=int,
                   help="ignored (no-op), accepted for compatibility")
    return p


def run(config: dict, experiment: str) -> dict:
    """Execute one experiment from a config from ``_resolve``; returns the
    manifest.  The experiment writes into a staging directory inside the
    output directory; its files move into place, manifest.json last, only
    once the run has succeeded.  A failed run leaves the output directory
    as it was."""
    try:
        sys_spec = build_fixture(config["system"]["name"], config["system"]["overrides"])
    except (TypeError, ValueError) as e:
        _fail("system.overrides", str(e))
    params_cls, runner = EXPERIMENTS[experiment]
    params = _resolve_params(params_cls, config["params"], sys_spec, config["seed"])
    outdir = Path(config["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=outdir, prefix=".impulseflow-stage-"))
    try:
        results = runner(sys_spec, params, config["seed"], stage)
        manifest = {
            "artifact_version": __version__,
            "experiment": experiment,
            "integrator": asdict(IntegratorConfig()),
            "resolved_config": {**config, "params": asdict(params)},
            "results": results,
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
