"""Workload definitions: which CLI experiments a workload runs, with which
config, and the acceptance bound each result is checked against.

The bounds are copied from the acceptance suite (tests/test_acceptance.py)
and must not be tightened or loosened here.  A result outside its bound is a
failed call; it is counted, never raised.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``impulseflow <experiment> --config <config>``."""

    experiment: str
    config: dict


@dataclass(frozen=True)
class Check:
    """One acceptance check on a call's outputs.  ``margin`` is the distance
    to the bound (positive inside it), kept as information, not gated."""

    name: str
    value: float
    bound: str
    ok: bool
    margin: float | None = None


@dataclass(frozen=True)
class Workload:
    """``calls(seed)`` gives the workload's calls in order, each paired with
    the name of its check in CHECKS.  ``seeded`` says whether the seed changes
    the inputs; the reason for each workload is its ``why`` in
    BENCHMARK.json."""

    seeded: bool
    calls: object


# --------------------------------------------------------------------------
# Checks (bounds from the acceptance suite)
# --------------------------------------------------------------------------

def check_zero_entropy(manifest, outdir) -> list[Check]:
    """Criterion 4: h <= 0.05."""
    h = float(manifest["results"]["h_tau_estimate"])
    return [Check("h_tau_estimate", h, "<= 0.05", h <= 0.05, 0.05 - h)]


def check_measure(manifest, outdir) -> list[Check]:
    """Criterion 2's invariance defect (<= 0.02) and the measure's escape
    limit (< 1e-3)."""
    res = manifest["results"]
    disc = float(res["pushforward_discrepancy"])
    esc = float(res["escaped_frac"])
    return [
        Check("pushforward_discrepancy", disc, "<= 0.02", disc <= 0.02, 0.02 - disc),
        Check("escaped_frac", esc, "< 1e-3", esc < 1e-3, 1e-3 - esc),
    ]


def check_hypotheses(manifest, outdir) -> list[Check]:
    """The hypotheses report of both systems passes."""
    with open(Path(outdir) / "hypotheses.json", encoding="utf-8") as fh:
        report = json.load(fh)
    ok = bool(report["pass"]) and bool(manifest["results"]["pass"])
    margin = min(report["transversality_D"]["min_abs_inner"],
                 report["transversality_ID"]["min_abs_inner"])
    return [Check("pass", float(ok), "== true", ok, float(margin))]


def check_quotient(manifest, outdir) -> list[Check]:
    """Symmetry and identity hold exactly.  Triangle violations are genuine
    for the two-to-one doubling map, so they are not checked."""
    audit = manifest["results"]["audit"]
    sym = int(audit["symmetry_violations"])
    ident = int(audit["identity_violations"])
    return [
        Check("symmetry_violations", float(sym), "== 0", sym == 0),
        Check("identity_violations", float(ident), "== 0", ident == 0),
    ]


CHECKS = {
    "zero_entropy": check_zero_entropy,
    "measure": check_measure,
    "hypotheses": check_hypotheses,
    "quotient": check_quotient,
}


def check_call(kind: str, outdir) -> list[Check]:
    """Run the acceptance check ``kind`` on a finished call's outputs.  A
    missing or unreadable output is a failed check, not an exception."""
    try:
        with open(Path(outdir) / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        return CHECKS[kind](manifest, outdir)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [Check(f"readable outputs ({type(e).__name__})", math.nan,
                      "present", False)]


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _entropy_annulus(seed: int) -> list[tuple[Call, str]]:
    cfg = {"system": {"name": "annulus"}, "seed": seed,
           "params": {"T_list": [10.0, 20.0, 30.0],
                      "eps_list": [0.2, 0.1, 0.05], "delta_list": [0.3],
                      "candidate_count": 512}}
    return [(Call("entropy", cfg), "zero_entropy")]


def _measure_quotient(seed: int) -> list[tuple[Call, str]]:
    return [
        (Call("measure", {"system": {"name": "annulus"}, "seed": seed,
                          "params": {"horizon": 300.0, "dt_sample": 0.005,
                                     "burn_in": 100.0}}),
         "measure"),
        (Call("check-hypotheses", {"system": {"name": "annulus"}, "seed": seed,
                                   "params": {"n_samples": 1000}}),
         "hypotheses"),
        (Call("check-hypotheses", {"system": {"name": "prey_predator"},
                                   "seed": seed,
                                   "params": {"n_samples": 1000}}),
         "hypotheses"),
        (Call("quotient", {"system": {"name": "doubling_suspension"},
                           "seed": seed, "params": {"n_points": 300}}),
         "quotient"),
    ]


WORKLOADS = {
    "entropy_annulus": Workload(seeded=True, calls=_entropy_annulus),
    "measure_quotient": Workload(seeded=True, calls=_measure_quotient),
}


def entropy_table_stats(outdir, candidate_count: int) -> dict:
    """Cell counts read from an entropy run's ``entropy_table.csv``:
    admit_ratio is admitted orbits per (cell x candidate)."""
    with open(Path(outdir) / "entropy_table.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = len(rows)
    admitted = sum(int(r["s_count"]) for r in rows)
    return {
        "cells": cells,
        "admitted": admitted,
        "saturated_cells": sum(int(r["saturated"]) for r in rows),
        "candidates": cells * candidate_count,
    }
