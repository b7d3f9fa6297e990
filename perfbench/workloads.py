"""Workload definitions, input generation and correctness checks.

Each workload has one *pass*: the operation a user runs once and waits for.

* grid-compare    - ``sfvem compare`` on distorted grids 8..64 (the paper's
  headline study, the acceptance test's levels).
* voronoi-compare - ``sfvem compare`` on Voronoi meshes 8,16,24 (64, 256 and
  576 seeds, 3 Lloyd sweeps, distortion 0.25).
* polygon-audit   - the spectral audit on seeded random star-shaped polygons,
  N = 3..20, at ell offsets 0, 1, 2, plus the built-in catalog.

An *op* is one (level, method) solve of a compare pass, or one polygon audit.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Compare workloads draw their mesh seed from this many stored references,
# so every benchmark seed maps onto a seed whose errors are known.
N_REFERENCE_SEEDS = 16
# ROADMAP gate on relative error drift against the reference.
ERROR_RTOL = 1e-10
# Acceptance-test bounds on the fitted grid rates (set for the grid study).
GRID_RATE_BOUNDS = {"a1_sfvem": (0.8, 1.3), "a0_sfvem": (1.6, 2.4),
                    "a1_vem": (0.7, math.inf)}
# Spectral audit gates at rule-compliant degrees.
KERNEL_RATIO_MAX = 1e-11
RANK_MARGIN_MIN = 1e-8

METHODS = ("sfvem", "vem")
COMPARE = {
    "grid-compare": {"generator": "grid", "levels": (8, 16, 32, 64)},
    "voronoi-compare": {"generator": "voronoi", "levels": (8, 16, 24)},
}
AUDIT_N = range(3, 21)
AUDIT_PER_N = 20
AUDIT_OFFSETS = (0, 1, 2)
WORKLOADS = ("grid-compare", "voronoi-compare", "polygon-audit")


def mesh_seed(seed: int) -> int:
    return seed % N_REFERENCE_SEEDS


def compare_argv(workload: str, seed: int, out_dir: str) -> list:
    spec = COMPARE[workload]
    return ["compare", "--problem", "benchmark",
            "--generator", spec["generator"],
            "--levels", ",".join(str(n) for n in spec["levels"]),
            "--seed", str(mesh_seed(seed)), "--out", out_dir]


def cells_per_pass(workload: str) -> int:
    """Element builds in one pass: cells x methods, or (polygon, ell) pairs."""
    if workload in COMPARE:
        # a level-n grid has n^2 cells, a level-n Voronoi mesh n^2 seeds
        return len(METHODS) * sum(n * n for n in COMPARE[workload]["levels"])
    return len(AUDIT_N) * AUDIT_PER_N * len(AUDIT_OFFSETS) + len(AUDIT_N)


# ---------------------------------------------------------------------------
# log-only fallbacks of the program, counted instead of assumed absent


class FallbackCounter(logging.Handler):
    """Counts the warnings sfvem emits for its numerical fallbacks."""

    KINDS = {
        "pseudo-inverse": "pinv_fallbacks",
        "quadrature degree below exactness": "inexact_quadrature_warnings",
        "solver residual": "residual_warnings",
    }

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts = dict.fromkeys(self.KINDS.values(), 0)

    def emit(self, record):
        for needle, kind in self.KINDS.items():
            if needle in str(record.msg):
                self.counts[kind] += 1

    @contextlib.contextmanager
    def attached(self):
        loggers = [logging.getLogger(n) for n in ("sfvem.projectors", "sfvem.system")]
        for lg in loggers:
            lg.addHandler(self)
        try:
            yield self
        finally:
            for lg in loggers:
                lg.removeHandler(self)


# ---------------------------------------------------------------------------
# passes: a timed program call, then an untimed check


@dataclass
class PassResult:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def compare_program(workload: str, seed: int, out_dir: str, counter) -> int:
    """One in-process ``sfvem compare`` run; returns its exit code."""
    from sfvem import cli

    with counter.attached(), contextlib.redirect_stdout(io.StringIO()):
        return cli.main(compare_argv(workload, seed, out_dir))


def check_compare_run(workload: str, seed: int, out_dir: str, code: int,
                      counts: dict, reference) -> PassResult:
    rows = read_convergence_csv(os.path.join(out_dir, "convergence.csv"))
    result = check_compare(workload, seed, rows, reference)
    if code != 0:
        result.problems.append(f"sfvem compare exited with {code}")
    # each residual warning is one solve above the 1e-10 residual limit
    if counts["residual_warnings"]:
        result.problems.append(f"{counts['residual_warnings']} solve(s) with "
                               f"residual above 1e-10")
    result.failed = min(result.attempted,
                        result.failed + counts["residual_warnings"])
    return result


def read_convergence_csv(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: (int(v) if k in ("level", "ndof") else float(v))
                 for k, v in row.items()} for row in csv.DictReader(fh)]


def fitted_rates(rows: list) -> dict:
    """The program's own rate fit, applied to the CSV rows."""
    from sfvem.analysis import ConvergenceRecord, fit_rates

    records = [ConvergenceRecord(**row) for row in rows]
    return {f"a{i}_{m}": ab[i] for m, ab in fit_rates(records).items()
            for i in (0, 1)}


def check_compare(workload: str, seed: int, rows: list, reference) -> PassResult:
    """Per (level, method): errors within ERROR_RTOL of the stored reference.

    On grid-compare a fitted rate outside the acceptance bounds fails every
    op of its method.
    """
    levels = COMPARE[workload]["levels"]
    ref_rows = {r["level"]: r for r in reference[workload][str(mesh_seed(seed))]["rows"]}
    got = {r["level"]: r for r in rows}
    failed_ops = set()
    problems = []
    for level in levels:
        for method in METHODS:
            row, ref = got.get(level), ref_rows[level]
            for key in (f"e0_{method}", f"e1_{method}"):
                if row is None or not (abs(row[key] - ref[key]) <= ERROR_RTOL * abs(ref[key])):
                    failed_ops.add((level, method))
                    problems.append(f"level {level} {key}: got "
                                    f"{None if row is None else row[key]!r}, "
                                    f"reference {ref[key]!r}")
    rates = {}
    if len(rows) == len(levels):
        rates = fitted_rates(rows)
        if workload == "grid-compare":
            for name, (lo, hi) in GRID_RATE_BOUNDS.items():
                if not lo <= rates[name] <= hi:
                    method = name.split("_", 1)[1]
                    failed_ops.update((lv, method) for lv in levels)
                    problems.append(f"{name}={rates[name]:.4f} outside [{lo}, {hi}]")
    return PassResult(len(levels) * len(METHODS), len(failed_ops), problems,
                      extra={"rates": rates})


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def audit_polygons(seed: int) -> list:
    """Random star-shaped simple CCW polygons, AUDIT_PER_N per vertex count.

    Vertex k sits at angle 2 pi (k + u_k) / n with |u_k| <= 0.2 and radius
    in [0.4, 1]. Every angular gap is below 1.4 * 2 pi / 3 < pi, so the
    origin lies inside and the polygon is star-shaped about it, hence simple
    and counterclockwise. The polygon is then scaled by 10^U(-3, 0) and
    shifted, spreading the sizes over three decades.
    """
    from sfvem.mesh import CatalogPolygon

    rng = np.random.default_rng(seed)
    out = []
    for n in AUDIT_N:
        for k in range(AUDIT_PER_N):
            theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
            radius = rng.uniform(0.4, 1.0, n)
            scale = 10.0 ** rng.uniform(-3.0, 0.0)
            shift = rng.uniform(-1.0, 1.0, 2)
            V = scale * np.column_stack([radius * np.cos(theta),
                                         radius * np.sin(theta)]) + shift
            out.append(CatalogPolygon(f"star{n}-{k}", V))
    return out


def audit_failure(audit) -> str | None:
    """Why one rule-compliant audit fails its gates, or None."""
    s = audit.singular_values
    kernel, margin = s[-1] / s[0], s[-2] / s[0]
    if not kernel <= KERNEL_RATIO_MAX:
        return f"{audit.name} ell={audit.ell}: sigma_min/sigma_max={kernel:.3e}"
    if not margin >= RANK_MARGIN_MIN:
        return f"{audit.name} ell={audit.ell}: sigma_r/sigma_max={margin:.3e}"
    return None


def audit_program(polygons: list, counter) -> tuple:
    """Audit every polygon at every offset, then the catalog at the rule.

    Returns (audits, errors); a raising op is recorded, not propagated.
    """
    from sfvem import analysis
    from sfvem.element import effective_ell

    audits, errors = [], []
    with counter.attached():
        for poly in polygons:
            for offset in AUDIT_OFFSETS:
                try:
                    audits.append(analysis.spectral_audit(
                        poly, effective_ell(poly.n_vertices, offset)))
                except Exception as exc:
                    errors.append(f"{poly.name} offset {offset}: {exc!r}")
        try:
            audits.extend(analysis.audit_catalog(0))
        except Exception as exc:
            errors.append(f"audit_catalog: {exc!r}")
    return audits, errors


def check_audit(audits: list, errors: list) -> PassResult:
    """Every audit runs at a rule-compliant degree, so every one is gated."""
    attempted = cells_per_pass("polygon-audit")
    reasons = [r for r in map(audit_failure, audits) if r]
    failed = attempted - len(audits) + len(reasons)
    margin = min((a.sigma_r_over_max for a in audits), default=0.0)
    return PassResult(attempted, failed, errors + reasons,
                      {"min_sigma_r_over_max": margin})
