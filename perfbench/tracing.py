"""In-memory span tracing by re-binding the names sfvem's modules call.

sfvem modules import their collaborators by name (``from .element import
sfvem_local``), so replacing ``sfvem.system.sfvem_local`` with a timing
wrapper traces every call ``assemble`` makes, without touching the sources.
Spans are kept in memory as [id, run, name, parent, start, end, attrs] and
written out once, when the benchmark ends; the layer metrics are derived
from the written file.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

import numpy as np

SPAN_FIELDS = ["id", "run", "name", "parent", "start", "end", "attrs"]
ROOT = "workload"


def _n_points(args, out):
    return {"points": len(np.atleast_2d(args[1]))}


def _cell(args, out):
    return {"N": len(args[0]), "ell": int(out.ell)}


# (module, attribute, span name, attrs(args, result) or None). A layer called
# from several modules is re-bound in each of them.
TARGETS = [
    ("sfvem.analysis", "generate_distorted_grid", "mesh.generate", None),
    ("sfvem.analysis", "generate_voronoi", "mesh.generate", None),
    ("sfvem.analysis", "quality_report", "mesh.quality", None),
    ("sfvem.mesh", "is_simple", "geometry.is_simple", None),
    ("sfvem.analysis", "assemble", "system.assemble",
     lambda a, out: {"n_free": out.n_free, "nnz": int(out.matrix.nnz)}),
    ("sfvem.system", "sfvem_local", "element.sfvem_local", _cell),
    ("sfvem.system", "standard_vem_local", "element.vem_local", _cell),
    ("sfvem.element", "polygon_rule", "quadrature.polygon_rule",
     lambda a, out: {"points": len(out.weights)}),
    ("sfvem.analysis", "polygon_rule", "quadrature.polygon_rule",
     lambda a, out: {"points": len(out.weights)}),
    ("sfvem.projectors", "polygon_rule", "quadrature.polygon_rule",
     lambda a, out: {"points": len(out.weights)}),
    ("sfvem.poly.Poly2", "__call__", "poly.eval", _n_points),
    ("sfvem.element", "hgrad_matrix", "projectors.hgrad_matrix", None),
    ("sfvem.analysis", "hgrad_matrix", "projectors.hgrad_matrix", None),
    ("sfvem.element", "nabla_matrix", "projectors.nabla_matrix", None),
    ("sfvem.analysis", "nabla_matrix", "projectors.nabla_matrix", None),
    ("sfvem.analysis", "solve", "system.solve",
     lambda a, out: {"residual": out.residual}),
    ("sfvem.analysis", "error_norms", "analysis.error_norms",
     lambda a, out: {"cells": a[0].mesh.n_cells}),
    ("sfvem.analysis", "spectral_audit", "analysis.spectral_audit",
     lambda a, out: {"sigma_r_over_max": out.sigma_r_over_max}),
    ("sfvem.analysis", "jacobi_singular_values", "analysis.jacobi", None),
]


def _resolve(path: str):
    """Module or module-level class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Collects spans; one run id per traced workload pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.run = 0

    def _begin(self, name: str) -> list:
        stack = self._stack
        rec = [len(self.spans), self.run, name, stack[-1] if stack else None,
               time.perf_counter(), None, None]
        self.spans.append(rec)
        stack.append(rec[0])
        return rec

    def _end(self, rec: list) -> None:
        self._stack.pop()
        rec[5] = time.perf_counter()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if attrs is not None:
                rec[6] = attrs(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Re-bind every target to its wrapper; restore on exit."""
        saved = []
        try:
            for path, attr, name, attrs in TARGETS:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def run_span(self, run_id: int):
        """Root span of one traced pass."""
        self.run = run_id
        rec = self._begin(ROOT)
        try:
            yield rec
        finally:
            self._end(rec)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": SPAN_FIELDS, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# layer metrics from a spans file

N_RANGE = range(3, 11)     # per-N rows; the Voronoi cells seen so far have 3..9 sides
ELL_RANGE = range(0, 5)    # ell = ceil((N - 3) / 2) for those N


def load_spans(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    keys = data["fields"]
    return data["meta"], [dict(zip(keys, s)) for s in data["spans"]]


def self_times(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds.

    A span's self time is its duration minus its direct children's.
    """
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    table = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child.get(s["id"], 0.0)
    return table


def run_metrics(spans: list, counts: dict) -> dict:
    """Layer metrics of one traced pass (its spans and fallback counts)."""
    table = self_times(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def attrs(name, key):
        # a span whose call raised carries no attributes
        return [s["attrs"][key] for s in spans if s["name"] == name and s["attrs"]]

    def attr_sum(name, key):
        return sum(attrs(name, key))

    def attr_max(name, key):
        return max(attrs(name, key), default=0.0)

    def attr_min(name, key):
        return min(attrs(name, key), default=0.0)

    def per_cell_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    root = next(s for s in spans if s["name"] == ROOT)
    wall = root["end"] - root["start"]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    local = [s for s in spans if s["name"] == "element.sfvem_local" and s["attrs"]]
    m = {
        "mesh.generate_s": total("mesh.generate"),
        "mesh.quality_s": total("mesh.quality"),
        "geometry.is_simple_calls": calls("geometry.is_simple"),
        "geometry.is_simple_s": total("geometry.is_simple"),
        "element.sfvem_local_s": total("element.sfvem_local"),
        "element.sfvem_local_us_per_cell": per_cell_us("element.sfvem_local"),
        "element.vem_local_s": total("element.vem_local"),
        "element.vem_local_us_per_cell": per_cell_us("element.vem_local"),
        "quadrature.polygon_rule_s": total("quadrature.polygon_rule"),
        "quadrature.polygon_rule_calls": calls("quadrature.polygon_rule"),
        "quadrature.points": attr_sum("quadrature.polygon_rule", "points"),
        "poly.eval_s": total("poly.eval"),
        "poly.eval_points": attr_sum("poly.eval", "points"),
        "projectors.hgrad_matrix_s": total("projectors.hgrad_matrix"),
        "projectors.hgrad_matrix_calls": calls("projectors.hgrad_matrix"),
        "projectors.nabla_matrix_s": total("projectors.nabla_matrix"),
        "projectors.pinv_fallbacks": counts["pinv_fallbacks"],
        "system.assemble_s": total("system.assemble"),
        "system.scatter_s": table.get("system.assemble", {}).get("self_s", 0.0),
        "system.solve_s": total("system.solve"),
        "system.n_free": attr_sum("system.assemble", "n_free"),
        "system.nnz": attr_sum("system.assemble", "nnz"),
        "system.residual_max": attr_max("system.solve", "residual"),
        "system.inexact_quadrature_warnings": counts["inexact_quadrature_warnings"],
        "system.residual_warnings": counts["residual_warnings"],
        "analysis.error_norms_s": total("analysis.error_norms"),
        "analysis.error_norms_us_per_cell": (
            1e6 * total("analysis.error_norms") / attr_sum("analysis.error_norms", "cells")
            if calls("analysis.error_norms") else 0.0),
        "analysis.spectral_audit_s": total("analysis.spectral_audit"),
        "analysis.jacobi_s": total("analysis.jacobi"),
        "analysis.min_sigma_r_over_max": attr_min("analysis.spectral_audit",
                                                  "sigma_r_over_max"),
        "cli.other_s": wall - top,
        "trace.coverage_frac": top / wall,
    }
    for n in N_RANGE:
        durs = [s["end"] - s["start"] for s in local if s["attrs"]["N"] == n]
        m[f"element.sfvem_local_us_per_cell.N{n}"] = 1e6 * sum(durs) / len(durs) if durs else 0.0
    for ell in ELL_RANGE:
        m[f"element.cells_by_ell.{ell}"] = sum(s["attrs"]["ell"] == ell for s in local)
    return m


def layer_metrics(path: str, counts_by_run: dict, untraced_wall: float) -> tuple:
    """Median over the traced passes in the spans file of each layer metric,
    plus the self-time table of the whole file."""
    _meta, spans = load_spans(path)
    by_run: dict = {}
    for s in spans:
        by_run.setdefault(s["run"], []).append(s)
    per_run = [run_metrics(by_run[r], counts_by_run[r]) for r in sorted(by_run)]
    walls = [s["end"] - s["start"] for s in spans if s["name"] == ROOT]
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    out["trace.overhead_frac"] = statistics.median(walls) / untraced_wall - 1.0
    return out, self_times(spans)
