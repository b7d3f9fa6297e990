"""Self-tests of the benchmark's checks and tracer (not part of sfvem's suite).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import logging
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

run.import_sfvem()

from sfvem.analysis import SpectralAudit  # noqa: E402

NO_WARNINGS = dict.fromkeys(wl.FallbackCounter.KINDS.values(), 0)


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


@pytest.mark.parametrize("workload", sorted(wl.COMPARE))
def test_reference_rows_pass_their_own_check(reference, workload):
    for seed in range(wl.N_REFERENCE_SEEDS):
        rows = reference[workload][str(seed)]["rows"]
        result = wl.check_compare(workload, seed, rows, reference)
        assert (result.failed, result.problems) == (0, [])


@pytest.mark.parametrize("rel, failed", [(0.5e-10, 0), (2e-10, 1), (-2e-10, 1)])
def test_perturbed_reference_fails_beyond_tolerance(reference, rel, failed):
    rows = reference["grid-compare"]["5"]["rows"]
    perturbed = copy.deepcopy(reference)
    perturbed["grid-compare"]["5"]["rows"][1]["e1_vem"] *= 1.0 + rel
    result = wl.check_compare("grid-compare", 5, rows, perturbed)
    assert result.failed == failed
    assert len(result.problems) == failed


def test_missing_level_fails_its_ops(reference):
    rows = reference["voronoi-compare"]["2"]["rows"][:-1]
    result = wl.check_compare("voronoi-compare", 2, rows, reference)
    assert result.failed == len(wl.METHODS)


def test_grid_rates_outside_acceptance_bounds_fail(reference):
    rows = copy.deepcopy(reference["grid-compare"]["0"]["rows"])
    for k, row in enumerate(rows):
        row["e0_sfvem"] *= 2.0 ** k  # flattens the sfvem L2 rate below 1.6
    perturbed = copy.deepcopy(reference)
    perturbed["grid-compare"]["0"]["rows"] = copy.deepcopy(rows)
    result = wl.check_compare("grid-compare", 0, rows, perturbed)
    assert result.failed == len(wl.COMPARE["grid-compare"]["levels"])
    assert any("a0_sfvem" in p for p in result.problems)


def test_residual_warnings_fail_ops(tmp_path, reference):
    with open(tmp_path / "convergence.csv", "w", encoding="utf-8") as fh:
        rows = reference["grid-compare"]["3"]["rows"]
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row.values()) + "\n")
    counts = dict(NO_WARNINGS, residual_warnings=2)
    ok = wl.check_compare_run("grid-compare", 3, str(tmp_path), 0, NO_WARNINGS, reference)
    bad = wl.check_compare_run("grid-compare", 3, str(tmp_path), 0, counts, reference)
    assert (ok.failed, bad.failed) == (0, 2)


@pytest.mark.parametrize("sv, ok", [
    ([1.0, 1e-3, 1e-14], True),
    ([1.0, 1e-9, 1e-14], False),   # rank margin below 1e-8
    ([1.0, 1e-3, 1e-10], False),   # constants not in the kernel
])
def test_audit_gates(sv, ok):
    audit = SpectralAudit("p", 5, 1, np.array(sv))
    assert (wl.audit_failure(audit) is None) == ok
    result = wl.check_audit([audit], [])
    assert result.failed == wl.cells_per_pass("polygon-audit") - 1 + (not ok)


def test_audit_polygons_are_seeded_simple_and_ccw():
    from sfvem.geometry import is_simple, signed_area

    a, b = wl.audit_polygons(7), wl.audit_polygons(7)
    assert len(a) == len(wl.AUDIT_N) * wl.AUDIT_PER_N
    assert all(np.array_equal(p.vertices, q.vertices) for p, q in zip(a, b))
    for seed in range(8):
        polys = wl.audit_polygons(seed)
        assert all(signed_area(p.vertices) > 0 and is_simple(p.vertices) for p in polys)


def test_fallback_counter_counts_program_warnings():
    counter = wl.FallbackCounter()
    with counter.attached():
        logging.getLogger("sfvem.projectors").warning(
            "cholesky factorization failed; using pseudo-inverse")
        logging.getLogger("sfvem.system").warning("solver residual %.3e exceeds 1e-10", 1.0)
    logging.getLogger("sfvem.system").warning("solver residual %.3e exceeds 1e-10", 1.0)
    assert counter.counts == dict(NO_WARNINGS, pinv_fallbacks=1, residual_warnings=1)


def test_tracer_spans_self_times_and_restore(tmp_path):
    import sfvem.analysis as analysis
    from sfvem.mesh import catalog_polygons

    original = analysis.spectral_audit
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.run_span(0):
        analysis.audit_catalog(0)
    assert analysis.spectral_audit is original
    path = tmp_path / "spans.json"
    tracer.write(str(path), {})
    _meta, spans = tracing.load_spans(str(path))
    by_id = {s["id"]: s for s in spans}
    audits = [s for s in spans if s["name"] == "analysis.spectral_audit"]
    assert len(audits) == len(catalog_polygons())
    assert all(by_id[s["parent"]]["name"] == tracing.ROOT for s in audits)
    for s in spans:
        if s["name"] in ("analysis.jacobi", "projectors.hgrad_matrix"):
            assert by_id[s["parent"]]["name"] == "analysis.spectral_audit"
    table = tracing.self_times(spans)
    children = table["analysis.jacobi"]["total_s"] + table["projectors.hgrad_matrix"]["total_s"]
    audit = table["analysis.spectral_audit"]
    assert audit["self_s"] == pytest.approx(audit["total_s"] - children, abs=1e-9)
    m = tracing.run_metrics(spans, NO_WARNINGS)
    declared = {d["name"] for d in run.load_spec()["per_layer"]}
    assert set(m) | {"trace.overhead_frac"} == declared
    assert m["trace.coverage_frac"] > 0.9

