"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with its measured margins and wall time.

These tests intentionally re-verify behavior covered piecemeal by the
per-module suites, but at full sweep widths and with hard runtime caps,
so a single green run of this file certifies the build.
"""
import time

import numpy as np

from sfvem.analysis import audit_catalog, convergence_study, fit_rates
from sfvem.cli import main
from sfvem.element import effective_ell
from sfvem.geometry import polygon_stack
from sfvem.mesh import catalog_polygons, generate_distorted_grid
from sfvem.poly import (HarmonicBasis, Poly2, build_benchmark_coefficients,
                        manufactured_problem)
from sfvem.projectors import dof_matrix, hgrad_matrix, nabla_matrix
from sfvem.system import assemble, solve

from oracles import area_gram, monomial_integral
from test_projectors import boundary_rhs_oracle

RNG = np.random.default_rng(7)

# degree rule pairs for vertex counts 3..18, frozen as the reference table
RULE_TABLE = [(3, 0), (4, 1), (5, 1), (6, 2), (7, 2), (8, 3), (9, 3),
              (10, 4), (11, 4), (12, 5), (13, 5), (14, 6), (15, 6),
              (16, 7), (17, 7), (18, 8)]


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'}  ({detail})")


def test_projector_exactness_suite(capsys):
    # every catalog polygon, harmonic degrees 0..10: the gradient
    # projector satisfies its defining orthogonality against an
    # independently integrated right-hand side, the linear projector
    # reproduces P1, and the two Gram assembly paths agree entrywise
    t0 = time.perf_counter()
    worst_orth = worst_gram = worst_p1 = 0.0
    for p in catalog_polygons():
        frame = polygon_stack(p.vertices[None]).frame
        vals = 2.0 * p.vertices[:, 0] - 3.0 * p.vertices[:, 1] + 0.5
        coef = nabla_matrix(p.vertices) @ vals
        worst_p1 = max(
            worst_p1,
            np.abs(dof_matrix(p.vertices[None], frame)[0] @ coef - vals).max()
            / np.abs(vals).max(),
            np.abs(coef[1:] / frame.scale - [2.0, -3.0]).max() / 3.0,
        )
        for ell in range(11):
            basis = HarmonicBasis(frame, ell)
            P, G = hgrad_matrix(p.vertices, ell)
            Ga = area_gram(p.vertices, basis)
            worst_gram = max(worst_gram,
                             np.abs(G - Ga).max() / np.abs(G).max())
            v = RNG.standard_normal(p.n_vertices)
            d = P @ v
            b = boundary_rhs_oracle(p.vertices, basis) @ v
            scale = np.abs(G).max() * np.abs(d).max() + np.abs(b).max()
            worst_orth = max(worst_orth, np.abs(G @ d - b).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = (worst_orth <= 1e-12 and worst_p1 <= 1e-12
          and worst_gram <= 1e-12 and elapsed < 10.0)
    _verdict(capsys, "projector exactness", ok,
             f"orthogonality {worst_orth:.1e}, P1 {worst_p1:.1e}, "
             f"gram paths {worst_gram:.1e}, {elapsed:.2f}s")
    assert worst_orth <= 1e-12
    assert worst_p1 <= 1e-12
    assert worst_gram <= 1e-12
    assert elapsed < 10.0


def test_spectral_stability_audit(capsys):
    # at the minimal degree rule every catalog polygon has a numerically
    # exact one-dimensional kernel (constants) and a second singular
    # value bounded well away from it
    t0 = time.perf_counter()
    audits = audit_catalog()
    assert len(audits) == 18
    worst_kernel = max(a.sigma_min / a.sigma_max for a in audits)
    worst_rank = min(a.sigma_r_over_max for a in audits)
    pairs = [(n, effective_ell(n)) for n in range(3, 19)]
    elapsed = time.perf_counter() - t0
    ok = (worst_kernel <= 1e-11 and worst_rank >= 1e-8
          and pairs == RULE_TABLE and elapsed < 10.0)
    _verdict(capsys, "spectral stability audit", ok,
             f"kernel ratio {worst_kernel:.1e}, rank margin "
             f"{worst_rank:.1e}, degree table "
             f"{'exact' if pairs == RULE_TABLE else 'MISMATCH'}, "
             f"{elapsed:.2f}s")
    assert worst_kernel <= 1e-11
    assert worst_rank >= 1e-8
    assert pairs == RULE_TABLE
    assert elapsed < 10.0


def test_linear_patch_both_methods(capsys):
    # linear solution, strongly anisotropic constant diffusion: both
    # methods must return the interpolant to solver precision
    t0 = time.perf_counter()
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    G = np.array([[c, -s], [s, c]])
    K = G @ np.diag([1.0, 1.0e-9]) @ G.T
    u = Poly2(np.array([[0.3, -0.4], [0.7, 0.0]]))
    zero = Poly2.zero()
    spec = manufactured_problem(K, (zero, zero), zero, u)
    assert spec.f.is_zero()
    mesh = generate_distorted_grid(8, 0.3, 42)
    exact = u(mesh.vertices)
    errs = {}
    for method in ("sfvem", "vem"):
        sol = solve(assemble(mesh, spec, method, dirichlet_values=exact))
        errs[method] = np.abs(sol.values - exact).max()
    elapsed = time.perf_counter() - t0
    ok = max(errs.values()) <= 1e-9 and elapsed < 5.0
    _verdict(capsys, "linear patch test", ok,
             f"sfvem {errs['sfvem']:.1e}, vem {errs['vem']:.1e}, "
             f"{elapsed:.2f}s")
    assert errs["sfvem"] <= 1e-9
    assert errs["vem"] <= 1e-9
    assert elapsed < 5.0


def test_benchmark_convergence_rates(capsys):
    # rotated-anisotropy benchmark on distorted grids: first order in the
    # energy seminorm, second order in L2; the classical comparator must
    # also converge. The VEM/SFVEM L2 ratio is reported, not asserted.
    t0 = time.perf_counter()
    spec = build_benchmark_coefficients()
    records = convergence_study(spec, [8, 16, 32, 64])
    rates = fit_rates(records)
    a0_sf, a1_sf = rates["sfvem"]
    a0_vem, a1_vem = rates["vem"]
    ratios = ", ".join(f"{r.ratio_e0:.2f}" for r in records)
    elapsed = time.perf_counter() - t0
    ok = (0.8 <= a1_sf <= 1.3 and 1.6 <= a0_sf <= 2.4
          and a1_vem >= 0.7 and elapsed < 300.0)
    _verdict(capsys, "benchmark convergence", ok,
             f"sfvem alpha0={a0_sf:.3f} alpha1={a1_sf:.3f}, "
             f"vem alpha0={a0_vem:.3f} alpha1={a1_vem:.3f}, "
             f"e0 ratios [{ratios}], {elapsed:.1f}s")
    assert 0.8 <= a1_sf <= 1.3
    assert 1.6 <= a0_sf <= 2.4
    assert a1_vem >= 0.7
    assert elapsed < 300.0


def test_quadrature_matches_divergence_theorem(capsys):
    # polygon rules integrate every monomial of total degree <= 20
    # exactly, cross-checked against edge-based divergence integration
    t0 = time.perf_counter()
    from sfvem.quadrature import polygon_rule
    worst = 0.0
    for p in catalog_polygons():
        rule = polygon_rule(p.vertices, 20)
        x, y = rule.points[:, 0], rule.points[:, 1]
        oracle = {(a, b): monomial_integral(p.vertices, a, b)
                  for a in range(21) for b in range(21 - a)}
        scale = max(abs(v) for v in oracle.values())
        for (a, b), want in oracle.items():
            got = float(rule.weights @ (x ** a * y ** b))
            worst = max(worst, abs(got - want) / max(abs(want), scale))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(capsys, "quadrature equivalence", ok,
             f"worst monomial deviation {worst:.1e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_convergence_runs_are_deterministic(capsys, tmp_path):
    # identical seeds must reproduce the experiment byte for byte
    t0 = time.perf_counter()
    args = ["convergence", "--generator", "voronoi", "--levels", "6,9",
            "--seed", "7", "--lloyd-iters", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "convergence.csv").read_bytes()
    csv_b = (tmp_path / "b" / "convergence.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = csv_a == csv_b and len(csv_a) > 0
    _verdict(capsys, "determinism", ok,
             f"CSVs {'byte-identical' if ok else 'DIFFER'} "
             f"({len(csv_a)} bytes), {elapsed:.2f}s")
    assert csv_a == csv_b
    assert len(csv_a) > 0
