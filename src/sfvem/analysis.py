"""Measurement instruments: the spectral stability audit and the relative
error norms with convergence-rate fitting.

The audit takes the local diffusion matrix with unit diffusion and reports
its singular spectrum; sigma_min should vanish (constants are in the
kernel) while sigma_r, the second smallest value, must stay detached from
zero when the degree rule is honored. Raw sigma values depend on the
polygon scale, so thresholds apply to sigma_r / sigma_max.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .element import effective_ell
from .geometry import polygon_geometry
from .mesh import (
    CatalogPolygon,
    catalog_polygons,
    generate_distorted_grid,
    generate_voronoi,
    quality_report,
)
from .poly import ScaledFrame, harmonic_basis
from .problem import ProblemSpec
from .projectors import hgrad_matrix, nabla_matrix
from .quadrature import polygon_rule
# assemble is not called here; the benchmark's tracer re-binds it by this
# module's name, with the other names in perfbench/tracing.py
from .system import assemble, assemble_many, check_methods, solve  # noqa: F401


# one-sided Jacobi stops once every column pair is orthogonal to this
# relative tolerance, or after this many sweeps
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


def jacobi_singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of a small dense matrix by one-sided Jacobi rotations.

    Columns are rotated pairwise until mutually orthogonal relative to
    JACOBI_TOL; the singular values are then the column norms. Accurate for
    the tiny trailing values this module cares about. Returned in descending
    order.
    """
    U = np.array(A, dtype=float)
    n = U.shape[1]
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = U[:, p], U[:, q]
                app = float(ap @ ap)
                aqq = float(aq @ aq)
                apq = float(ap @ aq)
                if app * aqq == 0.0:
                    continue
                rel = abs(apq) / np.sqrt(app * aqq)
                if rel <= JACOBI_TOL:
                    continue
                off = max(off, rel)
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) \
                    if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                U[:, p], U[:, q] = c * ap - s * aq, s * ap + c * aq
        if off <= JACOBI_TOL:
            break
    sv = np.sqrt((U * U).sum(axis=0))
    return np.sort(sv)[::-1]


@dataclass(frozen=True)
class SpectralAudit:
    """Singular spectrum of one polygon's unit-diffusion local matrix."""

    name: str
    n_vertices: int
    ell: int
    singular_values: np.ndarray  # descending

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def sigma_r(self) -> float:
        """Second smallest singular value, the stability indicator."""
        return float(self.singular_values[-2])

    @property
    def sigma_r_over_max(self) -> float:
        return self.sigma_r / self.sigma_max


def unit_diffusion_matrix(vertices: np.ndarray, ell: int) -> np.ndarray:
    """Local diffusion matrix with K = identity: P^T G P."""
    poly = polygon_geometry(vertices)
    basis = harmonic_basis(ScaledFrame.from_polygon(poly), ell)
    P, G = hgrad_matrix(poly, basis)
    A = P.T @ G @ P
    return 0.5 * (A + A.T)


def spectral_audit(polygon: CatalogPolygon, ell: int) -> SpectralAudit:
    """Full singular spectrum of the polygon's local diffusion matrix."""
    A = unit_diffusion_matrix(polygon.vertices, ell)
    sv = jacobi_singular_values(A)
    return SpectralAudit(polygon.name, polygon.n_vertices, ell, sv)


def audit_catalog(ell_offset: int = 0) -> list:
    """Audit every catalog polygon at its rule degree plus the offset."""
    out = []
    for poly in catalog_polygons():
        ell = effective_ell(poly.n_vertices, ell_offset)
        out.append(spectral_audit(poly, ell))
    return out


# ---------------------------------------------------------------------------
# error norms and rates


def error_norms(solution, spec: ProblemSpec) -> tuple:
    """Relative L2 error of the projected solution and relative K-weighted
    gradient seminorm error, both against the exact solution.

    The discrete field enters through its element-wise linear projection
    (the virtual function itself is not pointwise available). Quadrature
    has degree 2 deg(u) + 2, exact for the polynomial exact solution. A zero
    exact-solution norm is degenerate: returns (0, 0) under a warning when
    the numerators vanish too.
    """
    return error_norms_many([solution], spec)[0]


def error_norms_many(solutions, spec: ProblemSpec) -> list:
    """``error_norms`` of several solutions on one mesh, in one pass over
    its cells.

    Each cell's rule, linear projection matrix and exact-solution values are
    computed once; each solution keeps its own numerators and all share the
    denominators, accumulated in cell order, so every pair equals what
    ``error_norms`` returns for that solution alone.
    """
    if spec.exact_u is None or spec.exact_grad_u is None:
        raise ValueError("error norms require exact_u and exact_grad_u")
    solutions = list(solutions)
    if not solutions:
        return []
    mesh = solutions[0].mesh
    if any(s.mesh is not mesh for s in solutions):
        raise ValueError("solutions must share one mesh")
    K = spec.K
    degree = 2 * spec.exact_u.degree + 2
    num0 = [0.0] * len(solutions)
    num1 = [0.0] * len(solutions)
    den0 = den1 = 0.0
    for ci, cell in enumerate(mesh.cells):
        poly = polygon_geometry(mesh.cell_points(ci))
        frame = ScaledFrame.from_polygon(poly)
        nabla = nabla_matrix(poly, frame)
        rule = polygon_rule(poly.vertices, degree)
        loc = frame.local(rule.points)
        u = spec.exact_u(rule.points)
        gx = spec.exact_grad_u[0](rule.points)
        gy = spec.exact_grad_u[1](rule.points)
        w = rule.weights
        den0 += w @ (u * u)
        den1 += w @ (K[0, 0] * gx * gx + 2.0 * K[0, 1] * gx * gy
                     + K[1, 1] * gy * gy)
        idx = list(cell)
        for k, solution in enumerate(solutions):
            coef = nabla @ solution.values[idx]
            uh = coef[0] + loc @ coef[1:]
            gh = coef[1:] / frame.scale
            d0 = u - uh
            dx = gx - gh[0]
            dy = gy - gh[1]
            num0[k] += w @ (d0 * d0)
            num1[k] += w @ (K[0, 0] * dx * dx + 2.0 * K[0, 1] * dx * dy
                            + K[1, 1] * dy * dy)
    if den0 <= 0.0 or den1 <= 0.0:
        if max(max(num0), max(num1)) <= 1e-28:
            warnings.warn("exact solution has zero norm; errors reported as 0",
                          RuntimeWarning, stacklevel=2)
            return [(0.0, 0.0)] * len(solutions)
        raise ValueError("exact solution has zero norm but the discrete "
                         "solution does not")
    return [(float(np.sqrt(n0 / den0)), float(np.sqrt(n1 / den1)))
            for n0, n1 in zip(num0, num1)]


@dataclass(frozen=True)
class ConvergenceRecord:
    """Errors of both methods on one refinement level."""

    level: int
    h: float
    ndof: int
    e0_sfvem: float
    e1_sfvem: float
    e0_vem: float
    e1_vem: float
    ratio_e0: float
    ratio_e1: float


def fit_rates(records: list) -> dict:
    """Least-squares slopes of log(error) against log(h) per method.

    Returns {"sfvem": (alpha0, alpha1), "vem": (alpha0, alpha1)}; a method
    whose error columns are all NaN is omitted.
    """
    if len(records) < 2:
        raise ValueError("rate fitting needs at least 2 refinement levels")
    logh = np.log([r.h for r in records])
    out = {}
    for method in ("sfvem", "vem"):
        e0 = np.array([getattr(r, f"e0_{method}") for r in records])
        e1 = np.array([getattr(r, f"e1_{method}") for r in records])
        if np.isnan(e0).all() or np.isnan(e1).all():
            continue
        a0 = np.polyfit(logh, np.log(e0), 1)[0]
        a1 = np.polyfit(logh, np.log(e1), 1)[0]
        out[method] = (float(a0), float(a1))
    return out


def convergence_study(spec: ProblemSpec, levels, generator: str = "grid",
                      delta: float = 0.3, seed: int = 42,
                      lloyd_iters: int = 3, distortion: float = 0.25,
                      ell_offset: int = 0, methods=("sfvem", "vem"),
                      on_record=None) -> list:
    """Run the refinement study and return one ConvergenceRecord per level.

    Grid levels refine as n x n cells; Voronoi levels use level^2 seeds so
    cell diameters shrink comparably. on_record, when given, is called with
    each fresh record (the CLI uses it to flush CSV rows level by level).
    methods are checked before the first mesh is generated: an unknown or
    repeated name raises ValueError. Per level, the methods share one
    assembly pass and one error pass over the cells.
    """
    methods = check_methods(methods)
    records = []
    prev_h = np.inf
    for level in levels:
        if generator == "grid":
            mesh = generate_distorted_grid(level, delta, seed)
        elif generator == "voronoi":
            mesh = generate_voronoi(level * level, lloyd_iters, seed, distortion)
        else:
            raise ValueError(f"unknown generator {generator!r}")
        h = quality_report(mesh).h
        if h >= prev_h:
            raise ValueError(
                f"mesh diameters must decrease across levels "
                f"(level {level}: h={h} after {prev_h})"
            )
        prev_h = h
        systems = assemble_many(mesh, spec, methods, ell_offset)
        solutions = [solve(system) for system in systems.values()]
        results = dict(zip(methods, error_norms_many(solutions, spec)))
        nan = float("nan")
        e0s, e1s = results.get("sfvem", (nan, nan))
        e0v, e1v = results.get("vem", (nan, nan))
        record = ConvergenceRecord(
            level=level,
            h=float(h),
            ndof=mesh.n_vertices - len(mesh.boundary_vertices),
            e0_sfvem=e0s, e1_sfvem=e1s, e0_vem=e0v, e1_vem=e1v,
            ratio_e0=e0v / e0s if e0s > 0.0 else nan,
            ratio_e1=e1v / e1s if e1s > 0.0 else nan,
        )
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


# ---------------------------------------------------------------------------
# CSV serialization (shared by batch writers and the CLI's streaming mode)

AUDIT_HEADER = "name,N_E,ell_E,sigma_min,sigma_r,sigma_max,sigma_r_over_max"
CONVERGENCE_HEADER = ("level,h,ndof,e0_sfvem,e1_sfvem,e0_vem,e1_vem,"
                      "ratio_e0,ratio_e1")


def audit_row(audit: SpectralAudit) -> str:
    return (f"{audit.name},{audit.n_vertices},{audit.ell},"
            f"{audit.sigma_min:.16e},{audit.sigma_r:.16e},"
            f"{audit.sigma_max:.16e},{audit.sigma_r_over_max:.16e}")


def convergence_row(r: ConvergenceRecord) -> str:
    return (f"{r.level},{r.h:.16e},{r.ndof},"
            f"{r.e0_sfvem:.16e},{r.e1_sfvem:.16e},"
            f"{r.e0_vem:.16e},{r.e1_vem:.16e},"
            f"{r.ratio_e0:.16e},{r.ratio_e1:.16e}")


def write_audit_csv(audits: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(AUDIT_HEADER + "\n")
        for a in audits:
            fh.write(audit_row(a) + "\n")


def write_convergence_csv(records: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CONVERGENCE_HEADER + "\n")
        for r in records:
            fh.write(convergence_row(r) + "\n")
