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
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dgejsv

from .element import cell_stacks, effective_ell, rule_values
from .mesh import (
    CatalogPolygon,
    catalog_polygons,
    generate_distorted_grid,
    generate_voronoi,
    quality_report,
)
from .poly import ProblemSpec
from .projectors import hgrad_matrix, nabla_matrices
# not called here; the benchmark's tracer re-binds them by this module's
# name, with the other names in perfbench/tracing.py
from .projectors import nabla_matrix  # noqa: F401
from .quadrature import polygon_rule  # noqa: F401
from .system import METHODS, assemble, assemble_many, solve  # noqa: F401


def jacobi_singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of a small dense matrix, in descending order.

    LAPACK's preconditioned one-sided Jacobi SVD (``dgejsv``; Drmac and
    Veselic, SIAM J. Matrix Anal. Appl. 29, 2008) with JOBA='C': after a
    column-pivoted QR, the values are accurate relative to themselves up to
    the condition of A's column-equilibrated form, which is what the
    audit's tiny trailing values need. A wide matrix is transposed first
    (dgejsv needs rows >= columns). Raises ``ValueError`` on non-finite
    input and ``np.linalg.LinAlgError`` when LAPACK reports failure.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("singular values of a matrix with non-finite entries")
    if A.shape[0] < A.shape[1]:
        A = A.T
    # joba=0 is 'C' (relative accuracy), jobu=jobv=3 is 'N' (no vectors),
    # jobr=1 is 'R' (values below about 1e-308 * sigma_max may come back
    # as zero), jobt=0 and jobp=0 are 'N'
    sva, _u, _v, work, _iwork, info = dgejsv(A, joba=0, jobu=3, jobv=3,
                                             jobr=1, jobt=0, jobp=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgejsv failed with info = {info}")
    # sva is scaled by work[1] / work[0] to stay clear of overflow
    return np.sort((work[0] / work[1]) * sva)[::-1]


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
    P, G = hgrad_matrix(vertices, ell)
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

    The cells go in stacks of one vertex count (element.cell_stacks). Per
    stack, the linear projection matrices are built once, and the exact
    solution's moments (_exact_moments) are element.rule_values' reduction
    of u and grad u on each rule chunk. Only spec.exact_u is required:
    ProblemSpec derives grad u from it.
    Each solution's numerators are then per-cell algebra on the moments,
    with no work per rule point, and all share the denominators, so every
    pair equals what ``error_norms`` returns for that solution alone.
    """
    if spec.exact_u is None:
        raise ValueError("error norms require exact_u")
    solutions = list(solutions)
    if not solutions:
        return []
    mesh = solutions[0].mesh
    if any(s.mesh is not mesh for s in solutions):
        raise ValueError("solutions must share one mesh")
    degree = 2 * spec.exact_u.degree + 2
    # per cell: the denominators' terms, then each solution's numerators'
    den = np.empty((2, mesh.n_cells))
    num = np.empty((len(solutions), 2, mesh.n_cells))
    # per cell, the largest arrays are polygon_stack's vertex pairs
    for cells, index, poly in cell_stacks(mesh, lambda n: 4 * n * n):
        den[:, cells], num[:, :, cells] = _error_terms(poly, index, solutions, spec, degree)
    den0, den1 = den.sum(axis=-1)
    num0, num1 = num.sum(axis=-1).T
    if den0 <= 0.0 or den1 <= 0.0:
        if max(max(num0), max(num1)) <= 1e-28:
            warnings.warn("exact solution has zero norm; errors reported as 0",
                          RuntimeWarning, stacklevel=2)
            return [(0.0, 0.0)] * len(solutions)
        raise ValueError("exact solution has zero norm but the discrete "
                         "solution does not")
    return [(float(np.sqrt(n0 / den0)), float(np.sqrt(n1 / den1)))
            for n0, n1 in zip(num0, num1)]


def _error_terms(poly, index, solutions, spec: ProblemSpec, degree: int) -> tuple:
    # each cell's terms of the denominators, (2, C), and of each solution's
    # numerators, (S, 2, C), on a PolygonStack of cells with these (C, N)
    # vertex indices
    K = spec.K
    nabla = nabla_matrices(poly)
    coef_u, gram, r0, r1, grad_u, area = rule_values(
        poly, degree, (spec.exact_u, *spec.exact_grad_u),
        lambda chunk, rule, values: _exact_moments(poly.frame[chunk], K, rule, values))
    den = np.empty((2, len(poly)))
    num = np.empty((len(solutions), 2, len(poly)))
    den[0] = r0 + np.einsum("ci,cij,cj->c", coef_u, gram, coef_u)
    den[1] = r1 + area * np.einsum("ci,ij,cj->c", grad_u, K, grad_u)
    for k, solution in enumerate(solutions):
        coef = (nabla @ solution.values[index][:, :, None])[..., 0]
        dc = coef_u - coef
        dg = grad_u - coef[:, 1:] / poly.frame.scale[:, None]
        num[k, 0] = r0 + np.einsum("ci,cij,cj->c", dc, gram, dc)
        num[k, 1] = r1 + area * np.einsum("ci,ij,cj->c", dg, K, dg)
    return den, num


def _exact_moments(frame, K, rule, values) -> tuple:
    # What the error norms need of the exact solution u on a chunk of a
    # stack of cells with these frames, each from its own polygon rule,
    # given the values (3, c, P) of u and grad u at the rule points:
    # with m = (1, xhat, yhat) in the cell's frame and M the rule's Gram
    # matrix of m, the rule-L2 projection c_u = M^-1 integral of u m; the
    # rule's area |E| and mean gradient g_u; and the residuals
    # R0 = integral of (u - c_u . m)^2 and R1 = integral of
    # |grad u - g_u|_K^2. For any linear c . m with gradient g, orthogonality
    # in the same rule splits the error integrals without cancellation:
    #   integral of (u - c . m)^2 = R0 + (c_u - c)^T M (c_u - c),
    #   integral of |grad u - g|_K^2 = R1 + |E| (g_u - g)^T K (g_u - g).
    # The expansion integral of u^2 - 2 c . integral of u m + c^T M c
    # cancels where u is nearly linear (a linear u got a negative numerator;
    # grid 64 drifted 2.6e-13 relative), and an M from the shoelace moments
    # leaves a cross term that the rule's M cancels (3.7e-13 on grid 64).
    # Returns c_u (c, 3), M (c, 3, 3), R0 (c,), R1 (c,), g_u (c, 2), |E| (c,).
    w = rule.weights
    u, grads = values[0], values[1:].transpose(1, 0, 2)  # (c, P), (c, 2, P)
    # m at the rule points, (c, 3, P)
    m = np.empty((len(w), 3, w.shape[1]))
    m[:, 0] = 1.0
    m[:, 1:] = frame.local(rule.points).transpose(0, 2, 1)
    wm = w[:, None, :] * m
    M = wm @ m.transpose(0, 2, 1)
    c = np.linalg.solve(M, wm @ u[..., None])[..., 0]
    d0 = u - (c[:, None, :] @ m)[:, 0]
    area = w.sum(axis=1)
    g = (grads @ w[..., None])[..., 0] / area[:, None]
    dg = grads - g[..., None]
    # the rule's integrals of (grad u - g_u)(grad u - g_u)^T, (c, 2, 2)
    second = (dg * w[:, None, :]) @ dg.transpose(0, 2, 1)
    return (c, M, np.einsum("cp,cp->c", w, d0 * d0), np.einsum("cij,ij->c", second, K),
            g, area)


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

    Returns {"sfvem": (alpha0, alpha1), "vem": (alpha0, alpha1)}.
    """
    if len(records) < 2:
        raise ValueError("rate fitting needs at least 2 refinement levels")
    logh = np.log([r.h for r in records])
    out = {}
    for method in METHODS:
        e0 = np.array([getattr(r, f"e0_{method}") for r in records])
        e1 = np.array([getattr(r, f"e1_{method}") for r in records])
        a0 = np.polyfit(logh, np.log(e0), 1)[0]
        a1 = np.polyfit(logh, np.log(e1), 1)[0]
        out[method] = (float(a0), float(a1))
    return out


def convergence_study(spec: ProblemSpec, levels, generator: str = "grid",
                      delta: float = 0.3, seed: int = 42,
                      lloyd_iters: int = 3, distortion: float = 0.25,
                      ell_offset: int = 0, on_record=None) -> list:
    """Run the refinement study of every method in METHODS and return one
    ConvergenceRecord per level.

    Grid levels refine as n x n cells; Voronoi levels use level^2 seeds so
    cell diameters shrink comparably. on_record, when given, is called with
    each fresh record (the CLI uses it to flush CSV rows level by level).
    Per level, the methods share one assembly pass and one error pass over
    the cells.
    """
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
        systems = assemble_many(mesh, spec, METHODS, ell_offset)
        solutions = [solve(system) for system in systems.values()]
        results = dict(zip(METHODS, error_norms_many(solutions, spec)))
        (e0s, e1s), (e0v, e1v) = results["sfvem"], results["vem"]
        nan = float("nan")
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
# CSV serialization: rows for write_audit_csv and the CLI's streamed
# convergence.csv

AUDIT_HEADER = "name,N_E,ell_E,sigma_min,sigma_r,sigma_max,sigma_r_over_max"
CONVERGENCE_HEADER = ",".join(f.name for f in fields(ConvergenceRecord))
# an int field as is, a float field in full (f.type is the annotation string)
_CONVERGENCE_FORMAT = ",".join("{}" if f.type == "int" else "{:.16e}"
                               for f in fields(ConvergenceRecord))


def audit_row(audit: SpectralAudit) -> str:
    return (f"{audit.name},{audit.n_vertices},{audit.ell},"
            f"{audit.sigma_min:.16e},{audit.sigma_r:.16e},"
            f"{audit.sigma_max:.16e},{audit.sigma_r_over_max:.16e}")


def convergence_row(r: ConvergenceRecord) -> str:
    return _CONVERGENCE_FORMAT.format(*(getattr(r, f.name) for f in fields(r)))


def write_audit_csv(audits: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(AUDIT_HEADER + "\n")
        for a in audits:
            fh.write(audit_row(a) + "\n")
