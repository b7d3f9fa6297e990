"""Local element matrices for the stabilization-free method and the
stabilized comparator, plus the vertex-count degree rule.

The stabilization-free bilinear form replaces every appearance of the
virtual function by a computable projection: gradients by the
harmonic-gradient projection, values by the element mean of the linear
projection. The comparator is the classical first-order scheme with the
dofi-dofi stabilization term.

The diffusion Gram needs no volume rule: projectors.hgrad_matrices takes
it from the edge nodes of the projection. The advection and load
integrals share one polygon rule, of the degree volume_degree.

The builders work on stacks of cells with one vertex count: ``cell_data``
records a ``PolygonStack``, ``sfvem_locals`` and ``standard_vem_locals``
return every cell's matrices with a leading cell axis, and ``cell_chunks``
cuts a mesh into such stacks. ``sfvem_local`` and ``standard_vem_local``
take the vertices of one polygon and return cell 0 of the stacked build
on that polygon as a stack of one. The integrals are batched contractions
over the stack; a cell's matrices agree with its own one-polygon build to
rounding (the tolerances are in tests/test_oracle_identity.py), not bit for
bit. The points of the polygon rules and the data values at them do not
depend on the contractions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PolygonStack, polygon_stack
from .poly import harmonic_basis
from .problem import ProblemSpec
from .projectors import dof_matrix, hgrad_matrices, nabla_matrices, pi0_rows
from .quadrature import PolygonRule, fan_mask, polygon_rules, rule_size
# not called here; the benchmark's tracer re-binds them by this module's name
from .projectors import hgrad_matrix, nabla_matrix  # noqa: F401
from .quadrature import polygon_rule  # noqa: F401

__all__ = [
    "ProblemSpec",
    "CellData",
    "LocalElementMatrices",
    "cell_chunks",
    "cell_data",
    "effective_ell",
    "sfvem_local",
    "sfvem_locals",
    "standard_vem_local",
    "standard_vem_locals",
    "volume_degree",
]

# Byte budget of the largest temporary a pass holds for a chunk of cells,
# as the pass sizes it per rule point (see cell_chunks); a chunk takes as
# many whole cells as fit
CHUNK_BYTES = 2**19


@dataclass(frozen=True)
class LocalElementMatrices:
    """Per-element blocks of the discrete bilinear form and load; a stacked
    builder's arrays carry a leading cell axis."""

    ell: int
    A_diff: np.ndarray
    A_adv: np.ndarray
    A_reac: np.ndarray
    b: np.ndarray
    pi0: np.ndarray  # element-mean row, (N,) or (C, N)

    @property
    def A(self) -> np.ndarray:
        return self.A_diff + self.A_adv + self.A_reac

    def cell(self, i: int) -> "LocalElementMatrices":
        """The matrices of cell i of a stack."""
        return LocalElementMatrices(self.ell, self.A_diff[i], self.A_adv[i],
                                    self.A_reac[i], self.b[i], self.pi0[i])


def effective_ell(n_vertices: int, offset: int = 0) -> int:
    """Harmonic degree parameter for a polygon with n_vertices.

    The rule degree is the smallest ell >= 0 with 2 ell + 2 >= n_vertices - 1,
    which guarantees local solvability. The offset is added to it and the
    result clamped at 0, so a negative offset probes below the rule on
    purpose.
    """
    if n_vertices < 3:
        raise ValueError(f"a polygon needs at least 3 vertices, got {n_vertices}")
    return max(0, math.ceil((n_vertices - 3) / 2) + offset)


def volume_degree(spec: ProblemSpec, ell: int) -> int:
    """Degree of the polygon rule both builders integrate with: the highest
    total degree among the volume integrands grad h_i . beta, gamma and f
    (the comparator has ell = 0). The diffusion Gram grad h_i . K grad h_j
    comes from edge nodes (projectors.hgrad_matrices)."""
    return max(spec.beta[0].degree + ell, spec.beta[1].degree + ell,
               spec.gamma.degree, spec.f.degree)


def cell_chunks(mesh, degree: int, floats_per_point):
    """The mesh's cells as stacks for the stacked builders: grouped by vertex
    count and triangulation kind (so every cell of a stack has as many
    points in a rule of this degree), each group cut into chunks of whole
    cells. floats_per_point(n) is the size per rule point of the caller's
    largest temporary on n-gons; a chunk keeps that temporary within
    CHUNK_BYTES (or is one cell).

    Yields (cells, index, vertices): the ascending cell ids, their (C, N)
    vertex indices and their (C, N, 2) vertices.
    """
    for cells, index in mesh.cell_groups():
        vertices = mesh.vertices[index]
        fan = fan_mask(vertices)
        n = index.shape[1]
        for kind, n_triangles in ((fan, n), (~fan, n - 2)):
            cell_bytes = 8 * floats_per_point(n) * rule_size(n_triangles, degree)
            size = max(1, CHUNK_BYTES // cell_bytes)
            ids, idx, verts = cells[kind], index[kind], vertices[kind]
            for s in range(0, len(ids), size):
                yield ids[s:s + size], idx[s:s + size], verts[s:s + size]


@dataclass(frozen=True)
class CellData:
    """What the builders read of a stack of cells at one rule degree.

    The geometry stack (which carries the frames), the H1 projection
    matrices and the element-mean rows; the polygon rules of the advection
    and load integrals; beta at the rule points, (C, P, 2), for the
    advection vector t; and the rule integrals of beta, gamma and f. The
    diffusion Gram reads no rule. Both methods build from one record when
    their rule degrees agree, and then get the floats they get alone.
    """

    poly: PolygonStack
    nabla: np.ndarray
    pi0: np.ndarray
    rule: PolygonRule
    beta: np.ndarray
    int_beta: np.ndarray
    int_gamma: np.ndarray
    int_f: np.ndarray


def cell_data(poly: PolygonStack, spec: ProblemSpec, degree: int) -> CellData:
    """The record of a PolygonStack at the given rule degree. The stack's
    points are evaluated in one Poly2 call per coefficient polynomial."""
    nabla = nabla_matrices(poly)
    r = pi0_rows(poly, nabla)
    rule = polygon_rules(poly.vertices, degree)
    w = rule.weights
    pts = rule.points.reshape(-1, 2)
    beta = np.stack([spec.beta[0](pts), spec.beta[1](pts)], axis=-1)
    beta = beta.reshape(w.shape + (2,))
    return CellData(poly, nabla, r, rule, beta, np.einsum("cp,cpa->ca", w, beta),
                    np.einsum("cp,cp->c", w, spec.gamma(pts).reshape(w.shape)),
                    np.einsum("cp,cp->c", w, spec.f(pts).reshape(w.shape)))


def sfvem_locals(data: CellData, spec: ProblemSpec, ell: int) -> LocalElementMatrices:
    """Local matrices of the stabilization-free form on every cell of a
    record built at volume_degree(spec, ell); see sfvem_local."""
    rule, r = data.rule, data.pi0
    basis = harmonic_basis(data.poly.frame, ell)
    P, _, MK = hgrad_matrices(data.poly, basis, spec.K)
    A_diff = P.transpose(0, 2, 1) @ MK @ P
    A_diff = 0.5 * (A_diff + A_diff.transpose(0, 2, 1))

    # t_i = integral of grad h_i . beta, one product per cell over the
    # (point, component) pairs
    grads = basis.gradients(rule.points)
    n_cells, size = grads.shape[:2]
    wbeta = data.beta * rule.weights[..., None]
    t = (grads.reshape(n_cells, size, -1) @ wbeta.reshape(n_cells, -1, 1))[..., 0]
    A_adv = r[:, :, None] * (t[:, None, :] @ P)
    A_reac = data.int_gamma[:, None, None] * (r[:, :, None] * r[:, None, :])
    b = data.int_f[:, None] * r
    return LocalElementMatrices(ell, A_diff, A_adv, A_reac, b, r)


def sfvem_local(vertices, spec: ProblemSpec, ell: int) -> LocalElementMatrices:
    """Local matrices of the stabilization-free form on one polygon.

    Parameters
    ----------
    vertices : (N, 2) array
        Element polygon, counterclockwise.
    spec : ProblemSpec
        Coefficients K, beta, gamma, f. The diffusion Gram comes from edge
        nodes; the volume integrals use the smallest polygon rule that
        integrates every one of them exactly.
    ell : int
        Harmonic degree parameter; pass effective_ell(N) unless deliberately
        probing below the solvability bound.
    """
    poly = polygon_stack(np.asarray(vertices, dtype=float)[None])
    data = cell_data(poly, spec, volume_degree(spec, ell))
    return sfvem_locals(data, spec, ell).cell(0)


def standard_vem_locals(data: CellData, spec: ProblemSpec) -> LocalElementMatrices:
    """Local matrices of the stabilized comparator on every cell of a record
    built at volume_degree(spec, 0); see standard_vem_local."""
    frame, nabla, r = data.poly.frame, data.nabla, data.pi0
    D = dof_matrix(data.poly.vertices, frame)
    h = frame.scale
    K = spec.K
    S = nabla[:, 1:]  # gradient rows, frame scaled
    consistency = ((data.poly.area / (h * h))[:, None, None]
                   * (S.transpose(0, 2, 1) @ K @ S))
    tau = 0.5 * float(np.trace(K))
    Q = np.eye(D.shape[1]) - D @ nabla
    A_diff = consistency + tau * (Q.transpose(0, 2, 1) @ Q)
    A_diff = 0.5 * (A_diff + A_diff.transpose(0, 2, 1))

    A_adv = r[:, :, None] * ((data.int_beta[:, None, :] @ S) / h[:, None, None])
    A_reac = data.int_gamma[:, None, None] * (r[:, :, None] * r[:, None, :])
    b = data.int_f[:, None] * r
    return LocalElementMatrices(0, A_diff, A_adv, A_reac, b, r)


def standard_vem_local(vertices, spec: ProblemSpec) -> LocalElementMatrices:
    """Local matrices of the stabilized first-order comparator.

    Diffusion is the P1 consistency term plus the dofi-dofi stabilization
    tau * sum_i dof_i((I - Pi)u) dof_i((I - Pi)v) with tau = trace(K)/2.
    Advection and reaction use the P1 projected gradient and the element
    mean, matching the stabilization-free form term by term.
    """
    poly = polygon_stack(np.asarray(vertices, dtype=float)[None])
    data = cell_data(poly, spec, volume_degree(spec, 0))
    return standard_vem_locals(data, spec).cell(0)
