"""Local element matrices for the stabilization-free method and the
stabilized comparator, plus the vertex-count degree rule.

The stabilization-free bilinear form replaces every appearance of the
virtual function by a computable projection: gradients by the
harmonic-gradient projection, values by the element mean of the linear
projection. The comparator is the classical first-order scheme with the
dofi-dofi stabilization term.

The diffusion Gram needs no volume rule: projectors.hgrad_matrices takes
it from the edge nodes of the projection. Nor does the advection vector:
since div beta = 0, t_i = integral of grad h_i . beta is the boundary
integral of h_i beta . n, which Gauss nodes on each edge integrate exactly
(advection_nodes). Only the load integrals of gamma and f take a polygon
rule, of the degree volume_degree.

The builders work on stacks of cells with one vertex count, which
``cell_stacks`` cuts from a mesh: ``cell_data`` records a ``PolygonStack``
at its degree parameter ell, its per-cell algebra and advection vectors
once and its load integrals by ``rule_values``, and ``sfvem_locals`` and
``standard_vem_locals`` both read that one record and return every cell's
matrices with a leading cell axis (the comparator's integral of beta is h
times the first two entries of sfvem's advection vector).
``sfvem_local`` and ``standard_vem_local`` take the vertices of one
polygon and return cell 0 of the stacked build on that polygon as a stack
of one. The integrals are batched contractions over the stack; a cell's
matrices agree with its own one-polygon build to rounding (the tolerances
are in tests/test_oracle_identity.py), not bit for bit.

Polygon rules meet data only in ``rule_values``, which both passes' data
integrals reduce, and every cut of cells into memory-sized runs is
``whole_cells``. A data value depends on its point alone
(poly.evaluate_polys), so the cuts are a memory choice.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import PolygonStack, polygon_stack
from .poly import HarmonicBasis, ProblemSpec, evaluate_polys, harmonic_basis
from .projectors import dof_matrix, edge_points, hgrad_matrices, nabla_matrices
from .quadrature import polygon_rules, rule_size
# not called here; the benchmark's tracer re-binds them by this module's name
from .projectors import hgrad_matrix, nabla_matrix  # noqa: F401
from .quadrature import polygon_rule  # noqa: F401

__all__ = [
    "CellData",
    "LocalElementMatrices",
    "advection_nodes",
    "build_floats_per_cell",
    "cell_data",
    "cell_stacks",
    "effective_ell",
    "rule_values",
    "sfvem_local",
    "sfvem_locals",
    "standard_vem_local",
    "standard_vem_locals",
    "volume_degree",
    "whole_cells",
]

# Byte budget of a run of whole cells (see whole_cells): of the largest
# temporary a pass holds for a stack of cells, of a rule chunk at 8 floats
# per rule point and of the build's table of beta at the advection nodes
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
    purpose. The offset must be an integer (a bool or numpy int counts).
    """
    if n_vertices < 3:
        raise ValueError(f"a polygon needs at least 3 vertices, got {n_vertices}")
    try:
        offset = operator.index(offset)
    except TypeError:
        raise ValueError(f"ell offset must be an integer, got {offset!r}") from None
    return max(0, math.ceil((n_vertices - 3) / 2) + offset)


def volume_degree(spec: ProblemSpec) -> int:
    """Degree of the polygon rule of a stack's record, which both builders
    read at every ell: the higher total degree of the volume integrands
    gamma and f. The diffusion Gram grad h_i . K grad h_j
    (projectors.hgrad_matrices) and the advection vector (advection_nodes)
    come from edge nodes."""
    return max(spec.gamma.degree, spec.f.degree)


def advection_nodes(spec: ProblemSpec, ell: int) -> int:
    """Gauss nodes per edge of the advection vectors at degree parameter
    ell: the edge integrand h_i beta . n has degree deg beta + ell + 1, which
    (deg beta + ell + 3) // 2 nodes integrate exactly."""
    return (max(spec.beta[0].degree, spec.beta[1].degree) + ell + 3) // 2


def build_floats_per_cell(spec: ProblemSpec, n: int, ell: int) -> int:
    """Floats per n-gon of the largest temporary that cell_data and the
    builders hold for a stack at degree parameter ell, the floats_per_cell
    of the build's cell_stacks: the powers z^0..z^(ell+1) at the n
    advection_nodes(spec, ell) per edge, 2 ell + 4 floats at each, or the
    edge-node arrays of hgrad_matrices, about 4 arrays of 2 ell + 2
    gradients at n (ell + 1) nodes. The table of beta at the advection
    nodes goes in runs of whole cells (whole_cells) that keep it within
    CHUNK_BYTES."""
    return n * max(2 * (ell + 2) * advection_nodes(spec, ell), 16 * (ell + 1) ** 2)


def whole_cells(n_cells: int, floats_per_cell: int) -> list:
    """Slices that cut n_cells cells into runs of as many whole cells as
    keep floats_per_cell floats per cell within CHUNK_BYTES (at least one
    cell a run)."""
    size = max(1, CHUNK_BYTES // (8 * floats_per_cell))
    return [slice(s, s + size) for s in range(0, n_cells, size)]


def cell_stacks(mesh, floats_per_cell):
    """The mesh's cells as stacks for the stacked builders: grouped by vertex
    count, each group cut into stacks of whole cells (whole_cells) by
    floats_per_cell(n), the size per cell of the caller's largest per-cell
    temporary on n-gons.

    Yields (cells, index, poly): the ascending cell ids, their (C, N) vertex
    indices and their PolygonStack.
    """
    for cells, index in mesh.cell_groups():
        for part in whole_cells(len(cells), floats_per_cell(index.shape[1])):
            yield cells[part], index[part], polygon_stack(mesh.vertices[index[part]])


def rule_values(poly: PolygonStack, degree: int, polys, reduce) -> tuple:
    """Per rule chunk of a stack (whole_cells at 8 floats per rule point;
    an N-gon's rule has N triangles): the chunk's polygon rules of this
    degree, the polys at their points from one evaluate_polys call, and
    reduce(chunk, rule, values) of the chunk's slice, its PolygonRule and
    the values (len(polys), c, P), a tuple of per-cell arrays. Returns each
    of them concatenated over the stack; a chunk's points and values go
    when its reduce returns."""
    size = 8 * rule_size(poly.vertices.shape[1], degree)
    parts = [_reduce_chunk(poly, chunk, degree, polys, reduce)
             for chunk in whole_cells(len(poly), size)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _reduce_chunk(poly: PolygonStack, chunk: slice, degree: int, polys, reduce) -> tuple:
    rule = polygon_rules(poly.vertices[chunk], degree)
    values = evaluate_polys(polys, rule.points.reshape(-1, 2))
    return reduce(chunk, rule, values.reshape((len(polys),) + rule.weights.shape))


@dataclass(frozen=True)
class CellData:
    """What both builders read of a stack of cells at its degree parameter
    ell.

    The geometry stack (which carries the frames), the H1 projection
    matrices, whose constant rows nabla[:, 0] are the element means of the
    linear projection, the harmonic basis of degree parameter ell, the
    advection vectors t_i = integral of grad h_i . beta, (C, 2 ell + 2),
    from the edge nodes (advection_nodes), and the rule integrals of gamma
    and f at the rule degree volume_degree(spec). The rule points, the load
    data values at them and the data values at the edge nodes live only
    while their chunk or run of cells is built.
    """

    poly: PolygonStack
    nabla: np.ndarray
    basis: HarmonicBasis
    t: np.ndarray
    int_gamma: np.ndarray
    int_f: np.ndarray


def cell_data(poly: PolygonStack, spec: ProblemSpec, ell: int) -> CellData:
    """The record of a PolygonStack at degree parameter ell. The projections
    and the advection vectors are built once for the stack (beta in runs of
    whole cells, see build_floats_per_cell); the integrals of gamma and f on
    the polygon rules of degree volume_degree(spec) come from rule_values."""
    nabla = nabla_matrices(poly)
    basis = harmonic_basis(poly.frame, ell)
    int_gamma, int_f = rule_values(
        poly, volume_degree(spec), (spec.gamma, spec.f),
        lambda chunk, rule, values: tuple(np.einsum("cp,cp->c", rule.weights, v)
                                          for v in values))
    return CellData(poly, nabla, basis, _advection_vectors(poly, spec, basis),
                    int_gamma, int_f)


def _advection_vectors(poly: PolygonStack, spec: ProblemSpec, basis: HarmonicBasis):
    # t (C, 2 ell + 2) from the boundary form: t_{2k-1} + i t_{2k} is the sum
    # over edges e and their advection nodes x_ej of |e| w_j z^k beta . n_e,
    # k = 1..ell + 1, from one power table for the stack. evaluate_polys'
    # table holds nx + ny floats per point, so beta comes in runs of whole
    # cells whose table fits CHUNK_BYTES
    ell = basis.ell
    pts, _, w = edge_points(poly, advection_nodes(spec, ell))
    width = (max(p.coeffs.shape[0] for p in spec.beta)
             + max(p.coeffs.shape[1] for p in spec.beta))
    n_cells, n = poly.lengths.shape
    beta = np.concatenate([evaluate_polys(spec.beta, pts[cells].reshape(-1, 2))
                           for cells in whole_cells(n_cells, width * pts.shape[1])], axis=1)
    beta = beta.reshape(2, n_cells, n, -1)
    flux = beta[0] * poly.normals[..., :1] + beta[1] * poly.normals[..., 1:]
    flux *= poly.lengths[..., None] * w
    pows = basis.powers(pts, ell + 1)[1:]
    t = np.einsum("kcp,cp->ck", pows, flux.reshape(n_cells, -1), order="C")
    return t.view(float)


def sfvem_locals(data: CellData, spec: ProblemSpec) -> LocalElementMatrices:
    """Local matrices of the stabilization-free form on every cell of a
    record; see sfvem_local."""
    r, basis = data.nabla[:, 0], data.basis
    P, _, MK = hgrad_matrices(data.poly, basis, spec.K)
    A_diff = P.transpose(0, 2, 1) @ MK @ P
    A_diff = 0.5 * (A_diff + A_diff.transpose(0, 2, 1))
    A_adv = r[:, :, None] * (data.t[:, None, :] @ P)
    A_reac = data.int_gamma[:, None, None] * (r[:, :, None] * r[:, None, :])
    b = data.int_f[:, None] * r
    return LocalElementMatrices(basis.ell, A_diff, A_adv, A_reac, b, r)


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
    return sfvem_locals(cell_data(poly, spec, ell), spec).cell(0)


def standard_vem_locals(data: CellData, spec: ProblemSpec) -> LocalElementMatrices:
    """Local matrices of the stabilized comparator on every cell of a
    record, at any ell; see standard_vem_local. Its advection integral
    of beta is h t[:, :2], since h_1 and h_2 are the scaled x and y, whose
    gradients are (1/h, 0) and (0, 1/h)."""
    frame, nabla, r = data.poly.frame, data.nabla, data.nabla[:, 0]
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

    A_adv = r[:, :, None] * (data.t[:, None, :2] @ S)
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
    return standard_vem_locals(cell_data(poly, spec, 0), spec).cell(0)
