"""Local element matrices for the stabilization-free method and the
stabilized comparator, plus the vertex-count degree rule.

The stabilization-free bilinear form replaces every appearance of the
virtual function by a computable projection: gradients by the
harmonic-gradient projection, values by the element mean of the linear
projection. The comparator is the classical first-order scheme with the
dofi-dofi stabilization term.

The builders work on stacks of cells with one vertex count: ``cell_data``
records a ``PolygonStack``, ``sfvem_locals`` and ``standard_vem_locals``
return every cell's matrices with a leading cell axis, and ``cell_chunks``
cuts a mesh into such stacks. ``sfvem_local`` and ``standard_vem_local``
are the one-polygon case. Each cell's floats are those of its own build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PolygonStack, polygon_geometry
from .poly import harmonic_basis
from .problem import ProblemSpec
from .projectors import (dof_matrix, hgrad_matrices, nabla_matrices, pi0_rows)
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

# numpy's einsum adds the terms of each output element in order, in
# buffered blocks of this many terms, adding each block's sum to the total
EINSUM_BLOCK = 8192


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
    total degree among the volume integrands grad h_i . K grad h_j,
    grad h_i . beta, gamma and f (the comparator has ell = 0)."""
    return max(2 * ell, 2, spec.beta[0].degree + ell, spec.beta[1].degree + ell,
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


def stacked_dot(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each cell's w[c] @ v[c] for (C, P) arrays, one BLAS dot per cell, so
    each is the float of the one-cell product (an einsum sums otherwise)."""
    return (w[:, None, :] @ v[:, :, None])[:, 0, 0]


def _einsum_sum(terms: np.ndarray) -> np.ndarray:
    # The sums over the last axis of terms (..., L) in the order einsum
    # accumulates them: the terms of each block one after another, then the
    # block sums in turn. A sum down the first axis of a column-major copy
    # adds row after row, vectorized across the sums. That takes two sums or
    # more (numpy sums a lone row pairwise); a cell has 2 ell + 2 of them.
    rows = terms.reshape(-1, terms.shape[-1])
    total = 0.0
    for s in range(0, rows.shape[1], EINSUM_BLOCK):
        block = np.ascontiguousarray(rows[:, s:s + EINSUM_BLOCK].T)
        total = block.sum(axis=0) + total
    return total.reshape(terms.shape[:-1])


@dataclass(frozen=True)
class CellData:
    """What the builders read of a stack of cells at one rule degree.

    The geometry stack (which carries the frames), the H1 projection
    matrices and the element-mean rows; the polygon rules; beta at the rule
    points, (C, P, 2); and the rule integrals of beta, gamma and f, each
    weights @ values per cell as PolygonRule.integrate computes it. Both
    methods build from one record when their rule degrees agree, and then
    get the floats they get alone.
    """

    poly: PolygonStack
    nabla: np.ndarray
    pi0: np.ndarray
    rule: PolygonRule
    beta: np.ndarray
    int_beta: np.ndarray
    int_gamma: np.ndarray
    int_f: np.ndarray


def cell_data(poly, spec: ProblemSpec, degree: int) -> CellData:
    """The record, at the given rule degree, of a PolygonStack, or of one
    PolygonGeometry as a stack of one. The stack's points are evaluated in
    one Poly2 call per coefficient polynomial."""
    poly = poly.stack
    nabla = nabla_matrices(poly)
    r = pi0_rows(poly, nabla)
    rule = polygon_rules(poly.vertices, degree)
    w = rule.weights
    pts = rule.points.reshape(-1, 2)
    b0 = spec.beta[0](pts).reshape(w.shape)
    b1 = spec.beta[1](pts).reshape(w.shape)
    return CellData(poly, nabla, r, rule, np.stack([b0, b1], axis=-1),
                    np.stack([stacked_dot(w, b0), stacked_dot(w, b1)], axis=-1),
                    stacked_dot(w, spec.gamma(pts).reshape(w.shape)),
                    stacked_dot(w, spec.f(pts).reshape(w.shape)))


def sfvem_locals(data: CellData, spec: ProblemSpec, ell: int) -> LocalElementMatrices:
    """Local matrices of the stabilization-free form on every cell of a
    record built at volume_degree(spec, ell); see sfvem_local."""
    rule, r = data.rule, data.pi0
    basis = harmonic_basis(data.poly.frame, ell)
    P, G = hgrad_matrices(data.poly, basis)
    grads = basis.gradients(rule.points)
    n_cells, size = grads.shape[:2]
    # the terms of each volume integral flattened over (point, component),
    # each point's weight repeated for both components
    g = grads.reshape(n_cells, size, -1)
    w = np.repeat(rule.weights, 2, axis=1)[:, None, :]
    terms = np.empty_like(g)

    K = spec.K
    if abs(K[0, 1]) == 0.0 and K[0, 0] == K[1, 1]:
        MK = K[0, 0] * G  # isotropic shortcut: weighted Gram is a multiple
    else:
        # row i of einsum("ab,iqb->iqa", K, grads), then MK_ij the weighted
        # sum of grad h_j . K grad h_i, term by term as
        # einsum("jqa,iqa,q->ij", grads, KG, weights) adds them
        MK = np.empty((n_cells, size, size))
        for i in range(size):
            gx, gy = grads[:, i, :, 0], grads[:, i, :, 1]
            KG = np.stack([K[0, 0] * gx + K[0, 1] * gy, K[1, 0] * gx + K[1, 1] * gy],
                          axis=-1).reshape(n_cells, 1, -1)
            np.multiply(g, KG, out=terms)
            np.multiply(terms, w, out=terms)
            MK[:, i] = _einsum_sum(terms)
    A_diff = P.transpose(0, 2, 1) @ MK @ P
    A_diff = 0.5 * (A_diff + A_diff.transpose(0, 2, 1))

    # einsum("iqa,qa,q->i", grads, beta, weights)
    np.multiply(g, data.beta.reshape(n_cells, 1, -1), out=terms)
    np.multiply(terms, w, out=terms)
    t = _einsum_sum(terms)
    A_adv = r[:, :, None] * (t[:, None, :] @ P)
    A_reac = data.int_gamma[:, None, None] * (r[:, :, None] * r[:, None, :])
    b = data.int_f[:, None] * r
    return LocalElementMatrices(ell, A_diff, A_adv, A_reac, b, r)


def sfvem_local(vertices, spec: ProblemSpec, ell: int,
                data: CellData | None = None) -> LocalElementMatrices:
    """Local matrices of the stabilization-free form on one polygon.

    Parameters
    ----------
    vertices : (N, 2) array
        Element polygon, counterclockwise.
    spec : ProblemSpec
        Coefficients K, beta, gamma, f. The volume integrals use the
        smallest polygon rule that integrates every term exactly.
    ell : int
        Harmonic degree parameter; pass effective_ell(N) unless deliberately
        probing below the solvability bound.
    data : CellData, optional
        The record of this polygon, a stack of one, at
        volume_degree(spec, ell), whose geometry the builder reads; built
        from vertices when omitted.
    """
    if data is None:
        data = cell_data(polygon_geometry(vertices), spec, volume_degree(spec, ell))
    return sfvem_locals(data, spec, ell).cell(0)


def standard_vem_locals(data: CellData, spec: ProblemSpec) -> LocalElementMatrices:
    """Local matrices of the stabilized comparator on every cell of a record
    built at volume_degree(spec, 0); see standard_vem_local."""
    frame, nabla, r = data.poly.frame, data.nabla, data.pi0
    D = dof_matrix(data.poly.vertices, frame)
    h = frame.scale
    K = spec.K
    S = nabla[:, 1:]  # gradient rows, frame scaled
    # float_power is libm's pow, as a float's h ** 2; an array's ** 2
    # multiplies and rounds differently
    consistency = ((data.poly.area / np.float_power(h, 2))[:, None, None]
                   * (S.transpose(0, 2, 1) @ K @ S))
    tau = 0.5 * float(np.trace(K))
    Q = np.eye(D.shape[1]) - D @ nabla
    A_diff = consistency + tau * (Q.transpose(0, 2, 1) @ Q)
    A_diff = 0.5 * (A_diff + A_diff.transpose(0, 2, 1))

    A_adv = r[:, :, None] * ((data.int_beta[:, None, :] @ S) / h[:, None, None])
    A_reac = data.int_gamma[:, None, None] * (r[:, :, None] * r[:, None, :])
    b = data.int_f[:, None] * r
    return LocalElementMatrices(0, A_diff, A_adv, A_reac, b, r)


def standard_vem_local(vertices, spec: ProblemSpec,
                       data: CellData | None = None) -> LocalElementMatrices:
    """Local matrices of the stabilized first-order comparator.

    Diffusion is the P1 consistency term plus the dofi-dofi stabilization
    tau * sum_i dof_i((I - Pi)u) dof_i((I - Pi)v) with tau = trace(K)/2.
    Advection and reaction use the P1 projected gradient and the element
    mean, matching the stabilization-free form term by term. data is the
    record of this polygon, a stack of one, at volume_degree(spec, 0),
    built from vertices when omitted.
    """
    if data is None:
        data = cell_data(polygon_geometry(vertices), spec, volume_degree(spec, 0))
    return standard_vem_locals(data, spec).cell(0)
