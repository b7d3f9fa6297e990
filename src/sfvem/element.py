"""Local element matrices for the stabilization-free method and the
stabilized comparator, plus the vertex-count degree rule.

The stabilization-free bilinear form replaces every appearance of the
virtual function by a computable projection: gradients by the
harmonic-gradient projection, values by the element mean of the linear
projection. The comparator is the classical first-order scheme with the
dofi-dofi stabilization term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PolygonGeometry, polygon_geometry
from .poly import harmonic_basis
from .problem import ProblemSpec
from .projectors import dof_matrix, hgrad_matrix, nabla_matrix, pi0_row
from .quadrature import PolygonRule, polygon_rule

__all__ = [
    "ProblemSpec",
    "CellData",
    "LocalElementMatrices",
    "cell_data",
    "effective_ell",
    "sfvem_local",
    "standard_vem_local",
    "volume_degree",
]


@dataclass(frozen=True)
class LocalElementMatrices:
    """Per-element blocks of the discrete bilinear form and load."""

    ell: int
    A_diff: np.ndarray
    A_adv: np.ndarray
    A_reac: np.ndarray
    b: np.ndarray
    pi0: np.ndarray  # element-mean row, (N,)

    @property
    def A(self) -> np.ndarray:
        return self.A_diff + self.A_adv + self.A_reac


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


@dataclass(frozen=True)
class CellData:
    """What the builders read of one cell at one rule degree.

    The geometry record (which carries the frame), the H1 projection matrix
    and the element-mean row; the polygon rule; beta at the rule points as an
    (npts, 2) array; and the rule integrals of beta, gamma and f, each
    weights @ values as PolygonRule.integrate computes them. Both methods build from one record
    when their rule degrees agree, and then get the floats they get alone.
    """

    poly: PolygonGeometry
    nabla: np.ndarray
    pi0: np.ndarray
    rule: PolygonRule
    beta: np.ndarray
    int_beta: np.ndarray
    int_gamma: float
    int_f: float


def cell_data(poly: PolygonGeometry, spec: ProblemSpec, degree: int) -> CellData:
    """The record of one cell, given its geometry, at the given rule degree."""
    nabla = nabla_matrix(poly)
    r = pi0_row(poly, nabla)
    rule = polygon_rule(poly.vertices, degree)
    w = rule.weights
    b0 = spec.beta[0](rule.points)
    b1 = spec.beta[1](rule.points)
    # sfvem's einsum reads beta as this C-ordered stack and the integrals
    # use the 1-D value arrays: an F-ordered stack, or a dot over a strided
    # column of it, rounds differently
    return CellData(poly, nabla, r, rule, np.column_stack([b0, b1]),
                    np.array([float(w @ b0), float(w @ b1)]),
                    float(w @ spec.gamma(rule.points)),
                    float(w @ spec.f(rule.points)))


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
        The record of this polygon at volume_degree(spec, ell), whose
        geometry the builder reads; built from vertices when omitted.
    """
    if data is None:
        data = cell_data(polygon_geometry(vertices), spec, volume_degree(spec, ell))
    rule, r = data.rule, data.pi0
    basis = harmonic_basis(data.poly.frame, ell)
    P, G = hgrad_matrix(data.poly, basis)
    grads = basis.gradients(rule.points)

    K = spec.K
    if abs(K[0, 1]) == 0.0 and K[0, 0] == K[1, 1]:
        MK = K[0, 0] * G  # isotropic shortcut: weighted Gram is a multiple
    else:
        KG = np.einsum("ab,iqb->iqa", K, grads)
        MK = np.einsum("jqa,iqa,q->ij", grads, KG, rule.weights)
    A_diff = P.T @ MK @ P
    A_diff = 0.5 * (A_diff + A_diff.T)

    t = np.einsum("iqa,qa,q->i", grads, data.beta, rule.weights)
    A_adv = np.outer(r, t @ P)
    A_reac = data.int_gamma * np.outer(r, r)
    b = data.int_f * r
    return LocalElementMatrices(ell, A_diff, A_adv, A_reac, b, r)


def standard_vem_local(vertices, spec: ProblemSpec,
                       data: CellData | None = None) -> LocalElementMatrices:
    """Local matrices of the stabilized first-order comparator.

    Diffusion is the P1 consistency term plus the dofi-dofi stabilization
    tau * sum_i dof_i((I - Pi)u) dof_i((I - Pi)v) with tau = trace(K)/2.
    Advection and reaction use the P1 projected gradient and the element
    mean, matching the stabilization-free form term by term. data is the
    record of this polygon at volume_degree(spec, 0), built from vertices
    when omitted.
    """
    if data is None:
        data = cell_data(polygon_geometry(vertices), spec, volume_degree(spec, 0))
    frame, nabla, r = data.poly.frame, data.nabla, data.pi0
    D = dof_matrix(data.poly.vertices, frame)
    h = frame.scale
    K = spec.K
    S = nabla[1:]  # gradient rows, frame scaled
    consistency = (data.poly.area / h**2) * (S.T @ K @ S)
    tau = 0.5 * float(np.trace(K))
    Q = np.eye(len(D)) - D @ nabla
    A_diff = consistency + tau * (Q.T @ Q)
    A_diff = 0.5 * (A_diff + A_diff.T)

    A_adv = np.outer(r, (data.int_beta @ S) / h)
    A_reac = data.int_gamma * np.outer(r, r)
    b = data.int_f * r
    return LocalElementMatrices(0, A_diff, A_adv, A_reac, b, r)
