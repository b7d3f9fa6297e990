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

from .geometry import signed_area
from .poly import ScaledFrame, harmonic_basis
from .problem import ProblemSpec
from .projectors import dof_matrix, hgrad_matrix, nabla_matrix, pi0_row
from .quadrature import polygon_rule

__all__ = [
    "ProblemSpec",
    "LocalElementMatrices",
    "effective_ell",
    "sfvem_local",
    "standard_vem_local",
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


def _volume_degree(spec: ProblemSpec, ell: int) -> int:
    # highest total degree among the volume integrands: grad h_i . K grad h_j,
    # grad h_i . beta, gamma and f
    return max(2 * ell, 2, spec.beta[0].degree + ell, spec.beta[1].degree + ell,
               spec.gamma.degree, spec.f.degree)


def sfvem_local(vertices, spec: ProblemSpec, ell: int) -> LocalElementMatrices:
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
    """
    vertices = np.asarray(vertices, dtype=float)
    frame = ScaledFrame.from_polygon(vertices)
    basis = harmonic_basis(frame, ell)
    P, G = hgrad_matrix(vertices, basis)
    nabla = nabla_matrix(vertices, frame)
    r = pi0_row(vertices, frame, nabla)

    rule = polygon_rule(vertices, _volume_degree(spec, ell))
    grads = basis.gradients(rule.points)

    K = spec.K
    if abs(K[0, 1]) == 0.0 and K[0, 0] == K[1, 1]:
        MK = K[0, 0] * G  # isotropic shortcut: weighted Gram is a multiple
    else:
        KG = np.einsum("ab,iqb->iqa", K, grads)
        MK = np.einsum("jqa,iqa,q->ij", grads, KG, rule.weights)
    A_diff = P.T @ MK @ P
    A_diff = 0.5 * (A_diff + A_diff.T)

    bvals = np.column_stack([spec.beta[0](rule.points),
                             spec.beta[1](rule.points)])
    t = np.einsum("iqa,qa,q->i", grads, bvals, rule.weights)
    A_adv = np.outer(r, t @ P)
    A_reac = rule.integrate(spec.gamma) * np.outer(r, r)
    b = rule.integrate(spec.f) * r
    return LocalElementMatrices(ell, A_diff, A_adv, A_reac, b, r)


def standard_vem_local(vertices, spec: ProblemSpec) -> LocalElementMatrices:
    """Local matrices of the stabilized first-order comparator.

    Diffusion is the P1 consistency term plus the dofi-dofi stabilization
    tau * sum_i dof_i((I - Pi)u) dof_i((I - Pi)v) with tau = trace(K)/2.
    Advection and reaction use the P1 projected gradient and the element
    mean, matching the stabilization-free form term by term.
    """
    vertices = np.asarray(vertices, dtype=float)
    frame = ScaledFrame.from_polygon(vertices)
    nabla = nabla_matrix(vertices, frame)
    D = dof_matrix(vertices, frame)
    r = pi0_row(vertices, frame, nabla)
    area = signed_area(vertices)
    h = frame.scale
    K = spec.K
    S = nabla[1:]  # gradient rows, frame scaled
    consistency = (area / h**2) * (S.T @ K @ S)
    tau = 0.5 * float(np.trace(K))
    Q = np.eye(len(vertices)) - D @ nabla
    A_diff = consistency + tau * (Q.T @ Q)
    A_diff = 0.5 * (A_diff + A_diff.T)

    rule = polygon_rule(vertices, _volume_degree(spec, 0))
    bbar = np.array([rule.integrate(spec.beta[0]),
                     rule.integrate(spec.beta[1])])
    A_adv = np.outer(r, (bbar @ S) / h)
    A_reac = rule.integrate(spec.gamma) * np.outer(r, r)
    b = rule.integrate(spec.f) * r
    return LocalElementMatrices(0, A_diff, A_adv, A_reac, b, r)
