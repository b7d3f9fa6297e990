"""Computable projections from vertex degrees of freedom.

Three projections, all evaluated through boundary integrals only (the
underlying function is virtual and cannot be sampled inside the element),
each a matrix acting on all N_E vertex values at once:

* ``nabla_matrix``: H1 projection onto linears, gradient from the
  divergence identity, constant from boundary-mean matching;
  ``dof_matrix`` evaluates the result back at the vertices.
* ``hgrad_matrix``: L2 projection of the gradient onto gradients of
  harmonic polynomials of degree ell+1, via the Gram system G d = b.
* ``pi0_row``: L2 projection onto constants, the mean of the linear
  projection.
"""
from __future__ import annotations

import logging

import numpy as np
import scipy.linalg

from .errors import DegenerateElementError, SingularGramError
from .geometry import diameter, edge_lengths_normals, first_moments, signed_area
from .poly import HarmonicBasis, ScaledFrame
from .quadrature import gauss_legendre, polygon_rule

log = logging.getLogger(__name__)

# relative eigenvalue floor below which the Gram solve degrades to a
# pseudo-inverse with a logged warning instead of failing silently
GRAM_RANK_TOL = 1e-12


def _check_element(vertices: np.ndarray) -> float:
    area = signed_area(vertices)
    h = diameter(vertices)
    if area <= 1e-14 * h * h:
        raise DegenerateElementError(
            f"element has area {area:.3e} below 1e-14 * diameter^2"
        )
    return area


def nabla_matrix(vertices: np.ndarray, frame: ScaledFrame) -> np.ndarray:
    """Matrix (3, N) mapping vertex values to the P1 coefficients of the
    H1 projection in the scaled frame.

    The gradient rows come from (1/|E|) integral over the boundary of v n ds
    with the piecewise linear trace integrated by the trapezoid rule (exact);
    the constant row matches the boundary mean of v.
    """
    vertices = np.asarray(vertices, dtype=float)
    area = _check_element(vertices)
    n = len(vertices)
    _, lengths, normals = edge_lengths_normals(vertices)
    W = np.zeros((2, n))
    for e in range(n):
        j = (e + 1) % n
        half = 0.5 * lengths[e] * normals[e]
        W[:, e] += half
        W[:, j] += half
    P = np.zeros((3, n))
    P[1] = frame.scale * W[0] / area
    P[2] = frame.scale * W[1] / area
    # boundary means: of v (trapezoid weights) and of the frame monomials
    perim = lengths.sum()
    wtrap = np.zeros(n)
    for e in range(n):
        wtrap[e] += 0.5 * lengths[e]
        wtrap[(e + 1) % n] += 0.5 * lengths[e]
    loc = frame.local(vertices)
    mean_x = wtrap @ loc[:, 0] / perim
    mean_y = wtrap @ loc[:, 1] / perim
    P[0] = wtrap / perim - mean_x * P[1] - mean_y * P[2]
    return P


def dof_matrix(vertices: np.ndarray, frame: ScaledFrame) -> np.ndarray:
    """Matrix (N, 3) of the frame monomials {1, xhat, yhat} at the vertices."""
    loc = frame.local(np.asarray(vertices, dtype=float))
    return np.column_stack([np.ones(len(loc)), loc[:, 0], loc[:, 1]])


def pi0_row(vertices: np.ndarray, frame: ScaledFrame,
            nabla: np.ndarray | None = None) -> np.ndarray:
    """Row (N,) such that row @ values is the mean of the linear projection.

    Exact for the linear integrand: the element mean of a1 + a2 xhat + a3 yhat
    uses the shoelace first moments, no quadrature.
    """
    vertices = np.asarray(vertices, dtype=float)
    if nabla is None:
        nabla = nabla_matrix(vertices, frame)
    area = signed_area(vertices)
    mx, my = first_moments(vertices)
    mean_xhat = (mx / area - frame.center[0]) / frame.scale
    mean_yhat = (my / area - frame.center[1]) / frame.scale
    return nabla[0] + mean_xhat * nabla[1] + mean_yhat * nabla[2]


def hgrad_gram(vertices: np.ndarray, basis: HarmonicBasis,
               mode: str = "boundary") -> np.ndarray:
    """Gram matrix G_ij = <grad h_j, grad h_i> on the element.

    Parameters
    ----------
    vertices : (N, 2) array
        Element polygon, counterclockwise.
    basis : HarmonicBasis
        Scaled harmonic basis of size 2 ell + 2.
    mode : {"boundary", "area"}
        "boundary" reduces to edge integrals of h_j dh_i/dn with ell+1
        Gauss nodes per edge (exact, degree 2 ell + 1 integrands);
        "area" integrates grad h_i . grad h_j with a degree-2ell polygon
        rule. The two agree to rounding and serve as mutual checks.

    Returns
    -------
    (2 ell + 2, 2 ell + 2) symmetric matrix (symmetrized as (A + A^T)/2).
    """
    vertices = np.asarray(vertices, dtype=float)
    _check_element(vertices)
    m = basis.size
    if mode == "area":
        rule = polygon_rule(vertices, 2 * basis.ell)
        grads = basis.gradients(rule.points)
        G = np.einsum("ipd,jpd,p->ij", grads, grads, rule.weights)
    elif mode == "boundary":
        G = np.zeros((m, m))
        _, lengths, normals = edge_lengths_normals(vertices)
        rule = gauss_legendre(basis.ell + 1)
        t = 0.5 * (rule.nodes + 1.0)
        w = 0.5 * rule.weights
        n = len(vertices)
        for e in range(n):
            a = vertices[e]
            b = vertices[(e + 1) % n]
            pts = a[None, :] + t[:, None] * (b - a)[None, :]
            vals = basis.values(pts)
            dn = basis.gradients(pts) @ normals[e]
            G += lengths[e] * (dn * w) @ vals.T
    else:
        raise ValueError(f"unknown gram mode {mode!r}")
    G = 0.5 * (G + G.T)
    if not np.isfinite(G).all():
        raise SingularGramError("gram matrix has non-finite entries")
    return G


def _solve_gram(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvalsh(G)
    if eig[-1] <= 0.0:
        raise SingularGramError(
            f"gram matrix is not positive definite (largest eigenvalue {eig[-1]:.3e})"
        )
    if eig[0] < GRAM_RANK_TOL * eig[-1]:
        log.warning(
            "gram matrix nearly singular (eig ratio %.3e); using pseudo-inverse",
            eig[0] / eig[-1],
        )
        return scipy.linalg.pinvh(G) @ rhs
    try:
        factor = scipy.linalg.cho_factor(G)
    except scipy.linalg.LinAlgError:
        log.warning("cholesky factorization failed; using pseudo-inverse")
        return scipy.linalg.pinvh(G) @ rhs
    return scipy.linalg.cho_solve(factor, rhs)


def hgrad_matrix(vertices: np.ndarray, basis: HarmonicBasis):
    """Projection matrix P (2 ell + 2, N) with P @ values = coefficients,
    plus the boundary Gram matrix it solves against.

    The right-hand side B_ij = <phi_j, dh_i/dn> over the boundary pairs the
    piecewise linear hat trace with the degree-ell normal derivative, so
    ceil((ell + 2)/2) Gauss nodes per edge are exact.
    """
    vertices = np.asarray(vertices, dtype=float)
    n = len(vertices)
    G = hgrad_gram(vertices, basis, mode="boundary")
    rule = gauss_legendre((basis.ell + 3) // 2)
    t = 0.5 * (rule.nodes + 1.0)
    w = 0.5 * rule.weights
    _, lengths, normals = edge_lengths_normals(vertices)
    B = np.zeros((basis.size, n))
    for e in range(n):
        j = (e + 1) % n
        a, b = vertices[e], vertices[j]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        dn = basis.gradients(pts) @ normals[e]
        B[:, e] += lengths[e] * dn @ (w * (1.0 - t))
        B[:, j] += lengths[e] * dn @ (w * t)
    return _solve_gram(G, B), G
