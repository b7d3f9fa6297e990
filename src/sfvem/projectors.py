"""Computable projections from vertex degrees of freedom.

Three projections, all evaluated through boundary integrals only (the
underlying function is virtual and cannot be sampled inside the element),
each a matrix acting on all N_E vertex values at once and reading the
element, and its scaled frame, through its ``geometry.polygon_geometry``
record:

* ``nabla_matrix``: H1 projection onto linears, gradient from the
  divergence identity, constant from boundary-mean matching;
  ``dof_matrix`` evaluates the result back at the vertices.
* ``hgrad_matrix``: L2 projection of the gradient onto gradients of
  harmonic polynomials of degree ell+1, via the Gram system G d = b; it
  returns the boundary Gram matrix G with the projection.
* ``pi0_row``: L2 projection onto constants, the mean of the linear
  projection.
"""
from __future__ import annotations

import logging

import numpy as np
import scipy.linalg

from .errors import DegenerateElementError, SingularGramError
from .geometry import PolygonGeometry, ScaledFrame
from .poly import HarmonicBasis
from .quadrature import gauss_legendre
# not called here; the benchmark's tracer re-binds it by this module's name
from .quadrature import polygon_rule  # noqa: F401

log = logging.getLogger(__name__)

# relative eigenvalue floor below which the Gram solve degrades to a
# pseudo-inverse with a logged warning instead of failing silently
GRAM_RANK_TOL = 1e-12


def _check_element(poly: PolygonGeometry) -> None:
    if poly.area <= 1e-14 * poly.diameter * poly.diameter:
        raise DegenerateElementError(
            f"element has area {poly.area:.3e} below 1e-14 * diameter^2"
        )


def nabla_matrix(poly: PolygonGeometry) -> np.ndarray:
    """Matrix (3, N) mapping vertex values to the P1 coefficients of the
    H1 projection in the record's scaled frame.

    The gradient rows come from (1/|E|) integral over the boundary of v n ds
    with the piecewise linear trace integrated by the trapezoid rule (exact);
    the constant row matches the boundary mean of v.
    """
    _check_element(poly)
    area, lengths, frame = poly.area, poly.lengths, poly.frame
    # each vertex collects half of both adjacent edges: the trapezoid stencil
    half = 0.5 * lengths
    wtrap = half + np.roll(half, 1)
    half_n = half[:, None] * poly.normals
    W = half_n + np.roll(half_n, 1, axis=0)
    P = np.empty((3, len(lengths)))
    P[1] = frame.scale * W[:, 0] / area
    P[2] = frame.scale * W[:, 1] / area
    # boundary means: of v (trapezoid weights) and of the frame monomials
    perim = lengths.sum()
    loc = frame.local(poly.vertices)
    mean_x = wtrap @ loc[:, 0] / perim
    mean_y = wtrap @ loc[:, 1] / perim
    P[0] = wtrap / perim - mean_x * P[1] - mean_y * P[2]
    return P


def dof_matrix(vertices: np.ndarray, frame: ScaledFrame) -> np.ndarray:
    """Matrix (N, 3) of the frame monomials {1, xhat, yhat} at the vertices."""
    loc = frame.local(np.asarray(vertices, dtype=float))
    return np.column_stack([np.ones(len(loc)), loc[:, 0], loc[:, 1]])


def pi0_row(poly: PolygonGeometry, nabla: np.ndarray) -> np.ndarray:
    """Row (N,) such that row @ values is the mean of the linear projection,
    given nabla = nabla_matrix(poly).

    Exact for the linear integrand: the element mean of a1 + a2 xhat + a3 yhat
    uses the shoelace first moments, no quadrature.
    """
    mx, my = poly.moments
    frame = poly.frame
    mean_xhat = (mx / poly.area - frame.center[0]) / frame.scale
    mean_yhat = (my / poly.area - frame.center[1]) / frame.scale
    return nabla[0] + mean_xhat * nabla[1] + mean_yhat * nabla[2]


def _edge_normal_derivatives(poly, basis, n_nodes: int):
    # Gauss points on all N edges at once, edge-major (N * n_nodes, 2), the
    # node parameters t in [0, 1] and weights w of the rule, and dh_i/dn at
    # the points, (N, 2 ell + 2, n_nodes)
    rule = gauss_legendre(n_nodes)
    t = 0.5 * (rule.nodes + 1.0)
    w = 0.5 * rule.weights
    v = poly.vertices
    pts = (v[:, None, :] + t[None, :, None] * poly.edges[:, None, :]).reshape(-1, 2)
    grads = basis.gradients(pts).reshape(basis.size, len(v), n_nodes, 2)
    return pts, t, w, (grads @ poly.normals[:, :, None])[..., 0].transpose(1, 0, 2)


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


def hgrad_matrix(poly: PolygonGeometry, basis: HarmonicBasis):
    """Projection matrix P (2 ell + 2, N) with P @ values = coefficients,
    plus the Gram matrix G_ij = <grad h_j, grad h_i> it solves against.

    G sums the edge integrals of h_j dh_i/dn with ell + 1 Gauss nodes per
    edge (exact, degree 2 ell + 1 integrands) and is symmetrized as
    (A + A^T)/2. The right-hand side B_ij = <phi_j, dh_i/dn> over the
    boundary pairs the piecewise linear hat trace with the degree-ell normal
    derivative, so ceil((ell + 2)/2) Gauss nodes per edge are exact.
    """
    _check_element(poly)
    pts, _, w, dn = _edge_normal_derivatives(poly, basis, basis.ell + 1)
    vals = basis.values(pts).reshape(basis.size, len(poly.lengths), -1)
    G = ((poly.lengths[:, None, None] * (dn * w)) @ vals.transpose(1, 2, 0)).sum(axis=0)
    G = 0.5 * (G + G.T)
    if not np.isfinite(G).all():
        raise SingularGramError("gram matrix has non-finite entries")
    _, t, w, dn = _edge_normal_derivatives(poly, basis, (basis.ell + 3) // 2)
    dn = poly.lengths[:, None, None] * dn
    # edge e feeds its start vertex with weight 1 - t and its end vertex with t
    B = (dn @ (w * (1.0 - t))).T + np.roll((dn @ (w * t)).T, 1, axis=1)
    return _solve_gram(G, B), G
