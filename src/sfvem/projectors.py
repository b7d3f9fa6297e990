"""Computable projections from vertex degrees of freedom.

Three projections, all evaluated through boundary integrals only (the
underlying function is virtual and cannot be sampled inside the element),
each a matrix acting on all N vertex values at once. Each kernel takes a
``PolygonStack`` of C polygons with N vertices, the one geometry record,
and returns the cells' matrices with a leading cell axis:

* ``nabla_matrices``: H1 projection onto linears, gradient from the
  divergence identity, constant from boundary-mean matching;
  ``dof_matrix`` evaluates the result back at the vertices. The L2
  projection onto constants, the element mean of the linear projection,
  is its constant row nabla[:, 0]: the frame is centred at the centroid,
  where the means of xhat and yhat vanish.
* ``hgrad_matrices``: L2 projection of the gradient onto gradients of
  harmonic polynomials of degree ell+1, via the Gram system G d = b; it
  returns the boundary Gram matrix G with the projection, and the
  diffusion Gram MK_ij = integral of grad h_i . K grad h_j from the same
  edge nodes, by the boundary formula for homogeneous integrands.

``nabla_matrix`` and ``hgrad_matrix`` take the vertices of one polygon and
return cell 0 of their kernel on that polygon as a stack of one. The
kernels are plain batched contractions and one batched LAPACK solve; a
cell's matrices agree with its own edge-by-edge build to rounding (the
tolerances are in tests/test_oracle_identity.py), not bit for bit.
"""
from __future__ import annotations

import logging

import numpy as np
import scipy.linalg

from .errors import DegenerateElementError, SingularGramError, at_index
from .geometry import PolygonStack, ScaledFrame, cyclic_roll, polygon_stack
from .poly import HarmonicBasis, harmonic_basis
from .quadrature import gauss_legendre
# not called here; the benchmark's tracer re-binds it by this module's name
from .quadrature import polygon_rule  # noqa: F401

log = logging.getLogger(__name__)

# relative eigenvalue floor below which the Gram solve degrades to a
# pseudo-inverse with a logged warning instead of failing silently
GRAM_RANK_TOL = 1e-12


def _check_elements(poly: PolygonStack) -> None:
    bad = poly.area <= 1e-14 * poly.diameter * poly.diameter
    if bad.any():
        bad = np.flatnonzero(bad)
        raise at_index(DegenerateElementError(
            f"element has area {poly.area[bad[0]]:.3e} below 1e-14 * diameter^2"
        ), bad[0])


def nabla_matrices(poly: PolygonStack) -> np.ndarray:
    """Matrices (C, 3, N) mapping each cell's vertex values to the P1
    coefficients of the H1 projection in its scaled frame.

    The gradient rows come from (1/|E|) integral over the boundary of v n ds
    with the piecewise linear trace integrated by the trapezoid rule (exact);
    the constant row matches the boundary mean of v. Since the frame is
    centred at the centroid, that row is also the element mean of the
    projection.
    """
    _check_elements(poly)
    area, lengths, frame = poly.area[:, None], poly.lengths, poly.frame
    # each vertex collects half of both adjacent edges: the trapezoid stencil
    half = 0.5 * lengths
    wtrap = half + cyclic_roll(half, 1, axis=1)
    half_n = half[..., None] * poly.normals
    W = half_n + cyclic_roll(half_n, 1, axis=1)
    P = np.empty((len(poly), 3, lengths.shape[1]))
    scale = frame.scale[:, None]
    P[:, 1] = scale * W[..., 0] / area
    P[:, 2] = scale * W[..., 1] / area
    # boundary means: of v (trapezoid weights) and of the frame monomials
    perim = lengths.sum(axis=1)[:, None]
    mean = np.einsum("cn,cna->ca", wtrap, frame.local(poly.vertices)) / perim
    P[:, 0] = wtrap / perim - mean[:, :1] * P[:, 1] - mean[:, 1:] * P[:, 2]
    return P


def nabla_matrix(vertices) -> np.ndarray:
    """Matrix (3, N) of ``nabla_matrices`` for one (N, 2) polygon."""
    return nabla_matrices(polygon_stack(np.asarray(vertices, dtype=float)[None]))[0]


def dof_matrix(vertices: np.ndarray, frame: ScaledFrame) -> np.ndarray:
    """Matrices (C, N, 3) of the frame monomials {1, xhat, yhat} at each
    cell's (C, N, 2) vertices, in its frame."""
    loc = frame.local(np.asarray(vertices, dtype=float))
    return np.stack([np.ones(loc.shape[:-1]), loc[..., 0], loc[..., 1]], axis=-1)


def edge_points(poly: PolygonStack, n_nodes: int):
    """Gauss points of n_nodes per edge on all N edges of each cell at once,
    edge-major (C, N * n_nodes, 2), with the node parameters t in [0, 1]
    and the weights w of the rule on [0, 1]; exact for edge integrands of
    degree 2 n_nodes - 1."""
    rule = gauss_legendre(n_nodes)
    t = 0.5 * (rule.nodes + 1.0)
    v = poly.vertices
    pts = v[:, :, None, :] + t[:, None] * poly.edges[:, :, None, :]
    return pts.reshape(len(v), -1, 2), t, 0.5 * rule.weights


def _normal_derivatives(poly: PolygonStack, grads: np.ndarray) -> np.ndarray:
    # dh_i/dn at the edge points from their gradients (C, 2 ell + 2,
    # N * n_nodes, 2), edge by edge: (C, 2 ell + 2, N, n_nodes)
    n_cells, size, n_points = grads.shape[:3]
    n = poly.lengths.shape[1]
    grads = grads.reshape(n_cells, size, n, n_points // n, 2)
    normals = poly.normals[:, None, :, None, :]
    return grads[..., 0] * normals[..., 0] + grads[..., 1] * normals[..., 1]


def _solve_grams(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # G[k] x = rhs[k] for each cell k, in one batched LAPACK solve, or by a
    # logged pseudo-inverse for a nearly singular G[k]
    eig = np.linalg.eigvalsh(G)
    bad = np.flatnonzero(eig[:, -1] <= 0.0)
    if len(bad):
        raise at_index(SingularGramError(
            f"gram matrix is not positive definite (largest eigenvalue "
            f"{eig[bad[0], -1]:.3e})"), bad[0])
    near = eig[:, 0] < GRAM_RANK_TOL * eig[:, -1]
    # a nearly singular cell solves against the identity here, then takes
    # the pseudo-inverse
    out = np.linalg.solve(np.where(near[:, None, None], np.eye(G.shape[1]), G), rhs)
    for k in np.flatnonzero(near):
        log.warning(
            "gram matrix nearly singular (eig ratio %.3e); using pseudo-inverse",
            eig[k, 0] / eig[k, -1],
        )
        out[k] = scipy.linalg.pinvh(G[k]) @ rhs[k]
    return out


def hgrad_matrices(poly: PolygonStack, basis: HarmonicBasis, K: np.ndarray):
    """Projection matrices P (C, 2 ell + 2, N) with P @ values = coefficients,
    the Gram matrices G_ij = <grad h_j, grad h_i> (C, 2 ell + 2, 2 ell + 2)
    they solve against, and the diffusion Grams MK_ij = integral of
    grad h_i . K grad h_j over each cell (same shape) for a constant K, for
    a basis on the stack's frame.

    G sums the edge integrals of h_j dh_i/dn with ell + 1 Gauss nodes per
    edge (exact, degree 2 ell + 1 integrands) and is symmetrized as
    (A + A^T)/2. The right-hand side B_ij = <phi_j, dh_i/dn> over the
    boundary pairs the piecewise linear hat trace with the degree-ell normal
    derivative, so ceil((ell + 2)/2) Gauss nodes per edge are exact.

    MK is K[0, 0] G for a multiple of the identity. Otherwise it comes from
    the basis gradients at the same ell + 1 nodes per edge: h_i has degree
    k_i = i // 2 + 1 about the frame centre c, so the integrand is
    homogeneous of degree k_i + k_j - 2 and its integral is
    sum_e ((v_e - c) . n_e) int_e grad h_i . K grad h_j ds / (k_i + k_j)
    (Chin, Lasserre and Sukumar, Comput. Mech. 2015): (x - c) . n_e is
    constant on edge e. The edge integrands have degree 2 ell at most.
    """
    _check_elements(poly)
    n_cells, size = len(poly), basis.size
    pts, _, w = edge_points(poly, basis.ell + 1)
    vals, grads = basis.values_and_gradients(pts)
    dn = _normal_derivatives(poly, grads)
    edge_w = (poly.lengths[:, :, None] * w).reshape(n_cells, 1, -1)
    G = (dn.reshape(n_cells, size, -1) * edge_w) @ vals.transpose(0, 2, 1)
    G = 0.5 * (G + G.transpose(0, 2, 1))
    if not np.isfinite(G).all():
        bad = np.flatnonzero(~np.isfinite(G).all(axis=(1, 2)))
        raise at_index(SingularGramError("gram matrix has non-finite entries"), bad[0])
    if abs(K[0, 1]) == 0.0 and K[0, 0] == K[1, 1]:
        MK = K[0, 0] * G
    else:
        d = poly.vertices - poly.frame.center[:, None]
        reach = d[..., 0] * poly.normals[..., 0] + d[..., 1] * poly.normals[..., 1]
        node_w = ((poly.lengths * reach)[:, :, None] * w).reshape(n_cells, 1, -1, 1)
        KG = (grads.reshape(-1, 2) @ K.T).reshape(n_cells, size, -1)
        MK = (grads * node_w).reshape(n_cells, size, -1) @ KG.transpose(0, 2, 1)
        k = np.arange(size) // 2 + 1
        MK /= k[:, None] + k[None, :]
    pts, t, w = edge_points(poly, (basis.ell + 3) // 2)
    dn = poly.lengths[:, None, :, None] * _normal_derivatives(poly, basis.gradients(pts))
    # edge e feeds its start vertex with weight 1 - t and its end vertex with t
    B = dn @ (w * (1.0 - t)) + cyclic_roll(dn @ (w * t), 1, axis=2)
    return _solve_grams(G, B), G, MK


def hgrad_matrix(vertices, ell: int):
    """(P, G) of ``hgrad_matrices`` for one (N, 2) polygon, with the basis
    of degree parameter ell on its frame."""
    poly = polygon_stack(np.asarray(vertices, dtype=float)[None])
    P, G, _ = hgrad_matrices(poly, harmonic_basis(poly.frame, ell), np.eye(2))
    return P[0], G[0]
