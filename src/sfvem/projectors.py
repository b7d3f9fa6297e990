"""Computable projections from vertex degrees of freedom.

Three projections, all evaluated through boundary integrals only (the
underlying function is virtual and cannot be sampled inside the element),
each a matrix acting on all N vertex values at once. Each kernel takes a
``PolygonStack`` of C polygons with N vertices, the one geometry record,
and returns the cells' matrices with a leading cell axis:

* ``nabla_matrices``: H1 projection onto linears, gradient from the
  divergence identity, constant from boundary-mean matching;
  ``dof_matrix`` evaluates the result back at the vertices.
* ``hgrad_matrices``: L2 projection of the gradient onto gradients of
  harmonic polynomials of degree ell+1, via the Gram system G d = b; it
  returns the boundary Gram matrix G with the projection.
* ``pi0_rows``: L2 projection onto constants, the mean of the linear
  projection.

``diffusion_grams`` integrates grad h_i . K grad h_j over each cell from
the same edge nodes as the Gram matrix, by the boundary formula for
homogeneous integrands.

``nabla_matrix`` and ``hgrad_matrix`` take the vertices of one polygon and
return cell 0 of their kernel on that polygon as a stack of one. The
kernels do each cell's floating-point operations in the order a one-cell
stack does: per-cell products go through stacked ``matmul`` (one BLAS call
per cell, with the strides of one cell), never ``einsum``.
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
    the constant row matches the boundary mean of v.
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
    # boundary means: of v (trapezoid weights) and of the frame monomials;
    # the column stays strided, as a unit-stride dot sums in another order
    perim = lengths.sum(axis=1)
    loc = frame.local(poly.vertices)
    mean_x = (wtrap[:, None, :] @ loc[:, :, 0, None])[:, 0, 0] / perim
    mean_y = (wtrap[:, None, :] @ loc[:, :, 1, None])[:, 0, 0] / perim
    P[:, 0] = (wtrap / perim[:, None] - mean_x[:, None] * P[:, 1]
               - mean_y[:, None] * P[:, 2])
    return P


def nabla_matrix(vertices) -> np.ndarray:
    """Matrix (3, N) of ``nabla_matrices`` for one (N, 2) polygon."""
    return nabla_matrices(polygon_stack(np.asarray(vertices, dtype=float)[None]))[0]


def dof_matrix(vertices: np.ndarray, frame: ScaledFrame) -> np.ndarray:
    """Matrices (C, N, 3) of the frame monomials {1, xhat, yhat} at each
    cell's (C, N, 2) vertices, in its frame."""
    loc = frame.local(np.asarray(vertices, dtype=float))
    return np.stack([np.ones(loc.shape[:-1]), loc[..., 0], loc[..., 1]], axis=-1)


def pi0_rows(poly: PolygonStack, nabla: np.ndarray) -> np.ndarray:
    """Rows (C, N) such that row @ values is the mean of each cell's linear
    projection, given nabla = nabla_matrices(poly).

    Exact for the linear integrand: the element mean of a1 + a2 xhat + a3 yhat
    uses the shoelace first moments, no quadrature.
    """
    frame = poly.frame
    mean_xhat = (poly.moments[:, 0] / poly.area - frame.center[:, 0]) / frame.scale
    mean_yhat = (poly.moments[:, 1] / poly.area - frame.center[:, 1]) / frame.scale
    return (nabla[:, 0] + mean_xhat[:, None] * nabla[:, 1]
            + mean_yhat[:, None] * nabla[:, 2])


def _edge_points(poly: PolygonStack, n_nodes: int):
    # Gauss points on all N edges of each cell at once, edge-major
    # (C, N * n_nodes, 2), with the node parameters t in [0, 1] and the
    # weights w of the rule
    rule = gauss_legendre(n_nodes)
    t = 0.5 * (rule.nodes + 1.0)
    v = poly.vertices
    pts = v[:, :, None, :] + t[:, None] * poly.edges[:, :, None, :]
    return pts.reshape(len(v), -1, 2), t, 0.5 * rule.weights


def _normal_derivatives(poly: PolygonStack, grads: np.ndarray) -> np.ndarray:
    # dh_i/dn at the edge points from their gradients, (C, N, 2 ell + 2,
    # n_nodes): one BLAS product per basis function and edge
    n_cells, size, n_points = grads.shape[:3]
    n = poly.lengths.shape[1]
    grads = grads.reshape(n_cells, size, n, n_points // n, 2)
    return (grads @ poly.normals[:, None, :, :, None])[..., 0].transpose(0, 2, 1, 3)


def _solve_grams(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # G[k] x = rhs[k] for each cell k: Cholesky through the LAPACK calls
    # scipy's cho_factor and cho_solve make, or a logged pseudo-inverse for
    # a nearly singular G[k]. No batched factorization reproduces potrf and
    # potrs bit for bit, so the factorizations loop. Each solution is stored
    # column-major, as potrs returns it: the products that read it round
    # differently on a row-major copy.
    eig = np.linalg.eigvalsh(G)
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (G,))
    out = np.empty(rhs.shape[:1] + rhs.shape[:0:-1])
    out = out.transpose(0, *range(rhs.ndim - 1, 0, -1))
    for k, (gram, b, lam) in enumerate(zip(G, rhs, eig)):
        if lam[-1] <= 0.0:
            raise at_index(SingularGramError(
                f"gram matrix is not positive definite (largest eigenvalue "
                f"{lam[-1]:.3e})"), k)
        if lam[0] < GRAM_RANK_TOL * lam[-1]:
            log.warning(
                "gram matrix nearly singular (eig ratio %.3e); using pseudo-inverse",
                lam[0] / lam[-1],
            )
            out[k] = scipy.linalg.pinvh(gram) @ b
            continue
        factor, info = potrf(gram, lower=False, overwrite_a=False, clean=False)
        if info != 0:
            log.warning("cholesky factorization failed; using pseudo-inverse")
            out[k] = scipy.linalg.pinvh(gram) @ b
            continue
        out[k] = potrs(factor, b, lower=False, overwrite_b=False)[0]
    return out


def hgrad_matrices(poly: PolygonStack, basis: HarmonicBasis):
    """Projection matrices P (C, 2 ell + 2, N) with P @ values = coefficients,
    plus the Gram matrices G_ij = <grad h_j, grad h_i> (C, 2 ell + 2,
    2 ell + 2) they solve against, for a basis on the stack's frame.

    G sums the edge integrals of h_j dh_i/dn with ell + 1 Gauss nodes per
    edge (exact, degree 2 ell + 1 integrands) and is symmetrized as
    (A + A^T)/2. The right-hand side B_ij = <phi_j, dh_i/dn> over the
    boundary pairs the piecewise linear hat trace with the degree-ell normal
    derivative, so ceil((ell + 2)/2) Gauss nodes per edge are exact.
    """
    _check_elements(poly)
    n_cells, n = poly.lengths.shape
    pts, _, w = _edge_points(poly, basis.ell + 1)
    vals, grads = basis.values_and_gradients(pts)
    vals = vals.reshape(n_cells, basis.size, n, -1)
    dn = _normal_derivatives(poly, grads)
    lengths = poly.lengths[:, :, None, None]
    G = ((lengths * (dn * w)) @ vals.transpose(0, 2, 3, 1)).sum(axis=1)
    G = 0.5 * (G + G.transpose(0, 2, 1))
    if not np.isfinite(G).all():
        bad = np.flatnonzero(~np.isfinite(G).all(axis=(1, 2)))
        raise at_index(SingularGramError("gram matrix has non-finite entries"), bad[0])
    pts, t, w = _edge_points(poly, (basis.ell + 3) // 2)
    dn = lengths * _normal_derivatives(poly, basis.gradients(pts))
    # edge e feeds its start vertex with weight 1 - t and its end vertex with t
    B = ((dn @ (w * (1.0 - t))).transpose(0, 2, 1)
         + cyclic_roll((dn @ (w * t)).transpose(0, 2, 1), 1, axis=2))
    return _solve_grams(G, B), G


def diffusion_grams(poly: PolygonStack, basis: HarmonicBasis, K: np.ndarray) -> np.ndarray:
    """Matrices MK_ij = integral of grad h_i . K grad h_j over each cell
    (C, 2 ell + 2, 2 ell + 2), for a constant K and a basis on the stack's
    frame, from the ell + 1 Gauss nodes per edge.

    h_i has degree k_i = i // 2 + 1 about the frame centre c, so the
    integrand is homogeneous of degree k_i + k_j - 2 and its integral is
    sum_e ((v_e - c) . n_e) int_e grad h_i . K grad h_j ds / (k_i + k_j)
    (Chin, Lasserre and Sukumar, Comput. Mech. 2015): (x - c) . n_e is
    constant on edge e. The edge integrands have degree 2 ell at most.
    """
    n_cells, n = poly.lengths.shape
    pts, _, w = _edge_points(poly, basis.ell + 1)
    # (C, N, 2 ell + 2, 2 (ell + 1)): each edge's gradients and K times
    # them, flattened over (node, component)
    grads = basis.gradients(pts).reshape(n_cells, basis.size, n, -1, 2)
    gx, gy = grads[..., 0], grads[..., 1]
    KG = np.stack([K[0, 0] * gx + K[0, 1] * gy, K[1, 0] * gx + K[1, 1] * gy],
                  axis=-1).transpose(0, 2, 1, 3, 4).reshape(n_cells, n, basis.size, -1)
    g = grads.transpose(0, 2, 1, 3, 4).reshape(KG.shape)
    d = poly.vertices - poly.frame.center[:, None]
    reach = d[..., 0] * poly.normals[..., 0] + d[..., 1] * poly.normals[..., 1]
    edge = (poly.lengths * reach)[:, :, None, None] * (g * np.repeat(w, 2))
    # one BLAS product per cell and edge, summed over the edges in order
    MK = (edge @ KG.transpose(0, 1, 3, 2)).sum(axis=1)
    k = np.arange(basis.size) // 2 + 1
    return MK / (k[:, None] + k[None, :])


def hgrad_matrix(vertices, ell: int):
    """(P, G) of ``hgrad_matrices`` for one (N, 2) polygon, with the basis
    of degree parameter ell on its frame."""
    poly = polygon_stack(np.asarray(vertices, dtype=float)[None])
    P, G = hgrad_matrices(poly, harmonic_basis(poly.frame, ell))
    return P[0], G[0]
