"""Gauss-Legendre edge rules and exact polygon quadrature.

The polygon rule splits an N-gon into the N fan triangles (c, v_i, v_i+1)
about its vertex average c and applies a collapsed-square tensor Gauss rule
on each. A triangle's weights carry its signed area, so on a polygon that
is not star shaped about c some weights are negative; the signed triangles
still add up to the polygon, and the rule integrates bivariate polynomials
of the requested total degree exactly on every simple CCW polygon, convex
or not, hanging nodes included. polygon_rules builds the rules of any
stack of polygons with one vertex count at once; polygon_rule takes the
vertices of one polygon and returns the rule of that polygon as a stack of
one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, at_index
from .geometry import cyclic_roll, signed_areas


@dataclass(frozen=True)
class EdgeRule:
    """Nodes and weights on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class PolygonRule:
    """Quadrature points and weights on one polygon; weights sum to its area.

    A weight is negative where its fan triangle is clockwise, on a polygon
    that is not star shaped about its vertex average. The rules of a stack
    carry a leading cell axis: points (C, P, 2) and weights (C, P).
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def integrate(self, f):
        """Integral of f, a map of (n, 2) points to (n,) values; (C,) on a stack."""
        values = np.asarray(f(self.points.reshape(-1, 2)), float).reshape(self.weights.shape)
        if self.weights.ndim == 1:
            return float(self.weights @ values)
        return np.einsum("cp,cp->c", self.weights, values)


@lru_cache(maxsize=None)
def _gauss_legendre_cached(n: int):
    # Newton iteration on P_n from Chebyshev initial guesses; the recurrence
    # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} gives P_n and P_n'.
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p0, p1 = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce exact symmetry about 0
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n: int) -> EdgeRule:
    """n-point Gauss-Legendre rule on [-1, 1], exact through degree 2n - 1."""
    if n < 1:
        raise QuadratureError(f"need at least one node, got n={n}")
    nodes, weights = _gauss_legendre_cached(int(n))
    return EdgeRule(nodes, weights)


def _gauss01(n: int):
    rule = gauss_legendre(n)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights


@lru_cache(maxsize=None)
def _duffy_reference(degree: int):
    # Duffy collapse of a tensor rule: x = u, y = u v on the reference
    # triangle picks up one extra u power from the Jacobian. Returns the
    # node coordinates u and u v and the weights, shared by every triangle.
    nu = (degree + 3) // 2
    nv = (degree + 2) // 2
    xu, wu = _gauss01(nu)
    xv, wv = _gauss01(nv)
    u = np.repeat(xu, nv)
    v = np.tile(xv, nu)
    w = np.repeat(wu, nv) * np.tile(wv, nu) * u
    uv = u * v
    for arr in (u, uv, w):
        arr.setflags(write=False)
    return u, uv, w


def rule_size(n_vertices: int, degree: int) -> int:
    """Points of a polygon rule of this degree on a polygon of this many
    vertices (one fan triangle per vertex)."""
    return n_vertices * len(_duffy_reference(int(degree))[0])


def polygon_rules(vertices, degree: int) -> PolygonRule:
    """Quadrature on a (C, N, 2) stack of simple CCW polygons, exact for
    total degree <= degree, with a leading cell axis.

    Each cell's rule is the fan of its N triangles (c, v_i, v_i+1) about its
    vertex average c, each with the signed weights of its own Duffy map.
    Where a polygon is not star shaped about c some triangles are clockwise
    and their weights negative; the signed triangles still add up to the
    polygon (the shoelace decomposition), so the rule stays exact and its
    weights sum to the area. A QuadratureError about one polygon carries
    its position in the stack as ``index``.
    """
    if degree < 0:
        raise QuadratureError(f"degree must be nonnegative, got {degree}")
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[1] < 3:
        raise QuadratureError("polygon needs at least 3 vertices")
    area = signed_areas(vertices)
    if (area <= 0.0).any():
        raise at_index(QuadratureError(
            "polygon must be counterclockwise with positive area"),
            np.flatnonzero(area <= 0.0)[0])
    u, uv, w = _duffy_reference(int(degree))
    # (C, N, 2, 1) corners, c broadcast over N; the point axis goes innermost
    v0 = vertices.mean(axis=1)[:, None, :, None]
    v1 = vertices[..., None]
    v2 = cyclic_roll(vertices, -1, axis=1)[..., None]
    e1 = v1 - v0
    e2 = v2 - v1
    d = v2 - v0
    pts = (v0 + u * e1 + uv * e2).transpose(0, 1, 3, 2)
    area2 = e1[:, :, 0] * d[:, :, 1] - e1[:, :, 1] * d[:, :, 0]
    n = len(vertices)
    return PolygonRule(pts.reshape(n, -1, 2), (w * area2).reshape(n, -1), int(degree))


def polygon_rule(vertices, degree: int) -> PolygonRule:
    """Quadrature on a simple CCW polygon, exact for total degree <= degree.

    Parameters
    ----------
    vertices : (n, 2) array
        Polygon vertices in counterclockwise order.
    degree : int
        Highest total polynomial degree integrated exactly.
    """
    rule = polygon_rules(np.asarray(vertices, dtype=float)[None], degree)
    return PolygonRule(rule.points[0], rule.weights[0], rule.degree)
