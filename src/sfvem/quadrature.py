"""Gauss-Legendre edge rules and exact polygon quadrature.

The polygon rule triangulates once (a fan around the vertex average when the
polygon is star shaped with respect to it, ear clipping otherwise) and applies
a collapsed-square tensor Gauss rule on each triangle. The result integrates
bivariate polynomials of the requested total degree exactly, for convex and
nonconvex simple polygons alike. polygon_rules builds the rules of a stack
of polygons with one vertex count and one triangulation kind at once;
polygon_rule is its one-polygon case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, at_index
from .geometry import cyclic_roll


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

    The rules of a stack carry a leading cell axis: points (C, P, 2) and
    weights (C, P).
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def integrate(self, f) -> float:
        return float(self.weights @ np.asarray(f(self.points), dtype=float))


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


def _fan(vertices: np.ndarray):
    # triangles (C, n, 3, 2) (c, v_i, v_{i+1}) around each polygon's vertex
    # average c, and whether each polygon is strictly star shaped about c
    c = vertices.mean(axis=1)
    a = vertices
    b = cyclic_roll(vertices, -1, axis=1)
    # float_power is libm's pow, which a scalar's ** 2 calls; an array's
    # ** 2 multiplies, and the two round differently
    scale2 = np.float_power(
        np.maximum(np.abs(vertices - c[:, None]).max(axis=(1, 2)), 1.0), 2)
    cx, cy = c[:, None, 0], c[:, None, 1]
    cross = (a[..., 0] - cx) * (b[..., 1] - cy) - (a[..., 1] - cy) * (b[..., 0] - cx)
    star = ~(cross <= 1e-14 * scale2[:, None]).any(axis=1)
    return np.stack([np.broadcast_to(c[:, None], a.shape), a, b], axis=2), star


def _fan_triangles(vertices: np.ndarray):
    # one polygon's fan triangles (n, 3, 2), or None when it is not
    # strictly star shaped about its vertex average
    tris, star = _fan(np.asarray(vertices, dtype=float)[None])
    return tris[0] if star[0] else None


def fan_mask(vertices) -> np.ndarray:
    """Whether each polygon of a (C, N, 2) stack is split into a fan of N
    triangles; the others are ear clipped into N - 2."""
    return _fan(np.asarray(vertices, dtype=float))[1]


def rule_size(n_triangles: int, degree: int) -> int:
    """Points of a polygon rule of this degree on this many triangles."""
    return n_triangles * len(_duffy_reference(int(degree))[0])


def _ear_clip(vertices: np.ndarray):
    idx = list(range(len(vertices)))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * len(vertices) ** 2:
            raise QuadratureError("ear clipping failed; polygon may be degenerate")
        n = len(idx)
        for k in range(n):
            ia, ib, ic = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = vertices[ia], vertices[ib], vertices[ic]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0.0:
                continue
            if any(_point_in_triangle(vertices[j], a, b, c)
                   for j in idx if j not in (ia, ib, ic)):
                continue
            tris.append((a, b, c))
            idx.pop(k)
            break
        else:
            raise QuadratureError("ear clipping found no ear; polygon may self-intersect")
    tris.append(tuple(vertices[j] for j in idx))
    return tris


def _point_in_triangle(p, a, b, c) -> bool:
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    return d1 > 0.0 and d2 > 0.0 and d3 > 0.0


def polygon_rules(vertices, degree: int) -> PolygonRule:
    """Quadrature on a (C, N, 2) stack of simple CCW polygons, exact for
    total degree <= degree, with a leading cell axis.

    The polygons must share the triangulation kind (see fan_mask), so that
    every cell gets the same number of points; each cell's points and
    weights are those of its own rule. A QuadratureError about one polygon
    carries its position in the stack as ``index``.
    """
    if degree < 0:
        raise QuadratureError(f"degree must be nonnegative, got {degree}")
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[1] < 3:
        raise QuadratureError("polygon needs at least 3 vertices")
    x, y = vertices[..., 0], vertices[..., 1]
    area = 0.5 * (x * cyclic_roll(y, -1, axis=1) - cyclic_roll(x, -1, axis=1) * y).sum(axis=1)
    if (area <= 0.0).any():
        raise at_index(QuadratureError(
            "polygon must be counterclockwise with positive area"),
            np.flatnonzero(area <= 0.0)[0])
    tris, star = _fan(vertices)
    if not star.all():
        if star.any():
            raise ValueError("a stacked rule needs one triangulation kind")
        clipped = []
        for k, polygon in enumerate(vertices):
            try:
                clipped.append(_ear_clip(polygon))
            except QuadratureError as exc:
                raise at_index(exc, k)
        tris = np.array(clipped)
    u, uv, w = _duffy_reference(int(degree))
    v0, v1, v2 = tris[:, :, 0, :, None], tris[:, :, 1, :, None], tris[:, :, 2, :, None]
    e1 = v1 - v0
    e2 = v2 - v1
    d = v2 - v0
    # (C, triangles, 2, points) keeps the point axis innermost for the map
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
