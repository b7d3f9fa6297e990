"""Gauss-Legendre edge rules and exact polygon quadrature.

The polygon rule triangulates once (a fan around the vertex average when the
polygon is star shaped with respect to it, ear clipping otherwise) and applies
a collapsed-square tensor Gauss rule on each triangle. The result integrates
bivariate polynomials of the requested total degree exactly, for convex and
nonconvex simple polygons alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .geometry import signed_area


@dataclass(frozen=True)
class EdgeRule:
    """Nodes and weights on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class PolygonRule:
    """Quadrature points and weights on one polygon; weights sum to its area."""

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
    if n == 1:
        return EdgeRule(np.zeros(1), np.full(1, 2.0))
    nodes, weights = _gauss_legendre_cached(int(n))
    return EdgeRule(nodes, weights)


def _gauss01(n: int):
    rule = gauss_legendre(n)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights


def _triangle_points(v0, v1, v2, degree: int):
    # Duffy collapse of a tensor rule: x = u, y = u v on the reference
    # triangle picks up one extra u power from the Jacobian.
    nu = (degree + 3) // 2
    nv = (degree + 2) // 2
    xu, wu = _gauss01(nu)
    xv, wv = _gauss01(nv)
    u = np.repeat(xu, nv)
    v = np.tile(xv, nu)
    w = np.repeat(wu, nv) * np.tile(wv, nu) * u
    e1 = v1 - v0
    e2 = v2 - v1
    pts = v0[None, :] + u[:, None] * e1[None, :] + (u * v)[:, None] * e2[None, :]
    area2 = e1[0] * (v2 - v0)[1] - e1[1] * (v2 - v0)[0]
    return pts, w * area2


def _fan_triangles(vertices: np.ndarray):
    c = vertices.mean(axis=0)
    tris = []
    n = len(vertices)
    scale2 = max(np.abs(vertices - c).max(), 1.0) ** 2
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        cross = (a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0])
        if cross <= 1e-14 * scale2:
            return None
        tris.append((c, a, b))
    return tris


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


def polygon_rule(vertices, degree: int) -> PolygonRule:
    """Quadrature on a simple CCW polygon, exact for total degree <= degree.

    Parameters
    ----------
    vertices : (n, 2) array
        Polygon vertices in counterclockwise order.
    degree : int
        Highest total polynomial degree integrated exactly.
    """
    if degree < 0:
        raise QuadratureError(f"degree must be nonnegative, got {degree}")
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) < 3:
        raise QuadratureError("polygon needs at least 3 vertices")
    if signed_area(vertices) <= 0.0:
        raise QuadratureError("polygon must be counterclockwise with positive area")
    tris = _fan_triangles(vertices)
    if tris is None:
        tris = _ear_clip(vertices)
    pts, wts = [], []
    for v0, v1, v2 in tris:
        p, w = _triangle_points(np.asarray(v0), np.asarray(v1), np.asarray(v2), degree)
        pts.append(p)
        wts.append(w)
    return PolygonRule(np.vstack(pts), np.concatenate(wts), int(degree))
