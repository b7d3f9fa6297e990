"""Planar polygon primitives used by the mesh, quadrature, and projector code.

All functions take an (N, 2) array of CCW vertex coordinates;
polygon_geometry bundles what the per-cell passes read of one polygon,
including the scaled frame (centroid, diameter) every projector works in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def signed_area(vertices: np.ndarray) -> float:
    """Shoelace area, positive for CCW loops."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def diameter(vertices: np.ndarray) -> float:
    """Max pairwise vertex distance."""
    d = vertices[:, None, :] - vertices[None, :, :]
    return float(np.sqrt(np.max(np.sum(d * d, axis=-1))))


@dataclass(frozen=True)
class ScaledFrame:
    """Element-local coordinates (x - center) / scale."""

    center: np.ndarray
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.scale > 0:
            raise ValueError("frame scale must be positive")

    def local(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(points) - self.center) / self.scale


@dataclass(frozen=True)
class PolygonGeometry:
    """What the projectors and mesh reports read of one polygon.

    Edge i runs from vertex i to vertex i+1 (cyclic); the normals are the
    outward unit normals of a CCW loop. moments are the exact integrals of
    x and y over the polygon. frame is the scaled frame of the centroid and
    the diameter.
    """

    vertices: np.ndarray
    edges: np.ndarray
    lengths: np.ndarray
    normals: np.ndarray
    area: float
    moments: tuple[float, float]
    centroid: np.ndarray
    diameter: float
    frame: ScaledFrame


def polygon_geometry(vertices) -> PolygonGeometry:
    """The geometry record of one polygon: one roll, one shoelace pass.

    Raises ValueError when the diameter is zero or NaN (no frame exists).
    """
    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    x, y, xn, yn = v[:, 0], v[:, 1], nxt[:, 0], nxt[:, 1]
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    sx = np.sum((x + xn) * cross)
    sy = np.sum((y + yn) * cross)
    e = nxt - v
    lengths = np.sqrt(np.sum(e * e, axis=1))
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / lengths[:, None]
    center = np.array([sx / (6.0 * area), sy / (6.0 * area)])
    d = diameter(v)
    return PolygonGeometry(v, e, lengths, normals, area,
                           (float(sx / 6.0), float(sy / 6.0)), center, d,
                           ScaledFrame(center, d))


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def is_simple(vertices: np.ndarray) -> bool:
    """Brute-force segment-intersection test; fine for desk-scale polygons."""
    n = len(vertices)
    if n < 3:
        return False
    segs = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared endpoint, not a proper crossing
            if _segments_properly_intersect(*segs[i], *segs[j]):
                return False
    return True
