"""Planar polygon primitives used by the mesh, quadrature, and projector code.

signed_area, diameter and is_simple take an (N, 2) array of CCW vertex
coordinates. polygon_stack builds the geometry of C polygons with N
vertices each from a (C, N, 2) array in one pass, including the scaled
frame (centroid, diameter) every projector works in; polygon_geometry is
its one-polygon case.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def signed_area(vertices: np.ndarray) -> float:
    """Shoelace area, positive for CCW loops."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def diameter(vertices: np.ndarray) -> float:
    """Max pairwise vertex distance."""
    d = vertices[:, None, :] - vertices[None, :, :]
    return float(np.sqrt(np.max(np.sum(d * d, axis=-1))))


def cyclic_roll(a: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """np.roll(a, shift, axis) as one concatenate, which costs a quarter of
    np.roll on the small arrays of a polygon."""
    head = [slice(None)] * a.ndim
    tail = list(head)
    cut = -shift % a.shape[axis]
    head[axis], tail[axis] = slice(cut, None), slice(None, cut)
    return np.concatenate((a[tuple(head)], a[tuple(tail)]), axis=axis)


@dataclass(frozen=True)
class ScaledFrame:
    """Element-local coordinates (x - center) / scale.

    center is (2,) and scale a float for one polygon; for a stack of C
    polygons center is (C, 2), scale is (C,) and local maps (C, P, 2)
    points cell by cell.
    """

    center: np.ndarray
    scale: float  # or (C,) for a stack

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not (np.asarray(self.scale) > 0).all():
            raise ValueError("frame scale must be positive")

    def local(self, points: np.ndarray) -> np.ndarray:
        scale = np.asarray(self.scale)
        return ((np.atleast_2d(points) - self.center[..., None, :])
                / scale[..., None, None])


@dataclass(frozen=True)
class PolygonStack:
    """What the projectors and mesh reports read of C polygons with N
    vertices each; every field has a leading cell axis.

    Edge i runs from vertex i to vertex i+1 (cyclic); the normals are the
    outward unit normals of a CCW loop. moments are the exact integrals of
    x and y over each polygon. frame is the scaled frame of the centroids
    and the diameters.
    """

    vertices: np.ndarray   # (C, N, 2)
    edges: np.ndarray      # (C, N, 2)
    lengths: np.ndarray    # (C, N)
    normals: np.ndarray    # (C, N, 2)
    area: np.ndarray       # (C,)
    moments: np.ndarray    # (C, 2)
    centroid: np.ndarray   # (C, 2)
    diameter: np.ndarray   # (C,)
    frame: ScaledFrame

    def __len__(self):
        return len(self.area)

    @property
    def stack(self) -> "PolygonStack":
        return self


@dataclass(frozen=True)
class PolygonGeometry:
    """The fields of PolygonStack for one polygon: arrays without the cell
    axis, area and diameter as floats, moments as a pair of floats; stack
    is the polygon as a stack of one, which the stacked kernels read."""

    vertices: np.ndarray
    edges: np.ndarray
    lengths: np.ndarray
    normals: np.ndarray
    area: float
    moments: tuple[float, float]
    centroid: np.ndarray
    diameter: float
    frame: ScaledFrame
    stack: PolygonStack = field(repr=False, compare=False)


def polygon_stack(vertices) -> PolygonStack:
    """The geometry of a (C, N, 2) stack of polygons: one roll, one
    shoelace pass, every cell's floats those of its own pass.

    Raises ValueError when a diameter is zero or NaN (no frame exists).
    """
    v = np.asarray(vertices, dtype=float)
    nxt = cyclic_roll(v, -1, axis=1)
    x, y, xn, yn = v[..., 0], v[..., 1], nxt[..., 0], nxt[..., 1]
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=1)
    moments = np.empty((len(v), 2))
    moments[:, 0] = ((x + xn) * cross).sum(axis=1)
    moments[:, 1] = ((y + yn) * cross).sum(axis=1)
    e = nxt - v
    lengths = np.sqrt((e * e).sum(axis=2))
    normals = np.empty_like(e)
    normals[..., 0] = e[..., 1] / lengths
    normals[..., 1] = -e[..., 0] / lengths
    center = moments / (6.0 * area[:, None])
    d = v[:, :, None, :] - v[:, None, :, :]
    diam = np.sqrt((d * d).sum(axis=-1).max(axis=(1, 2)))
    return PolygonStack(v, e, lengths, normals, area, moments / 6.0, center, diam,
                        ScaledFrame(center, diam))


def polygon_geometry(vertices) -> PolygonGeometry:
    """The geometry record of one (N, 2) polygon: polygon_stack of a stack
    of one.

    Raises ValueError when the diameter is zero or NaN (no frame exists).
    """
    s = polygon_stack(np.asarray(vertices, dtype=float)[None])
    area, d = float(s.area[0]), float(s.diameter[0])
    return PolygonGeometry(s.vertices[0], s.edges[0], s.lengths[0], s.normals[0],
                           area, (float(s.moments[0, 0]), float(s.moments[0, 1])),
                           s.centroid[0], d, ScaledFrame(s.centroid[0], d), s)


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
