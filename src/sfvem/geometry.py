"""Planar polygon primitives used by the mesh, quadrature, and projector code.

signed_areas, are_simple and polygon_stack take a (C, N, 2) stack of C
polygons with N vertices each; signed_area and is_simple are their cases
for one (N, 2) array of CCW vertex coordinates. polygon_stack builds the
one geometry record, PolygonStack, in one pass, including the scaled frame
every projector works in: each cell's centre is its centroid and its scale
its diameter, and the record keeps them there only. One polygon is a
stack of one, polygon_stack(vertices[None]).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def signed_area(vertices: np.ndarray) -> float:
    """Shoelace area, positive for CCW loops: signed_areas of a stack of one."""
    return float(signed_areas(np.asarray(vertices, dtype=float)[None])[0])


def signed_areas(vertices) -> np.ndarray:
    """Shoelace areas of a (C, N, 2) stack of polygons, positive for CCW
    loops; every cell's float that of its own shoelace sum."""
    v = np.asarray(vertices, dtype=float)
    nxt = cyclic_roll(v, -1, axis=1)
    return 0.5 * (v[..., 0] * nxt[..., 1] - nxt[..., 0] * v[..., 1]).sum(axis=1)


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
    """Element-local coordinates (x - center) / scale of a stack of C
    polygons: center is (C, 2), scale is (C,) and local maps (C, P, 2)
    points cell by cell.
    """

    center: np.ndarray  # (C, 2)
    scale: np.ndarray   # (C,)

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        if center.ndim != 2 or center.shape[1] != 2 or scale.shape != center.shape[:1]:
            raise ValueError(f"frame needs center (C, 2) and scale (C,), got "
                             f"{center.shape} and {scale.shape}")
        if not (scale > 0).all():
            raise ValueError("frame scale must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", scale)

    def local(self, points: np.ndarray) -> np.ndarray:
        return (points - self.center[:, None, :]) / self.scale[:, None, None]

    def __getitem__(self, cells) -> "ScaledFrame":
        """The frames of the cells a slice or index array picks."""
        return ScaledFrame(self.center[cells], self.scale[cells])


@dataclass(frozen=True)
class PolygonStack:
    """What the projectors and mesh reports read of C polygons with N
    vertices each; every field has a leading cell axis.

    Edge i runs from vertex i to vertex i+1 (cyclic); the normals are the
    outward unit normals of a CCW loop. frame is the scaled frame whose
    center is each cell's centroid and whose scale is its diameter.
    """

    vertices: np.ndarray   # (C, N, 2)
    edges: np.ndarray      # (C, N, 2)
    lengths: np.ndarray    # (C, N)
    normals: np.ndarray    # (C, N, 2)
    area: np.ndarray       # (C,)
    frame: ScaledFrame

    def __len__(self):
        return len(self.area)


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
    # six times the first moments, over six times the area: the centroid
    center = np.empty((len(v), 2))
    center[:, 0] = ((x + xn) * cross).sum(axis=1)
    center[:, 1] = ((y + yn) * cross).sum(axis=1)
    center /= 6.0 * area[:, None]
    e = nxt - v
    lengths = np.sqrt((e * e).sum(axis=2))
    normals = np.empty_like(e)
    normals[..., 0] = e[..., 1] / lengths
    normals[..., 1] = -e[..., 0] / lengths
    d = v[:, :, None, :] - v[:, None, :, :]
    diam = np.sqrt((d * d).sum(axis=-1).max(axis=(1, 2)))
    return PolygonStack(v, e, lengths, normals, area, ScaledFrame(center, diam))


def is_simple(vertices: np.ndarray) -> bool:
    """No two non-adjacent edges of an (N, 2) polygon properly cross, and
    N >= 3: are_simple of a stack of one."""
    v = np.asarray(vertices, dtype=float)
    return len(v) >= 3 and bool(are_simple(v[None])[0])


def are_simple(vertices) -> np.ndarray:
    """For each polygon of a (C, N, 2) stack, N >= 3, whether no two
    non-adjacent edges properly cross: a brute-force test of all N(N-3)/2
    pairs at once, each edge pair tested by the signs of four orientations."""
    v = np.asarray(vertices, dtype=float)
    n = v.shape[1]
    # edges i < j that share no endpoint: j >= i + 2, but not (0, n - 1)
    i, j = np.triu_indices(n, 2)
    keep = (i > 0) | (j < n - 1)
    i, j = i[keep], j[keep]
    p1, p2, q1, q2 = v[:, i], v[:, (i + 1) % n], v[:, j], v[:, (j + 1) % n]

    def above(a, b, c):  # c lies left of the line from a to b
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])) > 0

    cross = ((above(q1, q2, p1) != above(q1, q2, p2))
             & (above(p1, p2, q1) != above(p1, p2, q2)))
    return ~cross.any(axis=1)
