"""Polygonal meshes: validated container, text I/O, generators, and the
single-polygon catalog used by the stability audit.

Meshes are bit-reproducible from their seed: generators draw from the
package's own xorshift stream (see rng), never from numpy's global state,
and the text format round-trips exactly through repr floats.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    MeshFormatError,
    MeshGenerationError,
    MeshIndexError,
    MeshTopologyError,
)
from .geometry import are_simple, polygon_stack, signed_areas
from .geometry import is_simple  # noqa: F401 (the benchmark's tracer re-binds it)
from .rng import XorShift

# welding grid for Voronoi vertices; shared corners computed from different
# cells agree only to rounding, so coordinates snap to this resolution
WELD_RESOLUTION = 1e-9


# PolyMesh's checks of one cell, in the order they are made: the error and
# its message, formatted with the cell ci, its first out-of-range vertex i
# and the vertex count nv
_CELL_CHECKS = (
    (MeshTopologyError, "cell {ci} has fewer than 3 vertices"),
    (MeshIndexError, "cell {ci} references vertex {i}, but mesh has {nv} vertices"),
    (MeshTopologyError, "cell {ci} repeats a vertex index"),
    (MeshTopologyError, "cell {ci} is clockwise or degenerate (signed area <= 0)"),
    (MeshTopologyError, "cell {ci} is self-intersecting"),
)


def _cell_edges(cells):
    """The edges of every cell as two flat vertex arrays, cell by cell: edge
    k of a cell runs from its vertex k to its vertex k + 1 (cyclic)."""
    sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    a = np.fromiter(chain.from_iterable(cells), dtype=np.int64, count=int(sizes.sum()))
    nxt = np.arange(1, len(a) + 1)
    ends = np.cumsum(sizes)
    nxt[ends - 1] = ends - sizes
    return a, a[nxt]


def _vertex_ids(ci: int, cell) -> tuple:
    """Cell ci's vertex indices as ints. An entry that is not an integer (a
    float, a string) is an error, not truncated or parsed."""
    try:
        return tuple(map(operator.index, cell))
    except TypeError:
        raise MeshFormatError(f"cell {ci} has a vertex index that is not an "
                              f"integer: {cell!r}") from None


@dataclass(frozen=True)
class PolyMesh:
    """Immutable polygonal tessellation with validated topology.

    Built from its vertices and counterclockwise cells alone. The Dirichlet
    set `boundary_vertices` is derived, not given: the endpoints of the
    edges that only one cell uses.
    """

    vertices: np.ndarray
    cells: tuple
    boundary_vertices: frozenset = field(init=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        cells = tuple(_vertex_ids(ci, cell) for ci, cell in enumerate(self.cells))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundary_vertices", self._validate())

    def _validate(self) -> frozenset:
        # raises the first failing check; returns the boundary vertices
        nv = len(self.vertices)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (n, 2) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise MeshFormatError(f"vertex {bad[0]} has a non-finite coordinate")
        if not self.cells:
            raise MeshTopologyError("mesh has no cells")
        # each cell's first failing check, an index into _CELL_CHECKS, which
        # lists them in the order they are made; len(_CELL_CHECKS) if none
        fails = np.full(self.n_cells, len(_CELL_CHECKS))
        for ids, index in self.cell_groups():
            if index.shape[1] < 3:
                fails[ids] = 0
                continue
            inside = ((index >= 0) & (index < nv)).all(axis=1)
            pts = self.vertices[index[inside]]
            geometric = np.full(len(pts), len(_CELL_CHECKS))
            geometric[~are_simple(pts)] = 4
            geometric[signed_areas(pts) <= 0.0] = 3
            first = fails[ids]
            first[inside] = geometric
            ordered = np.sort(index, axis=1)
            first[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)] = 2
            first[~inside] = 1
            fails[ids] = first
        bad = np.flatnonzero(fails < len(_CELL_CHECKS))
        if bad.size:
            ci = int(bad[0])
            error, message = _CELL_CHECKS[fails[ci]]
            i = next((i for i in self.cells[ci] if not 0 <= i < nv), None)
            raise error(message.format(ci=ci, i=i, nv=nv))

        a, b = _cell_edges(self.cells)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, inverse, count = np.unique(lo * nv + hi, return_index=True,
                                             return_inverse=True, return_counts=True)
        # +1 per traversal from the lower vertex, -1 per traversal back
        turns = np.bincount(inverse, np.where(a < b, 1.0, -1.0), len(count))
        bad = (count > 2) | ((count == 2) & (np.abs(turns) == 2.0))
        if bad.any():
            e = int(first[bad].min())  # the failing edge that comes first
            edge = f"edge ({lo[e]}, {hi[e]})"
            if count[inverse[e]] > 2:
                raise MeshTopologyError(
                    f"{edge} is shared by {count[inverse[e]]} cells")
            raise MeshTopologyError(f"{edge} is traversed twice in the same direction")
        unused = np.flatnonzero(np.bincount(a, minlength=nv) == 0)
        if unused.size:
            raise MeshTopologyError(f"vertex {unused[0]} belongs to no cell")
        once = first[count == 1]
        return frozenset(np.union1d(lo[once], hi[once]).tolist())

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_points(self, i: int) -> np.ndarray:
        return self.vertices[list(self.cells[i])]

    def cell_groups(self) -> list:
        """The cells grouped by vertex count N, ascending: for each N, the
        ascending ids of its cells and their (C, N) vertex index array."""
        sizes = np.array([len(cell) for cell in self.cells])
        return [(ids, np.array([self.cells[i] for i in ids]))
                for ids in (np.flatnonzero(sizes == n) for n in np.unique(sizes))]

    def cell_areas(self) -> np.ndarray:
        """The signed area of every cell, in cell order, from one stacked
        shoelace per vertex count; each that of signed_area on the cell."""
        areas = np.empty(self.n_cells)
        for ids, index in self.cell_groups():
            areas[ids] = signed_areas(self.vertices[index])
        return areas

    def edges(self) -> set:
        a, b = _cell_edges(self.cells)
        return set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


@dataclass(frozen=True)
class MeshQualityReport:
    """Per-cell diameters and edge-to-diameter ratios."""

    cell_diameters: np.ndarray
    edge_ratios: np.ndarray
    h: float
    kappa: float


@dataclass(frozen=True)
class CatalogPolygon:
    """One named test polygon of the audit catalog."""

    name: str
    vertices: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


# ---------------------------------------------------------------------------
# text format


def read_mesh(path) -> PolyMesh:
    """Read the `vem-mesh 1` text format and validate all invariants.

    Raises MeshFormatError with a line number on malformed input, a
    boundary index listed twice included, MeshIndexError on out-of-range
    vertex references, MeshTopologyError on orientation or edge-sharing
    violations, and, after PolyMesh's own checks, on a boundary section
    other than the set PolyMesh derives.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def tokens(ln):
        if ln >= len(lines):
            raise MeshFormatError(f"line {ln + 1}: unexpected end of file")
        return lines[ln].split()

    tok = tokens(0)
    if tok != ["vem-mesh", "1"]:
        raise MeshFormatError(f"line 1: expected header 'vem-mesh 1', got {lines[0]!r}")
    ln = 1

    def section(name):
        nonlocal ln
        tok = tokens(ln)
        if len(tok) != 2 or tok[0] != name:
            raise MeshFormatError(f"line {ln + 1}: expected '{name} <count>'")
        try:
            count = int(tok[1])
        except ValueError:
            raise MeshFormatError(f"line {ln + 1}: bad count {tok[1]!r}") from None
        if count < 0:
            raise MeshFormatError(f"line {ln + 1}: negative count")
        ln += 1
        return count

    nv = section("vertices")
    verts = np.empty((nv, 2))
    for i in range(nv):
        tok = tokens(ln)
        if len(tok) != 2:
            raise MeshFormatError(f"line {ln + 1}: expected 'x y'")
        try:
            verts[i] = [float(tok[0]), float(tok[1])]
        except ValueError:
            raise MeshFormatError(f"line {ln + 1}: bad coordinate") from None
        if not np.isfinite(verts[i]).all():
            raise MeshFormatError(f"line {ln + 1}: non-finite coordinate")
        ln += 1

    nc = section("cells")
    cells = []
    for _ in range(nc):
        tok = tokens(ln)
        try:
            nums = [int(t) for t in tok]
        except ValueError:
            raise MeshFormatError(f"line {ln + 1}: bad vertex index") from None
        if not nums or len(nums) != nums[0] + 1:
            raise MeshFormatError(
                f"line {ln + 1}: expected 'k' followed by k vertex indices"
            )
        cells.append(tuple(nums[1:]))
        ln += 1

    nb = section("boundary")
    boundary = set()
    for _ in range(nb):
        tok = tokens(ln)
        if len(tok) != 1:
            raise MeshFormatError(f"line {ln + 1}: expected one vertex index")
        try:
            i = int(tok[0])
        except ValueError:
            raise MeshFormatError(f"line {ln + 1}: bad vertex index") from None
        if i in boundary:
            raise MeshFormatError(f"line {ln + 1}: boundary vertex {i} listed twice")
        boundary.add(i)
        ln += 1
    if ln < len(lines):
        raise MeshFormatError(
            f"line {ln + 1}: unexpected line after the boundary section")

    for i in boundary:
        if not 0 <= i < nv:
            raise MeshIndexError(f"boundary vertex {i} out of range (mesh has {nv})")
    mesh = PolyMesh(verts, tuple(cells))
    if boundary != mesh.boundary_vertices:
        missing = sorted(mesh.boundary_vertices - boundary)[:5]
        extra = sorted(boundary - mesh.boundary_vertices)[:5]
        raise MeshTopologyError(
            f"boundary vertex set inconsistent with cell edges "
            f"(missing {missing}, extra {extra})"
        )
    return mesh


def write_mesh(mesh: PolyMesh, path) -> None:
    """Write the canonical text form; read_mesh(write_mesh(m)) is identity."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vem-mesh 1\n")
        fh.write(f"vertices {mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            # repr of the Python float is the shortest digits that round-trip
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"cells {mesh.n_cells}\n")
        for cell in mesh.cells:
            fh.write(" ".join([str(len(cell))] + [str(i) for i in cell]) + "\n")
        bnd = sorted(mesh.boundary_vertices)
        fh.write(f"boundary {len(bnd)}\n")
        for i in bnd:
            fh.write(f"{i}\n")


# ---------------------------------------------------------------------------
# generators


def generate_distorted_grid(n: int, delta: float = 0.3, seed: int = 42) -> PolyMesh:
    """n x n quadrilateral mesh of the unit square with jittered interior.

    Each interior vertex moves by independent uniform offsets in
    [-delta/n, delta/n] per coordinate (x drawn before y, vertices in row
    major order); boundary vertices stay put. delta must lie in [0, 0.5).

    One draw always builds: with h = 1/n, every vertex stays within
    delta h < h/2 of its lattice point in each coordinate. A cell's bottom
    and top edges therefore lie in disjoint horizontal strips, and its
    left and right edges in disjoint vertical strips, so no cell can fold
    or invert.
    """
    if n < 1:
        raise MeshGenerationError(f"need n >= 1 cells per side, got {n}")
    if not 0.0 <= delta < 0.5:
        raise MeshGenerationError(f"delta must lie in [0, 0.5), got {delta}")
    rng = XorShift(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    # lattice point k = j (n + 1) + i at (xs[i], xs[j])
    verts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = np.column_stack([a, a + 1, a + n + 2, a + n + 1])
    jitter = np.array([rng.uniform(-delta / n, delta / n) for _ in range(2 * (n - 1) ** 2)])
    verts.reshape(n + 1, n + 1, 2)[1:n, 1:n] += jitter.reshape(n - 1, n - 1, 2)
    mesh = PolyMesh(verts, cells)
    _check_unit_area(mesh)
    return mesh


def _halfplane_clip(poly, nx, ny, c):
    # keep the region nx*x + ny*y <= c (Sutherland-Hodgman). Points are
    # (x, y) float tuples: the same double arithmetic as (2,) numpy arrays,
    # at a fraction of the cost per call. Every point kept is the input
    # object itself.
    out = []
    P = poly[-1]
    fp = nx * P[0] + ny * P[1] - c
    for Q in poly:
        fq = nx * Q[0] + ny * Q[1] - c
        if fq <= 0.0:
            if fp > 0.0:
                t = fp / (fp - fq)
                out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
            out.append(Q)
        elif fp < 0.0:
            t = fp / (fp - fq)
            out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
        P, fp = Q, fq
    return out


_UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

# a seed t with |t - s|^2 > _REACH r^2 cannot cut the cell of seed s whose
# farthest vertex lies at distance r (see _voronoi_cells)
_REACH = 4.0 * (1.0 + 1e-4)


def _voronoi_cells(seeds: np.ndarray):
    # Clip each seed's square against the bisectors of the other seeds in
    # ascending index order, skipping the clips that cannot cut the cell.
    #
    # Why a skip is exact: let r be the largest distance from s to a vertex
    # of the cell as clipped so far. For a vertex x and another seed t with
    # d = t - s, the clip tests d.x - d.(s + t)/2 = d.(x - s) - |d|^2/2,
    # which is at most |d| r - |d|^2/2 < 0 once |d| > 2r. So a bisector
    # beyond the farthest vertex cuts nothing: _halfplane_clip takes its
    # fq <= 0 branch at every vertex and returns the same points in the same
    # order. The test |d|^2 > 4 r^2 (1 + 1e-4) leaves fq below -5e-5 |d| r,
    # many orders of magnitude beyond its rounding error (about 1e-15 |d| in
    # the unit square, while r >= 5e-7 for seeds 1e-6 apart), so every clip
    # that could cut still runs, in the same order and on exactly the same
    # input as the all-pairs loop. r only shrinks as the cell is clipped, so
    # a test against an older, larger r keeps extra clips and is safe too.
    pts = seeds.tolist()
    cells = []
    for i, (sx, sy) in enumerate(pts):
        poly = list(_UNIT_SQUARE)
        bound = _REACH * _farthest2(poly, sx, sy)
        dist2 = ((seeds - seeds[i]) ** 2).sum(axis=1)
        # candidates: the seeds within reach of the cell's farthest vertex,
        # filtered again each time the bound halves; in between, a stale
        # candidate costs one scalar compare
        cand = np.flatnonzero(dist2 <= bound)
        refresh = 0.5 * bound
        k = 0
        while k < len(cand):
            j = cand[k]
            k += 1
            if j == i or dist2[j] > bound:
                continue
            tx, ty = pts[j]
            dx, dy = tx - sx, ty - sy
            mx, my = 0.5 * (sx + tx), 0.5 * (sy + ty)
            poly = _halfplane_clip(poly, dx, dy, dx * mx + dy * my)
            if len(poly) < 3:
                raise MeshGenerationError(
                    f"seed {i} produced an empty Voronoi cell"
                )
            bound = _REACH * _farthest2(poly, sx, sy)
            if bound < refresh:
                rest = cand[k:]
                cand = rest[dist2[rest] <= bound]
                k = 0
                refresh = 0.5 * bound
        cells.append(np.array(poly))
    return cells


def _farthest2(poly, sx, sy):
    return max((x - sx) * (x - sx) + (y - sy) * (y - sy) for x, y in poly)


def _weld(float_cells):
    # integer scale keeps 0 and 1 exactly representable after key / scale,
    # so the boundary test below can compare against 0.0 and 1.0 directly
    scale = round(1.0 / WELD_RESOLUTION)
    index: dict = {}
    verts = []
    cells = []
    for poly in float_cells:
        keys = [(int(round(p[0] * scale)), int(round(p[1] * scale))) for p in poly]
        loop = []
        for key in keys:
            if key not in index:
                index[key] = len(verts)
                verts.append((key[0] / scale, key[1] / scale))
            k = index[key]
            if not loop or loop[-1] != k:
                loop.append(k)
        while len(loop) > 1 and loop[0] == loop[-1]:
            loop.pop()
        if len(loop) < 3:
            raise MeshGenerationError("a Voronoi cell collapsed during welding")
        cells.append(tuple(loop))
    return np.array(verts), cells


def generate_voronoi(n_seeds: int, lloyd_iters: int = 0, seed: int = 0,
                     distortion: float = 0.0, points=None) -> PolyMesh:
    """Bounded Voronoi mesh of the unit square.

    Each cell comes from clipping the square against the perpendicular
    bisectors of the other seeds in ascending seed order. A bisector beyond
    the cell's farthest vertex (another seed more than twice that distance
    away) cannot cut the cell and is skipped, so the cells are bit for bit
    those of clipping against every seed pair, with about 40 to 70 clips per
    seed instead of n_seeds - 1; finding the candidates stays a vectorized
    O(n_seeds) pass per seed. The cells are optionally relaxed by Lloyd
    centroid sweeps, then distorted by moving each vertex off the square's
    sides a fraction of its shortest incident edge in a random direction.
    Inverted cells trigger halved displacements; repeated failure raises
    MeshGenerationError. At distortion 0 every move is zero and the first
    try builds the undistorted mesh. The boundary set is the one PolyMesh
    derives from the cells.

    Passing `points` (an (n, 2) array inside the open unit square) uses
    those seeds verbatim instead of drawing them, which pins the cell
    layout for reproducible fixtures; n_seeds must match its length.
    """
    if n_seeds < 1:
        raise MeshGenerationError(f"need at least one seed, got {n_seeds}")
    if lloyd_iters < 0:
        raise MeshGenerationError("lloyd_iters must be nonnegative")
    if not 0.0 <= distortion < 1.0:
        raise MeshGenerationError(f"distortion must lie in [0, 1), got {distortion}")
    rng = XorShift(seed)
    if points is not None:
        seeds = np.asarray(points, dtype=float)
        if seeds.shape != (n_seeds, 2):
            raise MeshGenerationError(
                f"points must have shape ({n_seeds}, 2), got {seeds.shape}")
        if not (np.all(seeds > 0.0) and np.all(seeds < 1.0)):
            raise MeshGenerationError("explicit seeds must lie inside the unit square")
        if _closest_pair_too_close(seeds) is not None:
            raise MeshGenerationError("explicit seeds are closer than 1e-6")
    else:
        seeds = np.array([[rng.random(), rng.random()] for _ in range(n_seeds)])
        for _ in range(100):
            close = _closest_pair_too_close(seeds)
            if close is None:
                break
            seeds[close] = [rng.random(), rng.random()]
        else:
            raise MeshGenerationError("could not separate duplicate seeds")

    float_cells = _voronoi_cells(seeds)
    for _ in range(lloyd_iters):
        seeds = _centroids(float_cells)
        float_cells = _voronoi_cells(seeds)

    verts, cells = _weld(float_cells)
    cells = tuple(cells)
    # the vertices on the square's sides, which distortion must not move
    fixed = ((verts == 0.0) | (verts == 1.0)).any(axis=1)
    min_edge = _shortest_edges(verts, cells)
    moves = np.zeros_like(verts)
    for i in np.flatnonzero(~fixed):
        phi = 2.0 * math.pi * rng.random()
        moves[i] = distortion * min_edge[i] * np.array([math.cos(phi),
                                                        math.sin(phi)])
    factor = 1.0
    for _ in range(20):
        try:
            mesh = PolyMesh(verts + factor * moves, cells)
            break
        except MeshTopologyError as exc:
            last = exc
        factor *= 0.5
    else:
        raise MeshGenerationError(
            "vertex distortion kept inverting cells after 20 halvings"
        ) from last

    _check_unit_area(mesh)
    return mesh


def _centroids(float_cells) -> np.ndarray:
    # the centroid of every (N, 2) cell, one polygon_stack per vertex count.
    # Co-circular seeds can leave a cell with a repeated vertex: the 0 / 0
    # of its zero-length edge's normal is not read here
    sizes = np.array([len(c) for c in float_cells])
    out = np.empty((len(float_cells), 2))
    with np.errstate(invalid="ignore"):
        for n in np.unique(sizes):
            ids = np.flatnonzero(sizes == n)
            out[ids] = polygon_stack(np.array([float_cells[i] for i in ids])).frame.center
    return out


def _shortest_edges(verts, cells) -> np.ndarray:
    # the length of the shortest edge at each vertex, inf at a vertex of no
    # cell
    a, b = _cell_edges(cells)
    d = verts[b] - verts[a]
    lengths = np.hypot(d[:, 0], d[:, 1])
    out = np.full(len(verts), np.inf)
    np.minimum.at(out, a, lengths)
    np.minimum.at(out, b, lengths)
    return out


def _closest_pair_too_close(seeds):
    # j of the first pair (i, j), i < j, in lexicographic order that is
    # closer than 1e-6
    for i in range(len(seeds) - 1):
        diff = seeds[i] - seeds[i + 1:]
        hits = np.flatnonzero(np.hypot(diff[:, 0], diff[:, 1]) < 1e-6)
        if hits.size:
            return i + 1 + int(hits[0])
    return None


def _check_unit_area(mesh: PolyMesh) -> None:
    total = sum(mesh.cell_areas().tolist())
    if abs(total - 1.0) > 1e-12:
        raise MeshGenerationError(
            f"cell areas sum to {total!r}, expected 1 within 1e-12"
        )


# ---------------------------------------------------------------------------
# audit catalog


def _regular_polygon(n: int) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(th), np.sin(th)])


def _star_polygon(n: int) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(n) / n
    r = np.where(np.arange(n) % 2 == 0, 1.0, 0.45)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _concave_polygon(n: int) -> np.ndarray:
    # pull the first vertex to 0.3 of its radius; for the square the chord
    # between its neighbors passes through the center, so pull through to
    # the other side to actually create a reflex angle
    V = _regular_polygon(n)
    V[0] *= 0.3 if n >= 5 else -0.3
    return V


def _irregular_polygon(n: int, seed: int = 1234) -> np.ndarray:
    rng = XorShift(seed + n)
    th = np.empty(n)
    r = np.empty(n)
    for i in range(n):
        th[i] = 2.0 * np.pi * i / n + 0.3 * (2.0 * np.pi / n) * (rng.random() - 0.5)
        r[i] = 1.0 + 0.25 * (2.0 * rng.random() - 1.0)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _hanging_polygon(n: int) -> np.ndarray:
    # split the first few edges of a smaller irregular polygon at their
    # midpoints, leaving collinear vertex triples (mesh hanging nodes)
    n_split = max(2, math.ceil(n / 4))
    base = _irregular_polygon(n - n_split, seed=77)
    out = []
    for i in range(len(base)):
        out.append(base[i])
        if i < n_split:
            out.append(0.5 * (base[i] + base[(i + 1) % len(base)]))
    return np.array(out)


def _collapsing_polygon(n: int) -> np.ndarray:
    V = _irregular_polygon(n, seed=99)
    d = polygon_stack(V[None]).frame.scale[0]
    mid = 0.5 * (V[0] + V[1])
    direction = (V[1] - V[0]) / np.hypot(*(V[1] - V[0]))
    V[0] = mid - 0.5e-3 * d * direction
    V[1] = mid + 0.5e-3 * d * direction
    return V


_CATALOG_RECIPES = {
    3: ("irregular", _irregular_polygon),
    4: ("concave", _concave_polygon),
    5: ("regular", _regular_polygon),
    6: ("hanging-nodes", _hanging_polygon),
    7: ("regular", _regular_polygon),
    8: ("star", _star_polygon),
    9: ("hanging-nodes", _hanging_polygon),
    10: ("regular", _regular_polygon),
    11: ("concave", _concave_polygon),
    12: ("star", _star_polygon),
    13: ("hanging-nodes", _hanging_polygon),
    14: ("irregular", _irregular_polygon),
    15: ("regular", _regular_polygon),
    16: ("hanging-nodes", _hanging_polygon),
    17: ("concave", _concave_polygon),
    18: ("collapsing-edge", _collapsing_polygon),
    19: ("regular", _regular_polygon),
    20: ("star", _star_polygon),
}


# built on import, so that no audit pays for it (about a millisecond)
_CATALOG = tuple(CatalogPolygon(name, recipe(n)) for n, (name, recipe) in _CATALOG_RECIPES.items())
for _polygon in _CATALOG:
    _polygon.vertices.setflags(write=False)


def catalog_polygons() -> tuple:
    """The 18 audit polygons, one per vertex count 3..20.

    Shapes cover regular, irregular, star, concave, hanging-node, and
    collapsing-edge geometry; all are simple and counterclockwise and are
    bit-reproducible (jitter comes from fixed xorshift seeds). Every call
    returns the same tuple, built once, whose vertex arrays are read only.
    """
    return _CATALOG


def quality_report(mesh: PolyMesh) -> MeshQualityReport:
    """Cell diameters, min-edge-to-diameter ratios, and their extremes."""
    diams = np.empty(mesh.n_cells)
    ratios = np.empty(mesh.n_cells)
    for cells, index in mesh.cell_groups():
        poly = polygon_stack(mesh.vertices[index])
        diams[cells] = poly.frame.scale
        ratios[cells] = poly.lengths.min(axis=1) / poly.frame.scale
    return MeshQualityReport(diams, ratios, float(diams.max()),
                             float(ratios.min()))
