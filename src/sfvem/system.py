"""Global assembly, Dirichlet elimination, and the sparse direct solve.

Boundary conditions are imposed by row/column elimination (not penalty
terms) so the spectrum of the reduced matrix stays meaningful for the
stability audit. The solve is a sparse LU: the benchmark's 1e-9
anisotropy ratio produces conditioning that unpreconditioned iterative
methods cannot handle, and the problem sizes here make direct solves
cheap anyway.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .element import (cell_chunks, cell_data, effective_ell, sfvem_locals,
                      standard_vem_locals, volume_degree)
# not called here; the benchmark's tracer re-binds them by this module's name
from .element import sfvem_local, standard_vem_local  # noqa: F401
from .errors import SfvemError, SingularSystemError
from .geometry import polygon_stack
from .mesh import PolyMesh
from .problem import ProblemSpec

log = logging.getLogger(__name__)

METHODS = ("sfvem", "vem")


@dataclass(frozen=True)
class GlobalSystem:
    """Reduced linear system over the free (interior) vertices."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    free_index: np.ndarray  # vertex -> reduced index, -1 on the boundary
    method: str
    mesh: PolyMesh
    ell_by_cell: np.ndarray
    boundary_values: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class DiscreteSolution:
    """Nodal values at every mesh vertex; Dirichlet nodes carry their data."""

    values: np.ndarray
    mesh: PolyMesh
    ell_by_cell: np.ndarray
    method: str
    residual: float


def check_methods(methods) -> tuple:
    """The method names lower-cased, each one of METHODS and none repeated."""
    names = tuple(m.lower() for m in methods)
    for name in names:
        if name not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"methods must not repeat, got {names}")
    return names


def assemble(mesh: PolyMesh, spec: ProblemSpec, method: str = "sfvem",
             ell_offset: int = 0,
             dirichlet_values: np.ndarray | None = None) -> GlobalSystem:
    """Scatter-add the local matrices of every cell into a reduced system.

    Parameters
    ----------
    mesh : PolyMesh
    spec : ProblemSpec
    method : {"sfvem", "vem"}
    ell_offset : int
        Added to the per-cell minimal degree rule; negative values probe
        below the solvability bound (clamped at 0).
    dirichlet_values : array, optional
        Per-vertex Dirichlet data (used at boundary vertices only);
        defaults to homogeneous zero. Nonzero data lifts into the RHS.
    """
    (system,) = assemble_many(mesh, spec, (method,), ell_offset,
                              dirichlet_values).values()
    return system


def assemble_many(mesh: PolyMesh, spec: ProblemSpec, methods=METHODS,
                  ell_offset: int = 0,
                  dirichlet_values: np.ndarray | None = None) -> dict:
    """The systems of several methods on one mesh, in one pass over the cells.

    The cells are built in stacks of one vertex count (element.cell_chunks).
    Each stack's frames, projections, polygon rules and data integrals are
    built once per rule degree and shared by the methods that integrate at
    it. The COO entries keep cell order and each cell's row-major order, and
    the right-hand side adds the cells' loads in cell order, so every system
    equals what ``assemble`` returns for its method alone. Returns
    {method: GlobalSystem} in the order of ``methods``; the other parameters
    are those of ``assemble``.
    """
    methods = check_methods(methods)
    nv = mesh.n_vertices
    boundary = np.zeros(nv, dtype=bool)
    boundary[list(mesh.boundary_vertices)] = True
    g = np.zeros(nv)
    if dirichlet_values is not None:
        data = np.asarray(dirichlet_values, dtype=float)
        if data.shape != (nv,):
            raise ValueError(f"dirichlet_values must have shape ({nv},)")
        g[boundary] = data[boundary]

    n_free = nv - int(boundary.sum())
    free_index = np.full(nv, -1, dtype=int)
    free_index[~boundary] = np.arange(n_free)

    # the rule degree of each ell, worked out once per mesh, not per cell
    degrees = {ell: volume_degree(spec, ell) for ell in
               {0} | {effective_ell(len(cell), ell_offset) for cell in mesh.cells}}

    # each cell's free-free block is n_free_c^2 row-major COO entries and its
    # load n_free_c rhs entries, laid out in cell order; the index arrays
    # depend on the mesh only, each method's values get their own arrays
    n_inner = np.array([int((~boundary[list(cell)]).sum()) for cell in mesh.cells])
    entry_start = np.concatenate([[0], np.cumsum(n_inner ** 2)])
    load_start = np.concatenate([[0], np.cumsum(n_inner)])
    rows = np.empty(entry_start[-1], dtype=int)
    cols = np.empty(entry_start[-1], dtype=int)
    load_rows = np.empty(load_start[-1], dtype=int)
    vals = {m: np.empty(entry_start[-1]) for m in methods}
    loads = {m: np.empty(load_start[-1]) for m in methods}
    ell_by_cell = {m: np.zeros(mesh.n_cells, dtype=int) for m in methods}
    # the largest temporary of a build: the harmonic gradients at the rule
    # points, 2 ell + 2 basis functions by 2 components
    chunks = cell_chunks(mesh, max(degrees.values()),
                         lambda n: 2 * (2 * effective_ell(n, ell_offset) + 2))
    for cells, index, vertices in chunks:
        ell = effective_ell(index.shape[1], ell_offset)
        try:
            local = _local_matrices(vertices, spec, methods, ell, degrees)
        except SfvemError as exc:
            if exc.index is None:
                raise
            raise type(exc)(f"element {cells[exc.index]}: {exc}") from exc
        red = free_index[index]
        inner = red >= 0
        block = inner[:, :, None] & inner[:, None, :]
        entries = _spans(entry_start[cells], n_inner[cells] ** 2)
        rows[entries] = np.broadcast_to(red[:, :, None], block.shape)[block]
        cols[entries] = np.broadcast_to(red[:, None, :], block.shape)[block]
        load = _spans(load_start[cells], n_inner[cells])
        load_rows[load] = red[inner]
        for m, loc in zip(methods, local):
            ell_by_cell[m][cells] = loc.ell
            A = loc.A
            vals[m][entries] = A[block]
            loads[m][load] = _lifted_load(A, loc.b, inner, g[index])
    out = {}
    for m in methods:
        matrix = sparse.coo_matrix((vals[m], (rows, cols)),
                                   shape=(n_free, n_free)).tocsr()
        # bincount adds each row's entries in order: the cells' order
        rhs = np.bincount(load_rows, weights=loads[m], minlength=n_free)
        out[m] = GlobalSystem(matrix, rhs, free_index, m, mesh,
                              ell_by_cell[m], g)
    return out


def _spans(starts, counts) -> np.ndarray:
    # the positions starts[i] .. starts[i] + counts[i] - 1, concatenated
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def _lifted_load(A, b, inner, g) -> np.ndarray:
    # each cell's b[inner] - A[inner][:, ~inner] @ g[~inner], concatenated:
    # the free-boundary block lifts the Dirichlet data into the rhs. The
    # products are stacked per boundary-vertex count, so each is the BLAS
    # call of its cell's own product, whose (n_inner, n_boundary) block
    # indexing leaves column-major
    out = b.copy()
    n_vertices = inner.shape[1]
    n_boundary = n_vertices - inner.sum(axis=1)
    for k in np.unique(n_boundary[(n_boundary > 0) & (n_boundary < n_vertices)]):
        sel = np.flatnonzero(n_boundary == k)
        inn = inner[sel]
        coupling = A[sel].transpose(0, 2, 1)[~inn[:, :, None] & inn[:, None, :]]
        coupling = coupling.reshape(len(sel), k, n_vertices - k).transpose(0, 2, 1)
        lift = coupling @ g[sel][~inn].reshape(len(sel), k, 1)
        part = out[sel]
        part[inn] = part[inn] - lift.ravel()
        out[sel] = part
    return out[inner]


def _local_matrices(vertices, spec, methods, ell, degrees) -> list:
    # each method's local matrices on a stack of cells, sfvem at ell and vem
    # at 0, from one geometry stack and one CellData per rule degree
    poly = polygon_stack(vertices)
    records: dict = {}
    out = []
    for method in methods:
        method_ell = ell if method == "sfvem" else 0
        degree = degrees[method_ell]
        if degree not in records:
            records[degree] = cell_data(poly, spec, degree)
        if method == "sfvem":
            out.append(sfvem_locals(records[degree], spec, ell))
        else:
            out.append(standard_vem_locals(records[degree], spec))
    return out


def solve(system: GlobalSystem) -> DiscreteSolution:
    """Sparse LU solve of the reduced system, scattered back to the mesh.

    Raises SingularSystemError with the smallest pivot when the
    factorization degenerates; that is the symptom of running below the
    vertex-count degree rule or of a degenerate mesh.
    """
    values = system.boundary_values.copy()
    if system.n_free == 0:
        return DiscreteSolution(values, system.mesh, system.ell_by_cell,
                                system.method, 0.0)
    try:
        lu = spla.splu(system.matrix.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse factorization failed ({exc}); the discrete form is "
            f"rank deficient: check that ell meets the vertex-count rule "
            f"and that the mesh has no degenerate cells"
        ) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= 1e-14 * pivots.max():
        raise SingularSystemError(
            f"system is numerically singular (smallest pivot "
            f"{pivots.min():.3e} vs largest {pivots.max():.3e}); "
            f"check that ell meets the vertex-count rule and that the "
            f"mesh has no degenerate cells"
        )
    x = lu.solve(system.rhs)
    bnorm = np.linalg.norm(system.rhs)
    rnorm = np.linalg.norm(system.matrix @ x - system.rhs)
    residual = rnorm / bnorm if bnorm > 0.0 else rnorm
    if residual > 1e-10:
        log.warning("solver residual %.3e exceeds 1e-10", residual)
    free = system.free_index >= 0
    values[free] = x[system.free_index[free]]
    return DiscreteSolution(values, system.mesh, system.ell_by_cell,
                            system.method, float(residual))


def write_solution_csv(solution: DiscreteSolution, path) -> None:
    """Export `vertex_index,x,y,u_h` rows in full precision."""
    mesh = solution.mesh
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vertex_index,x,y,u_h\n")
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(f"{i},{x:.16e},{y:.16e},{solution.values[i]:.16e}\n")
