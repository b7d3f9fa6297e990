import dataclasses

import numpy as np
import pytest

from sfvem.element import sfvem_local
from sfvem.errors import DegenerateElementError, SingularSystemError
from sfvem.mesh import PolyMesh, generate_distorted_grid
from sfvem.poly import Poly2, ProblemSpec, bubble_problem, poisson_problem
from sfvem.system import assemble, assemble_many, solve, write_solution_csv

from meshes import hanging_node_grid

ZERO = Poly2.zero()


def unit_square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return PolyMesh(verts, ((0, 1, 2, 3),))


def octagon_mesh():
    # one octagon ringed by eight boundary triangles, so the octagon's
    # vertices are interior and the cell count rule actually bites
    inner = np.array([[np.cos(t), np.sin(t)]
                      for t in 2.0 * np.pi * np.arange(8) / 8])
    outer = 2.0 * inner
    verts = np.vstack([inner, outer])
    cells = [tuple(range(8))]
    for k in range(8):
        a, b = k, (k + 1) % 8
        cells.append((a, 8 + a, 8 + b))
        cells.append((b, a, 8 + b))
    return PolyMesh(verts, tuple(cells))


# ---------------------------------------------------------------------------
# assembly


def test_all_dirichlet_mesh_gives_empty_system():
    system = assemble(unit_square_mesh(), poisson_problem())
    assert system.n_free == 0
    solution = solve(system)
    np.testing.assert_array_equal(solution.values, np.zeros(4))
    assert solution.residual == 0.0


def test_two_by_two_grid_single_dof_hand_assembly():
    mesh = generate_distorted_grid(2, delta=0.0)
    spec = poisson_problem()
    system = assemble(mesh, spec)
    assert system.n_free == 1
    # hand-assemble: sum the local (A, b) entries of the center vertex
    center = int(np.where(system.free_index >= 0)[0][0])
    a11, b1 = 0.0, 0.0
    for ci, cell in enumerate(mesh.cells):
        if center not in cell:
            continue
        local = sfvem_local(mesh.cell_points(ci), spec, ell=1)
        k = cell.index(center)
        a11 += local.A[k, k]
        b1 += local.b[k]
    assert system.matrix.toarray()[0, 0] == pytest.approx(a11, rel=1e-14)
    assert system.rhs[0] == pytest.approx(b1, rel=1e-14)
    solution = solve(system)
    assert solution.values[center] == pytest.approx(b1 / a11, rel=1e-13)


def test_system_size_is_interior_count():
    mesh = generate_distorted_grid(5, delta=0.2, seed=3)
    system = assemble(mesh, poisson_problem())
    assert system.n_free == mesh.n_vertices - len(mesh.boundary_vertices)
    assert system.matrix.shape == (16, 16)


def test_advection_free_sfvem_matrix_symmetric():
    mesh = generate_distorted_grid(4, delta=0.3, seed=42)
    spec = bubble_problem()  # K = I, beta = 0, gamma = 0
    system = assemble(mesh, spec)
    A = system.matrix.toarray()
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()


def test_method_validation():
    with pytest.raises(ValueError, match="method"):
        assemble(unit_square_mesh(), poisson_problem(), method="fem")


@pytest.mark.parametrize("methods", [("sfvem", "fem"), ("vem", "vem"),
                                     ("sfvem", "SFVEM")])
def test_assemble_many_rejects_bad_methods(methods):
    with pytest.raises(ValueError, match="method"):
        assemble_many(unit_square_mesh(), poisson_problem(), methods)


def test_assemble_many_rejects_a_bare_method_string():
    # a string is not iterated letter by letter
    with pytest.raises(ValueError, match="^methods must be a sequence .* 'vem'"):
        assemble_many(unit_square_mesh(), poisson_problem(), "vem")


def test_assemble_rejects_a_non_integer_offset():
    # named where the offset enters, not a TypeError from the Gauss rule
    with pytest.raises(ValueError, match="^ell offset must be an integer, got 0.5"):
        assemble(unit_square_mesh(), poisson_problem(), ell_offset=0.5)


def test_assemble_many_rejects_no_methods():
    # no cell is built for a result that would be empty
    with pytest.raises(ValueError, match="^methods must name at least one"):
        assemble_many(unit_square_mesh(), poisson_problem(), ())


def test_element_errors_carry_element_id():
    # a sliver passes mesh validation but not the element area check
    mesh = PolyMesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]], ((0, 1, 2),))
    for method in ("sfvem", "vem"):
        with pytest.raises(DegenerateElementError, match="element 0"):
            assemble(mesh, poisson_problem(), method=method)


def test_permuting_elements_preserves_solution():
    mesh = generate_distorted_grid(4, delta=0.25, seed=8)
    permuted = PolyMesh(mesh.vertices, tuple(mesh.cells[::-1]))
    spec = bubble_problem()
    a = solve(assemble(mesh, spec))
    b = solve(assemble(permuted, spec))
    assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(a.values).max()


# ---------------------------------------------------------------------------
# solve


def test_poisson_residual_small():
    mesh = generate_distorted_grid(8, delta=0.3, seed=42)
    solution = solve(assemble(mesh, poisson_problem()))
    assert solution.residual <= 1e-10


def test_zero_rhs_gives_zero_solution():
    spec = ProblemSpec(K=np.eye(2), beta=(ZERO, ZERO), gamma=ZERO, f=ZERO)
    mesh = generate_distorted_grid(4, delta=0.2, seed=5)
    solution = solve(assemble(mesh, spec))
    np.testing.assert_array_equal(solution.values, np.zeros(mesh.n_vertices))


def test_interior_positivity_smoke():
    # nonnegative source, Poisson: interior values stay nonnegative on the
    # uniform grid (observed property, not a method guarantee)
    mesh = generate_distorted_grid(6, delta=0.0)
    solution = solve(assemble(mesh, poisson_problem()))
    assert solution.values.min() >= -1e-10


def test_forcing_ell_zero_on_octagon_detects_rank_loss():
    # ell = 0 on an 8-gon violates 2*ell + 2 >= N - 1; the reduced system
    # may or may not be exactly singular, so accept either a raised
    # SingularSystemError or a successful (well-posed) solve
    mesh = octagon_mesh()
    spec = poisson_problem()
    try:
        solution = solve(assemble(mesh, spec, ell_offset=-10))
    except SingularSystemError as exc:
        assert "pivot" in str(exc) or "rank deficient" in str(exc)
    else:
        assert np.isfinite(solution.values).all()
    # at the rule-compliant degree the same mesh must solve cleanly
    ok = solve(assemble(mesh, spec))
    assert np.isfinite(ok.values).all()
    assert ok.residual <= 1e-10


def test_singular_error_names_pivot():
    # assemble a legitimate system, then zero out the matrix to force the
    # factorization into the degenerate branch
    mesh = generate_distorted_grid(3, delta=0.0)
    system = assemble(mesh, poisson_problem())
    import scipy.sparse as sparse
    from sfvem.system import GlobalSystem
    broken = GlobalSystem(sparse.csr_matrix(system.matrix.shape),
                          system.rhs, system.free_index, system.method,
                          system.mesh, system.ell_by_cell,
                          system.boundary_values)
    with pytest.raises(SingularSystemError):
        solve(broken)


def test_dirichlet_lift_patch_test():
    # linear exact solution, inhomogeneous boundary data from it: both
    # methods must reproduce it at every node (patch test)
    g = np.array([0.75, -0.3])
    spec = ProblemSpec(K=np.array([[2.0, 0.5], [0.5, 1.0]]),
                       beta=(ZERO, ZERO), gamma=ZERO, f=ZERO)
    # the hanging-node grid's corner hexagon is not star shaped about its
    # vertex average
    for mesh in (generate_distorted_grid(5, delta=0.3, seed=11), hanging_node_grid()):
        exact = mesh.vertices @ g + 0.25
        for method in ("sfvem", "vem"):
            system = assemble(mesh, spec, method=method, dirichlet_values=exact)
            solution = solve(system)
            assert np.abs(solution.values - exact).max() <= 1e-10, method


def test_dirichlet_values_shape_checked():
    mesh = unit_square_mesh()
    with pytest.raises(ValueError, match="shape"):
        assemble(mesh, poisson_problem(), dirichlet_values=np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dirichlet_value_names_its_vertex(bad):
    # a boundary value that is not finite would give a NaN solution with a
    # NaN residual; one at an interior vertex is not read
    mesh = generate_distorted_grid(4, 0.2, 1)
    boundary = sorted(mesh.boundary_vertices)
    interior = next(v for v in range(mesh.n_vertices) if v not in mesh.boundary_vertices)
    values = np.zeros(mesh.n_vertices)
    values[interior] = bad
    assert np.isfinite(solve(assemble(mesh, bubble_problem(), dirichlet_values=values)).values).all()
    values[[boundary[3], boundary[5]]] = bad
    with pytest.raises(ValueError, match=f"boundary vertex {boundary[3]} is {bad}"):
        assemble_many(mesh, bubble_problem(), dirichlet_values=values)


def test_non_finite_solution_is_singular():
    mesh = generate_distorted_grid(4, 0.2, 1)
    system = assemble(mesh, bubble_problem())
    rhs = system.rhs.copy()
    rhs[2] = np.nan
    with pytest.raises(SingularSystemError, match="non-finite"):
        solve(dataclasses.replace(system, rhs=rhs))


def test_vem_and_sfvem_agree_on_patch_test_but_not_generally():
    mesh = generate_distorted_grid(4, delta=0.3, seed=2)
    spec = bubble_problem()
    a = solve(assemble(mesh, spec, method="sfvem"))
    b = solve(assemble(mesh, spec, method="vem"))
    # same problem, different discretizations: close but not identical
    scale = np.abs(a.values).max()
    assert np.abs(a.values - b.values).max() > 1e-12 * scale
    assert np.abs(a.values - b.values).max() < 0.5 * scale


def test_ell_by_cell_recorded():
    mesh = octagon_mesh()
    system = assemble(mesh, poisson_problem())
    assert system.ell_by_cell[0] == 3  # octagon
    assert set(system.ell_by_cell[1:]) == {0}  # triangles


# ---------------------------------------------------------------------------
# CSV export


def test_solution_csv_format(tmp_path):
    mesh = generate_distorted_grid(16, delta=0.3, seed=42)
    solution = solve(assemble(mesh, poisson_problem()))
    path = tmp_path / "solution.csv"
    write_solution_csv(solution, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex_index,x,y,u_h"
    assert len(lines) == 1 + 17 * 17
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[1]) == mesh.vertices[0, 0]
    assert float(fields[3]) == solution.values[0]
    # full precision round-trips
    for i in (1, 40, 288):
        fields = lines[1 + i].split(",")
        assert float(fields[3]) == solution.values[i]
