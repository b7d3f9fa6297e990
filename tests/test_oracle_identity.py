"""The per-polygon geometry record against the one-quantity functions it
replaced, the array-level element kernels against their edge-by-edge and
triangle-by-triangle loop versions in ``oracles``, the stacked kernels
against the same loops cell by cell, the Voronoi generator's skipping
clip loop against the all-pairs loop, and the shared chunked passes of
assembly and error norms against one method and one solution at a time.

The loops perform the same floating-point operations per entry, so the
comparison is exact equality, not a tolerance: the benchmark's degree-33
load amplifies any change in the quadrature points or weights far beyond
its reference tolerance.
"""
import numpy as np
import pytest

import sfvem.mesh
from sfvem.analysis import error_norms_many, unit_diffusion_matrix
from sfvem.element import (EINSUM_BLOCK, _einsum_sum, cell_data, effective_ell,
                           sfvem_local, sfvem_locals, standard_vem_local,
                           standard_vem_locals, volume_degree)
from sfvem.errors import DegenerateElementError
from sfvem.geometry import diameter, polygon_geometry, polygon_stack, signed_area
from sfvem.mesh import (PolyMesh, _closest_pair_too_close, _halfplane_clip,
                        _voronoi_cells, catalog_polygons, generate_distorted_grid,
                        generate_voronoi)
from sfvem.poly import (ScaledFrame, build_benchmark_coefficients, bubble_problem,
                        harmonic_basis)
from sfvem.projectors import (hgrad_matrices, hgrad_matrix, nabla_matrices,
                              nabla_matrix, pi0_row, pi0_rows)
from sfvem.quadrature import _fan_triangles, polygon_rule, polygon_rules
from sfvem.system import assemble, assemble_many, solve

from oracles import (array_halfplane_clip, centroid, edge_lengths_normals,
                     first_moments, loop_assemble, loop_closest_pair,
                     loop_error_norms, loop_hgrad_matrix, loop_nabla_matrix,
                     loop_poly2_eval, loop_polygon_rule, loop_sfvem_local,
                     loop_vem_local, loop_voronoi_cells)

# thin U whose vertex average falls outside it: the only ear-clip case here,
# since every catalog polygon and mesh cell is star shaped about its average
USHAPE = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.6, 3.0],
                   [2.6, 0.4], [0.4, 0.4], [0.4, 3.0], [0.0, 3.0]])


def _cells(mesh):
    return [mesh.cell_points(ci) for ci in range(mesh.n_cells)]


@pytest.fixture(scope="module")
def polygons():
    return ([p.vertices for p in catalog_polygons()] + [USHAPE]
            + _cells(generate_distorted_grid(8))
            + _cells(generate_voronoi(64, 3, 7, 0.25)))


def test_ear_clip_branch_covered(polygons):
    assert sum(_fan_triangles(v) is None for v in polygons) >= 1


@pytest.mark.parametrize("degree", [0, 1, 2, 33, 36])
def test_polygon_rule_matches_per_triangle_loop(polygons, degree):
    for i, v in enumerate(polygons):
        rule = polygon_rule(v, degree)
        pts, wts = loop_polygon_rule(v, degree)
        assert np.array_equal(rule.points, pts), i
        assert np.array_equal(rule.weights, wts), i


def test_polygon_geometry_matches_reference_functions(polygons):
    # one roll and one shoelace pass give the one-quantity functions' floats
    for i, v in enumerate(polygons):
        poly = polygon_geometry(v)
        edges, lengths, normals = edge_lengths_normals(v)
        assert np.array_equal(poly.vertices, v), i
        assert np.array_equal(poly.edges, edges), i
        assert np.array_equal(poly.lengths, lengths), i
        assert np.array_equal(poly.normals, normals), i
        assert poly.area == signed_area(v), i
        assert poly.moments == first_moments(v), i
        assert np.array_equal(poly.centroid, centroid(v)), i
        assert poly.diameter == diameter(v), i
        assert np.array_equal(poly.frame.center, centroid(v)), i
        assert poly.frame.scale == diameter(v), i


def test_nabla_matrix_matches_edge_loop(polygons):
    for i, v in enumerate(polygons):
        poly = polygon_geometry(v)
        frame = ScaledFrame(centroid(v), diameter(v))
        assert np.array_equal(nabla_matrix(poly), loop_nabla_matrix(v, frame)), i


def test_hgrad_matrix_matches_edge_loop(polygons):
    for i, v in enumerate(polygons):
        poly = polygon_geometry(v)
        for offset in (-1, 0, 2):
            basis = harmonic_basis(poly.frame, effective_ell(len(v), offset))
            P, G = hgrad_matrix(poly, basis)
            P_loop, G_loop = loop_hgrad_matrix(v, basis)
            assert np.array_equal(G, G_loop), (i, offset)
            assert np.array_equal(P, P_loop), (i, offset)


def _seed_sets():
    rng = np.random.default_rng(20231)
    sets = {f"random{n}": rng.random((n, 2)) for n in (1, 2, 3, 16, 64, 256)}
    # co-circular ties: four seeds share every interior lattice vertex
    g = (np.arange(8) + 0.5) / 8
    sets["lattice8x8"] = np.array([[x, y] for y in g for x in g])
    sets["cluster"] = np.vstack([0.5 + 1e-3 * (rng.random((24, 2)) - 0.5),
                                 rng.random((40, 2))])
    sets["collinear"] = np.column_stack([np.linspace(0.01, 0.99, 50),
                                         np.full(50, 0.3)])
    return sets


@pytest.mark.parametrize("name, seeds", _seed_sets().items())
def test_voronoi_cells_match_all_pairs_loop(name, seeds):
    cells = _voronoi_cells(seeds)
    oracle = loop_voronoi_cells(seeds)
    assert len(cells) == len(oracle) == len(seeds)
    for i, (cell, ref) in enumerate(zip(cells, oracle)):
        assert np.array_equal(cell, ref), (name, i)


@pytest.mark.parametrize("args, points", [
    ((64, 3, 7, 0.25), None),
    ((256, 3, 1, 0.25), None),
    ((256, 3, 12, 0.0), None),
    ((5, 2, 0, 0.2), [[0.1, 0.1], [0.9, 0.2], [0.5, 0.5], [0.2, 0.8], [0.7, 0.9]]),
])
def test_generate_voronoi_matches_all_pairs_loop(monkeypatch, args, points):
    mesh = generate_voronoi(*args, points=points)
    monkeypatch.setattr(sfvem.mesh, "_voronoi_cells", loop_voronoi_cells)
    monkeypatch.setattr(sfvem.mesh, "_closest_pair_too_close", loop_closest_pair)
    oracle = generate_voronoi(*args, points=points)
    assert np.array_equal(mesh.vertices, oracle.vertices)
    assert mesh.cells == oracle.cells
    assert mesh.boundary_vertices == oracle.boundary_vertices


def _planted(n, pairs, seed=3):
    seeds = np.random.default_rng(seed).random((n, 2))
    for i, j in pairs:
        seeds[j] = seeds[i] + [3e-7, -4e-7]
    return seeds


@pytest.mark.parametrize("seeds, first", [
    (_planted(1, []), None), (_planted(2, []), None), (_planted(200, []), None),
    (_planted(2, [(0, 1)]), 1), (_planted(50, [(0, 49)]), 49),
    (_planted(50, [(48, 49)]), 49), (_planted(50, [(10, 11)]), 11),
    (_planted(50, [(30, 5)]), 30), (_planted(50, [(20, 40), (7, 45)]), 45),
    (_planted(50, [(3, 30), (3, 12)]), 12),
    (np.array([[0.5, 0.5], [0.2, 0.2], [0.5, 0.5]]), 2),
])
def test_closest_pair_matches_pair_loop(seeds, first):
    assert loop_closest_pair(seeds) == first
    assert _closest_pair_too_close(seeds) == first


def test_tuple_clip_matches_array_clip():
    # random polygons and lines through their bounding box, so most clips cut
    rng = np.random.default_rng(11)
    cuts = 0
    for _ in range(400):
        n = int(rng.integers(3, 12))
        theta = np.sort(rng.random(n)) * 2.0 * np.pi
        pts = 0.5 + 0.4 * rng.random((n, 1)) * np.column_stack(
            [np.cos(theta), np.sin(theta)])
        nx, ny = rng.normal(size=2)
        c = float(np.array([nx, ny]) @ pts[int(rng.integers(n))]) + 0.1 * rng.normal()
        out = _halfplane_clip([tuple(p) for p in pts.tolist()], nx, ny, c)
        ref = array_halfplane_clip(list(pts), np.float64(nx), np.float64(ny),
                                   np.float64(c))
        assert np.array_equal(np.array(out).reshape(-1, 2),
                              np.array(ref).reshape(-1, 2))
        cuts += len(out) != n
    assert cuts > 100


PROBLEMS = {"benchmark": build_benchmark_coefficients(), "bubble": bubble_problem()}
MESHES = {
    "grid8": lambda: generate_distorted_grid(8, 0.3, 5),
    "grid16": lambda: generate_distorted_grid(16, 0.3, 2),
    "voronoi64": lambda: generate_voronoi(64, 3, 7, 0.25),
    "voronoi256": lambda: generate_voronoi(256, 3, 1, 0.25),
}


def _same_local(a, b):
    return (a.ell == b.ell and all(np.array_equal(getattr(a, f), getattr(b, f))
                                   for f in ("A_diff", "A_adv", "A_reac", "b", "pi0")))


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_local_builders_match_standalone_build(problem):
    # with no record and with one built at their degree
    spec = PROBLEMS[problem]
    for i, v in enumerate([p.vertices for p in catalog_polygons()] + [USHAPE]):
        for offset in (0, 1):
            ell = effective_ell(len(v), offset)
            ref = loop_sfvem_local(v, spec, ell)
            for data in (None, cell_data(polygon_geometry(v), spec,
                                         volume_degree(spec, ell))):
                assert _same_local(sfvem_local(v, spec, ell, data), ref), (i, offset)
        ref = loop_vem_local(v, spec)
        for data in (None, cell_data(polygon_geometry(v), spec, volume_degree(spec, 0))):
            assert _same_local(standard_vem_local(v, spec, data), ref), i


@pytest.mark.parametrize("mesh_name, problem, ell_offset, dirichlet", [
    ("grid8", "benchmark", 0, False),
    ("grid8", "benchmark", 1, True),
    ("grid8", "bubble", 1, False),
    ("grid16", "benchmark", 0, True),
    ("grid16", "bubble", 1, True),
    ("voronoi64", "benchmark", 0, False),
    ("voronoi64", "benchmark", 1, True),
    ("voronoi64", "bubble", 0, True),
    ("voronoi64", "bubble", 1, False),
    ("voronoi256", "benchmark", 0, True),
    ("voronoi256", "bubble", 1, False),
])
def test_shared_passes_match_one_method_at_a_time(mesh_name, problem, ell_offset,
                                                  dirichlet):
    mesh, spec = MESHES[mesh_name](), PROBLEMS[problem]
    if problem == "bubble" and ell_offset == 1:
        # quads and larger cells need a second, higher rule degree than vem's
        assert any(volume_degree(spec, effective_ell(len(c), 1)) != volume_degree(spec, 0)
                   for c in mesh.cells)
    g = np.random.default_rng(4).random(mesh.n_vertices) if dirichlet else None
    ref = {m: loop_assemble(mesh, spec, m, ell_offset, g) for m in ("sfvem", "vem")}
    ref_errors = {m: loop_error_norms(solve(ref[m]), spec) for m in ref}
    # each order on the small meshes; the large ones only add cell shapes
    orders = [("vem", "sfvem")] + ([("sfvem",), ("vem",)] if mesh.n_cells <= 64 else [])
    for methods in orders:
        systems = assemble_many(mesh, spec, methods, ell_offset, g)
        assert tuple(systems) == methods
        for m, system in systems.items():
            a, b = system.matrix, ref[m].matrix
            assert system.method == m
            assert np.array_equal(a.data, b.data), (methods, m)
            assert np.array_equal(a.indices, b.indices), (methods, m)
            assert np.array_equal(a.indptr, b.indptr), (methods, m)
            assert np.array_equal(system.rhs, ref[m].rhs), (methods, m)
            assert np.array_equal(system.ell_by_cell, ref[m].ell_by_cell), (methods, m)
        errors = error_norms_many([solve(s) for s in systems.values()], spec)
        assert errors == [ref_errors[m] for m in methods], methods


# ---------------------------------------------------------------------------
# stacked kernels, cell by cell against the loops


def _stacks(polygons):
    # the polygons stacked by vertex count and triangulation kind, the way
    # the passes stack mesh cells
    groups: dict = {}
    for v in polygons:
        groups.setdefault((len(v), _fan_triangles(v) is None), []).append(v)
    return [np.array(g) for g in groups.values()]


def test_stacks_cover_both_kinds(polygons):
    stacks = _stacks(polygons)
    assert any(len(s) > 1 for s in stacks)
    assert any(_fan_triangles(s[0]) is None for s in stacks)


def test_polygon_stack_matches_reference_functions(polygons):
    for stack in _stacks(polygons):
        poly = polygon_stack(stack)
        for i, v in enumerate(stack):
            edges, lengths, normals = edge_lengths_normals(v)
            assert np.array_equal(poly.edges[i], edges)
            assert np.array_equal(poly.lengths[i], lengths)
            assert np.array_equal(poly.normals[i], normals)
            assert poly.area[i] == signed_area(v)
            assert tuple(poly.moments[i]) == first_moments(v)
            assert np.array_equal(poly.centroid[i], centroid(v))
            assert poly.diameter[i] == diameter(v)
            assert np.array_equal(poly.frame.center[i], centroid(v))
            assert poly.frame.scale[i] == diameter(v)


@pytest.mark.parametrize("degree", [2, 33, 36])
def test_polygon_rules_match_per_triangle_loop(polygons, degree):
    for stack in _stacks(polygons):
        rule = polygon_rules(stack, degree)
        for i, v in enumerate(stack):
            pts, wts = loop_polygon_rule(v, degree)
            assert np.array_equal(rule.points[i], pts)
            assert np.array_equal(rule.weights[i], wts)


def test_polygon_rules_refuse_a_mixed_stack():
    dart = np.array([[0.0, 0.0], [1.0, 0.9], [2.0, 0.0], [1.0, 1.0]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert _fan_triangles(dart) is None
    with pytest.raises(ValueError, match="one triangulation kind"):
        polygon_rules(np.array([square, dart]), 2)


def test_stacked_projectors_match_edge_loops(polygons):
    for stack in _stacks(polygons):
        poly = polygon_stack(stack)
        nabla = nabla_matrices(poly)
        rows = pi0_rows(poly, nabla)
        for offset in (-1, 0, 2):
            basis = harmonic_basis(poly.frame, effective_ell(stack.shape[1], offset))
            P, G = hgrad_matrices(poly, basis)
            for i, v in enumerate(stack):
                frame = ScaledFrame(centroid(v), diameter(v))
                P_loop, G_loop = loop_hgrad_matrix(v, harmonic_basis(frame, basis.ell))
                assert np.array_equal(G[i], G_loop), (i, offset)
                assert np.array_equal(P[i], P_loop), (i, offset)
        for i, v in enumerate(stack):
            frame = ScaledFrame(centroid(v), diameter(v))
            assert np.array_equal(nabla[i], loop_nabla_matrix(v, frame))
            one = polygon_geometry(v)
            assert np.array_equal(rows[i], pi0_row(one, nabla_matrix(one)))


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_stacked_builders_match_standalone_build(polygons, problem):
    spec = PROBLEMS[problem]
    for stack in _stacks(polygons):
        poly = polygon_stack(stack)
        for offset in (0, 1):
            ell = effective_ell(stack.shape[1], offset)
            local = sfvem_locals(cell_data(poly, spec, volume_degree(spec, ell)),
                                 spec, ell)
            for i, v in enumerate(stack):
                assert _same_local(local.cell(i), loop_sfvem_local(v, spec, ell)), i
        local = standard_vem_locals(cell_data(poly, spec, volume_degree(spec, 0)), spec)
        for i, v in enumerate(stack):
            assert _same_local(local.cell(i), loop_vem_local(v, spec)), i


@pytest.mark.parametrize("degree", [33, 36])
def test_poly2_on_stacked_points_matches_loop_eval(degree):
    # the benchmark's data at every grid-16 rule point in one call, against
    # one loop evaluation per cell
    spec = build_benchmark_coefficients()
    mesh = MESHES["grid16"]()
    rules = [polygon_rule(mesh.cell_points(ci), degree).points
             for ci in range(mesh.n_cells)]
    points = np.concatenate(rules)
    for p in (*spec.beta, spec.gamma, spec.f, spec.exact_u, *spec.exact_grad_u):
        want = np.concatenate([loop_poly2_eval(p, pts) for pts in rules])
        assert np.array_equal(p(points), want)


@pytest.mark.parametrize("size, n_points", [(2, 7), (4, 1224), (6, 4100), (3, 9000)])
def test_einsum_sum_matches_einsum(size, n_points):
    # the volume integrals' sums against the einsum calls they replace, on
    # sums shorter and longer than einsum's buffer (2 n_points terms each)
    rng = np.random.default_rng(size)
    grads = rng.standard_normal((size, n_points, 2))
    other = rng.standard_normal((size, n_points, 2))
    beta = rng.standard_normal((n_points, 2))
    w = rng.standard_normal(n_points)
    w2 = np.repeat(w, 2)
    g = grads.reshape(1, size, -1)
    assert (2 * n_points > EINSUM_BLOCK) == (n_points > 4096)
    t = _einsum_sum(g * beta.reshape(1, 1, -1) * w2)[0]
    assert np.array_equal(t, np.einsum("iqa,qa,q->i", grads, beta, w))
    mk = np.array([_einsum_sum(g * other[i].reshape(1, 1, -1) * w2)[0]
                   for i in range(size)])
    assert np.array_equal(mk, np.einsum("jqa,iqa,q->ij", grads, other, w))


def test_stacked_element_error_names_the_cell():
    # a normal quad, then two quads that are ear clipped and so share a
    # stack: a dart, and a sliver that fails the area check at position 1
    quads = [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
             [[2.0, 0.0], [3.0, 0.9], [4.0, 0.0], [3.0, 1.0]],
             [[5.0, 0.0], [6.0, 0.0], [6.0, 1e-17], [5.0, 1e-17]]]
    mesh = PolyMesh(np.concatenate(quads), ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)),
                    set(range(12)))
    for method in ("sfvem", "vem"):
        with pytest.raises(DegenerateElementError, match="^element 2: "):
            assemble(mesh, bubble_problem(), method=method)


def test_unit_diffusion_matrix_matches_edge_loop(polygons):
    # the audit's P^T G P: its products read the projector in the
    # column-major layout LAPACK's solve leaves, as the loop's does
    for v in polygons[:40]:
        for offset in (-1, 0, 1):
            ell = effective_ell(len(v), offset)
            P, G = loop_hgrad_matrix(v, harmonic_basis(polygon_geometry(v).frame, ell))
            A = P.T @ G @ P
            assert np.array_equal(unit_diffusion_matrix(v, ell), 0.5 * (A + A.T))


def test_vem_scale_factor_is_the_scalar_square():
    # area / h**2 with h a float's libm pow: squares of these two sizes,
    # whose diameters square differently under pow and under a product,
    # stacked with the unit square
    squares = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]]) * np.array(
        [1.0, 7.7080078125, 8.0068359375])[:, None, None]
    assert all(diameter(v) ** 2 != diameter(v) * diameter(v) for v in squares[1:])
    spec = PROBLEMS["benchmark"]
    poly = polygon_stack(squares)
    local = standard_vem_locals(cell_data(poly, spec, volume_degree(spec, 0)), spec)
    for i, v in enumerate(squares):
        assert _same_local(local.cell(i), loop_vem_local(v, spec)), i
