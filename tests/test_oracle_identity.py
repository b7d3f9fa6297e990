"""The geometry record, for one polygon and for a stack, against the
one-quantity functions it replaced, the array-level element kernels against their edge-by-edge and
triangle-by-triangle loop versions in ``oracles``, the stacked kernels
against the same loops cell by cell, the Voronoi generator's skipping
clip loop against the all-pairs loop, the mesh checks, Lloyd centroids and
shortest edges by vertex-count group against their cell-by-cell loops, and
the shared chunked passes of assembly and error norms against one method
and one solution at a time.

Geometry, polygon rules, ``Poly2`` values and the mesh checks perform the
same floating-point operations per entry as their loops, so they are
compared by exact equality: the benchmark's degree-33 load amplifies any
change in the quadrature points or in the data values at them far beyond
its reference tolerance. The element kernels, assembly and error norms
are batched contractions and one batched Gram solve, which add and solve
in another order than the loops; ``assert_close`` compares them within
the drift stated per kernel in ``RTOL``.
"""
import re
from fractions import Fraction

import numpy as np
import pytest

import sfvem.element
import sfvem.mesh
from sfvem.analysis import error_norms_many, unit_diffusion_matrix
from sfvem.element import (advection_nodes, cell_data, cell_stacks, effective_ell, sfvem_local,
                           sfvem_locals, standard_vem_local, standard_vem_locals, volume_degree,
                           whole_cells)
from sfvem.errors import DegenerateElementError, MeshGenerationError, SfvemError
from sfvem.geometry import are_simple, is_simple, polygon_stack, signed_area, signed_areas
from sfvem.mesh import (PolyMesh, _centroids, _check_unit_area,
                        _closest_pair_too_close, _halfplane_clip, _shortest_edges,
                        _voronoi_cells, catalog_polygons, generate_distorted_grid,
                        generate_voronoi)
from sfvem.poly import (HarmonicBasis, Poly2, ProblemSpec, build_benchmark_coefficients,
                        bubble_problem, evaluate_polys, harmonic_basis)
from sfvem.projectors import (edge_points, hgrad_matrices, hgrad_matrix, nabla_matrices,
                              nabla_matrix)
from sfvem.quadrature import polygon_rule, polygon_rules, rule_size
from sfvem.system import METHODS, assemble, assemble_many, solve

from meshes import hanging_node_grid, pulled_grid
from oracles import (array_halfplane_clip, centroid, diameter, edge_lengths_normals,
                     loop_assemble, loop_boundary_flux, loop_centroids, loop_closest_pair,
                     loop_diffusion_gram, loop_error_norms, loop_hgrad_matrix,
                     loop_is_simple, loop_nabla_matrix, loop_poly2_eval, loop_polygon_rule,
                     loop_sfvem_local, loop_shortest_edges, loop_signed_area,
                     group_data_integrals, loop_validate, loop_vem_local,
                     loop_voronoi_cells, pointwise_error_norms, single_rule_load_integrals)

# thin U whose vertex average falls outside it: the only polygon here whose
# rule has negative weights, since every catalog polygon and mesh cell is
# star shaped about its average
USHAPE = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.6, 3.0],
                   [2.6, 0.4], [0.4, 0.4], [0.4, 3.0], [0.0, 3.0]])


# Largest |got - want| over the largest |want| a kernel may show against its
# loop oracle: a power of ten at least eight times the worst drift measured
# on these inputs (nabla 7e-17, gram 1e-15, projection 7e-15, local
# 1.2e-14, load 2.7e-14, advection 2.5e-15, system 7e-16, errors 3.4e-14);
# split is the drift the error pass on moments may show against the
# pointwise pass (6.2e-16 measured).
RTOL = {
    "nabla": 1e-15,       # nabla_matrices
    "gram": 1e-14,        # the boundary Gram G, MK and the audit's P^T G P
    "projection": 1e-13,  # P = G^-1 B, the batched solve against the Gram
    "local": 1e-13,       # A_diff, A_adv, A_reac and pi0 of a local build
    "load": 1e-12,        # b and the rule integrals of f and gamma
    "advection": 1e-13,   # h t[:, :2] against the rule integral of beta
    "system": 1e-14,      # global matrix entries and right-hand side
    "errors": 1e-12,      # relative L2 and energy errors
    "split": 1e-13,       # the error pass on moments against the pointwise pass
}


def assert_close(got, want, kernel, context=None):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, context
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= RTOL[kernel] * scale, (kernel, context)


def _cells(mesh):
    return [mesh.cell_points(ci) for ci in range(mesh.n_cells)]


def _non_star(v):
    # whether v is not star shaped about its vertex average: a fan triangle
    # is clockwise, so the polygon rule has negative weights
    return (polygon_rule(v, 0).weights < 0).any()


def _assert_rule_matches_loop(points, weights, v, degree, context=None):
    # a cell's rule against the per-triangle loop, bit for bit
    pts, wts = loop_polygon_rule(v, degree)
    assert len(weights) == rule_size(len(v), degree), context
    assert np.array_equal(points, pts), context
    assert np.array_equal(weights, wts), context


@pytest.fixture(scope="module")
def polygons():
    return ([p.vertices for p in catalog_polygons()] + [USHAPE]
            + _cells(generate_distorted_grid(8))
            + _cells(generate_voronoi(64, 3, 7, 0.25)))


def test_negative_weights_covered(polygons):
    assert sum(_non_star(v) for v in polygons) >= 1


@pytest.mark.parametrize("degree", [0, 1, 2, 33, 36])
def test_polygon_rule_matches_per_triangle_loop(polygons, degree):
    for i, v in enumerate(polygons):
        rule = polygon_rule(v, degree)
        _assert_rule_matches_loop(rule.points, rule.weights, v, degree, i)


def test_polygon_stack_of_one_matches_reference_functions(polygons):
    # one roll and one shoelace pass give the one-quantity functions' floats
    for i, v in enumerate(polygons):
        poly = polygon_stack(v[None])
        edges, lengths, normals = edge_lengths_normals(v)
        assert np.array_equal(poly.vertices[0], v), i
        assert np.array_equal(poly.edges[0], edges), i
        assert np.array_equal(poly.lengths[0], lengths), i
        assert np.array_equal(poly.normals[0], normals), i
        assert poly.area[0] == loop_signed_area(v), i
        assert np.array_equal(poly.frame.center[0], centroid(v)), i
        assert poly.frame.scale[0] == diameter(v), i


def test_nabla_matrix_matches_edge_loop(polygons):
    for i, v in enumerate(polygons):
        assert_close(nabla_matrix(v), loop_nabla_matrix(v), "nabla", i)


def test_hgrad_matrix_matches_edge_loop(polygons):
    for i, v in enumerate(polygons):
        for offset in (-1, 0, 2):
            ell = effective_ell(len(v), offset)
            P, G = hgrad_matrix(v, ell)
            P_loop, G_loop = loop_hgrad_matrix(v, ell)
            assert_close(G, G_loop, "gram", (i, offset))
            assert_close(P, P_loop, "projection", (i, offset))


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
    monkeypatch.setattr(sfvem.mesh, "_centroids", loop_centroids)
    monkeypatch.setattr(sfvem.mesh, "_shortest_edges", loop_shortest_edges)
    oracle = generate_voronoi(*args, points=points)
    assert np.array_equal(mesh.vertices, oracle.vertices)
    assert mesh.cells == oracle.cells
    assert mesh.boundary_vertices == oracle.boundary_vertices


@pytest.mark.parametrize("name, seeds", [(k, v) for k, v in _seed_sets().items()
                                         if len(v) >= 16])
def test_lloyd_centroids_match_per_cell_records(name, seeds):
    # one polygon_stack per vertex count gives each cell the centroid of its
    # own record; the lattice's co-circular seeds leave cells with a
    # repeated vertex, a zero-length edge
    cells = _voronoi_cells(seeds)
    assert len({len(c) for c in cells}) > 1 or name == "collinear"
    got = _centroids(cells)
    assert np.array_equal(got, loop_centroids(cells)), name
    for c, g in zip(cells, got):
        if len(np.unique(c, axis=0)) == len(c):
            assert np.array_equal(g, polygon_stack(c[None]).frame.center[0]), name


@pytest.mark.parametrize("mesh", ["grid8", "voronoi64", "voronoi256"])
def test_shortest_edges_match_edge_loop(mesh):
    mesh = MESHES[mesh]()
    assert np.array_equal(_shortest_edges(mesh.vertices, mesh.cells),
                          loop_shortest_edges(mesh.vertices, mesh.cells))


def _random_polygons():
    # simple and self-crossing polygons of N = 3..12 (random vertex order)
    # and the catalog, grouped by vertex count
    rng = np.random.default_rng(4)
    polys = [p.vertices for p in catalog_polygons()] + [USHAPE]
    polys += [rng.random((n, 2)) for n in range(3, 13) for _ in range(40)]
    polys += [np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 2.0]]),  # bow-tie
              np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])]
    return polys


def test_stacked_area_and_simplicity_match_loops():
    polys = _random_polygons()
    seen = set()
    for n in sorted({len(v) for v in polys}):
        group = [v for v in polys if len(v) == n]
        stack = np.array(group)
        areas, simple = signed_areas(stack), are_simple(stack)
        for i, v in enumerate(group):
            assert areas[i] == loop_signed_area(v) == signed_area(v), (n, i)
            assert simple[i] == loop_is_simple(v) == is_simple(v), (n, i)
            seen.add(bool(simple[i]))
    assert seen == {True, False}
    assert not is_simple(np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("mesh", ["grid8", "grid16", "voronoi64", "voronoi256"])
def test_mesh_validation_and_areas_match_cell_loop(mesh):
    mesh = MESHES[mesh]()
    assert loop_validate(mesh.vertices, mesh.cells) == mesh.boundary_vertices
    areas = mesh.cell_areas()
    assert np.array_equal(areas, [loop_signed_area(mesh.cell_points(i))
                                  for i in range(mesh.n_cells)])


def test_unit_area_check_sums_cell_areas_in_cell_order():
    # the generators' check adds the stacked areas as the loop added its
    # per-cell areas, so a failure reports the same total
    grid = MESHES["grid16"]()
    mesh = PolyMesh(grid.vertices * np.array([1.1, 0.7]), grid.cells)
    total = sum(loop_signed_area(mesh.cell_points(i)) for i in range(mesh.n_cells))
    with pytest.raises(MeshGenerationError, match=re.escape(f"sum to {total!r},")):
        _check_unit_area(mesh)


def _failing_meshes():
    sq = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    tri = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [2.0, 0.5], [0.3, 0.5]]
    bow = [[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 2.0]]
    # a triangle fan around the square's centre, then a bow-tie pentagon
    # after it: cells of two vertex counts
    fan = sq + [[0.5, 0.5]]
    pent = fan + [[3.0, 0.0], [3.0, 1.0], [5.0, 0.0], [5.0, 1.0], [4.0, 2.0]]
    return {
        "fewer than 3": (sq, ((0, 1, 2), (0, 2))),
        "negative index": (sq, ((0, 1, 2), (0, -1, 2))),
        "index past the end": (sq, ((0, 1, 2, 3), (1, 4, 2))),
        "repeated index": (sq, ((0, 1, 1, 2),)),
        "clockwise": (sq, ((0, 3, 2, 1),)),
        "degenerate bow-tie": (sq, ((0, 2, 1, 3),)),
        "bow-tie": (bow, ((0, 1, 2, 3),)),
        "edge used three times": (tri, ((0, 1, 2), (0, 3, 1), (0, 1, 4))),
        "edge traversed twice one way": (tri, ((0, 1, 2), (0, 1, 5))),
        "one way before three times": (tri, ((0, 2, 4), (0, 1, 2), (0, 1, 5), (2, 0, 4),
                                             (0, 3, 1))),
        "first failure in the larger group": (
            pent, ((5, 6, 8, 7, 9), (0, 1, 4), (1, 4, 2), (2, 3, 4), (3, 0, 4))),
        "first failure before an index error": (
            fan, ((0, 1, 4), (2, 1, 4), (2, 3, 9), (3, 0, 4))),
        "vertex in no cell": (fan + [[2.0, 2.0]], ((0, 1, 2, 3),)),
    }


@pytest.mark.parametrize("case", sorted(_failing_meshes()))
def test_mesh_validation_errors_match_cell_loop(case):
    verts, cells = _failing_meshes()[case]
    with pytest.raises(SfvemError) as want:
        loop_validate(np.array(verts), cells)
    with pytest.raises(SfvemError) as got:
        PolyMesh(np.array(verts), cells)
    assert type(got.value) is type(want.value), case
    assert str(got.value) == str(want.value), case


def test_mesh_validation_matches_cell_loop_on_broken_grids():
    # grids with jittered vertices, a cell dropped, reversed, repeated or
    # given a foreign vertex: the first failure of the loop, type and
    # message, or else its boundary set
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(300):
        mesh = generate_distorted_grid(int(rng.integers(1, 5)), 0.0)
        verts = mesh.vertices + rng.normal(0.0, 0.4 * rng.random(), mesh.vertices.shape)
        cells = list(mesh.cells)
        for _ in range(int(rng.integers(0, 3))):
            ci = int(rng.integers(len(cells)))
            change = int(rng.integers(4))
            if change == 0 and len(cells) > 1:
                cells.pop(ci)
            elif change == 1:
                cells[ci] = cells[ci][::-1]
            elif change == 2:
                cell = list(cells[ci])
                cell[int(rng.integers(len(cell)))] = int(rng.integers(-1, len(verts) + 1))
                cells[ci] = tuple(cell)
            else:
                cells.insert(ci, cells[int(rng.integers(len(cells)))])
        cells = tuple(cells)
        try:
            want = loop_validate(verts, cells)
        except SfvemError as exc:
            want = (type(exc), str(exc))
        try:
            got = PolyMesh(verts, cells).boundary_vertices
        except SfvemError as exc:
            got = (type(exc), str(exc))
        assert got == want, trial
        outcomes.add(want[1].split()[2] if isinstance(want, tuple) else None)
    assert len(outcomes) >= 6, outcomes


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
    "grid64": lambda: generate_distorted_grid(64, 0.3, 42),
    "voronoi576": lambda: generate_voronoi(576, 3, 42, 0.25),
    "pulled4": pulled_grid,
    "hanging4": hanging_node_grid,
}


def assert_close_local(a, b, context=None):
    # the build symmetrizes A_diff, so it is symmetric to the last bit
    assert a.ell == b.ell, context
    assert np.array_equal(a.A_diff, a.A_diff.T), context
    for field in ("A_diff", "A_adv", "A_reac", "pi0"):
        assert_close(getattr(a, field), getattr(b, field), "local", (field, context))
    assert_close(a.b, b.b, "load", ("b", context))


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_local_builders_match_standalone_build(problem):
    spec = PROBLEMS[problem]
    for i, v in enumerate([p.vertices for p in catalog_polygons()] + [USHAPE]):
        for offset in (0, 1):
            ell = effective_ell(len(v), offset)
            ref = loop_sfvem_local(v, spec, ell)
            assert_close_local(sfvem_local(v, spec, ell), ref, (i, offset))
        assert_close_local(standard_vem_local(v, spec), loop_vem_local(v, spec), i)


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
    ("pulled4", "benchmark", 0, True),
    ("pulled4", "bubble", 1, False),
    ("hanging4", "benchmark", 1, True),
])
def test_shared_passes_match_one_method_at_a_time(mesh_name, problem, ell_offset,
                                                  dirichlet):
    mesh, spec = MESHES[mesh_name](), PROBLEMS[problem]
    g = np.random.default_rng(4).random(mesh.n_vertices) if dirichlet else None
    ref = {m: loop_assemble(mesh, spec, m, ell_offset, g) for m in ("sfvem", "vem")}
    ref_errors = {m: loop_error_norms(solve(ref[m]), spec) for m in ref}
    # both methods in one pass match the loops; on the small meshes each
    # method alone gives the same floats as in the shared pass
    both = assemble_many(mesh, spec, ("vem", "sfvem"), ell_offset, g)
    errors = dict(zip(both, error_norms_many([solve(s) for s in both.values()], spec)))
    for m, system in both.items():
        a, b = system.matrix, ref[m].matrix
        assert system.method == m
        assert np.array_equal(a.indices, b.indices), m
        assert np.array_equal(a.indptr, b.indptr), m
        assert_close(a.data, b.data, "system", m)
        assert_close(system.rhs, ref[m].rhs, "system", m)
        assert np.array_equal(system.ell_by_cell, ref[m].ell_by_cell), m
        for got, want in zip(errors[m], ref_errors[m]):
            assert_close(got, want, "errors", m)
    assert tuple(both) == ("vem", "sfvem")
    for m in both if mesh.n_cells <= 64 else ():
        (alone,) = assemble_many(mesh, spec, (m,), ell_offset, g).values()
        assert alone.method == m
        assert np.array_equal(alone.matrix.data, both[m].matrix.data), m
        assert np.array_equal(alone.rhs, both[m].rhs), m
        assert error_norms_many([solve(alone)], spec) == [errors[m]], m


@pytest.mark.parametrize("mesh_name", ["grid64", "voronoi576"])
def test_error_pass_on_moments_matches_the_pointwise_pass(mesh_name):
    # the orthogonal split of the error integrals against the pass that
    # integrated u - u_h and grad(u - u_h) point by point, on the same rule
    # points and data values, for both methods
    mesh, spec = MESHES[mesh_name](), PROBLEMS["benchmark"]
    solutions = [solve(s) for s in assemble_many(mesh, spec).values()]
    got = error_norms_many(solutions, spec)
    for method, pair, want in zip(METHODS, got, pointwise_error_norms(solutions, spec)):
        for g, w in zip(pair, want):
            assert_close(g, w, "split", method)


def test_pulled_grid_stacks_star_and_non_star_quads():
    # the passes build the dart in one stack with the star-shaped quads
    (stack,) = cell_stacks(MESHES["pulled4"](), lambda n: 1)
    assert [_non_star(v) for v in stack[2].vertices] == [True] + [False] * 15


def _build_records(monkeypatch, mesh, spec):
    # assemble_many's CellData records, one per stack, with the stack's cells
    import sfvem.system

    stack_ids, records = [], []

    def stacks_seen(*args):
        for stack in cell_stacks(*args):
            stack_ids.append(stack[0])
            yield stack

    def data_seen(*args):
        records.append(cell_data(*args))
        return records[-1]

    monkeypatch.setattr(sfvem.system, "cell_stacks", stacks_seen)
    monkeypatch.setattr(sfvem.system, "cell_data", data_seen)
    assemble_many(mesh, spec)
    assert len(records) == len(stack_ids) >= 1
    return zip(stack_ids, records)


@pytest.mark.parametrize("mesh_name", ["grid16", "voronoi256"])
def test_load_integrals_keep_the_single_rule_build(monkeypatch, mesh_name):
    # the diffusion Gram left the volume rule, but the load keeps the rule
    # degree it had when the Gram shared that rule, and with it the data
    # values at the rule points
    mesh, spec = MESHES[mesh_name](), PROBLEMS["benchmark"]
    seen = np.full((2, mesh.n_cells), np.nan)
    for cells, data in _build_records(monkeypatch, mesh, spec):
        seen[:, cells] = data.int_gamma, data.int_f
    want = single_rule_load_integrals(mesh, spec)
    assert_close(seen[0], want[0], "load", "gamma")
    assert_close(seen[1], want[1], "load", "f")


@pytest.mark.parametrize("mesh_name", ["grid16", "voronoi256"])
def test_stacked_build_integrals_match_per_chunk_cell_data(monkeypatch, mesh_name):
    # a stack's rule integrals of gamma and f come chunk by chunk from one
    # shared-table evaluation and equal, bit for bit, one Poly2 call per
    # coefficient on all the rule points of a vertex-count group, since a
    # data value depends on its point alone
    mesh, spec = MESHES[mesh_name](), PROBLEMS["benchmark"]
    seen = np.full((2, mesh.n_cells), np.nan)
    for cells, data in _build_records(monkeypatch, mesh, spec):
        seen[:, cells] = data.int_gamma, data.int_f
    for name, got, want in zip(("gamma", "f"), seen, group_data_integrals(mesh, spec)):
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("mesh_name", ["grid16", "voronoi256"])
def test_advection_vector_matches_the_gradient_contraction(mesh_name):
    # t_i, the integral of grad h_i . beta, comes from one contraction of
    # the complex powers z^1..z^(ell + 1) with |e| w beta . n at the edge
    # nodes of each stack; every entry matches the edge loop of h_i beta . n
    # (div beta = 0), whose nodes and beta values are the same, cell by
    # cell at ell offsets 0..2
    mesh, spec = MESHES[mesh_name](), PROBLEMS["benchmark"]
    for offset in range(3):
        for _, _, poly in cell_stacks(mesh, lambda n: 1):
            ell = effective_ell(poly.vertices.shape[1], offset)
            data = cell_data(poly, spec, ell)
            assert data.t.shape == (len(poly), 2 * ell + 2)
            for i, v in enumerate(poly.vertices):
                basis = HarmonicBasis(poly.frame[i:i + 1], ell)
                want = loop_boundary_flux(
                    v, spec.beta, lambda p: basis.values_and_gradients(p[None])[0][0], ell + 1)
                assert_close(data.t[i], want, "advection", (offset, i))


@pytest.mark.parametrize("mesh_name", ["grid8", "voronoi64"])
def test_build_evaluates_beta_at_no_volume_rule_point(monkeypatch, mesh_name):
    # the build's polygon rules carry gamma and f only: beta is evaluated,
    # on its own, at edge nodes, and never at a point of a rule the build
    # made
    mesh, spec = MESHES[mesh_name](), PROBLEMS["benchmark"]
    rule_points, beta_points = [], []

    def rules_seen(vertices, degree):
        rule = polygon_rules(vertices, degree)
        rule_points.append(rule.points.reshape(-1, 2))
        return rule

    def evaluate_seen(polys, points):
        if any(p is b for p in polys for b in spec.beta):
            assert polys is spec.beta
            beta_points.append(points)
        return evaluate_polys(polys, points)

    monkeypatch.setattr(sfvem.element, "polygon_rules", rules_seen)
    monkeypatch.setattr(sfvem.element, "evaluate_polys", evaluate_seen)
    assemble_many(mesh, spec)
    assert rule_points and beta_points
    rule_set = {tuple(p) for p in np.concatenate(rule_points)}
    assert not any(tuple(p) in rule_set for p in np.concatenate(beta_points))


def _stream_problem():
    # beta = curl psi for psi = x^2 (1 - x) y^2 (1 - y): divergence free,
    # with small coefficients whose values round to the last bits
    psi = Poly2.from_separable([0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 1.0, -1.0])
    return ProblemSpec(K=np.eye(2), beta=(psi.dy(), -psi.dx()), gamma=Poly2.zero(),
                       f=Poly2.const(1.0))


@pytest.mark.parametrize("mesh_name", ["grid16", "voronoi256"])
def test_edge_advection_vector_matches_the_volume_contraction(mesh_name):
    # on well-conditioned data the boundary form of t (div beta = 0) gives
    # the volume integral of grad h_i . beta: every entry matches the
    # contraction of the basis gradients with w beta on a polygon rule of
    # the integrand's degree deg beta + ell, at ell offsets 0..2
    mesh, spec = MESHES[mesh_name](), _stream_problem()
    for offset in range(3):
        for _, _, poly in cell_stacks(mesh, lambda n: 1):
            ell = effective_ell(poly.vertices.shape[1], offset)
            data = cell_data(poly, spec, ell)
            rule = polygon_rules(poly.vertices, spec.beta[0].degree + ell)
            pts = rule.points.reshape(-1, 2)
            beta = np.stack([spec.beta[0](pts), spec.beta[1](pts)], axis=-1)
            wbeta = rule.weights[..., None] * beta.reshape(rule.weights.shape + (2,))
            grads = data.basis.values_and_gradients(rule.points)[1]
            want = np.einsum("cipa,cpa->ci", grads, wbeta)
            assert_close(data.t, want, "advection", (offset, poly.vertices.shape[1]))


class _ExactPoly:
    # a Poly2 evaluated in exact rational arithmetic, rounded once per value
    def __init__(self, p):
        self.degree = p.degree
        self.terms = [(a, b, Fraction(c)) for (a, b), c in np.ndenumerate(p.coeffs) if c]

    def __call__(self, points):
        return np.array([float(sum(c * Fraction(x) ** a * Fraction(y) ** b
                                   for a, b, c in self.terms)) for x, y in points])


def test_edge_advection_vector_against_exactly_evaluated_beta():
    # the benchmark's beta, expanded into monomials with coefficients up to
    # 1.2e8, rounds near the corner (1, 1) where it vanishes, and edge nodes
    # lie there. On the two grid-16 cells whose t is furthest from t with
    # exactly evaluated beta at the same nodes (by 5.2e-11 and 5.0e-11,
    # 5.7e-10 of the mesh's max |t|), t stays within 1e-9 of that max
    mesh, spec = MESHES["grid16"](), PROBLEMS["benchmark"]
    exact = tuple(_ExactPoly(p) for p in spec.beta)
    (stack,) = cell_stacks(mesh, lambda n: 1)
    cells, _, poly = stack
    ell = effective_ell(poly.vertices.shape[1])
    t = cell_data(poly, spec, ell).t
    for cell in (238, 255):
        i = int(np.flatnonzero(cells == cell)[0])
        basis = HarmonicBasis(poly.frame[i:i + 1], ell)
        want = loop_boundary_flux(poly.vertices[i], exact,
                                  lambda p: basis.values_and_gradients(p[None])[0][0], ell + 1)
        assert np.abs(t[i] - want).max() <= 1e-9 * np.abs(t).max(), cell


@pytest.mark.parametrize("mesh_name", ["grid16", "voronoi256"])
def test_shared_table_matches_each_poly_on_every_chunk(monkeypatch, mesh_name):
    # both passes evaluate their rule data through element.rule_values, once
    # per rule chunk of each stack (whole_cells at 8 floats per rule point),
    # on exactly the chunk's rule points, and the build evaluates beta once
    # per stack, on exactly its edge nodes (element.advection_nodes) in runs
    # of whole cells; each value equals its polynomial's own Poly2 call on
    # those points
    import sfvem.analysis
    import sfvem.system

    mesh, spec = MESHES[mesh_name](), PROBLEMS["benchmark"]
    calls, want = [], []

    def evaluate_seen(polys, points):
        calls.append((polys, points, evaluate_polys(polys, points)))
        return calls[-1][2]

    def stacks_seen(chunks_of):
        def wrapper(*args):
            for stack in cell_stacks(*args):
                want.extend(chunks_of(stack[2]))
                yield stack
        return wrapper

    def rule_chunks(poly, degree, polys):
        n = poly.vertices.shape[1]
        return [(polys, polygon_rules(poly.vertices[chunk], degree).points)
                for chunk in whole_cells(len(poly), 8 * rule_size(n, degree))]

    def build_chunks(poly):
        # the rule chunks' gamma and f, then the stack's beta at its edge
        # nodes, in runs of whole cells whose table of nx + ny floats per
        # node fits CHUNK_BYTES
        ell = effective_ell(poly.vertices.shape[1])
        pts = edge_points(poly, advection_nodes(spec, ell))[0]
        width = sum(max(p.coeffs.shape[a] for p in spec.beta) for a in (0, 1))
        return (rule_chunks(poly, volume_degree(spec), (spec.gamma, spec.f))
                + [(spec.beta, pts[cells])
                   for cells in whole_cells(len(poly), width * pts.shape[1])])

    def error_chunks(poly):
        return rule_chunks(poly, 2 * spec.exact_u.degree + 2, (spec.exact_u, *spec.exact_grad_u))

    monkeypatch.setattr(sfvem.element, "evaluate_polys", evaluate_seen)
    monkeypatch.setattr(sfvem.system, "cell_stacks", stacks_seen(build_chunks))
    monkeypatch.setattr(sfvem.analysis, "cell_stacks", stacks_seen(error_chunks))
    systems = assemble_many(mesh, spec)
    error_norms_many([solve(s) for s in systems.values()], spec)
    assert len(calls) == len(want) > 2
    for (polys, points, values), (want_polys, want_points) in zip(calls, want):
        assert polys == tuple(want_polys)
        assert np.array_equal(points, want_points.reshape(-1, 2))
        for p, got in zip(polys, values):
            assert np.array_equal(got, p(points))


# ---------------------------------------------------------------------------
# stacked kernels, cell by cell against the loops


def _stacks(polygons):
    # the polygons stacked by vertex count, the way the passes stack mesh
    # cells
    groups: dict = {}
    for v in polygons:
        groups.setdefault(len(v), []).append(v)
    return [np.array(g) for g in groups.values()]


def test_stacks_mix_both_kinds(polygons):
    # a stack of star-shaped and non-star cells, so that every stacked
    # kernel runs one
    kinds = [{_non_star(v) for v in s} for s in _stacks(polygons)]
    assert {True, False} in kinds


def test_polygon_stack_matches_reference_functions(polygons):
    for stack in _stacks(polygons):
        poly = polygon_stack(stack)
        for i, v in enumerate(stack):
            edges, lengths, normals = edge_lengths_normals(v)
            assert np.array_equal(poly.edges[i], edges)
            assert np.array_equal(poly.lengths[i], lengths)
            assert np.array_equal(poly.normals[i], normals)
            assert poly.area[i] == signed_area(v)
            assert np.array_equal(poly.frame.center[i], centroid(v))
            assert poly.frame.scale[i] == diameter(v)


@pytest.mark.parametrize("degree", [2, 33, 36])
def test_polygon_rules_match_per_triangle_loop(polygons, degree):
    for stack in _stacks(polygons):
        rule = polygon_rules(stack, degree)
        for i, v in enumerate(stack):
            _assert_rule_matches_loop(rule.points[i], rule.weights[i], v, degree, i)


def test_polygon_rules_give_a_mixed_stack_each_cells_rule():
    # a square (star shaped) and a dart (not star shaped about its vertex
    # average) in one stack: each cell's points and weights are those of
    # its own rule, and sum to its area
    dart = np.array([[0.0, 0.0], [1.0, 0.9], [2.0, 0.0], [1.0, 1.0]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert _non_star(dart) and not _non_star(square)
    for degree in (0, 2, 33):
        rule = polygon_rules(np.array([square, dart, square]), degree)
        for i, v in enumerate((square, dart, square)):
            one = polygon_rule(v, degree)
            assert np.array_equal(rule.points[i], one.points), (degree, i)
            assert np.array_equal(rule.weights[i], one.weights), (degree, i)
            _assert_rule_matches_loop(rule.points[i], rule.weights[i], v, degree, (degree, i))
            assert rule.weights[i].sum() == pytest.approx(signed_area(v), rel=1e-14), (degree, i)


def test_stacked_projectors_match_edge_loops(polygons):
    A = np.random.default_rng(13).standard_normal((2, 2))
    Ks = (PROBLEMS["benchmark"].K, A @ A.T + 0.1 * np.eye(2))
    for stack in _stacks(polygons):
        poly = polygon_stack(stack)
        nabla = nabla_matrices(poly)
        for offset in (-1, 0, 2):
            basis = harmonic_basis(poly.frame, effective_ell(stack.shape[1], offset))
            P, G, _ = hgrad_matrices(poly, basis, np.eye(2))
            MK = [hgrad_matrices(poly, basis, K)[2] for K in Ks]
            for i, v in enumerate(stack):
                P_loop, G_loop = loop_hgrad_matrix(v, basis.ell)
                assert_close(G[i], G_loop, "gram", (i, offset))
                assert_close(P[i], P_loop, "projection", (i, offset))
                for K, M in zip(Ks, MK):
                    assert_close(M[i], loop_diffusion_gram(v, K, basis.ell), "gram",
                                 (i, offset))
        for i, v in enumerate(stack):
            assert_close(nabla[i], loop_nabla_matrix(v), "nabla", i)
            one = polygon_stack(v[None])
            assert_close(nabla[i, 0], nabla_matrices(one)[0, 0], "nabla", i)


def test_anisotropic_build_evaluates_the_edge_nodes_once(monkeypatch, polygons):
    # G, MK and the right-hand side share one basis evaluation at the
    # ell + 1 Gauss nodes per edge; the advection vector t, which cell_data
    # builds once per stack, takes one power table at the advection nodes of
    # the edges (element.advection_nodes) and none at a rule point
    spec = PROBLEMS["benchmark"]
    evaluated, built = [], []
    powers, hgrad = HarmonicBasis.powers, sfvem.element.hgrad_matrices

    def powers_seen(self, points, top):
        evaluated.append(points)
        return powers(self, points, top)

    def hgrad_seen(*args):
        built.append(hgrad(*args))
        return built[-1]

    monkeypatch.setattr(HarmonicBasis, "powers", powers_seen)
    monkeypatch.setattr(sfvem.element, "hgrad_matrices", hgrad_seen)
    for stack in _stacks(polygons):
        poly = polygon_stack(stack)
        ell = effective_ell(stack.shape[1])
        evaluated.clear()
        data = cell_data(poly, spec, ell)
        assert len(evaluated) == 1
        assert np.array_equal(evaluated[0], edge_points(poly, advection_nodes(spec, ell))[0])
        evaluated.clear()
        sfvem_locals(data, spec)
        assert len(evaluated) == 1
        assert np.array_equal(evaluated[0], edge_points(poly, ell + 1)[0])
        MK = built[-1][2]
        for i, v in enumerate(stack):
            assert_close(MK[i], loop_diffusion_gram(v, spec.K, ell), "gram", i)


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_stacked_builders_match_standalone_build(polygons, problem):
    spec = PROBLEMS[problem]
    for stack in _stacks(polygons):
        poly = polygon_stack(stack)
        for offset in (0, 1):
            # both methods from one record at the stack's ell
            ell = effective_ell(stack.shape[1], offset)
            data = cell_data(poly, spec, ell)
            local, vem = sfvem_locals(data, spec), standard_vem_locals(data, spec)
            for i, v in enumerate(stack):
                assert_close_local(local.cell(i), loop_sfvem_local(v, spec, ell), i)
                assert_close_local(vem.cell(i), loop_vem_local(v, spec, ell), i)


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


def test_stacked_element_error_names_the_cell():
    # three quads in one stack: a square, a non-star dart, and a sliver
    # that fails the area check at position 2
    quads = [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
             [[2.0, 0.0], [3.0, 0.9], [4.0, 0.0], [3.0, 1.0]],
             [[5.0, 0.0], [6.0, 0.0], [6.0, 1e-17], [5.0, 1e-17]]]
    mesh = PolyMesh(np.concatenate(quads),
                    ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)))
    for method in ("sfvem", "vem"):
        with pytest.raises(DegenerateElementError, match="^element 2: "):
            assemble(mesh, bubble_problem(), method=method)


def test_unit_diffusion_matrix_matches_edge_loop(polygons):
    # the audit's P^T G P
    for v in polygons[:40]:
        for offset in (-1, 0, 1):
            ell = effective_ell(len(v), offset)
            P, G = loop_hgrad_matrix(v, ell)
            A = P.T @ G @ P
            assert_close(unit_diffusion_matrix(v, ell), 0.5 * (A + A.T), "gram", offset)
