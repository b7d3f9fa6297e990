"""The per-polygon geometry record against the one-quantity functions it
replaced, the array-level element kernels against their edge-by-edge and
triangle-by-triangle loop versions in ``oracles``, the Voronoi
generator's skipping clip loop against the all-pairs loop, and the
shared per-cell passes of assembly and error norms against one method
and one solution at a time.

The loops perform the same floating-point operations per entry, so the
comparison is exact equality, not a tolerance: the benchmark's degree-33
load amplifies any change in the quadrature points or weights far beyond
its reference tolerance.
"""
import numpy as np
import pytest

import sfvem.mesh
from sfvem.analysis import error_norms_many
from sfvem.element import (cell_data, effective_ell, sfvem_local, standard_vem_local,
                           volume_degree)
from sfvem.geometry import diameter, polygon_geometry, signed_area
from sfvem.mesh import (_closest_pair_too_close, _halfplane_clip, _voronoi_cells,
                        catalog_polygons, generate_distorted_grid, generate_voronoi)
from sfvem.poly import (ScaledFrame, build_benchmark_coefficients, bubble_problem,
                        harmonic_basis)
from sfvem.projectors import hgrad_matrix, nabla_matrix
from sfvem.quadrature import _fan_triangles, polygon_rule
from sfvem.system import assemble_many, solve

from oracles import (array_halfplane_clip, centroid, edge_lengths_normals,
                     first_moments, loop_assemble, loop_closest_pair,
                     loop_error_norms, loop_hgrad_matrix, loop_nabla_matrix,
                     loop_polygon_rule, loop_sfvem_local, loop_vem_local,
                     loop_voronoi_cells)

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
