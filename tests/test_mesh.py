import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfvem.mesh
from sfvem.geometry import is_simple, signed_area
from sfvem.mesh import (MeshFormatError, MeshGenerationError, MeshIndexError,
                        MeshTopologyError, PolyMesh, catalog_polygons,
                        generate_distorted_grid, generate_voronoi,
                        quality_report, read_mesh, write_mesh)
from sfvem.rng import XorShift

from oracles import diameter, loop_voronoi_cells

SQUARE_FILE = """vem-mesh 1
vertices 4
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
cells 1
4 0 1 2 3
boundary 4
0
1
2
3
"""


def write_text(tmp_path, text, name="mesh.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def unit_square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return PolyMesh(verts, ((0, 1, 2, 3),))


def total_area(mesh):
    return sum(signed_area(mesh.cell_points(i)) for i in range(mesh.n_cells))


def euler_characteristic(mesh):
    return mesh.n_vertices - len(mesh.edges()) + mesh.n_cells


# ---------------------------------------------------------------------------
# text format


def test_read_single_square(tmp_path):
    mesh = read_mesh(write_text(tmp_path, SQUARE_FILE))
    assert mesh.n_cells == 1
    assert mesh.n_vertices == 4
    assert mesh.boundary_vertices == frozenset({0, 1, 2, 3})
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-15)


def test_readme_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Mesh text format", 1)[1]
    example = section.split("```\n", 2)[1]
    mesh = read_mesh(write_text(tmp_path, example))
    assert (mesh.n_vertices, mesh.n_cells) == (5, 4)
    assert mesh.boundary_vertices == frozenset({0, 1, 2, 3})
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-15)


def test_clockwise_cell_is_topology_error(tmp_path):
    bad = SQUARE_FILE.replace("4 0 1 2 3", "4 3 2 1 0")
    with pytest.raises(MeshTopologyError, match="clockwise"):
        read_mesh(write_text(tmp_path, bad))


def test_round_trip_is_bit_identical(tmp_path):
    mesh = generate_distorted_grid(3, delta=0.3, seed=42)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_mesh(mesh, p1)
    back = read_mesh(p1)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    assert back.cells == mesh.cells
    assert back.boundary_vertices == mesh.boundary_vertices
    write_mesh(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_voronoi(tmp_path):
    mesh = generate_voronoi(20, lloyd_iters=2, seed=3, distortion=0.2)
    p = tmp_path / "v.txt"
    write_mesh(mesh, p)
    back = read_mesh(p)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    assert back.cells == mesh.cells


def test_bad_header(tmp_path):
    with pytest.raises(MeshFormatError, match="line 1"):
        read_mesh(write_text(tmp_path, "vem-mesh 2\nvertices 0\n"))


def test_bad_coordinate_reports_line(tmp_path):
    bad = SQUARE_FILE.replace("1.0 0.0", "1.0 spam")
    with pytest.raises(MeshFormatError, match="line 4"):
        read_mesh(write_text(tmp_path, bad))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_coordinate_reports_line(tmp_path, value):
    bad = SQUARE_FILE.replace("1.0 0.0", f"1.0 {value}")
    with pytest.raises(MeshFormatError, match="line 4: non-finite"):
        read_mesh(write_text(tmp_path, bad))


def test_truncated_file(tmp_path):
    with pytest.raises(MeshFormatError, match="unexpected end"):
        read_mesh(write_text(tmp_path, "vem-mesh 1\nvertices 4\n0.0 0.0\n"))


@pytest.mark.parametrize("tail", ["vertices 99\ngarbage\n", "4\n", "\n"])
def test_trailing_lines_rejected(tmp_path, tail):
    with pytest.raises(MeshFormatError, match="line 14"):
        read_mesh(write_text(tmp_path, SQUARE_FILE + tail))


def test_wrong_cell_arity(tmp_path):
    bad = SQUARE_FILE.replace("4 0 1 2 3", "5 0 1 2 3")
    with pytest.raises(MeshFormatError, match="followed by"):
        read_mesh(write_text(tmp_path, bad))


def test_vertex_in_no_cell_is_topology_error(tmp_path):
    # a fifth vertex that the one square cell does not use
    bad = SQUARE_FILE.replace("vertices 4\n", "vertices 5\n").replace(
        "0.0 1.0\ncells", "0.0 1.0\n0.5 0.5\ncells")
    with pytest.raises(MeshTopologyError, match="^vertex 4 belongs to no cell$"):
        read_mesh(write_text(tmp_path, bad))


EMPTY_FILE = "vem-mesh 1\nvertices 0\ncells 0\nboundary 0\n"


def test_mesh_with_no_cells_is_topology_error(tmp_path):
    with pytest.raises(MeshTopologyError, match="^mesh has no cells$"):
        read_mesh(write_text(tmp_path, EMPTY_FILE))


def test_out_of_range_vertex_index(tmp_path):
    bad = SQUARE_FILE.replace("4 0 1 2 3", "4 0 1 2 9")
    with pytest.raises(MeshIndexError, match="vertex 9"):
        read_mesh(write_text(tmp_path, bad))


def test_out_of_range_boundary_index(tmp_path):
    bad = SQUARE_FILE.replace("boundary 4\n0\n", "boundary 4\n7\n")
    with pytest.raises(MeshIndexError, match="boundary vertex 7"):
        read_mesh(write_text(tmp_path, bad))


def test_boundary_mismatch_rejected(tmp_path):
    bad = SQUARE_FILE.replace("boundary 4\n0\n1\n2\n3\n", "boundary 2\n0\n1\n")
    with pytest.raises(MeshTopologyError) as info:
        read_mesh(write_text(tmp_path, bad))
    assert str(info.value) == ("boundary vertex set inconsistent with cell edges "
                               "(missing [2, 3], extra [])")


def mesh_text(vertices, cells, boundary):
    lines = ["vem-mesh 1", f"vertices {len(vertices)}"]
    lines += [f"{x!r} {y!r}" for x, y in vertices]
    lines += [f"cells {len(cells)}"] + [" ".join(map(str, (len(c), *c))) for c in cells]
    lines += [f"boundary {len(boundary)}"] + [str(i) for i in boundary]
    return "\n".join(lines) + "\n"


FAN = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]


@pytest.mark.parametrize("vertices, cells, boundary, error, message", [
    (FAN[:4], ((0, 1, 2, 3),), (0, 1), MeshTopologyError,
     "boundary vertex set inconsistent with cell edges (missing [2, 3], extra [])"),
    (FAN, ((0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)), (0, 1, 2, 3, 4), MeshTopologyError,
     "boundary vertex set inconsistent with cell edges (missing [], extra [4])"),
    # PolyMesh's checks run first, so its unused vertex is the error
    (FAN, ((0, 1, 2, 3),), (0, 1, 2), MeshTopologyError, "vertex 4 belongs to no cell"),
    # README's four triangles: the set {0, 1, 2, 3} is right, but the
    # section must list each vertex once, and line 18 repeats vertex 3
    (FAN, ((0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)), (0, 1, 2, 3, 3), MeshFormatError,
     "line 18: boundary vertex 3 listed twice"),
], ids=["boundary-missing", "boundary-extra", "unused-vertex-first", "repeated-index"])
def test_read_mesh_checks_the_boundary_section(tmp_path, vertices, cells, boundary, error,
                                               message):
    path = write_text(tmp_path, mesh_text(vertices, cells, boundary))
    with pytest.raises(error) as info:
        read_mesh(path)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# PolyMesh invariants


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(value):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    verts[2, 1] = value
    with pytest.raises(MeshFormatError, match="vertex 2"):
        PolyMesh(verts, ((0, 1, 2, 3),))


def test_cell_with_two_vertices_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshTopologyError, match="fewer than 3"):
        PolyMesh(verts, ((0, 1),))


def test_repeated_vertex_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshTopologyError, match="repeats"):
        PolyMesh(verts, ((0, 1, 1, 2),))


@pytest.mark.parametrize("entry", [1.7, "1", np.nan], ids=["float", "string", "nan"])
def test_non_integer_vertex_index_rejected(entry):
    # each entry is taken as an index, never truncated (1.7 -> 1) or parsed
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshFormatError, match="^cell 1 has a vertex index that is "
                                              "not an integer"):
        PolyMesh(verts, ((0, 1, 2), (0, entry, 3)))


def test_self_intersecting_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshTopologyError):
        PolyMesh(verts, ((0, 1, 2, 3),))


def test_nonmanifold_edge_rejected():
    # three triangles all sharing edge (0, 1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [2.0, 0.5]])
    with pytest.raises(MeshTopologyError, match="shared by 3"):
        PolyMesh(verts, ((0, 1, 2), (0, 3, 1), (0, 1, 4)))


def test_same_direction_edge_rejected():
    # both triangles traverse (0, 1) in the same direction: the second
    # is listed CCW as a polygon but reuses the edge orientation
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0]])
    with pytest.raises(MeshTopologyError):
        PolyMesh(verts, ((0, 1, 2), (0, 1, 3)))


def test_edges_set_of_shared_grid():
    mesh = generate_distorted_grid(2, delta=0.0)
    # 2x2 grid: 9 vertices, 12 edges, 4 cells
    assert mesh.n_vertices == 9
    assert len(mesh.edges()) == 12
    assert euler_characteristic(mesh) == 1


# ---------------------------------------------------------------------------
# distorted grid generator


def test_zero_distortion_gives_uniform_grid():
    mesh = generate_distorted_grid(2, delta=0.0, seed=123)
    assert mesh.n_cells == 4
    for i in range(4):
        assert signed_area(mesh.cell_points(i)) == pytest.approx(0.25, abs=1e-15)


def test_distorted_grid_area_sum():
    mesh = generate_distorted_grid(8, delta=0.3, seed=42)
    assert mesh.n_cells == 64
    assert all(signed_area(mesh.cell_points(i)) > 0 for i in range(64))
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)


def test_single_cell_grid_has_no_interior():
    mesh = generate_distorted_grid(1, delta=0.4, seed=7)
    np.testing.assert_array_equal(
        np.sort(mesh.vertices, axis=0)[:, 0], [0.0, 0.0, 1.0, 1.0])
    assert mesh.n_cells == 1
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-15)


def test_boundary_vertices_unmoved():
    mesh = generate_distorted_grid(5, delta=0.45, seed=9)
    for i in sorted(mesh.boundary_vertices):
        x, y = mesh.vertices[i]
        assert x in (0.0, 1.0) or y in (0.0, 1.0)


def test_grid_determinism_and_seed_sensitivity():
    a = generate_distorted_grid(4, delta=0.3, seed=5)
    b = generate_distorted_grid(4, delta=0.3, seed=5)
    c = generate_distorted_grid(4, delta=0.3, seed=6)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    assert np.abs(a.vertices - c.vertices).max() > 0


def test_grid_rejects_bad_arguments():
    with pytest.raises(MeshGenerationError):
        generate_distorted_grid(0)
    with pytest.raises(MeshGenerationError):
        generate_distorted_grid(4, delta=0.5)
    with pytest.raises(MeshGenerationError):
        generate_distorted_grid(4, delta=-0.1)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 12), delta=st.floats(0.0, 0.4999), seed=st.integers(0, 2**32))
def test_distorted_grid_builds_on_its_only_draw(n, delta, seed):
    # every vertex stays within delta h < h/2 of its lattice point in each
    # coordinate, so the stream's first offsets always give CCW simple quads
    mesh = generate_distorted_grid(n, delta, seed)
    rng = XorShift(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    for j in range(1, n):
        for i in range(1, n):
            want = [xs[i] + rng.uniform(-delta / n, delta / n),
                    xs[j] + rng.uniform(-delta / n, delta / n)]
            assert mesh.vertices[j * (n + 1) + i].tolist() == want
    for i in range(mesh.n_cells):
        points = mesh.cell_points(i)
        assert signed_area(points) > 0.0 and is_simple(points)


def test_euler_relation_on_grids():
    for n in (1, 3, 7):
        mesh = generate_distorted_grid(n, delta=0.2, seed=2)
        assert euler_characteristic(mesh) == 1


# ---------------------------------------------------------------------------
# Voronoi generator


def test_single_seed_gives_unit_square():
    mesh = generate_voronoi(1, 0, seed=11)
    assert mesh.n_cells == 1
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-15)
    assert sorted(map(tuple, mesh.vertices.tolist())) == [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_four_symmetric_seeds_give_four_squares():
    centers = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    mesh = generate_voronoi(4, 0, points=centers)
    assert mesh.n_cells == 4
    for i in range(4):
        assert signed_area(mesh.cell_points(i)) == pytest.approx(0.25, abs=1e-15)
        pts = mesh.cell_points(i)
        assert diameter(pts) == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-15)


def test_voronoi_area_sum_and_euler():
    mesh = generate_voronoi(50, lloyd_iters=3, seed=1, distortion=0.25)
    assert abs(total_area(mesh) - 1.0) <= 1e-12
    assert euler_characteristic(mesh) == 1
    assert all(signed_area(mesh.cell_points(i)) > 0 for i in range(mesh.n_cells))


def test_voronoi_determinism():
    a = generate_voronoi(30, 2, seed=8, distortion=0.2)
    b = generate_voronoi(30, 2, seed=8, distortion=0.2)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    assert a.cells == b.cells


def test_voronoi_boundary_on_square_edge():
    mesh = generate_voronoi(25, 1, seed=4, distortion=0.15)
    for i in sorted(mesh.boundary_vertices):
        x, y = mesh.vertices[i]
        assert x == 0.0 or x == 1.0 or y == 0.0 or y == 1.0


def test_voronoi_rejects_bad_arguments():
    with pytest.raises(MeshGenerationError):
        generate_voronoi(0)
    with pytest.raises(MeshGenerationError):
        generate_voronoi(4, lloyd_iters=-1)
    with pytest.raises(MeshGenerationError):
        generate_voronoi(4, distortion=1.0)
    with pytest.raises(MeshGenerationError):
        generate_voronoi(2, points=np.array([[0.5, 0.5]]))
    with pytest.raises(MeshGenerationError):
        generate_voronoi(2, points=np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(MeshGenerationError):
        generate_voronoi(1, points=np.array([[1.5, 0.5]]))


def test_lloyd_iterations_change_mesh():
    a = generate_voronoi(16, 0, seed=5)
    b = generate_voronoi(16, 5, seed=5)
    assert a.n_vertices != b.n_vertices or np.abs(
        a.vertices - b.vertices[: len(a.vertices)]).max() > 1e-6


def _count_clips(monkeypatch):
    calls = []
    clip = sfvem.mesh._halfplane_clip

    def counted(poly, nx, ny, c):
        calls.append((nx, ny, c))
        return clip(poly, nx, ny, c)

    monkeypatch.setattr(sfvem.mesh, "_halfplane_clip", counted)
    return calls


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(3, 12),
       radii=st.lists(st.floats(0.05, 1.0), min_size=12, max_size=12),
       seed=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       size=st.floats(1e-6, 0.5), phi=st.floats(0.0, 2.0 * np.pi),
       beyond=st.floats(0.0, 2.0))
def test_clip_beyond_farthest_vertex_returns_its_input(n, radii, seed, size, phi,
                                                       beyond):
    # the skip in the Voronoi generator: a neighbour t with
    # |t - s|^2 > 4 r^2 (1 + 1e-4), r the farthest vertex distance from s,
    # is never clipped, which is exact only if such a clip is a no-op
    sx, sy = seed
    theta = 2.0 * np.pi * np.arange(n) / n
    r = size * np.array(radii[:n])
    poly = [(sx + a, sy + b) for a, b in
            zip((r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist())]
    far = max(np.hypot(x - sx, y - sy) for x, y in poly)
    dist = 2.0 * far * np.sqrt(1.0 + 1e-4) * (1.0 + beyond)
    tx, ty = sx + dist * np.cos(phi), sy + dist * np.sin(phi)
    dx, dy = tx - sx, ty - sy
    mx, my = 0.5 * (sx + tx), 0.5 * (sy + ty)
    out = sfvem.mesh._halfplane_clip(poly, dx, dy, dx * mx + dy * my)
    assert len(out) == len(poly)
    assert all(a is b for a, b in zip(out, poly))


def test_clip_through_a_vertex_is_run(monkeypatch):
    # seed 0's cell is [0, 1/2]^2 after the bisectors of seeds 1 and 2; the
    # bisector of seed 3, x + y = 1, passes exactly through its corner
    # (1/2, 1/2) at |d|^2 = 4 r^2, inside the skip margin
    seeds = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    calls = _count_clips(monkeypatch)
    cells = sfvem.mesh._voronoi_cells(seeds)
    assert calls[:3] == [(0.5, 0.0, 0.25), (0.0, 0.5, 0.25), (0.5, 0.5, 0.5)]
    nx, ny, c = calls[2]
    assert nx * 0.5 + ny * 0.5 - c == 0.0  # fq at the corner
    for cell, ref in zip(cells, loop_voronoi_cells(seeds)):
        assert np.array_equal(cell, ref)


def test_voronoi_clip_count_is_not_quadratic(monkeypatch):
    # the all-pairs loop makes n - 1 = 255 clips per seed per sweep
    calls = _count_clips(monkeypatch)
    generate_voronoi(256, 3, 1, 0.25)
    assert len(calls) <= 80 * 256 * 4


def _count_validation(monkeypatch):
    # the cells each stacked check sees, summed over its calls
    calls = {"signed_areas": 0, "are_simple": 0}
    for key in calls:
        fn = getattr(sfvem.mesh, key)

        def counted(pts, _fn=fn, _key=key):
            calls[_key] += len(pts)
            return _fn(pts)
        monkeypatch.setattr(sfvem.mesh, key, counted)
    return calls


@pytest.mark.parametrize("generate", [
    lambda: generate_voronoi(576, 3, 0, 0.25),
    lambda: generate_voronoi(64, 0, 0, 0.0),
    lambda: generate_distorted_grid(64, 0.3, 1),
], ids=["voronoi-distorted", "voronoi-undistorted", "grid"])
def test_generators_validate_each_cell_once(monkeypatch, generate):
    # PolyMesh's check (signed area and simplicity, one stack per vertex
    # count) plus the unit-area sum; the generators pre-check nothing that
    # PolyMesh checks again, and no check runs cell by cell
    calls = _count_validation(monkeypatch)
    mesh = generate()
    assert calls == {"signed_areas": 2 * mesh.n_cells, "are_simple": mesh.n_cells}


def test_generators_chain_the_last_topology_error(monkeypatch):
    # the Voronoi distortion's halvings; the grid has no retry to chain
    monkeypatch.setattr(sfvem.mesh, "are_simple", lambda pts: np.zeros(len(pts), bool))
    with pytest.raises(MeshGenerationError) as info:
        generate_voronoi(16, 0, 0, 0.25)
    assert isinstance(info.value.__cause__, MeshTopologyError)


# ---------------------------------------------------------------------------
# audit catalog


def test_catalog_has_one_polygon_per_vertex_count():
    cat = catalog_polygons()
    assert len(cat) == 18
    assert [p.n_vertices for p in cat] == list(range(3, 21))


def test_catalog_names():
    by_n = {p.n_vertices: p.name for p in catalog_polygons()}
    assert by_n[5] == "regular"
    assert by_n[16] == "hanging-nodes"
    assert by_n[18] == "collapsing-edge"
    assert by_n[8] == "star"
    assert by_n[4] == "concave"
    assert by_n[3] == "irregular"


def test_catalog_polygons_simple_and_ccw():
    from sfvem.geometry import is_simple
    for p in catalog_polygons():
        assert signed_area(p.vertices) > 0, p.name
        assert is_simple(p.vertices), p.name


def test_hanging_nodes_16_has_collinear_triples():
    p = next(q for q in catalog_polygons()
             if q.n_vertices == 16 and q.name == "hanging-nodes")
    V = p.vertices
    collinear = 0
    for i in range(16):
        a, b, c = V[i - 1], V[i], V[(i + 1) % 16]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(cross) < 1e-12 * diameter(V) ** 2:
            collinear += 1
    assert collinear >= 2


def test_collapsing_edge_18_is_tiny():
    p = next(q for q in catalog_polygons() if q.name == "collapsing-edge")
    V = p.vertices
    lengths = np.hypot(*(np.roll(V, -1, axis=0) - V).T)
    assert lengths.min() <= 1e-3 * diameter(V)


def test_concave_entries_have_reflex_angle():
    for p in catalog_polygons():
        if p.name != "concave":
            continue
        V = p.vertices
        n = len(V)
        crosses = []
        for i in range(n):
            a, b, c = V[i - 1], V[i], V[(i + 1) % n]
            crosses.append((b[0] - a[0]) * (c[1] - b[1])
                           - (b[1] - a[1]) * (c[0] - b[0]))
        assert min(crosses) < 0, f"no reflex vertex in concave N={n}"


def test_catalog_is_reproducible():
    # another interpreter builds the same catalog, bit for bit
    dump = ("from sfvem.mesh import catalog_polygons\n"
            "for p in catalog_polygons():\n"
            "    print(p.name, p.vertices.tobytes().hex())\n")
    src = str(Path(sfvem.mesh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    fresh = subprocess.run([sys.executable, "-c", dump], env=env, check=True,
                           capture_output=True, text=True, timeout=120).stdout
    assert fresh == "".join(f"{p.name} {p.vertices.tobytes().hex()}\n"
                            for p in catalog_polygons())


def test_catalog_is_built_once_and_read_only():
    a = catalog_polygons()
    assert catalog_polygons() is a
    for p in a:
        assert not p.vertices.flags.writeable, p.name
        with pytest.raises(ValueError, match="read-only"):
            p.vertices[0, 0] = 0.0


def test_regular_entries_on_unit_circle():
    for p in catalog_polygons():
        if p.name == "regular":
            radii = np.hypot(p.vertices[:, 0], p.vertices[:, 1])
            np.testing.assert_allclose(radii, 1.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# quality report


def test_quality_uniform_grid():
    rep = quality_report(generate_distorted_grid(2, delta=0.0))
    assert rep.h == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-15)
    np.testing.assert_allclose(rep.edge_ratios, 1.0 / np.sqrt(2.0), rtol=1e-14)
    assert rep.kappa == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)


def test_quality_single_square():
    rep = quality_report(unit_square_mesh())
    assert rep.cell_diameters[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_quality_distorted_grid_positive():
    rep = quality_report(generate_distorted_grid(8, delta=0.3, seed=42))
    assert rep.kappa > 0
    assert rep.h > 0
    assert len(rep.cell_diameters) == 64
