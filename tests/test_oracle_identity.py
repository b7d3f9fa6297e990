"""The array-level element kernels against their edge-by-edge and
triangle-by-triangle loop versions in ``oracles``.

The loops perform the same floating-point operations per entry, so the
comparison is exact equality, not a tolerance: the benchmark's degree-33
load amplifies any change in the quadrature points or weights far beyond
its reference tolerance.
"""
import numpy as np
import pytest

from sfvem.element import effective_ell
from sfvem.mesh import catalog_polygons, generate_distorted_grid, generate_voronoi
from sfvem.poly import ScaledFrame, harmonic_basis
from sfvem.projectors import hgrad_matrix, nabla_matrix
from sfvem.quadrature import _fan_triangles, polygon_rule

from oracles import loop_hgrad_matrix, loop_nabla_matrix, loop_polygon_rule

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


def test_nabla_matrix_matches_edge_loop(polygons):
    for i, v in enumerate(polygons):
        frame = ScaledFrame.from_polygon(v)
        assert np.array_equal(nabla_matrix(v, frame), loop_nabla_matrix(v, frame)), i


def test_hgrad_matrix_matches_edge_loop(polygons):
    for i, v in enumerate(polygons):
        frame = ScaledFrame.from_polygon(v)
        for offset in (-1, 0, 2):
            basis = harmonic_basis(frame, effective_ell(len(v), offset))
            P, G = hgrad_matrix(v, basis)
            P_loop, G_loop = loop_hgrad_matrix(v, basis)
            assert np.array_equal(G, G_loop), (i, offset)
            assert np.array_equal(P, P_loop), (i, offset)
