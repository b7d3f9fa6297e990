import numpy as np
import pytest

from sfvem.geometry import is_simple, polygon_stack, signed_area

from oracles import first_moments

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])


def one(vertices):
    """The record of one polygon, a stack of one."""
    return polygon_stack(vertices[None])


def test_signed_area_square():
    assert signed_area(SQUARE) == pytest.approx(1.0, abs=1e-15)
    assert signed_area(SQUARE[::-1]) == pytest.approx(-1.0, abs=1e-15)


def test_signed_area_triangle():
    assert signed_area(TRIANGLE) == pytest.approx(1.0, abs=1e-15)


def test_centroid_square():
    np.testing.assert_allclose(one(SQUARE).frame.center[0], [0.5, 0.5],
                               atol=1e-15)


def test_centroid_triangle():
    np.testing.assert_allclose(one(TRIANGLE).frame.center[0], [2 / 3, 1 / 3],
                               atol=1e-14)


def test_centroid_translation_invariance():
    shift = np.array([3.0, -2.0])
    np.testing.assert_allclose(one(SQUARE + shift).frame.center[0],
                               one(SQUARE).frame.center[0] + shift, atol=1e-13)


def test_first_moments_square():
    # the frame centre is the centroid: the first moments over the area
    poly = one(SQUARE)
    mx, my = poly.area[0] * poly.frame.center[0]
    assert mx == pytest.approx(0.5, abs=1e-15)
    assert my == pytest.approx(0.5, abs=1e-15)


def test_first_moments_match_centroid_times_area():
    pts = np.array([[0.0, 0.0], [3.0, 0.5], [2.5, 2.0], [0.5, 1.5]])
    poly = one(pts)
    area, c = poly.area[0], poly.frame.center[0]
    mx, my = first_moments(pts)
    assert mx == pytest.approx(area * c[0], rel=1e-14)
    assert my == pytest.approx(area * c[1], rel=1e-14)


def test_diameter_square():
    assert one(SQUARE).frame.scale[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_diameter_is_max_pairwise_distance():
    rng = np.random.default_rng(3)
    pts = rng.random((12, 2))
    d = max(np.hypot(*(p - q)) for p in pts for q in pts)
    assert one(pts).frame.scale[0] == pytest.approx(d, rel=1e-15)


@pytest.mark.parametrize("vertices", [
    np.zeros((3, 2)),                                  # zero diameter
    np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]),  # NaN diameter
])
def test_record_without_a_frame_is_rejected_when_built(vertices):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="scale"):
        one(vertices)


def test_edge_lengths_normals_square():
    poly = one(SQUARE)
    np.testing.assert_allclose(poly.lengths[0], np.ones(4), atol=1e-15)
    expected = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(poly.normals[0], expected, atol=1e-15)
    np.testing.assert_allclose(poly.edges[0], np.roll(SQUARE, -1, axis=0) - SQUARE,
                               atol=1e-15)


def test_normals_are_unit_and_outward():
    pts = np.array([[0.0, 0.0], [2.0, 0.3], [1.7, 1.9], [0.2, 1.4]])
    poly = one(pts)
    normals = poly.normals[0]
    np.testing.assert_allclose(np.hypot(normals[:, 0], normals[:, 1]),
                               np.ones(4), atol=1e-14)
    mids = 0.5 * (pts + np.roll(pts, -1, axis=0))
    assert np.all(np.einsum("ij,ij->i", mids - poly.frame.center[0], normals) > 0)


def test_outward_flux_of_constant_field_vanishes():
    # closed polygon: sum of length-weighted normals is zero
    pts = np.array([[0.0, 0.0], [4.0, 1.0], [3.0, 3.0], [1.0, 4.0], [-1.0, 2.0]])
    poly = one(pts)
    np.testing.assert_allclose(poly.lengths[0] @ poly.normals[0], [0.0, 0.0], atol=1e-13)


def test_is_simple_accepts_convex_and_nonconvex():
    assert is_simple(SQUARE)
    chevron = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 2.0]])
    assert is_simple(chevron)


def test_is_simple_rejects_bowtie():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert not is_simple(bowtie)
