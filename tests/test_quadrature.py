import numpy as np
import pytest

from sfvem.mesh import catalog_polygons
from sfvem.poly import Poly2
from sfvem.quadrature import QuadratureError, gauss_legendre, polygon_rule, polygon_rules

from oracles import monomial_integral, star_monomial_integrals

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
LSHAPE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                   [1.0, 2.0], [0.0, 2.0]])
# thin U whose vertex average falls outside it: fan triangles about the
# average turn clockwise and carry negative weights
USHAPE = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.6, 3.0],
                   [2.6, 0.4], [0.4, 0.4], [0.4, 3.0], [0.0, 3.0]])
# strictly simple hexagon with three collinear vertices on x = -1/4 (hanging
# nodes), not star shaped about its vertex average
HEXAGON = np.array([[0.75, 0.75], [-0.5, 0.5], [-0.25, 0.25], [-0.25, -0.125],
                    [-0.25, -0.5], [-0.25, -0.75]])


# ---------------------------------------------------------------------------
# Gauss-Legendre rules on [0, 1]


def test_one_point_rule():
    t, w = gauss_legendre(1)
    np.testing.assert_allclose(t, [0.5], atol=1e-16)
    np.testing.assert_allclose(w, [1.0], atol=1e-16)


def test_two_point_rule():
    t, w = gauss_legendre(2)
    r = 0.5 / np.sqrt(3.0)
    np.testing.assert_allclose(np.sort(t), [0.5 - r, 0.5 + r], atol=1e-15)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_three_point_rule():
    t, w = gauss_legendre(3)
    r = 0.5 * np.sqrt(0.6)
    np.testing.assert_allclose(np.sort(t), [0.5 - r, 0.5, 0.5 + r], atol=1e-15)
    np.testing.assert_allclose(np.sort(w), [5 / 18, 5 / 18, 4 / 9], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 17, 32])
def test_rule_symmetry_and_weight_sum(n):
    t, w = gauss_legendre(n)
    assert len(t) == len(w) == n
    # the nodes mirror about 1/2 to the rounding of the map, the weights exactly
    np.testing.assert_allclose(t + t[::-1], np.ones(n), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(w, w[::-1])
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    assert np.all(w > 0) and np.all((t > 0) & (t < 1))


@pytest.mark.parametrize("n", [1, 2, 4, 7, 12, 20])
def test_polynomial_exactness_to_2n_minus_1(n):
    t, w = gauss_legendre(n)
    for k in range(2 * n):
        assert float(w @ t**k) == pytest.approx(1.0 / (k + 1), abs=5e-15)


def test_rule_is_shared_and_read_only():
    t, w = gauss_legendre(4)
    assert gauss_legendre(4)[0] is t and gauss_legendre(4)[1] is w
    assert not t.flags.writeable and not w.flags.writeable


def test_rule_requires_positive_count():
    with pytest.raises(QuadratureError):
        gauss_legendre(0)


# ---------------------------------------------------------------------------
# polygon rules


def test_weights_sum_to_area():
    for pts, area in [(SQUARE, 1.0), (LSHAPE, 3.0), (USHAPE, 3.0 * 3.0 - 2.2 * 2.6)]:
        rule = polygon_rule(pts, 4)
        assert rule.weights.sum() == pytest.approx(area, rel=1e-13)


@pytest.mark.parametrize("pts", [SQUARE, LSHAPE, USHAPE, HEXAGON])
def test_monomial_exactness_against_divergence_oracle(pts):
    degree = 20 if pts is HEXAGON else 12
    rule = polygon_rule(pts, degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = rule.integrate(lambda p: p[:, 0] ** a * p[:, 1] ** b)
            want = monomial_integral(pts, a, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (a, b)


def _non_star_polygons_with_hanging_nodes(count, seed=21):
    # seeded polygons star shaped about the origin (vertices at increasing
    # angles, no gap of pi or more) with zero to two collinear points on
    # each edge, kept where they have a collinear point and are not star
    # shaped about their vertex average
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
        if gaps.min() < 0.05 or gaps.max() >= np.pi:
            continue
        corners = rng.uniform(0.05, 1.0, n)[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)])
        edges = np.roll(corners, -1, axis=0) - corners
        v = np.concatenate([
            corners[i] + np.r_[0.0, np.sort(rng.uniform(0.1, 0.9, rng.integers(0, 3)))][:, None]
            * edges[i] for i in range(n)])
        a = v - v.mean(axis=0)
        b = np.roll(a, -1, axis=0)
        if len(v) > n and (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] < 0.0).any():
            out.append(v)
    return out


def test_non_star_polygons_with_hanging_nodes_are_exact():
    # every monomial up to degree 20 within 1e-13 of sum |w m| of the
    # boundary formula, on 500 polygons whose rules have negative weights
    degree = 20
    k = np.arange(degree + 1)
    low = k[:, None] + k[None, :] <= degree
    for v in _non_star_polygons_with_hanging_nodes(500):
        rule = polygon_rule(v, degree)
        assert (rule.weights < 0.0).any()
        x, y = (np.vander(rule.points[:, i], degree + 1, increasing=True) for i in (0, 1))
        got = (x.T * rule.weights) @ y
        scale = np.abs(x.T * rule.weights) @ np.abs(y)
        err = np.abs(got - star_monomial_integrals(v, degree))
        assert (err[low] <= 1e-13 * scale[low]).all(), v.tolist()


def test_exactness_on_catalog_sample():
    # spot-check three shapes; the full sweep runs in the acceptance suite
    by_key = {(p.name, p.n_vertices): p for p in catalog_polygons()}
    for key in (("irregular", 3), ("star", 8), ("hanging-nodes", 13)):
        pts = by_key[key].vertices
        rule = polygon_rule(pts, 9)
        for a, b in [(0, 0), (3, 2), (5, 4), (9, 0), (0, 9)]:
            got = rule.integrate(lambda p: p[:, 0] ** a * p[:, 1] ** b)
            want = monomial_integral(pts, a, b)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_points_inside_bounding_box():
    rule = polygon_rule(LSHAPE, 6)
    assert rule.points[:, 0].min() >= 0.0 and rule.points[:, 0].max() <= 2.0
    assert rule.points[:, 1].min() >= 0.0 and rule.points[:, 1].max() <= 2.0


def test_degree_zero_requests_still_integrate_constants():
    rule = polygon_rule(SQUARE, 0)
    assert rule.integrate(lambda p: np.full(len(p), 3.0)) == pytest.approx(3.0)


def test_integrate_helper_matches_manual_dot():
    rule = polygon_rule(SQUARE, 3)
    f = lambda p: np.sin(p[:, 0]) + p[:, 1]
    assert rule.integrate(f) == pytest.approx(float(rule.weights @ f(rule.points)))


def test_integrate_on_a_stack_gives_each_cell_its_integral():
    # a stack's rule carries a leading cell axis; f still maps (n, 2) points
    # to (n,) values, so a Poly2 integrates on one polygon and on a stack;
    # the dart is not star shaped about its vertex average
    dart = np.array([[0.0, 0.0], [3.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
    stack = np.stack([SQUARE, 2.0 * SQUARE + np.array([5.0, -1.0]), dart])
    rule = polygon_rules(stack, 2)
    f = Poly2([[0.5, 0.0, 1.0], [0.0, -2.0, 0.0], [3.0, 0.0, 0.0]])  # 1/2 + y^2 - 2xy + 3x^2
    got = rule.integrate(f)
    assert got.shape == (3,)
    for v, g in zip(stack, got):
        assert g == pytest.approx(polygon_rule(v, 2).integrate(f), rel=1e-14)
        want = (0.5 * monomial_integral(v, 0, 0) + monomial_integral(v, 0, 2)
                - 2.0 * monomial_integral(v, 1, 1) + 3.0 * monomial_integral(v, 2, 0))
        assert g == pytest.approx(want, rel=1e-12)
    assert isinstance(polygon_rule(SQUARE, 2).integrate(f), float)


def test_scaling_and_translation():
    # integral over a shifted, scaled square follows the change of variables
    pts = 2.0 * SQUARE + np.array([5.0, -1.0])
    rule = polygon_rule(pts, 2)
    got = rule.integrate(lambda p: p[:, 0])
    assert got == pytest.approx(4.0 * 6.0, rel=1e-13)  # area 4, mean x 6


def test_rejects_bad_input():
    with pytest.raises(QuadratureError):
        polygon_rule(SQUARE, -1)
    with pytest.raises(QuadratureError):
        polygon_rule(SQUARE[:2], 2)
    with pytest.raises(QuadratureError):
        polygon_rule(SQUARE[::-1], 2)  # clockwise


def test_high_degree_rule_is_finite_sized():
    rule = polygon_rule(SQUARE, 40)
    assert np.isfinite(rule.weights).all()
    assert len(rule.weights) < 4 * 22 * 21  # bounded triangle fan cost
