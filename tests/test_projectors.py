import logging

import numpy as np
import pytest

from sfvem.errors import DegenerateElementError, SingularGramError
from sfvem.geometry import polygon_geometry
from sfvem.mesh import catalog_polygons
from sfvem.poly import HarmonicBasis, ScaledFrame
from sfvem.projectors import (dof_matrix, hgrad_gram, hgrad_matrix,
                              nabla_matrix, pi0_row, _solve_gram)
from sfvem.quadrature import gauss_legendre, polygon_rule

from oracles import trapezoid_boundary_flux, trapezoid_boundary_mean

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_GEO = polygon_geometry(SQUARE)
RNG = np.random.default_rng(29)


def linear(pts, a=2.0, b=3.0, c=-1.0):
    return a * pts[:, 0] + b * pts[:, 1] + c


def boundary_rhs_oracle(vertices, basis, n_nodes=24):
    """<hat_j, dh_i/dn> by brute-force edge Gauss, an independent path to
    the projector right-hand side (exact: the trace is piecewise linear)."""
    vertices = np.asarray(vertices, dtype=float)
    n = len(vertices)
    rule = gauss_legendre(n_nodes)
    t = 0.5 * (rule.nodes + 1.0)
    w = 0.5 * rule.weights
    B = np.zeros((basis.size, n))
    for e in range(n):
        j = (e + 1) % n
        a, b = vertices[e], vertices[j]
        L = float(np.hypot(*(b - a)))
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        normal = np.array([(b - a)[1], -(b - a)[0]]) / L
        dn = basis.gradients(pts) @ normal
        B[:, e] += L * dn @ (w * (1.0 - t))
        B[:, j] += L * dn @ (w * t)
    return B


# ---------------------------------------------------------------------------
# nabla projection


def test_reproduces_linears_on_catalog():
    for p in catalog_polygons():
        poly = polygon_geometry(p.vertices)
        frame = ScaledFrame.from_polygon(poly)
        values = linear(p.vertices)
        coef = nabla_matrix(poly, frame) @ values
        got = dof_matrix(p.vertices, frame) @ coef
        scale = np.abs(values).max()
        assert np.abs(got - values).max() <= 1e-13 * scale, p.name
        np.testing.assert_allclose(coef[1:] / frame.scale, [2.0, 3.0],
                                   atol=1e-13)


def test_constant_projects_to_itself():
    frame = ScaledFrame.from_polygon(SQUARE_GEO)
    coef = nabla_matrix(SQUARE_GEO, frame) @ np.ones(4)
    np.testing.assert_allclose(coef[1:] / frame.scale, [0.0, 0.0], atol=1e-15)
    point = np.array([[0.3, 0.9]])
    assert (dof_matrix(point, frame) @ coef)[0] == pytest.approx(1.0, abs=1e-15)


def test_x_squared_on_unit_square():
    # dof values of x^2; the virtual trace is linear on each edge, so the
    # gradient part is the trapezoid flux and the constant comes from
    # matching the trapezoid boundary mean
    values = SQUARE[:, 0] ** 2
    frame = ScaledFrame.from_polygon(SQUARE_GEO)
    coef = nabla_matrix(SQUARE_GEO, frame) @ values
    flux = trapezoid_boundary_flux(SQUARE, values)  # = (1, 0) by hand
    np.testing.assert_allclose(flux, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(coef[1:] / frame.scale, flux / 1.0, atol=1e-14)
    v_mean = trapezoid_boundary_mean(SQUARE, values)             # 1/2
    g_mean = trapezoid_boundary_mean(SQUARE, SQUARE[:, 0] - 0.5)  # 0
    assert v_mean == pytest.approx(0.5, abs=1e-15)
    # projection = (x - 1/2) + (v_mean - g_mean) = x
    pts = RNG.uniform(0, 1, (20, 2))
    np.testing.assert_allclose(dof_matrix(pts, frame) @ coef, pts[:, 0],
                               atol=1e-14)
    assert v_mean - g_mean == pytest.approx(0.5, abs=1e-14)


def test_degenerate_element_rejected():
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]])
    with pytest.raises(DegenerateElementError):
        nabla_matrix(polygon_geometry(sliver), ScaledFrame.from_polygon(SQUARE_GEO))


# ---------------------------------------------------------------------------
# harmonic gradient gram


def test_gram_ell0_unit_square_closed_form():
    frame = ScaledFrame.from_polygon(SQUARE_GEO)
    basis = HarmonicBasis(frame, 0)
    G = hgrad_gram(SQUARE_GEO, basis, mode="boundary")
    # gradients are the constant fields (1/h, 0) and (0, 1/h), h = sqrt(2)
    want = np.eye(2) * (1.0 / 2.0)
    np.testing.assert_allclose(G, want, atol=1e-15)


def test_gram_boundary_equals_area_path():
    # spot-check; the full 18-polygon ell <= 10 sweep runs in acceptance
    for p in catalog_polygons()[::6]:
        poly = polygon_geometry(p.vertices)
        frame = ScaledFrame.from_polygon(poly)
        for ell in (0, 3, 7):
            basis = HarmonicBasis(frame, ell)
            Gb = hgrad_gram(poly, basis, mode="boundary")
            Ga = hgrad_gram(poly, basis, mode="area")
            scale = np.abs(Gb).max()
            assert np.abs(Gb - Ga).max() <= 1e-12 * scale, (p.name, ell)


def test_gram_symmetric_exactly():
    p = catalog_polygons()[4]
    poly = polygon_geometry(p.vertices)
    basis = HarmonicBasis(ScaledFrame.from_polygon(poly), 5)
    G = hgrad_gram(poly, basis, mode="boundary")
    np.testing.assert_array_equal(G, G.T)


def test_gram_positive_definite_on_catalog():
    for p in catalog_polygons():
        poly = polygon_geometry(p.vertices)
        basis = HarmonicBasis(ScaledFrame.from_polygon(poly), 4)
        G = hgrad_gram(poly, basis, mode="boundary")
        eig = np.linalg.eigvalsh(G)
        assert eig[0] > 1e-12 * eig[-1], p.name


def test_gram_rejects_unknown_mode():
    basis = HarmonicBasis(ScaledFrame.from_polygon(SQUARE_GEO), 1)
    with pytest.raises(ValueError, match="mode"):
        hgrad_gram(SQUARE_GEO, basis, mode="volume")


# ---------------------------------------------------------------------------
# harmonic gradient projection


def test_linear_dofs_project_to_first_pair():
    for p in catalog_polygons()[::5]:
        poly = polygon_geometry(p.vertices)
        frame = ScaledFrame.from_polygon(poly)
        basis = HarmonicBasis(frame, 4)
        P, _G = hgrad_matrix(poly, basis)
        d = P @ linear(p.vertices, 2.0, 3.0, -1.0)
        # projected gradient is the constant (2, 3)
        pts = frame.center[None, :] + RNG.uniform(-0.2, 0.2, (9, 2))
        grads = np.einsum("j,jpd->pd", d, basis.gradients(pts))
        np.testing.assert_allclose(grads[:, 0], 2.0, atol=1e-12)
        np.testing.assert_allclose(grads[:, 1], 3.0, atol=1e-12)
        # all energy sits on the k=1 coefficients
        assert np.abs(d[2:]).max() <= 1e-12 * max(1.0, np.abs(d).max())


def test_constant_dofs_project_to_zero():
    basis = HarmonicBasis(ScaledFrame.from_polygon(SQUARE_GEO), 3)
    P, _G = hgrad_matrix(SQUARE_GEO, basis)
    assert np.abs(P @ np.full(4, 7.0)).max() <= 1e-13


def test_orthogonality_residual_z2_on_square():
    # dofs of zhat^2 components: the Gram residual G d - b vanishes when b
    # is recomputed along an independent high-node boundary path. (Re zhat^2
    # is zero at the square's corners, so the dof norm enters the scale.)
    frame = ScaledFrame.from_polygon(SQUARE_GEO)
    basis = HarmonicBasis(frame, 2)
    P, G = hgrad_matrix(SQUARE_GEO, basis)
    B_oracle = boundary_rhs_oracle(SQUARE, basis)
    for row in (2, 3):  # Re(zhat^2), Im(zhat^2)
        values = basis.values(SQUARE)[row]
        d = P @ values
        b = B_oracle @ values
        scale = (np.abs(G).max() * np.abs(d).max() + np.abs(b).max()
                 + np.abs(values).max())
        assert np.abs(G @ d - b).max() <= 1e-12 * scale


def test_orthogonality_residual_random_dofs_catalog():
    for p in catalog_polygons()[::4]:
        poly = polygon_geometry(p.vertices)
        frame = ScaledFrame.from_polygon(poly)
        basis = HarmonicBasis(frame, 3)
        values = RNG.standard_normal(p.n_vertices)
        P, G = hgrad_matrix(poly, basis)
        d = P @ values
        b = boundary_rhs_oracle(p.vertices, basis) @ values
        scale = np.abs(G).max() * np.abs(d).max() + np.abs(b).max()
        assert np.abs(G @ d - b).max() <= 1e-12 * scale, p.name


def test_idempotence_on_harmonic_coefficients():
    # a field already in the span projects to itself: d = G^-1 (G c) = c
    for p in catalog_polygons()[::3]:
        poly = polygon_geometry(p.vertices)
        basis = HarmonicBasis(ScaledFrame.from_polygon(poly), 6)
        G = hgrad_gram(poly, basis, mode="boundary")
        c = RNG.standard_normal(basis.size)
        d = _solve_gram(G, G @ c)
        assert np.abs(d - c).max() <= 1e-12 * np.abs(c).max(), p.name


def test_projection_energy_grows_with_ell():
    # enlarging the target space can only increase the captured energy
    for p in catalog_polygons()[::4]:
        poly = polygon_geometry(p.vertices)
        frame = ScaledFrame.from_polygon(poly)
        values = RNG.standard_normal(p.n_vertices)
        energies = []
        for ell in range(0, 6):
            basis = HarmonicBasis(frame, ell)
            P, G = hgrad_matrix(poly, basis)
            d = P @ values
            energies.append(float(d @ G @ d))
        for lo, hi in zip(energies, energies[1:]):
            assert hi >= lo - 1e-12 * max(1.0, lo), p.name


def test_singular_gram_degrades_with_warning(caplog):
    G = np.diag([1.0, 1e-15])
    with caplog.at_level(logging.WARNING, logger="sfvem.projectors"):
        out = _solve_gram(G, np.array([1.0, 0.0]))
    assert "pseudo-inverse" in caplog.text
    assert np.isfinite(out).all()


def test_nonpositive_gram_raises():
    with pytest.raises(SingularGramError):
        _solve_gram(np.diag([-1.0, -2.0]), np.zeros(2))


# ---------------------------------------------------------------------------
# mean projection


def test_pi0_of_constant():
    frame = ScaledFrame.from_polygon(SQUARE_GEO)
    row = pi0_row(SQUARE_GEO, frame, nabla_matrix(SQUARE_GEO, frame))
    assert row @ np.ones(4) == pytest.approx(1.0, abs=1e-15)


def test_pi0_of_x_on_unit_square():
    frame = ScaledFrame.from_polygon(SQUARE_GEO)
    row = pi0_row(SQUARE_GEO, frame, nabla_matrix(SQUARE_GEO, frame))
    assert row @ SQUARE[:, 0] == pytest.approx(0.5, abs=1e-14)


def test_pi0_matches_quadrature_of_linear_projection():
    for p in catalog_polygons()[::4]:
        poly = polygon_geometry(p.vertices)
        frame = ScaledFrame.from_polygon(poly)
        values = RNG.standard_normal(p.n_vertices)
        nabla = nabla_matrix(poly, frame)
        coef = nabla @ values
        got = pi0_row(poly, frame, nabla) @ values
        rule = polygon_rule(p.vertices, 1)
        area = rule.weights.sum()
        want = rule.integrate(lambda q: dof_matrix(q, frame) @ coef) / area
        assert got == pytest.approx(want, abs=1e-13 * max(1, abs(want))), p.name
