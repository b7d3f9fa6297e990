import logging

import numpy as np
import pytest

from sfvem.element import effective_ell
from sfvem.errors import DegenerateElementError, SingularGramError
from sfvem.geometry import polygon_stack
from sfvem.mesh import catalog_polygons, generate_distorted_grid, generate_voronoi
from sfvem.poly import HarmonicBasis, build_benchmark_coefficients, harmonic_basis
from sfvem.projectors import (_solve_grams, dof_matrix, hgrad_matrices, hgrad_matrix,
                              nabla_matrices, nabla_matrix)
from sfvem.quadrature import gauss_legendre, polygon_rules

from oracles import (area_gram, moment_mean_rows, trapezoid_boundary_flux,
                     trapezoid_boundary_mean, volume_diffusion_gram)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_GEO = polygon_stack(SQUARE[None])
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
        dn = basis.gradients(pts[None])[0] @ normal
        B[:, e] += L * dn @ (w * (1.0 - t))
        B[:, j] += L * dn @ (w * t)
    return B


# ---------------------------------------------------------------------------
# nabla projection


def test_reproduces_linears_on_catalog():
    for p in catalog_polygons():
        frame = polygon_stack(p.vertices[None]).frame
        values = linear(p.vertices)
        coef = nabla_matrix(p.vertices) @ values
        got = dof_matrix(p.vertices[None], frame)[0] @ coef
        scale = np.abs(values).max()
        assert np.abs(got - values).max() <= 1e-13 * scale, p.name
        np.testing.assert_allclose(coef[1:] / frame.scale, [2.0, 3.0],
                                   atol=1e-13)


def test_constant_projects_to_itself():
    frame = SQUARE_GEO.frame
    coef = nabla_matrix(SQUARE) @ np.ones(4)
    np.testing.assert_allclose(coef[1:] / frame.scale, [0.0, 0.0], atol=1e-15)
    point = np.array([[[0.3, 0.9]]])
    assert (dof_matrix(point, frame)[0] @ coef)[0] == pytest.approx(1.0, abs=1e-15)


def test_x_squared_on_unit_square():
    # dof values of x^2; the virtual trace is linear on each edge, so the
    # gradient part is the trapezoid flux and the constant comes from
    # matching the trapezoid boundary mean
    values = SQUARE[:, 0] ** 2
    frame = SQUARE_GEO.frame
    coef = nabla_matrix(SQUARE) @ values
    flux = trapezoid_boundary_flux(SQUARE, values)  # = (1, 0) by hand
    np.testing.assert_allclose(flux, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(coef[1:] / frame.scale, flux / 1.0, atol=1e-14)
    v_mean = trapezoid_boundary_mean(SQUARE, values)             # 1/2
    g_mean = trapezoid_boundary_mean(SQUARE, SQUARE[:, 0] - 0.5)  # 0
    assert v_mean == pytest.approx(0.5, abs=1e-15)
    # projection = (x - 1/2) + (v_mean - g_mean) = x
    pts = RNG.uniform(0, 1, (20, 2))
    np.testing.assert_allclose(dof_matrix(pts[None], frame)[0] @ coef, pts[:, 0],
                               atol=1e-14)
    assert v_mean - g_mean == pytest.approx(0.5, abs=1e-14)


def test_degenerate_element_rejected():
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]])
    with pytest.raises(DegenerateElementError):
        nabla_matrix(sliver)


# ---------------------------------------------------------------------------
# harmonic gradient gram


def test_gram_ell0_unit_square_closed_form():
    G = hgrad_matrix(SQUARE, 0)[1]
    # gradients are the constant fields (1/h, 0) and (0, 1/h), h = sqrt(2)
    want = np.eye(2) * (1.0 / 2.0)
    np.testing.assert_allclose(G, want, atol=1e-15)


def test_gram_boundary_equals_area_path():
    # spot-check; the full 18-polygon ell <= 10 sweep runs in acceptance
    for p in catalog_polygons()[::6]:
        frame = polygon_stack(p.vertices[None]).frame
        for ell in (0, 3, 7):
            Gb = hgrad_matrix(p.vertices, ell)[1]
            Ga = area_gram(p.vertices, HarmonicBasis(frame, ell))
            scale = np.abs(Gb).max()
            assert np.abs(Gb - Ga).max() <= 1e-12 * scale, (p.name, ell)


def _spd(seed):
    A = np.random.default_rng(seed).standard_normal((2, 2))
    return A @ A.T + 0.1 * np.eye(2)


@pytest.mark.parametrize("K", [build_benchmark_coefficients().K, _spd(13)],
                         ids=["benchmark", "random"])
def test_edge_node_diffusion_gram_matches_volume_rules(K):
    # the homogeneous-function boundary form against the polygon rule of the
    # benchmark load's degree 33 and the integrand's own degree 2 ell, on
    # catalog polygons, mesh cells and a U whose centroid lies outside it
    grid, voronoi = generate_distorted_grid(8, 0.3, 5), generate_voronoi(64, 3, 7, 0.25)
    ushape = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.6, 3.0],
                       [2.6, 0.4], [0.4, 0.4], [0.4, 3.0], [0.0, 3.0]])
    polygons = ([p.vertices for p in catalog_polygons()] + [ushape]
                + [m.cell_points(i) for m in (grid, voronoi) for i in range(m.n_cells)])
    groups: dict = {}
    for v in polygons:
        groups.setdefault(len(v), []).append(v)
    for n, group in groups.items():
        poly = polygon_stack(np.array(group))
        for offset in (0, 1, 2):
            ell = effective_ell(n, offset)
            MK = hgrad_matrices(poly, harmonic_basis(poly.frame, ell), K)[2]
            for i, v in enumerate(group):
                for degree in (33, 2 * ell):
                    ref = volume_diffusion_gram(v, K, ell, degree)
                    assert np.abs(MK[i] - ref).max() <= 1e-13 * np.abs(ref).max(), (
                        n, i, offset, degree)


def test_gram_symmetric_exactly():
    p = catalog_polygons()[4]
    G = hgrad_matrix(p.vertices, 5)[1]
    np.testing.assert_array_equal(G, G.T)


def test_gram_positive_definite_on_catalog():
    for p in catalog_polygons():
        G = hgrad_matrix(p.vertices, 4)[1]
        eig = np.linalg.eigvalsh(G)
        assert eig[0] > 1e-12 * eig[-1], p.name


# ---------------------------------------------------------------------------
# harmonic gradient projection


def test_linear_dofs_project_to_first_pair():
    for p in catalog_polygons()[::5]:
        frame = polygon_stack(p.vertices[None]).frame
        basis = HarmonicBasis(frame, 4)
        P, _G = hgrad_matrix(p.vertices, 4)
        d = P @ linear(p.vertices, 2.0, 3.0, -1.0)
        # projected gradient is the constant (2, 3)
        pts = frame.center + RNG.uniform(-0.2, 0.2, (9, 2))
        grads = np.einsum("j,jpd->pd", d, basis.gradients(pts[None])[0])
        np.testing.assert_allclose(grads[:, 0], 2.0, atol=1e-12)
        np.testing.assert_allclose(grads[:, 1], 3.0, atol=1e-12)
        # all energy sits on the k=1 coefficients
        assert np.abs(d[2:]).max() <= 1e-12 * max(1.0, np.abs(d).max())


def test_constant_dofs_project_to_zero():
    P, _G = hgrad_matrix(SQUARE, 3)
    assert np.abs(P @ np.full(4, 7.0)).max() <= 1e-13


def test_orthogonality_residual_z2_on_square():
    # dofs of zhat^2 components: the Gram residual G d - b vanishes when b
    # is recomputed along an independent high-node boundary path. (Re zhat^2
    # is zero at the square's corners, so the dof norm enters the scale.)
    basis = HarmonicBasis(SQUARE_GEO.frame, 2)
    P, G = hgrad_matrix(SQUARE, 2)
    B_oracle = boundary_rhs_oracle(SQUARE, basis)
    for row in (2, 3):  # Re(zhat^2), Im(zhat^2)
        values = basis.values(SQUARE[None])[0, row]
        d = P @ values
        b = B_oracle @ values
        scale = (np.abs(G).max() * np.abs(d).max() + np.abs(b).max()
                 + np.abs(values).max())
        assert np.abs(G @ d - b).max() <= 1e-12 * scale


def test_orthogonality_residual_random_dofs_catalog():
    for p in catalog_polygons()[::4]:
        basis = HarmonicBasis(polygon_stack(p.vertices[None]).frame, 3)
        values = RNG.standard_normal(p.n_vertices)
        P, G = hgrad_matrix(p.vertices, 3)
        d = P @ values
        b = boundary_rhs_oracle(p.vertices, basis) @ values
        scale = np.abs(G).max() * np.abs(d).max() + np.abs(b).max()
        assert np.abs(G @ d - b).max() <= 1e-12 * scale, p.name


def test_idempotence_on_harmonic_coefficients():
    # a field already in the span projects to itself: d = G^-1 (G c) = c
    for p in catalog_polygons()[::3]:
        G = hgrad_matrix(p.vertices, 6)[1]
        c = RNG.standard_normal(len(G))
        d = _solve_grams(G[None], (G @ c)[None, :, None])[0, :, 0]
        assert np.abs(d - c).max() <= 1e-12 * np.abs(c).max(), p.name


def test_projection_energy_grows_with_ell():
    # enlarging the target space can only increase the captured energy
    for p in catalog_polygons()[::4]:
        values = RNG.standard_normal(p.n_vertices)
        energies = []
        for ell in range(0, 6):
            P, G = hgrad_matrix(p.vertices, ell)
            d = P @ values
            energies.append(float(d @ G @ d))
        for lo, hi in zip(energies, energies[1:]):
            assert hi >= lo - 1e-12 * max(1.0, lo), p.name


def test_singular_gram_degrades_with_warning(caplog):
    G = np.diag([1.0, 1e-15])
    with caplog.at_level(logging.WARNING, logger="sfvem.projectors"):
        out = _solve_grams(G[None], np.array([[[1.0], [0.0]]]))[0]
    assert "pseudo-inverse" in caplog.text
    assert np.isfinite(out).all()


def test_gram_solve_falls_back_only_below_the_rank_tolerance(caplog):
    # eigenvalue ratios either side of 1e-12: the LAPACK solve, then the
    # logged pseudo-inverse
    rhs = np.array([[[1.0], [1.0]]])
    for ratio, fallback in ((1e-11, False), (1e-13, True)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sfvem.projectors"):
            out = _solve_grams(np.diag([1.0, ratio])[None], rhs)[0]
        assert ("pseudo-inverse" in caplog.text) == fallback, ratio
        np.testing.assert_allclose(out[:, 0], [1.0, 1.0 / ratio], rtol=1e-12)


def test_nonpositive_gram_raises():
    with pytest.raises(SingularGramError):
        _solve_grams(np.diag([-1.0, -2.0])[None], np.zeros((1, 2, 1)))


# ---------------------------------------------------------------------------
# mean projection


def test_pi0_of_constant():
    row = nabla_matrices(SQUARE_GEO)[0, 0]
    assert row @ np.ones(4) == pytest.approx(1.0, abs=1e-15)


def test_pi0_of_x_on_unit_square():
    row = nabla_matrices(SQUARE_GEO)[0, 0]
    assert row @ SQUARE[:, 0] == pytest.approx(0.5, abs=1e-14)


def _means_of_linear_projection(vertices):
    # at random vertex values on a stack of polygons: the mean of the linear
    # projection from nabla's constant row, from the rows of the shoelace
    # moments, and on a degree-1 polygon rule
    poly = polygon_stack(vertices)
    values = RNG.standard_normal(vertices.shape[:2])
    nabla = nabla_matrices(poly)
    coef = (nabla @ values[..., None])[..., 0]
    rule = polygon_rules(vertices, 1)
    linear = (dof_matrix(rule.points, poly.frame) @ coef[..., None])[..., 0]
    return (np.einsum("cn,cn->c", nabla[:, 0], values),
            np.einsum("cn,cn->c", moment_mean_rows(poly, nabla), values),
            np.einsum("cp,cp->c", rule.weights, linear) / rule.weights.sum(axis=1))


def test_pi0_matches_quadrature_of_linear_projection():
    # the element mean of the linear projection is nabla's constant row: the
    # frame is centred at the centroid, where the means of xhat and yhat
    # vanish. It matches the rule mean on every catalog polygon. On every
    # cell of grid 64 and of a 256-seed Voronoi mesh it is no further from
    # the rule mean than the rows from the shoelace moments were: both carry
    # the rounding of the shoelace centroid in mesh coordinates, up to
    # 1.2e-11 h from the exact centroid on grid 64 (4.0e-11 of the mean)
    for p in catalog_polygons():
        got, _, want = _means_of_linear_projection(p.vertices[None])
        assert got == pytest.approx(want, abs=1e-13 * max(1, abs(want[0]))), p.name
    for mesh in (generate_distorted_grid(64, 0.3, 42), generate_voronoi(256, 3, 42, 0.25)):
        for _, index in mesh.cell_groups():
            got, moments, want = _means_of_linear_projection(mesh.vertices[index])
            bound = np.abs(moments - want) + 1e-13 * np.maximum(1, np.abs(want))
            assert np.all(np.abs(got - want) <= bound), index.shape
