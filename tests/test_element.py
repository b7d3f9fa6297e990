import numpy as np
import pytest

import sfvem.element
from sfvem.element import effective_ell, sfvem_local, standard_vem_local, volume_degree
from sfvem.geometry import polygon_stack
from sfvem.mesh import catalog_polygons
from sfvem.poly import Poly2, manufactured_problem
from sfvem.problem import ProblemSpec
from sfvem.projectors import dof_matrix, nabla_matrix
from sfvem.quadrature import polygon_rule, polygon_rules

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
RNG = np.random.default_rng(17)

ZERO = Poly2.zero()


def plain_spec(K=None, beta=None, gamma=None, f=None):
    return ProblemSpec(
        K=np.eye(2) if K is None else K,
        beta=(ZERO, ZERO) if beta is None else beta,
        gamma=ZERO if gamma is None else gamma,
        f=ZERO if f is None else f,
    )


# ---------------------------------------------------------------------------
# degree rule


@pytest.mark.parametrize("n,expected", [
    (3, 0), (4, 1), (5, 1), (6, 2), (7, 2), (8, 3), (9, 3), (10, 4),
    (11, 4), (12, 5), (13, 5), (14, 6), (15, 6), (16, 7), (17, 7),
    (18, 8), (19, 8), (20, 9),
])
def test_minimal_degree_rule(n, expected):
    ell = effective_ell(n)
    assert ell == expected
    # minimality: the solvability inequality holds here and fails one lower
    assert 2 * ell + 2 >= n - 1
    if ell > 0:
        assert 2 * (ell - 1) + 2 < n - 1


def test_degree_rule_offset():
    assert effective_ell(8, offset=2) == 5
    with pytest.raises(ValueError):
        effective_ell(2)


def test_effective_degree_clamps_below_zero():
    assert effective_ell(8, -1) == 2
    assert effective_ell(8, -10) == 0
    assert effective_ell(3, -1) == 0
    assert effective_ell(20, 1) == 10


@pytest.mark.parametrize("offset", [0, 1, 2])
def test_volume_rule_degree_does_not_depend_on_ell(monkeypatch, offset):
    # the volume rule carries gamma and f only: with u = x the manufactured
    # load is f = beta_x, of degree deg beta < deg beta + ell, and the
    # build's rule has the degree of f at every ell
    psi = Poly2.from_separable([0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 1.0, -1.0])
    spec = manufactured_problem(np.eye(2), (psi.dy(), -psi.dx()), ZERO, Poly2([[0.0], [1.0]]))
    assert volume_degree(spec) == spec.f.degree == spec.beta[0].degree == 5
    degrees = []

    def rules_seen(vertices, degree):
        degrees.append(degree)
        return polygon_rules(vertices, degree)

    monkeypatch.setattr(sfvem.element, "polygon_rules", rules_seen)
    for n in (4, 6):
        vertices = SQUARE if n == 4 else catalog_polygons()[3].vertices
        ell = effective_ell(len(vertices), offset)
        assert len(vertices) == n and spec.beta[0].degree + ell > spec.f.degree
        sfvem_local(vertices, spec, ell)
        standard_vem_local(vertices, spec)
    assert degrees and set(degrees) == {5}


# ---------------------------------------------------------------------------
# stabilization-free local matrices


def test_unit_square_diffusion_rank_and_kernel():
    mats = sfvem_local(SQUARE, plain_spec(), ell=1)
    A = mats.A_diff
    np.testing.assert_allclose(A, A.T, atol=1e-15)
    w = np.linalg.eigvalsh(A)
    assert np.sum(w > 1e-11 * w[-1]) == 3
    ones = np.ones(4)
    assert np.abs(A @ ones).max() <= 1e-11 * np.abs(A).max()


def test_linear_consistency_identity_tensor():
    # v^T A u = |E| grad(u) . grad(v) when K = I and u, v are linear dofs
    from sfvem.geometry import signed_area
    for p in catalog_polygons():
        ell = effective_ell(p.n_vertices)
        mats = sfvem_local(p.vertices, plain_spec(), ell=ell)
        area = signed_area(p.vertices)
        gu, gv = np.array([2.0, -1.0]), np.array([0.5, 3.0])
        u = p.vertices @ gu
        v = p.vertices @ gv
        want = area * (gu @ gv)
        assert v @ mats.A_diff @ u == pytest.approx(want, rel=1e-12), p.name


def test_linear_consistency_anisotropic_tensor():
    from sfvem.geometry import signed_area
    K = np.array([[3.0, 1.0], [1.0, 2.0]])
    for p in catalog_polygons()[::5]:
        ell = effective_ell(p.n_vertices)
        mats = sfvem_local(p.vertices, plain_spec(K=K), ell=ell)
        area = signed_area(p.vertices)
        gu, gv = np.array([1.0, 2.0]), np.array([-1.0, 1.0])
        u, v = p.vertices @ gu, p.vertices @ gv
        want = area * (gv @ K @ gu)
        assert v @ mats.A_diff @ u == pytest.approx(want, rel=1e-12), p.name


def test_constant_kernel_all_catalog():
    for p in catalog_polygons():
        ell = effective_ell(p.n_vertices)
        mats = sfvem_local(p.vertices, plain_spec(), ell=ell)
        ones = np.ones(p.n_vertices)
        assert np.abs(mats.A_diff @ ones).max() <= 1e-11 * np.abs(mats.A_diff).max()


def _dense_quadrature_diffusion(vertices, K, ell):
    # P^T M_K P with an independent, deliberately overshot rule and the
    # general einsum path, whatever the shape of K
    from sfvem.poly import harmonic_basis
    from sfvem.projectors import hgrad_matrix
    basis = harmonic_basis(polygon_stack(vertices[None]).frame, ell)
    P, _G = hgrad_matrix(vertices, ell)
    rule = polygon_rule(vertices, 2 * ell + 6)
    grads = basis.gradients(rule.points[None])[0]
    KG = np.einsum("ab,iqb->iqa", K, grads)
    MK = np.einsum("jqa,iqa,q->ij", grads, KG, rule.weights)
    return P.T @ MK @ P


def test_diffusion_matches_dense_quadrature_oracle():
    K = np.array([[2.0, 0.7], [0.7, 1.0]])
    p = catalog_polygons()[3]
    ell = effective_ell(p.n_vertices)
    mats = sfvem_local(p.vertices, plain_spec(K=K), ell=ell)
    np.testing.assert_allclose(mats.A_diff,
                               _dense_quadrature_diffusion(p.vertices, K, ell),
                               rtol=1e-11, atol=1e-13)


def test_isotropic_shortcut_matches_general_path():
    # a scaled identity takes the boundary-Gram shortcut; the quadrature
    # path on the same tensor must agree
    K = 2.0 * np.eye(2)
    for p in (catalog_polygons()[3], catalog_polygons()[6]):
        ell = effective_ell(p.n_vertices)
        direct = sfvem_local(p.vertices, plain_spec(K=K), ell=ell)
        np.testing.assert_allclose(
            direct.A_diff, _dense_quadrature_diffusion(p.vertices, K, ell),
            atol=1e-12)


def test_reaction_is_rank_one_mean_outer_product():
    from sfvem.geometry import signed_area
    spec = plain_spec(gamma=Poly2.const(1.0))
    for p in catalog_polygons()[::6]:
        ell = effective_ell(p.n_vertices)
        mats = sfvem_local(p.vertices, spec, ell=ell)
        area = signed_area(p.vertices)
        np.testing.assert_allclose(mats.A_reac,
                                   area * np.outer(mats.pi0, mats.pi0),
                                   rtol=1e-12, atol=1e-15)
        assert np.linalg.matrix_rank(mats.A_reac, tol=1e-12) == 1
        w = np.linalg.eigvalsh(mats.A_reac)
        assert w.min() >= -1e-13 * max(1.0, w.max())


def test_advection_constant_field_hand_value():
    # beta = (1, 0), u = dofs of x, v = 1: the advection entry integrates
    # beta . grad(u) against the mean of v, giving |E| = 1 on the square
    spec = plain_spec(beta=(Poly2.const(1.0), ZERO))
    mats = sfvem_local(SQUARE, spec, ell=1)
    u = SQUARE[:, 0]
    v = np.ones(4)
    assert v @ mats.A_adv @ u == pytest.approx(1.0, rel=1e-13)


def test_load_is_source_integral_times_mean_row():
    spec = plain_spec(f=Poly2.const(3.0))
    p = catalog_polygons()[8]
    ell = effective_ell(p.n_vertices)
    mats = sfvem_local(p.vertices, spec, ell=ell)
    from sfvem.geometry import signed_area
    np.testing.assert_allclose(mats.b, 3.0 * signed_area(p.vertices) * mats.pi0,
                               rtol=1e-13)


def test_total_matrix_property():
    spec = plain_spec(gamma=Poly2.const(1.0), f=Poly2.const(1.0))
    mats = sfvem_local(SQUARE, spec, ell=1)
    np.testing.assert_array_equal(mats.A, mats.A_diff + mats.A_adv + mats.A_reac)
    assert mats.ell == 1


# ---------------------------------------------------------------------------
# stabilized comparator


def test_vem_stabilization_vanishes_on_linears():
    frame = polygon_stack(SQUARE[None]).frame
    nabla = nabla_matrix(SQUARE)
    D = dof_matrix(SQUARE[None], frame)[0]
    u = 2.0 * SQUARE[:, 0] + 3.0 * SQUARE[:, 1] - 1.0
    np.testing.assert_allclose(u - D @ (nabla @ u), 0.0, atol=1e-13)


def test_vem_unit_square_rank_and_kernel():
    mats = standard_vem_local(SQUARE, plain_spec())
    A = mats.A_diff
    np.testing.assert_allclose(A, A.T, atol=1e-15)
    w = np.linalg.eigvalsh(A)
    assert np.sum(w > 1e-11 * w[-1]) == 3
    assert np.abs(A @ np.ones(4)).max() <= 1e-11 * np.abs(A).max()


def test_vem_linear_consistency():
    from sfvem.geometry import signed_area
    K = np.array([[2.0, 0.3], [0.3, 1.5]])
    for p in catalog_polygons()[::4]:
        mats = standard_vem_local(p.vertices, plain_spec(K=K))
        area = signed_area(p.vertices)
        gu, gv = np.array([1.0, -2.0]), np.array([2.0, 0.5])
        u, v = p.vertices @ gu, p.vertices @ gv
        want = area * (gv @ K @ gu)
        assert v @ mats.A_diff @ u == pytest.approx(want, rel=1e-12), p.name


def test_vem_diffusion_homogeneous_in_tensor():
    p = catalog_polygons()[10]
    K = np.array([[2.0, 0.4], [0.4, 3.0]])
    a = standard_vem_local(p.vertices, plain_spec(K=K))
    b = standard_vem_local(p.vertices, plain_spec(K=2.0 * K))
    np.testing.assert_allclose(b.A_diff, 2.0 * a.A_diff, rtol=1e-13)


def test_both_methods_same_reaction_and_load():
    spec = plain_spec(gamma=Poly2.from_separable([0.0, 1.0], [1.0]),
                      f=Poly2.const(2.0))
    p = catalog_polygons()[2]
    ell = effective_ell(p.n_vertices)
    a = sfvem_local(p.vertices, spec, ell=ell)
    b = standard_vem_local(p.vertices, spec)
    np.testing.assert_allclose(a.A_reac, b.A_reac, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a.b, b.b, rtol=1e-12, atol=1e-15)
