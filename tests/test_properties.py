"""Property-based checks of the element on random polygons and meshes.

Random star-shaped polygons (nonconvex allowed, N = 3..30, sizes over three
decades) extend the fixed 18-polygon catalog: the boundary Gram must agree
with the area-quadrature Gram, and at the vertex-count degree rule the local
diffusion matrix must keep the constants in its kernel. Random small
Voronoi meshes must pass the linear patch test. Examples are derandomized,
but Hypothesis also draws constants from every module already imported, so
the examples depend on which test files ran first.

The rank margin sigma_r / sigma_max >= 1e-8 does not hold on the whole
family: it decays exponentially with N on spiky polygons (radius ratio 5:
below 1e-8 from N = 17 on, rank lost by N = 27). It is checked for
N <= 12, where the worst spiky polygon found keeps 6e-6, and the two
counterexamples below are kept as strict expected failures.

The audit's LAPACK Jacobi SVD is checked on the catalog and on seeded star
polygons against the Python rotation loop it replaced, and its margin
against 60-digit ``mpmath`` eigenvalues of the same float matrix: within
1e-13 relative on the catalog, 1e-9 on the one-spike N = 18 polygon whose
margin sits just under 1e-8.
"""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfvem.analysis import (jacobi_singular_values, spectral_audit,
                            unit_diffusion_matrix)
from sfvem.element import effective_ell
from sfvem.geometry import polygon_stack
from sfvem.mesh import CatalogPolygon, catalog_polygons, generate_voronoi
from sfvem.poly import Poly2, ProblemSpec, harmonic_basis
from sfvem.projectors import hgrad_matrix
from sfvem.system import assemble, solve

from oracles import area_gram, loop_jacobi_singular_values

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)


@st.composite
def star_polygons(draw, max_vertices=30):
    """Vertex k at angle 2 pi (k + u_k) / N, |u_k| <= 0.2, radius in
    [0.2, 1]: every angular gap is below pi, so the polygon is simple,
    counterclockwise and star shaped about the origin."""
    n = draw(st.integers(3, max_vertices))
    unit = st.floats(0.0, 1.0)
    jitter = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    radius = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    scale = 10.0 ** draw(st.floats(-3.0, 0.0))
    shift = np.array(draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    return _star(n, 0.4 * jitter - 0.2, 0.2 + 0.8 * radius, scale, shift)


def _star(n, jitter, radius, scale=1.0, shift=(0.0, 0.0)):
    theta = 2.0 * np.pi * (np.arange(n) + jitter) / n
    return (scale * np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
            + np.asarray(shift))


def _spiky(n, spikes):
    # vertices on a circle of radius 0.2 except spikes at radius 1
    radius = np.full(n, 0.2)
    radius[list(spikes)] = 1.0
    return _star(n, np.zeros(n), radius)


def _audit_ratios(vertices):
    s = spectral_audit(CatalogPolygon("random", vertices),
                       effective_ell(len(vertices))).singular_values
    return s[-1] / s[0], s[-2] / s[0]


@SETTINGS
@given(star_polygons(), st.integers(0, 2))
def test_boundary_gram_matches_area_gram(vertices, offset):
    basis = harmonic_basis(polygon_stack(vertices[None]).frame,
                           effective_ell(len(vertices), offset))
    _, G = hgrad_matrix(vertices, basis.ell)
    G_area = area_gram(vertices, basis)
    assert np.abs(G - G_area).max() <= 1e-12 * np.abs(G_area).max()


@SETTINGS
@given(star_polygons())
def test_kernel_is_constants_at_degree_rule(vertices):
    kernel, _ = _audit_ratios(vertices)
    assert kernel <= 1e-11


@SETTINGS
@given(star_polygons(max_vertices=12))
def test_rank_margin_at_degree_rule(vertices):
    kernel, margin = _audit_ratios(vertices)
    assert kernel <= 1e-11
    assert margin >= 1e-8


@pytest.mark.xfail(strict=True, reason="rank margin decays with N on spiky "
                   "polygons: 7.2e-9 for one spike at N = 18, 7e-17 (rank "
                   "lost) for two opposite spikes at N = 30")
@pytest.mark.parametrize("n, spikes", [(18, [17]), (30, [0, 15])])
def test_rank_margin_on_spiky_polygons(n, spikes):
    _, margin = _audit_ratios(_spiky(n, spikes))
    assert margin >= 1e-8


def _catalog_matrices():
    return [unit_diffusion_matrix(p.vertices, effective_ell(p.n_vertices))
            for p in catalog_polygons()]


def _star_matrices():
    """Three seeded star polygons per N = 3..20, each at ell offsets 0..2."""
    rng = np.random.default_rng(8)
    out = []
    for n in range(3, 21):
        for _ in range(3):
            V = _star(n, rng.uniform(-0.2, 0.2, n), rng.uniform(0.4, 1.0, n),
                      10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(-1.0, 1.0, 2))
            out += [unit_diffusion_matrix(V, effective_ell(n, offset))
                    for offset in range(3)]
    return out


@pytest.mark.parametrize("matrices", [_catalog_matrices, _star_matrices],
                         ids=["catalog", "stars"])
def test_dgejsv_matches_loop_jacobi(matrices):
    for A in matrices():
        got = jacobi_singular_values(A)
        want = loop_jacobi_singular_values(A)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[-2] / got[0] == pytest.approx(want[-2] / want[0], rel=1e-12, abs=0.0)
        # sigma_min is rounding noise in both: only its verdict must agree
        assert (got[-1] <= 1e-11 * got[0]) == (want[-1] <= 1e-11 * want[0])
        assert (got[-2] >= 1e-8 * got[0]) == (want[-2] >= 1e-8 * want[0])


def _spiky_matrices():
    return [unit_diffusion_matrix(_spiky(18, [17]), effective_ell(18))]


def _referee_margin(A):
    """sigma_r / sigma_max of the float matrix A from 60-digit eigenvalues."""
    with mpmath.workdps(60):
        ev = mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True)
        s = sorted((abs(e) for e in ev), reverse=True)
        return float(s[-2] / s[0])


@pytest.mark.parametrize("matrices, rtol", [(_catalog_matrices, 1e-13),
                                             (_spiky_matrices, 1e-9)],
                         ids=["catalog", "spiky18"])
def test_margin_matches_60_digit_referee(matrices, rtol):
    for A in matrices():
        s = jacobi_singular_values(A)
        assert s[-2] / s[0] == pytest.approx(_referee_margin(A), rel=rtol, abs=0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(n_seeds=st.integers(3, 16), lloyd_iters=st.integers(0, 2),
       seed=st.integers(0, 10_000), distortion=st.floats(0.0, 0.3),
       grad=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_linear_patch_test_on_random_voronoi(n_seeds, lloyd_iters, seed,
                                             distortion, grad):
    zero = Poly2.zero()
    spec = ProblemSpec(K=np.array([[2.0, 0.5], [0.5, 1.0]]),
                       beta=(zero, zero), gamma=zero, f=zero)
    mesh = generate_voronoi(n_seeds, lloyd_iters, seed, distortion)
    exact = mesh.vertices @ np.array(grad) + 0.25
    for method in ("sfvem", "vem"):
        solution = solve(assemble(mesh, spec, method=method,
                                  dirichlet_values=exact))
        assert np.abs(solution.values - exact).max() <= 1e-10, method
