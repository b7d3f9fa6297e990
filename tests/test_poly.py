import re

import numpy as np
import pytest

from sfvem.poly import (GEMM_ONE_THREAD, HarmonicBasis, Poly2,
                        ScaledFrame, build_benchmark_coefficients, bubble_problem,
                        evaluate_polys, harmonic_basis, manufactured_problem,
                        poisson_problem)
from sfvem.problem import ProblemSpec

from oracles import as_poly2, loop_poly2_eval

RNG = np.random.default_rng(11)


def rand_points(n=40, lo=-1.5, hi=1.5):
    return RNG.uniform(lo, hi, size=(n, 2))


def one_frame(center, scale):
    """The frame (center, scale) of one element, as a stack of one."""
    return ScaledFrame(np.array([center], dtype=float), np.array([scale], dtype=float))


# ---------------------------------------------------------------------------
# coefficient calculus


def test_evaluation_matches_direct_sum():
    p = Poly2([[1.0, -2.0, 0.5], [0.0, 3.0, 0.0], [4.0, 0.0, -1.0]])
    pts = rand_points()
    direct = sum(
        p.coeffs[a, b] * pts[:, 0] ** a * pts[:, 1] ** b
        for a in range(3) for b in range(3)
    )
    np.testing.assert_allclose(p(pts), direct, rtol=1e-13)


def test_single_point_returns_scalar():
    p = Poly2([[2.0], [1.0]])  # 2 + x
    assert p(np.array([3.0, 7.0])) == pytest.approx(5.0)
    assert isinstance(p(np.array([3.0, 7.0])), float)


def test_addition_and_scalar_ops():
    p = Poly2([[1.0], [2.0]])       # 1 + 2x
    q = Poly2([[0.0, 3.0]])         # 3y
    pts = rand_points()
    np.testing.assert_allclose((p + q)(pts), p(pts) + q(pts), rtol=1e-14)
    np.testing.assert_allclose((p - q)(pts), p(pts) - q(pts), rtol=1e-14)
    np.testing.assert_allclose((2.5 * p)(pts), 2.5 * p(pts), rtol=1e-14)
    np.testing.assert_allclose((p + 1.0)(pts), p(pts) + 1.0, rtol=1e-14)
    np.testing.assert_allclose((1.0 - p)(pts), 1.0 - p(pts), rtol=1e-14)


def test_product_coefficients_exact():
    # (1 + x y) (x + y) = x + y + x^2 y + x y^2
    p = Poly2([[1.0, 0.0], [0.0, 1.0]])
    q = Poly2([[0.0, 1.0], [1.0, 0.0]])
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[0, 1] = expected[2, 1] = expected[1, 2] = 1.0
    np.testing.assert_array_equal((p * q).coeffs, expected)


def test_derivatives():
    # d/dx (x^2 y + 3 x) = 2 x y + 3 ; d/dy (x^2 y + 3 x) = x^2
    p = Poly2([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(p.dx().coeffs, [[3.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(p.dy().coeffs, [[0.0], [0.0], [1.0]])


def test_degree_and_zero_handling():
    assert Poly2.zero().is_zero()
    assert Poly2.zero().degree == 0
    assert Poly2.const(4.0).degree == 0
    assert Poly2([[0.0, 0.0], [0.0, 1.0]]).degree == 2  # x y
    assert Poly2.const(1.0).dx().is_zero()
    # trailing zero rows and columns are trimmed on construction
    assert Poly2([[1.0, 0.0], [0.0, 0.0]]).coeffs.shape == (1, 1)


def test_from_separable():
    p = Poly2.from_separable([0.0, 1.0, -1.0], [0.0, 1.0, -1.0])
    pts = rand_points(lo=0.0, hi=1.0)
    x, y = pts[:, 0], pts[:, 1]
    np.testing.assert_allclose(p(pts), x * (1 - x) * y * (1 - y), rtol=5e-13)


def test_mixed_partials_commute():
    c = RNG.standard_normal((5, 4))
    p = Poly2(c)
    np.testing.assert_allclose(p.dx().dy().coeffs, p.dy().dx().coeffs,
                               rtol=1e-15)


# ---------------------------------------------------------------------------
# evaluation


def _benchmark_polys():
    spec = build_benchmark_coefficients()
    return {"beta_x": spec.beta[0], "beta_y": spec.beta[1], "gamma": spec.gamma,
            "f": spec.f, "u": spec.exact_u, "u_x": spec.exact_grad_u[0],
            "u_y": spec.exact_grad_u[1], "const": Poly2.const(-2.5)}


def _gemm(coeffs):
    # the rows of one one-thread product of Poly2.__call__
    return max(2, (GEMM_ONE_THREAD - 1) // coeffs.size)


def _block_counts(coeffs):
    # point counts around the row blocks of Poly2.__call__, its one-thread
    # products of gemm rows: 1, gemm + 1 and 2 gemm + 1 leave a one-row tail
    gemm = _gemm(coeffs)
    return sorted({1, 2, gemm - 1, gemm, gemm + 1, 2 * gemm + 1, 2 * gemm + gemm // 2})


def _in_one_large_product(p, pts, gemm, rng):
    # each point's value inside one product of gemm rows (one y-power table
    # of the loop evaluation), one row after the table's first, so that no
    # point has the row it has in p's own products
    values = []
    for s in range(0, len(pts), gemm - 1):
        part = pts[s:s + gemm - 1]
        table = np.concatenate([rng.random((1, 2)), part,
                                rng.random((gemm - 1 - len(part), 2))])
        values.append(loop_poly2_eval(p, table)[1:1 + len(part)])
    return np.concatenate(values)


@pytest.mark.parametrize("name", sorted(_benchmark_polys()))
def test_poly2_matches_loop_eval_at_block_boundaries(monkeypatch, name):
    # every value bit for bit against the same point inside one large
    # product, at n = 1, at n = 1 mod gemm and at the block boundaries. Every
    # product of the y-power table with the coefficients has 2 to gemm rows:
    # small enough that OpenBLAS runs it on one thread, so no idle thread
    # spins after it, and never one row, which is a matrix-vector call that
    # can round differently from the same row inside a matrix product; a
    # one-row tail runs with a copy of its row as the second, the one extra
    # row of the call. That a row's value does not depend on its position in
    # a product of two or more rows is a property of the OpenBLAS kernel the
    # reference results were made with (SkylakeX); another kernel
    # (OPENBLAS_CORETYPE=Haswell or Prescott) can fail this test
    p = _benchmark_polys()[name]
    gemm = _gemm(p.coeffs)
    products = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        products.append((a.shape[0], b.shape[0], b.shape[1]))
        return matmul(a, b, **kwargs)

    rng = np.random.default_rng(7)
    for n in _block_counts(p.coeffs):
        pts = rng.random((n, 2))
        want = _in_one_large_product(p, pts, gemm, rng)
        products.clear()
        monkeypatch.setattr(np, "matmul", spy)
        got = p(pts)
        monkeypatch.setattr(np, "matmul", matmul)
        assert np.array_equal(got, want), n
        assert all(2 <= m <= gemm for m, _, _ in products), n
        assert sum(m for m, _, _ in products) == n + (n % gemm == 1), n
        assert all(m * k * cols < GEMM_ONE_THREAD for m, k, cols in products), n


def _shared_table_sets():
    # the polynomial sets the passes evaluate together, and every CLI
    # problem's data at once
    bench = _benchmark_polys()
    poisson, bubble = poisson_problem(), bubble_problem()
    return {
        "benchmark": [bench[k] for k in ("beta_x", "beta_y", "gamma", "f", "u", "u_x", "u_y")],
        "benchmark_build": [bench[k] for k in ("beta_x", "beta_y", "gamma", "f")],
        "benchmark_error": [bench[k] for k in ("u", "u_x", "u_y")],
        "poisson": [*poisson.beta, poisson.gamma, poisson.f],
        "bubble": [*bubble.beta, bubble.gamma, bubble.f, bubble.exact_u,
                   *bubble.exact_grad_u],
    }


@pytest.mark.parametrize("name", sorted(_shared_table_sets()))
def test_shared_table_matches_each_poly2_call(name):
    # several polynomials from one y-power table give, bit for bit, what
    # each one's own call gives. 5826 points leave a one-row tail for beta
    # (5825 rows a product), which runs as two rows; 1444, 7344
    # and 8664 are a fan quad's error rule, a build chunk of six quads and
    # six fan quads' error rules; 200000 spans 117 products of f
    polys = _shared_table_sets()[name]
    rng = np.random.default_rng(3)
    for n in (1, 2, 1444, 5826, 7344, 8664, 200000):
        pts = rng.random((n, 2))
        got = evaluate_polys(polys, pts)
        assert got.shape == (len(polys), n)
        for p, values in zip(polys, got):
            assert np.array_equal(values, p(pts)), n
    with pytest.raises(ValueError, match=r"\(n, 2\), got \(3,\)"):
        evaluate_polys(polys, np.zeros(3))


def test_poly2_on_zero_points_is_empty():
    for p in (Poly2([[1.0, 2.0], [3.0, 0.0]]), build_benchmark_coefficients().f):
        val = p(np.empty((0, 2)))
        assert isinstance(val, np.ndarray) and val.shape == (0,)


@pytest.mark.parametrize("points, shape", [
    ([[1.0, 2.0, 3.0]], "(1, 3)"),
    ([1.0, 2.0, 3.0], "(3,)"),
    (np.zeros((4, 1)), "(4, 1)"),
    (np.zeros((2, 3, 2)), "(2, 3, 2)"),
])
def test_poly2_rejects_points_that_are_not_pairs(points, shape):
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        Poly2([[1.0, 2.0], [3.0, 0.0]])(points)


# ---------------------------------------------------------------------------
# harmonic basis


def test_basis_size_and_validation():
    fr = one_frame([0.2, -0.1], 0.8)
    assert harmonic_basis(fr, 0).size == 2
    assert harmonic_basis(fr, 7).size == 16
    with pytest.raises(ValueError):
        harmonic_basis(fr, -1)
    with pytest.raises(ValueError):
        one_frame([0.0, 0.0], 0.0)


@pytest.mark.parametrize("center, scale", [
    (np.zeros(2), 1.0),                    # one polygon without the cell axis
    (np.zeros((2, 2)), np.ones(3)),        # scales for another stack
    (np.zeros((2, 3)), np.ones(2)),        # centers that are not points
])
def test_frame_is_stacked_only(center, scale):
    with pytest.raises(ValueError, match="center"):
        ScaledFrame(center, scale)


def test_values_match_polynomial_expansion():
    fr = one_frame([0.3, 0.45], 0.7)
    basis = HarmonicBasis(fr, 6)
    pts = rand_points()
    vals = basis.values(pts[None])[0]
    for i, p in enumerate(as_poly2([0.3, 0.45], 0.7, 6)):
        np.testing.assert_allclose(vals[i], p(pts), rtol=1e-12, atol=1e-12)


def test_gradients_match_polynomial_derivatives():
    fr = one_frame([-0.2, 0.6], 1.3)
    basis = HarmonicBasis(fr, 5)
    pts = rand_points()
    grads = basis.gradients(pts[None])[0]
    for i, p in enumerate(as_poly2([-0.2, 0.6], 1.3, 5)):
        np.testing.assert_allclose(grads[i, :, 0], p.dx()(pts),
                                   rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(grads[i, :, 1], p.dy()(pts),
                                   rtol=1e-11, atol=1e-11)


def test_values_and_gradients_read_the_power_table():
    # on a stack of frames, values are the (Re, Im) pairs of z^1..z^(l+1)
    # from powers, bit for bit; the x-derivatives of each pair are those of
    # (k/h) z^(k-1), and the y-derivatives follow by Cauchy-Riemann exactly
    frame = ScaledFrame(np.array([[0.3, 0.45], [-1.0, 2.0], [0.0, 0.0]]),
                        np.array([0.7, 2.5, 1.0]))
    pts = np.stack([rand_points(30), rand_points(30, -3.0, 3.0), rand_points(30)])
    h = frame.scale[:, None]
    for ell in range(5):
        basis = HarmonicBasis(frame, ell)
        pows = basis.powers(pts, ell + 1)
        assert pows.shape == (ell + 2, 3, 30) and np.array_equal(pows[0], np.ones((3, 30)))
        vals, grads = basis.values(pts), basis.gradients(pts)
        both = basis.values_and_gradients(pts)
        assert np.array_equal(both[0], vals) and np.array_equal(both[1], grads)
        assert vals.shape == (3, 2 * ell + 2, 30) and grads.shape == vals.shape + (2,)
        for k in range(1, ell + 2):
            re, im = 2 * k - 2, 2 * k - 1
            assert np.array_equal(vals[:, re], pows[k].real)
            assert np.array_equal(vals[:, im], pows[k].imag)
            d = (k / h) * pows[k - 1]
            assert np.array_equal(grads[:, re, :, 0], d.real)
            assert np.array_equal(grads[:, im, :, 0], d.imag)
            assert np.array_equal(grads[:, im, :, 0], -grads[:, re, :, 1])
            assert np.array_equal(grads[:, im, :, 1], grads[:, re, :, 0])


def test_members_are_harmonic():
    # Laplacian vanishes at the coefficient level for every member
    for ell in (0, 3, 10):
        for p in as_poly2([0.3, 0.45], 0.7, ell):
            lap = p.dx().dx() + p.dy().dy()
            scale = max(1.0, np.abs(p.dx().dx().coeffs).max())
            assert np.abs(lap.coeffs).max() <= 1e-12 * scale


def test_first_pair_is_scaled_coordinates():
    fr = one_frame([0.5, 0.25], 2.0)
    basis = HarmonicBasis(fr, 2)
    pts = rand_points()
    vals = basis.values(pts[None])[0]
    np.testing.assert_allclose(vals[0], (pts[:, 0] - 0.5) / 2.0, atol=1e-14)
    np.testing.assert_allclose(vals[1], (pts[:, 1] - 0.25) / 2.0, atol=1e-14)


def test_gradient_helper_single_point():
    fr = one_frame([0.0, 0.0], 1.0)
    g = HarmonicBasis(fr, 1).gradients(np.array([[[0.3, 0.4]]]))[0, :, 0, :]
    assert g.shape == (4, 2)
    # grad Re z = (1, 0), grad Im z = (0, 1) for unit frame
    np.testing.assert_allclose(g[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g[1], [0.0, 1.0], atol=1e-15)
    # z^2: Re = x^2 - y^2, Im = 2 x y
    np.testing.assert_allclose(g[2], [0.6, -0.8], atol=1e-14)
    np.testing.assert_allclose(g[3], [0.8, 0.6], atol=1e-14)


# ---------------------------------------------------------------------------
# manufactured problems


def test_manufactured_source_against_hand_derivation():
    # u = x^3 y + 2 y^2, K generic SPD, beta = (y, x), gamma = x^2
    u = Poly2([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    K = np.array([[2.0, 0.5], [0.5, 1.0]])
    beta = (Poly2([[0.0, 1.0]]), Poly2([[0.0], [1.0]]))
    gamma = Poly2([[0.0], [0.0], [1.0]])
    spec = manufactured_problem(K, beta, gamma, u)
    pts = rand_points(lo=0.0, hi=1.0)
    x, y = pts[:, 0], pts[:, 1]
    ux, uy = 3 * x**2 * y, x**3 + 4 * y
    uxx, uxy, uyy = 6 * x * y, 3 * x**2, 4.0
    f_hand = (-(K[0, 0] * uxx + 2 * K[0, 1] * uxy + K[1, 1] * uyy)
              + y * ux + x * uy + x**2 * (x**3 * y + 2 * y**2))
    np.testing.assert_allclose(spec.f(pts), f_hand, rtol=1e-12)
    np.testing.assert_allclose(spec.exact_grad_u[0](pts), ux, rtol=1e-13)
    np.testing.assert_allclose(spec.exact_grad_u[1](pts), uy, rtol=1e-13)


def test_manufactured_gradient_is_the_derivative_pair():
    # the spec derives grad u itself, the pair that built f
    u = Poly2([[0.5, -1.0, 2.0], [0.25, 3.0, 0.0], [-7.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    spec = manufactured_problem(np.eye(2), (Poly2.zero(), Poly2.zero()), Poly2.zero(), u)
    for got, want in zip(spec.exact_grad_u, (u.dx(), u.dy())):
        assert np.array_equal(got.coeffs, want.coeffs)
    for spec in (bubble_problem(), build_benchmark_coefficients()):
        gx, gy = spec.exact_grad_u
        assert np.array_equal(gx.coeffs, spec.exact_u.dx().coeffs)
        assert np.array_equal(gy.coeffs, spec.exact_u.dy().coeffs)


def test_manufactured_source_against_finite_differences():
    spec = bubble_problem()
    h = 1e-5
    for pt in [(0.3, 0.7), (0.52, 0.18), (0.85, 0.45)]:
        x, y = pt
        u = spec.exact_u
        lap = (u([x + h, y]) + u([x - h, y]) + u([x, y + h]) + u([x, y - h])
               - 4 * u([x, y])) / h**2
        assert spec.f(np.array(pt)) == pytest.approx(-lap, abs=1e-5)


def test_bubble_problem_gradient_consistency():
    spec = bubble_problem()
    pts = rand_points(lo=0.0, hi=1.0)
    x, y = pts[:, 0], pts[:, 1]
    np.testing.assert_allclose(spec.exact_grad_u[0](pts),
                               (1 - 2 * x) * y * (1 - y), rtol=1e-12)


def test_poisson_problem_has_no_exact_solution():
    spec = poisson_problem()
    assert spec.exact_u is None
    assert spec.f(np.array([0.4, 0.9])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# rotated-anisotropy benchmark


def test_benchmark_degrees():
    spec = build_benchmark_coefficients()
    assert spec.beta[0].degree == 17
    assert spec.beta[1].degree == 17
    assert spec.gamma.degree == 4
    assert spec.exact_u.degree == 17
    assert spec.f.degree == 33


def test_benchmark_advection_is_curl_of_stream_function():
    # divergence cancels exactly at the coefficient level
    spec = build_benchmark_coefficients()
    div = spec.beta[0].dx() + spec.beta[1].dy()
    assert div.is_zero()


def test_benchmark_advection_vanishes_on_boundary():
    spec = build_benchmark_coefficients()
    t = np.linspace(0.0, 1.0, 101)
    zero, one = np.zeros_like(t), np.ones_like(t)
    boundary = np.concatenate([
        np.stack([t, zero], 1), np.stack([t, one], 1),
        np.stack([zero, t], 1), np.stack([one, t], 1),
    ])
    g = np.linspace(0.01, 0.99, 50)
    interior = np.array([[x, y] for x in g for y in g])
    for comp in spec.beta:
        scale = np.abs(comp(interior)).max()
        assert np.abs(comp(boundary)).max() <= 1e-7 * scale


def test_benchmark_diffusion_tensor():
    theta = np.pi / 6
    spec = build_benchmark_coefficients(theta=theta)
    w, V = np.linalg.eigh(spec.K)
    # the small eigenvalue is accurate only to machine epsilon of ||K||
    assert w[0] == pytest.approx(1.0e-9, abs=1e-14)
    assert w[1] == pytest.approx(1.0, rel=1e-13)
    # weak direction is the rotated second axis
    weak = V[:, 0]
    expected = np.array([-np.sin(theta), np.cos(theta)])
    assert abs(abs(weak @ expected) - 1.0) < 1e-12


def test_benchmark_exact_solution_is_first_advection_component():
    spec = build_benchmark_coefficients()
    pts = rand_points(lo=0.0, hi=1.0)
    np.testing.assert_allclose(spec.exact_u(pts), spec.beta[0](pts), rtol=1e-15)


def test_benchmark_reaction_nonnegative():
    spec = build_benchmark_coefficients()
    pts = rand_points(lo=0.0, hi=1.0)
    assert spec.gamma(pts).min() >= 0.0


def test_benchmark_rejects_bad_cutoffs():
    with pytest.raises(ValueError):
        build_benchmark_coefficients(R1=1.5)
    with pytest.raises(ValueError):
        build_benchmark_coefficients(R2=-0.1)


def test_benchmark_parameters_recorded():
    spec = build_benchmark_coefficients(R1=0.8, R2=0.4, theta=0.5)
    assert (spec.R1, spec.R2, spec.theta) == (0.8, 0.4, 0.5)
    assert spec.name == "benchmark"


# ---------------------------------------------------------------------------
# coefficient validation in ProblemSpec


def test_problem_spec_rejects_divergent_advection():
    zero = Poly2.zero()
    with pytest.raises(ValueError, match="divergence"):
        manufactured_problem(np.eye(2), (Poly2([[0.0], [1.0]]), zero), zero,
                             Poly2.const(1.0))


def test_problem_spec_rejects_negative_reaction():
    zero = Poly2.zero()
    with pytest.raises(ValueError, match="gamma"):
        manufactured_problem(np.eye(2), (zero, zero), Poly2.const(-1.0),
                             Poly2.const(1.0))


def test_problem_spec_rejects_bad_tensor():
    zero = Poly2.zero()
    with pytest.raises(ValueError, match="positive"):
        manufactured_problem(-np.eye(2), (zero, zero), zero, Poly2.const(1.0))
    with pytest.raises(ValueError, match="symmetric"):
        manufactured_problem([[1.0, 0.5], [0.0, 1.0]], (zero, zero), zero,
                             Poly2.const(1.0))


@pytest.mark.parametrize("field, value", [
    ("K", lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2))),
    # a degree-4 rule integrates this load to 0.173 on the unit square,
    # against a true (1 - cos 40)/40 = 0.0417
    ("f", lambda pts: np.sin(40.0 * pts[:, 0])),
    ("gamma", lambda pts: np.ones(len(pts))),
    ("exact_u", lambda pts: pts[:, 0]),
])
def test_problem_spec_rejects_non_polynomial_data(field, value):
    zero = Poly2.zero()
    data = dict(K=np.eye(2), beta=(zero, zero), gamma=zero,
                f=Poly2.const(1.0), exact_u=Poly2.zero())
    data[field] = value
    with pytest.raises(ValueError, match=field):
        ProblemSpec(**data)


@pytest.mark.parametrize("field, value, message", [
    ("K", [[np.nan, 0.0], [0.0, 1.0]], "K must be finite"),
    ("K", [[np.inf, 0.0], [0.0, 1.0]], "K must be finite"),
    # an inf load would otherwise solve to NaN nodal values without an error
    ("f", Poly2.const(np.inf), "f must have finite coefficients"),
], ids=["nan-K", "inf-K", "inf-f"])
def test_problem_spec_rejects_non_finite_data(field, value, message):
    zero = Poly2.zero()
    data = dict(K=np.eye(2), beta=(zero, zero), gamma=zero, f=Poly2.const(1.0))
    data[field] = value
    with pytest.raises(ValueError, match=message):
        ProblemSpec(**data)
