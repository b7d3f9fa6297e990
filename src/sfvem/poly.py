"""Bivariate polynomial calculus, scaled harmonic bases, and canned problems.

Poly2 stores an explicit coefficient table so that manufactured right-hand
sides can be produced by exact differentiation instead of numerical
differencing. The harmonic basis h_1..h_{2l+2} on an element is
{Re(z^k), Im(z^k) : k = 1..l+1} in the scaled complex coordinate
z = ((x - x_E) + i(y - y_E)) / h_E, generated by the power recurrence
p_k = p_{k-1} * z. The zero-mean normalization of the harmonic space is
deliberately dropped; it changes conditioning, not the spanned gradients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ScaledFrame
from .problem import ProblemSpec


# OpenBLAS runs a GEMM on one thread while m * n * k stays below this; a
# larger one wakes a second thread, which spins on after the call
GEMM_ONE_THREAD = 2**19


class Poly2:
    """Polynomial in two variables with an explicit coefficient table.

    coeffs[a, b] multiplies x^a y^b. Addition, multiplication, and
    differentiation act on coefficients exactly (up to float rounding).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))
        # trim trailing zero rows/columns to keep degrees meaningful
        while c.shape[0] > 1 and not c[-1].any():
            c = c[:-1]
        while c.shape[1] > 1 and not c[:, -1].any():
            c = c[:, :-1]
        self.coeffs = c

    @classmethod
    def zero(cls) -> "Poly2":
        return cls([[0.0]])

    @classmethod
    def const(cls, value: float) -> "Poly2":
        return cls([[float(value)]])

    @classmethod
    def from_separable(cls, cx, cy) -> "Poly2":
        """Product p(x) q(y) from 1D coefficient arrays (low order first)."""
        return cls(np.outer(np.asarray(cx, dtype=float), np.asarray(cy, dtype=float)))

    @property
    def degree(self) -> int:
        nz = np.argwhere(self.coeffs != 0.0)
        if nz.size == 0:
            return 0
        return int(nz.sum(axis=1).max())

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other):
        other = other if isinstance(other, Poly2) else Poly2.const(other)
        n0 = max(self.coeffs.shape[0], other.coeffs.shape[0])
        n1 = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((n0, n1))
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        out[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly2(-self.coeffs)

    def __sub__(self, other):
        other = other if isinstance(other, Poly2) else Poly2.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly2):
            return Poly2(self.coeffs * float(other))
        a, b = self.coeffs, other.coeffs
        if np.count_nonzero(b) < np.count_nonzero(a):
            a, b = b, a
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i, j in np.argwhere(a != 0.0):
            out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return Poly2(out)

    __rmul__ = __mul__

    def dx(self) -> "Poly2":
        c = self.coeffs
        if c.shape[0] == 1:
            return Poly2.zero()
        return Poly2(c[1:, :] * np.arange(1, c.shape[0])[:, None])

    def dy(self) -> "Poly2":
        c = self.coeffs
        if c.shape[1] == 1:
            return Poly2.zero()
        return Poly2(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(
                f"points must have shape (n, 2) or (2,), got {np.shape(points)}")
        val = evaluate_polys((self,), pts)[0]
        return float(val[0]) if single else val

    def __repr__(self):
        return f"Poly2(degree={self.degree}, terms={int(np.count_nonzero(self.coeffs))})"


def evaluate_polys(polys, points) -> np.ndarray:
    """Values (k, n) of k Poly2 at (n, 2) points, from one y-power table and
    one copy of the coordinates; Poly2.__call__ is the case k = 1.

    Each polynomial's products ypow @ coeffs.T take 2 to `gemm` rows (a
    one-row tail runs as two), at offsets that are multiples of `gemm` as in
    its own call: OpenBLAS runs them on one thread (see GEMM_ONE_THREAD) and
    never as a matrix-vector call. On the reference results' OpenBLAS kernel
    (SkylakeX) a row's value does not depend on its place in such a product,
    so a value depends on its point alone and callers chunk points as memory
    suits them. The tables hold all n rows: n (nx + ny) floats, for the
    largest coefficient table dimensions nx and ny.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {points.shape}")
    coeffs = [p.coeffs for p in polys]
    n = len(points)
    nx = max(c.shape[0] for c in coeffs)
    ny = max(c.shape[1] for c in coeffs)
    # one buffer holds both tables (each y power contiguous, each
    # polynomial's slices C-ordered): one allocation per call, which the
    # allocator reuses, where two took ten times the page faults of a
    # grid-compare run
    table = np.empty(n * (nx + ny))
    ypow = table[:n * ny].reshape(ny, n).T
    ypow[:, 0] = 1.0
    x = np.ascontiguousarray(points[:, 0])
    y = np.ascontiguousarray(points[:, 1])
    for b in range(1, ny):
        np.multiply(ypow[:, b - 1], y, out=ypow[:, b])
    out = np.zeros((len(coeffs), n))
    for c, val in zip(coeffs, out):
        gemm = max(2, (GEMM_ONE_THREAD - 1) // c.size)
        # block[:, a] is sum_b c[a, b] y^b
        block = table[n * ny:n * (ny + c.shape[0])].reshape(n, c.shape[0])
        cpow = ypow[:, :c.shape[1]]
        for g in range(0, n, gemm):
            if g == n - 1:  # a matrix-vector call can round otherwise
                block[g] = np.matmul(cpow[[g, g]], c.T)[0]
            else:
                np.matmul(cpow[g:g + gemm], c.T, out=block[g:g + gemm])
        for a in range(c.shape[0] - 1, -1, -1):
            np.multiply(val, x, out=val)
            val += block[:, a]
    return out


@dataclass(frozen=True)
class HarmonicBasis:
    """The 2l+2 scaled harmonic polynomials h_1..h_{2l+2} on each element of
    a stack, in its frame (see ScaledFrame); values and gradients take
    (C, P, 2) points and put the cell axis first."""

    frame: ScaledFrame
    ell: int

    @property
    def size(self) -> int:
        return 2 * self.ell + 2

    def _zpowers(self, points, top: int) -> np.ndarray:
        loc = self.frame.local(points)
        z = loc[..., 0] + 1j * loc[..., 1]
        pows = np.empty((top + 1,) + z.shape, dtype=complex)
        pows[0] = 1.0
        for k in range(1, top + 1):
            pows[k] = pows[k - 1] * z
        return pows

    def values(self, points) -> np.ndarray:
        """h_i at the given points, shape (C, 2l+2, npts)."""
        return self._values(self._zpowers(points, self.ell + 1))

    def gradients(self, points) -> np.ndarray:
        """grad h_i at the given points, shape (C, 2l+2, npts, 2)."""
        return self._gradients(self._zpowers(points, self.ell))

    def values_and_gradients(self, points) -> tuple:
        """values(points) and gradients(points) from one power table."""
        pows = self._zpowers(points, self.ell + 1)
        return self._values(pows), self._gradients(pows)

    def _values(self, pows) -> np.ndarray:
        out = np.empty(pows.shape[1:-1] + (self.size, pows.shape[-1]))
        for k in range(1, self.ell + 2):
            out[..., 2 * k - 2, :] = pows[k].real
            out[..., 2 * k - 1, :] = pows[k].imag
        return out

    def _gradients(self, pows) -> np.ndarray:
        h = self.frame.scale[:, None]
        out = np.empty(pows.shape[1:-1] + (self.size, pows.shape[-1], 2))
        for k in range(1, self.ell + 2):
            # (k / h) z^(k-1) gives both gradients; -(c * y) is (-c) * y
            c = k / h
            re, im = c * pows[k - 1].real, c * pows[k - 1].imag
            out[..., 2 * k - 2, :, 0] = re
            out[..., 2 * k - 2, :, 1] = -im
            out[..., 2 * k - 1, :, 0] = im
            out[..., 2 * k - 1, :, 1] = re
        return out


def harmonic_basis(frame: ScaledFrame, ell: int) -> HarmonicBasis:
    """Basis of gradients-of-harmonics space for degree parameter ell >= 0."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return HarmonicBasis(frame, int(ell))


def manufactured_problem(K, beta, gamma, exact_u: Poly2, **params) -> ProblemSpec:
    """Derive f = -div(K grad u) + beta . grad u + gamma u symbolically."""
    K = np.asarray(K, dtype=float)
    ux, uy = exact_u.dx(), exact_u.dy()
    f = (
        -(K[0, 0] * ux.dx() + K[0, 1] * ux.dy() + K[1, 0] * uy.dx() + K[1, 1] * uy.dy())
        + beta[0] * ux
        + beta[1] * uy
        + gamma * exact_u
    )
    return ProblemSpec(
        K=K, beta=beta, gamma=gamma, f=f,
        exact_u=exact_u, exact_grad_u=(ux, uy), **params,
    )


def _bump_factor(R: float) -> np.ndarray:
    """1D coefficients of t^4 (R - t)(1 - t)^4, low order first."""
    one_minus_t = np.array([1.0, -1.0])
    q = np.convolve(one_minus_t, one_minus_t)
    q = np.convolve(q, q)  # (1-t)^4
    q = np.convolve(q, np.array([R, -1.0]))
    return np.convolve(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), q)


def build_benchmark_coefficients(R1: float = 0.9, R2: float = 0.3,
                                 theta: float = np.pi / 6) -> ProblemSpec:
    """Rotated-anisotropy benchmark with manufactured solution u = beta_1.

    The advection field is the curl of the stream function
    psi = 250000 F(x; R1) F(y; R2) with F(t; R) = t^4 (R - t)(1 - t)^4,
    so beta = (dpsi/dy, -dpsi/dx) is divergence free by construction and
    vanishes on the boundary of the unit square. The diffusion tensor is
    K = G(theta) diag(1, 1e-9) G(theta)^T with G a Givens rotation, and
    gamma = x(1-x)y(1-y).
    """
    if not (0.0 <= R1 <= 1.0 and 0.0 <= R2 <= 1.0):
        raise ValueError("R1 and R2 must lie in [0, 1]")
    psi = 250000.0 * Poly2.from_separable(_bump_factor(R1), _bump_factor(R2))
    beta = (psi.dy(), -psi.dx())
    gamma = Poly2.from_separable([0.0, 1.0, -1.0], [0.0, 1.0, -1.0])
    c, s = np.cos(theta), np.sin(theta)
    G = np.array([[c, -s], [s, c]])
    K = G @ np.diag([1.0, 1.0e-9]) @ G.T
    return manufactured_problem(K, beta, gamma, beta[0],
                                theta=theta, R1=R1, R2=R2, name="benchmark")


def poisson_problem() -> ProblemSpec:
    """Poisson with unit load, no advection or reaction, no exact solution."""
    zero = Poly2.zero()
    return ProblemSpec(K=np.eye(2), beta=(zero, zero), gamma=zero,
                       f=Poly2.const(1.0), name="poisson")


def bubble_problem() -> ProblemSpec:
    """Poisson with manufactured solution u = x(1-x)y(1-y)."""
    u = Poly2.from_separable([0.0, 1.0, -1.0], [0.0, 1.0, -1.0])
    zero = Poly2.zero()
    return manufactured_problem(np.eye(2), (zero, zero), zero, u, name="bubble")
