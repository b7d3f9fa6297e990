"""Coefficient bundle for the advection-diffusion-reaction model problem.

The continuous problem is
    -div(K grad u) + beta . grad u + gamma u = f   on the unit square,
    u = 0 on the boundary,
with K a constant SPD tensor, beta a divergence-free polynomial field,
and gamma a nonnegative polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# 7 x 7 interior points where gamma's sign is checked
_SAMPLE_GRID = np.column_stack(
    [g.ravel() for g in np.meshgrid(np.linspace(0.05, 0.95, 7),
                                    np.linspace(0.05, 0.95, 7))])


@dataclass(frozen=True)
class ProblemSpec:
    """Problem coefficients plus optional exact solution for error studies.

    K is a constant 2x2 SPD array. beta is a pair of Poly2, gamma and f are
    Poly2, and the exact solution, when given, is a Poly2 with a Poly2
    gradient pair, all with finite entries. Polynomial data is what lets
    every volume integral be exact; anything else raises ValueError. theta,
    R1, R2 record benchmark parameters when the coefficients come from the
    rotated-anisotropy benchmark.
    """

    K: np.ndarray
    beta: tuple
    gamma: object
    f: object
    exact_u: object = None
    exact_grad_u: tuple = None
    theta: float = None
    R1: float = None
    R2: float = None
    name: str = field(default="custom")

    def __post_init__(self):
        from .poly import Poly2  # poly imports this module

        try:
            K = np.asarray(self.K, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("K must be a constant 2x2 tensor") from None
        if K.shape != (2, 2):
            raise ValueError("K must be a constant 2x2 tensor")
        if not np.isfinite(K).all():
            raise ValueError("K must be finite")
        scale = np.abs(K).max()
        if np.abs(K - K.T).max() > 1e-12 * scale:
            raise ValueError("K must be symmetric")
        if np.linalg.eigvalsh(K).min() <= 0:
            raise ValueError("K must have positive eigenvalues")
        object.__setattr__(self, "K", K)
        bx, by = self.beta
        polys = [("beta", bx), ("beta", by), ("gamma", self.gamma), ("f", self.f)]
        if self.exact_u is not None:
            polys.append(("exact_u", self.exact_u))
        if self.exact_grad_u is not None:
            polys += [("exact_grad_u", g) for g in self.exact_grad_u]
        for label, p in polys:
            if not isinstance(p, Poly2):
                raise ValueError(f"{label} must be a Poly2, got {type(p).__name__}")
            if not np.isfinite(p.coeffs).all():
                raise ValueError(f"{label} must have finite coefficients")
        # the divergence check runs on coefficients: high-order stream
        # functions carry coefficients far larger than their values, and
        # mixed-partial rounding is an ulp at coefficient scale
        dxx, dyy = bx.dx(), by.dy()
        div = dxx + dyy
        scale = max(1.0, np.abs(dxx.coeffs).max(), np.abs(dyy.coeffs).max())
        if np.abs(div.coeffs).max() > 1e-12 * scale:
            raise ValueError("beta must be divergence free")
        g = self.gamma(_SAMPLE_GRID)
        if g.min() < -1e-12 * max(1.0, np.abs(g).max()):
            raise ValueError("gamma must be nonnegative on the domain")
