"""Independent reference computations used across the test suite.

The monomial integrator here reduces area integrals to boundary integrals
by the divergence theorem and never triangulates, so it shares no code
path with the production polygon rule. ``centroid``, ``first_moments``
and ``edge_lengths_normals`` are the one-quantity geometry functions that
``geometry.polygon_geometry`` replaced, kept as the references its record
must match bit for bit. The ``loop_*`` functions are the loop versions of
the array-level, shared-pass and stacked production code, kept as the
references it must match bit for bit: the stacked kernels over a
``PolygonStack`` must give every cell the floats of its own loop, and
``Poly2`` on a chunk's concatenated points those of ``loop_poly2_eval``
cell by cell. ``area_gram`` integrates the harmonic-gradient Gram matrix
over the element area, the reference for the boundary Gram that
``hgrad_matrix`` solves against. ``loop_jacobi_singular_values`` is
the pure-Python one-sided Jacobi SVD that LAPACK's ``dgejsv`` replaced in
``analysis.jacobi_singular_values``; it is the reference the audit's
ratios must match to a relative tolerance, since the rotation order
differs.
"""
import numpy as np
import scipy.sparse as sparse

from sfvem.geometry import polygon_geometry, signed_area
from sfvem.quadrature import gauss_legendre, polygon_rule


def centroid(vertices: np.ndarray) -> np.ndarray:
    """Area centroid from the shoelace first moments."""
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return np.array([cx, cy])


def first_moments(vertices: np.ndarray) -> tuple[float, float]:
    """Exact integrals of x and y over the polygon."""
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    return float(np.sum((x + xn) * cross) / 6.0), float(np.sum((y + yn) * cross) / 6.0)


def edge_lengths_normals(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge vectors, lengths, and outward unit normals for a CCW polygon.

    Edge i runs from vertex i to vertex i+1 (cyclic).
    """
    e = np.roll(vertices, -1, axis=0) - vertices
    lengths = np.sqrt(np.sum(e * e, axis=1))
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / lengths[:, None]
    return e, lengths, normals


def monomial_integral(vertices, a: int, b: int) -> float:
    """Integral of x^a y^b over a simple CCW polygon.

    Uses div F = x^a y^b with F = (x^{a+1} y^b / (a+1), 0), reducing to
    edge integrals of polynomials of degree a+b+1, integrated exactly by
    Gauss rules on each edge.
    """
    vertices = np.asarray(vertices, dtype=float)
    n = len(vertices)
    rule = gauss_legendre((a + b + 3) // 2 + 1)
    t = 0.5 * (rule.nodes + 1.0)
    w = 0.5 * rule.weights
    total = 0.0
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        e = q - p
        L = float(np.hypot(*e))
        if L == 0.0:
            continue
        nx = e[1] / L  # outward normal x component for CCW orientation
        x = p[0] + t * e[0]
        y = p[1] + t * e[1]
        total += L * nx * float(w @ (x ** (a + 1) * y ** b)) / (a + 1)
    return total


def polygon_area(vertices) -> float:
    return monomial_integral(vertices, 0, 0)


def trapezoid_boundary_flux(vertices, values) -> np.ndarray:
    """Integral over the polygon boundary of the piecewise linear trace
    times the outward normal, edge by edge (exact for linear traces)."""
    vertices = np.asarray(vertices, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(vertices)
    out = np.zeros(2)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        e = q - p
        L = float(np.hypot(*e))
        normal = np.array([e[1], -e[0]]) / L
        out += 0.5 * (values[i] + values[(i + 1) % n]) * L * normal
    return out


def trapezoid_boundary_mean(vertices, values) -> float:
    """Boundary mean of the piecewise linear trace."""
    vertices = np.asarray(vertices, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(vertices)
    total = 0.0
    perim = 0.0
    for i in range(n):
        L = float(np.hypot(*(vertices[(i + 1) % n] - vertices[i])))
        total += 0.5 * (values[i] + values[(i + 1) % n]) * L
        perim += L
    return total / perim


def loop_polygon_rule(vertices, degree: int):
    """Polygon rule built triangle by triangle, each with its own Duffy map.

    The same fan/ear-clip split and the same floating-point operations per
    point as ``polygon_rule``, one triangle at a time, so the two must agree
    bit for bit. Returns (points, weights).
    """
    from sfvem.quadrature import _ear_clip, _gauss01

    vertices = np.asarray(vertices, dtype=float)
    c = vertices.mean(axis=0)
    n = len(vertices)
    scale2 = max(np.abs(vertices - c).max(), 1.0) ** 2
    tris = []
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        cross = (a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0])
        if cross <= 1e-14 * scale2:
            tris = _ear_clip(vertices)
            break
        tris.append((c, a, b))
    nu = (degree + 3) // 2
    nv = (degree + 2) // 2
    xu, wu = _gauss01(nu)
    xv, wv = _gauss01(nv)
    u = np.repeat(xu, nv)
    v = np.tile(xv, nu)
    w = np.repeat(wu, nv) * np.tile(wv, nu) * u
    pts, wts = [], []
    for v0, v1, v2 in tris:
        v0, v1, v2 = np.asarray(v0), np.asarray(v1), np.asarray(v2)
        e1 = v1 - v0
        e2 = v2 - v1
        pts.append(v0[None, :] + u[:, None] * e1[None, :]
                   + (u * v)[:, None] * e2[None, :])
        area2 = e1[0] * (v2 - v0)[1] - e1[1] * (v2 - v0)[0]
        wts.append(w * area2)
    return np.vstack(pts), np.concatenate(wts)


def loop_nabla_matrix(vertices, frame) -> np.ndarray:
    """H1 projection matrix (3, N) with the trapezoid stencils accumulated
    edge by edge; ``nabla_matrix`` must reproduce it bit for bit."""
    vertices = np.asarray(vertices, dtype=float)
    area = signed_area(vertices)
    n = len(vertices)
    _, lengths, normals = edge_lengths_normals(vertices)
    W = np.zeros((2, n))
    wtrap = np.zeros(n)
    for e in range(n):
        j = (e + 1) % n
        half = 0.5 * lengths[e] * normals[e]
        W[:, e] += half
        W[:, j] += half
        wtrap[e] += 0.5 * lengths[e]
        wtrap[j] += 0.5 * lengths[e]
    P = np.zeros((3, n))
    P[1] = frame.scale * W[0] / area
    P[2] = frame.scale * W[1] / area
    perim = lengths.sum()
    loc = frame.local(vertices)
    mean_x = wtrap @ loc[:, 0] / perim
    mean_y = wtrap @ loc[:, 1] / perim
    P[0] = wtrap / perim - mean_x * P[1] - mean_y * P[2]
    return P


def area_gram(poly, basis) -> np.ndarray:
    """Gram matrix G_ij = <grad h_i, grad h_j> integrated over the element
    with the degree-2 ell polygon rule, symmetrized as (A + A^T)/2."""
    rule = polygon_rule(poly.vertices, 2 * basis.ell)
    grads = basis.gradients(rule.points)
    G = np.einsum("ipd,jpd,p->ij", grads, grads, rule.weights)
    return 0.5 * (G + G.T)


def loop_solve_gram(G, rhs):
    """G^-1 rhs through scipy's ``cho_factor`` and ``cho_solve``, or
    ``pinvh`` when G is nearly singular or its Cholesky fails, with the
    same positive-definiteness check and tolerance as
    ``projectors._solve_grams``; its per-cell LAPACK loop must give the
    same floats, in the same column-major layout."""
    import scipy.linalg

    from sfvem.errors import SingularGramError
    from sfvem.projectors import GRAM_RANK_TOL

    eig = np.linalg.eigvalsh(G)
    if eig[-1] <= 0.0:
        raise SingularGramError("gram matrix is not positive definite")
    if eig[0] < GRAM_RANK_TOL * eig[-1]:
        return scipy.linalg.pinvh(G) @ rhs
    try:
        factor = scipy.linalg.cho_factor(G)
    except scipy.linalg.LinAlgError:
        return scipy.linalg.pinvh(G) @ rhs
    return scipy.linalg.cho_solve(factor, rhs)


def loop_hgrad_matrix(vertices, basis):
    """Harmonic-gradient projector (P, G) with the boundary Gram and the
    right-hand side accumulated edge by edge, three basis evaluations per
    edge; ``hgrad_matrix`` must reproduce both bit for bit."""
    vertices = np.asarray(vertices, dtype=float)
    n = len(vertices)
    _, lengths, normals = edge_lengths_normals(vertices)

    def edge_points(e, rule):
        t = 0.5 * (rule.nodes + 1.0)
        a, b = vertices[e], vertices[(e + 1) % n]
        return a[None, :] + t[:, None] * (b - a)[None, :], t, 0.5 * rule.weights

    G = np.zeros((basis.size, basis.size))
    for e in range(n):
        pts, _, w = edge_points(e, gauss_legendre(basis.ell + 1))
        dn = basis.gradients(pts) @ normals[e]
        G += lengths[e] * (dn * w) @ basis.values(pts).T
    G = 0.5 * (G + G.T)
    B = np.zeros((basis.size, n))
    for e in range(n):
        pts, t, w = edge_points(e, gauss_legendre((basis.ell + 3) // 2))
        dn = basis.gradients(pts) @ normals[e]
        B[:, e] += lengths[e] * dn @ (w * (1.0 - t))
        B[:, (e + 1) % n] += lengths[e] * dn @ (w * t)
    return loop_solve_gram(G, B), G


def loop_voronoi_cells(seeds):
    """Voronoi cells of the unit square by clipping against the bisector of
    every other seed, in ascending seed order.

    The all-pairs loop the generator's skipping loop must reproduce bit for
    bit: the skipped clips cut nothing, so the clips that remain see the
    same input.
    """
    from sfvem.errors import MeshGenerationError
    from sfvem.mesh import _UNIT_SQUARE, _halfplane_clip

    pts = np.asarray(seeds, dtype=float).tolist()
    cells = []
    for i, (sx, sy) in enumerate(pts):
        poly = list(_UNIT_SQUARE)
        for j, (tx, ty) in enumerate(pts):
            if j == i:
                continue
            dx, dy = tx - sx, ty - sy
            mx, my = 0.5 * (sx + tx), 0.5 * (sy + ty)
            poly = _halfplane_clip(poly, dx, dy, dx * mx + dy * my)
            if len(poly) < 3:
                raise MeshGenerationError(f"seed {i} produced an empty Voronoi cell")
        cells.append(np.array(poly))
    return cells


def loop_closest_pair(seeds):
    """The j of the first pair (i, j), i < j, in lexicographic order whose
    seeds are closer than 1e-6, or None."""
    n = len(seeds)
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(seeds[i] - seeds[j])) < 1e-6:
                return j
    return None


def array_halfplane_clip(poly, nx, ny, c):
    """Sutherland-Hodgman clip to nx*x + ny*y <= c on numpy (2,) points,
    one numpy operation per coordinate pair; the tuple-point clip of the
    mesh generator must give the same coordinates bit for bit."""
    out = []
    m = len(poly)
    for i in range(m):
        P = poly[i - 1]
        Q = poly[i]
        fp = nx * P[0] + ny * P[1] - c
        fq = nx * Q[0] + ny * Q[1] - c
        if fq <= 0.0:
            if fp > 0.0:
                t = fp / (fp - fq)
                out.append(P + t * (Q - P))
            out.append(Q)
        elif fp < 0.0:
            t = fp / (fp - fq)
            out.append(P + t * (Q - P))
    return out


def loop_poly2_eval(poly, points) -> np.ndarray:
    """Values of a Poly2 at (n, 2) points through one Vandermonde table of
    the y powers (``np.vander``) and one product for all points: the
    evaluation ``Poly2.__call__`` replaced with a row-block loop, which
    must give every point's value bit for bit."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    ypow = np.vander(y, poly.coeffs.shape[1], increasing=True)
    slices = ypow @ poly.coeffs.T  # (npts, nx): value of sum_b c[a,b] y^b
    val = np.zeros_like(x)
    for a in range(poly.coeffs.shape[0] - 1, -1, -1):
        val = val * x + slices[:, a]
    return val


def _loop_volume_degree(spec, ell):
    return max(2 * ell, 2, spec.beta[0].degree + ell, spec.beta[1].degree + ell,
               spec.gamma.degree, spec.f.degree)


def loop_sfvem_local(vertices, spec, ell):
    """Stabilization-free local matrices built from nothing but the
    vertices, with every volume integral through ``PolygonRule.integrate``;
    ``sfvem_local`` must reproduce them bit for bit, with or without a
    shared cell record."""
    from sfvem.element import LocalElementMatrices
    from sfvem.poly import harmonic_basis
    from sfvem.projectors import nabla_matrix, pi0_row

    vertices = np.asarray(vertices, dtype=float)
    poly = polygon_geometry(vertices)
    basis = harmonic_basis(poly.frame, ell)
    P, G = loop_hgrad_matrix(vertices, basis)
    r = pi0_row(poly, nabla_matrix(poly))
    rule = polygon_rule(vertices, _loop_volume_degree(spec, ell))
    grads = basis.gradients(rule.points)
    K = spec.K
    if abs(K[0, 1]) == 0.0 and K[0, 0] == K[1, 1]:
        MK = K[0, 0] * G
    else:
        KG = np.einsum("ab,iqb->iqa", K, grads)
        MK = np.einsum("jqa,iqa,q->ij", grads, KG, rule.weights)
    A_diff = P.T @ MK @ P
    A_diff = 0.5 * (A_diff + A_diff.T)
    bvals = np.column_stack([spec.beta[0](rule.points), spec.beta[1](rule.points)])
    t = np.einsum("iqa,qa,q->i", grads, bvals, rule.weights)
    A_adv = np.outer(r, t @ P)
    A_reac = rule.integrate(spec.gamma) * np.outer(r, r)
    b = rule.integrate(spec.f) * r
    return LocalElementMatrices(ell, A_diff, A_adv, A_reac, b, r)


def loop_vem_local(vertices, spec):
    """Stabilized comparator's local matrices built from nothing but the
    vertices; ``standard_vem_local`` must reproduce them bit for bit."""
    from sfvem.element import LocalElementMatrices
    from sfvem.projectors import dof_matrix, nabla_matrix, pi0_row

    vertices = np.asarray(vertices, dtype=float)
    poly = polygon_geometry(vertices)
    frame = poly.frame
    nabla = nabla_matrix(poly)
    D = dof_matrix(vertices, frame)
    r = pi0_row(poly, nabla)
    h = frame.scale
    K = spec.K
    S = nabla[1:]
    consistency = (signed_area(vertices) / h**2) * (S.T @ K @ S)
    Q = np.eye(len(vertices)) - D @ nabla
    A_diff = consistency + 0.5 * float(np.trace(K)) * (Q.T @ Q)
    A_diff = 0.5 * (A_diff + A_diff.T)
    rule = polygon_rule(vertices, _loop_volume_degree(spec, 0))
    bbar = np.array([rule.integrate(spec.beta[0]), rule.integrate(spec.beta[1])])
    A_adv = np.outer(r, (bbar @ S) / h)
    A_reac = rule.integrate(spec.gamma) * np.outer(r, r)
    b = rule.integrate(spec.f) * r
    return LocalElementMatrices(0, A_diff, A_adv, A_reac, b, r)


def loop_assemble(mesh, spec, method, ell_offset=0, dirichlet_values=None):
    """One method's reduced system, each cell built on its own and its COO
    entries appended cell by cell; ``assemble_many`` must give every method
    this system bit for bit."""
    from sfvem.element import effective_ell
    from sfvem.system import GlobalSystem

    nv = mesh.n_vertices
    boundary = np.zeros(nv, dtype=bool)
    boundary[list(mesh.boundary_vertices)] = True
    g = np.zeros(nv)
    if dirichlet_values is not None:
        g[boundary] = np.asarray(dirichlet_values, dtype=float)[boundary]
    n_free = nv - int(boundary.sum())
    free_index = np.full(nv, -1, dtype=int)
    free_index[~boundary] = np.arange(n_free)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n_free)
    ell_by_cell = np.zeros(mesh.n_cells, dtype=int)
    for ci, cell in enumerate(mesh.cells):
        pts = mesh.cell_points(ci)
        if method == "sfvem":
            local = loop_sfvem_local(pts, spec, effective_ell(len(cell), ell_offset))
        else:
            local = loop_vem_local(pts, spec)
        ell_by_cell[ci] = local.ell
        idx = np.array(cell)
        red = free_index[idx]
        inner = red >= 0
        fr = red[inner]
        A = local.A[inner]
        rows.append(np.repeat(fr, len(fr)))
        cols.append(np.tile(fr, len(fr)))
        vals.append(A[:, inner].ravel())
        rhs[fr] += local.b[inner] - A[:, ~inner] @ g[idx[~inner]]
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(n_free, n_free)).tocsr()
    return GlobalSystem(matrix, rhs, free_index, method, mesh, ell_by_cell, g)


def loop_error_norms(solution, spec):
    """Relative (L2, energy) errors of one solution, its own rule, linear
    projection and exact-solution values on every cell; ``error_norms_many``
    must give each solution this pair exactly."""
    from sfvem.projectors import nabla_matrix

    K = spec.K
    degree = 2 * spec.exact_u.degree + 2
    mesh = solution.mesh
    num0 = den0 = num1 = den1 = 0.0
    for ci, cell in enumerate(mesh.cells):
        pts = mesh.cell_points(ci)
        poly = polygon_geometry(pts)
        frame = poly.frame
        coef = nabla_matrix(poly) @ solution.values[list(cell)]
        rule = polygon_rule(pts, degree)
        uh = coef[0] + frame.local(rule.points) @ coef[1:]
        gh = coef[1:] / frame.scale
        u = spec.exact_u(rule.points)
        gx = spec.exact_grad_u[0](rule.points)
        gy = spec.exact_grad_u[1](rule.points)
        d0, dx, dy = u - uh, gx - gh[0], gy - gh[1]
        w = rule.weights
        num0 += w @ (d0 * d0)
        den0 += w @ (u * u)
        num1 += w @ (K[0, 0] * dx * dx + 2.0 * K[0, 1] * dx * dy + K[1, 1] * dy * dy)
        den1 += w @ (K[0, 0] * gx * gx + 2.0 * K[0, 1] * gx * gy + K[1, 1] * gy * gy)
    return float(np.sqrt(num0 / den0)), float(np.sqrt(num1 / den1))


# one-sided Jacobi stops once every column pair is orthogonal to this
# relative tolerance, or after this many sweeps
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


def loop_jacobi_singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of a small dense matrix by one-sided Jacobi rotations.

    Columns are rotated pairwise until mutually orthogonal relative to
    JACOBI_TOL; the singular values are then the column norms. Accurate for
    the tiny trailing values the audit cares about. Returned in descending
    order.
    """
    U = np.array(A, dtype=float)
    n = U.shape[1]
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = U[:, p], U[:, q]
                app = float(ap @ ap)
                aqq = float(aq @ aq)
                apq = float(ap @ aq)
                if app * aqq == 0.0:
                    continue
                rel = abs(apq) / np.sqrt(app * aqq)
                if rel <= JACOBI_TOL:
                    continue
                off = max(off, rel)
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) \
                    if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                U[:, p], U[:, q] = c * ap - s * aq, s * ap + c * aq
        if off <= JACOBI_TOL:
            break
    sv = np.sqrt((U * U).sum(axis=0))
    return np.sort(sv)[::-1]
