"""Independent reference computations used across the test suite.

The monomial integrator here reduces area integrals to boundary integrals
by the divergence theorem and never triangulates, so it shares no code
path with the production polygon rule; ``star_monomial_integrals`` is its
cancellation-free form for polygons star shaped about the origin, from the
boundary formula for homogeneous functions. ``centroid``, ``first_moments``,
``edge_lengths_normals`` and ``diameter`` are the one-quantity geometry
functions that ``geometry.polygon_stack`` replaced, kept as the references
its record must match bit for bit; ``one_frame`` is the scaled frame of one
polygon from them, as a stack of one. ``as_poly2`` expands a harmonic
basis into ``Poly2`` members, the reference for its values and gradients. The ``loop_*`` functions are the loop versions of
the array-level, shared-pass and stacked production code, kept as the
references it must match: bit for bit for the polygon rules, ``Poly2``
on many cells' concatenated points (against ``loop_poly2_eval`` cell by
cell) and the mesh checks, and within the per-kernel tolerances of
``test_oracle_identity.RTOL`` for the element kernels, assembly and error
norms, whose batched contractions add in another order. ``area_gram`` integrates the harmonic-gradient Gram matrix
over the element area, the reference for the boundary Gram that
``hgrad_matrix`` solves against. ``moment_mean_rows`` are the element-mean
rows from the shoelace first moments that nabla's constant row replaced:
on mesh cells that row must stay as close to a rule's mean as they are.
``loop_boundary_flux`` integrates
v beta . n edge by edge, the reference for the advection vector and the
comparator's integral of beta, which equal volume integrals since
div beta = 0. ``loop_jacobi_singular_values`` is
the pure-Python one-sided Jacobi SVD that LAPACK's ``dgejsv`` replaced in
``analysis.jacobi_singular_values``; it is the reference the audit's
ratios must match to a relative tolerance, since the rotation order
differs. ``loop_validate`` is ``PolyMesh``'s cell-by-cell check with its
per-edge dictionary, which the checks by vertex-count group must match
error for error, type and message.
"""
import numpy as np
import scipy.sparse as sparse

from sfvem.geometry import ScaledFrame, polygon_stack, signed_area
from sfvem.poly import HarmonicBasis, Poly2
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


def diameter(vertices: np.ndarray) -> float:
    """Max pairwise vertex distance."""
    d = vertices[:, None, :] - vertices[None, :, :]
    return float(np.sqrt(np.max(np.sum(d * d, axis=-1))))


def one_frame(vertices) -> ScaledFrame:
    """The scaled frame of one polygon, its centroid and diameter, as a
    stack of one."""
    vertices = np.asarray(vertices, dtype=float)
    return ScaledFrame(centroid(vertices)[None], np.array([diameter(vertices)]))


def as_poly2(center, scale: float, ell: int) -> list:
    """The members of the harmonic basis on the frame (center, scale), each
    expanded to a Poly2 in global coordinates by the power recurrence."""
    cx, cy = center
    xh = Poly2([[-cx / scale], [1.0 / scale]])
    yh = Poly2([[-cy / scale, 1.0 / scale]])
    re, im = Poly2.const(1.0), Poly2.zero()
    out = []
    for _ in range(ell + 1):
        re, im = re * xh - im * yh, re * yh + im * xh
        out.extend([re, im])
    return out


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


def star_monomial_integrals(vertices, degree: int) -> np.ndarray:
    """Integrals of x^a y^b, a + b <= degree, over a simple CCW polygon
    that is star shaped about the origin, as a (degree + 1, degree + 1)
    table indexed [a, b] (entries with a + b > degree are not integrals).

    A monomial m of degree d is homogeneous, so div(x m) = (d + 2) m and
    the integral is sum_e (p_e x q_e) int_0^1 m(p_e + t (q_e - p_e)) dt
    / (d + 2) over the edges p_e -> q_e, integrated exactly by Gauss rules
    (Chin, Lasserre and Sukumar, Comput. Mech. 2015). About a point of
    the kernel every factor p_e x q_e is nonnegative, so the sum does not
    cancel beyond the cancellation in m itself, unlike the divergence
    formula of monomial_integral far from the origin.
    """
    vertices = np.asarray(vertices, dtype=float)
    rule = gauss_legendre(degree // 2 + 1)
    t = 0.5 * (rule.nodes + 1.0)
    p, q = vertices, np.roll(vertices, -1, axis=0)
    x = p[:, 0, None] + t * (q - p)[:, 0, None]
    y = p[:, 1, None] + t * (q - p)[:, 1, None]
    k = np.arange(degree + 1)
    cross = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    weights = (cross[:, None] * (0.5 * rule.weights)).ravel()
    edge = (np.vander(x.ravel(), degree + 1, increasing=True).T * weights
            ) @ np.vander(y.ravel(), degree + 1, increasing=True)
    return edge / (k[:, None] + k + 2)


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

    The same fan about the vertex average and the same floating-point
    operations per point as ``polygon_rule``, one triangle at a time, so the
    two must agree bit for bit. Returns (points, weights).
    """
    from sfvem.quadrature import _gauss01

    vertices = np.asarray(vertices, dtype=float)
    c = vertices.mean(axis=0)
    n = len(vertices)
    tris = [(c, vertices[i], vertices[(i + 1) % n]) for i in range(n)]
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


def loop_nabla_matrix(vertices) -> np.ndarray:
    """H1 projection matrix (3, N) in the polygon's frame (``centroid`` and
    ``diameter``), with the trapezoid stencils accumulated edge by edge;
    ``nabla_matrix`` must match it."""
    vertices = np.asarray(vertices, dtype=float)
    center, scale = centroid(vertices), diameter(vertices)
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
    P[1] = scale * W[0] / area
    P[2] = scale * W[1] / area
    perim = lengths.sum()
    loc = (vertices - center) / scale
    mean_x = wtrap @ loc[:, 0] / perim
    mean_y = wtrap @ loc[:, 1] / perim
    P[0] = wtrap / perim - mean_x * P[1] - mean_y * P[2]
    return P


def moment_mean_rows(poly, nabla) -> np.ndarray:
    """Rows (C, N) whose product with the vertex values is each cell's mean
    of its linear projection nabla (C, 3, N), from the first moments of the
    PolygonStack poly: nabla[:, 0] plus the frame means of xhat and yhat
    times the gradient rows."""
    frame = poly.frame
    mean_xhat = (poly.moments[:, 0] / poly.area - frame.center[:, 0]) / frame.scale
    mean_yhat = (poly.moments[:, 1] / poly.area - frame.center[:, 1]) / frame.scale
    return (nabla[:, 0] + mean_xhat[:, None] * nabla[:, 1]
            + mean_yhat[:, None] * nabla[:, 2])


def area_gram(vertices, basis) -> np.ndarray:
    """Gram matrix G_ij = <grad h_i, grad h_j> of a basis on one frame,
    integrated over the element with the degree-2 ell polygon rule,
    symmetrized as (A + A^T)/2."""
    rule = polygon_rule(vertices, 2 * basis.ell)
    grads = basis.gradients(rule.points[None])[0]
    G = np.einsum("ipd,jpd,p->ij", grads, grads, rule.weights)
    return 0.5 * (G + G.T)


def loop_solve_gram(G, rhs):
    """G^-1 rhs through scipy's ``cho_factor`` and ``cho_solve``, or
    ``pinvh`` when G is nearly singular or its Cholesky fails, with the
    same positive-definiteness check and tolerance as
    ``projectors._solve_grams``, whose batched solve must match it."""
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


def loop_hgrad_matrix(vertices, ell: int):
    """Harmonic-gradient projector (P, G) for the basis of degree parameter
    ell on the polygon's frame (``one_frame``), with the boundary Gram and
    the right-hand side accumulated edge by edge, three basis evaluations
    per edge; ``hgrad_matrix`` must match both."""
    vertices = np.asarray(vertices, dtype=float)
    basis = HarmonicBasis(one_frame(vertices), ell)
    n = len(vertices)
    _, lengths, normals = edge_lengths_normals(vertices)

    def edge_points(e, rule):
        t = 0.5 * (rule.nodes + 1.0)
        a, b = vertices[e], vertices[(e + 1) % n]
        return a[None, :] + t[:, None] * (b - a)[None, :], t, 0.5 * rule.weights

    G = np.zeros((basis.size, basis.size))
    for e in range(n):
        pts, _, w = edge_points(e, gauss_legendre(basis.ell + 1))
        dn = basis.gradients(pts[None])[0] @ normals[e]
        G += lengths[e] * (dn * w) @ basis.values(pts[None])[0].T
    G = 0.5 * (G + G.T)
    B = np.zeros((basis.size, n))
    for e in range(n):
        pts, t, w = edge_points(e, gauss_legendre((basis.ell + 3) // 2))
        dn = basis.gradients(pts[None])[0] @ normals[e]
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


def loop_diffusion_gram(vertices, K, ell: int) -> np.ndarray:
    """MK_ij = integral of grad h_i . K grad h_j for the basis of degree
    parameter ell on the polygon's frame (``one_frame``), edge by edge: each
    edge's ell + 1 Gauss nodes give its integral of the homogeneous
    integrand, weighted by (v_e - c) . n_e, and the sum is divided by the
    degree sum k_i + k_j; the ``MK`` of ``projectors.hgrad_matrices`` must
    match it."""
    vertices = np.asarray(vertices, dtype=float)
    basis = HarmonicBasis(one_frame(vertices), ell)
    center = centroid(vertices)
    n = len(vertices)
    _, lengths, normals = edge_lengths_normals(vertices)
    rule = gauss_legendre(ell + 1)
    t = 0.5 * (rule.nodes + 1.0)
    w = np.repeat(0.5 * rule.weights, 2)
    MK = np.zeros((basis.size, basis.size))
    for e in range(n):
        a, b = vertices[e], vertices[(e + 1) % n]
        g = basis.gradients((a[None, :] + t[:, None] * (b - a)[None, :])[None])[0]
        gx, gy = g[..., 0], g[..., 1]
        KG = np.stack([K[0, 0] * gx + K[0, 1] * gy, K[1, 0] * gx + K[1, 1] * gy],
                      axis=-1).reshape(basis.size, -1)
        d = a - center
        reach = d[0] * normals[e][0] + d[1] * normals[e][1]
        MK += (lengths[e] * reach) * (g.reshape(basis.size, -1) * w) @ KG.T
    k = np.arange(basis.size) // 2 + 1
    return MK / (k[:, None] + k[None, :])


def volume_diffusion_gram(vertices, K, ell: int, degree: int) -> np.ndarray:
    """MK_ij, the integral of grad h_j . K grad h_i for the harmonic basis
    on the polygon's frame, through one polygon rule of the given degree.
    At degree 33 it is the diffusion Gram the element build computed on the
    benchmark load's rule before it came from edge nodes."""
    rule = polygon_rule(vertices, degree)
    grads = HarmonicBasis(one_frame(vertices), ell).gradients(rule.points[None])[0]
    KG = np.einsum("ab,iqb->iqa", K, grads)
    return np.einsum("jqa,iqa,q->ij", grads, KG, rule.weights)


def _loop_volume_degree(spec):
    return max(spec.gamma.degree, spec.f.degree)


def loop_boundary_flux(vertices, beta, values, degree: int) -> np.ndarray:
    """The boundary integrals of v beta . n, edge by edge, for the map
    ``values`` of (n, 2) points to the (k, n) values of k polynomials v of
    degree at most ``degree``: each edge's Gauss nodes are exact for the
    integrand of degree deg beta + degree, and beta is evaluated edge by
    edge. For a divergence-free beta they are the area integrals of
    grad v . beta."""
    vertices = np.asarray(vertices, dtype=float)
    n = len(vertices)
    _, lengths, normals = edge_lengths_normals(vertices)
    rule = gauss_legendre((max(beta[0].degree, beta[1].degree) + degree + 2) // 2)
    t = 0.5 * (rule.nodes + 1.0)
    out = 0.0
    for e in range(n):
        a, b = vertices[e], vertices[(e + 1) % n]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        flux = beta[0](pts) * normals[e][0] + beta[1](pts) * normals[e][1]
        out = out + lengths[e] * values(pts) @ (0.5 * rule.weights * flux)
    return out


def loop_sfvem_local(vertices, spec, ell):
    """Stabilization-free local matrices built from nothing but the
    vertices: the diffusion Gram from ``loop_diffusion_gram``, the advection
    vector t_i = integral of grad h_i . beta from the edge loop
    ``loop_boundary_flux`` of h_i beta . n, and the load integrals through
    ``PolygonRule.integrate`` on one polygon rule; ``sfvem_local`` must match
    them. The element mean is the constant row of ``loop_nabla_matrix``."""
    from sfvem.element import LocalElementMatrices

    vertices = np.asarray(vertices, dtype=float)
    P, G = loop_hgrad_matrix(vertices, ell)
    r = loop_nabla_matrix(vertices)[0]
    rule = polygon_rule(vertices, _loop_volume_degree(spec))
    K = spec.K
    if abs(K[0, 1]) == 0.0 and K[0, 0] == K[1, 1]:
        MK = K[0, 0] * G
    else:
        MK = loop_diffusion_gram(vertices, K, ell)
    A_diff = P.T @ MK @ P
    A_diff = 0.5 * (A_diff + A_diff.T)
    basis = HarmonicBasis(one_frame(vertices), ell)
    t = loop_boundary_flux(vertices, spec.beta, lambda p: basis.values(p[None])[0], ell + 1)
    A_adv = np.outer(r, t @ P)
    A_reac = rule.integrate(spec.gamma) * np.outer(r, r)
    b = rule.integrate(spec.f) * r
    return LocalElementMatrices(ell, A_diff, A_adv, A_reac, b, r)


def loop_vem_local(vertices, spec, ell=0):
    """Stabilized comparator's local matrices built from nothing but the
    vertices, the integral of beta as the edge loop ``loop_boundary_flux``
    of (x - x_E) beta . n about the centroid x_E, on the edge nodes of the
    record at degree parameter ell that the comparator reads;
    ``standard_vem_local`` (ell = 0) and ``standard_vem_locals`` must match
    them. The element mean is the constant row of ``loop_nabla_matrix``."""
    from sfvem.element import LocalElementMatrices
    from sfvem.projectors import dof_matrix

    vertices = np.asarray(vertices, dtype=float)
    nabla = loop_nabla_matrix(vertices)
    D = dof_matrix(vertices[None], one_frame(vertices))[0]
    r = nabla[0]
    h = diameter(vertices)
    K = spec.K
    S = nabla[1:]
    consistency = (signed_area(vertices) / h**2) * (S.T @ K @ S)
    Q = np.eye(len(vertices)) - D @ nabla
    A_diff = consistency + 0.5 * float(np.trace(K)) * (Q.T @ Q)
    A_diff = 0.5 * (A_diff + A_diff.T)
    rule = polygon_rule(vertices, _loop_volume_degree(spec))
    center = centroid(vertices)
    bbar = loop_boundary_flux(vertices, spec.beta, lambda p: (p - center).T, ell + 1)
    A_adv = np.outer(r, (bbar @ S) / h)
    A_reac = rule.integrate(spec.gamma) * np.outer(r, r)
    b = rule.integrate(spec.f) * r
    return LocalElementMatrices(0, A_diff, A_adv, A_reac, b, r)


# cells per block of rule_groups
RULE_BLOCK = 256


def rule_groups(mesh):
    """A mesh's cells by vertex count, each group cut into blocks of at most
    RULE_BLOCK cells: (cells, index, vertices) per block. The oracles
    evaluate the data on all of a block's rule points in one call, a
    partition unlike any pass's chunks, since a data value depends on its
    point alone; the block bounds the one table of each call."""
    for cells, index in mesh.cell_groups():
        for s in range(0, len(cells), RULE_BLOCK):
            part = index[s:s + RULE_BLOCK]
            yield cells[s:s + RULE_BLOCK], part, mesh.vertices[part]


def group_data_integrals(mesh, spec) -> tuple:
    """Each cell's rule integrals of gamma and f (n_cells,) per block of
    ``rule_groups``: the rules of ``volume_degree``, each coefficient
    evaluated on all of their points in its own Poly2 call, and one einsum
    per integral. The build's integrals of gamma and f must equal these bit
    for bit."""
    from sfvem.element import volume_degree
    from sfvem.quadrature import polygon_rules

    int_gamma, int_f = np.full(mesh.n_cells, np.nan), np.full(mesh.n_cells, np.nan)
    for cells, _, vertices in rule_groups(mesh):
        rule = polygon_rules(vertices, volume_degree(spec))
        w = rule.weights
        pts = rule.points.reshape(-1, 2)
        int_gamma[cells] = np.einsum("cp,cp->c", w, spec.gamma(pts).reshape(w.shape))
        int_f[cells] = np.einsum("cp,cp->c", w, spec.f(pts).reshape(w.shape))
    return int_gamma, int_f


def single_rule_load_integrals(mesh, spec, ell_offset=0) -> np.ndarray:
    """Each cell's integrals of gamma and f, (2, n_cells), as the build
    computed them when its one polygon rule also carried the diffusion Gram:
    of degree max(2 ell, 2, deg beta + ell, deg gamma, deg f) over the
    mesh's ells, per block of ``rule_groups``, with gamma and f evaluated on
    all the block's points in one call each. The build must still match
    these integrals wherever the Gram did not set the degree."""
    from sfvem.element import effective_ell
    from sfvem.quadrature import polygon_rules

    ells = {0} | {effective_ell(len(cell), ell_offset) for cell in mesh.cells}
    degree = max(max(2 * ell, 2, spec.beta[0].degree + ell, spec.beta[1].degree + ell,
                     spec.gamma.degree, spec.f.degree) for ell in ells)
    out = np.empty((2, mesh.n_cells))
    for cells, _, vertices in rule_groups(mesh):
        rule = polygon_rules(vertices, degree)
        pts = rule.points.reshape(-1, 2)
        for k, p in enumerate((spec.gamma, spec.f)):
            values = p(pts).reshape(rule.weights.shape)
            out[k, cells] = [float(w @ v) for w, v in zip(rule.weights, values)]
    return out


def loop_assemble(mesh, spec, method, ell_offset=0, dirichlet_values=None):
    """One method's reduced system, each cell built on its own and its COO
    entries appended cell by cell; ``assemble_many`` must give every method
    this system."""
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
        ell = effective_ell(len(cell), ell_offset)
        if method == "sfvem":
            local = loop_sfvem_local(pts, spec, ell)
        else:
            local = loop_vem_local(pts, spec, ell)
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
    must give each solution this pair."""
    from sfvem.projectors import nabla_matrix

    K = spec.K
    degree = 2 * spec.exact_u.degree + 2
    mesh = solution.mesh
    num0 = den0 = num1 = den1 = 0.0
    for ci, cell in enumerate(mesh.cells):
        pts = mesh.cell_points(ci)
        center, scale = centroid(pts), diameter(pts)
        coef = nabla_matrix(pts) @ solution.values[list(cell)]
        rule = polygon_rule(pts, degree)
        uh = coef[0] + (rule.points - center) / scale @ coef[1:]
        gh = coef[1:] / scale
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


def pointwise_error_norms(solutions, spec) -> list:
    """``error_norms_many`` as the chunked pass computed it point by point:
    per block of ``rule_groups``, each cell's geometry stack, linear projections and polygon rule, the exact solution
    and its gradient each in its own Poly2 call, and per solution the
    projected solution and the error integrands at every rule point. The
    pass on moments must match it within the "split" tolerance."""
    from sfvem.projectors import nabla_matrices
    from sfvem.quadrature import polygon_rules

    mesh = solutions[0].mesh
    K = spec.K
    degree = 2 * spec.exact_u.degree + 2
    den = np.empty((2, mesh.n_cells))
    num = np.empty((len(solutions), 2, mesh.n_cells))
    for cells, index, vertices in rule_groups(mesh):
        poly = polygon_stack(vertices)
        nabla = nabla_matrices(poly)
        rule = polygon_rules(vertices, degree)
        w = rule.weights
        pts = rule.points.reshape(-1, 2)
        loc = poly.frame.local(rule.points)
        u = spec.exact_u(pts).reshape(w.shape)
        gx = spec.exact_grad_u[0](pts).reshape(w.shape)
        gy = spec.exact_grad_u[1](pts).reshape(w.shape)
        den[0, cells] = np.einsum("cp,cp->c", w, u * u)
        den[1, cells] = np.einsum("cp,cp->c", w, K[0, 0] * gx * gx + 2.0 * K[0, 1] * gx * gy
                                  + K[1, 1] * gy * gy)
        for k, solution in enumerate(solutions):
            coef = nabla @ solution.values[index][:, :, None]
            uh = coef[:, 0] + (loc @ coef[:, 1:])[..., 0]
            gh = coef[:, 1:, 0] / poly.frame.scale[:, None]
            d0 = u - uh
            dx = gx - gh[:, :1]
            dy = gy - gh[:, 1:]
            num[k, 0, cells] = np.einsum("cp,cp->c", w, d0 * d0)
            num[k, 1, cells] = np.einsum("cp,cp->c", w, K[0, 0] * dx * dx
                                         + 2.0 * K[0, 1] * dx * dy + K[1, 1] * dy * dy)
    den0, den1 = den.sum(axis=-1)
    num0, num1 = num.sum(axis=-1).T
    return [(float(np.sqrt(n0 / den0)), float(np.sqrt(n1 / den1)))
            for n0, n1 in zip(num0, num1)]


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


def loop_signed_area(vertices) -> float:
    """Shoelace area of one (N, 2) polygon through np.roll, positive for
    CCW loops."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def loop_is_simple(vertices) -> bool:
    """Brute-force segment-intersection test, one edge pair at a time."""
    n = len(vertices)
    if n < 3:
        return False
    segs = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared endpoint, not a proper crossing
            if _segments_properly_intersect(*segs[i], *segs[j]):
                return False
    return True


def loop_validate(vertices, cells) -> frozenset:
    """PolyMesh's checks cell by cell, then edge by edge through a
    dictionary of edge orientations; raises the first failure, or returns
    the vertices of the edges that only one cell uses."""
    from sfvem.errors import MeshIndexError, MeshTopologyError

    vertices = np.asarray(vertices, dtype=float)
    nv = len(vertices)
    if not cells:
        raise MeshTopologyError("mesh has no cells")
    edge_count: dict = {}
    for ci, cell in enumerate(cells):
        if len(cell) < 3:
            raise MeshTopologyError(f"cell {ci} has fewer than 3 vertices")
        for i in cell:
            if not 0 <= i < nv:
                raise MeshIndexError(
                    f"cell {ci} references vertex {i}, but mesh has {nv} vertices"
                )
        if len(set(cell)) != len(cell):
            raise MeshTopologyError(f"cell {ci} repeats a vertex index")
        pts = vertices[list(cell)]
        if loop_signed_area(pts) <= 0.0:
            raise MeshTopologyError(
                f"cell {ci} is clockwise or degenerate (signed area <= 0)"
            )
        if not loop_is_simple(pts):
            raise MeshTopologyError(f"cell {ci} is self-intersecting")
        for k in range(len(cell)):
            a, b = cell[k], cell[(k + 1) % len(cell)]
            key = (a, b) if a < b else (b, a)
            edge_count.setdefault(key, []).append(1 if a < b else -1)
    boundary = set()
    for (a, b), orients in edge_count.items():
        if len(orients) > 2:
            raise MeshTopologyError(
                f"edge ({a}, {b}) is shared by {len(orients)} cells"
            )
        if len(orients) == 2 and orients[0] == orients[1]:
            raise MeshTopologyError(
                f"edge ({a}, {b}) is traversed twice in the same direction"
            )
        if len(orients) == 1:
            boundary.update((a, b))
    used = {i for cell in cells for i in cell}
    for i in range(nv):
        if i not in used:
            raise MeshTopologyError(f"vertex {i} belongs to no cell")
    return frozenset(boundary)


def loop_centroids(float_cells) -> np.ndarray:
    """The Lloyd sweep's seeds, cell by cell: the centroid of each cell's
    own record, which is ``centroid`` of its vertices bit for bit."""
    return np.array([centroid(c) for c in float_cells])


def loop_shortest_edges(verts, cells) -> np.ndarray:
    """The distortion step's shortest edge at each vertex, edge by edge."""
    min_edge = np.full(len(verts), np.inf)
    for cell in cells:
        pts = verts[list(cell)]
        for k in range(len(cell)):
            L = float(np.hypot(*(pts[(k + 1) % len(cell)] - pts[k])))
            min_edge[cell[k]] = min(min_edge[cell[k]], L)
            min_edge[cell[(k + 1) % len(cell)]] = min(
                min_edge[cell[(k + 1) % len(cell)]], L)
    return min_edge
