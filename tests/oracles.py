"""Independent reference computations used across the test suite.

The monomial integrator here reduces area integrals to boundary integrals
by the divergence theorem and never triangulates, so it shares no code
path with the production polygon rule.
"""
import numpy as np

from sfvem.quadrature import gauss_legendre


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
    from sfvem.geometry import edge_lengths_normals, signed_area

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


def loop_hgrad_matrix(vertices, basis):
    """Harmonic-gradient projector (P, G) with the boundary Gram and the
    right-hand side accumulated edge by edge, three basis evaluations per
    edge; ``hgrad_matrix`` must reproduce both bit for bit."""
    from sfvem.geometry import edge_lengths_normals
    from sfvem.projectors import _solve_gram

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
    return _solve_gram(G, B), G


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
