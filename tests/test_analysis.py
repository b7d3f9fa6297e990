import mpmath
import numpy as np
import pytest

from sfvem import analysis
from sfvem.analysis import (AUDIT_HEADER, CONVERGENCE_HEADER,
                            ConvergenceRecord, audit_catalog, audit_row,
                            convergence_row, convergence_study, error_norms,
                            error_norms_many,
                            fit_rates, jacobi_singular_values, spectral_audit,
                            unit_diffusion_matrix, write_audit_csv,
                            write_convergence_csv)
from sfvem.element import effective_ell
from sfvem.mesh import CatalogPolygon, catalog_polygons, generate_distorted_grid, generate_voronoi
from sfvem.poly import (Poly2, build_benchmark_coefficients, bubble_problem,
                        manufactured_problem)
from sfvem.problem import ProblemSpec
from sfvem.system import METHODS, DiscreteSolution, assemble, solve

from meshes import hanging_node_grid, pulled_grid

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
RNG = np.random.default_rng(41)


def interpolant_solution(mesh, func):
    values = func(mesh.vertices)
    return DiscreteSolution(values, mesh, np.ones(mesh.n_cells, dtype=int),
                            "sfvem", 0.0)


# ---------------------------------------------------------------------------
# Jacobi SVD


@pytest.mark.parametrize("n", [2, 5, 11, 20])
def test_jacobi_matches_lapack(n):
    A = RNG.standard_normal((n, n))
    got = jacobi_singular_values(A)
    want = np.linalg.svd(A, compute_uv=False)
    assert np.all(np.diff(got) <= 0)  # descending
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want[0])


def test_jacobi_on_rank_deficient_matrix():
    A = np.outer(np.arange(1.0, 5.0), np.ones(4))
    got = jacobi_singular_values(A)
    want = np.linalg.svd(A, compute_uv=False)
    np.testing.assert_allclose(got, want, atol=1e-13 * want[0])
    assert got[-1] <= 1e-14 * got[0]


def test_jacobi_identity():
    np.testing.assert_allclose(jacobi_singular_values(np.eye(6)), np.ones(6),
                               atol=1e-15)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
def test_jacobi_rectangular_matches_lapack(shape):
    A = RNG.standard_normal(shape)
    got = jacobi_singular_values(A)
    want = np.linalg.svd(A, compute_uv=False)
    assert got.shape == (3,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want[0])


def test_jacobi_relative_accuracy_on_graded_columns():
    # column scales down to 1e-25: every value, the 7e-28 one included,
    # must keep its relative accuracy (an absolute-accuracy SVD zeroes it)
    A = np.random.default_rng(3).standard_normal((6, 6)) * 10.0 ** -np.arange(0, 30, 5.0)
    with mpmath.workdps(60):
        want = sorted((float(s) for s in mpmath.svd_r(mpmath.matrix(A.tolist()),
                                                        compute_uv=False)), reverse=True)
    np.testing.assert_allclose(jacobi_singular_values(A), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jacobi_rejects_non_finite_input(bad):
    A = np.eye(4)
    A[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_singular_values(A)


def test_jacobi_raises_when_lapack_fails(monkeypatch):
    def failing(a, **_):
        n = a.shape[1]
        return np.zeros(n), None, None, np.ones(7), np.zeros(3), 1

    monkeypatch.setattr(analysis, "dgejsv", failing)
    with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
        jacobi_singular_values(np.eye(3))


# ---------------------------------------------------------------------------
# spectral audit


def test_audit_kernel_always_present():
    for p in catalog_polygons()[::4]:
        audit = spectral_audit(p, effective_ell(p.n_vertices))
        assert audit.sigma_min <= 1e-11 * audit.sigma_max, p.name


def test_audit_regular_pentagon_detached():
    pentagon = next(p for p in catalog_polygons()
                    if p.name == "regular" and p.n_vertices == 5)
    audit = spectral_audit(pentagon, 1)
    assert audit.ell == 1
    assert audit.sigma_r_over_max >= 1e-8


def test_audit_unit_square_cross_oracle():
    # symmetric PSD matrix: singular values equal eigenvalue magnitudes
    poly = CatalogPolygon("unit-square", SQUARE)
    audit = spectral_audit(poly, 1)
    A = unit_diffusion_matrix(SQUARE, 1)
    eig = np.sort(np.abs(np.linalg.eigvalsh(A)))[::-1]
    np.testing.assert_allclose(audit.singular_values, eig, rtol=1e-12,
                               atol=1e-12 * eig[0])
    assert audit.sigma_r == pytest.approx(eig[-2], rel=1e-12)


def test_audit_catalog_rule_pairs_and_margins():
    audits = audit_catalog()
    assert len(audits) == 18
    assert [(a.n_vertices, a.ell) for a in audits] == [
        (n, effective_ell(n)) for n in range(3, 21)]
    for a in audits:
        assert a.sigma_min <= 1e-11 * a.sigma_max, a.name
        assert a.sigma_r_over_max >= 1e-8, a.name
        assert np.all(a.singular_values >= 0)
        assert np.all(np.diff(a.singular_values) <= 0)


def test_audit_exploratory_offset_reports_without_asserting():
    audits = audit_catalog(ell_offset=-1)
    assert len(audits) == 18
    for a in audits:
        assert np.isfinite(a.sigma_r_over_max)
    # at least one larger polygon actually collapses below the rule
    worst = min(a.sigma_r_over_max for a in audits if a.n_vertices >= 6)
    assert worst < 1e-8


def test_per_dof_projection_energy_monotone_in_ell():
    # diag entries of P^T G P are the projected energies of the hat
    # functions; enlarging the harmonic space can only increase them
    for p in catalog_polygons()[::5]:
        prev = None
        for ell in range(0, 7):
            diag = np.diag(unit_diffusion_matrix(p.vertices, ell))
            if prev is not None:
                assert np.all(diag >= prev - 1e-12 * max(1.0, diag.max())), p.name
            prev = diag


# ---------------------------------------------------------------------------
# error norms


def test_error_norms_linear_interpolant_exact():
    u = Poly2([[0.25], [2.0]]) + Poly2([[0.0, -1.5]])  # 0.25 + 2x - 1.5y
    zero = Poly2.zero()
    spec = manufactured_problem(np.eye(2), (zero, zero), zero, u)
    # the pulled and hanging-node grids each have a corner cell whose rule
    # has negative weights
    for mesh in (generate_distorted_grid(4, delta=0.3, seed=6), pulled_grid(),
                 hanging_node_grid()):
        sol = interpolant_solution(mesh, u)
        e0, e1 = error_norms(sol, spec)
        assert e0 <= 1e-12
        assert e1 <= 1e-12


def test_error_norms_zero_over_zero_guard():
    zero = Poly2.zero()
    spec = manufactured_problem(np.eye(2), (zero, zero), zero, Poly2.zero())
    mesh = generate_distorted_grid(2, delta=0.0)
    sol = interpolant_solution(mesh, lambda pts: np.zeros(len(pts)))
    with pytest.warns(RuntimeWarning, match="zero norm"):
        e0, e1 = error_norms(sol, spec)
    assert (e0, e1) == (0.0, 0.0)


def test_error_norms_zero_exact_nonzero_discrete_raises():
    zero = Poly2.zero()
    spec = manufactured_problem(np.eye(2), (zero, zero), zero, Poly2.zero())
    mesh = generate_distorted_grid(2, delta=0.0)
    sol = interpolant_solution(mesh, lambda pts: pts[:, 0] * (1 - pts[:, 0]))
    with pytest.raises(ValueError, match="zero norm"):
        error_norms(sol, spec)


def test_error_norms_need_only_the_exact_solution():
    # ProblemSpec derives grad u from exact_u, so none is passed
    u = Poly2([[0.25], [2.0]]) + Poly2([[0.0, -1.5]])  # 0.25 + 2x - 1.5y
    zero = Poly2.zero()
    spec = ProblemSpec(K=np.eye(2), beta=(zero, zero), gamma=zero, f=zero, exact_u=u)
    sol = interpolant_solution(generate_distorted_grid(4, delta=0.3, seed=6), u)
    e0, e1 = error_norms(sol, spec)
    assert e0 <= 1e-12
    assert e1 <= 1e-12


def test_error_norms_missing_exact_solution():
    from sfvem.poly import poisson_problem
    mesh = generate_distorted_grid(2, delta=0.0)
    sol = interpolant_solution(mesh, lambda pts: pts[:, 0])
    with pytest.raises(ValueError, match="exact"):
        error_norms(sol, poisson_problem())


def test_error_norms_many_requires_one_mesh():
    spec = bubble_problem()
    a = interpolant_solution(generate_distorted_grid(2, delta=0.0), spec.exact_u)
    b = interpolant_solution(generate_distorted_grid(2, delta=0.0), spec.exact_u)
    assert error_norms_many([], spec) == []
    assert error_norms_many([a, a], spec) == [error_norms(a, spec)] * 2
    with pytest.raises(ValueError, match="one mesh"):
        error_norms_many([a, b], spec)


def test_error_norms_scale_invariant():
    zero = Poly2.zero()
    u = Poly2.from_separable([0.0, 1.0, -1.0], [0.0, 1.0, -1.0])
    mesh = generate_distorted_grid(4, delta=0.2, seed=3)
    spec1 = manufactured_problem(np.eye(2), (zero, zero), zero, u)
    spec2 = manufactured_problem(np.eye(2), (zero, zero), zero, 37.0 * u)
    sol1 = solve(assemble(mesh, spec1))
    sol2 = DiscreteSolution(37.0 * sol1.values, mesh, sol1.ell_by_cell,
                            sol1.method, sol1.residual)
    a = error_norms(sol1, spec1)
    b = error_norms(sol2, spec2)
    assert a[0] == pytest.approx(b[0], rel=1e-13)
    assert a[1] == pytest.approx(b[1], rel=1e-13)


def test_error_norms_benchmark_halving():
    # one refinement roughly halves the gradient error (first-order method)
    spec = build_benchmark_coefficients()
    e1s = []
    for n in (8, 16):
        mesh = generate_distorted_grid(n, delta=0.3, seed=42)
        sol = solve(assemble(mesh, spec))
        e1s.append(error_norms(sol, spec)[1])
    ratio = e1s[0] / e1s[1]
    assert 1.6 <= ratio <= 2.6


def test_error_norms_weighted_by_tensor():
    # with K = diag(4, 1), a pure-x gradient error is doubled relative to
    # K = I; build fields whose error is exactly along x
    zero = Poly2.zero()
    u = Poly2([[0.0], [1.0]])  # x
    mesh = generate_distorted_grid(2, delta=0.0)
    # discrete values: x + bubble-ish interior perturbation at center node
    values = mesh.vertices[:, 0].copy()
    interior = [i for i in range(mesh.n_vertices)
                if i not in mesh.boundary_vertices]
    values[interior] += 0.1
    specI = manufactured_problem(np.eye(2), (zero, zero), zero, u)
    specK = manufactured_problem(np.diag([4.0, 1.0]), (zero, zero), zero, u)
    solI = DiscreteSolution(values, mesh, np.ones(4, dtype=int), "sfvem", 0.0)
    eI = error_norms(solI, specI)
    eK = error_norms(solI, specK)
    assert eI[0] == pytest.approx(eK[0], rel=1e-13)  # L2 part unweighted
    assert eK[1] != pytest.approx(eI[1], rel=1e-3)


# ---------------------------------------------------------------------------
# rate fitting


def synthetic_records(hs, e0s, e1s):
    out = []
    for i, (h, e0, e1) in enumerate(zip(hs, e0s, e1s)):
        out.append(ConvergenceRecord(level=i, h=h, ndof=10, e0_sfvem=e0,
                                     e1_sfvem=e1, e0_vem=2 * e0, e1_vem=2 * e1,
                                     ratio_e0=2.0, ratio_e1=2.0))
    return out


def test_fit_rates_exact_powers():
    hs = np.array([0.5, 0.25, 0.125, 0.0625])
    recs = synthetic_records(hs, hs**2, hs)
    rates = fit_rates(recs)
    assert rates["sfvem"][0] == pytest.approx(2.0, abs=1e-12)
    assert rates["sfvem"][1] == pytest.approx(1.0, abs=1e-12)
    assert rates["vem"][0] == pytest.approx(2.0, abs=1e-12)


def test_fit_rates_requires_two_levels():
    recs = synthetic_records([0.5], [0.25], [0.5])
    with pytest.raises(ValueError, match="2"):
        fit_rates(recs)


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_study_bubble_grid():
    spec = bubble_problem()
    records = convergence_study(spec, [4, 8], delta=0.2, seed=7)
    assert len(records) == 2
    assert records[0].h > records[1].h
    assert records[0].ndof == 9 and records[1].ndof == 49
    for r in records:
        assert 0 < r.e0_sfvem < 1
        assert 0 < r.e1_sfvem < 1
        assert r.ratio_e0 == pytest.approx(r.e0_vem / r.e0_sfvem)
    # second level should improve both errors
    assert records[1].e0_sfvem < records[0].e0_sfvem
    assert records[1].e1_sfvem < records[0].e1_sfvem


def test_convergence_study_voronoi_generator():
    spec = bubble_problem()
    records = convergence_study(spec, [3, 6], generator="voronoi", seed=2,
                                lloyd_iters=2, distortion=0.1)
    assert len(records) == 2
    assert records[1].h < records[0].h
    assert records[1].e1_sfvem < records[0].e1_sfvem


def test_convergence_study_requires_decreasing_h():
    spec = bubble_problem()
    with pytest.raises(ValueError, match="decrease"):
        convergence_study(spec, [4, 4], delta=0.1)


def test_convergence_study_unknown_generator():
    with pytest.raises(ValueError, match="generator"):
        convergence_study(bubble_problem(), [2, 4], generator="quadtree")


def one_level(spec, mesh, methods):
    """The build and error passes of one level on mesh: the study's, which
    runs every method, or for a single method those of assemble_many and
    error_norms_many, which still build one method alone. The study
    generates its own mesh, so callers make its generator return mesh.
    Returns {method: (e0, e1)}."""
    if methods == METHODS:
        record = convergence_study(spec, [4])[0]
        return {m: (getattr(record, f"e0_{m}"), getattr(record, f"e1_{m}"))
                for m in methods}
    systems = analysis.assemble_many(mesh, spec, methods)
    solutions = [analysis.solve(system) for system in systems.values()]
    return dict(zip(methods, analysis.error_norms_many(solutions, spec)))


@pytest.mark.parametrize("mesh_name", ["grid16", "voronoi256"])
def test_comparator_errors_barely_depend_on_the_ell_offset(mesh_name):
    # the comparator runs at ell 0 whatever the offset, but it reads the
    # integral of beta as h t[:, :2] of the stack's record, whose advection
    # nodes grow with the record's ell (element.advection_nodes), and the
    # benchmark's beta rounds differently at different nodes: vem's e0/e1
    # at ell offsets 0, 1 and 2 differ by rounding alone (7.6e-13 relative
    # measured on grid 16, 7.4e-13 on Voronoi 256). Tighten once the data
    # are accurate
    mesh = {"grid16": lambda: generate_distorted_grid(16, 0.3, 42),
            "voronoi256": lambda: generate_voronoi(256, 3, 42, 0.25)}[mesh_name]()
    spec = build_benchmark_coefficients()
    errors = []
    for offset in range(3):
        system = analysis.assemble_many(mesh, spec, ("vem",), offset)["vem"]
        errors.append(analysis.error_norms_many([solve(system)], spec)[0])
    for e in errors[1:]:
        np.testing.assert_allclose(e, errors[0], rtol=1e-10, atol=0)


@pytest.mark.parametrize("methods, rules, evals", [
    (("sfvem", "vem"), 2, 7),   # the parent built 4 rules and made 14 calls
    (("vem",), 2, 7),
    (("sfvem",), 2, 7),
])
def test_convergence_study_builds_each_cell_once(monkeypatch, methods, rules,
                                                 evals):
    # per cell, one element rule and one error rule, gamma and f on the
    # first, u and grad u on the second, each evaluated once, and beta once
    # at the advection nodes of the cell's edges. Both passes reach rules
    # and data through element alone (element.rule_values), so they are
    # counted there. The rules go per chunk of cells, the build's before the
    # error pass's, each chunk's 8 floats per rule point (element.whole_cells)
    # within CHUNK_BYTES; each chunk's data come from one shared-table
    # evaluation on exactly its rule points, beta from tables of nx + ny
    # floats per edge node within CHUNK_BYTES, and each pass covers every
    # cell once.
    import sfvem.analysis
    import sfvem.element
    from sfvem.element import CHUNK_BYTES, advection_nodes
    from sfvem.quadrature import rule_size

    spec = build_benchmark_coefficients()
    calls, evals_seen = [], []

    def rule_counted(fn):
        def counted(vertices, degree):
            out = fn(vertices, degree)
            calls.append((degree, len(vertices), out.weights.size))
            return out
        return counted

    def eval_counted(fn):
        def counted(polys, points):
            if polys is spec.beta:
                evals_seen.append(("edge", len(polys), len(points), None))
            else:
                degree, _, rule_points = calls[-1]  # the rule just built
                evals_seen.append((degree, len(polys), len(points), rule_points))
            return fn(polys, points)
        return counted

    mesh = generate_distorted_grid(8)  # generated outside the counted passes
    monkeypatch.setattr(sfvem.analysis, "generate_distorted_grid",
                        lambda *args: mesh)
    monkeypatch.setattr(sfvem.element, "polygon_rules",
                        rule_counted(sfvem.element.polygon_rules))
    monkeypatch.setattr(sfvem.element, "evaluate_polys",
                        eval_counted(sfvem.element.evaluate_polys))
    errors = one_level(spec, mesh, methods)
    per_cell = {33: rule_size(4, 33), 36: rule_size(4, 36)}  # build, error rule
    degrees = [degree for degree, _, _ in calls]
    assert degrees == sorted(degrees) and set(degrees) == set(per_cell)
    assert all(n == cells * per_cell[d] for d, cells, n in calls)
    assert all(8 * 8 * n <= CHUNK_BYTES for _, _, n in calls)
    for degree in per_cell:
        assert sum(cells for d, cells, _ in calls if d == degree) == mesh.n_cells
    rule_evals = [e for e in evals_seen if e[0] != "edge"]
    assert len(rule_evals) == len(calls)
    assert all(n == rule_points for _, _, n, rule_points in rule_evals)
    per_cell["edge"] = 4 * advection_nodes(spec, 1)  # a quad's edge nodes at ell = 1
    width = sum(max(p.coeffs.shape[a] for p in spec.beta) for a in (0, 1))
    edge_evals = [n for d, _, n, _ in evals_seen if d == "edge"]
    assert all(8 * width * n <= CHUNK_BYTES for n in edge_evals)
    assert sum(edge_evals) == per_cell["edge"] * mesh.n_cells
    assert sum(cells for _, cells, _ in calls) == rules * mesh.n_cells
    assert sum(k * n // per_cell[d] for d, k, n, _ in evals_seen) == evals * mesh.n_cells
    assert list(errors) == list(methods)
    assert np.isfinite(list(errors.values())).all()


@pytest.mark.parametrize("methods", [("sfvem", "vem"), ("vem",), ("sfvem",)])
def test_convergence_study_computes_each_cell_geometry_once_per_pass(monkeypatch,
                                                                     methods):
    # one geometry stack per vertex count in the quality report (run by the
    # study only); in the build and error passes one geometry stack per
    # stack of cells and one rule stack per chunk of it, several chunks to a
    # stack: each pass covers every cell once. No pass
    # calls the one-polygon signed_area, or a one-polygon entry point, whose
    # stack of one would add to the stacks' cell count. Every sfvem module's
    # name for the three functions is counted, with its stack size, under
    # the pass that is running.
    import sys

    import sfvem.analysis
    import sfvem.geometry
    import sfvem.quadrature
    import sfvem.system

    mesh = generate_distorted_grid(8)  # generated outside the counted study
    monkeypatch.setattr(sfvem.analysis, "generate_distorted_grid",
                        lambda *args: mesh)
    counted = {"polygon_stack": sfvem.geometry.polygon_stack,
               "signed_area": sfvem.geometry.signed_area,
               "polygon_rules": sfvem.quadrature.polygon_rules}
    running = ["outside"]
    calls: dict = {}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls.setdefault((running[0], key), []).append(len(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    def in_pass(fn, name):
        def wrapper(*args, **kwargs):
            running[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                running[0] = "outside"
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "sfvem" or name.startswith("sfvem."):
            for key, fn in counted.items():
                if getattr(module, key, None) is fn:
                    monkeypatch.setattr(module, key, counting(fn, key))
    def stacks_counted(fn):
        def wrapper(*args):
            for stack in fn(*args):
                calls.setdefault((running[0], "cell_stacks"), []).append(len(stack[0]))
                yield stack
        return wrapper

    for module in (sfvem.system, sfvem.analysis):
        monkeypatch.setattr(module, "cell_stacks", stacks_counted(module.cell_stacks))
    for fn, name in (("quality_report", "quality"), ("assemble_many", "build"),
                     ("error_norms_many", "error")):
        monkeypatch.setattr(sfvem.analysis, fn,
                            in_pass(getattr(sfvem.analysis, fn), name))
    one_level(build_benchmark_coefficients(), mesh, methods)
    passes = ["build", "error"]
    if methods == METHODS:  # the study alone runs the quality report
        assert calls.pop(("quality", "polygon_stack")) == [mesh.n_cells]  # quads
    for name in passes:
        stacks = calls.pop((name, "polygon_stack"))
        rules = calls.pop((name, "polygon_rules"))
        assert calls.pop((name, "cell_stacks")) == stacks
        assert sum(stacks) == sum(rules) == mesh.n_cells
        assert len(stacks) < len(rules)
    assert calls == {}


def test_convergence_study_does_not_depend_on_the_chunk_budget(monkeypatch):
    # a data value depends on its point alone, so the stacks and rule
    # chunks a pass cuts are a memory choice: with a 16 times smaller
    # CHUNK_BYTES (one cell a build chunk, 16 quads a stack) every record
    # is bit for bit the same. Position independence of a GEMM row is a
    # property of the OpenBLAS kernel the reference results were made with
    # (SkylakeX); another kernel (OPENBLAS_CORETYPE=Haswell or Prescott) can
    # fail this
    import sfvem.element

    spec = build_benchmark_coefficients()

    def study():
        return (convergence_study(spec, [8, 16], "grid")
                + convergence_study(spec, [8, 16], "voronoi"))

    want = study()
    monkeypatch.setattr(sfvem.element, "CHUNK_BYTES", 2**15)
    assert study() == want


def test_convergence_study_streams_records():
    seen = []
    convergence_study(bubble_problem(), [2, 4], delta=0.1,
                      on_record=seen.append)
    assert [r.level for r in seen] == [2, 4]


# ---------------------------------------------------------------------------
# CSV serialization


def test_audit_csv_format(tmp_path):
    audits = audit_catalog()
    path = tmp_path / "audit.csv"
    write_audit_csv(audits, path)
    lines = path.read_text().splitlines()
    assert lines[0] == AUDIT_HEADER
    assert len(lines) == 19
    fields = lines[1].split(",")
    assert fields[0] == "irregular"
    assert fields[1] == "3" and fields[2] == "0"
    # full-precision scientific notation round-trips
    assert float(fields[5]) == audits[0].sigma_max
    assert audit_row(audits[0]) == lines[1]


def test_convergence_csv_format(tmp_path):
    records = synthetic_records([0.5, 0.25], [0.1, 0.025], [0.2, 0.1])
    path = tmp_path / "conv.csv"
    write_convergence_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    assert len(lines) == 3
    assert lines[1] == convergence_row(records[0])
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[2] == "10"
    assert float(fields[1]) == 0.5
