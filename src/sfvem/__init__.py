"""Stabilization-free virtual element method on polygonal meshes.

First-order advection-diffusion-reaction solver whose local bilinear form
uses only polynomial projections (gradients of harmonic polynomials), with
no stabilization term, plus the classical stabilized scheme as comparator,
a spectral stability audit, and convergence-study tooling.
"""

from .analysis import (
    ConvergenceRecord,
    SpectralAudit,
    audit_catalog,
    convergence_study,
    error_norms,
    error_norms_many,
    fit_rates,
    jacobi_singular_values,
    spectral_audit,
    write_audit_csv,
    write_convergence_csv,
)
from .element import (
    LocalElementMatrices,
    effective_ell,
    sfvem_local,
    standard_vem_local,
)
from .errors import (
    DegenerateElementError,
    MeshFormatError,
    MeshGenerationError,
    MeshIndexError,
    MeshTopologyError,
    QuadratureError,
    SfvemError,
    SingularGramError,
    SingularSystemError,
)
from .geometry import PolygonStack, polygon_stack
from .mesh import (
    CatalogPolygon,
    MeshQualityReport,
    PolyMesh,
    catalog_polygons,
    generate_distorted_grid,
    generate_voronoi,
    quality_report,
    read_mesh,
    write_mesh,
)
from .poly import (
    HarmonicBasis,
    Poly2,
    ScaledFrame,
    build_benchmark_coefficients,
    bubble_problem,
    harmonic_basis,
    manufactured_problem,
    poisson_problem,
)
from .problem import ProblemSpec
from .projectors import hgrad_matrix, nabla_matrix
from .quadrature import EdgeRule, PolygonRule, gauss_legendre, polygon_rule
from .system import (
    DiscreteSolution,
    GlobalSystem,
    assemble,
    assemble_many,
    solve,
    write_solution_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogPolygon",
    "ConvergenceRecord",
    "DegenerateElementError",
    "DiscreteSolution",
    "EdgeRule",
    "GlobalSystem",
    "HarmonicBasis",
    "LocalElementMatrices",
    "MeshFormatError",
    "MeshGenerationError",
    "MeshIndexError",
    "MeshQualityReport",
    "MeshTopologyError",
    "Poly2",
    "PolyMesh",
    "PolygonRule",
    "PolygonStack",
    "ProblemSpec",
    "QuadratureError",
    "ScaledFrame",
    "SfvemError",
    "SingularGramError",
    "SingularSystemError",
    "SpectralAudit",
    "assemble",
    "assemble_many",
    "audit_catalog",
    "build_benchmark_coefficients",
    "bubble_problem",
    "catalog_polygons",
    "convergence_study",
    "effective_ell",
    "error_norms",
    "error_norms_many",
    "fit_rates",
    "gauss_legendre",
    "generate_distorted_grid",
    "generate_voronoi",
    "harmonic_basis",
    "hgrad_matrix",
    "jacobi_singular_values",
    "manufactured_problem",
    "nabla_matrix",
    "poisson_problem",
    "polygon_rule",
    "polygon_stack",
    "quality_report",
    "read_mesh",
    "sfvem_local",
    "solve",
    "spectral_audit",
    "standard_vem_local",
    "write_audit_csv",
    "write_convergence_csv",
    "write_mesh",
    "write_solution_csv",
]
