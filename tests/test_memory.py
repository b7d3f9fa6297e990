"""The traced memory of the build and error passes against a fixed budget.

Each pass builds a stack of cells at a time (element.cell_stacks) and keeps
only one rule chunk's points and data values alive (element.rule_values).
Its peak of traced allocations must stay within 1 MiB of what the
chunk-by-chunk passes traced on the same meshes, so that whole stacks of
per-cell algebra do not grow the footprint that the chunks bound. The table of beta at the edge
nodes, the build's largest per point, must fit CHUNK_BYTES.
"""
import tracemalloc

import pytest

import sfvem.element
from sfvem.analysis import error_norms_many
from sfvem.element import CHUNK_BYTES, advection_nodes, effective_ell
from sfvem.mesh import generate_distorted_grid, generate_voronoi
from sfvem.poly import build_benchmark_coefficients
from sfvem.system import assemble_many, solve

MESHES = {
    "grid64": lambda: generate_distorted_grid(64, 0.3, 42),
    "voronoi576": lambda: generate_voronoi(576, 3, 42, 0.25),
}

# tracemalloc peaks in MiB of the chunk-by-chunk passes, (build, error),
# after a warm-up pass, with numpy 2.4 on Python 3.11
CHUNKED_PEAKS_MIB = {"grid64": (5.62, 2.89), "voronoi576": (3.07, 2.07)}


def traced_peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_passes_stay_within_a_mib_of_the_chunked_passes(mesh_name):
    mesh, spec = MESHES[mesh_name](), build_benchmark_coefficients()
    # the warm-up fills the cached reference rules outside the traced runs
    solutions = [solve(s) for s in assemble_many(mesh, spec).values()]
    peaks = (traced_peak_mib(lambda: assemble_many(mesh, spec)),
             traced_peak_mib(lambda: error_norms_many(solutions, spec)))
    for name, peak, chunked in zip(("build", "error"), peaks, CHUNKED_PEAKS_MIB[mesh_name]):
        assert peak <= chunked + 1.0, (name, peak, chunked)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_build_holds_the_beta_table_within_chunk_bytes(monkeypatch, mesh_name):
    # evaluate_polys' table holds nx + ny floats per point (its largest
    # coefficient table dimensions); the build evaluates beta at a stack's
    # edge nodes in runs of whole cells (element.whole_cells) that keep it
    # within CHUNK_BYTES, each cell's nodes once
    mesh, spec = MESHES[mesh_name](), build_benchmark_coefficients()
    width = (max(p.coeffs.shape[0] for p in spec.beta)
             + max(p.coeffs.shape[1] for p in spec.beta))
    sizes = []
    evaluate = sfvem.element.evaluate_polys

    def evaluate_seen(polys, points):
        if polys is spec.beta:
            sizes.append(len(points))
        return evaluate(polys, points)

    monkeypatch.setattr(sfvem.element, "evaluate_polys", evaluate_seen)
    assemble_many(mesh, spec)
    assert len(sizes) > 1
    assert all(8 * width * n <= CHUNK_BYTES for n in sizes), (max(sizes), width)
    assert sum(sizes) == sum(len(c) * advection_nodes(spec, effective_ell(len(c)))
                             for c in mesh.cells)
