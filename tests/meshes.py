"""Small hand-built meshes shared by the test files, each with one corner
cell that is not star shaped about its vertex average, so that its polygon
rule carries negative weights."""
import numpy as np

from sfvem.mesh import PolyMesh, generate_distorted_grid


def pulled_grid():
    """A 4 x 4 grid whose interior vertex (1/4, 1/4) is pulled to
    (0.06, 0.06): the corner cell becomes a dart whose vertex average lies
    outside its kernel, and the other 15 cells stay squares."""
    grid = generate_distorted_grid(4, 0.0)
    vertices = grid.vertices.copy()
    vertices[6] = 0.06
    return PolyMesh(vertices, grid.cells)


def hanging_node_grid():
    """A conforming 4 x 4 grid with two hanging nodes: vertex 6 moves to
    (0.15, 0.04), and the points at 1/3 and 2/3 of the edge from vertex 6
    to vertex 5 join both cells that share it. The corner cell becomes a
    hexagon with three collinear vertices whose vertex average lies outside
    its kernel."""
    grid = generate_distorted_grid(4, 0.0)
    vertices = grid.vertices.copy()
    vertices[6] = (0.15, 0.04)
    a, b = len(vertices), len(vertices) + 1
    vertices = np.vstack([vertices, vertices[6] + np.outer([1 / 3, 2 / 3],
                                                           vertices[5] - vertices[6])])
    cells = list(grid.cells)
    cells[0] = (0, 1, 6, a, b, 5)
    cells[4] = (5, b, a, 6, 11, 10)
    return PolyMesh(vertices, cells)
