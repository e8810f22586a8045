"""Named graphs and the sharpness family.

The Petersen graph is the standard outer-pentagon / inner-pentagram
construction; the Wagner graph is encoded as the circulant on 8 vertices
with offsets 1 and 4 (an 8-cycle plus its four diameters).  The sharpness
family attaches pendant edges to every Wagner vertex and takes the line
graph.
"""

from __future__ import annotations

from .linegraph import line_graph
from .multigraph import Multigraph, SimpleGraph


def petersen() -> SimpleGraph:
    """The Petersen graph: 10 vertices, 15 edges, cubic, girth 5."""
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return SimpleGraph(10, edges)


def wagner() -> SimpleGraph:
    """The Wagner graph: the cubic circulant C8(1, 4)."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    return SimpleGraph(8, edges)


def wagner_counterexample(pendants_per_vertex: int = 1) -> tuple[SimpleGraph, Multigraph]:
    """The sharpness pair: ``h`` is the Wagner graph with pendant edges added
    at every vertex, ``g`` its line graph.

    With one pendant per vertex ``g`` has 20 vertices; it is claw-free and
    3-connected, has domination number 4, and is not hamiltonian-connected.
    """
    if pendants_per_vertex < 1:
        raise ValueError("at least one pendant edge per vertex is required")
    w = wagner()
    edges = list(w.endpoints)
    n = w.n
    for v in range(w.n):
        for _ in range(pendants_per_vertex):
            edges.append((v, n))
            n += 1
    h = Multigraph(n, edges)
    g = line_graph(h)
    return g, h
