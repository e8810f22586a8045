"""Reference answers and validators that do not use the library.

Every check here works on plain tuples, so the code under test cannot make a
wrong answer pass.
"""

from __future__ import annotations

# Stage counts of verify_theorem_enumerated(6, h): total, connected,
# claw-free, k-connected, domination, conclusion.  33,867 is the number of
# labeled graphs on 1..6 vertices and 27,476 the number of connected ones
# (OEIS A001187 summed over n <= 6).
VERIFY_REFERENCE = {
    "thm1": (33867, 27476, 11271, 1645, 1645, 1645),
    "ageev": (33867, 27476, 11271, 6107, 6107, 6107),
}

# In H_p (Wagner plus p pendants per vertex) exactly the two pairs of
# opposite diameters, edges {8, 10} and {9, 11}, have no internally
# dominating trail, in either direction and for every p.
NO_IDT_PAIRS = frozenset({(8, 10), (10, 8), (9, 11), (11, 9)})
FAILING_PAIR = (8, 10)


def ham_path_ok(n: int, adjacency: list[int], u: int, v: int, vertices: tuple[int, ...]) -> bool:
    """A path from u to v (either orientation) visiting each of the n
    vertices exactly once, every step an edge of the graph."""
    if len(vertices) != n or len(set(vertices)) != n:
        return False
    if {vertices[0], vertices[-1]} != {u, v}:
        return False
    if not all(0 <= x < n for x in vertices):
        return False
    return all(adjacency[a] >> b & 1 for a, b in zip(vertices, vertices[1:]))


def idt_ok(
    h_edges: list[tuple[int, int]],
    e1: int,
    e2: int,
    vertices: tuple[int, ...],
    edges: tuple[int, ...],
) -> bool:
    """A trail of H whose first edge is e1 and last edge e2, and whose
    interior vertices (positions 1..len-2) touch every edge of H."""
    if len(vertices) != len(edges) + 1 or len(edges) < 2:
        return False
    if edges[0] != e1 or edges[-1] != e2 or len(set(edges)) != len(edges):
        return False
    for i, e in enumerate(edges):
        if not 0 <= e < len(h_edges):
            return False
        a, b = h_edges[e]
        if {a, b} != {vertices[i], vertices[i + 1]}:
            return False
    interior = set(vertices[1:-1])
    return all(a in interior or b in interior for a, b in h_edges)
