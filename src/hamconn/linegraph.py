"""Line graphs of multigraphs and their canonical preimages.

The preimage construction searches for a family of cliques covering every
edge of the input with every vertex in at most two members, normalized so
that each simplicial vertex is covered by the single clique on its closed
neighborhood.  Under that normalization the pendant edges of the
reconstructed multigraph correspond exactly to the simplicial vertices of
the input, and the preimage never contains loops.

The search runs on the vertex bitmasks of a canonical relabeling.  After
the pinned closed neighborhoods it covers the least uncovered pair (u, w)
of canonical labels next, trying the cliques on u, w and common neighbors
largest first, then by sorted vertex list, and prunes a clique that leaves
a member with no slot but an uncovered edge.  So the cover is a function
of the canonical labeled graph alone: some line graphs admit several
normalized preimages, and isomorphic inputs get isomorphic ones whatever
their vertex labels and edge order.
"""

from __future__ import annotations

from .errors import DisconnectedGraphError, LiftFailedError, NotALineGraphOfMultigraphError
from .invariants import find_claw, simplicial_vertices
from .multigraph import Multigraph, SimpleGraph, _mask_vertices, canonical_labeling, relabel


def line_graph(h: Multigraph) -> SimpleGraph:
    """The line graph of a multigraph.

    Vertex ``i`` of the result is edge ``i`` of ``h``, and two vertices are
    adjacent exactly when their edges share at least one endpoint.  Parallel
    edges become distinct adjacent vertices; a loop shares its vertex with
    every other edge there, so its vertex is adjacent to all of them.  The
    result is always simple.
    """
    inc = h.edge_masks()
    edges = []
    for i, (u, v) in enumerate(h.endpoints):
        # Bit k of ``later`` is edge i + 1 + k, so pairs come out sorted.
        later = (inc[u] | inc[v]) >> (i + 1)
        while later:
            low = later & -later
            later ^= low
            edges.append((i, i + low.bit_length()))
    return SimpleGraph(h.edge_count, edges)


def _place(q: int, room: list[int], rest: list[int]) -> tuple[list[int], list[int]] | None:
    """Fresh ``room`` and ``rest`` lists after adding clique ``q``, or None
    when a member runs out of slots, or is left with no slot but with an
    uncovered edge that no later clique could then cover."""
    room, rest = room[:], rest[:]
    for v in _mask_vertices(q):
        room[v] -= 1
        rest[v] &= ~q
        if room[v] < 0 or (not room[v] and rest[v]):
            return None
    return room, rest


def _krausz_cover(g: SimpleGraph) -> list[int] | None:
    """Clique masks covering every edge of ``g``, with every vertex in at
    most two and every simplicial vertex in exactly one (its closed
    neighborhood), or None when no such family exists.  ``room[v]`` counts
    the cliques ``v`` may still join, ``rest[v]`` masks its neighbors over
    uncovered edges, and each step copies both, so nothing is undone."""
    adj = g.adjacency_masks()
    simplicial = simplicial_vertices(g)
    state = ([1 if v in simplicial else 2 for v in range(g.n)], list(adj))
    pinned: list[int] = []
    # Simplicial vertices are pinned to the clique on their closed
    # neighborhood; this is what forces pendant edges in the preimage.
    for x in sorted(simplicial):
        q = adj[x] | 1 << x
        if q not in pinned:
            pinned.append(q)
            placed = _place(q, *state)
            if placed is None:
                return None
            state = placed

    def solve(room: list[int], rest: list[int], cover: list[int]) -> list[int] | None:
        u = next((v for v in range(g.n) if rest[v]), None)
        if u is None:
            return cover
        w = (rest[u] & -rest[u]).bit_length() - 1
        candidates = [1 << u | 1 << w]
        for x in _mask_vertices(adj[u] & adj[w]):
            if room[x]:
                candidates += [q | 1 << x for q in candidates if not q & ~adj[x]]
        candidates.sort(key=lambda q: (-q.bit_count(), _mask_vertices(q)))
        for q in candidates:
            if (placed := _place(q, room, rest)) is not None:
                if (found := solve(*placed, cover + [q])) is not None:
                    return found
        return None

    return solve(*state, pinned)


def preimage(g: SimpleGraph) -> Multigraph:
    """A multigraph whose line graph is ``g``, with pendant edges matching
    the simplicial vertices of ``g``.

    The edge ids of the result equal the vertex ids of ``g``, so
    ``line_graph(preimage(g)) == g`` holds exactly, not merely up to
    isomorphism.  The cover search runs on a canonical relabeling of ``g``:
    it covers the least uncovered pair of canonical labels next, larger
    cliques first, and drops a clique that leaves a member with no slot but
    an uncovered edge.  So isomorphic inputs produce isomorphic preimages,
    whatever the order of their edges.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("preimage is defined for connected graphs")
    if g.n == 1:
        # A single vertex is the line graph of a single (pendant) edge.
        return Multigraph(2, [(0, 1)])
    # Line graphs of multigraphs are claw-free, so a claw settles the answer
    # before labeling, also above the labeling's size cap.
    no_cover = "no clique cover with vertex multiplicity at most 2 exists"
    claw = find_claw(g)
    if claw is not None:
        raise NotALineGraphOfMultigraphError(no_cover, witness=claw)
    perm = canonical_labeling(g)
    cover = _krausz_cover(relabel(g, perm))
    if cover is None:
        raise NotALineGraphOfMultigraphError(no_cover)
    # Vertex v of g is the H-edge joining the one or two cover cliques of
    # its canonical label; a label in one clique gets a private leaf.
    ends: list[list[int]] = [[] for _ in range(g.n)]
    for i, q in enumerate(cover):
        for x in _mask_vertices(q):
            ends[x].append(i)
    leaves = len(cover)
    for pair in ends:
        if len(pair) == 1:
            pair.append(leaves)
            leaves += 1
    h = Multigraph(leaves, [ends[perm[v]] for v in range(g.n)])
    if line_graph(h) != g:
        raise LiftFailedError("preimage construction failed its roundtrip check")
    return h


def is_line_graph_of_multigraph(g: SimpleGraph) -> bool:
    """Whether ``preimage`` succeeds on ``g`` (which must be connected)."""
    try:
        preimage(g)
    except NotALineGraphOfMultigraphError:
        return False
    return True
