"""Line graphs of multigraphs and their canonical preimages.

The preimage construction searches for a family of cliques covering every
edge of the input with every vertex in at most two members, normalized so
that each simplicial vertex is covered by the single clique on its closed
neighborhood.  Under that normalization the pendant edges of the
reconstructed multigraph correspond exactly to the simplicial vertices of
the input, and the preimage never contains loops.  Some line graphs admit
several normalized preimages; running the search on a canonical relabeling
makes the choice a function of the isomorphism class alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DisconnectedGraphError,
    LiftFailedError,
    NotALineGraphOfMultigraphError,
)
from .invariants import find_claw, simplicial_vertices
from .multigraph import Multigraph, SimpleGraph, _mask_vertices, canonical_labeling, relabel


@dataclass(frozen=True)
class LineGraphMap:
    """The line graph of ``source`` with the edge-to-vertex correspondence.

    Edge ``i`` of the source corresponds to vertex ``i`` of the target; two
    target vertices are adjacent exactly when the source edges share at
    least one endpoint.
    """

    source: Multigraph
    target: SimpleGraph
    edge_to_vertex: tuple[int, ...]

    def validate(self) -> None:
        src, tgt = self.source, self.target
        if tgt.n != src.edge_count:
            raise LiftFailedError("line graph must have one vertex per source edge")
        if list(self.edge_to_vertex) != list(range(src.edge_count)):
            raise LiftFailedError("edge-to-vertex correspondence must be the identity")
        for i in range(src.edge_count):
            for j in range(i + 1, src.edge_count):
                share = bool(set(src.endpoints[i]) & set(src.endpoints[j]))
                if share != tgt.has_edge(i, j):
                    raise LiftFailedError(f"adjacency of {i}, {j} disagrees with shared endpoints")


def line_graph(h: Multigraph) -> LineGraphMap:
    """The line graph of a multigraph.

    Parallel edges become distinct adjacent vertices; a loop shares its
    vertex with every other edge there, so its line-graph vertex is adjacent
    to all of them.  The result is always simple.
    """
    m = h.edge_count
    inc = h.edge_masks()
    edges = []
    for i, (u, v) in enumerate(h.endpoints):
        # Bit k of ``later`` is edge i + 1 + k, so pairs come out sorted.
        later = (inc[u] | inc[v]) >> (i + 1)
        while later:
            low = later & -later
            later ^= low
            edges.append((i, i + low.bit_length()))
    target = SimpleGraph(m, edges)
    return LineGraphMap(h, target, tuple(range(m)))


def _cover_to_multigraph(g: SimpleGraph, cliques: list[frozenset[int]]) -> Multigraph:
    """Build the multigraph whose edges are the vertices of ``g``: each cover
    clique becomes a vertex, each g-vertex joins its one or two cliques (a
    private degree-1 vertex fills in when it has only one)."""
    membership: list[list[int]] = [[] for _ in range(g.n)]
    for idx, clique in enumerate(cliques):
        for v in clique:
            membership[v].append(idx)
    vertex_count = len(cliques)
    h_edges = []
    for x in range(g.n):
        owners = membership[x]
        if len(owners) == 2:
            h_edges.append((owners[0], owners[1]))
        elif len(owners) == 1:
            h_edges.append((owners[0], vertex_count))
            vertex_count += 1
        else:
            raise LiftFailedError(f"vertex {x} left uncovered by the clique family")
    return Multigraph(vertex_count, h_edges)


def _krausz_cover(g: SimpleGraph) -> list[frozenset[int]] | None:
    """A clique family covering every edge, with every vertex in at most two
    members and every simplicial vertex in exactly one (its closed
    neighborhood).  Returns None when no such family exists."""
    n = g.n
    masks = g.adjacency_masks()
    simplicial = simplicial_vertices(g)
    limit = [1 if v in simplicial else 2 for v in range(n)]
    count = [0] * n
    cliques: list[frozenset[int]] = []

    covered = [False] * g.edge_count

    def place(clique: frozenset[int]) -> list[int] | None:
        newly = []
        members = sorted(clique)
        for v in members:
            count[v] += 1
        for i, u in enumerate(members):
            for w in members[i + 1 :]:
                e = g.edge_id(u, w)
                if not covered[e]:
                    covered[e] = True
                    newly.append(e)
        if any(count[v] > limit[v] for v in members):
            unplace(clique, newly)
            return None
        cliques.append(clique)
        return newly

    def unplace(clique: frozenset[int], newly: list[int]) -> None:
        for v in clique:
            count[v] -= 1
        for e in newly:
            covered[e] = False
        if cliques and cliques[-1] == clique:
            cliques.pop()

    # Simplicial vertices are pinned to the clique on their closed
    # neighborhood; this is what forces pendant edges in the preimage.
    required = []
    seen = set()
    for x in sorted(simplicial):
        if g.degrees()[x] == 0:
            continue
        q = frozenset(_mask_vertices(masks[x] | (1 << x)))
        if q not in seen:
            seen.add(q)
            required.append(q)
    for q in required:
        if place(q) is None:
            return None

    def candidate_cliques(u: int, v: int) -> list[frozenset[int]]:
        common = masks[u] & masks[v]
        pool = [
            w
            for w in _mask_vertices(common)
            if count[w] < limit[w]
        ]
        out: list[frozenset[int]] = []

        def grow(current: tuple[int, ...], rest: list[int]) -> None:
            out.append(frozenset(current))
            for i, w in enumerate(rest):
                if all(masks[w] >> x & 1 for x in current[2:]):
                    grow(current + (w,), rest[i + 1 :])

        grow((u, v), pool)
        # Larger cliques first; ties broken lexicographically for determinism.
        out.sort(key=lambda q: (-len(q), tuple(sorted(q))))
        return out

    def solve() -> bool:
        target = -1
        for e in range(g.edge_count):
            if not covered[e]:
                target = e
                break
        if target == -1:
            return True
        u, v = g.endpoints[target]
        if count[u] >= limit[u] or count[v] >= limit[v]:
            return False
        for q in candidate_cliques(u, v):
            newly = place(q)
            if newly is None:
                continue
            if solve():
                return True
            unplace(q, newly)
        return False

    if not solve():
        return None
    return cliques


def preimage(g: SimpleGraph) -> Multigraph:
    """A multigraph whose line graph is ``g``, with pendant edges matching
    the simplicial vertices of ``g``.

    The edge ids of the result equal the vertex ids of ``g``, so
    ``line_graph(preimage(g)).target == g`` holds exactly, not merely up to
    isomorphism.  The cover search runs on a canonical relabeling of ``g``,
    so isomorphic inputs always produce isomorphic preimages (some line
    graphs admit several normalized preimages; this picks one canonically).
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
    canon = relabel(g, perm)
    if not isinstance(canon, SimpleGraph):
        raise LiftFailedError("relabeling a simple graph did not give a simple graph")
    cover = _krausz_cover(canon)
    if cover is None:
        raise NotALineGraphOfMultigraphError(no_cover)
    h_canon = _cover_to_multigraph(canon, cover)
    # Edge i of the result must correspond to vertex i of the ORIGINAL g.
    h = Multigraph(h_canon.n, [h_canon.endpoints[perm[v]] for v in range(g.n)])
    check = line_graph(h)
    if check.target != g:
        raise LiftFailedError("preimage construction failed its roundtrip check")
    return h


def is_line_graph_of_multigraph(g: SimpleGraph) -> bool:
    """Whether ``preimage`` succeeds on ``g`` (which must be connected)."""
    try:
        preimage(g)
    except NotALineGraphOfMultigraphError:
        return False
    return True
