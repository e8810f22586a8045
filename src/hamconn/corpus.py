"""Graph corpora: exhaustive enumeration and seeded random generators.

Exhaustive enumeration is capped at 8 vertices (2^28 labeled graphs), and
at 10 for claw-free graphs; anything larger must come from an ingested
file.  :func:`graph_classes` generates one simple graph per isomorphism
class (13,598 classes on up to 8 vertices) together with the number of
labeled graphs in the class, so isomorphism-invariant counts over all
labeled graphs need one graph per class.  The generation is McKay's
canonical augmentation ("Isomorph-free exhaustive generation", J.
Algorithms 1998): a class on n vertices grows from each class on n - 1 by
the neighbor set of a new vertex, only one neighbor set per orbit of the
parent's automorphism group is tried, and a child is kept only when the
new vertex is in the orbit of its canonical deletion vertex, so each class
is produced once and nothing is merged.  Most children are decided by a
vertex invariant alone, and a neighbor set with fewer vertices than the
parent's largest degree before the child is even built; the others are
labeled, and their automorphisms, which the labeling's search collects
to prune itself and which are checked on neighbor bitmasks, give the
orbit of the new vertex and, once the child is a parent, the orbits of
its neighbor sets.  A class's labeled count is n! / |Aut|, carried from
its parent through the two orbit sizes.

Claw-freeness is hereditary: deleting any vertex of a claw-free graph,
the canonical deletion vertex included, leaves a claw-free graph.  So
``graph_classes(n, claw_free=True)`` extends only claw-free classes and
drops, with one bitmask test per orbit and before the degree test and
any labeling, each neighbor set that closes a claw (1,715 classes on up
to 8 vertices, 42,179 on up to 10).  The labeled counts of
all graphs and of connected graphs, which the exhaustive check still
reports, have closed forms (:func:`labeled_counts`).
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import Iterator

from .encoding import EncodingError, decode_edgelist, decode_graph6, decode_sparse6
from .errors import GraphError, LiftFailedError
from .invariants import edge_connectivity, is_essentially_k_edge_connected
from .multigraph import (
    ISOMORPHISM_SIZE_GUARD,
    Multigraph,
    SimpleGraph,
    _mask_vertices,
    canonical_labeling,
)

#: Isomorphism classes of simple graphs on 1..8 vertices (OEIS A000088).
_CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
#: Isomorphism classes of claw-free simple graphs on 1..10 vertices.
_CLAW_FREE_CLASS_COUNTS = (1, 2, 4, 10, 26, 85, 302, 1285, 6170, 34294)

# Each enumeration is capped where its known class counts end.
MAX_ENUMERATION_VERTICES = len(_CLASS_COUNTS)
MAX_CLAW_FREE_VERTICES = len(_CLAW_FREE_CLASS_COUNTS)


#: The most vertices a graph read from a file may have.  A few bytes of
#: sparse6 or edge list can declare billions of vertices, and every check
#: builds per-vertex tables; at the cap an n-by-n bit table is 2 MB.
MAX_INPUT_VERTICES = 4096


def _within_cap(graph: Multigraph, where: str) -> Multigraph:
    if graph.n > MAX_INPUT_VERTICES:
        raise EncodingError(f"{where}: {graph.n} vertices, above the input cap of {MAX_INPUT_VERTICES}")
    return graph


def _as_simple(graph: Multigraph, where: str) -> SimpleGraph:
    if isinstance(graph, SimpleGraph):
        return graph
    try:
        return SimpleGraph(graph.n, graph.endpoints)
    except GraphError as exc:
        raise EncodingError(f"{where}: {exc}") from exc


def read_corpus_file(path: str, fmt: str, *, simple: bool = False) -> list[Multigraph]:
    """Decode a corpus file line by line, reporting errors with file/line;
    a graph above ``MAX_INPUT_VERTICES`` vertices is an error at its line
    (an edge list's header line).  With ``simple`` every graph comes back as
    a ``SimpleGraph``, and a loop or parallel edge is an error at its line
    (the file, for an edge list)."""
    graphs: list[Multigraph] = []
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise EncodingError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from exc
    if fmt == "el":
        try:
            graph = decode_edgelist(text)
        except EncodingError as exc:
            raise EncodingError(f"{path}: {exc}") from exc
        lines = enumerate(text.splitlines(), start=1)
        header = next(lineno for lineno, line in lines if line.split("#", 1)[0].strip())
        graph = _within_cap(graph, f"{path}:{header}")
        return [_as_simple(graph, path) if simple else graph]
    decoder = {"g6": decode_graph6, "s6": decode_sparse6}.get(fmt)
    if decoder is None:
        raise EncodingError(f"unknown format {fmt!r}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            graph = decoder(line)
        except EncodingError as exc:
            raise EncodingError(f"{path}:{lineno}: {exc}") from exc
        graph = _within_cap(graph, f"{path}:{lineno}")
        graphs.append(_as_simple(graph, f"{path}:{lineno}") if simple else graph)
    return graphs

_PAIRS = {n: list(itertools.combinations(range(n), 2)) for n in range(MAX_ENUMERATION_VERTICES + 1)}


def graph_from_edge_mask(n: int, mask: int) -> SimpleGraph:
    """The graph on ``n`` vertices whose edges are the pairs, in
    lexicographic order, selected by the bits of ``mask``."""
    pairs = _PAIRS[n]
    return SimpleGraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def graph_classes(
    max_vertices: int, *, claw_free: bool = False
) -> Iterator[tuple[SimpleGraph, int]]:
    """``(representative, labeled_count)`` for every isomorphism class of
    simple graphs on 1..``max_vertices`` vertices, level by level; with
    ``claw_free``, for every class of claw-free graphs only.

    Level n joins a new vertex w = n - 1 to the vertex subsets (neighbor
    masks) of each level n - 1 representative.  Masks in one orbit of
    Aut(parent) give isomorphic children, so each parent's masks are walked
    in ascending order and each mask not yet seen stands for its whole
    orbit, which it closes under the automorphisms ``canonical_labeling``
    found while labeling the parent.

    A child is kept when w lies in the Aut(child)-orbit of its canonical
    deletion vertex: of the vertices with the largest invariant
    (:func:`_deletion_ties`), the one with the largest canonical position.
    An isomorphism between two children maps that orbit onto that orbit, so
    each class is kept from exactly one (parent, mask orbit) pair, and its
    parent is the representative of the class of the child minus that
    vertex.  A child where another vertex has a larger invariant than w is
    rejected without a labeling, and one where w alone has the largest is
    kept without one; its automorphisms are found when it becomes a parent,
    so the last level labels only children with ties.  A mask with fewer
    vertices than the parent's largest degree gives w a smaller degree than
    some other vertex, so that orbit is rejected on the mask's bit count
    before the child's neighbor bitmasks are built.

    A class's labeled count is n! / |Aut|.  The automorphisms of a child
    that fix w are those of its parent that fix the mask, so a kept child
    counts n * weight(parent) * |mask orbit| / |orbit of w under
    Aut(child)|.

    A claw-free graph's parent is claw-free, so with ``claw_free`` only
    claw-free classes are extended, and an orbit whose least mask closes a
    claw through the new vertex (:func:`_makes_claw`) is rejected before
    anything else, the degree test included, so that its orbit's weight
    still joins the level's sum.  The canonical deletion depends on the
    child alone, so every claw-free class has the same representative and
    count as in the full generation.

    Each automorphism must map its graph's edges onto themselves (checked
    on the neighbor bitmasks by :func:`_checked_labeling`), each
    labeled count must divide exactly, the counts of a level's classes plus
    those of its claw-rejected orbits must add up to its parents' counts
    times 2^(n - 1) (2^C(n, 2) in all when nothing is rejected), and its
    number of classes must be the known one, or ``LiftFailedError`` is
    raised; the sum checks the orbit sizes and the counts, the class count
    the deletion test and the claw test.  The full generation is capped at
    8 vertices, the claw-free one at 10.
    """
    cap, known_counts = (
        (MAX_CLAW_FREE_VERTICES, _CLAW_FREE_CLASS_COUNTS)
        if claw_free
        else (MAX_ENUMERATION_VERTICES, _CLASS_COUNTS)
    )
    if max_vertices > cap:
        kind = "claw-free enumeration" if claw_free else "enumeration"
        raise GraphError(f"{kind} bound capped at {cap}")
    level = [(SimpleGraph(1), 1, [])]
    expected = 1
    for n in range(1, max_vertices + 1):
        rejected = 0
        if n > 1:
            new = n - 1
            expected = sum(entry[1] for entry in level) << new
            children: list = []
            pairs = [(v, new) for v in range(new)]
            for parent, weight, automorphisms in level:
                if automorphisms is None:
                    automorphisms = _checked_labeling(parent)[1]
                images = _mask_images(parent, automorphisms)
                adjacency = parent.adjacency_masks()
                top = max(a.bit_count() for a in adjacency)
                seen = bytearray(1 << new)
                for mask in range(1 << new):
                    if seen[mask]:
                        continue
                    seen[mask] = 1
                    orbit = [mask]
                    for member in orbit:
                        for image in images:
                            other = image[member]
                            if not seen[other]:
                                seen[other] = 1
                                orbit.append(other)
                    if claw_free and _makes_claw(adjacency, mask):
                        rejected += weight * len(orbit)
                        continue
                    # w's degree is below another vertex's: _deletion_ties
                    # would reject the child, so it is not built
                    if mask.bit_count() < top:
                        continue
                    ties = _deletion_ties(
                        [a | 1 << new if mask >> v & 1 else a for v, a in enumerate(adjacency)] + [mask]
                    )
                    if not ties:
                        continue
                    edges = tuple(pairs[v] for v in _mask_vertices(mask))
                    child = SimpleGraph(n, parent.endpoints + edges)
                    found, w_orbit = None, 1 << new
                    if ties != w_orbit:
                        perm, found = _checked_labeling(child)
                        w_orbit = _orbit(found, new)
                        if not w_orbit >> max(_mask_vertices(ties), key=perm.__getitem__) & 1:
                            continue
                    count, rest = divmod(n * weight * len(orbit), w_orbit.bit_count())
                    if rest:
                        raise LiftFailedError(f"{child!r} has a fractional labeled count")
                    children.append((child, count, found))
            level = children
        total = sum(entry[1] for entry in level) + rejected
        if total != expected:
            raise LiftFailedError(f"labeled counts on {n} vertices add up to {total}, not {expected}")
        known = known_counts[n - 1]
        if len(level) != known:
            raise LiftFailedError(f"{len(level)} classes on {n} vertices, not {known}")
        yield from ((g, weight) for g, weight, _ in level)


def _checked_labeling(g: SimpleGraph) -> tuple[tuple[int, ...], list]:
    """``canonical_labeling(g)`` and the automorphisms its search found;
    raises ``LiftFailedError`` on a map that is not an automorphism.

    A map is one when it is a permutation of the vertices and takes every
    edge onto an edge, tested on the neighbor bitmasks.  A permutation maps
    the edges one to one, so it then maps them onto themselves: the image
    of every vertex's neighbor bitmask is its image's bitmask."""
    automorphisms: list = []
    perm = canonical_labeling(g, automorphisms=automorphisms)
    adjacency = g.adjacency_masks()
    vertices = list(range(g.n))
    for aut in automorphisms:
        if sorted(aut) != vertices or not all(
            adjacency[aut[u]] >> aut[v] & 1 for u, v in g.endpoints
        ):
            raise LiftFailedError(f"{aut} is not an automorphism of {g!r}")
    return perm, automorphisms


def _deletion_ties(adjacency: list[int]) -> int:
    """The vertices that share the largest invariant (degree, then the sum
    of the neighbors' degrees) with the last vertex of the graph with
    neighbor bitmasks ``adjacency``, as a bitmask; 0 when another vertex's
    invariant is larger."""
    degrees = [a.bit_count() for a in adjacency]
    top = degrees[-1]
    if max(degrees) > top:
        return 0
    ties = [v for v, d in enumerate(degrees) if d == top]
    if len(ties) == 1:
        return 1 << ties[0]
    sums = [sum(degrees[u] for u in _mask_vertices(adjacency[v])) for v in ties]
    if max(sums) > sums[-1]:
        return 0
    return sum(1 << v for v, s in zip(ties, sums) if s == sums[-1])


def _orbit(automorphisms: list, v: int) -> int:
    """The orbit of vertex ``v`` under the group ``automorphisms``
    generate, as a bitmask."""
    orbit, stack = 1 << v, [v]
    while stack:
        x = stack.pop()
        for aut in automorphisms:
            if not orbit >> aut[x] & 1:
                orbit |= 1 << aut[x]
                stack.append(aut[x])
    return orbit


def _makes_claw(adjacency: list[int], mask: int) -> bool:
    """Whether a new vertex joined to the vertices of ``mask`` closes a claw
    in the claw-free graph with neighbor bitmasks ``adjacency``: as a leaf,
    when some vertex v of the mask has two non-adjacent neighbors outside
    the mask, or as the center, when v is the least of three pairwise
    non-adjacent vertices of the mask."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        near = adjacency[low.bit_length() - 1]
        outside = near & ~mask
        while outside:
            u = outside & -outside
            outside ^= u
            if outside & ~adjacency[u.bit_length() - 1]:
                return True
        # the mask vertices above v that v does not see
        far = rest & ~near
        while far:
            u = far & -far
            far ^= u
            if far & ~adjacency[u.bit_length() - 1]:
                return True
    return False


def labeled_counts(n: int) -> tuple[int, int]:
    """``(all, connected)``: the numbers of labeled simple graphs on ``n``
    vertices and of connected ones.  All is 2^C(n, 2); a graph that is not
    connected has vertex 0 in a component of some k < n vertices, which
    gives the recurrence for the connected ones (OEIS A001187)."""
    connected = [0, 1]
    for m in range(2, n + 1):
        connected.append(
            (1 << comb(m, 2))
            - sum(comb(m - 1, k - 1) * connected[k] << comb(m - k, 2) for k in range(1, m))
        )
    return 1 << comb(n, 2), connected[n]


def _mask_images(g: SimpleGraph, automorphisms: list) -> list[list[int]]:
    """For each automorphism of ``g``, the image of every vertex mask of
    ``g``, indexed by the mask."""
    tables = []
    for aut in automorphisms:
        table = [0] * (1 << g.n)
        for mask in range(1, 1 << g.n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << aut[low.bit_length() - 1]
        tables.append(table)
    return tables


# -- random generators -----------------------------------------------------------------


def _check_bounds(max_vertices: int, max_edges: int, least_vertices: int, least_edges: int) -> None:
    """Reject bounds below the smallest graph a generator can return, so
    that its rejection sampling always ends, and edge bounds above
    ``ISOMORPHISM_SIZE_GUARD``, whose line graphs ``preimage`` refuses anyway,
    before an edge list of that size is drawn."""
    if not (max_vertices >= least_vertices and least_edges <= max_edges <= ISOMORPHISM_SIZE_GUARD):
        raise GraphError(
            f"needs max_vertices >= {least_vertices} and {least_edges} <= max_edges <= "
            f"{ISOMORPHISM_SIZE_GUARD}, got {max_vertices} and {max_edges}"
        )


def random_multigraph(rng: random.Random, max_vertices: int = 8, max_edges: int = 12) -> Multigraph:
    """A random connected loopless multigraph with at least one edge; other
    draws are discarded."""
    _check_bounds(max_vertices, max_edges, 2, 1)
    while True:
        n = rng.randint(1, max_vertices)
        m = rng.randint(1, max_edges)
        edges = []
        for _ in range(m):
            u, v = rng.randrange(n), rng.randrange(n)
            while v == u and n > 1:
                v = rng.randrange(n)
            if u != v:
                edges.append((u, v))
        if edges and (h := Multigraph(n, edges)).is_connected():
            return h


def random_essentially_3ec_multigraph(
    rng: random.Random, max_vertices: int = 7, max_edges: int = 12
) -> Multigraph:
    """Rejection-sampled connected, essentially 3-edge-connected multigraph."""
    _check_bounds(max_vertices, max_edges, 2, 3)
    while True:
        n = rng.randint(2, max_vertices)
        lo = max(n, 3)
        if lo > max_edges:
            continue
        m = rng.randint(lo, max_edges)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        edges = [(u, v) for u, v in edges if u != v]
        if len(edges) < 3:
            continue
        h = Multigraph(n, edges)
        if not h.is_connected():
            continue
        if is_essentially_k_edge_connected(h, 3):
            return h


def random_3_edge_connected_multigraph(
    rng: random.Random, max_vertices: int = 8, max_edges: int = 12
) -> Multigraph:
    """Rejection-sampled multigraph with edge connectivity at least 3."""
    _check_bounds(max_vertices, max_edges, 2, 3)
    while True:
        n = rng.randint(2, max_vertices)
        lo = (3 * n + 1) // 2
        if lo > max_edges:
            continue
        m = rng.randint(lo, max_edges)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        edges = [(u, v) for u, v in edges if u != v]
        if len(edges) < lo:
            continue
        h = Multigraph(n, edges)
        if min(h.degrees()) < 3 or not h.is_connected():
            continue
        if edge_connectivity(h) >= 3:
            return h


def random_connected_multigraph_with_loops(
    rng: random.Random, max_vertices: int = 6, max_edges: int = 12
) -> Multigraph:
    """Connected multigraph that may carry loops (for line-graph tests)."""
    _check_bounds(max_vertices, max_edges, 1, 1)
    while True:
        n = rng.randint(1, max_vertices)
        m = rng.randint(1, max_edges)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        h = Multigraph(n, edges)
        if h.is_connected():
            return h
