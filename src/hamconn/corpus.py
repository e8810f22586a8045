"""Graph corpora: exhaustive enumeration and seeded random generators.

Exhaustive enumeration is capped at 8 vertices (2^28 labeled graphs), and
at 10 for claw-free graphs; anything larger must come from an ingested
file.  :func:`graph_classes` generates one simple graph per isomorphism
class (13,598 classes on up to 8 vertices) together with the number of
labeled graphs in the class, so isomorphism-invariant counts over all
labeled graphs need one graph per class.  The generation is isomorph-free in
McKay's sense ("Isomorph-free exhaustive generation", J. Algorithms 1998):
a class on n vertices grows from each class on n - 1 by the neighbor set of
a new vertex, and only one neighbor set per orbit of the parent's
automorphism group is labeled.  The group comes for free from the parent's
own canonical labeling, whose search collects automorphisms to prune
itself, so level n makes one labeling per graph on n - 1 vertices with a
marked vertex subset (OEIS A000666: 5,096 at n = 7, 79,264 at n = 8)
instead of one per (parent, subset) pair.

Claw-freeness is hereditary: deleting the newest vertex of a claw-free
graph leaves a claw-free graph.  So ``graph_classes(n, claw_free=True)``
extends only claw-free classes and drops, with one bitmask test per orbit
and before any labeling, each neighbor set that closes a claw (1,715
classes on up to 8 vertices, 42,179 on up to 10).  The labeled counts of
all graphs and of connected graphs, which the exhaustive check still
reports, have closed forms (:func:`labeled_counts`).

The multigraph corpus used by the trail-equivalence checks enumerates
connected loopless multigraphs by support (one simple graph per isomorphism
class) times bounded parallel-edge multiplicities, so every isomorphism
class in range appears at least once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Iterator, Union

from .encoding import EncodingError, decode_edgelist, decode_graph6, decode_sparse6
from .errors import GraphError, LiftFailedError
from .invariants import edge_connectivity, is_essentially_k_edge_connected
from .multigraph import Multigraph, SimpleGraph, _is_isomorphism, canonical_labeling

MAX_ENUMERATION_VERTICES = 8
MAX_CLAW_FREE_VERTICES = 10

#: Isomorphism classes of simple graphs on 1..8 vertices (OEIS A000088).
_CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
#: Isomorphism classes of claw-free simple graphs on 1..10 vertices.
_CLAW_FREE_CLASS_COUNTS = (1, 2, 4, 10, 26, 85, 302, 1285, 6170, 34294)


@dataclass(frozen=True)
class CorpusRecord:
    """One ingested graph together with where it came from."""

    graph: Multigraph
    origin: Union[tuple[str, int], int]  # (file, line) or enumeration index
    encoding: str  # "g6" | "s6" | "el"


def read_corpus_file(path: str, fmt: str) -> list[CorpusRecord]:
    """Decode a corpus file line by line, reporting errors with file/line."""
    records: list[CorpusRecord] = []
    with open(path) as fh:
        text = fh.read()
    if fmt == "el":
        try:
            graph = decode_edgelist(text)
        except EncodingError as exc:
            raise EncodingError(f"{path}: {exc}") from exc
        return [CorpusRecord(graph, (path, 1), "el")]
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
        records.append(CorpusRecord(graph, (path, lineno), fmt))
    return records

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

    Level n joins a new vertex n - 1 to the vertex subsets (neighbor masks)
    of each level n - 1 representative and keeps the first graph of every
    canonical form.  A labeled graph on n vertices is one labeled graph on
    the first n - 1 vertices plus the neighbor set of the last, and
    isomorphic graphs on n - 1 vertices have equally many subsets leading
    into each class, so a class's labeled count is the sum of its parents'
    counts over the (parent, subset) pairs that produce it; no automorphism
    group order is needed.

    Subsets in one orbit of Aut(parent) give isomorphic children, so each
    parent's masks are walked in ascending order, and each mask not yet seen
    is labeled once for its whole orbit, which it closes under the
    automorphisms ``canonical_labeling`` found while labeling the parent;
    the orbit's size multiplies the parent's count.  The least mask leading
    into a class is the least of its orbit, so representatives and counts
    are the same as when every subset is labeled.

    A claw-free graph's parent is claw-free, so with ``claw_free`` only
    claw-free classes are extended, and an orbit whose least mask closes a
    claw through the new vertex (:func:`_makes_claw`) is rejected before it
    is labeled.  Parents keep their relative order, so every claw-free
    class has the same representative and count as in the full generation.

    Each automorphism must map the parent's edges onto themselves, the
    counts of a level's classes plus those of its rejected orbits must add
    up to its parents' counts times 2^(n - 1) (2^C(n, 2) in all when nothing
    is rejected), and its number of classes must be the known one, or
    ``LiftFailedError`` is raised; the sum checks the bookkeeping, the
    class count the merging and the claw test.  The full generation is
    capped at 8 vertices, the claw-free one at 10.
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
            classes: dict[tuple, list] = {}
            for parent, weight, automorphisms in level:
                images = _mask_images(parent, automorphisms)
                adjacency = parent.adjacency_masks()
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
                    g = SimpleGraph(
                        n, parent.endpoints + tuple((v, new) for v in range(new) if mask >> v & 1)
                    )
                    found: list = []
                    perm = canonical_labeling(g, automorphisms=found)
                    key = tuple(
                        sorted(
                            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                            for u, v in g.endpoints
                        )
                    )
                    entry = classes.get(key)
                    if entry is None:
                        classes[key] = [g, weight * len(orbit), found]
                    else:
                        entry[1] += weight * len(orbit)
            level = list(classes.values())
        total = sum(entry[1] for entry in level) + rejected
        if total != expected:
            raise LiftFailedError(f"labeled counts on {n} vertices add up to {total}, not {expected}")
        known = known_counts[n - 1]
        if len(level) != known:
            raise LiftFailedError(f"{len(level)} classes on {n} vertices, not {known}")
        yield from ((g, weight) for g, weight, _ in level)


def _makes_claw(adjacency: list[int], mask: int) -> bool:
    """Whether a new vertex joined to the vertices of ``mask`` closes a claw
    in the claw-free graph with neighbor bitmasks ``adjacency``: as the
    center, when the mask holds three pairwise non-adjacent vertices, or as
    a leaf, when some vertex of the mask has two non-adjacent neighbors
    outside the mask."""
    if _has_independent(adjacency, mask, 3):
        return True
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if _has_independent(adjacency, adjacency[low.bit_length() - 1] & ~mask, 2):
            return True
    return False


def _has_independent(adjacency: list[int], vertices: int, k: int) -> bool:
    """Whether the vertex bitmask ``vertices`` holds ``k`` pairwise
    non-adjacent vertices."""
    if k == 0:
        return True
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        if _has_independent(adjacency, vertices & ~adjacency[low.bit_length() - 1], k - 1):
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
    ``g``, indexed by the mask; raises ``LiftFailedError`` on a map that is
    not an automorphism."""
    tables = []
    for aut in automorphisms:
        if not _is_isomorphism(g, g, aut):
            raise LiftFailedError(f"{aut} is not an automorphism of {g!r}")
        table = [0] * (1 << g.n)
        for mask in range(1, 1 << g.n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << aut[low.bit_length() - 1]
        tables.append(table)
    return tables


def connected_graphs_up_to_isomorphism(max_vertices: int) -> list[SimpleGraph]:
    """One representative per isomorphism class of connected simple graphs:
    the connected classes of :func:`graph_classes`, each represented by the
    first graph of its class in generation order."""
    return [g for g, _ in graph_classes(max_vertices) if g.is_connected()]


def enumerate_multigraph_corpus(
    max_vertices: int = 6,
    min_edges: int = 3,
    max_edges: int = 9,
    max_multiplicity: int = 3,
) -> Iterator[Multigraph]:
    """Connected loopless multigraphs, exhaustive up to isomorphism.

    Supports are connected simple graphs up to isomorphism; each support
    edge receives every multiplicity in ``1..max_multiplicity`` whose total
    lands in ``min_edges..max_edges``.  Representatives may repeat across
    isomorphism classes only through distinct multiplicity patterns.
    """
    supports = [
        g
        for g in connected_graphs_up_to_isomorphism(max_vertices)
        if g.edge_count and g.edge_count <= max_edges
    ]
    for support in supports:
        base = support.endpoints
        for mults in itertools.product(range(1, max_multiplicity + 1), repeat=len(base)):
            total = sum(mults)
            if not (min_edges <= total <= max_edges):
                continue
            edges = []
            for pair, mult in zip(base, mults):
                edges.extend([pair] * mult)
            yield Multigraph(support.n, edges)


# -- random generators -----------------------------------------------------------------


def random_multigraph(
    rng: random.Random,
    max_vertices: int = 8,
    max_edges: int = 12,
    *,
    allow_loops: bool = False,
    connected: bool = True,
) -> Multigraph:
    """A random multigraph; retries until connectivity holds when asked."""
    while True:
        n = rng.randint(1, max_vertices)
        m = rng.randint(1, max_edges)
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if not allow_loops:
                while v == u:
                    if n == 1:
                        break
                    v = rng.randrange(n)
                if n == 1:
                    continue
            edges.append((u, v))
        if not edges:
            continue
        h = Multigraph(n, edges)
        if not connected or h.is_connected():
            return h


def random_essentially_3ec_multigraph(
    rng: random.Random, max_vertices: int = 7, max_edges: int = 12
) -> Multigraph:
    """Rejection-sampled connected, essentially 3-edge-connected multigraph."""
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
    while True:
        n = rng.randint(1, max_vertices)
        m = rng.randint(1, max_edges)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        h = Multigraph(n, edges)
        if h.is_connected():
            return h
