"""Independent brute-force oracles used to freeze and cross-check expected
values.  Everything here avoids the library's search machinery on purpose:
plain subset/permutation enumeration, or networkx.  Two exceptions:
``plain_missing_idt_pair`` runs the library's trail search on every pair,
to check the twin-class census that skips most of them, and the two test
corpora at the end take their simple graphs up to isomorphism from
``graph_classes``, which ``test_corpus.py`` checks on its own."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

import networkx as nx

from hamconn.corpus import MAX_ENUMERATION_VERTICES, graph_classes, graph_from_edge_mask
from hamconn.errors import GraphError
from hamconn.multigraph import Multigraph, SimpleGraph
from hamconn.trails import find_idt


def to_nx(g: Multigraph):
    if isinstance(g, SimpleGraph):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.endpoints)
        return out
    out = nx.MultiGraph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.endpoints)
    return out


def nx_isomorphic(a: Multigraph, b: Multigraph) -> bool:
    return nx.is_isomorphic(to_nx(a), to_nx(b))


def permutation_isomorphic(a: Multigraph, b: Multigraph) -> bool:
    """Full-permutation isomorphism check for tiny graphs."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    target = b.sorted_edge_multiset()
    for perm in itertools.permutations(range(a.n)):
        image = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in a.endpoints
        )
        if tuple(image) == target:
            return True
    return False


def brute_dominating_sets(g: SimpleGraph, k: int):
    """All dominating sets of size exactly k, by raw subset enumeration."""
    masks = g.adjacency_masks()
    closed = [masks[v] | (1 << v) for v in range(g.n)]
    full = (1 << g.n) - 1
    out = []
    for subset in itertools.combinations(range(g.n), k):
        covered = 0
        for v in subset:
            covered |= closed[v]
        if covered == full:
            out.append(frozenset(subset))
    return out


def brute_domination_number(g: SimpleGraph) -> int:
    for k in range(1, g.n + 1):
        if brute_dominating_sets(g, k):
            return k
    raise AssertionError("unreachable")


def brute_hamiltonian_path(g: SimpleGraph, a: int, b: int) -> bool:
    """Permutation scan; fine for n <= 9."""
    middle = [v for v in range(g.n) if v not in (a, b)]
    for perm in itertools.permutations(middle):
        walk = (a, *perm, b)
        if all(g.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1)):
            return True
    return False


def brute_hamiltonian_cycle(g: SimpleGraph) -> bool:
    rest = list(range(1, g.n))
    for perm in itertools.permutations(rest):
        walk = (0, *perm, 0)
        if all(g.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1)):
            return True
    return False


def _trail_extensions(h: Multigraph, cur: int, used: frozenset):
    for e, w in h.incidence()[cur]:
        if e not in used and not h.is_loop(e):
            yield e, w


def brute_closed_trail_through(h: Multigraph, required, edge) -> bool:
    """Unpruned, unmemoized closed-trail search (tiny inputs only)."""
    start, second = h.endpoints[edge]
    required = set(required)

    def walk(cur: int, used: frozenset, visited: frozenset) -> bool:
        if cur == start and required <= visited:
            return True
        for e, w in _trail_extensions(h, cur, used):
            if walk(w, used | {e}, visited | {w}):
                return True
        return False

    return walk(second, frozenset([edge]), frozenset([start, second]))


def brute_dct(h: Multigraph) -> bool:
    def dominates(vertices) -> bool:
        return all(u in vertices or v in vertices for u, v in h.endpoints)

    for v in range(h.n):
        if dominates({v}):
            return True

    def walk(start, cur, used, visited) -> bool:
        if cur == start and used and dominates(visited):
            return True
        for e, w in _trail_extensions(h, cur, used):
            if walk(start, w, used | {e}, visited | {w}):
                return True
        return False

    for e in range(h.edge_count):
        u, v = h.endpoints[e]
        if u == v:
            continue
        if walk(u, v, frozenset([e]), frozenset([u, v])):
            return True
    return False


def brute_idt(h: Multigraph, e1: int, e2: int) -> bool:
    """Unpruned search for an internally dominating (e1, e2)-trail."""

    def dominates(interior) -> bool:
        return all(u in interior or v in interior for u, v in h.endpoints)

    a, b = h.endpoints[e1]
    starts = [(a, b)] if a == b else [(a, b), (b, a)]
    e2_ends = set(h.endpoints[e2])

    def walk(cur, used, interior) -> bool:
        if e2 not in used and cur in e2_ends:
            if dominates(interior | {cur}):
                return True
        for e, w in _trail_extensions(h, cur, used):
            if e == e2:
                continue
            if walk(w, used | {e}, interior | {cur}):
                return True
        return False

    for start, second in starts:
        if walk(second, frozenset([e1]), frozenset()):
            return True
    return False


def plain_missing_idt_pair(h: Multigraph) -> Optional[tuple[int, int]]:
    """The first edge pair ``e1 < e2`` of ``h``, in lexicographic order,
    without an internally dominating trail: every pair searched, no twins."""
    for e1, e2 in itertools.combinations(range(h.edge_count), 2):
        if find_idt(h, e1, e2) is None:
            return (e1, e2)
    return None


def multigraph_with_twins(rng: random.Random) -> Multigraph:
    """A connected loopless multigraph on a random base of 2..5 vertices
    whose line graph has true twins: some base edges doubled or tripled,
    and groups of one to three pendant edges at random vertices."""
    n = rng.randint(2, 5)
    base = [(rng.randrange(v), v) for v in range(1, n)]
    base += [pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    edges = []
    for pair in base:
        edges += [pair] * rng.choice((1, 1, 2, 3))
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(n)
        for _ in range(rng.randint(1, 3)):
            edges.append((v, n))
            n += 1
    return Multigraph(n, edges)


def girth(g: SimpleGraph) -> int:
    """Length of a shortest cycle via BFS from every vertex; 0 if acyclic."""
    best = 0
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for x in queue:
                for y in g.neighbors(x):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        cycle = dist[x] + dist[y] + 1
                        if best == 0 or cycle < best:
                            best = cycle
            queue = nxt
    return best


def spanning_connected_even_subgraph_exists(h: Multigraph) -> bool:
    """Spanning closed trail oracle: an edge subset with all degrees even and
    positive whose support is connected and covers every vertex."""
    if h.n == 1:
        return True
    m = h.edge_count
    nonloop = [e for e in range(m) if not h.is_loop(e)]
    for r in range(1, len(nonloop) + 1):
        for subset in itertools.combinations(nonloop, r):
            deg = [0] * h.n
            for e in subset:
                u, v = h.endpoints[e]
                deg[u] += 1
                deg[v] += 1
            if any(d == 0 or d % 2 for d in deg):
                continue
            sub = Multigraph(h.n, [h.endpoints[e] for e in subset])
            if sub.is_connected():
                return True
    return False


def _nx_keyed(h: Multigraph, skip=()) -> "nx.MultiGraph":
    """``h`` as a networkx multigraph keyed by edge id, self-loops kept,
    without the edge ids in ``skip``."""
    out = nx.MultiGraph()
    out.add_nodes_from(range(h.n))
    out.add_edges_from((u, v, e) for e, (u, v) in enumerate(h.endpoints) if e not in skip)
    return out


def nx_essential_cut(h: Multigraph, k: int):
    """The first edge set, in ``combinations`` order by size, of size below
    ``k`` that leaves two components holding an edge (a loop counts)."""
    full = _nx_keyed(h)
    for size in range(1, min(k - 1, h.edge_count) + 1):
        for subset in itertools.combinations(range(h.edge_count), size):
            rest = nx.restricted_view(full, [], [(*h.endpoints[e], e) for e in subset])
            holding = sum(
                1 for comp in nx.connected_components(rest) if any(rest.degree(v) for v in comp)
            )
            if holding >= 2:
                return frozenset(subset)
    return None


def nx_component_of(h: Multigraph, v: int, forbidden) -> frozenset:
    return frozenset(nx.node_connected_component(_nx_keyed(h, set(forbidden)), v))


def pairwise_line_graph_edges(h: Multigraph) -> list:
    """Edges (i, j), i < j, of L(h) from the definition, in (i, j) order."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(h.edge_count), 2)
        if set(h.endpoints[i]) & set(h.endpoints[j])
    ]


def enumerate_labeled(n: int):
    """Every labeled simple graph on ``n`` vertices exactly once, by edge
    mask; capped where ``graph_from_edge_mask`` is."""
    if not 0 <= n <= MAX_ENUMERATION_VERTICES:
        raise GraphError(f"labeled enumeration runs from 0 to {MAX_ENUMERATION_VERTICES} vertices")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_edge_mask(n, mask)


def enumerate_labeled_upto(n: int):
    for k in range(1, n + 1):
        yield from enumerate_labeled(k)


def unpruned_graph_classes(max_vertices: int) -> list:
    """``(n, endpoints, labeled_count)`` per isomorphism class of simple
    graphs on 1..``max_vertices`` vertices, with no pruning and no
    automorphism group: every class representative on n - 1 vertices, in
    order, is joined to all 2^(n-1) neighbor sets of a new vertex n - 1, and
    each child adds its parent's count to the first class it is isomorphic
    to (networkx), or starts a new class with itself as representative.
    ``graph_classes`` yields the same classes and counts, with other
    representatives and in another order."""
    level = [((), 1)]
    out = [(1, (), 1)]
    for n in range(2, max_vertices + 1):
        classes: list = []  # [endpoints, count, networkx graph]
        buckets: dict = {}  # sorted degree sequence -> indices into classes
        for endpoints, weight in level:
            for mask in range(1 << (n - 1)):
                child = endpoints + tuple((v, n - 1) for v in range(n - 1) if mask >> v & 1)
                graph = nx.Graph()
                graph.add_nodes_from(range(n))
                graph.add_edges_from(child)
                bucket = buckets.setdefault(tuple(sorted(d for _, d in graph.degree())), [])
                for i in bucket:
                    if nx.is_isomorphic(classes[i][2], graph):
                        classes[i][1] += weight
                        break
                else:
                    bucket.append(len(classes))
                    classes.append([child, weight, graph])
        level = [(endpoints, weight) for endpoints, weight, _ in classes]
        out.extend((n, endpoints, weight) for endpoints, weight in level)
    return out


def full_class_tally(classes, hypothesis: str) -> dict:
    """Stage counts of the exhaustive check at every bound, from every
    ``(graph, labeled_count)`` class, claws and all: bound -> (total,
    connected, claw-free, k-connected, domination<=k, conclusion), where k
    is 3 for "thm1" and 2 for "ageev".  Each stage is decided here by
    networkx or brute force; a graph that passes every hypothesis stage
    but not the conclusion is missing from the last count."""
    k = 3 if hypothesis == "thm1" else 2
    per_n: dict = {}
    for g, copies in classes:
        G = to_nx(g)
        reached = 0
        if nx.is_connected(G):
            reached = 1
            if not any(
                not (G.has_edge(a, b) or G.has_edge(a, c) or G.has_edge(b, c))
                for v in G
                for a, b, c in itertools.combinations(G[v], 3)
            ):
                reached = 2
                if g.n > k and nx.node_connectivity(G) >= k:
                    reached = 3
                    if brute_domination_number(g) <= k:
                        reached = 4
                        if hypothesis == "thm1":
                            holds = all(
                                brute_hamiltonian_path(g, a, b)
                                for a, b in itertools.combinations(range(g.n), 2)
                            )
                        else:
                            holds = brute_hamiltonian_cycle(g)
                        reached += holds
        counts = per_n.setdefault(g.n, [0] * 6)
        for i in range(reached + 1):
            counts[i] += copies
    out, running = {}, [0] * 6
    for n in sorted(per_n):
        running = [a + b for a, b in zip(running, per_n[n])]
        out[n] = tuple(running)
    return out


def connected_graphs_up_to_isomorphism(max_vertices: int) -> list[SimpleGraph]:
    """One representative per isomorphism class of connected simple graphs:
    the connected classes of ``graph_classes``, with its representatives."""
    return [g for g, _ in graph_classes(max_vertices) if g.is_connected()]


def enumerate_multigraph_corpus(
    max_vertices: int = 6,
    min_edges: int = 3,
    max_edges: int = 9,
    max_multiplicity: int = 3,
) -> Iterator[Multigraph]:
    """Connected loopless multigraphs, exhaustive up to isomorphism, for the
    trail-equivalence checks.

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
