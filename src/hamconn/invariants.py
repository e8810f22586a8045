"""Predicates and numeric invariants: claws, connectivity, domination.

Everything here is exact.  The search routines are written for desk-scale
inputs (a few dozen vertices); they use bitmask adjacency throughout, and
``dominating_set`` searches each size bound with one loop over an explicit
stack, so no set size reaches the interpreter's recursion limit.

``is_k_connected`` decides ``k <= 3`` without max-flow: after the degree
check it removes every vertex set of size ``k - 1`` and tests what is left
for connectivity with one bitmask search.  Larger ``k`` and the exact value
go through ``vertex_connectivity``, which runs max-flow on the quotient by
true twins (vertices with equal closed neighborhoods, grouped by
``true_twin_leads``), each class a node whose capacity is its size; the
IDT census in ``reduction`` walks the same classes.  ``_max_flow`` is the
one max-flow routine, shared with ``edge_connectivity``.

On multigraphs, ``find_essential_cut`` removes each small edge set as a
bitmask and walks the components with ``_edge_component``; a component
keeps an edge when its first vertex's mask in ``Multigraph.edge_masks()``
(its incident edges) does.  A vertex set dominates the edges when the OR of
its edge masks is full.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DisconnectedGraphError, GraphError, LiftFailedError
from .multigraph import Multigraph, SimpleGraph, _bit_component, _edge_component, _mask_vertices


# -- claws ---------------------------------------------------------------------


def find_claw(g: SimpleGraph) -> Optional[tuple[int, int, int, int]]:
    """An induced claw ``(center, a, b, c)`` with pairwise non-adjacent leaves."""
    masks = g.adjacency_masks()
    for center in range(g.n):
        nbrs = masks[center]
        if nbrs.bit_count() < 3:
            continue
        # Leaves in lexicographic order: a < b < c, each outside the
        # neighborhoods of the smaller ones.
        rest_a = nbrs
        while rest_a:
            a = (rest_a & -rest_a).bit_length() - 1
            rest_a &= rest_a - 1
            rest_b = rest_a & ~masks[a]
            while rest_b:
                b = (rest_b & -rest_b).bit_length() - 1
                rest_b &= rest_b - 1
                rest_c = rest_b & ~masks[b]
                if rest_c:
                    return (center, a, b, (rest_c & -rest_c).bit_length() - 1)
    return None


def is_claw_free(g: SimpleGraph) -> bool:
    return find_claw(g) is None


# -- simplicial vertices ---------------------------------------------------------


def simplicial_vertices(g: SimpleGraph) -> frozenset[int]:
    """Vertices whose neighborhoods induce complete graphs.

    Isolated and degree-1 vertices count as simplicial.
    """
    masks = g.adjacency_masks()
    out = []
    for v in range(g.n):
        nbrs = masks[v]
        ok = True
        rest = nbrs
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if nbrs & ~masks[u] & ~(1 << u):
                ok = False
                break
        if ok:
            out.append(v)
    return frozenset(out)


# -- vertex connectivity ---------------------------------------------------------


def _max_flow(capacity: list[dict[int, int]], source: int, sink: int, cap: int) -> int:
    """Value of a maximum ``source``-``sink`` flow, or ``cap`` if that is
    smaller.  Augments along shortest residual paths by their bottleneck.
    ``capacity`` holds the residual capacities, with an entry (possibly 0)
    for the reverse of every arc, and is consumed."""
    flow = 0
    while flow < cap:
        parent = {source: source}
        queue = [source]
        while queue and sink not in parent:
            nxt = []
            for x in queue:
                for y, c in capacity[x].items():
                    if c > 0 and y not in parent:
                        parent[y] = x
                        nxt.append(y)
            queue = nxt
        if sink not in parent:
            break
        bottleneck = cap - flow
        y = sink
        while y != source:
            x = parent[y]
            if capacity[x][y] < bottleneck:
                bottleneck = capacity[x][y]
            y = x
        y = sink
        while y != source:
            x = parent[y]
            capacity[x][y] -= bottleneck
            capacity[y][x] += bottleneck
            y = x
        flow += bottleneck
    return flow


def _twin_leads(masks: Sequence[int]) -> list[int]:
    """Each vertex's least true twin: the least vertex with the same closed
    neighborhood ``masks[v] | 1 << v``."""
    first: dict[int, int] = {}
    return [first.setdefault(mask | 1 << v, v) for v, mask in enumerate(masks)]


def true_twin_leads(g: SimpleGraph) -> list[int]:
    """``lead[v]``: the vertex standing for v's class of true twins, checked.

    Swapping two true twins is an automorphism of ``g``, so a question that
    is invariant under automorphisms needs one member of each class.  The
    check raises ``LiftFailedError`` unless every lead has the vertex's
    closed neighborhood, is at most the vertex and leads itself."""
    masks = g.adjacency_masks()
    lead = _twin_leads(masks)
    for v, a in enumerate(lead):
        if masks[v] | 1 << v != masks[a] | 1 << a:
            raise LiftFailedError(f"vertices {a} and {v} are not true twins")
        if a > v or lead[a] != a:
            raise LiftFailedError(f"lead {a} of vertex {v} is not a lead at or below it")
    return lead


def _split_network(masks: Sequence[int], size: Sequence[int]) -> list[dict[int, int]]:
    """The vertex-split digraph of the twin quotient as residual capacities.

    Node 2a = a_in, 2a+1 = a_out for each lead a (``size[a] > 0``).  Arcs:
    a_in->a_out with the class size as capacity, and a_out->b_in for each
    pair of adjacent leads, uncapped (capacity ``len(masks)`` each way).
    """
    n = len(masks)
    capacity: list[dict[int, int]] = [dict() for _ in range(2 * n)]
    leads = sum(1 << a for a in range(n) if size[a])
    for a in range(n):
        if not size[a]:
            continue
        capacity[2 * a][2 * a + 1] = size[a]
        capacity[2 * a + 1].setdefault(2 * a, 0)
        rest = masks[a] & leads
        while rest:
            b = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            capacity[2 * a + 1][2 * b] = n
            capacity[2 * b].setdefault(2 * a + 1, 0)
    return capacity


def _min_separator(network: list[dict[int, int]], s: int, t: int, cap: int) -> int:
    """The least total class size separating leads s and t, via flow on a
    copy of the split ``network``, or ``cap`` if that is smaller.  The
    split arcs of s and t are uncapped in the copy."""
    capacity = [row.copy() for row in network]
    n = len(network) // 2
    capacity[2 * s][2 * s + 1] = n
    capacity[2 * t][2 * t + 1] = n
    return _max_flow(capacity, 2 * s, 2 * t + 1, cap)


def vertex_connectivity(g: SimpleGraph) -> int:
    """Minimum number of vertex deletions disconnecting ``g`` (or reducing it
    to a single vertex); ``n - 1`` for complete graphs.

    Decided on the quotient by true twins (``true_twin_leads``), with each
    class's size as its capacity.  This is exact: a minimum separator
    holds every true twin of each vertex it holds, or that vertex could
    leave it and the rest would still separate, and true twins are
    adjacent, so no separator splits a class.
    """
    n = g.n
    if n <= 1:
        return 0
    if g.is_complete():
        return n - 1
    if not g.is_connected():
        return 0
    masks = g.adjacency_masks()
    degs = g.degrees()
    lead = true_twin_leads(g)
    size = [0] * n
    for a in lead:
        size[a] += 1
    best = min(degs)
    network = _split_network(masks, size)
    # A minimum separator either separates a fixed minimum-degree vertex v
    # from some non-neighbor, or contains v, in which case it separates two
    # non-adjacent neighbors of v; twins of one vertex answer alike.
    v = lead[min(range(n), key=lambda x: degs[x])]
    leads = [a for a in range(n) if size[a]]
    for t in leads:
        if t != v and not (masks[v] >> t & 1):
            best = min(best, _min_separator(network, v, t, best))
    nbrs = [a for a in leads if masks[v] >> a & 1]
    for a, b in itertools.combinations(nbrs, 2):
        if not (masks[a] >> b & 1):
            best = min(best, _min_separator(network, a, b, best))
    return best


def is_k_connected(g: SimpleGraph, k: int) -> bool:
    """Whether ``vertex_connectivity(g) >= k``, with cheap early exits."""
    if k <= 0:
        return True
    n = g.n
    if n <= k:
        return g.is_complete() and n - 1 >= k
    if min(g.degrees(), default=0) < k:
        return False
    if k > 3:
        return vertex_connectivity(g) >= k
    # With minimum degree >= k, every component left by deleting fewer than
    # k - 1 vertices has at least 3 vertices, so deleting one more vertex
    # from it keeps the rest disconnected: sets of size k - 1 suffice.
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    for removed in itertools.combinations(range(n), k - 1):
        allowed = full
        for v in removed:
            allowed &= ~(1 << v)
        if _bit_component(masks, allowed & -allowed, allowed) != allowed:
            return False
    return True


# -- edge connectivity (multigraphs, loops ignored) -------------------------------


def edge_connectivity(h: Multigraph) -> int:
    """Size of a minimum edge cut; loops are ignored.  Graphs with at most
    one vertex have no cuts and report ``edge_count + 1`` as a sentinel."""
    if h.n <= 1:
        return h.edge_count + 1
    if not h.is_connected():
        return 0
    mult: list[dict[int, int]] = [dict() for _ in range(h.n)]
    for u, v in h.endpoints:
        if u != v:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    return min(
        _max_flow([dict(row) for row in mult], 0, t, h.edge_count) for t in range(1, h.n)
    )


# -- domination -------------------------------------------------------------------


@dataclass(frozen=True)
class DominatingSet:
    """A set of vertices whose closed neighborhoods cover the host graph."""

    vertices: frozenset[int]
    host: SimpleGraph

    def validate(self) -> bool:
        masks = self.host.adjacency_masks()
        covered = 0
        for v in self.vertices:
            self.host.check_vertex(v)
            covered |= masks[v] | (1 << v)
        return covered == (1 << self.host.n) - 1


def dominating_set(g: SimpleGraph, k: int) -> Optional[DominatingSet]:
    """A dominating set of size at most ``k`` if one exists.

    Branch and bound on the most-constrained uncovered vertex, using closed
    neighborhood bitmasks; exact.  Iterative deepening keeps the returned
    set minimum-size.
    """
    if k < 0:
        return None
    n = g.n
    if n == 0:
        return DominatingSet(frozenset(), g)
    masks = g.adjacency_masks()
    closed = [masks[v] | (1 << v) for v in range(n)]
    closed_size = [mask.bit_count() for mask in closed]
    full = (1 << n) - 1
    max_cover = max(closed_size)
    for size in range(k + 1):
        # chosen[i] is the vertex taken at depth i; stack[i] holds the covered
        # mask and the untried candidates of the node where it was taken.
        chosen: list[int] = []
        stack: list[tuple[int, Iterator[int]]] = []
        covered = 0
        while covered != full:
            missing = full & ~covered
            budget = size - len(chosen)
            untried: Iterator[int] = iter(())
            if budget and missing.bit_count() <= budget * max_cover:
                # Branch on an uncovered vertex u with the fewest dominators,
                # closed[u] (closed neighborhoods are symmetric); try the most
                # newly covered first, then by vertex id.
                u = min(_mask_vertices(missing), key=closed_size.__getitem__)
                untried = iter(
                    sorted(_mask_vertices(closed[u]), key=lambda v: -(closed[v] & missing).bit_count())
                )
            v = next(untried, None)
            while v is None and stack:
                covered, untried = stack.pop()
                chosen.pop()
                v = next(untried, None)
            if v is None:
                break
            stack.append((covered, untried))
            chosen.append(v)
            covered |= closed[v]
        else:
            ds = DominatingSet(frozenset(chosen), g)
            if not ds.validate():
                raise LiftFailedError("dominating set search returned a non-dominating set")
            return ds
    return None


def domination_number(g: SimpleGraph) -> int:
    if g.n == 0:
        raise GraphError("the empty graph has no domination number")
    # The full vertex set always dominates, and the set found is minimum.
    return len(dominating_set(g, g.n).vertices)


# -- essential edge connectivity ----------------------------------------------------


def _nontrivial_component_count(h: Multigraph, removed: int) -> int:
    """How many components of ``h`` minus the edge mask ``removed`` keep an
    edge, counted up to 2.  A component keeps one exactly when its first
    vertex does: a larger component reaches its other vertices along kept
    edges, and a lone vertex can keep only its loops."""
    inc, masks = h.incidence(), h.edge_masks()
    left = (1 << h.n) - 1
    count = 0
    while left and count < 2:
        v = (left & -left).bit_length() - 1
        left &= ~_edge_component(inc, v, removed)
        if masks[v] & ~removed:
            count += 1
    return count


def find_essential_cut(h: Multigraph, k: int) -> Optional[frozenset[int]]:
    """An edge set of size below ``k`` whose removal leaves two or more
    nontrivial components (components containing an edge), or ``None``.

    Exhaustive over subsets; meant for ``k <= 3``.
    """
    if not h.is_connected():
        raise DisconnectedGraphError("essential edge-connectivity needs a connected graph")
    m = h.edge_count
    for size in range(1, min(k - 1, m) + 1):
        for subset in itertools.combinations(range(m), size):
            if _nontrivial_component_count(h, sum(1 << e for e in subset)) == 2:
                return frozenset(subset)
    return None


def is_essentially_k_edge_connected(h: Multigraph, k: int) -> bool:
    """True when every essential edge-cut has size at least ``k``.

    Graphs with no essential cut at all (stars, tiny paths) report True for
    every ``k``.
    """
    return find_essential_cut(h, k) is None


# -- edge domination by an edge set ---------------------------------------------------


def edges_dominate(h: Multigraph, f: Iterable[int]) -> bool:
    """Whether every edge of ``h`` has an endpoint among the endpoints of ``f``."""
    anchors = []
    for e in f:
        h.check_edge(e)
        anchors.extend(h.endpoints[e])
    return vertices_dominate_edges(h, anchors)


def vertices_dominate_edges(h: Multigraph, vertices: Iterable[int]) -> bool:
    """Whether every edge of ``h`` has an endpoint in ``vertices``."""
    inc = h.edge_masks()
    touched = 0
    for v in vertices:
        h.check_vertex(v)
        touched |= inc[v]
    return touched == (1 << h.edge_count) - 1
