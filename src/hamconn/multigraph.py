"""Immutable multigraph / simple graph model.

Vertices are the dense integers ``0..n-1`` and edges carry dense integer ids
``0..m-1``; parallel edges get distinct ids and loops are allowed (a loop
contributes 2 to the degree of its vertex).  All graphs are immutable after
construction: the one editing operation, :meth:`Multigraph.subdivide`,
returns a new graph that keeps every edge id (the subdivided edge's id
goes to its half at the smaller end), so callers can track any edge through
the edit.

Reachability has two walks.  :func:`_bit_component` is vertex-restricted: it
grows a component over the neighbor bitmasks of ``adjacency_masks()`` inside
an allowed vertex set.  :func:`_edge_component` is edge-restricted: it walks
``incidence()`` while avoiding a blocked edge mask; the essential edge cuts
in ``invariants`` and the trail search's reachability prune in ``trails``
are its callers.  ``edge_masks()`` holds each vertex's incident edges as a
bitmask, for the edge-set questions asked next to the walk.

Isomorphism has one engine, :func:`canonical_labeling`: individualization
and refinement with automorphism pruning (McKay & Piperno, "Practical graph
isomorphism, II", 2014), which shortcuts sets of twin vertices.  The
automorphisms its search finds for pruning are handed to callers that ask,
so the class generator in ``corpus`` gets each parent's group for free.
:func:`find_isomorphism` compares the canonical forms of its two graphs.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import GraphError, LiftFailedError, UnknownEdgeError, UnknownVertexError

#: Default vertex cap for canonical labeling and the isomorphism tests built
#: on it, and so for ``preimage``.  The search is exponential in the worst
#: case, but at 64 vertices it measured at most 70 ms on large symmetric
#: inputs (L(K8,8), L(K11), Q6, Paley(61), C64, K64).
ISOMORPHISM_SIZE_GUARD = 64


def _bit_component(masks: Sequence[int], seed: int, allowed: int) -> int:
    """The vertices of ``allowed`` reachable from ``seed`` inside ``allowed``,
    as a bitmask; ``masks`` are per-vertex neighbor bitmasks."""
    comp = seed & allowed
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= masks[v]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def _edge_component(inc: Sequence[Sequence[tuple[int, int]]], v: int, blocked: int) -> int:
    """The vertices reachable from ``v`` along edges outside the edge mask
    ``blocked``, as a bitmask; ``inc`` is ``Multigraph.incidence()``."""
    comp = 1 << v
    stack = [v]
    while stack:
        for e, w in inc[stack.pop()]:
            if not (blocked >> e & 1 or comp >> w & 1):
                comp |= 1 << w
                stack.append(w)
    return comp


class Multigraph:
    """Undirected multigraph on vertices ``0..n-1``.

    Edge ``i`` joins the unordered pair ``endpoints[i]``; pairs are stored
    normalized with the smaller vertex first.
    """

    __slots__ = ("n", "endpoints", "_incidence", "_degrees", "_adjacency", "_edge_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        normalized = []
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise UnknownVertexError(f"edge ({u}, {v}) leaves vertex range 0..{n - 1}")
            normalized.append((u, v) if u <= v else (v, u))
        self.n = n
        self.endpoints: tuple[tuple[int, int], ...] = tuple(normalized)
        self._incidence: Optional[tuple] = None
        self._degrees: Optional[tuple[int, ...]] = None
        self._adjacency: Optional[tuple[int, ...]] = None
        self._edge_masks: Optional[tuple[int, ...]] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.endpoints)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise UnknownVertexError(f"vertex {v} not in 0..{self.n - 1}")

    def check_edge(self, e: int) -> None:
        if not (0 <= e < len(self.endpoints)):
            raise UnknownEdgeError(f"edge {e} not in 0..{len(self.endpoints) - 1}")

    def is_loop(self, e: int) -> bool:
        self.check_edge(e)
        u, v = self.endpoints[e]
        return u == v

    def other_end(self, e: int, v: int) -> int:
        """The endpoint of ``e`` opposite ``v`` (``v`` itself for a loop)."""
        a, b = self.endpoints[e]
        if v == a:
            return b
        if v == b:
            return a
        raise UnknownVertexError(f"vertex {v} is not an endpoint of edge {e}")

    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of ``(edge_id, other_endpoint)``; loops listed once."""
        if self._incidence is None:
            inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for e, (u, v) in enumerate(self.endpoints):
                inc[u].append((e, v))
                if u != v:
                    inc[v].append((e, u))
            self._incidence = tuple(tuple(entries) for entries in inc)
        return self._incidence

    def degree(self, v: int) -> int:
        """Number of edge endpoints at ``v``; a loop contributes 2."""
        self.check_vertex(v)
        return self.degrees()[v]

    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            deg = [0] * self.n
            for u, v in self.endpoints:
                deg[u] += 1
                deg[v] += 1
            self._degrees = tuple(deg)
        return self._degrees

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmasks of distinct neighbors; loops are ignored."""
        if self._adjacency is None:
            masks = [0] * self.n
            for u, v in self.endpoints:
                if u != v:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            self._adjacency = tuple(masks)
        return self._adjacency

    def edge_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmasks of incident edge ids; loops are included."""
        if self._edge_masks is None:
            masks = [0] * self.n
            for e, (u, v) in enumerate(self.endpoints):
                masks[u] |= 1 << e
                masks[v] |= 1 << e
            self._edge_masks = tuple(masks)
        return self._edge_masks

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Distinct neighbors of ``v`` through non-loop edges, ascending."""
        self.check_vertex(v)
        return tuple(sorted({w for _, w in self.incidence()[v] if w != v}))

    def multiplicity(self, u: int, v: int) -> int:
        """Number of edges joining ``u`` and ``v`` (loop count for ``u == v``)."""
        pair = (u, v) if u <= v else (v, u)
        return sum(1 for p in self.endpoints if p == pair)

    # -- structural queries ------------------------------------------------

    def is_connected(self) -> bool:
        """Reachability over non-loop edges; the empty graph counts as connected."""
        full = (1 << self.n) - 1
        return _bit_component(self.adjacency_masks(), 1, full) == full

    # -- editing -----------------------------------------------------------

    def subdivide(self, e: int) -> "Multigraph":
        """Replace edge ``e`` by a path of two edges through a new vertex.

        The new vertex is ``n``.  Edge ``e`` becomes the half at its smaller
        end, the half at the other end is appended as edge ``m``, and every
        other edge keeps its id.  Subdividing a loop yields two parallel
        edges between the loop vertex and the new vertex.
        """
        self.check_edge(e)
        u, v = self.endpoints[e]
        edges = list(self.endpoints)
        edges[e] = (u, self.n)
        edges.append((v, self.n))
        return Multigraph(self.n + 1, edges)

    # -- equality / hashing (labeled, structural) ---------------------------

    def sorted_edge_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.endpoints))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.sorted_edge_multiset() == other.sorted_edge_multiset()

    def __hash__(self) -> int:
        return hash((self.n, self.sorted_edge_multiset()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={list(self.endpoints)!r})"


class SimpleGraph(Multigraph):
    """Loop-free multigraph without parallel edges."""

    __slots__ = ("_edge_ids",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        super().__init__(n, edges)
        ids: dict[tuple[int, int], int] = {}
        for e, (u, v) in enumerate(self.endpoints):
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed in a simple graph")
            if (u, v) in ids:
                raise GraphError(f"parallel edge ({u}, {v}) not allowed in a simple graph")
            ids[(u, v)] = e
        self._edge_ids = ids

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.adjacency_masks()[u] >> v & 1)

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self._edge_ids[(u, v) if u <= v else (v, u)]
        except KeyError:
            raise UnknownEdgeError(f"no edge joins {u} and {v}") from None

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2


# -- isomorphism --------------------------------------------------------------


def _multiplicity_rows(g: Multigraph) -> list[dict[int, int]]:
    rows: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for u, v in g.endpoints:
        rows[u][v] = rows[u].get(v, 0) + 1
        if u != v:
            rows[v][u] = rows[v].get(u, 0) + 1
    return rows


def _refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    """The coarsest equitable refinement of a vertex coloring.

    Recolors by (color, sorted neighbor colors with multiplicity) and
    renumbers in sorted order, so cells split in place and the colors are
    comparable across isomorphic graphs.
    """
    n = len(adj)
    count = len(set(colors))
    while True:
        keys = [(colors[v], tuple(sorted([colors[w] for w in adj[v]]))) for v in range(n)]
        table = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [table[key] for key in keys]
        if len(table) == count:
            return colors
        count = len(table)


def _root_refinement(g: Multigraph) -> tuple[list[dict[int, int]], list[list[int]], list[int]]:
    """Multiplicity rows, neighbor lists with one entry per edge, and the
    refinement of the unit coloring: what every labeling search starts from."""
    rows = _multiplicity_rows(g)
    adj = [[w for w, k in row.items() for _ in range(k)] for row in rows]
    return rows, adj, _refine(adj, [0] * g.n)


def canonical_labeling(
    g: Multigraph,
    *,
    size_guard: int = ISOMORPHISM_SIZE_GUARD,
    automorphisms: Optional[list] = None,
) -> tuple[int, ...]:
    """A relabeling permutation depending only on the isomorphism class:
    ``relabel(a, canonical_labeling(a)) == relabel(b, canonical_labeling(b))``
    whenever ``a`` and ``b`` are isomorphic.

    Individualization-refinement with automorphism pruning (McKay & Piperno,
    "Practical graph isomorphism, II", 2014).  Each search node is a vertex
    coloring refined until no color class splits; a node branches on its
    smallest class that is not a set of twins, individualizing each member
    in turn.  A node whose classes are singletons or sets of twins is a
    leaf, labeled by (color, vertex); the least sorted edge list over the
    leaves is the canonical form.  Exponential in the worst case, fine at
    desk scale.

    When ``automorphisms`` is a list, the automorphisms the search used for
    pruning (twin swaps and the maps between leaves with equal codes) are
    appended to it, each as a list mapping vertex ``v`` to its image.
    """
    if g.n > size_guard:
        raise GraphError(f"canonical labeling capped at {size_guard} vertices")
    if g.n == 0:
        return ()
    perm, auts = _labeling(g, *_root_refinement(g))
    if automorphisms is not None:
        automorphisms.extend(auts)
    return perm


def _labeling(
    g: Multigraph, rows: list[dict[int, int]], adj: list[list[int]], root: list[int]
) -> tuple[tuple[int, ...], list[list[int]]]:
    """The search behind ``canonical_labeling``, from ``_root_refinement(g)``:
    the permutation and the automorphisms found on the way."""
    n = g.n
    # Twins (equal loops and equal multiplicity to every other vertex) are
    # swapped by an automorphism, so they share a root color; twin[v] is the
    # least vertex of v's twin class, and the swaps seed the orbit pruning.
    # Equal root colors give equal degrees, so a pair with equal multiplicity
    # to every other vertex also has equal loop counts.
    twin = list(range(n))
    auts = []
    for v in range(n):
        for w in range(v):
            if twin[w] != w or root[w] != root[v]:
                continue
            others = (rows[v].keys() | rows[w].keys()) - {v, w}
            if all(rows[v].get(x, 0) == rows[w].get(x, 0) for x in others):
                twin[v] = w
                auts.append([v if x == w else w if x == v else x for x in range(n)])
                break
    best: dict = {"code": None}

    def search(colors: list[int], path: list[int]) -> int:
        """Explore one node; return the depth at which the search resumes."""
        depth = len(path)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target, color = None, -1
        for c in sorted(cells):
            cell = cells[c]
            if any(twin[v] != twin[cell[0]] for v in cell):
                if target is None or len(cell) < len(target):
                    target, color = cell, c
        if target is None:
            # Every order of the remaining twin classes gives the same code.
            order = sorted(range(n), key=lambda v: (colors[v], v))
            perm = [0] * n
            for position, v in enumerate(order):
                perm[v] = position
            code = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.endpoints)
            if best["code"] is None or code < best["code"]:
                best.update(code=code, perm=perm, order=order, path=path)
                return depth
            if code != best["code"]:
                return depth
            # Equal codes: this leaf and the best one differ by an automorphism
            # that maps this branch below their common ancestor onto the
            # explored branch of the best leaf, so the search resumes there.
            auts.append([best["order"][perm[v]] for v in range(n)])
            common = 0
            while path[common] == best["path"][common]:
                common += 1
            return common
        # Children in one orbit of the automorphisms found so far that fix
        # the path pointwise have subtrees with the same codes.
        explored: set[int] = set()
        for v in target:
            if v in explored:
                continue
            child = [2 * c for c in colors]
            for w in target:
                child[w] = 2 * color + 1
            child[v] = 2 * color
            resume = search(_refine(adj, child), path + [v])
            if resume < depth:
                return resume
            explored.add(v)
            fixing = [aut for aut in auts if all(aut[p] == p for p in path)]
            stack = list(explored)
            while stack:
                x = stack.pop()
                for aut in fixing:
                    if aut[x] not in explored:
                        explored.add(aut[x])
                        stack.append(aut[x])
        return depth

    search(root, [])
    return tuple(best["perm"]), auts


def find_isomorphism(
    a: Multigraph, b: Multigraph, *, size_guard: int = ISOMORPHISM_SIZE_GUARD
) -> Optional[tuple[int, ...]]:
    """A degree- and multiplicity-preserving vertex bijection, or ``None``.

    Compares the canonical forms of ``a`` and ``b``; intended for desk-scale
    graphs only, hence the size guard.
    """
    if a.n > size_guard or b.n > size_guard:
        raise GraphError(f"isomorphism search capped at {size_guard} vertices")
    if a.n != b.n or a.edge_count != b.edge_count:
        return None
    if sorted(a.degrees()) != sorted(b.degrees()):
        return None
    # The refined root colors are isomorphism-invariant: a cheap rejection
    # before either graph is labeled.
    start_a, start_b = _root_refinement(a), _root_refinement(b)
    if sorted(start_a[2]) != sorted(start_b[2]):
        return None
    perm_a = _labeling(a, *start_a)[0]
    perm_b = _labeling(b, *start_b)[0]
    if relabel(a, perm_a) != relabel(b, perm_b):
        return None
    inv_b = sorted(range(b.n), key=perm_b.__getitem__)
    result = tuple(inv_b[perm_a[v]] for v in range(a.n))
    if not _is_isomorphism(a, b, result):
        raise LiftFailedError("isomorphism search returned a non-isomorphism")
    return result


def _is_isomorphism(a: Multigraph, b: Multigraph, mapping: Sequence[int]) -> bool:
    if sorted(mapping) != list(range(b.n)):
        return False
    mapped = sorted(
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in a.endpoints
    )
    return tuple(mapped) == b.sorted_edge_multiset()


def isomorphic(a: Multigraph, b: Multigraph, *, size_guard: int = ISOMORPHISM_SIZE_GUARD) -> bool:
    return find_isomorphism(a, b, size_guard=size_guard) is not None


def relabel(g: Multigraph, permutation: Sequence[int]) -> Multigraph:
    """The graph with vertex ``v`` renamed to ``permutation[v]``."""
    if sorted(permutation) != list(range(g.n)):
        raise GraphError("relabeling must be a permutation of the vertices")
    edges = [(permutation[u], permutation[v]) for u, v in g.endpoints]
    cls = SimpleGraph if isinstance(g, SimpleGraph) else Multigraph
    return cls(g.n, edges)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise GraphError("cycle graphs need at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> SimpleGraph:
    return SimpleGraph(leaves + 1, [(0, i + 1) for i in range(leaves)])
